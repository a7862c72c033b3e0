"""The numpy-only matrix exponential, square root and principal log against
scipy.linalg, on the group elements cartanlab exponentiates and takes logs
of: rotations up to 0.97 pi, affine-line elements, Heisenberg unipotents
(defective) and scaled rotations."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab import algebra
from cartanlab.algebra import AlgebraError
import oracles

REL = 1e-12


def rel_err(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def rotation(axis, angle) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    return scipy.linalg.expm(angle * oracles.so3_realization().element(n))


def affine(s, t) -> np.ndarray:
    return np.array([[math.exp(s), t], [0.0, 1.0]])


def heisenberg(a, b, c) -> np.ndarray:
    return np.array([[1.0, a, c], [0.0, 1.0, b], [0.0, 0.0, 1.0]])


coord = st.floats(-3.0, 3.0, allow_nan=False)
axis = st.tuples(coord, coord, coord).filter(lambda v: np.linalg.norm(v) > 1e-3)
REALIZATIONS = [oracles.so3_realization(), algebra.adjoint_realization(oracles.heisenberg()),
                algebra.adjoint_realization(oracles.affine_line()),
                algebra.translation_realization(2)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REALIZATIONS), st.data(), st.floats(-2.0, 2.0))
def test_exp_matrix_matches_scipy_expm(R, data, t):
    xi = data.draw(st.lists(coord, min_size=R.algebra.dim, max_size=R.algebra.dim))
    want = scipy.linalg.expm(t * R.element(xi))
    assert rel_err(algebra.exp_matrix(R, xi, t), want) <= REL


@settings(max_examples=100, deadline=None)
@given(st.floats(-4.0, 4.0), st.sampled_from([1e-6, 1e-2, 0.2, 0.5, 2.0]))
def test_expm_takes_every_pade_degree_and_squares_large_norms(x, scale):
    # against a 40-digit reference: at scale 2 the spread eigenvalues make
    # scipy's expm itself err by up to ~1e-12 (x = -4)
    a = scale * np.array([[x, 1.0, 0.0], [-1.0, 0.3 * x, 2.0], [0.5, 0.0, -x]])
    with mpmath.workdps(40):
        want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
    assert rel_err(algebra.expm(a), want) <= REL


@settings(max_examples=50, deadline=None)
@given(st.floats(-2000.0, 2000.0), st.floats(-2000.0, 2000.0))
def test_expm_of_long_translations(x, y):
    # development exponentiates translation elements of 1-norm up to ~2000
    R = algebra.translation_realization(2)
    want = np.eye(3) + R.element([x, y])
    assert rel_err(algebra.exp_matrix(R, [x, y]), want) <= REL


# elements that the principal log takes: no eigenvalue on the negative
# real axis, however far from I (the square roots bring them close)
log_inputs = st.one_of(
    st.builds(rotation, axis, st.floats(0.0, 0.97 * math.pi)),
    st.builds(affine, st.floats(-3.0, 3.0), coord),
    st.builds(heisenberg, coord, coord, coord),
)


@settings(max_examples=150, deadline=None)
@given(log_inputs)
def test_principal_log_matches_the_log_through_scipy_sqrtm(g):
    got = algebra.principal_log(g)
    original = algebra.sqrtm
    try:
        algebra.sqrtm = lambda a: scipy.linalg.sqrtm(a).real
        want = algebra.principal_log(g)
    finally:
        algebra.sqrtm = original
    # scipy's 1-norm estimator inside logm overflows on subnormal entries
    # (a rotation axis of (1, 1e-308, 0)); its log is still right
    with np.errstate(all="ignore"):
        oracle = scipy.linalg.logm(g).real
    scale = max(np.linalg.norm(want), 1.0)
    assert np.linalg.norm(got - want) <= REL * scale
    assert np.linalg.norm(got - oracle) <= REL * scale
    assert rel_err(scipy.linalg.expm(got), g) <= 1e-12


def translation(x, y) -> np.ndarray:
    return np.eye(3) + algebra.translation_realization(2).element([x, y])


unipotent_inputs = st.one_of(
    st.builds(heisenberg, coord, coord, coord),
    st.builds(affine, st.just(0.0), st.floats(-1e3, 1e3)),
    st.builds(translation, st.floats(-2000.0, 2000.0), st.floats(-2000.0, 2000.0)),
)


@settings(max_examples=150, deadline=None)
@given(unipotent_inputs)
def test_unipotent_log_is_the_terminating_series(g):
    # g - I is strictly upper triangular: no square root is taken
    calls = []
    original = algebra.sqrtm
    try:
        algebra.sqrtm = lambda a: calls.append(a) or original(a)
        got = algebra.principal_log(g)
    finally:
        algebra.sqrtm = original
    assert calls == []
    scale = max(np.linalg.norm(got), 1.0)
    assert np.linalg.norm(got - algebra._log_by_roots(g, 1e-16)) <= REL * scale
    assert np.linalg.norm(got - scipy.linalg.logm(g).real) <= REL * scale


# elements whose principal log takes square roots: no eigenvalue on the
# negative real axis
root_inputs = st.one_of(
    st.builds(rotation, axis, st.floats(math.pi / 3, 0.97 * math.pi)),
    st.builds(affine, st.floats(-3.0, 3.0), coord),
    st.builds(heisenberg, coord, coord, coord),
    st.builds(lambda g, s: s * g, st.builds(rotation, axis, st.floats(0.0, 2.5)),
              st.floats(0.05, 20.0)),
)


@settings(max_examples=150, deadline=None)
@given(root_inputs)
def test_sqrtm_matches_scipy_sqrtm(g):
    want = scipy.linalg.sqrtm(g).real
    assert rel_err(algebra.sqrtm(g), want) <= REL


def test_sqrtm_of_a_defective_unipotent_is_exact():
    g = heisenberg(0.7, -0.4, 0.3)
    root = algebra.sqrtm(g)
    assert np.array_equal(root @ root, g)
    assert np.array_equal(algebra.sqrtm(np.eye(3)), np.eye(3))


@pytest.mark.parametrize("g", [np.diag([-1.0, 2.0]), np.diag([-1.0, 1.0]),
                               rotation([0.0, 0.0, 1.0], math.pi)])
def test_sqrtm_rejects_a_negative_eigenvalue(g):
    with pytest.raises(AlgebraError, match="did not converge"):
        algebra.sqrtm(g)



def test_rotation_log_near_the_branch_cut_is_as_accurate_as_logm():
    # 1,500 seeded rotations by angles in (3.1, pi).  The log's relative
    # condition there is about theta / sin(theta), the divided difference of
    # log over the eigenvalue pair e^{+-i theta}: two backward-stable logs
    # of the same rounded g differ by eps times that (scipy's logm is 2e-12
    # from a 50-digit log at pi - 2e-5), which is 1e-13 at pi - 7e-3.
    # Denman-Beavers roots alone missed it by up to 5,000 times.
    rng = np.random.default_rng(0)
    eps = np.finfo(float).eps
    for _ in range(1500):
        theta = rng.uniform(3.1, math.pi)
        g = rotation(rng.normal(size=3), theta)
        want = scipy.linalg.logm(g).real
        assert rel_err(algebra.principal_log(g), want) <= eps * theta / math.sin(theta)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.builds(affine, st.floats(-3.0, 3.0), st.floats(0.1, 3.0)),
                 st.builds(heisenberg, st.floats(0.1, 3.0), coord, coord).map(lambda g: 1.5 * g)))
def test_non_normal_logs_take_every_root_by_denman_beavers(g):
    assert not algebra._is_normal(g)
    assert np.array_equal(algebra.principal_log(g), algebra._log_by_roots(g, algebra._SERIES_TOL))


@pytest.mark.parametrize("gap", [1e-10, 1e-14, 0.0])
def test_rotation_log_refuses_an_eigenvalue_at_the_cut(gap):
    with pytest.raises(AlgebraError, match="negative real axis"):
        algebra.principal_log(rotation([0.3, -0.5, 0.8], math.pi - gap))


def test_a_nilpotent_exponent_takes_its_terminating_series():
    # Pade scaling and squaring rounds the diagonal of a long translation
    # off 1 (1 - 8.9e-16 here); the series keeps it unipotent
    g = algebra.exp_matrix(algebra.translation_realization(2), [18.0, 4.7])
    assert np.array_equal(np.diag(g), np.ones(3))
    assert np.array_equal(g, [[1.0, 0.0, 18.0], [0.0, 1.0, 4.7], [0.0, 0.0, 1.0]])
    n = np.array([[0.0, 1.5, 0.7], [0.0, 0.0, -2.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(algebra.expm(n), np.eye(3) + n + n @ n / 2)
