import math

import numpy as np
import pytest

from cartanlab import algebra
from cartanlab.algebra import (AlgebraError, AlgebraMap, LieAlgebra,
                               MatrixRealization, Subalgebra, bracket,
                               check_jacobi, exp_matrix, is_automorphism,
                               log_matrix)


def hat(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def test_bracket_abelian_is_zero():
    A = algebra.abelian(2)
    assert np.allclose(bracket(A, [1, 0], [0, 1]), 0.0)


def test_bracket_so3_matches_matrix_commutator_oracle():
    # oracle: commutator of 3x3 rotation generators decomposed back
    A = algebra.so3()
    e = np.eye(3)
    for i in range(3):
        for j in range(3):
            comm = hat(e[i]) @ hat(e[j]) - hat(e[j]) @ hat(e[i])
            expected = np.array([comm[2, 1], comm[0, 2], comm[1, 0]])
            assert np.allclose(bracket(A, e[i], e[j]), expected, atol=1e-14)


def test_bracket_antisymmetry_on_self():
    A = algebra.so3()
    x = np.array([0.3, -1.0, 2.0])
    assert np.allclose(bracket(A, x, x), 0.0)


def test_bracket_dimension_mismatch():
    with pytest.raises(AlgebraError):
        bracket(algebra.so3(), [1.0, 0.0], [0.0, 1.0, 0.0])


def test_jacobi_so3_and_abelian():
    assert check_jacobi(algebra.so3(), 1e-12).passed
    assert check_jacobi(algebra.abelian(5), 1e-15).passed


def test_jacobi_scaled_cyclic_constant_stays_consistent():
    # scaling one cyclic constant keeps Jacobi (the three-parameter family
    # [e1,e2]=a e3, [e2,e3]=b e1, [e3,e1]=c e2 closes for any a, b, c), so
    # this perturbation must NOT be flagged
    c = algebra.so3().structure_constants.copy()
    c[0, 1, 2] += 0.1
    c[1, 0, 2] -= 0.1
    assert algebra.jacobi_residual(c) < 1e-15


def test_jacobi_perturbed_so3_fails():
    # [e1,e2] = e3 + 0.1 e1 breaks Jacobi: [[e1,e2],e3]+cyc = -0.1 e2
    c = algebra.so3().structure_constants.copy()
    c[0, 1, 0] += 0.1
    c[1, 0, 0] -= 0.1
    res = algebra.jacobi_residual(c)
    assert abs(res - 0.1) < 1e-15
    with pytest.raises(AlgebraError):
        LieAlgebra(c)


def test_antisymmetry_enforced_exactly():
    A = algebra.so3()
    c = A.structure_constants
    assert np.array_equal(c, -np.swapaxes(c, 0, 1))


def test_dimension_cap():
    with pytest.raises(AlgebraError):
        LieAlgebra(np.zeros((33, 33, 33)))


def test_exp_identity_at_zero_time():
    R = algebra.so3_realization()
    assert np.allclose(exp_matrix(R, [0.4, 1.0, -0.2], 0.0), np.eye(3))


def test_exp_rodrigues_oracle():
    # Rodrigues: exp(t hat(n)) = I + sin t hat(n) + (1 - cos t) hat(n)^2
    R = algebra.so3_realization()
    t = math.pi / 2
    got = exp_matrix(R, [0, 0, 1], t)
    H = hat([0, 0, 1])
    expected = np.eye(3) + math.sin(t) * H + (1 - math.cos(t)) * H @ H
    assert np.allclose(got, expected, atol=1e-14)
    assert np.allclose(got @ [1, 0, 0], [0, 1, 0], atol=1e-14)


def test_exp_scalar_line():
    one = LieAlgebra(np.zeros((1, 1, 1)))
    R = MatrixRealization(one, (np.array([[1.0]]),))
    got = exp_matrix(R, [1.0], 2 * math.pi)
    assert abs(got[0, 0] - math.exp(2 * math.pi)) < 1e-9 * math.exp(2 * math.pi)


def test_exp_one_parameter_group_property(rng):
    R = algebra.so3_realization()
    xi = rng.uniform(-1, 1, 3)
    for s, t in [(0.3, 0.9), (-2.0, 5.0), (10.0, -3.5)]:
        lhs = exp_matrix(R, xi, s) @ exp_matrix(R, xi, t)
        assert np.allclose(lhs, exp_matrix(R, xi, s + t), atol=1e-9)


def test_log_identity():
    R = algebra.so3_realization()
    out = log_matrix(R, np.eye(3))
    assert out.ok and np.allclose(out.coords, 0.0) and out.off_span_residual < 1e-12


def test_log_roundtrip_small_elements(rng):
    R = algebra.so3_realization()
    for _ in range(10):
        xi = rng.uniform(-0.5, 0.5, 3)
        xi *= min(1.0, 0.5 / np.linalg.norm(xi))
        out = log_matrix(R, exp_matrix(R, xi, 1.0))
        assert out.ok
        assert np.max(np.abs(out.coords - xi)) < 1e-8


def test_log_rejects_pi_rotation():
    R = algebra.so3_realization()
    g = exp_matrix(R, [0, 0, 1], math.pi)
    out = log_matrix(R, g)
    assert not out.in_region


def test_log_flags_off_span():
    # a matrix outside span(so(3)) = symmetric part present
    R = algebra.so3_realization()
    g = np.eye(3) * 1.2
    out = log_matrix(R, g)
    assert out.in_region and out.off_span_residual > 0.1


def test_automorphism_identity():
    A = algebra.so3()
    rep = is_automorphism(A, AlgebraMap(A, A, np.eye(3)))
    assert rep.passed and rep.residual == 0.0


def test_automorphism_scalar_on_line():
    A = algebra.abelian(1)
    rep = is_automorphism(A, AlgebraMap(A, A, np.array([[math.exp(2 * math.pi)]])))
    assert rep.passed


def test_swap_map_fails_with_residual_two():
    A = algebra.so3()
    M = AlgebraMap(A, A, np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    rep = is_automorphism(A, M)
    assert not rep.passed
    assert abs(rep.residual - 2.0) < 1e-12


def test_automorphism_composition_closed(rng):
    A = algebra.so3()
    R = algebra.so3_realization()
    m1 = exp_matrix(R, rng.uniform(-1, 1, 3), 1.0)
    m2 = exp_matrix(R, rng.uniform(-1, 1, 3), 1.0)
    # Ad of rotations: for so(3), Ad_R in vector coordinates equals R itself
    a1 = AlgebraMap(A, A, m1)
    a2 = AlgebraMap(A, A, m2)
    assert is_automorphism(A, a1, 1e-9).passed
    assert is_automorphism(A, a2, 1e-9).passed
    assert is_automorphism(A, a1.compose(a2), 1e-9).passed


def test_singular_map_rejected():
    A = algebra.so3()
    with pytest.raises(AlgebraError):
        is_automorphism(A, AlgebraMap(A, A, np.zeros((3, 3))))


def test_realization_closure_validated():
    bad = (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    with pytest.raises(AlgebraError):
        MatrixRealization(algebra.so3(), bad)


def test_subalgebra_closure():
    A = algebra.so3()
    Subalgebra(A, (np.array([0.0, 0.0, 1.0]),))  # span(e3) closes
    with pytest.raises(AlgebraError):
        Subalgebra(A, (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])))


def test_adjoint_realization_heisenberg_not_faithful_but_closed():
    # adjoint satisfies commutator closure even with a center
    A = algebra.heisenberg()
    R = algebra.adjoint_realization(A)
    assert R.closure_residual() < 1e-12


# -- a NaN residual is kept, wherever it falls ---------------------------------

# numpy warns of the NaN it is given; the check must still fail
@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
def test_a_nan_map_entry_fails_the_automorphism_check():
    A = algebra.so3()
    M = np.eye(3)
    M[2, 2] = math.nan
    rep = is_automorphism(A, AlgebraMap(A, A, M))
    assert math.isnan(rep.residual) and not rep.passed


def test_a_nan_generator_entry_fails_the_realization_closure():
    gens = [hat(e) for e in np.eye(3)]
    gens[2][0, 1] = math.nan
    with pytest.raises(AlgebraError, match="residual nan"):
        MatrixRealization(algebra.so3(), tuple(gens))


def test_a_nan_bracket_after_the_first_fails_the_subalgebra_closure(monkeypatch):
    A = algebra.affine_line()
    basis = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert Subalgebra(A, basis).closure_residual() == 0.0
    real, calls = algebra.bracket, []

    def nan_after_first(*args):
        calls.append(args)
        return real(*args) * (1.0 if len(calls) == 1 else math.nan)
    monkeypatch.setattr(algebra, "bracket", nan_after_first)
    with pytest.raises(AlgebraError, match="residual nan"):
        Subalgebra(A, basis)
    assert len(calls) == 4


def test_nan_structure_constants_fail_the_jacobi_check():
    c = algebra.so3().structure_constants.copy()
    c[2, 0, 1] = math.nan
    with pytest.raises(AlgebraError, match="residual nan"):
        LieAlgebra(c)
