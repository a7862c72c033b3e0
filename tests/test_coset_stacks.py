"""The stacked coset algebra against the one-element references in
``oracles``, bit for bit: each stack element must read what it reads
alone, whatever shares its stack."""

import math

import numpy as np
import pytest
import scipy.linalg

from cartanlab import algebra
from cartanlab.algebra import AlgebraMap, MatrixRealization
from cartanlab.algebroid import AffineCocycleEntry
from cartanlab.development import (AffineCosetMap, Coset, CoverSpec, DevelopmentError,
                                   Frames, _coset_coords, coset_residual,
                                   develop_ends, induced_affine_map, integrated_twist,
                                   reconstruct_atlas, reconstruct_ends)
import oracles

SCALING = MatrixRealization(algebra.abelian(1), (np.array([[1.0]]),))
HEISENBERG = MatrixRealization(oracles.heisenberg(), tuple(
    np.eye(3)[:, [i]] @ np.eye(3)[[j]] for i, j in ((0, 1), (1, 2), (0, 2))))
AFFINE = MatrixRealization(oracles.affine_line(), (np.array([[1.0, 0.0], [0.0, 0.0]]),
                                                   np.array([[0.0, 1.0], [0.0, 0.0]])))


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_logs_match_one_at_a_time(R, gs):
    lr = algebra.log_matrix(R, gs)
    assert lr.coords.shape == (len(gs), R.algebra.dim)
    assert lr.off_span_residual.shape == (len(gs),)
    for g, coords, off in zip(gs, lr.coords, lr.off_span_residual):
        want, want_off = oracles.log_matrix_at(R, g)
        assert _same(coords, want) and off == want_off


def _assert_exps_match_one_at_a_time(R, xis):
    got = algebra.exp_matrix(R, xis)
    assert all(_same(g, oracles.exp_matrix_at(R, xi)) for g, xi in zip(got, xis))
    return got


def _rotations(rng, angles):
    axes = rng.normal(size=(len(angles), 3))
    return axes / np.linalg.norm(axes, axis=1)[:, None] * np.asarray(angles)[:, None]


def test_unipotent_stacks_take_one_series_and_match_each_element():
    # the unipotent elements are written down: exp(x) = I + x + x^2 / 2 for
    # the translations and the upper triangular Heisenberg group
    rng = np.random.default_rng(1)
    for R, xis in [(algebra.translation_realization(2), rng.uniform(-2000, 2000, (40, 2))),
                   (HEISENBERG, rng.uniform(-3, 3, (40, 3)))]:
        _assert_exps_match_one_at_a_time(R, xis)
        x = R.element(xis)
        gs = np.eye(len(x[0])) + x + 0.5 * x @ x
        assert not np.any(np.tril(gs - np.eye(len(gs[0]))))
        _assert_logs_match_one_at_a_time(R, gs)
        calls = []
        original = algebra.principal_log
        try:
            algebra.principal_log = lambda g: calls.append(g) or original(g)
            algebra.log_matrix(R, gs)
        finally:
            algebra.principal_log = original
        assert calls == []


def test_rotation_stacks_up_to_the_cut_match_each_element():
    # half of the angles in (3.1, pi), where the log's first root comes
    # from the eigendecomposition
    rng = np.random.default_rng(2)
    R = oracles.so3_realization()
    xis = _rotations(rng, np.concatenate([rng.uniform(0.0, 3.1, 20),
                                          rng.uniform(3.1, math.pi, 20)]))
    gs = _assert_exps_match_one_at_a_time(R, xis)
    _assert_logs_match_one_at_a_time(R, gs)
    # a log through scipy's expm, unrounded by our exp
    _assert_logs_match_one_at_a_time(R, np.array([scipy.linalg.expm(R.element(xi))
                                                  for xi in xis]))


def test_scaling_stacks_match_each_element():
    rng = np.random.default_rng(3)
    s = rng.uniform(-3.0, 3.0, 20)
    gs = _assert_exps_match_one_at_a_time(SCALING, s[:, None])
    _assert_logs_match_one_at_a_time(SCALING, gs)
    gs = _assert_exps_match_one_at_a_time(AFFINE, np.stack([s, rng.uniform(-3, 3, 20)], 1))
    _assert_logs_match_one_at_a_time(AFFINE, gs)


def test_a_lane_on_the_negative_real_axis_reads_nan_and_leaves_its_neighbours():
    rng = np.random.default_rng(4)
    R = oracles.so3_realization()
    gs = algebra.exp_matrix(R, _rotations(rng, rng.uniform(0.5, 3.0, 7)))
    cut = algebra.exp_matrix(R, [0.0, 0.0, 1.0], math.pi)
    alone = algebra.log_matrix(R, gs)
    mixed = algebra.log_matrix(R, np.concatenate([gs[:3], [cut], gs[3:]]))
    assert np.all(np.isnan(mixed.coords[3])) and mixed.off_span_residual[3] == math.inf
    keep = np.arange(8) != 3
    assert _same(mixed.coords[keep], alone.coords)
    assert _same(mixed.off_span_residual[keep], alone.off_span_residual)
    # a scaling by a negative number has no real log either
    lr = algebra.log_matrix(SCALING, np.array([[[2.0]], [[-2.0]], [[0.5]]]))
    assert np.isnan(lr.coords[1, 0]) and lr.off_span_residual[1] == math.inf
    alone = algebra.log_matrix(SCALING, np.array([[[2.0]], [[0.5]]]))
    assert _same(lr.coords[[0, 2]], alone.coords)
    assert _same(lr.off_span_residual[[0, 2]], alone.off_span_residual)


def test_expm_groups_lanes_by_their_own_degree_and_scaling():
    rng = np.random.default_rng(5)
    scales = [1e-4, 1e-2, 0.2, 0.6, 1.5, 4.0, 12.0, 30.0, 60.0]
    a = np.concatenate([sc * rng.normal(size=(4, 3, 3)) for sc in scales])
    a = a[rng.permutation(len(a))]           # interleave the groups
    norms = np.abs(a).sum(axis=1).max(axis=1)
    theta = algebra._PADE_THETA
    degree = [next((m for m, t in theta.items() if x <= t), 13) for x in norms]
    s = [max(0, math.ceil(math.log2(x / theta[13]))) if m == 13 else 0
         for x, m in zip(norms, degree)]
    assert set(degree) == {3, 5, 7, 9, 13} and len(set(s)) >= 3
    got = algebra.expm(a)
    assert all(_same(e, oracles.expm_at(x)) for e, x in zip(got, a))
    assert _same(algebra.expm(a[0]), oracles.expm_at(a[0]))


def test_empty_stacks_give_empty_results(circle):
    H = circle.homog
    assert algebra.expm(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    lr = algebra.log_matrix(H.realization, np.zeros((0, 2, 2)))
    assert lr.coords.shape == (0, 1) and lr.off_span_residual.shape == (0,)
    mu = AlgebraMap(H.algebra, H.algebra, circle.decks[0].M)
    assert integrated_twist(H, mu, np.zeros((0, 2, 2))).shape == (0, 2, 2)


def _elements(H, rng, k):
    return algebra.exp_matrix(H.realization, rng.uniform(-1.0, 1.0, (k, H.algebra.dim)))


def test_stacked_twists_residuals_and_coordinates_match_each_element(circle, torus, sphere):
    rng = np.random.default_rng(6)
    sphere_twist = AlgebraMap(sphere.homog.algebra, sphere.homog.algebra,
                              algebra.exp_matrix(oracles.so3_realization(), [0.0, 0.0, 0.4]))
    for H, mu in [(circle.homog, AlgebraMap(circle.homog.algebra, circle.homog.algebra,
                                            circle.decks[0].M)),
                  (torus.homog, AlgebraMap(torus.homog.algebra, torus.homog.algebra,
                                           torus.decks[1].M)),
                  (sphere.homog, sphere_twist)]:
        g1, g2 = _elements(H, rng, 9), _elements(H, rng, 9)
        twisted = integrated_twist(H, mu, g1)
        assert all(_same(t, oracles.integrated_twist_at(H, mu, g)) for t, g in zip(twisted, g1))
        res = coset_residual(Coset(g1, H), Coset(g2, H))
        assert _same(res, [oracles.coset_residual_at(H, a, b) for a, b in zip(g1, g2)])
        q = g2[0]
        res = coset_residual(Coset(q, H), Coset(g1, H))
        assert _same(res, [oracles.coset_residual_at(H, q, b) for b in g1])
        aff = AffineCosetMap(H, mu, q)
        assert _same(aff(Coset(g1, H)).g,
                     [oracles.integrated_twist_at(H, mu, g) @ q for g in g1])
        P = H.h0_projector
        keep = np.linalg.norm(P, axis=1) > 1e-12
        coords = _coset_coords(H, g1)
        assert _same(coords, [(P @ oracles.log_matrix_at(H.realization, g)[0])[keep]
                              for g in g1])


def test_induced_map_consistency_reads_one_stack(sphere):
    # sphere2's isotropy is one rotation generator: two steps in one stack
    H = sphere.homog
    q = Coset(algebra.exp_matrix(H.realization, [0.0, 0.0, 0.3]), H)
    identity = AffineCocycleEntry.identity(2, H.algebra.dim)
    mu = AlgebraMap(H.algebra, H.algebra, identity.M)
    res = induced_affine_map(identity, H, q).consistency_residual
    want = [oracles.coset_residual_at(H, q.g, oracles.integrated_twist_at(
        H, mu, oracles.exp_matrix_at(H.realization, t * b)) @ q.g)
        for b in H.h0.basis_vectors for t in (0.05, -0.08)]
    assert res == algebra.worst(want)


def test_a_twist_per_stack_entry_matches_each_element(sphere):
    # the k-th twist acts on the elements g[k] only
    rng = np.random.default_rng(8)
    H = sphere.homog
    twists = [AlgebraMap(H.algebra, H.algebra, algebra.exp_matrix(
        oracles.so3_realization(), [0.0, 0.0, a])) for a in (0.4, -1.1, 0.0)]
    g = _elements(H, rng, 12).reshape(3, 4, 3, 3)
    got = integrated_twist(H, twists, g)
    assert got.shape == g.shape
    assert all(_same(t, oracles.integrated_twist_at(H, mu, e))
               for mu, ts, es in zip(twists, got, g) for t, e in zip(ts, es))


def _assert_atlases_match(got, want):
    assert len(got.chart_samples) == len(want.chart_samples)
    assert all(_same(a, b) for a, b in zip(got.chart_samples, want.chart_samples))
    assert _same(got.jacobian_min_abs_det, want.jacobian_min_abs_det)
    assert len(got.transitions) == len(want.transitions)
    for a, b in zip(got.transitions, want.transitions):
        assert (a.i, a.j) == (b.i, b.j) and _same(a.residual, b.residual)
        assert _same(a.twist_matrix, b.twist_matrix)
        assert _same(a.affine_matrix, b.affine_matrix) and _same(a.affine_offset, b.affine_offset)
        assert a.fit_residual == b.fit_residual


def test_the_stacked_atlas_matches_the_overlap_by_overlap_reference(circle, torus):
    one_overlap = CoverSpec(torus.cover, np.zeros(2), torus.atlas_spec.patches[:2],
                            torus.atlas_spec.overlaps[1:2])
    for model, spec in [(torus, torus.atlas_spec), (circle, circle.atlas_spec),
                        (torus, one_overlap)]:
        got = reconstruct_atlas(model.glued, model.homog, spec)
        _assert_atlases_match(got, oracles.reconstruct_atlas_by_overlap(model.homog, spec))


def test_a_sample_whose_log_leaves_the_algebra_refuses_the_stacked_twist(circle):
    # diag(2, 1) is invertible, but its log diag(log 2, 0) is no translation
    spec = circle.atlas_spec
    frames = develop_ends(spec.cover, circle.homog, spec.m0, reconstruct_ends(spec))
    g = frames.g.copy()
    npatch = sum(len(pts) for pts in spec.patch_samples)
    # an overlap's lanes are its q, 6 samples and their 6 images: this is
    # the second overlap's first sample
    g[npatch + 13 + 1] = np.diag([2.0, 1.0])
    with pytest.raises(DevelopmentError, match="no principal log in the algebra"):
        reconstruct_atlas(circle.glued, circle.homog, spec, lanes=lambda: Frames(g, frames.Q))
