import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from cartanlab import algebra, development, ode
from cartanlab.algebra import AlgebraMap, MatrixRealization, Subalgebra
from cartanlab.algebroid import ActionAlgebroid
from cartanlab.development import (Coset, DevelopmentError, EquivariantMap,
                                   HomogeneousModel, check_equivariant_twist,
                                   check_lemma_diagram, coset_residual,
                                   develop_paths, develop_point, develop_to,
                                   development_jacobian,
                                   equivariance_diagram_check, fit_twist,
                                   geometric_closure_probe,
                                   induced_affine_map, integrated_twist,
                                   path_independence_check, reconstruct_atlas)
from cartanlab.dual import cos, sin, value
from cartanlab.geometry import as_point
from cartanlab.transport import BasePath, PathSegment, line_path, polyline_path

E2PI = math.exp(2 * math.pi)


def test_equivariant_twist_identity(circle):
    E = EquivariantMap.identity(circle.cover.algebra)
    rep = check_equivariant_twist(circle.cover, E)
    assert rep.verdict and rep.max_residual < 1e-12


def test_equivariant_twist_deck_map(circle, rng):
    rep = check_equivariant_twist(circle.cover, circle.decks[0],
                                  samples=rng.uniform(-1, 1, (8, 1)))
    assert rep.verdict


def test_equivariant_twist_rotation_needs_adjoint(so3_action, rng):
    R = algebra.exp_matrix(algebra.so3_realization(), [0, 0, 1], 0.8)
    good = EquivariantMap(lambda m: R.astype(object) @ as_point(m),
                          AlgebraMap(so3_action.algebra, so3_action.algebra, R))
    rep = check_equivariant_twist(so3_action, good, samples=rng.uniform(-1, 1, (6, 3)))
    assert rep.verdict
    bad = EquivariantMap(lambda m: R.astype(object) @ as_point(m),
                         AlgebraMap(so3_action.algebra, so3_action.algebra, np.eye(3)))
    rep2 = check_equivariant_twist(so3_action, bad, samples=rng.uniform(-1, 1, (6, 3)))
    assert not rep2.verdict


def test_develop_translations_gives_translation_part(torus):
    c = develop_to(torus.cover, torus.homog, [0.0, 0.0], [0.7, -0.4])
    assert np.allclose(c.g[:2, 2], [0.7, -0.4], atol=1e-10)
    ident = develop_point(torus.cover, torus.homog,
                          line_path([0.3, 0.3], [0.3, 0.3]))
    assert np.allclose(ident.g, np.eye(3), atol=1e-12)


def test_develop_counterexample_quadrature_oracle(circle):
    # lift of a straight path 0 -> theta is xi(t) = e^{theta(t)} dtheta/dt;
    # integrate it independently by quadrature
    theta = 1.3
    expected, _ = quad(lambda t: math.exp(t * theta) * theta, 0.0, 1.0)
    c = develop_to(circle.cover, circle.homog, [0.0], [theta])
    assert abs(c.g[0, 1] - expected) < 1e-9
    assert abs(expected - (math.exp(theta) - 1.0)) < 1e-10


def test_develop_rejects_rank_deficient_anchor(so3_action):
    # the rotation action is not transitive on R^3: radial motion cannot
    # be lifted through the anchor
    H = HomogeneousModel(so3_action.algebra, algebra.so3_realization(),
                         Subalgebra(so3_action.algebra, ()))
    with pytest.raises(DevelopmentError):
        develop_point(so3_action, H, line_path([1.0, 0.0, 0.0], [2.0, 0.0, 0.0]))


def _assert_batch_matches_single_paths(A, H, paths):
    batch = develop_paths(A, H, paths)
    assert len(batch) == len(paths)
    for path, got in zip(paths, batch):
        want = develop_point(A, H, path).g
        assert np.max(np.abs(got.g - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_develop_paths_matches_single_paths_torus(torus, rng):
    ends = rng.uniform(-0.9, 0.9, (6, 2))
    _assert_batch_matches_single_paths(torus.cover, torus.homog,
                                       [line_path([0.0, 0.0], e) for e in ends])


def test_develop_paths_matches_single_paths_circle(circle):
    # far ends grow like e^theta, so the batch mixes very different scales
    thetas = [-0.5, 0.3, 1.7, math.pi, 2 * math.pi, 2 * math.pi + 1.5]
    _assert_batch_matches_single_paths(circle.cover, circle.homog,
                                       [line_path([0.0], [t]) for t in thetas])


def test_develop_paths_matches_single_paths_sphere(sphere):
    # the TM+h chart has Gamma != 0, so the parallel frame P is nontrivial
    m0 = sphere.m0
    offsets = [[0.25, 0.2], [-0.2, 0.1], [0.1, -0.3]]
    paths = [polyline_path([m0, m0 + [0.0, o[1]], m0 + o]) for o in offsets]
    _assert_batch_matches_single_paths(sphere.rc.chart, sphere.homog, paths)


def test_a_batch_mixing_line_and_other_segments_matches_single_paths(circle, torus):
    # alone, a line path develops from its stacked endpoints; in this batch
    # every segment is evaluated through point_velocity
    arc = BasePath((PathSegment(0, lambda t: np.array([2.0 * t * t - 0.5 * t])),))
    _assert_batch_matches_single_paths(
        circle.cover, circle.homog,
        [line_path([0.0], [1.7]), arc, line_path([2.0], [0.0]).reverse(),
         line_path([0.3], [-0.4])])
    bend = BasePath((PathSegment(0, lambda t: np.array([0.4 * t, 0.3 * t * t])),))
    _assert_batch_matches_single_paths(
        torus.cover, torus.homog, [line_path([0.0, 0.0], [0.5, -0.2]), bend])


def _great_circle_arc(u, w):
    # t -> cos(t) u + sin(t) w on [0, 1]; with u, w orthonormal its velocity
    # is always orthogonal to the point, so it stays in the so(3) anchor's range
    u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    return BasePath((PathSegment(0, lambda t: [cos(t) * a + sin(t) * b
                                               for a, b in zip(u, w)]),))


def _so3_model(so3_action):
    return HomogeneousModel(so3_action.algebra, algebra.so3_realization(),
                            Subalgebra(so3_action.algebra, ()))


def test_develop_paths_rejects_a_non_liftable_path_in_the_batch(so3_action):
    # the arcs lift on their own, so only the radial path, last in the
    # batch, can fail it; the sibling test puts it in the middle
    H = _so3_model(so3_action)
    arc = _great_circle_arc([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    other = _great_circle_arc([0.0, 0.6, 0.8], [1.0, 0.0, 0.0])
    radial = line_path([1.0, 0.0, 0.0], [2.0, 0.0, 0.0])
    develop_paths(so3_action, H, [arc])
    develop_paths(so3_action, H, [other])
    with pytest.raises(DevelopmentError, match="surjective"):
        develop_paths(so3_action, H, [arc, other, radial])


def test_a_radial_path_fails_the_lift_of_a_batch_whose_other_paths_lift(so3_action):
    arc = _great_circle_arc([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    radial = line_path([1.0, 0.0, 0.0], [2.0, 0.0, 0.0])
    H = _so3_model(so3_action)
    develop_paths(so3_action, H, [arc, arc])
    with pytest.raises(DevelopmentError, match="surjective along path \\(gap"):
        develop_paths(so3_action, H, [arc, radial, arc])


def test_rank_deficient_square_anchors_take_the_minimum_norm_lift(so3_action):
    # the so(3) anchor on R^3 is square of rank 2: exactly singular along the
    # z = 0 plane, singular up to roundoff at the other points.  The
    # minimum-norm lift of a great-circle arc is the constant rotation rate
    # u x w, so the developed element is the rotation by angle 1 about it
    s = math.sqrt(0.5)
    frames = [([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), ([0.0, s, s], [1.0, 0.0, 0.0]),
              ([0.6, 0.0, 0.8], [0.0, 1.0, 0.0])]
    cosets = develop_paths(so3_action, _so3_model(so3_action),
                           [_great_circle_arc(u, w) for u, w in frames])
    for (u, w), c in zip(frames, cosets):
        k = np.cross(u, w)
        K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        rotation = np.eye(3) + math.sin(1.0) * K + (1 - math.cos(1.0)) * K @ K
        assert np.allclose(c.g, rotation, rtol=0, atol=1e-10)


def test_a_radial_path_at_a_generic_point_fails_the_lift_gap(so3_action):
    # at a generic point the rank-2 so(3) anchor is singular only up to
    # roundoff, so solve would return a huge lift instead of raising; the
    # lift must still reject the path
    m = np.array([0.6, -0.8, 1.1])
    lift = np.linalg.solve(so3_action.chart.anchor.values([m]), m[None, :, None])
    assert np.all(np.isfinite(lift))
    with pytest.raises(DevelopmentError, match="surjective along path \\(gap"):
        develop_paths(so3_action, _so3_model(so3_action), [line_path(m, 1.3 * m)])


def test_develop_paths_requires_shared_time_spans(circle):
    with pytest.raises(DevelopmentError):
        develop_paths(circle.cover, circle.homog,
                      [line_path([0.0], [1.0]), polyline_path([[0.0], [0.5], [1.0]])])


def _record_integrations(monkeypatch):
    outcomes = []

    def recording(*args, **kwargs):
        out = ode.integrate(*args, **kwargs)
        outcomes.append(out)
        return out
    monkeypatch.setattr(development, "integrate", recording)
    return outcomes


def test_development_work_is_independent_of_sample_count(circle, rng, monkeypatch):
    outcomes = _record_integrations(monkeypatch)
    counts = []
    for k in (4, 12):
        outcomes.clear()
        equivariance_diagram_check(circle.cover, circle.homog, circle.decks[0], [0.0],
                                   rng.uniform(-0.5, 1.5, (k, 1)))
        assert all(out.steps > 0 and out.nfev > out.steps for out in outcomes)
        counts.append(len(outcomes))
    assert counts[0] == counts[1]


def test_develop_paths_splits_batches_at_the_rtol_floor(torus, monkeypatch):
    # rtol/sqrt(B) must stay at or above the driver's 100 eps floor: at rtol 1e-13 a
    # batch holds at most 20 paths, so 25 paths take two solves
    outcomes = _record_integrations(monkeypatch)
    paths = [line_path([0.0, 0.0], [0.03 * k, -0.02 * k]) for k in range(25)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = develop_paths(torus.cover, torus.homog, paths, rtol=1e-13)
    assert len(outcomes) == 2
    for k, c in enumerate(batch):
        assert np.allclose(c.g[:2, 2], [0.03 * k, -0.02 * k], atol=1e-12)


def test_reconstruct_torus_batches_its_developments(torus, monkeypatch):
    outcomes = _record_integrations(monkeypatch)
    reconstruct_atlas(torus.glued, torus.homog, torus.atlas_spec)
    # one batch of patch samples (Jacobians included), one of overlaps
    assert len(outcomes) == 2


def test_circle_batch_matches_closed_form(circle):
    # D(theta)[0, 1] = e^theta - 1, out past one turn where it is ~2,400
    thetas = [-0.5, 0.3, 1.7, math.pi, 2 * math.pi, 2 * math.pi + 1.5]
    batch = develop_paths(circle.cover, circle.homog,
                          [line_path([0.0], [t]) for t in thetas])
    for t, c in zip(thetas, batch):
        want = math.expm1(t)
        assert abs(c.g[0, 1] - want) <= 1e-10 * abs(want)


def _fd_development_jacobian(A, H, m0, m, h=1e-5, rtol=1e-10):
    """Central differences of the h0-orthogonal log coordinates of
    D(m)^-1 D(m +- h e_k), all developments in one batch."""
    m = np.asarray(m, dtype=float)
    n = len(m)
    ends = [m, *(m + h * np.eye(n)), *(m - h * np.eye(n))]
    base, *moved = develop_paths(A, H, [line_path(m0, e) for e in ends], rtol=rtol)
    P = H.h0_projector()
    keep = np.linalg.norm(P, axis=1) > 1e-12

    def coords(c):
        lr = algebra.log_matrix(H.realization, np.linalg.solve(base.g, c.g))
        return (P @ lr.coords)[keep]

    return np.stack([(coords(moved[k]) - coords(moved[n + k])) / (2 * h)
                     for k in range(n)], axis=1)


def test_development_jacobian_matches_finite_differences(circle, torus, sphere):
    # sphere2's TM+h chart has a nontrivial parallel frame and isotropy
    assert sphere.homog.h0.dim == 1
    cases = [(circle.cover, circle.homog, [0.0], [0.8]),
             (circle.cover, circle.homog, [0.0], [-0.4]),
             (torus.cover, torus.homog, [0.0, 0.0], [0.3, -0.2]),
             (sphere.rc.chart, sphere.homog, sphere.m0, sphere.m0 + [0.15, -0.1]),
             (sphere.rc.chart, sphere.homog, sphere.m0, sphere.m0 + [-0.12, 0.2])]
    for A, H, m0, m in cases:
        J = development_jacobian(A, H, m0, m)
        assert J.shape == (len(m), len(m))
        assert np.max(np.abs(J - _fd_development_jacobian(A, H, m0, m))) < 1e-8


def test_development_jacobian_circle_closed_form(circle):
    J = development_jacobian(circle.cover, circle.homog, [0.0], [0.8])
    assert abs(J[0, 0] - math.exp(0.8)) < 1e-10


def test_path_independence_counterexample(circle):
    p1 = line_path([0.0], [1.3])
    p2 = polyline_path([[0.0], [0.52], [1.3]])
    assert path_independence_check(circle.cover, circle.homog, p1, p2) < 1e-9


def test_path_independence_requires_matching_endpoints(circle):
    with pytest.raises(DevelopmentError):
        path_independence_check(circle.cover, circle.homog,
                                line_path([0.0], [1.0]), line_path([0.0], [1.1]))


def test_path_independence_sphere_mod_isotropy(sphere):
    m0 = sphere.m0
    p1 = line_path(m0, m0 + [0.25, 0.2])
    p2 = polyline_path([m0, m0 + [0.0, 0.2], m0 + [0.25, 0.2]])
    res = path_independence_check(sphere.rc.chart, sphere.homog, p1, p2)
    assert res < 1e-9
    # the full group elements genuinely differ by an isotropy element
    g1 = develop_point(sphere.rc.chart, sphere.homog, p1)
    g2 = develop_point(sphere.rc.chart, sphere.homog, p2)
    assert np.max(np.abs(g1.g - g2.g)) > 1e-3


def test_development_jacobian_counterexample(circle):
    J = development_jacobian(circle.cover, circle.homog, [0.0], [0.8])
    assert abs(J[0, 0] - math.exp(0.8)) < 1e-5


def test_integrated_twist_matches_exp_conjugation(circle):
    H = circle.homog
    mu = circle.decks[0].twist
    g = algebra.exp_matrix(H.realization, [0.3])
    out = integrated_twist(H, mu, g)
    want = algebra.exp_matrix(H.realization, mu([0.3]))
    assert np.max(np.abs(out - want)) < 1e-12


def test_integrated_twist_splits_large_elements(sphere):
    H = sphere.homog
    mu = AlgebraMap(H.algebra, H.algebra, np.eye(3))
    g = algebra.exp_matrix(H.realization, [0.0, 2.4, 0.0])
    out = integrated_twist(H, mu, g)
    assert np.max(np.abs(out - g)) < 1e-9


def test_induced_affine_map_identity(circle):
    H = circle.homog
    E = EquivariantMap.identity(circle.cover.algebra)
    q = develop_to(circle.cover, H, [0.0], [0.0])
    aff = induced_affine_map(E, H, q)
    c = develop_to(circle.cover, H, [0.0], [0.9])
    assert coset_residual(aff(c), c) < 1e-10


def test_induced_affine_map_counterexample_formula(circle):
    # x -> e^{2 pi} x + (e^{2 pi} - 1) on the developed line
    H = circle.homog
    q = develop_to(circle.cover, H, [0.0], [2 * math.pi])
    aff = induced_affine_map(circle.decks[0], H, q)
    for x in (0.0, -0.3, 2.0):
        c = develop_to(circle.cover, H, [0.0], [math.log(1 + x)])
        img = aff(c)
        want = E2PI * x + (E2PI - 1.0)
        assert abs(img.g[0, 1] - want) < 1e-6 * max(1.0, abs(want))


def test_induced_affine_map_composition_law(circle):
    # map of the composition equals composition of the maps
    H = circle.homog
    A = circle.cover
    deck = circle.decks[0]
    deck2 = deck.compose(deck)
    q1 = develop_to(A, H, [0.0], value(np.asarray(deck.base_map([0.0]), dtype=object)))
    aff1 = induced_affine_map(deck, H, q1)
    q2 = develop_to(A, H, [0.0], value(np.asarray(deck2.base_map([0.0]), dtype=object)))
    aff2 = induced_affine_map(deck2, H, q2)
    composed = aff1.compose(aff1)
    for x in (-0.2, 0.5):
        c = develop_to(A, H, [0.0], [x])
        assert coset_residual(aff2(c), composed(c)) < 1e-6


def test_induced_affine_map_group_equivariance(circle):
    # phi(g . x) = mu_hat(g) . phi(x) for g near the identity
    H = circle.homog
    q = develop_to(circle.cover, H, [0.0], [2 * math.pi])
    aff = induced_affine_map(circle.decks[0], H, q)
    for s in (0.07, -0.11):
        g = algebra.exp_matrix(H.realization, [s])
        x = develop_to(circle.cover, H, [0.0], [0.4])
        lhs = aff(development.Coset(g @ x.g, H))
        rhs = development.Coset(
            integrated_twist(H, circle.decks[0].twist, g) @ aff(x).g, H)
        assert coset_residual(lhs, rhs) < 1e-8


def test_lemma_b_guard_rejects_inconsistent_inputs(sphere):
    # a twist that does not normalize the isotropy through q must be refused
    H = sphere.homog
    bad_twist = AlgebraMap(H.algebra, H.algebra,
                           np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.0],
                                     [0.0, 0.0, 1.0]]))
    E = EquivariantMap(lambda m: m, bad_twist)
    q = development.Coset(algebra.exp_matrix(H.realization, [0.9, 0.0, 0.0]), H)
    with pytest.raises(DevelopmentError):
        induced_affine_map(E, H, q)


def test_lemma_diagram_counterexample_matrix_level(circle):
    res = check_lemma_diagram(circle.cover, circle.homog, circle.decks[0],
                              line_path([0.0], [1.1]))
    assert res < 1e-6


def test_lemma_diagram_torus(torus):
    res = check_lemma_diagram(torus.cover, torus.homog, torus.decks[1],
                              line_path([0.0, 0.0], [0.4, 0.3]))
    assert res < 1e-9


def test_equivariance_diagram_counterexample(circle, rng):
    pts = rng.uniform(-0.5, 1.5, (10, 1))
    rep = equivariance_diagram_check(circle.cover, circle.homog, circle.decks[0],
                                     [0.0], pts)
    assert rep.verdict and rep.max_residual < 1e-5


def test_equivariance_diagram_torus(torus, rng):
    pts = rng.uniform(-0.5, 0.5, (10, 2))
    for deck in torus.decks:
        rep = equivariance_diagram_check(torus.cover, torus.homog, deck,
                                         [0.0, 0.0], pts)
        assert rep.verdict


def test_equivariance_diagram_identity_map(torus, rng):
    E = EquivariantMap.identity(torus.cover.algebra)
    rep = equivariance_diagram_check(torus.cover, torus.homog, E, [0.0, 0.0],
                                     rng.uniform(-0.4, 0.4, (4, 2)))
    assert rep.max_residual < 1e-12


def test_equivariance_diagram_sphere_rotation(sphere):
    C, H, m0 = sphere.rc.chart, sphere.homog, sphere.m0
    rot = lambda m: np.array([m[0], m[1] + 0.25], dtype=object)
    samples = np.stack([m0 + [0.1, -0.1], m0 + [-0.12, 0.08]])
    tw = fit_twist(C, rot, m0, samples)
    assert algebra.is_automorphism(tw.source, tw, tol=1e-8).passed
    rep = equivariance_diagram_check(C, H, EquivariantMap(rot, tw), m0, samples)
    assert rep.verdict and rep.max_residual < 1e-5


def test_closure_probe_trivial_and_asserted(circle):
    rep = geometric_closure_probe(circle.homog)
    assert rep.verdict == "closed"
    H_unasserted = HomogeneousModel(circle.homog.algebra, circle.homog.realization,
                                    circle.homog.h0)
    assert geometric_closure_probe(H_unasserted).verdict == "closed"


def test_closure_probe_irrational_winding():
    ab2 = algebra.abelian(2)

    def rot(wa, wb):
        g = np.zeros((4, 4))
        g[0, 1], g[1, 0] = -wa, wa
        g[2, 3], g[3, 2] = -wb, wb
        return g

    real = MatrixRealization(ab2, (rot(1.0, 0.0), rot(0.0, 1.0)))
    bad = HomogeneousModel(ab2, real,
                           Subalgebra(ab2, (np.array([1.0, math.sqrt(2.0)]),)))
    rep = geometric_closure_probe(bad)
    assert rep.verdict == "nonclosed-witness"
    assert rep.witness is not None
    good = HomogeneousModel(ab2, real,
                            Subalgebra(ab2, (np.array([2.0, 3.0]),)))
    assert geometric_closure_probe(good).verdict == "closed"


def test_closure_probe_sphere_isotropy_via_frequencies(sphere):
    H = HomogeneousModel(sphere.homog.algebra, sphere.homog.realization,
                         sphere.homog.h0, closure="unknown")
    rep = geometric_closure_probe(H)
    assert rep.verdict == "closed"


def test_closure_probe_undecided_for_nonskew():
    aff = algebra.affine_line()
    gens = (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    real = MatrixRealization(aff, gens)
    H = HomogeneousModel(aff, real, Subalgebra(aff, (np.array([1.0, 0.0]),)))
    assert geometric_closure_probe(H).verdict == "undecided"


def test_reconstruct_circle_atlas(circle):
    atlas = reconstruct_atlas(circle.glued, circle.homog, circle.atlas_spec)
    assert atlas.passed
    assert atlas.jacobian_min_abs_det >= 1e-6
    mults = [float(np.max(np.abs(t.affine_matrix))) for t in atlas.transitions]
    assert any(abs(m - 1.0) < 1e-9 for m in mults)
    twisted = max(mults)
    assert abs(twisted - E2PI) / E2PI < 1e-6
    offsets = {round(float(t.affine_offset[0]), 4) for t in atlas.transitions}
    assert round(E2PI - 1.0, 4) in offsets


def test_reconstruct_torus_atlas(torus):
    atlas = reconstruct_atlas(torus.glued, torus.homog, torus.atlas_spec)
    assert atlas.passed
    for t in atlas.transitions:
        assert np.max(np.abs(t.affine_matrix - np.eye(2))) < 1e-8
    shifts = sorted(round(float(np.max(np.abs(t.affine_offset))), 6)
                    for t in atlas.transitions)
    assert shifts == [0.0, 0.0, 1.0, 1.0]


def test_reconstruct_single_chart_trivial(torus):
    spec = development.CoverSpec(torus.cover, np.zeros(2),
                                 (torus.atlas_spec.patches[0],), ())
    atlas = reconstruct_atlas(torus.glued, torus.homog, spec)
    assert atlas.passed and not atlas.transitions


def test_reconstruct_refuses_nonclosed(circle):
    H = HomogeneousModel(circle.homog.algebra, circle.homog.realization,
                         circle.homog.h0, closure="asserted-nonclosed")
    with pytest.raises(DevelopmentError):
        reconstruct_atlas(circle.glued, H, circle.atlas_spec)


def test_reconstruct_refuses_rank_mismatch(circle, torus):
    with pytest.raises(DevelopmentError):
        reconstruct_atlas(torus.glued, circle.homog, circle.atlas_spec)


def test_a_nan_action_after_the_first_point_fails_the_equivariant_twist(
        circle, nan_after_first_point):
    A = ActionAlgebroid(circle.cover.algebra, nan_after_first_point(circle.cover.action),
                        circle.cover.chart)
    rep = check_equivariant_twist(A, EquivariantMap.identity(A.algebra),
                                  samples=[[0.1], [0.4], [0.7]])
    assert rep.per_point[0] == 0.0 and math.isnan(rep.per_point[1])
    assert math.isnan(rep.max_residual) and not rep.verdict


def test_a_nan_coset_residual_after_the_first_sample_fails_the_diagram(circle, monkeypatch):
    real, calls = development.coset_residual, []

    def nan_after_first(a, b):
        calls.append(a)
        return real(a, b) if len(calls) == 1 else math.nan
    monkeypatch.setattr(development, "coset_residual", nan_after_first)
    rep = equivariance_diagram_check(circle.cover, circle.homog, circle.decks[0], [0.0],
                                     [[0.2], [0.5], [0.9]])
    assert len(calls) == 3 and rep.per_point[0] < 1e-5
    assert math.isnan(rep.max_residual) and not rep.verdict


def test_a_nan_residual_after_the_first_generator_refuses_the_induced_map(monkeypatch):
    aff = algebra.affine_line()
    gens = (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    H = HomogeneousModel(aff, MatrixRealization(aff, gens),
                         Subalgebra(aff, (np.array([1.0, 0.0]),)))
    E, q = EquivariantMap.identity(aff), Coset(np.eye(2), H)
    assert induced_affine_map(E, H, q).consistency_residual < 1e-12
    real, calls = HomogeneousModel.h0_projector, []

    def nan_after_first(model):
        calls.append(model)
        return real(model) * (1.0 if len(calls) == 1 else math.nan)
    monkeypatch.setattr(HomogeneousModel, "h0_projector", nan_after_first)
    with pytest.raises(DevelopmentError, match="residual nan"):
        induced_affine_map(E, H, q)
    assert len(calls) == 2


# numpy warns of the NaN it is given; the check must still fail
@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
def test_a_nan_jacobian_after_the_first_patch_fails_reconstruct(torus, monkeypatch):
    real, calls = development._frame_jacobian, []

    def nan_after_first(*args):
        calls.append(args)
        return real(*args) * (1.0 if len(calls) == 1 else math.nan)
    monkeypatch.setattr(development, "_frame_jacobian", nan_after_first)
    atlas = reconstruct_atlas(torus.glued, torus.homog, torus.atlas_spec)
    assert len(calls) == 4
    assert math.isnan(atlas.jacobian_min_abs_det) and not atlas.passed
