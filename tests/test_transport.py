import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab import algebra, geometry
from cartanlab.algebroid import AlgebroidChart, GluedAlgebroid
from cartanlab.cartan import bar_tm_tensor
from cartanlab.dual import Dual, value
from cartanlab.geometry import Chart, GeometryError, SmoothField, as_point
from cartanlab.transport import (BLOWUP_NORM, EXIT_MARGIN, MAX_SWITCHES, BasePath,
                                 GeodesicResult, TransportError, _geodesic_runs,
                                 completeness_probe,
                                 geodesic, geodesic_glued,
                                 invariant_metric_check, isotropy_subalgebra, line_path,
                                 line_segment, monodromies, monodromy,
                                 monodromy_compactness_probe,
                                 transport_matrices, transport_matrix)
import oracles
from oracles import (_transport_line_dual, directional, eps_part, levi_civita, parallel_frame,
                     polyline_path, reverse, then)

E2PI = math.exp(2 * math.pi)


def test_point_velocity_matches_point_and_velocity(circle):
    # the oracle's curve segments, straight segments read as their lines
    poly = polyline_path([[0.0, 0.0], [0.3, 0.1], [-0.2, 0.5]])
    paths = [line_path([0.1, -0.2], [0.7, 0.45]), poly, reverse(poly), circle.loops[0],
             oracles.circle_loop_by_curves()]
    for path in paths:
        for s in map(oracles.as_curve, path.segments):
            for t in (0.0, 1.0 / 3.0, 0.7, 1.0):
                m, v = s.point_velocity(t)
                assert m.dtype == v.dtype == float
                assert np.array_equal(m, s.point(t))
                c = np.asarray(s.curve(Dual(t, 1.0)), dtype=object)
                assert np.array_equal(v, value(eps_part(c)))


def test_transport_along_a_sphere_latitude_rotates_the_frame():
    # on the round sphere a latitude at colatitude theta0 turns an
    # orthonormal frame by dphi * cos(theta0) relative to (d_theta, d_phi / sin)
    metric = geometry.sphere_metric(2)
    lc = levi_civita(metric)
    chart = AlgebroidChart(
        metric.chart, 2, anchor=lambda m: np.eye(2, dtype=object),
        gamma=lambda m: np.einsum("kij->ikj", np.asarray(lc.christoffel(m), dtype=object)),
        torsion=lambda m: np.zeros((2, 2, 2), dtype=object))
    theta0, phi0, dphi = 1.0, -1.2, 2.5
    M = transport_matrix(chart, line_path([theta0, phi0], [theta0, phi0 + dphi]))
    S = np.diag([1.0, math.sin(theta0)])
    a = dphi * math.cos(theta0)
    rot = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])
    assert np.max(np.abs(S @ M @ np.linalg.inv(S) - rot)) < 1e-7


def test_transport_flat_chart_preserves_fiber(translations2):
    path = polyline_path([[0.0, 0.0], [0.7, 0.2], [0.3, 0.9]])
    out = transport_matrix(translations2.chart, path) @ np.array([1.3, -0.4])
    assert np.allclose(out, [1.3, -0.4], atol=1e-12)


def test_transport_is_linear(circle, rng):
    loop = circle.loops[0]
    M = transport_matrix(circle.glued, loop)
    for _ in range(3):
        x = rng.uniform(-1, 1, 1)
        y = rng.uniform(-1, 1, 1)
        a, b = rng.uniform(-2, 2, 2)
        lhs = transport_matrix(circle.glued, loop) @ (a * x + b * y)
        rhs = a * M @ x + b * M @ y
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_transport_homotopy_invariance_flat(sphere):
    # flat chart connection: homotopic paths with equal endpoints agree
    C = sphere.rc.chart
    m0 = sphere.m0
    m1 = m0 + [0.25, -0.2]
    p1 = line_path(m0, m1)
    p2 = polyline_path([m0, m0 + [0.0, -0.2], m1])
    x0 = np.array([0.3, -0.5, 0.8])
    a = transport_matrix(C, p1) @ x0
    b = transport_matrix(C, p2) @ x0
    assert np.max(np.abs(a - b)) < 1e-8


def test_transport_small_square_loop_sphere(sphere):
    C = sphere.rc.chart
    m0 = sphere.m0
    d = 0.15
    square = polyline_path([m0, m0 + [d, 0], m0 + [d, d], m0 + [0, d], m0])
    x0 = np.array([1.0, 0.5, -0.25])
    out = transport_matrix(C, square) @ x0
    assert np.max(np.abs(out - x0)) < 1e-6


def test_circle_monodromy_value(circle):
    M = monodromy(circle.glued, circle.loops[0])
    assert abs(M.matrix[0, 0] - E2PI) / E2PI < 1e-6


def test_monodromy_requires_closed_loop(circle):
    open_path = line_path([0.0], [0.3])
    with pytest.raises(TransportError):
        monodromy(circle.glued, open_path)


def test_transport_refuses_a_negative_chart_label(torus):
    # inside chart 3's box: a label of -1 must not name the last chart
    with pytest.raises(TransportError, match="chart -1 is not a chart"):
        transport_matrices(torus.glued, [BasePath((line_segment(-1, [0.5, 0.5], [0.6, 0.5]),))])


def test_transport_refuses_a_chart_label_past_the_last_chart(torus):
    with pytest.raises(TransportError, match="chart 7 is not a chart"):
        transport_matrix(torus.glued, BasePath((line_segment(7, [0.0, 0.0], [0.1, 0.0]),)))


def test_a_path_to_a_point_at_infinity_leaves_its_chart(translations2):
    # the chart is all of R^2, but inf is no point of it: the path is
    # refused before any solve, not left to collapse in one
    with pytest.raises(TransportError, match="path leaves its declared chart"):
        transport_matrix(translations2.chart, line_path([0.0, 0.0], [np.inf, 0.0]))


def test_monodromy_multiplicative_and_inverse(circle):
    loop = circle.loops[0]
    M1 = monodromy(circle.glued, loop).matrix
    M2 = monodromy(circle.glued, then(loop, loop)).matrix
    assert np.max(np.abs(M2 - M1 @ M1)) / np.max(np.abs(M2)) < 1e-7
    Mi = monodromy(circle.glued, reverse(loop)).matrix
    assert np.max(np.abs(Mi @ M1 - np.eye(1))) < 1e-7


def test_monodromy_is_automorphism(circle, torus):
    for glued, loops in ((circle.glued, [circle.loops[0]]),
                         (torus.glued, list(torus.loops))):
        for loop in loops:
            M = monodromy(glued, loop)
            assert algebra.is_automorphism(M.source, M, tol=1e-6).passed


def test_torus_monodromy_trivial(torus):
    for loop in torus.loops:
        M = monodromy(torus.glued, loop)
        assert np.max(np.abs(M.matrix - np.eye(2))) < 1e-9


def test_monodromy_contractible_loop_is_identity(torus):
    square = polyline_path([[0.0, 0.0], [0.2, 0.0], [0.2, 0.2], [0.0, 0.2],
                            [0.0, 0.0]])
    M = monodromy(torus.glued, square)
    assert np.max(np.abs(M.matrix - np.eye(2))) < 1e-12


def _relative_gap(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_stacked_loop_transport_equals_the_carried_solves(circle, torus):
    # Gamma = 0 on both atlases, so each segment transport is the identity
    # exactly and the loop matrix is the product of its transitions
    for glued, loops in ((circle.glued, circle.loops), (torus.glued, torus.loops)):
        got = transport_matrices(glued, loops)
        assert len(got) == len(loops)
        for M, loop in zip(got, loops):
            assert np.array_equal(M, oracles.transport_matrix_carried(glued, loop))
            assert np.array_equal(transport_matrix(glued, loop), M)
        assert all(np.array_equal(m.matrix, M) for m, M in zip(monodromies(glued, loops), got))


def test_stacked_transport_matches_the_carried_solves_where_gamma_is_not_zero(sphere):
    C, m0 = sphere.rc.chart, sphere.m0
    # three segments, one solve (the chart is flat, so the paths are left
    # open for their transport to be nontrivial)
    square = polyline_path([m0, m0 + [0.3, 0.0], m0 + [0.3, 0.4], m0 + [0.0, 0.4]])
    bend = polyline_path([m0, m0 + [0.2, 0.1], m0 + [0.0, 0.35]])
    for path in (square, bend):
        want = oracles.transport_matrix_carried(C, path)
        assert np.max(np.abs(want - np.eye(C.rank))) > 1e-2   # transport is not trivial
        assert _relative_gap(transport_matrix(C, path), want) <= 1e-10
    # both paths in one call: their five segments are the lanes of one solve
    both = transport_matrices(C, [square, bend])
    assert _relative_gap(both[1], oracles.transport_matrix_carried(C, bend)) <= 1e-10


def test_a_gamma_that_vanishes_at_the_first_nodes_is_stepped(monkeypatch):
    # Gamma(v) = k (x - x1)(x - x2) x^2 J vanishes at the 2 Gauss-Legendre
    # nodes x1, x2 of the segment 0 -> 1 but not between them, so the
    # identity that 2 nodes propose must be refused at 4 and the lane
    # stepped; the x^2 keeps the 2-node rule, exact to degree 3, from
    # integrating Gamma to 0: the transport is the rotation by -k/180
    from cartanlab import ode, transport
    J, k = np.array([[0.0, -1.0], [1.0, 0.0]]), 20.0
    x1, x2 = ode._gauss(2)[0]
    chart = AlgebroidChart(Chart((-2.0,), (2.0,)), 2,
                           anchor=lambda m: np.eye(1, 2, dtype=object),
                           gamma=lambda m: (k * (m[0] - x1) * (m[0] - x2) * m[0] ** 2 * J)[None],
                           torsion=lambda m: np.zeros((2, 2, 2), dtype=object))
    path = line_path([0.0], [1.0])
    assert not chart.gamma.values(np.array([[x1], [x2]])).any()
    steps = []
    magnus = ode._magnus_steps
    monkeypatch.setattr(ode, "_magnus_steps", lambda fields, step, lanes, *a:
                        steps.append(len(lanes)) or magnus(fields, step, lanes, *a))
    M = transport_matrix(chart, path)
    assert steps == [1]
    want = oracles.transport_matrix_carried(chart, path)
    a = k / 180
    rot = np.array([[math.cos(a), math.sin(a)], [-math.sin(a), math.cos(a)]])
    assert np.max(np.abs(want - np.eye(2))) > 1e-2 and _relative_gap(want, rot) <= 1e-10
    assert _relative_gap(M, want) <= 1e-10


def _reglued_sphere(sphere):
    """sphere2's TM+h chart (theta, phi) glued to the sphere in coordinates
    (theta, psi), psi = 0.5 - 2 phi, metric diag(1, sin^2 theta / 4).  The
    fibers are orthonormal frames, so the transition flips the frame's
    second vector and the rotation: fiber map diag(1, -1, -1)."""
    from cartanlab.algebroid import AffineCocycleEntry, Overlap, check_overlap_compatibility
    from cartanlab.models import build_riemannian_cartan

    def metric(m):
        m = as_point(m)
        g = np.zeros((2, 2), dtype=object)
        g[0, 0] = 1.0
        g[1, 1] = np.sin(m[0]) ** 2 / 4
        return g

    C1 = build_riemannian_cartan(SmoothField(Chart((0.2, -6.0), (math.pi - 0.2, 6.0)),
                                             (2, 2), metric, name="sphere_metric_psi")).chart
    A, b = np.diag([1.0, -2.0]), np.array([0.0, 0.5])
    G = GluedAlgebroid((sphere.rc.chart, C1), (Overlap(
        0, 1, AffineCocycleEntry(A, b, np.diag([1.0, -1.0, -1.0])),
        Chart((0.3, -2.0), (2.8, 2.0))),))
    assert check_overlap_compatibility(G).max_residual <= 1e-12
    return G, lambda m: A @ m + b


def _bits(x) -> bytes:
    return np.asarray(value(np.asarray(x, dtype=object)), dtype=float).tobytes()


def test_overlap_reads_are_the_object_array_reads_bit_for_bit(circle, torus, sphere):
    # every catalog overlap and the reglued sphere's (A = diag(1, -2)), and
    # each one's inverse: the closed-form reads at float points, stacks and
    # lane points, and the inverse's region, against the object-array maps
    from cartanlab import dual
    overlaps = [*circle.glued.overlaps, *torus.glued.overlaps,
                *_reglued_sphere(sphere)[0].overlaps]
    for ov in overlaps:
        ref = oracles.ObjectTransition(ov.entry)
        inv = ov.inverse
        assert _bits(inv.region_i.lower + inv.region_i.upper) == _bits(
            ref.image_box(ov.region_i).lower + ref.image_box(ov.region_i).upper)
        for got, base, fiber, box in ((ov, ref.base_map, ref.fiber_map, ov.region_i),
                                      (inv, ref.base_map_inv, ref.fiber_map_inv, inv.region_i)):
            pts = box.halton_points(6)
            for m in pts:
                assert _bits(got.base_map(m)) == _bits(base(m))
                assert _bits(got.fiber_map(m)) == _bits(fiber(m))
            assert _bits(got.base_map(pts)) == _bits([base(m) for m in pts])
            for f, want in ((got.base_map, base), (got.fiber_map, fiber)):
                lanes, ref_lanes = (dual.taylor_stack(g, pts, 1) for g in (f, want))
                assert _bits(lanes.v) == _bits(ref_lanes.v)
                assert _bits(lanes.d) == _bits(ref_lanes.d)


def test_forward_loops_build_only_the_inverses_their_switches_need():
    # a switch tries the direct entries before any inverse: the torus loops
    # switch along direct entries alone, and the circle's one switch 1 -> 0,
    # which only 0 -> 1 entries serve, builds the first inverse it tries
    from cartanlab import models
    for make, built in ((models.flat_torus, []), (models.counterexample_s1, [0])):
        fresh, warm = make(), make()
        for ov in warm.glued.overlaps:
            ov.inverse
        forward = transport_matrices(fresh.glued, fresh.loops)
        assert [k for k, ov in enumerate(fresh.glued.overlaps)
                if "inverse" in vars(ov)] == built
        back = [reverse(p) for p in fresh.loops]
        for paths, got in ((fresh.loops, forward),
                           (back, transport_matrices(fresh.glued, back))):
            want = transport_matrices(warm.glued, paths)
            assert all(_bits(M) == _bits(W) for M, W in zip(got, want))


def test_stacked_transport_matches_the_carried_solves_across_a_transition(sphere,
                                                                          monkeypatch):
    from cartanlab import ode, transport
    G, to_psi = _reglued_sphere(sphere)
    m0 = sphere.m0
    p = [m0, m0 + [0.3, 0.2], m0 + [-0.1, 0.45], m0 + [0.15, 0.6]]

    # charts 0, 1, 0: out through the transition and back
    crossing = BasePath((line_segment(0, p[0], p[1]),
                         line_segment(1, to_psi(p[1]), to_psi(p[2])),
                         line_segment(0, p[2], p[3])))
    inside = BasePath((line_segment(1, to_psi(m0), to_psi(m0 + [0.2, -0.3])),))
    solves = []
    monkeypatch.setattr(transport, "lie_solve", lambda fields, one, step, Y, *a:
                        solves.append(len(Y[0])) or ode.lie_solve(fields, one, step, Y, *a))
    got = transport_matrices(G, [crossing, inside])
    assert solves == [4]             # one solve: four lanes, in charts 0, 1, 0, 1
    for M, path in zip(got, (crossing, inside)):
        want = oracles.transport_matrix_carried(G, path)
        assert np.max(np.abs(want - np.eye(3))) > 1e-2
        assert _relative_gap(M, want) <= 1e-10
    # the same curve transported in chart 0 alone
    assert _relative_gap(got[0], transport_matrix(G, polyline_path(p))) <= 1e-7


def _assert_lanes_are_their_paths_alone(G, paths):
    batch = transport_matrices(G, paths)
    for path, M in zip(paths, batch):
        assert np.array_equal(M, transport_matrix(G, path))


def test_each_transport_lane_is_its_path_transported_alone(sphere):
    # every segment is a lane with its own steps, so its batch changes no bit
    C, m0 = sphere.rc.chart, sphere.m0
    rng = np.random.default_rng(3)
    bends = rng.uniform(-0.3, 0.3, (12, 2, 2))
    _assert_lanes_are_their_paths_alone(
        C, [polyline_path([m0, m0 + a, m0 + a + b]) for a, b in bends])
    # on the reglued sphere the lanes of one span sit in both charts
    G, to_psi = _reglued_sphere(sphere)
    paths = []
    for o in rng.uniform(-0.1, 0.1, (4, 3, 2)):
        p = [m0, m0 + [0.3, 0.2] + o[0], m0 + [-0.1, 0.45] + o[1], m0 + [0.15, 0.6] + o[2]]
        paths += [BasePath((line_segment(0, p[0], p[1]),
                            line_segment(1, to_psi(p[1]), to_psi(p[2])),
                            line_segment(0, p[2], p[3]))),
                  BasePath((line_segment(1, to_psi(m0), to_psi(p[2])),))]
    _assert_lanes_are_their_paths_alone(G, paths)


def test_a_path_with_no_segments_transports_by_the_identity(circle):
    empty = BasePath(())
    assert np.array_equal(transport_matrix(circle.glued, empty), np.eye(circle.glued.rank))
    M, I = transport_matrices(circle.glued, [circle.loops[0], empty])
    assert np.array_equal(M, transport_matrix(circle.glued, circle.loops[0]))
    assert np.array_equal(I, np.eye(circle.glued.rank))


def test_transport_makes_one_solve_per_time_span(torus, monkeypatch):
    from cartanlab import ode, transport
    solves = []
    monkeypatch.setattr(transport, "lie_solve", lambda fields, one, step, Y, *a:
                        solves.append(len(Y[0])) or ode.lie_solve(fields, one, step, Y, *a))
    monodromies(torus.glued, torus.loops)
    assert solves == [6]      # one solve over t in [0, 1]: six segments, one lane each


def test_parallel_frame_action_algebroid_constant(translations2):
    frame = parallel_frame(translations2.chart, [0.0, 0.0],
                           Chart((-1.0,) * 2, (1.0,) * 2), steps=16)
    sec = frame.section(0)
    out = value(np.asarray(sec(as_point([0.4, -0.7])), dtype=object))
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_parallel_frame_detects_curvature(ellipsoid):
    with pytest.raises(TransportError):
        parallel_frame(ellipsoid.rc.chart, [1.1, 0.2],
                       Chart((0.8, -0.2), (1.4, 0.6)), steps=48,
                       dependence_tol=1e-8)


def test_a_nan_gamma_after_the_first_point_fails_the_parallel_frame(translations2,
                                                                    nan_after_first_point):
    C = translations2.chart
    chart = AlgebroidChart(C.base, 2, anchor=C.anchor,
                           gamma=nan_after_first_point(C.gamma), torsion=C.torsion)
    with pytest.raises(TransportError, match="residual nan"):
        parallel_frame(chart, [0.0, 0.0], Chart((-1.0, -1.0), (1.0, 1.0)))


def test_parallel_frame_sphere_brackets_match_extraction(sphere):
    from cartanlab.cartan import fiber_bracket_at
    C = sphere.rc.chart
    m0 = sphere.m0
    region = Chart(tuple(m0 - 0.25), tuple(m0 + 0.25))
    frame = parallel_frame(C, m0, region, steps=48)
    secs = frame.sections()
    fb = fiber_bracket_at(C, m0)
    m = as_point(m0 + [0.2, -0.15])
    P = np.stack([value(np.asarray(secs[k](m), dtype=object)) for k in range(3)], axis=1)
    got = value(np.asarray(C.bracket(secs[0], secs[1])(m), dtype=object))
    want = P @ fb.structure_constants[0, 1]
    assert np.max(np.abs(got - want)) < 1e-6
    # sections are parallel: covariant derivative vanishes along both axes
    for k in range(2):
        d = value(np.asarray(C.conn(np.eye(2)[k], secs[0], m), dtype=object))
        assert np.max(np.abs(d)) < 1e-7
    # at the anchor point the frame is the standard fiber basis
    at0 = value(np.asarray(secs[1](as_point(m0)), dtype=object))
    assert np.allclose(at0, np.eye(3)[1], atol=1e-12)


def test_line_transport_of_identity_stacks_column_transports(sphere):
    # parallel frames transport the identity in one pass; its columns must
    # be the transports of the basis vectors, bit for bit
    C = sphere.rc.chart
    m = sphere.m0 + [0.2, -0.15]
    whole = value(_transport_line_dual(C, sphere.m0, m, np.eye(3), 48))
    cols = [value(_transport_line_dual(C, sphere.m0, m, e, 48)) for e in np.eye(3)]
    assert np.array_equal(whole, np.stack(cols, axis=1))


def test_geodesic_translations_straight_line(translations2):
    res = geodesic(translations2.chart, [0.0, 0.0], [0.7, -0.3], span=(0.0, 2.0))
    assert res.status == "completed"
    assert np.allclose(res.path.base[-1], [1.4, -0.6], atol=1e-9)
    drift = np.max(np.abs(res.path.fiber - [0.7, -0.3]))
    assert drift < 1e-8
    # closed form m(t) = m0 + t X0 at every output time
    line = np.outer(res.path.times, [0.7, -0.3])
    assert np.max(np.abs(res.path.base - line)) < 1e-9
    # the anchor is the identity, so the base velocity a(m)X is X
    assert np.array_equal(res.path.velocity, res.path.fiber)


def test_blowup_event_reads_only_the_fiber(translations2):
    # the base coordinate passes the blow-up norm at t = 1e6, but the
    # straight line is complete and its fiber stays (1, 0)
    res = geodesic(translations2.chart, [0.0, 0.0], [1.0, 0.0], span=(0.0, 2.0e6))
    assert res.status == "completed"
    assert res.path.base[-1] == pytest.approx([2.0e6, 0.0])
    verdicts = completeness_probe(translations2, [([0.0, 0.0], [1.0, 0.0])], horizon=2.0e6)
    assert verdicts[0].verdict == "no-blowup-within-horizon"


def test_a_start_fiber_at_the_blowup_norm_is_refused(translations2, circle):
    with pytest.raises(ValueError, match="blow-up norm 1e\\+06"):
        geodesic(translations2.chart, [0.0, 0.0], [2.0e6, 0.0])
    with pytest.raises(ValueError, match="blow-up norm"):
        completeness_probe(circle.glued, [(0, [0.5], [1.0e6])], horizon=1.0)


def test_geodesic_counterexample_escape_closed_form(circle):
    res = geodesic(circle.cover.chart, [0.0], [1.0], span=(0.0, -2.0))
    assert res.certified_incomplete
    assert abs(res.t_end - (-1.0)) < 1e-3
    # footprint follows theta(t) = log(1 + t)
    for t, m in zip(res.path.times[1:40], res.path.base[1:40]):
        assert abs(m[0] - math.log(1.0 + t)) < 1e-7


def test_geodesic_counterexample_escape_keeps_its_footprint_everywhere(circle):
    # theta(t) = log(1 + t) at every kept point, read as e^theta = 1 + t
    res = geodesic(circle.cover.chart, [0.0], [1.0], span=(0.0, -2.0))
    foot = np.exp(np.asarray(res.path.base)[:, 0]) - (1.0 + np.asarray(res.path.times))
    assert len(foot) > 40 and np.max(np.abs(foot)) <= 1e-8


def test_geodesic_counterexample_forward_reaches_horizon(circle):
    res = geodesic(circle.cover.chart, [0.0], [1.0], span=(0.0, 100.0))
    assert res.status == "completed"
    assert abs(res.path.base[-1][0] - math.log(101.0)) < 1e-6


def test_circle_blowup_is_certified_by_its_speed_in_few_rhs_calls(circle):
    # criterion 02's escape: in rescaled time the approach to t* = -1 is cheap
    res = geodesic(circle.cover.chart, [0.0], [1.0], span=(0.0, -2.0))
    assert res.status == "blowup" and res.certified_incomplete
    assert res.nfev <= 700
    # the base speed e^-theta reaches 1e6 where 1 + t = 1e-6
    assert res.t_end == pytest.approx(-1.0 + 1e-6, abs=1e-8)
    assert np.max(np.abs(res.path.fiber)) == 1.0


def _chart_ending_at(edge):
    """A flat rank-1 line whose anchor is 1 on (-edge, edge) and undefined
    beyond: its geodesics keep speed 1 and fiber 1 until the solver stalls."""
    def anchor(m):
        if abs(value(m[0])) >= edge:
            raise ValueError("outside the domain")
        return np.ones((1, 1), dtype=object)
    return AlgebroidChart(Chart((-np.inf,), (np.inf,)), 1, anchor=anchor,
                          gamma=lambda m: np.zeros((1, 1, 1), dtype=object),
                          torsion=lambda m: np.zeros((1, 1, 1), dtype=object))


def test_a_collapse_with_bounded_state_and_speed_is_not_a_blowup():
    chart = _chart_ending_at(1.0)
    res = geodesic(chart, [0.0], [1.0], span=(0.0, 2.0))
    assert res.status == "step_collapse" and not res.certified_incomplete
    assert res.t_end == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(res.path.velocity)) == pytest.approx(1.0)
    verdicts = completeness_probe(chart, [([0.0], [1.0])], horizon=2.0)
    assert verdicts[0].verdict == "no-blowup-within-horizon" and verdicts[0].t_star is None
    assert "step collapse" in verdicts[0].note


def test_a_leg_that_spends_its_s_span_reports_step_collapse():
    # the fiber turns at rate 1e3 while fiber and speed stay at most 1: |f|
    # stays above a blow-up norm of 10, so the s-span, sized for |f| below
    # it, runs out before t1 without any blow-up
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    chart = AlgebroidChart(Chart((-np.inf,), (np.inf,)), 2,
                           anchor=lambda m: np.eye(1, 2, dtype=object),
                           gamma=lambda m: 1e3 * J[None].astype(object),
                           torsion=lambda m: np.zeros((2, 2, 2), dtype=object))
    res = geodesic(chart, [0.0], [1.0, 0.0], span=(0.0, 0.01), blowup_norm=10.0)
    assert res.status == "step_collapse" and not res.certified_incomplete
    assert 0.0 < res.t_end < 0.01
    assert np.allclose(np.linalg.norm(res.path.fiber, axis=1), 1.0, atol=1e-8)


def test_the_rescaled_field_keeps_t_moving_and_passes_overflow_on():
    from cartanlab.ode import _overflow_safe
    from cartanlab.transport import RESCALE_SPEED, _geodesic_rhs

    def chart(scale):
        return AlgebroidChart(Chart((-np.inf,), (np.inf,)), 1,
                              anchor=lambda m: np.ones((1, 1), dtype=object),
                              gamma=lambda m: np.full((1, 1, 1), scale, dtype=object),
                              torsion=lambda m: np.zeros((1, 1, 1), dtype=object))
    s, z, lane = np.zeros(1), np.array([[0.0, 0.0, 1e10]]), np.array([0])
    # |f| = 1e300 does not overflow the norm: dt/ds stays positive
    dz = _geodesic_rhs(chart(-1e280), np.array([-1.0]))(s, z, lane)[0]
    assert np.all(np.isfinite(dz)) and -1e-290 < dz[0] < 0.0
    assert np.linalg.norm(dz[1:]) == pytest.approx(RESCALE_SPEED)
    # a non-finite field still reaches the solver's rejection sentinel
    out = _overflow_safe(_geodesic_rhs(chart(float("inf")), np.array([1.0])))(s, z, lane)[0]
    assert np.all(np.isfinite(out)) and out[2] == -1e150


def test_geodesic_so3_circle_period(so3_action):
    res = geodesic(so3_action.chart, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                   span=(0.0, 2 * math.pi))
    assert res.status == "completed"
    assert np.max(np.abs(res.path.base[-1] - [1.0, 0.0, 0.0])) < 1e-7
    radii = np.linalg.norm(res.path.base[:, :2], axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-8
    assert np.max(np.abs(res.path.base[:, 2])) < 1e-9
    # fiber constant in the trivialization (canonical flat connection)
    assert np.max(np.abs(res.path.fiber - [0.0, 0.0, 1.0])) < 1e-8


def test_geodesic_determinism(circle):
    r1 = geodesic(circle.cover.chart, [0.0], [1.0], span=(0.0, 5.0))
    r2 = geodesic(circle.cover.chart, [0.0], [1.0], span=(0.0, 5.0))
    assert np.array_equal(r1.path.base, r2.path.base)


def test_geodesic_escapes_bounded_chart(circle):
    res = geodesic(circle.glued.charts[0], [0.5], [1.0], span=(0.0, 60.0))
    assert res.status == "escaped_chart"
    # theta reaches the chart edge pi + 0.5 at t = e^{pi+0.5} - e^{0.5}
    t_exit = math.exp(math.pi + 0.5) - math.exp(0.5)
    assert abs(res.t_end - t_exit) < 1e-3


def test_geodesic_glued_crosses_charts(circle):
    # theta grows like log t, so winding once around the glued circle
    # takes until t ~ e^{2 pi}; two switches happen on the way
    res = geodesic_glued(circle.glued, 0, [0.5], [1.0], span=(0.0, 2000.0))
    assert res.status == "completed"
    assert res.switches >= 2
    # the forward direction shrinks the fiber through the inverse twist
    assert abs(res.path.fiber[-1][0]) < 1.0


def test_glued_geodesic_refuses_a_negative_chart_label(torus):
    with pytest.raises(TransportError, match="chart -1 is not a chart"):
        geodesic_glued(torus.glued, -1, [0.5, 0.5], [1.0, 0.0], span=(0.0, 1.0))


def test_glued_geodesic_refuses_a_start_outside_its_chart(torus):
    # (0.5, 0.5) lies in chart 3 but not in chart 0, the box (-0.36, 0.36)^2
    with pytest.raises(GeometryError, match="outside chart interior"):
        geodesic_glued(torus.glued, 0, [0.5, 0.5], [1.0, 0.0], span=(0.0, 1.0))


def test_a_geodesic_start_within_the_exit_margin_is_refused(sphere, circle):
    # the exit event, the distance to the chart's edge less EXIT_MARGIN, is
    # not positive at such a start and could never change sign: from
    # 5e-7 inside, the geodesic used to cross the pole theta = 0 and
    # report "completed"
    C = sphere.rc.chart
    with pytest.raises(GeometryError, match="outside chart interior"):
        geodesic(C, [0.2 + 5e-7, 0.0], [-1.0, 0.0, 0.0], span=(0.0, 0.5))
    with pytest.raises(GeometryError, match="outside chart interior"):
        completeness_probe(C, [([0.2 + 5e-7, 0.0], [-1.0, 0.0, 0.0])], horizon=1.0)
    res = geodesic(C, [0.2 + 2e-6, 0.0], [-1.0, 0.0, 0.0], span=(0.0, 0.5))
    assert res.status == "escaped_chart" and np.all(res.path.base[:, 0] > 0.2)
    # on the box (0, 1) a start at exactly EXIT_MARGIN has an exit event of
    # exactly 0, and the next float up one that fires
    line = dataclasses.replace(circle.cover.chart, base=Chart((0.0,), (1.0,)))
    with pytest.raises(GeometryError, match="outside chart interior"):
        geodesic(line, [EXIT_MARGIN], [-1.0], span=(0.0, 1.0))
    res = geodesic(line, [np.nextafter(EXIT_MARGIN, 1.0)], [-1.0], span=(0.0, 1.0))
    assert res.status == "escaped_chart" and np.all(res.path.base > 0.0)


def test_completeness_probe_refuses_a_seed_chart_label_past_the_last_chart(torus):
    with pytest.raises(TransportError, match="chart 9 is not a chart"):
        completeness_probe(torus.glued, [(9, [0.0, 0.0], [1.0, 0.0])], horizon=1.0)


def test_completeness_probe_counterexample(circle):
    verdicts = completeness_probe(circle.glued, [(0, np.array([0.5]), np.array([1.0]))],
                                  horizon=5.0)
    assert verdicts[0].verdict == "certified-incomplete"
    assert abs(verdicts[0].t_star - (-math.exp(0.5))) < 1e-3
    # cover seed at the origin certifies t* = -1
    v2 = completeness_probe(circle.cover, [([0.0], [1.0])], horizon=100.0)
    assert v2[0].verdict == "certified-incomplete"
    assert abs(v2[0].t_star - (-1.0)) < 1e-3


def test_completeness_probe_translations(translations2):
    verdicts = completeness_probe(translations2,
                                  [([0.0, 0.0], [1.0, 2.0]), ([0.5, 0.5], [-3.0, 0.1])],
                                  horizon=100.0)
    assert all(v.verdict == "no-blowup-within-horizon" for v in verdicts)


def test_completeness_probe_sphere_orbits(so3_action):
    verdicts = completeness_probe(so3_action.chart,
                                  [([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])], horizon=50.0)
    assert verdicts[0].verdict == "no-blowup-within-horizon"


def test_a_glued_geodesic_past_the_switch_cap_certifies_nothing(torus):
    # the complete flat torus: a geodesic winds through chart after chart
    # until the switch cap stops it, which is no blow-up
    res = geodesic_glued(torus.glued, 0, [0.0, 0.0], [1.0, 0.3], span=(0.0, 400.0))
    assert res.status == "switch_limit" and not res.certified_incomplete
    assert res.switches == MAX_SWITCHES + 1 and res.t_end < 400.0
    v = completeness_probe(torus.glued, [(0, [0, 0], [1, 0.3])], horizon=400)[0]
    assert v.verdict == "no-blowup-within-horizon" and v.t_star is None
    assert "switch limit" in v.note


def test_completeness_probe_refuses_an_empty_seed_list(circle):
    # a probe of no geodesic would read as "no blow-up found"
    with pytest.raises(ValueError, match="at least one seed"):
        completeness_probe(circle.glued, [])


def _same_geodesic(a, b) -> bool:
    """Equal results, float arrays compared by their bytes."""
    return ((a.status, a.chart, a.switches, a.steps, a.nfev) ==
            (b.status, b.chart, b.switches, b.steps, b.nfev)
            and np.float64(a.t_end).tobytes() == np.float64(b.t_end).tobytes()
            and all(getattr(a.path, k).tobytes() == getattr(b.path, k).tobytes()
                    for k in ("times", "base", "fiber"))
            and a.path.charts == b.path.charts)


def _circle_cover_lanes(rng):
    # blow-up at t* = -e^theta0 / x0 where the span reaches it, else complete
    seeds = [(float(rng.uniform(-1.0, 1.0)), float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)))
             for _ in range(6)]
    return [(0, [theta0], [x0], (0.0, sign * 10.0)) for theta0, x0 in seeds for sign in (1.0, -1.0)]


@pytest.mark.parametrize("case", ["circle cover", "glued circle", "glued torus", "sphere2"])
def test_a_lane_runs_as_it_runs_alone(case, circle, torus, sphere):
    rng = np.random.default_rng(7)
    if case == "circle cover":
        G, glued = GluedAlgebroid((circle.cover.chart,), ()), False
        starts, want = _circle_cover_lanes(rng), {"blowup", "completed"}
    elif case == "glued circle":
        G, glued = circle.glued, True
        starts = [(0, [0.5], [1.0], (0.0, 600.0)), (1, [4.0], [-0.5], (0.0, 600.0)),
                  (0, [0.5], [1.0], (0.0, -5.0)), (1, [3.5], [0.8], (0.0, 30.0))]
        starts += [(int(c), [float(rng.uniform(0.0, 3.0)) + 3.0 * c],
                    [float(rng.uniform(-2.0, 2.0))], (0.0, float(rng.uniform(-50.0, 50.0))))
                   for c in rng.integers(0, 2, 4)]
        want = {"blowup", "completed"}
    elif case == "glued torus":
        G, glued = torus.glued, True
        starts = [(0, [0.0, 0.0], [1.0, 0.3], (0.0, 400.0)),
                  (3, [0.6, 0.4], [-0.7, 2.0], (0.0, 3.0)),
                  (1, [0.5, 0.1], [0.2, -0.4], (0.0, -5.0))]
        want = {"switch_limit", "completed"}
    else:
        G, glued = GluedAlgebroid((sphere.rc.chart,), ()), False
        starts = [(0, [0.3, 0.0], [-1.0, 0.0, 0.5], (0.0, 1.0)),
                  (0, [1.2, 0.3], [0.5, -0.8, 0.3], (0.0, 1.0)),
                  (0, [1.5, -1.0], [0.2, 0.4, -0.5], (0.0, -0.8))]
        want = {"escaped_chart", "completed"}
    if glued:
        batch = _geodesic_runs(G, starts, BLOWUP_NORM)
        alone = [geodesic_glued(G, *start) for start in starts]
    else:
        batch = _geodesic_runs(G, starts, BLOWUP_NORM)
        alone = [geodesic(G.charts[0], m0, x0, span) for _, m0, x0, span in starts]
    assert {r.status for r in batch} >= want
    if case == "glued circle":
        assert max(r.switches for r in batch) >= 2
    for got, ref in zip(batch, alone):
        assert _same_geodesic(got, ref)


def test_a_stack_of_starts_is_a_lane_each(circle, sphere):
    # a 1-D start is a lane of its own; a stack of one returns a list of
    # one equal result, and a stack with a span per lane a result per lane
    starts = [(sphere.rc.chart, [[0.3, 0.0], [1.2, 0.3]], [[-1.0, 0.0, 0.5], [0.5, -0.8, 0.3]],
               [(0.0, 1.0), (0.0, -1.0)]),
              (circle.cover.chart, [[0.0], [0.4], [-0.2]], [[1.0], [-1.4], [0.8]],
               [(0.0, -2.0), (0.0, -10.0), (0.0, -10.0)])]
    for C, ms, xs, spans in starts:
        single = [geodesic(C, m, x, span) for m, x, span in zip(ms, xs, spans)]
        assert isinstance(single[0], GeodesicResult)
        for m, x, span, ref in zip(ms, xs, spans, single):
            (got,) = geodesic(C, [m], [x], [span])
            assert _same_geodesic(got, ref)
        assert all(map(_same_geodesic, geodesic(C, ms, xs, spans), single))
        assert len({r.status for r in single}) == 2
    # one span serves every lane of a stack
    same = geodesic(circle.cover.chart, [[0.0], [0.4]], [[1.0], [-1.4]], (0.0, 3.0))
    assert all(_same_geodesic(r, geodesic(circle.cover.chart, m, x, (0.0, 3.0)))
               for r, m, x in zip(same, [[0.0], [0.4]], [[1.0], [-1.4]]))


def test_a_probe_is_one_solve_when_no_lane_switches_chart(circle, monkeypatch):
    from cartanlab import transport
    solves = []

    def counting(*args, **kwargs):
        solves.append(np.shape(args[2]))
        return integrate(*args, **kwargs)
    integrate = transport.integrate
    monkeypatch.setattr(transport, "integrate", counting)
    seeds = [([0.3], [0.7]), ([-0.5], [-1.2]), ([0.1], [1.5])]
    verdicts = completeness_probe(circle.chart, seeds, horizon=10.0)
    assert solves == [(6, 3)]
    # the + direction is read first, and every seed here blows up in one direction
    for (m0, x0), v in zip(seeds, verdicts):
        t_star = -math.exp(m0[0]) / x0[0]
        assert v.verdict == "certified-incomplete" and abs(v.t_star - t_star) < 1e-3


def test_a_glued_round_makes_one_solve_per_chart(circle, monkeypatch):
    # seeds in charts 0 and 1: the first round solves each chart's lanes,
    # both directions of its seeds, in a call of their own
    from cartanlab import transport
    starts = []

    def recording(rhs, span, y0, **kwargs):
        starts.append(y0[:, 1].tolist())
        return integrate(rhs, span, y0, **kwargs)
    integrate = transport.integrate
    monkeypatch.setattr(transport, "integrate", recording)
    seeds = [(0, [0.5], [1.0]), (1, [4.0], [-0.5]), (0, [1.5], [-0.3]), (1, [5.0], [0.8])]
    completeness_probe(circle.glued, seeds, horizon=50.0)
    assert starts[:2] == [[0.5, 0.5, 1.5, 1.5], [4.0, 4.0, 5.0, 5.0]]


def test_a_probe_reads_the_plus_direction_first():
    # both directions collapse, at t = 1 and t = -1: the note is that of
    # the last direction, as when the directions ran one after the other
    v = completeness_probe(_chart_ending_at(1.0), [([0.0], [1.0])], horizon=2.0)[0]
    assert v.verdict == "no-blowup-within-horizon" and "t=-1 (step collapse)" in v.note


def test_catalog_loops_carry_their_endpoints(circle, torus):
    # the catalog loops are polylines, read off their endpoints in the
    # stacked transport; the carried oracle reads the curve-lambda loops
    # through point_velocity.  Both transports are exact (gamma = 0 on every
    # catalog chart), so the monodromies agree bit for bit.
    for model, curves in ((circle, (oracles.circle_loop_by_curves(),)),
                          (torus, oracles.torus_loops_by_curves())):
        for got, curve in zip(monodromies(model.glued, model.loops), curves):
            want = oracles.transport_matrix_carried(model.glued, curve)
            assert got.matrix.tobytes() == want.tobytes()
        # the same points: pi (1 - t) and pi + t (0 - pi) round apart by an ulp
        for loop, ref in zip(model.loops, curves):
            for seg, old in zip(loop.segments, ref.segments):
                line = oracles.as_curve(seg)
                for t in (0.0, 0.3, 0.7, 1.0):
                    assert np.max(np.abs(line.point(t) - old.point(t))) <= 1e-15


class FloatCall(Exception):
    """Raised by a field formula called at a point with no Dual in it."""


def _refusing_floats(C: AlgebroidChart) -> AlgebroidChart:
    """A copy of the chart whose anchor and gamma formulas refuse float
    points, so that only their closed-form batches can give float values."""
    def refuse(f):
        def fn(m):
            if not any(isinstance(x, Dual) for x in np.ravel(np.asarray(m, dtype=object))):
                raise FloatCall(f"{f.name} called at the float point {m}")
            return f.fn(m)
        return dataclasses.replace(f, fn=fn)
    return dataclasses.replace(C, anchor=refuse(C.anchor), gamma=refuse(C.gamma))


@pytest.mark.parametrize("model, seeds, span", [
    ("circle", [(0, [0.5], [1.0])], (0.0, -2.0)),
    ("circle", [(0, [0.5], [1.0]), (1, [4.0], [-0.5])], (0.0, 600.0)),
    ("torus", [(0, [0.0, 0.0], [1.0, 0.3]), (3, [0.6, 0.4], [-0.7, 2.0])], (0.0, 3.0)),
])
def test_geodesics_and_monodromy_read_floats_through_values(model, seeds, span, request):
    # the glued charts' anchors and gammas all have closed-form batches
    # (SmoothField.values), which every float read goes through
    model = request.getfixturevalue(model)
    glued = model.glued
    refusing = GluedAlgebroid(tuple(map(_refusing_floats, glued.charts)), glued.overlaps)
    for chart, m0, x0 in seeds:
        want = geodesic_glued(glued, chart, m0, x0, span)
        got = geodesic_glued(refusing, chart, m0, x0, span)
        assert (got.status, got.t_end, got.switches) == (want.status, want.t_end, want.switches)
        assert np.array_equal(got.path.velocity, want.path.velocity)
        want = geodesic(glued.charts[chart], m0, x0, span)
        got = geodesic(refusing.charts[chart], m0, x0, span)
        assert (got.status, got.t_end) == (want.status, want.t_end)
    for loop in model.loops:
        assert np.array_equal(monodromy(refusing, loop).matrix, monodromy(glued, loop).matrix)


def test_isotropy_translations_trivial(translations2):
    res = isotropy_subalgebra(translations2.chart, [0.2, 0.4])
    assert res.subalgebra.dim == 0
    assert res.well_conditioned


def test_isotropy_so3_axis(so3_action):
    res = isotropy_subalgebra(so3_action.chart, [0.0, 0.0, 1.0])
    assert res.subalgebra.dim == 1
    v = res.subalgebra.basis_vectors[0]
    assert np.max(np.abs(np.abs(v) - [0.0, 0.0, 1.0])) < 1e-12


def test_isotropy_sphere_h_summand(sphere):
    res = isotropy_subalgebra(sphere.rc.chart, sphere.m0)
    assert res.subalgebra.dim == 1
    v = res.subalgebra.basis_vectors[0]
    assert np.max(np.abs(np.abs(v) - [0.0, 0.0, 1.0])) < 1e-10
    # and the subalgebra is the rotation part: bracket with itself closes
    assert res.subalgebra.closure_residual() < 1e-10


def _invariant_metric_by_directions(C, sigma, samples):
    """Per-point residuals of invariant_metric_check with the metric
    differentiated along each anchor column by a directional Dual."""
    per = []
    for m in samples:
        m = as_point(m)
        sig = value(np.asarray(sigma(m), dtype=object))
        bar = bar_tm_tensor(C.anchor.first_jet([m]), C.gamma.first_jet([m]))[0]
        anchor = value(np.asarray(C.anchor(m), dtype=object))
        res = [value(np.asarray(directional(sigma, m, anchor[:, a]), dtype=object))
               - sig @ bar[:, a] - bar[:, a].T @ sig for a in range(C.rank)]
        per.append(np.max(np.abs(res)))
    return np.array(per)


def test_invariant_metric_pass_and_fail(sphere, translations2, circle, rng):
    cases = [(sphere.rc.chart, sphere.metric, sphere.metric.chart.sample_points(rng, 5), True),
             (translations2.chart, geometry.euclidean_metric(2), rng.uniform(-1, 1, (5, 2)), True),
             (circle.cover.chart, SmoothField.constant(circle.cover.chart.base, np.eye(1)),
              rng.uniform(-1, 1, (5, 1)), False)]
    for C, sigma, pts, passes in cases:
        rep = invariant_metric_check(C, sigma, samples=pts)
        assert rep.passed == passes and (rep.max_residual < 1e-7) == passes
        want = _invariant_metric_by_directions(C, sigma, pts)
        assert np.max(np.abs(np.array(rep.per_point) - want)) < 1e-13


def test_compactness_probe_cases(circle):
    M = monodromy(circle.glued, circle.loops[0])
    rep = monodromy_compactness_probe([M])
    assert rep.verdict == "unbounded"
    assert rep.witness_word is not None and len(rep.witness_word) == 1
    rep2 = monodromy_compactness_probe([np.eye(3)])
    assert rep2.passed
    th = math.sqrt(2.0)
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    rep3 = monodromy_compactness_probe([rot])
    assert rep3.passed


def _compactness_probe_by_word(maps, word_length=6, modulus_tol=1e-9, norm_bound=1e3):
    """One word at a time, in the probe's scan order (the reference)."""
    gens = []
    for k, M in enumerate(maps):
        gens += [(k + 1, M), (-(k + 1), np.linalg.inv(M))]
    max_dev = max_norm = 0.0
    frontier = [((), np.eye(len(maps[0])))]
    for _ in range(word_length):
        nxt = []
        for word, mat in frontier:
            for label, g in gens:
                if word and word[-1] == -label:
                    continue
                m2 = mat @ g
                dev = float(np.max(np.abs(np.abs(np.linalg.eigvals(m2)) - 1.0)))
                nrm = float(np.linalg.norm(m2, 2))
                max_dev, max_norm = max(max_dev, dev), max(max_norm, nrm)
                if dev > modulus_tol or nrm > norm_bound:
                    return "unbounded", word + (label,), max_dev, max_norm
                nxt.append((word + (label,), m2))
        frontier = nxt
    return "consistent-with-compact-closure", None, max_dev, max_norm


def _assert_probe_matches_word_by_word_scan(maps, bound=1e3):
    rep = monodromy_compactness_probe(maps, norm_bound=bound)
    verdict, word, dev, nrm = _compactness_probe_by_word(maps, norm_bound=bound)
    assert (rep.verdict, rep.witness_word) == (verdict, word)
    # the deviation is |lambda| - 1, so its roundoff scales with |lambda|
    assert abs(rep.max_modulus_deviation - dev) <= 1e-12 * (1.0 + dev)
    assert abs(rep.max_word_norm - nrm) <= 1e-12 * nrm


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
CYCLE = np.eye(3)[[1, 2, 0]]


def test_compactness_probe_matches_word_by_word_scan(rng):
    th = math.sqrt(2.0)
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    unipotent = [np.array([[1.0, c], [0.0, 1.0]]) for c in (1.0, 2.0)]
    cases = [([np.eye(2), np.eye(2)], 1e3), ([rot, rot.T @ rot], 1e3), ([q, q @ q], 1e3),
             # both fail first at length 3, where words after the witness
             # deviate, or grow, more than the witness
             ([np.diag([1.0, 1.0 + 3.5e-10]), np.diag([1.0, 1.0 + 3.9e-10])], 1e3),
             (unipotent, 4.5),
             ([np.array([[1.0, 300.0], [0.0, 1.0]]), rot], 1e3),
             ([np.array([[math.exp(2 * math.pi)]])], 1e3), ([rng.normal(size=(3, 3))], 1e3),
             # finite holonomy, whose words repeat few matrices: permutations,
             # signs, identities and a glide-like pair (a reflection and a swap)
             ([CYCLE, np.eye(3)[[1, 0, 2]]], 1e3), ([np.diag([-1.0, -1.0, 1.0]), CYCLE], 1e3),
             ([np.eye(1), -np.eye(1)], 1e3), ([np.eye(3)], 1e3),
             ([np.diag([1.0, -1.0]), SWAP], 1e3),
             # a finite part whose words repeat, beside one that grows late
             ([SWAP, unipotent[0]], 4.5), ([np.diag([1.0, -1.0]), SWAP, unipotent[1]], 4.5)]
    for maps, bound in cases:
        _assert_probe_matches_word_by_word_scan(maps, bound)


def _probe_generator(family: str, n: int, rng) -> np.ndarray:
    """A permutation, a sign diagonal, the identity, a signed permutation
    (at n = 2 the glide-like pair diag(1, -1) and the swap are two of them)
    or a dense matrix."""
    perm, signs = np.eye(n)[rng.permutation(n)], rng.choice([-1.0, 1.0], n)
    return {"permutation": perm, "signs": np.diag(signs), "identity": np.eye(n),
            "glide": perm * signs, "dense": rng.normal(size=(n, n))}[family]


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.sampled_from(["permutation", "signs", "identity", "glide", "dense"]),
                min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_compactness_probe_matches_word_by_word_scan_on_drawn_generators(n, families, seed):
    rng = np.random.default_rng(seed)
    _assert_probe_matches_word_by_word_scan([_probe_generator(f, n, rng) for f in families])


def test_compactness_probe_reads_few_words_of_the_torus(torus, monkeypatch):
    # the torus monodromies are I: its words repeat four keys from length 2
    real, read = np.linalg.eigvals, []

    def counted(a):
        read.append(len(a))
        return real(a)
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    rep = monodromy_compactness_probe(torus.monodromies)
    assert rep.passed and sum(read) <= 16          # the full scan reads 1,456


def test_invariant_metric_reports_a_nan_at_the_second_sample(translations2):
    pts = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]])

    def sigma(m):
        g = np.eye(2).astype(object)
        if np.array_equal(value(np.asarray(m, dtype=object)), pts[1]):
            g[0, 0] = float("nan")
        return g

    rep = invariant_metric_check(translations2.chart, SmoothField(translations2.chart.base,
                                                                  (2, 2), sigma), samples=pts)
    assert len(rep.per_point) == 3 and np.isnan(rep.per_point[1])
    assert np.isnan(rep.max_residual) and not rep.passed
