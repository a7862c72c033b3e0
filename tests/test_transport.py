import math

import numpy as np
import pytest

from cartanlab import algebra, geometry
from cartanlab.algebroid import AlgebroidChart
from cartanlab.dual import value
from cartanlab.geometry import Chart, SmoothField, as_point
from cartanlab.transport import (MAX_SWITCHES, BasePath, PathSegment, TransportError,
                                 _transport_line_dual, completeness_probe, escape_bound, geodesic,
                                 geodesic_glued, invariant_metric_check,
                                 isotropy_subalgebra, line_path, monodromy,
                                 monodromy_compactness_probe, parallel_frame,
                                 parallel_transport, polyline_path,
                                 transport_matrix)

E2PI = math.exp(2 * math.pi)


def test_point_velocity_matches_point_and_velocity(circle):
    poly = polyline_path([[0.0, 0.0], [0.3, 0.1], [-0.2, 0.5]])
    paths = [line_path([0.1, -0.2], [0.7, 0.45]), poly, poly.reverse(), circle.loops[0]]
    for path in paths:
        for s in path.segments:
            for t in (s.t0, 1.0 / 3.0, 0.7, s.t1):
                m, v = s.point_velocity(t)
                assert m.dtype == v.dtype == float
                assert np.array_equal(m, s.point(t))
                assert np.array_equal(v, value(np.asarray(s.velocity(t), dtype=object)))


def test_transport_along_a_sphere_latitude_rotates_the_frame():
    # on the round sphere a latitude at colatitude theta0 turns an
    # orthonormal frame by dphi * cos(theta0) relative to (d_theta, d_phi / sin)
    metric = geometry.sphere_metric(2)
    lc = geometry.levi_civita(metric)
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
    out = parallel_transport(translations2.chart, path, [1.3, -0.4])
    assert np.allclose(out, [1.3, -0.4], atol=1e-12)


def test_transport_is_linear(circle, rng):
    loop = circle.loops[0]
    M = transport_matrix(circle.glued, loop)
    for _ in range(3):
        x = rng.uniform(-1, 1, 1)
        y = rng.uniform(-1, 1, 1)
        a, b = rng.uniform(-2, 2, 2)
        lhs = parallel_transport(circle.glued, loop, a * x + b * y)
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
    a = parallel_transport(C, p1, x0)
    b = parallel_transport(C, p2, x0)
    assert np.max(np.abs(a - b)) < 1e-8


def test_transport_small_square_loop_sphere(sphere):
    C = sphere.rc.chart
    m0 = sphere.m0
    d = 0.15
    square = polyline_path([m0, m0 + [d, 0], m0 + [d, d], m0 + [0, d], m0])
    x0 = np.array([1.0, 0.5, -0.25])
    out = parallel_transport(C, square, x0)
    assert np.max(np.abs(out - x0)) < 1e-6


def test_circle_monodromy_value(circle):
    M = monodromy(circle.glued, circle.loops[0])
    assert abs(M.matrix[0, 0] - E2PI) / E2PI < 1e-6


def test_monodromy_requires_closed_loop(circle):
    open_path = BasePath((PathSegment(0, lambda t: np.array([0.3 * t])),))
    with pytest.raises(TransportError):
        monodromy(circle.glued, open_path)


def test_monodromy_multiplicative_and_inverse(circle):
    loop = circle.loops[0]
    M1 = monodromy(circle.glued, loop).matrix
    M2 = monodromy(circle.glued, loop.then(loop)).matrix
    assert np.max(np.abs(M2 - M1 @ M1)) / np.max(np.abs(M2)) < 1e-7
    Mi = monodromy(circle.glued, loop.reverse()).matrix
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
    z = np.array([0.0, 0.0, 1e10])
    # |f| = 1e300 does not overflow the norm: dt/ds stays positive
    dz = _geodesic_rhs(chart(-1e280), -1.0)(0.0, z)
    assert np.all(np.isfinite(dz)) and -1e-290 < dz[0] < 0.0
    assert np.linalg.norm(dz[1:]) == pytest.approx(RESCALE_SPEED)
    # a non-finite field still reaches the solver's rejection sentinel
    out = _overflow_safe(_geodesic_rhs(chart(float("inf")), 1.0))(0.0, z)
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


def test_invariant_metric_pass_and_fail(sphere, translations2, circle, rng):
    rep = invariant_metric_check(sphere.rc.chart, sphere.metric,
                                 samples=sphere.metric.chart.sample_points(rng, 5))
    assert rep.verdict and rep.max_residual < 1e-7
    eu = geometry.euclidean_metric(2)
    rep2 = invariant_metric_check(translations2.chart, eu,
                                  samples=rng.uniform(-1, 1, (5, 2)))
    assert rep2.verdict
    eu1 = SmoothField.constant(circle.cover.chart.base, np.eye(1))
    rep3 = invariant_metric_check(circle.cover.chart, eu1,
                                  samples=rng.uniform(-1, 1, (5, 1)))
    assert not rep3.verdict


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
             ([np.array([[math.exp(2 * math.pi)]])], 1e3), ([rng.normal(size=(3, 3))], 1e3)]
    for maps, bound in cases:
        rep = monodromy_compactness_probe(maps, norm_bound=bound)
        verdict, word, dev, nrm = _compactness_probe_by_word(maps, norm_bound=bound)
        assert (rep.verdict, rep.witness_word) == (verdict, word)
        # the deviation is |lambda| - 1, so its roundoff scales with |lambda|
        assert abs(rep.max_modulus_deviation - dev) <= 1e-12 * (1.0 + dev)
        assert abs(rep.max_word_norm - nrm) <= 1e-12 * nrm


def test_escape_bound_constant_field():
    chart = Chart((-np.inf,) * 2, (np.inf,) * 2)
    V = lambda m: np.array([2.0, 0.0], dtype=object)
    sig = SmoothField.constant(chart, np.eye(2))
    eb = escape_bound(V, sig, chart, [0.0, 0.0], 1.0)
    assert abs(eb.T - 0.5) < 1e-12
    assert eb.verified


def test_escape_bound_counterexample_field():
    from cartanlab import dual
    chart = Chart((-np.inf,), (np.inf,))
    V = lambda m: np.array([dual.exp(-m[0])], dtype=object)
    sig = SmoothField.constant(chart, np.eye(1))
    eb = escape_bound(V, sig, chart, [0.0], 0.5)
    assert abs(eb.T - 0.5 / math.e) < 1e-12
    assert eb.verified


def test_escape_bound_integration_cross_check(rng):
    chart = Chart((-np.inf,) * 2, (np.inf,) * 2)
    A = np.array([[0.0, 1.5], [-1.5, 0.0]])
    V = lambda m: A.astype(object) @ as_point(m)
    sig = SmoothField.constant(chart, np.eye(2))
    eb = escape_bound(V, sig, chart, [1.0, 0.0], 0.4)
    assert eb.T > 0 and eb.verified


def test_escape_bound_zero_field():
    chart = Chart((-np.inf,), (np.inf,))
    V = lambda m: np.array([0.0], dtype=object)
    sig = SmoothField.constant(chart, np.eye(1))
    eb = escape_bound(V, sig, chart, [0.0], 1.0)
    assert eb.T == np.inf


def test_gpath_csv_table(circle, tmp_path):
    res = geodesic(circle.cover.chart, [0.0], [1.0], span=(0.0, 1.0))
    rows = res.path.to_table()
    assert all(len(r) == 3 for r in rows)
    assert rows[0][0] == 0.0
    out = tmp_path / "trace.csv"
    res.path.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,m0,X0"
    assert len(lines) == len(rows) + 1


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
    assert np.isnan(rep.max_residual) and not rep.verdict
