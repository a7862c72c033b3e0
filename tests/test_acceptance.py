"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with pytest -s to see them all)."""

import math

import numpy as np

from cartanlab import (algebra, algebroid, cartan, development, geometry,
                       models, transport)
from cartanlab.geometry import SmoothField, as_point
from cartanlab.transport import line_path
import oracles
from oracles import polyline_path, reverse, then

E2PI = math.exp(2 * math.pi)


def _report(num, passed, detail):
    word = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {num:2d}: {word} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_counterexample_monodromy(circle):
    M = transport.monodromy(circle.glued, circle.loops[0])
    rel = abs(M.matrix[0, 0] - E2PI) / E2PI
    _report(1, rel <= 1e-6,
            f"generator loop monodromy {M.matrix[0, 0]:.10f} vs e^(2 pi), "
            f"rel err {rel:.2e} (tol 1e-6)")


def test_criterion_02_counterexample_incompleteness(circle):
    back = transport.geodesic(circle.cover.chart, [0.0], [1.0], span=(0.0, -2.0))
    fwd = transport.geodesic(circle.cover.chart, [0.0], [1.0], span=(0.0, 100.0))
    ok = (back.certified_incomplete and abs(back.t_end - (-1.0)) <= 1e-3
          and fwd.status == "completed")
    _report(2, ok,
            f"backward blow-up at t*={back.t_end:.6f} (|t*+1| <= 1e-3), "
            f"forward reached T=100 without blow-up")


def test_criterion_03_cartan_certification(circle, so3_action, translations2):
    worst = 0.0
    for A in (translations2, so3_action, circle.cover):
        rep = cartan.is_cartan(A.chart, samples=50, tol=1e-7)
        worst = max(worst, rep.max_residual)
        assert rep.passed
    gamma0 = translations2.chart.gamma

    def perturbed(m):
        m = as_point(m)
        g = np.zeros((2, 2, 2), dtype=object)
        g[0, 0, 0] = 0.1 * m[1]
        return g

    bad = algebroid.AlgebroidChart(base=translations2.chart.base, rank=2,
                                   anchor=translations2.chart.anchor,
                                   gamma=perturbed,
                                   torsion=translations2.chart.torsion)
    bad_rep = cartan.is_cartan(bad, samples=50, tol=1e-7)
    ok = worst <= 1e-7 and bad_rep.max_residual >= 1e-3
    _report(3, ok,
            f"cocurvature <= {worst:.2e} at 50 points on three action "
            f"algebroids; perturbed connection fails at {bad_rep.max_residual:.2e}")


def test_criterion_04_fiber_bracket(circle, torus, sphere, hyperbolic, euclid,
                                    so3_action, translations2):
    fb = cartan.fiber_bracket_at(so3_action.chart, [0.4, 0.1, -0.2])
    exact = np.max(np.abs(fb.structure_constants - oracles.so3().structure_constants))
    worst_jacobi = 0.0
    extractions = [
        (so3_action.chart, [0.4, 0.1, -0.2]),
        (translations2.chart, [0.0, 0.0]),
        (circle.cover.chart, [0.3]),
        (circle.glued.charts[0], [0.5]),
        (torus.glued.charts[0], [0.0, 0.0]),
        (sphere.rc.chart, sphere.m0),
        (hyperbolic.rc.chart, hyperbolic.m0),
        (euclid.rc.chart, euclid.m0),
    ]
    for chart, m0 in extractions:
        out = cartan.fiber_bracket_at(chart, m0, jacobi_tol=1e-6)
        worst_jacobi = max(worst_jacobi,
                           algebra.jacobi_residual(out.structure_constants))
    ok = exact <= 1e-9 and worst_jacobi <= 1e-6
    _report(4, ok,
            f"so(3) table reproduced to {exact:.1e} (tol 1e-9); Jacobi residual "
            f"<= {worst_jacobi:.2e} over {len(extractions)} extractions (tol 1e-6)")


def test_criterion_05_monodromy_automorphism_law(circle, torus):
    worst_auto = 0.0
    loop = circle.loops[0]
    mats = {}
    for name, glued, lp in (("circle", circle.glued, loop),
                            ("circle2", circle.glued, then(loop, loop)),
                            ("circle-rev", circle.glued, reverse(loop)),
                            ("torus-x", torus.glued, torus.loops[0]),
                            ("torus-y", torus.glued, torus.loops[1])):
        M = transport.monodromy(glued, lp)
        mats[name] = M.matrix
        worst_auto = max(worst_auto,
                         algebra.is_automorphism(M.source, M, tol=1e-6).max_residual)
    mult = np.max(np.abs(mats["circle2"] - mats["circle"] @ mats["circle"]))
    mult_rel = mult / np.max(np.abs(mats["circle2"]))
    inv = np.max(np.abs(mats["circle-rev"] @ mats["circle"] - np.eye(1)))
    ok = worst_auto <= 1e-6 and mult_rel <= 1e-7 and inv <= 1e-7
    _report(5, ok,
            f"automorphism residual <= {worst_auto:.2e} (tol 1e-6); "
            f"concatenation residual {mult_rel:.2e}, inverse {inv:.2e} (tol 1e-7)")


def test_criterion_06_riemannian_pipeline(sphere, euclid, hyperbolic, ellipsoid, rng):
    svals = geometry.scalar_form_fit(sphere.metric,
                                     sphere.metric.chart.sample_points(rng, 20)).s
    s_ok = abs(abs(np.mean(svals)) - 1.0) <= 1e-6 and max(svals) - min(svals) <= 1e-6
    flats = {name: cartan.is_flat(model.rc.chart, samples=50).passed
             for name, model in (("sphere", sphere), ("euclidean", euclid),
                                 ("hyperbolic", hyperbolic))}
    ell_flat = cartan.is_flat(ellipsoid.rc.chart, samples=20)
    tags = {}
    worst_struct = 0.0
    for model, want in ((sphere, "spherical"), (euclid, "euclidean"),
                        (hyperbolic, "hyperbolic")):
        cls = models.classify_constant_curvature(model.rc, model.m0, tol=1e-6)
        tags[want] = cls.tag == want
        worst_struct = max(worst_struct, cls.structure_residual)
    ok = (s_ok and all(flats.values()) and not ell_flat.passed
          and all(tags.values()) and worst_struct <= 1e-6)
    _report(6, ok,
            f"sphere |s|=1 constant over 20 pts; flat: {flats}; ellipsoid flat "
            f"residual {ell_flat.max_residual:.2e} (fails); tags matched with "
            f"structure residual <= {worst_struct:.2e}")


def test_criterion_07_development(circle, torus, sphere, rng):
    # 10 homotopic path pairs per bundled development model
    worst_pi = 0.0
    cases = []
    for k in range(10):
        th = 0.4 + 0.1 * k
        mid = rng.uniform(0.1, 0.9) * th
        cases.append((circle.cover, circle.homog,
                      line_path([0.0], [th]),
                      polyline_path([[0.0], [mid], [th]]), 1e-12))
    for k in range(10):
        end = rng.uniform(-0.4, 0.4, 2)
        mid = rng.uniform(-0.4, 0.4, 2)
        cases.append((torus.cover, torus.homog,
                      line_path([0.0, 0.0], end),
                      polyline_path([[0.0, 0.0], mid, end]), 1e-12))
    m0 = sphere.m0
    for k in range(10):
        end = m0 + rng.uniform(-0.28, 0.28, 2)
        mid = m0 + rng.uniform(-0.28, 0.28, 2)
        cases.append((sphere.rc.chart, sphere.homog,
                      line_path(m0, end),
                      polyline_path([m0, mid, end]), 1e-9))
    for A, H, p1, p2, rtol in cases:
        worst_pi = max(worst_pi,
                       development.path_independence_check(A, H, p1, p2, rtol=rtol))
    # Jacobians bounded away from zero
    min_det = np.inf
    for A, H, m0_, pts in (
            (circle.cover, circle.homog, [0.0],
             [[0.5], [-0.3], [1.2]]),
            (torus.cover, torus.homog, [0.0, 0.0],
             [[0.3, -0.2], [-0.4, 0.1]]),
            (sphere.rc.chart, sphere.homog, sphere.m0,
             [sphere.m0 + [0.15, -0.1], sphere.m0 + [-0.12, 0.2]])):
        for p in pts:
            J = development.development_jacobian(A, H, m0_, p, rtol=1e-10)
            min_det = min(min_det, abs(float(np.linalg.det(J))))
    # equivariance diagrams
    cx_pts = rng.uniform(-0.5, 1.5, (6, 1))
    rep_cx = development.equivariance_diagram_check(
        circle.cover, circle.homog, circle.decks[0], [0.0], cx_pts, tol=1e-5)
    to_pts = rng.uniform(-0.4, 0.4, (6, 2))
    rep_to = development.equivariance_diagram_check(
        torus.cover, torus.homog, torus.decks[0], [0.0, 0.0], to_pts, tol=1e-5)
    # composition law
    comp_res = 0.0
    H = circle.homog
    q1 = development.develop_point(circle.cover, H, line_path([0.0], [2 * math.pi]))
    aff1 = development.induced_affine_map(circle.decks[0], H, q1)
    deck2 = circle.decks[0].compose(circle.decks[0])
    q2 = development.develop_point(circle.cover, H, line_path([0.0], [4 * math.pi]))
    aff2 = development.induced_affine_map(deck2, H, q2)
    for x in (-0.2, 0.6):
        c = development.develop_point(circle.cover, H, line_path([0.0], [x]))
        comp_res = max(comp_res, development.coset_residual(aff2(c), aff1.compose(aff1)(c)))
    tq1 = development.develop_point(torus.cover, torus.homog, line_path([0.0, 0.0], [1.0, 0.0]))
    taff = development.induced_affine_map(torus.decks[0], torus.homog, tq1)
    tq2 = development.develop_point(torus.cover, torus.homog, line_path([0.0, 0.0], [2.0, 0.0]))
    taff2 = development.induced_affine_map(
        torus.decks[0].compose(torus.decks[0]), torus.homog, tq2)
    c = development.develop_point(torus.cover, torus.homog, line_path([0.0, 0.0], [0.3, 0.2]))
    comp_res = max(comp_res,
                   development.coset_residual(taff2(c), taff.compose(taff)(c)))
    ok = (worst_pi <= 1e-5 and min_det >= 1e-6
          and rep_cx.passed and rep_to.passed and comp_res <= 1e-6)
    _report(7, ok,
            f"path independence <= {worst_pi:.2e} over 30 pairs (tol 1e-5); "
            f"min |det J| = {min_det:.3f} (>= 1e-6); diagrams "
            f"{rep_cx.max_residual:.2e}/{rep_to.max_residual:.2e} (tol 1e-5); "
            f"composition residual {comp_res:.2e} (tol 1e-6)")


def test_criterion_08_reconstruction(circle, torus):
    atlas_c = development.reconstruct_atlas(circle.glued, circle.homog,
                                            circle.atlas_spec)
    mults = [float(np.max(np.abs(t.affine_matrix))) for t in atlas_c.transitions]
    twisted = max(mults)
    rel = abs(twisted - E2PI) / E2PI
    atlas_t = development.reconstruct_atlas(torus.glued, torus.homog,
                                            torus.atlas_spec)
    twist_dev = max(np.max(np.abs(t.affine_matrix - np.eye(2)))
                    for t in atlas_t.transitions)
    ok = (atlas_c.passed and rel <= 1e-6 and atlas_t.passed and twist_dev <= 1e-8)
    _report(8, ok,
            f"circle transition multiplier {twisted:.6f} vs e^(2 pi), rel err "
            f"{rel:.2e} (tol 1e-6); torus twist deviation {twist_dev:.2e} (tol 1e-8)")


def test_criterion_09_local_lie_groups(rng):
    aff = models.affine_line_group()
    rep = models.local_lie_group_check(aff.pair, tol=1e-7, m0=[1.0, 0.0])
    ob = models.obstruction_form(aff.pair, aff.pair.chart.sample_points(rng, 5))
    dw_worst = float(np.max(ob.dw_residual))
    w_nonzero = np.max(np.abs(ob.w)) > 1e-6
    zero_worst = 0.0
    for mk in (models.heisenberg_group(), oracles.abelian_pair(2)):
        zrep = models.local_lie_group_check(mk.pair, tol=1e-7)
        assert zrep.passed
        ob = models.obstruction_form(mk.pair, mk.pair.chart.sample_points(rng, 4))
        zero_worst = max(zero_worst, float(np.max(np.abs(ob.w))))
    ok = rep.passed and w_nonzero and dw_worst <= 1e-7 and zero_worst <= 1e-9
    _report(9, ok,
            f"affine pair flat+parallel-torsion pass; w nonzero with dw <= "
            f"{dw_worst:.2e} (tol 1e-7); nilpotent/abelian max|w| = "
            f"{zero_worst:.2e} (tol 1e-9)")


def test_criterion_10_sufficient_condition_checkers(circle, sphere, hyperbolic,
                                                    euclid, rng):
    worst = 0.0
    for model in (sphere, hyperbolic, euclid):
        rep = transport.invariant_metric_check(
            model.rc.chart, model.metric,
            samples=model.metric.chart.sample_points(rng, 8), tol=1e-7)
        worst = max(worst, rep.max_residual)
        assert rep.passed
    eu1 = SmoothField.constant(circle.cover.chart.base, np.eye(1))
    bad = transport.invariant_metric_check(circle.cover.chart, eu1,
                                           samples=rng.uniform(-1, 1, (5, 1)))
    M = transport.monodromy(circle.glued, circle.loops[0])
    probe = transport.monodromy_compactness_probe([M])
    ok = (worst <= 1e-7 and not bad.passed
          and probe.verdict == "unbounded" and probe.witness_word is not None
          and len(probe.witness_word) == 1)
    _report(10, ok,
            f"invariant metric residual <= {worst:.2e} on constant-curvature "
            f"models (tol 1e-7), fails on the scaling model "
            f"({bad.max_residual:.2e}); compactness probe unbounded with "
            f"witness length 1")
