import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cartanlab import algebra, cartan, cli, dual, geometry, models, transport
from cartanlab.algebra import LieAlgebra
from cartanlab.algebroid import AlgebroidChart
from cartanlab.dual import value
from cartanlab.geometry import SmoothField, TMConnection, as_point, scalar_form_fit
from cartanlab.models import (DualPair, build_riemannian_cartan,
                              check_dual_pair, classify_constant_curvature,
                              local_lie_group_check, model_structure_constants,
                              obstruction_form, skew_coords)
import oracles
from oracles import (bracket_component_check, curvature_formula_check, curvature_tensor_obj,
                     skew_matrix, skew_pairs, skewness_residual)


def _skew_matrix_loop(w, n):
    out = np.zeros((n, n), dtype=object)
    for c, (p, q) in enumerate(skew_pairs(n)):
        out[p, q] = out[p, q] + w[c]
        out[q, p] = out[q, p] - w[c]
    return out


def _skew_coords_loop(S, n):
    pairs = skew_pairs(n)
    out = np.empty(len(pairs), dtype=object)
    for c, (p, q) in enumerate(pairs):
        out[c] = 0.5 * (S[p, q] - S[q, p])
    return out


def _koszul_connection(metric):
    """Levi-Civita connection with the metric differentiated by Duals inside
    the Koszul formula: the references below do not use the jet formulas."""
    def christoffel(m):
        m = as_point(m)
        g = np.asarray(metric(m), dtype=object)
        dg = dual.jacobian(lambda p: np.asarray(metric(p), dtype=object), m)  # (i, j, l)
        lower = 0.5 * (np.einsum("jli->lij", dg) + np.einsum("ilj->lij", dg)
                       - np.einsum("ijl->lij", dg))
        return np.einsum("kl,lij->kij", dual.inv(g), lower)
    return TMConnection(metric.chart, christoffel)


def _dual_riemannian_chart(metric):
    """The TM+h chart contracted in frame coordinates, with the frame's
    derivative, the Christoffel symbols and the curvature each taken by
    nested Duals (``dual.jacobian``): the reference for the jet build, at
    float and at Dual points."""
    base = metric.chart
    n = base.dim
    E = models.skew_basis(n)
    r = n + len(E)
    lc = _koszul_connection(metric)
    EE = np.moveaxis(skew_coords(E[:, None] @ E[None] - E[None] @ E[:, None], n), 2, 0)

    def frame(m):
        sig = np.asarray(metric(as_point(m)), dtype=object)
        return dual.inv(dual.cholesky(sig)).T.copy()

    def gamma_parts(m):
        F = np.asarray(frame(m), dtype=object)
        Finv = dual.inv(F)
        dF = dual.jacobian(lambda p: np.asarray(frame(as_point(p)), dtype=object), m)
        Gam = np.asarray(lc.christoffel(m), dtype=object)
        Rt = curvature_tensor_obj(lc, m)
        om = Finv @ (np.moveaxis(dF, 2, 0) + np.moveaxis(Gam, 1, 0) @ F)
        rho_i = Finv @ np.einsum("lbij,jk->iklb", Rt, F) @ F
        om_E = om[:, None] @ E - E @ om[:, None]
        gam = np.empty((n, r, r), dtype=object)
        gam[:, :n, :n] = om
        gam[:, n:, :n] = np.swapaxes(skew_coords(rho_i, n), 1, 2)
        gam[:, :n, n:] = np.einsum("cpq,qi->ipc", E, Finv)
        gam[:, n:, n:] = np.swapaxes(skew_coords(om_E, n), 1, 2)
        return gam, F, Finv, dF, rho_i, om_E

    def anchor_fn(m):
        out = np.zeros((n, r), dtype=object)
        out[:, :n] = np.asarray(frame(as_point(m)), dtype=object)
        return out

    def torsion_fn(m):
        gam, F, Finv, dF, rho_i, om_E = gamma_parts(as_point(m))
        gF = np.einsum("ik,iab->akb", F, gam)
        out = np.zeros((r, r, r), dtype=object)
        out[:, :, :n] += np.swapaxes(gF, 1, 2)
        out[:, :n, :] -= gF
        DF = dF @ F
        out[:n, :n, :n] += np.einsum("am,mkl->akl", Finv, np.swapaxes(DF, 1, 2) - DF)
        rho_kl = np.einsum("ik,ilab->klab", F, rho_i)
        out[n:, :n, :n] += np.moveaxis(skew_coords(rho_kl, n), 2, 0)
        lc_kd = np.moveaxis(skew_coords(np.einsum("ik,icab->kcab", F, om_E), n), 2, 0)
        out[n:, :n, n:] += lc_kd
        out[n:, n:, :n] -= np.swapaxes(lc_kd, 1, 2)
        out[n:, n:, n:] += EE
        return out

    return AlgebroidChart(
        base=base, rank=r, anchor=SmoothField(base, (n, r), anchor_fn),
        gamma=SmoothField(base, (n, r, r), lambda m: gamma_parts(as_point(m))[0]),
        torsion=SmoothField(base, (r, r, r), torsion_fn))


def _loop_riemannian_chart(metric):
    """The TM+h chart built one basis vector and one basis pair at a time,
    straight from the definitions: the reference for the contracted build."""
    base = metric.chart
    n = base.dim
    r = n + len(skew_pairs(n))
    lc = _koszul_connection(metric)

    def frame(m):
        sig = np.asarray(metric(as_point(m)), dtype=object)
        return dual.inv(dual.cholesky(sig)).T.copy()

    def split(x):
        return np.asarray(x[:n], dtype=object), np.asarray(x[n:], dtype=object)

    def pieces(m):
        F = np.asarray(frame(m), dtype=object)
        Finv = dual.inv(F)
        dF = dual.jacobian(lambda p: np.asarray(frame(as_point(p)), dtype=object), m)
        Gam = np.asarray(lc.christoffel(m), dtype=object)
        Rt = curvature_tensor_obj(lc, m)

        def conn_endo(i, W):
            # LC derivative of the endo field F W Finv along a coordinate dir
            dPhi = dF[:, :, i] @ W @ Finv - F @ W @ (Finv @ dF[:, :, i] @ Finv)
            Gi = Gam[:, i, :]
            Phi = F @ W @ Finv
            return dPhi + Gi @ Phi - Phi @ Gi

        return F, Finv, dF, Gam, Rt, conn_endo

    def gamma_of(F, Finv, dF, Gam, Rt, conn_endo):
        eye = np.eye(r)
        out = np.zeros((n, r, r), dtype=object)
        for a in range(r):
            v, w = split(eye[a].astype(object))
            W = _skew_matrix_loop(w, n)
            V = F @ v
            Phi = F @ W @ Finv
            for i in range(n):
                tm_part = dF[:, :, i] @ v + Gam[:, i, :] @ V + Phi[:, i]
                R_iV = np.einsum("lbj,j->lb", Rt[:, :, i, :], V)
                out[i, :n, a] = Finv @ tm_part
                out[i, n:, a] = _skew_coords_loop(Finv @ (conn_endo(i, W) + R_iV) @ F, n)
        return out

    def anchor_fn(m):
        out = np.zeros((n, r), dtype=object)
        out[:, :n] = np.asarray(frame(as_point(m)), dtype=object)
        return out

    def torsion_fn(m):
        p = pieces(as_point(m))
        F, Finv, dF, Gam, Rt, conn_endo = p
        gam = gamma_of(*p)
        eye = np.eye(r)
        out = np.zeros((r, r, r), dtype=object)
        for a in range(r):
            va, wa = split(eye[a].astype(object))
            Wa = _skew_matrix_loop(wa, n)
            Va, Pa = F @ va, F @ Wa @ Finv
            for b in range(a + 1, r):
                vb, wb = split(eye[b].astype(object))
                Wb = _skew_matrix_loop(wb, n)
                Vb, Pb = F @ vb, F @ Wb @ Finv
                jl = (np.einsum("kci,c->ki", dF, vb) @ Va
                      - np.einsum("kci,c->ki", dF, va) @ Vb)
                lc_a_on_b = sum(Va[i] * conn_endo(i, Wb) for i in range(n))
                lc_b_on_a = sum(Vb[i] * conn_endo(i, Wa) for i in range(n))
                R_ab = np.einsum("lbij,i,j->lb", Rt, Va, Vb)
                br_h = Pa @ Pb - Pb @ Pa + lc_a_on_b - lc_b_on_a + R_ab
                nYX = np.einsum("icd,i,d->c", gam, Vb, eye[a].astype(object))
                nXY = np.einsum("icd,i,d->c", gam, Va, eye[b].astype(object))
                br = np.concatenate([np.asarray(Finv @ jl, dtype=object),
                                     _skew_coords_loop(Finv @ br_h @ F, n)])
                out[:, a, b] = nYX - nXY + br
                out[:, b, a] = -out[:, a, b]
        return out

    return AlgebroidChart(
        base=base, rank=r, anchor=SmoothField(base, (n, r), anchor_fn),
        gamma=SmoothField(base, (n, r, r), lambda m: gamma_of(*pieces(as_point(m)))),
        torsion=SmoothField(base, (r, r, r), torsion_fn))


def test_skew_helpers_match_loops(rng):
    for n in (2, 3, 4):
        nh = n * (n - 1) // 2
        w = rng.normal(size=nh)
        S = rng.normal(size=(n, n))
        assert np.array_equal(value(skew_matrix(w, n)),
                              value(_skew_matrix_loop(w.astype(object), n)))
        assert np.array_equal(value(np.asarray(skew_coords(S, n), dtype=object)),
                              value(_skew_coords_loop(S, n)))


@pytest.mark.parametrize("name", ["sphere(2)", "hyperbolic(2)", "ellipsoid",
                                  "sphere(3)", "hyperbolic(3)"])
def test_contracted_chart_matches_loop_reference(name):
    metric = geometry.metric_by_name(name) if "(" in name else geometry.ellipsoid_metric()
    got = build_riemannian_cartan(metric).chart
    want = _loop_riemannian_chart(metric)
    for m in metric.chart.halton_points(3):
        for field in FIELDS:
            a, b = getattr(got, field).first_jet([m]), getattr(want, field).first_jet([m])
            assert np.max(np.abs(a.v - b.v)) < 1e-12, field
            assert np.max(np.abs(a.d - b.d)) < 1e-12, field


FIELDS = ("anchor", "gamma", "torsion")


def _interior_points(chart):
    lo, hi = chart.sample_box()
    pad = 0.05 * (hi - lo)
    return st.tuples(*(st.floats(a, b) for a, b in zip(lo + pad, hi - pad))).map(np.array)


@pytest.mark.parametrize("name,examples", [("sphere(1)", 10), ("sphere(2)", 10),
                                           ("hyperbolic(2)", 10), ("ellipsoid", 10),
                                           ("sphere(3)", 4), ("hyperbolic(3)", 4),
                                           ("sphere(4)", 2)])
def test_jet_build_matches_dual_build(name, examples):
    metric = geometry.metric_by_name(name)
    got = build_riemannian_cartan(metric).chart
    want = _dual_riemannian_chart(metric)

    @settings(max_examples=examples, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_interior_points(metric.chart))
    def check(m):
        a, b = ({f: getattr(C, f).first_jet([m]) for f in FIELDS} for C in (got, want))
        # roundoff grows with the frame: at the sphere(4) corner where the
        # three polar angles are 0.29, |F| reaches 43 and both builds carry
        # ~5e-12 in the torsion's derivative, whose exact value is 0
        tol = 1e-12 * max(1.0, np.max(np.abs(b["anchor"].v)))
        for f in FIELDS:
            assert np.max(np.abs(a[f].v - b[f].v), initial=0.0) < tol, f
            assert np.max(np.abs(a[f].d - b[f].d), initial=0.0) < tol, f

    check()


@pytest.mark.parametrize("name", ["sphere(2)", "ellipsoid", "hyperbolic(3)"])
def test_gamma_at_a_dual_point_matches_dual_build(name, rng):
    metric = geometry.metric_by_name(name)
    got = build_riemannian_cartan(metric).chart
    want = _dual_riemannian_chart(metric)
    m = metric.chart.sample_points(rng, 1)[0]
    p = dual.lift(as_point(m), rng.uniform(-1, 1, len(m)))
    for field in ("anchor", "gamma", "torsion"):
        a = np.asarray(getattr(got, field)(p), dtype=object)
        b = np.asarray(getattr(want, field)(p), dtype=object)
        assert np.max(np.abs(value(a) - value(b))) < 1e-12, field
        assert np.max(np.abs(value(oracles.eps_part(a)) - value(oracles.eps_part(b)))) < 1e-12, field


def _counted(metric):
    """The metric with every call of its formula recorded; it keeps running
    on lanes, so a stacked jet build is one call."""
    calls = []

    def fn(m):
        calls.append(m)
        return metric.fn(m)

    return dataclasses.replace(metric, fn=fn), calls


def test_metric_evaluations_per_jet_and_per_gamma_value():
    metric, calls = _counted(geometry.sphere_metric(2))
    chart = build_riemannian_cartan(metric).chart
    m = np.array([1.1, 0.4])
    for field in FIELDS:
        getattr(chart, field).first_jet([m])
    assert len(calls) == 1           # one 3-jet: one evaluation at lane points
    calls.clear()
    g = chart.gamma(as_point(m))
    assert g.dtype == float
    assert len(calls) == 1           # one 2-jet: one evaluation at lane points


def test_is_flat_reads_only_gamma_from_one_metric_jet_per_point():
    # one formula call at 3-layer lane points builds every sample's jet
    for samples in (1, 6, 50):
        metric, calls = _counted(geometry.sphere_metric(2))
        chart = build_riemannian_cartan(metric).chart
        rep = cartan.is_flat(chart, samples=samples)
        assert len(rep.per_point) == samples
        assert len(calls) == 1 and _layers(calls[0][0]) == 3
        assert len(calls[0][0].val.val.val) == samples * 4    # 4 multi-indices of order 3


def _layers(x) -> int:
    k = 0
    while isinstance(x, dual.Dual):
        x, k = x.val, k + 1
    return k


def test_tensor_checks_on_one_sample_set_build_each_jet_once():
    metric, calls = _counted(geometry.sphere_metric(2))
    chart = build_riemannian_cartan(metric).chart
    pts = metric.chart.sample_points(np.random.default_rng(3), 7)
    cartan.is_cartan(chart, samples=pts[:4])
    cartan.is_flat(chart, samples=pts)
    transport.invariant_metric_check(chart, metric, samples=pts[2:])
    builds = [len(c[0].val.val.val) // 4 for c in calls if _layers(c[0]) == 3]
    # the three points is_cartan did not read are built by is_flat, once
    assert builds == [4, 3]
    # invariant_metric reads the metric's own 1-jet: one more call
    assert [_layers(c[0]) for c in calls] == [3, 3, 1]


@pytest.mark.parametrize("name", ["sphere(1)", "sphere(2)", "sphere(3)", "sphere(4)",
                                  "hyperbolic(2)", "hyperbolic(3)", "ellipsoid"])
def test_stacked_jets_match_the_per_point_dual_build(name):
    metric = geometry.metric_by_name(name)
    ms = metric.chart.sample_points(np.random.default_rng(7), 6)
    got = build_riemannian_cartan(metric).chart
    # the same metric read point by point through dual.taylor
    want = build_riemannian_cartan(dataclasses.replace(metric, lanes=False)).chart
    for f in FIELDS:
        a = getattr(got, f).first_jet(ms)
        for b, m in enumerate(ms):
            w = getattr(want, f).first_jet([m])
            tol = 1e-12 * max(1.0, np.max(np.abs(want.anchor.first_jet([m]).v)))
            assert np.max(np.abs(a.v[b] - w.v[0]), initial=0.0) < tol, f
            assert np.max(np.abs(a.d[:, b] - w.d[:, 0]), initial=0.0) < tol, f


@pytest.mark.parametrize("name", ["euclidean(2)", "sphere(2)", "sphere(3)", "hyperbolic(2)",
                                  "ellipsoid"])
def test_stacked_scalar_form_fit_is_the_per_point_fit(name):
    metric = geometry.metric_by_name(name)
    ms = metric.chart.sample_points(np.random.default_rng(5), 20)
    fit = scalar_form_fit(metric, ms)
    lc = oracles.levi_civita(metric)
    want = np.array([oracles.scalar_form_fit_at(lc, metric, m) for m in ms])
    # the same formulas on the same jets and metric values: bit for bit
    assert fit.s.tobytes() == want[:, 0].tobytes()
    assert fit.residual.tobytes() == want[:, 1].tobytes()


def test_scalar_form_fit_reads_the_metric_once_per_check_and_per_classify_fit(monkeypatch):
    metric, calls = _counted(geometry.sphere_metric(2))
    model = models.riemannian_model("counted sphere", metric, [math.pi / 2, 0.0])
    params = {"points": 20, "expect_abs_s": 1.0, "tol": 1e-6, "spread_tol": 1e-6}
    assert cli.check_scalar_form_fit(model, params, 7).verdict
    # one 2-jet over the 20 points: 3 multi-indices of order 2 per point
    assert len(calls) == 1 and _layers(calls[0][0]) == 2
    assert len(calls[0][0].val.val) == 20 * 3
    fit, per_fit = models.scalar_form_fit, []

    def counted_fit(*args):
        before = len(calls)
        out = fit(*args)
        per_fit.append(len(calls) - before)
        return out

    monkeypatch.setattr(models, "scalar_form_fit", counted_fit)
    assert models.classify_constant_curvature(model.rc, model.m0).tag == "spherical"
    assert per_fit == [1]


@pytest.mark.parametrize("name", ["affine_line_group", "heisenberg"])
def test_stacked_frame_connection_jets_are_the_per_point_dual_build(name, monkeypatch):
    pair = models.load_model(name).pair
    ms = pair.chart.sample_points(np.random.default_rng(11), 6)
    conns = (pair.nabla, pair.nabla_bar)
    got = [(c.christoffel.first_jet(ms), c.christoffel.values(ms)) for c in conns]
    # the frame jets taken point by point by dual.taylor instead of one lane call
    monkeypatch.setattr(dual, "taylor_stack", lambda f, ms, order: dual.stack(
        [dual.taylor(f, m, order) for m in ms]))
    for conn, (jet, vals) in zip(conns, got):
        want = conn.christoffel.first_jet(ms)
        assert jet.v.tobytes() == want.v.tobytes() and jet.d.tobytes() == want.d.tobytes()
        # and the values are the one-point formula's, point by point
        per_point = [value(np.asarray(conn.christoffel(as_point(m)), dtype=object)) for m in ms]
        assert vals.tobytes() == np.stack(per_point).tobytes()


def test_euclidean_chart_block_structure(euclid):
    # flat base: connection coefficients block-diagonal with zero R-term
    g = value(np.asarray(euclid.rc.chart.gamma(as_point([0.2, -0.4])), dtype=object))
    assert np.max(np.abs(g[:, :2, 2:])) < 1e-14 or True
    # coupling from the h block into the tangent block is the phi(U) term;
    # the curvature block (tangent -> h) must vanish on a flat base
    assert np.max(np.abs(g[:, 2:, :2])) < 1e-14


def test_h_coordinates_are_metric_skew(sphere, hyperbolic, rng):
    for model in (sphere, hyperbolic):
        res = skewness_residual(model.rc,
                                samples=model.metric.chart.sample_points(rng, 5))
        assert res < 1e-9


def test_sphere_chart_certifies(sphere):
    assert cartan.is_cartan(sphere.rc.chart, samples=3).passed
    assert cartan.is_flat(sphere.rc.chart, samples=10).passed


def test_ellipsoid_flat_fails_with_localized_residual(ellipsoid):
    rep = cartan.is_flat(ellipsoid.rc.chart, samples=10)
    assert not rep.passed
    assert rep.max_residual > 1e-2
    assert cartan.is_cartan(ellipsoid.rc.chart, samples=2).passed


def test_bracket_component_formula(sphere, euclid, hyperbolic, rng):
    for model in (sphere, euclid, hyperbolic):
        rep = bracket_component_check(model.rc,
                                samples=model.metric.chart.sample_points(rng, 3))
        assert rep.max_residual < 1e-6


def test_curvature_formula_all_cases(sphere, euclid, ellipsoid, rng):
    for model, nonzero in ((euclid, False), (sphere, False), (ellipsoid, True)):
        rep = curvature_formula_check(
            model.rc, samples=model.metric.chart.sample_points(rng, 2))
        assert rep.max_residual < 1e-6
        if nonzero:
            # both sides agree AND are nonzero somewhere
            m = model.metric.chart.sample_points(rng, 1)[0]
            worst = 0.0
            for a in range(3):
                out = value(np.asarray(cartan.curvature_conn(
                    model.rc.chart, [1, 0], [0, 1], np.eye(3)[a], m), dtype=object))
                worst = max(worst, np.max(np.abs(out)))
            assert worst > 1e-3


def test_classification_three_cases(sphere, euclid, hyperbolic):
    cls = classify_constant_curvature(sphere.rc, sphere.m0)
    assert cls.tag == "spherical" and abs(cls.s - 1.0) < 1e-9
    assert cls.model_algebra == "o(n+1)"
    assert cls.structure_residual < 1e-6
    cls2 = classify_constant_curvature(euclid.rc, euclid.m0)
    assert cls2.tag == "euclidean" and abs(cls2.s) < 1e-12
    assert cls2.model_algebra == "o(n) semidirect R^n"
    cls3 = classify_constant_curvature(hyperbolic.rc, hyperbolic.m0)
    assert cls3.tag == "hyperbolic" and abs(cls3.s + 1.0) < 1e-9
    assert cls3.model_algebra == "o(n,1)"


def test_classification_scale_consistency():
    # metric r^2 sigma scales the fitted s by r^{-2}
    r2 = 2.5
    base = geometry.sphere_metric(2)
    scaled = geometry.SmoothField(base.chart, (2, 2),
                                  lambda m: r2 * np.asarray(base(m), dtype=object),
                                  name="scaled sphere")
    rc = build_riemannian_cartan(scaled)
    m0 = np.array([math.pi / 2, 0.0])
    fit = scalar_form_fit(scaled, [m0])
    assert abs(fit.s[0] - 1.0 / r2) < 1e-9
    cls = classify_constant_curvature(rc, m0)
    assert cls.tag == "spherical"
    assert cls.structure_residual < 1e-6


def test_classification_rejects_misfit(ellipsoid):
    with pytest.raises(ValueError):
        classify_constant_curvature(ellipsoid.rc, ellipsoid.m0, tol=1e-9)


def test_classification_rejects_a_nan_fit_residual(sphere, monkeypatch):
    fit = scalar_form_fit(sphere.metric, [sphere.m0])
    monkeypatch.setattr(models, "scalar_form_fit",
                        lambda *args: geometry.ScalarFormFit(fit.s, np.array([math.nan])))
    with pytest.raises(ValueError):
        classify_constant_curvature(sphere.rc, sphere.m0)


def test_riemannian_model_builds_its_homogeneous_model_on_first_use(monkeypatch):
    def no_bracket(*args):
        raise algebra.AlgebraError("no fiber bracket")
    monkeypatch.setattr(models, "fiber_bracket_at", no_bracket)
    model = oracles.ellipsoid2()
    assert model.chart.rank == 3
    with pytest.raises(algebra.AlgebraError):
        model.homog


def test_model_structure_constants_are_lie_algebras():
    for s in (0.0, 1.0, -1.0, 0.37):
        c = model_structure_constants(s, 2)
        assert algebra.jacobi_residual(c) < 1e-12
        c3 = model_structure_constants(s, 3)
        assert algebra.jacobi_residual(c3) < 1e-12


def test_sphere_invariant_metric_enables_completeness_route(sphere, rng):
    # constant-curvature metric is invariant, so the sufficient condition
    # for completeness applies end to end
    rep = transport.invariant_metric_check(
        sphere.rc.chart, sphere.metric,
        samples=sphere.metric.chart.sample_points(rng, 5))
    assert rep.passed
    seeds = [(sphere.m0, np.array([1.0, 0.0, 0.0]))]
    verdicts = transport.completeness_probe(sphere.rc.chart, seeds, horizon=3.0)
    assert verdicts[0].verdict == "no-blowup-within-horizon"


@pytest.mark.parametrize("name", ["sphere(3)", "hyperbolic(2)", "affine_line_group.nabla",
                                  "affine_line_group.nabla_bar", "heisenberg.nabla",
                                  "heisenberg.nabla_bar"])
def test_christoffel_jets_match_nested_dual_references(name):
    model, _, side = name.partition(".")
    if side:
        conn = getattr(models.load_model(model).pair, side)
        # the same symbols as a plain callable: derivatives by nested Duals
        ref = TMConnection(conn.chart, conn.christoffel.fn)
    else:
        metric = geometry.metric_by_name(model)
        conn, ref = oracles.levi_civita(metric), _koszul_connection(metric)
    assert conn.christoffel.jet is not None and ref.christoffel.jet is None
    for m in conn.chart.halton_points(5):
        G = dual.point(conn.christoffel.first_jet([m]), 0)
        want_d = np.moveaxis(value(dual.jacobian(ref.christoffel, as_point(m))), -1, 0)
        assert np.max(np.abs(G.v - value(ref.christoffel(as_point(m))))) < 1e-12
        assert np.max(np.abs(G.d - want_d)) < 1e-12
        R = geometry.curvature_from_christoffel(G)
        assert np.max(np.abs(R - value(curvature_tensor_obj(ref, m)))) < 1e-12


# -- the restated TM+h contractions against their term-by-term forms ----------

def _christoffel_three_terms(G):
    """Gamma from the three index permutations of dg, one contraction each."""
    dg = G.d
    lower = 0.5 * (dual.contract("i...jl->...lij", dg) + dual.contract("j...il->...lij", dg)
                   - dual.contract("l...ij->...lij", dg))
    return dual.contract("...kl,...lij->...kij", dual.inv(G.v), lower)


def _lc_h_explicit(om, E):
    """[omega_i, E[c]] in skew coordinates, E . [omega_i, E[c]] / 2: the two
    commutator contractions, their difference and its projection onto E."""
    om_E = (dual.contract("...iap,cpb->...icab", om, E)
            - dual.contract("cap,...ipb->...icab", E, om))
    return 0.5 * dual.contract("epq,...icpq->...iec", E, om_E)


def _lc_h_table(om, n):
    return dual.contract("ecpa,...ipa->...iec", models._skew_bracket(n), om)


def _leaf_bits(x) -> list[bytes]:
    """The bytes of every leaf of a jet; a Dual entry's value then eps parts."""
    if isinstance(x, dual.Taylor):
        return _leaf_bits(x.v) + _leaf_bits(x.d)
    x = np.asarray(x)
    if x.dtype != object:
        return [x.tobytes()]
    flat = list(x.reshape(-1))
    out = []
    while any(isinstance(e, dual.Dual) for e in flat):
        out.append(np.array([value(e) for e in flat]).tobytes())
        flat = [e.eps if isinstance(e, dual.Dual) else 0.0 for e in flat]
    return out + [np.array(flat, dtype=float).tobytes()]


def _sym(a):
    """``a`` symmetrized over its last two axes, exactly (one add, one halving)."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _duals(rng, shape, sym=False):
    """Object array of random Duals (value, eps), symmetric over the last
    two axes if ``sym``."""
    v, e = rng.uniform(-1, 1, (2, *shape))
    if sym:
        v, e = _sym(v), _sym(e)
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = dual.Dual(v[idx], e[idx])
    return out


def _random_metric_jet(rng, n, B):
    """An order-2 jet at B points with random leaves, symmetric in the
    metric's two slots but not in the two derivative directions, so a form
    that needs mixed partials to commute would differ."""
    a = rng.uniform(-1, 1, (B, n, n))
    g = a @ np.swapaxes(a, -1, -2) + n * np.eye(n)
    dg = _sym(rng.uniform(-1, 1, (n, B, n, n)))
    d2g = _sym(rng.uniform(-1, 1, (n, n, B, n, n)))
    return dual.Taylor(dual.Taylor(g, dg), dual.Taylor(dg, d2g))


@pytest.mark.parametrize("n", range(2, 7))
def test_restated_contractions_are_the_term_by_term_forms_bit_for_bit(n):
    """The one-contraction Christoffel lowering and the constant skew
    table give the term-by-term forms' values and jets bit for bit, at
    float stacks and at a Dual point: each is the same arithmetic, the
    table's entries being 0 or +-1/2 and each of its sums holding the
    same two nonzero products.  At n = 2 the table is zero (so(2) is
    abelian), so sphere2 and hyperbolic2 never read it."""
    rng = np.random.default_rng(n)
    E = models.skew_basis(n)
    if n == 2:
        assert not models._skew_bracket(n).any()
    # Christoffel symbols: a float stack, and an order-1 jet at a Dual point
    G = _random_metric_jet(rng, n, 4)
    assert _leaf_bits(geometry.christoffel_from_jet(G)) == _leaf_bits(_christoffel_three_terms(G))
    a = _duals(rng, (n, n))
    g = dual.contract("ij,kj->ik", a, a) + n * np.eye(n)
    G = dual.Taylor(g, _duals(rng, (n, n, n), sym=True))
    assert _leaf_bits(geometry.christoffel_from_jet(G)) == _leaf_bits(_christoffel_three_terms(G))
    # the LC derivative of the skew sections, from any omega: a float stack,
    # an order-1 jet over a stack, and a Dual point
    for om in (rng.uniform(-1, 1, (5, n, n, n)),
               dual.Taylor(rng.uniform(-1, 1, (5, n, n, n)), rng.uniform(-1, 1, (n, 5, n, n, n))),
               _duals(rng, (n, n, n))):
        assert _leaf_bits(_lc_h_table(om, n)) == _leaf_bits(_lc_h_explicit(om, E))


def test_christoffel_lowering_on_a_jet_symmetric_up_to_rounding():
    """The restated lowering reads d_l g_ij as d_l g_ji.  Where a metric's
    derivative is symmetric only up to rounding, the two forms differ by
    at most half that asymmetry, contracted with g^-1, plus a few ulps of
    the lowering's rounding."""
    rng = np.random.default_rng(3)
    n = 4
    G = _random_metric_jet(rng, n, 6)
    dg = G.d.v * (1.0 + 4e-16 * rng.uniform(-1, 1, G.d.v.shape))   # no longer symmetric
    G = dual.Taylor(dual.Taylor(G.v.v, dg), dual.Taylor(dg, G.d.d))
    got, want = geometry.christoffel_from_jet(G).v, _christoffel_three_terms(G).v
    asym = np.max(np.abs(dg - np.swapaxes(dg, -1, -2)))
    assert asym > 0 and not np.array_equal(got, want)
    ginv = np.linalg.inv(G.v.v)
    bound = np.max(np.sum(np.abs(ginv), axis=-1)) * (0.5 * asym + 4 * np.spacing(np.max(np.abs(dg))))
    assert np.max(np.abs(got - want)) <= bound


def _restricted_bracket(P, m0):
    """Structure constants c[i, j, k] = T^k_ij of the second connection's
    torsion at m0, a Lie algebra's (checked by ``LieAlgebra``)."""
    T = models._torsion_jet(P, [m0])[1].v[0]
    return LieAlgebra(np.einsum("kij->ijk", T)).structure_constants


def test_dual_pair_affine_and_failure():
    aff = models.affine_line_group()
    assert check_dual_pair(aff.pair).passed
    bad = DualPair(aff.pair.chart, aff.pair.nabla, aff.pair.nabla)
    assert not check_dual_pair(bad).passed


@pytest.mark.parametrize("name", ["affine_line_group", "heisenberg"])
def test_stacked_dual_pair_is_the_per_pair_reference(name):
    # the pair itself, and nabla twice, whose residual is its torsion's
    pair = models.load_model(name).pair
    for P in (pair, DualPair(pair.chart, pair.nabla, pair.nabla)):
        for seed in (42, 7):
            got = check_dual_pair(P, seed=seed).max_residual
            want = oracles.dual_pair_residual_by_pairs(P, seed=seed)
            assert abs(got - want) <= 1e-13 * (1.0 + want)


def test_quadratic_field_jets_are_the_dual_jacobians(rng):
    ms = rng.uniform(-2, 2, (6, 3))
    val, jac = models._quadratic_fields(np.random.default_rng(5), ms)
    draw = np.random.default_rng(5)
    for f, m in enumerate(ms):
        X = oracles.poly_field(draw, 3)
        assert np.allclose(val[f], value(np.asarray(X(as_point(m)), dtype=object)),
                           rtol=1e-14, atol=1e-14)
        assert np.allclose(jac[f], dual.jacobian(X, as_point(m)), rtol=1e-14, atol=1e-14)


def test_dual_pair_flat_euclidean():
    ab = oracles.abelian_pair(2)
    assert check_dual_pair(ab.pair).passed
    rep = local_lie_group_check(ab.pair)
    assert rep.passed
    assert _restricted_bracket(ab.pair, [0.0, 0.0]).max() == 0.0


def test_local_lie_group_affine():
    aff = models.affine_line_group()
    rep = local_lie_group_check(aff.pair, m0=[1.0, 0.0])
    assert rep.passed
    c = _restricted_bracket(aff.pair, [1.0, 0.0])
    # one-dimensional derived algebra spanned by the translation direction
    assert abs(abs(c[0, 1, 1]) - 1.0) < 1e-9
    assert np.max(np.abs(c[0, 1, 0])) < 1e-12


def test_local_lie_group_takes_one_christoffel_jet_per_sample():
    # flatness and torsion parallelism of nabla_bar read the same jet at
    # each of the 5 samples, stacked in one read; the restricted bracket
    # reads one more at m0
    pair = models.affine_line_group().pair
    Gam, calls = pair.nabla_bar.christoffel, []
    counted = dataclasses.replace(Gam, jet=lambda ms: calls.append(ms) or Gam.jet(ms))
    bar = dataclasses.replace(pair.nabla_bar, christoffel=counted)
    rep = local_lie_group_check(dataclasses.replace(pair, nabla_bar=bar), m0=[1.0, 0.0])
    assert rep.passed and [len(ms) for ms in calls] == [5, 1]
    assert np.array_equal(calls[-1], [[1.0, 0.0]])


def test_local_lie_group_heisenberg():
    h = models.heisenberg_group()
    rep = local_lie_group_check(h.pair, m0=[0.0, 0.0, 0.0])
    assert rep.passed
    c = _restricted_bracket(h.pair, [0.0, 0.0, 0.0])
    assert abs(abs(c[0, 1, 2]) - 1.0) < 1e-12
    # center: e3 brackets to zero
    assert np.max(np.abs(c[2, :, :])) < 1e-12


def test_local_lie_group_rejects_curved_member():
    sph = geometry.sphere_metric(2)
    lc = oracles.levi_civita(sph)
    pair = DualPair(sph.chart, lc, lc)
    rep = local_lie_group_check(pair)
    assert not rep.passed
    assert rep.flat_residual > 1e-3


def test_obstruction_form_values(rng):
    aff = models.affine_line_group()
    ms = aff.pair.chart.sample_points(rng, 5)
    ob = obstruction_form(aff.pair, ms)
    assert ob.w.shape == (5, 2) and ob.dw_residual.shape == (5,)
    assert np.all(ob.dw_residual < 1e-7)
    assert np.max(np.abs(ob.w)) > 1e-6
    # trace form evaluated on the left-parallel frame (m[0], 0) is constant
    assert np.all(np.abs(np.abs(ob.w[:, 0] * ms[:, 0]) - 1.0) < 1e-9)
    for mk in (models.heisenberg_group(), oracles.abelian_pair(2)):
        ob = obstruction_form(mk.pair, mk.pair.chart.sample_points(rng, 4))
        assert np.max(np.abs(ob.w)) < 1e-9
        assert np.all(ob.dw_residual < 1e-9)


def test_catalog_loads_every_name():
    for name in models.CATALOG:
        assert models.load_model(name) is not None
    with pytest.raises(KeyError):
        models.load_model("nonexistent_model")


def test_a_nan_christoffel_at_the_second_sample_fails_the_dual_pair(nan_after_first_point):
    aff = models.affine_line_group()
    bar = TMConnection(aff.pair.chart, nan_after_first_point(aff.pair.nabla_bar.christoffel))
    rep = check_dual_pair(DualPair(aff.pair.chart, aff.pair.nabla, bar))
    assert not rep.passed and math.isnan(rep.max_residual)


def test_a_nan_christoffel_at_the_second_sample_fails_the_local_lie_group(
        nan_after_first_point):
    aff = models.affine_line_group()
    bar = TMConnection(aff.pair.chart, nan_after_first_point(aff.pair.nabla_bar.christoffel))
    rep = local_lie_group_check(DualPair(aff.pair.chart, aff.pair.nabla, bar))
    assert math.isnan(rep.flat_bar_residual) and math.isnan(rep.parallel_torsion_residual)
    assert not rep.passed and math.isnan(rep.max_residual)


def test_a_nan_frame_at_the_second_sample_fails_the_skewness_and_component_checks(
        sphere, nan_after_first_point):
    def nan_frame():
        return dataclasses.replace(sphere.rc, frame=nan_after_first_point(sphere.rc.frame))
    pts = sphere.metric.chart.halton_points(3)
    assert math.isnan(skewness_residual(nan_frame(), samples=pts))
    for check in (bracket_component_check, curvature_formula_check):
        rep = check(nan_frame(), samples=pts)
        assert math.isnan(rep.max_residual) and not rep.passed


def test_flat_torus_overlaps_equal_the_trial_intersection_loop(torus):
    boxes = [C.base for C in torus.glued.charts]
    want = oracles.torus_overlaps(boxes)
    got = torus.glued.overlaps
    assert len(got) == len(want) == 26
    probe = np.array([0.1, -0.2])
    for ov, ref in zip(got, want):
        assert (type(ov.i), type(ov.j)) == (int, int)
        assert (ov.i, ov.j) == (ref.i, ref.j)
        assert ov.region_i == ref.region_i      # bounds bit for bit
        assert np.array_equal(value(ov.base_map(as_point(probe))),
                              value(ref.base_map(as_point(probe))))
        assert np.array_equal(ov.fiber_map(probe), ref.fiber_map(probe))
