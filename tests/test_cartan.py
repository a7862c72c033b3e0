import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cartanlab import algebra, algebroid, cartan, dual, geometry, models
from cartanlab.cartan import (cocurvature, curvature_conn, check_morphism,
                              fiber_bracket_at, is_cartan, is_flat,
                              nabla_bar_g, nabla_bar_tm, torsion_bar)
from cartanlab.dual import value
from cartanlab.geometry import Chart, as_point


def V(x):
    return value(np.asarray(x, dtype=object))


def test_nabla_bar_tm_trivial_on_translations(translations2):
    out = V(nabla_bar_tm(translations2.chart, [1.0, 0.0], [0.0, 1.0], [0.2, 0.3]))
    assert np.allclose(out, 0.0)


def test_nabla_bar_tm_so3_symbolic_oracle(so3_action):
    # constant section e3, field d/dx: bar derivative reduces to the
    # Jacobi-Lie bracket [m x e3, d/dx], oracle by hand differentiation
    m = np.array([1.0, 0.0, 0.0])
    out = V(nabla_bar_tm(so3_action.chart, np.eye(3)[2], np.eye(3)[0], m))
    # m x e3 = (y, -x, 0): D = [[0,1,0],[-1,0,0],[0,0,0]]; [V, e1] = -DV e1
    expected = -np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) @ np.eye(3)[0]
    assert np.allclose(out, expected, atol=1e-13)
    assert np.allclose(expected, [0.0, 1.0, 0.0])


def test_nabla_bar_tm_leibniz_in_x(so3_action):
    # scaling the section by f(m) changes the value through the conn term
    C = so3_action.chart
    m = as_point([0.4, -0.2, 0.7])
    f = lambda p: 1.0 + p[0] * p[1]
    X = lambda p: np.array([f(p), 0.0 * p[0], 0.0 * p[0]], dtype=object)
    base = V(nabla_bar_tm(C, np.eye(3)[0], np.eye(3)[1], m))
    scaled = V(nabla_bar_tm(C, X, np.eye(3)[1], m))
    # bar_{fX} V = f bar_X V - (V f) #X for the associated connection
    df = value(np.asarray(geometry.lie_bracket_vf(
        lambda p: np.array([0.0 * p[0], 1.0 + 0.0 * p[0], 0.0 * p[0]], dtype=object),
        lambda p: np.array([f(p), 0.0 * p[0], 0.0 * p[0]], dtype=object), m), dtype=object))
    anchor = value(np.asarray(C.anchor(m), dtype=object))
    fv = value(np.asarray(f(m), dtype=object) if hasattr(f(m), "dtype") else f(m))
    # direct check through the definition instead of the identity above:
    # bar_{fX} V = #conn(V, fX) + [#(fX), V]
    lhs = scaled
    conn_term = anchor @ V(C.conn(np.eye(3)[1], X, m))
    br_term = value(np.asarray(geometry.lie_bracket_vf(
        C.anchor_of(X), lambda p: np.array([0.0 * p[0], 1.0 + 0.0 * p[0], 0.0 * p[0]],
                                           dtype=object), m), dtype=object))
    assert np.max(np.abs(lhs - (conn_term + br_term))) < 1e-12


def test_nabla_bar_g_constant_sections_give_torsion(so3_action):
    m = [0.1, 0.5, -0.3]
    out = V(nabla_bar_g(so3_action.chart, np.eye(3)[0], np.eye(3)[1], m))
    assert np.allclose(out, [0.0, 0.0, 1.0], atol=1e-14)
    same = V(nabla_bar_g(so3_action.chart, np.eye(3)[1], np.eye(3)[1], m))
    assert np.allclose(same, 0.0)


def test_nabla_bar_g_abelian_zero(translations2):
    out = V(nabla_bar_g(translations2.chart, [1.0, 0.0], [0.0, 1.0], [0.9, 0.9]))
    assert np.allclose(out, 0.0)


def test_torsion_bar_equals_stored_field(so3_action, sphere, rng):
    for chart, box in ((so3_action.chart, so3_action.chart.base),
                       (sphere.rc.chart, sphere.metric.chart)):
        r = chart.rank
        for m in box.sample_points(rng, 3):
            T = value(np.asarray(chart.torsion(as_point(m)), dtype=object))
            for a in range(r):
                for b in range(a + 1, r):
                    got = V(torsion_bar(chart, np.eye(r)[a], np.eye(r)[b], m))
                    assert np.max(np.abs(got - T[:, a, b])) < 1e-8


def test_torsion_bar_rank_one_vanishes(circle):
    out = V(torsion_bar(circle.glued.charts[0], [1.0], [1.0], [0.5]))
    assert np.allclose(out, 0.0)


def test_cocurvature_zero_on_action_algebroids(translations2, so3_action, circle):
    for A, m in ((translations2, [0.3, 0.4]), (so3_action, [0.5, -0.1, 0.2]),
                 (circle.cover, [0.7])):
        C = A.chart
        r, n = C.rank, C.base.dim
        for a in range(r):
            for b in range(a + 1, r):
                for k in range(n):
                    out = V(cocurvature(C, np.eye(r)[a], np.eye(r)[b], np.eye(n)[k], m))
                    assert np.max(np.abs(out)) < 1e-14


def test_cocurvature_antisymmetric_and_multilinear(sphere, rng):
    C = sphere.rc.chart
    m = sphere.m0 + [0.1, 0.05]
    x = rng.uniform(-1, 1, 3)
    y = rng.uniform(-1, 1, 3)
    v = rng.uniform(-1, 1, 2)
    ab = V(cocurvature(C, x, y, v, m))
    ba = V(cocurvature(C, y, x, v, m))
    assert np.max(np.abs(ab + ba)) < 1e-9
    xx = V(cocurvature(C, x, x, v, m))
    assert np.max(np.abs(xx)) < 1e-9
    scaled = V(cocurvature(C, 2.0 * x, y, 3.0 * v, m))
    assert np.max(np.abs(scaled - 6.0 * ab)) < 1e-9


def test_cocurvature_perturbed_connection_fails(translations2):
    C = translations2.chart

    def gam(m):
        m = as_point(m)
        g = np.zeros((2, 2, 2), dtype=object)
        g[0, 0, 0] = 0.1 * m[1]
        return g

    pert = algebroid.AlgebroidChart(base=C.base, rank=2, anchor=C.anchor,
                                    gamma=gam, torsion=C.torsion)
    rep = is_cartan(pert, samples=20)
    assert not rep.verdict
    assert rep.max_residual >= 1e-3


def test_cocurvature_extension_independence_fd_oracle(so3_action):
    # tensoriality: replacing the constant extension of x by a varying
    # section with the same value at m must not change the cocurvature
    C = so3_action.chart
    m = as_point([0.3, 0.2, -0.4])
    x0 = np.array([0.5, -1.0, 0.25])
    base = V(cocurvature(C, x0, np.eye(3)[1], np.eye(3)[0], m))
    X_var = lambda p: np.array([0.5 + (p[0] - 0.3) * p[1],
                                -1.0 + (p[2] + 0.4) ** 2,
                                0.25 + 0.0 * p[0]], dtype=object)
    varied = V(cocurvature(C, X_var, np.eye(3)[1], np.eye(3)[0], m))
    assert np.max(np.abs(base - varied)) < 1e-10


def test_curvature_conn_flat_cases(translations2, sphere):
    out = V(curvature_conn(translations2.chart, [1, 0], [0, 1], [1.0, 0.0], [0.1, 0.1]))
    assert np.allclose(out, 0.0)
    m = sphere.m0 + [0.07, -0.12]
    for a in range(3):
        out = V(curvature_conn(sphere.rc.chart, [1, 0], [0, 1], np.eye(3)[a], m))
        assert np.max(np.abs(out)) < 1e-11


def test_curvature_conn_ellipsoid_nonzero(ellipsoid):
    m = [1.1, 0.3]
    worst = 0.0
    for a in range(3):
        out = V(curvature_conn(ellipsoid.rc.chart, [1, 0], [0, 1], np.eye(3)[a], m))
        worst = max(worst, float(np.max(np.abs(out))))
    assert worst > 1e-3


def test_curvature_conn_antisymmetry(sphere):
    m = sphere.m0 + [0.910 - sphere.m0[0], 0.3 - sphere.m0[1]]
    uv = V(curvature_conn(sphere.rc.chart, [1, 0], [0, 1], np.eye(3)[1], m))
    vu = V(curvature_conn(sphere.rc.chart, [0, 1], [1, 0], np.eye(3)[1], m))
    assert np.max(np.abs(uv + vu)) < 1e-12


def test_is_cartan_is_flat_verdicts(sphere, ellipsoid):
    assert is_cartan(sphere.rc.chart, samples=3).verdict
    assert is_flat(sphere.rc.chart, samples=10).verdict
    assert is_cartan(ellipsoid.rc.chart, samples=2).verdict
    assert not is_flat(ellipsoid.rc.chart, samples=10).verdict


def test_fiber_bracket_so3_exact(so3_action):
    fb = fiber_bracket_at(so3_action.chart, [0.4, 0.1, -0.2])
    assert np.max(np.abs(fb.structure_constants
                         - algebra.so3().structure_constants)) < 1e-9


def test_fiber_bracket_abelian(translations2):
    fb = fiber_bracket_at(translations2.chart, [0.0, 0.0])
    assert np.allclose(fb.structure_constants, 0.0)


def test_fiber_bracket_sphere_is_o3(sphere):
    fb = fiber_bracket_at(sphere.rc.chart, sphere.m0)
    c = fb.structure_constants
    # basis flip f3 -> -f3 carries the table onto the standard so(3) one
    S = np.diag([1.0, 1.0, -1.0])
    transformed = np.einsum("ia,jb,abk,kc->ijc", S, S, c, np.linalg.inv(S))
    assert np.max(np.abs(transformed - algebra.so3().structure_constants)) < 1e-9


def test_fiber_bracket_jacobi_guard():
    # [e1,e2] = e3, [e2,e3] = e2 violates Jacobi: reading the torsion at a
    # point must reject the table instead of minting a broken algebra
    chart3 = Chart((-1.0,) * 2, (1.0,) * 2)
    bad3 = np.zeros((3, 3, 3))
    bad3[0, 1, 2] = 1.0
    bad3[1, 0, 2] = -1.0
    bad3[1, 2, 1] = 1.0
    bad3[2, 1, 1] = -1.0
    tors = np.einsum("abc->cab", bad3)
    C = algebroid.AlgebroidChart(
        base=chart3, rank=3,
        anchor=np.zeros((2, 3)), gamma=np.zeros((2, 3, 3)), torsion=tors)
    with pytest.raises(algebra.AlgebraError):
        fiber_bracket_at(C, [0.0, 0.0])


def test_check_morphism_identity(so3_action, sphere, hyperbolic, circle, torus,
                                 translations2):
    charts = [so3_action.chart, sphere.rc.chart, hyperbolic.rc.chart,
              translations2.chart, circle.glued.charts[0], torus.glued.charts[0],
              circle.cover.chart]
    for chart in charts:
        rep = check_morphism(chart, chart, np.eye(chart.rank), lambda m: m,
                             samples=3)
        assert rep.verdict


def test_check_morphism_equivariant_pair(so3_action):
    # rotation R about z with fiber map Ad_R = R on the cross-product action
    R = algebra.exp_matrix(algebra.so3_realization(), [0, 0, 1], 0.7)
    rep = check_morphism(so3_action.chart, so3_action.chart, R,
                         lambda m: R.astype(object) @ as_point(m),
                         samples=np.random.default_rng(0).uniform(-1, 1, (5, 3)))
    assert rep.verdict


def test_check_morphism_non_automorphism_fails(so3_action):
    bad = np.diag([2.0, 1.0, 1.0])
    rep = check_morphism(so3_action.chart, so3_action.chart, bad, lambda m: m,
                         samples=np.random.default_rng(0).uniform(-1, 1, (3, 3)))
    assert not rep.verdict
    assert rep.details["torsion"] > 0.5


# -- the jet formulas against the closure definitions ------------------------

def cocurvature_by_definition(C, x, y, v, m):
    """c(x, y)v built from the section calculus on constant extensions."""
    m = as_point(m)
    X, Y, Vf = C.section(x), C.section(y), C.vector(v)
    nVX = lambda p: C.conn(Vf, X, as_point(p))
    nVY = lambda p: C.conn(Vf, Y, as_point(p))
    barXV = lambda p: (np.asarray(C.anchor(as_point(p)), dtype=object) @ nVX(p)
                       + geometry.lie_bracket_vf(C.anchor_of(X), Vf, as_point(p)))
    barYV = lambda p: (np.asarray(C.anchor(as_point(p)), dtype=object) @ nVY(p)
                       + geometry.lie_bracket_vf(C.anchor_of(Y), Vf, as_point(p)))
    return V(C.conn(Vf, C.bracket(X, Y), m) - C.bracket(nVX, Y)(m) - C.bracket(X, nVY)(m)
             + C.conn(barXV, Y, m) - C.conn(barYV, X, m))


def curvature_by_definition(C, u, v, x, m):
    """R(u, v)x = (d_u Gamma(v) - d_v Gamma(u) + [Gamma(u), Gamma(v)]) x."""
    m = as_point(m)
    g = V(C.gamma(m))
    dg = V(dual.jacobian(lambda p: np.asarray(C.gamma(as_point(p)), dtype=object), m))
    gu, gv = np.einsum("iab,i->ab", g, u), np.einsum("iab,i->ab", g, v)
    curl = np.einsum("jabi,i,j->ab", dg, u, v) - np.einsum("iabj,i,j->ab", dg, u, v)
    return (curl + gu @ gv - gv @ gu) @ x


def _poly(rng, shape, n):
    """Random quadratic polynomial field of the given output shape."""
    c0, c1 = rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape + (n,))
    c2 = rng.uniform(-0.5, 0.5, shape + (n, n))

    def fn(m):
        m = as_point(m)
        return c0 + np.einsum("...i,i->...", c1, m) + np.einsum("...ij,i,j->...", c2, m, m)
    return fn


def random_polynomial_chart(seed, n, r):
    rng = np.random.default_rng(seed)
    base = Chart((-1.0,) * n, (1.0,) * n)
    return algebroid.AlgebroidChart(base=base, rank=r, anchor=_poly(rng, (n, r), n),
                                    gamma=_poly(rng, (n, r, r), n),
                                    torsion=_poly(rng, (r, r, r), n))


def perturbed_translation_chart():
    C = models.translations_model(2).chart

    def gam(m):
        m = as_point(m)
        g = np.zeros((2, 2, 2), dtype=object)
        g[0, 0, 0] = 0.1 * m[1]
        g[1, 0, 1] = 0.3 * m[0] * m[1]
        return g
    return algebroid.AlgebroidChart(base=Chart((-1.0,) * 2, (1.0,) * 2), rank=2,
                                    anchor=C.anchor, gamma=gam, torsion=C.torsion)


@functools.cache
def named_chart(name):
    return {"sphere2": lambda: models.sphere2().rc.chart,
            "ellipsoid": lambda: models.ellipsoid2().rc.chart,
            "perturbed_translations": perturbed_translation_chart}[name]()


_JET_SETTINGS = settings(max_examples=12, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


def _compare_with_definitions(C, seed):
    """Jet and closure results on generic arguments; returns c(x, y)v."""
    rng = np.random.default_rng(seed)
    m = C.base.sample_points(rng, 1)[0]
    x, y = rng.uniform(-1, 1, (2, C.rank))
    v, w = rng.uniform(-1, 1, (2, C.base.dim))
    coc = V(cocurvature(C, x, y, v, m))
    assert np.max(np.abs(coc - cocurvature_by_definition(C, x, y, v, m))) <= 1e-10
    curv = V(curvature_conn(C, v, w, x, m))
    assert np.max(np.abs(curv - curvature_by_definition(C, v, w, x, m))) <= 1e-10
    return coc


@_JET_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), r=st.integers(2, 3))
def test_jet_formulas_match_definitions_on_polynomial_charts(seed, n, r):
    coc = _compare_with_definitions(random_polynomial_chart(seed, n, r), seed)
    assert np.max(np.abs(coc)) > 1e-6     # the cocurvature is not zero here


@_JET_SETTINGS
@given(name=st.sampled_from(["sphere2", "ellipsoid", "perturbed_translations"]),
       seed=st.integers(0, 2**32 - 1))
def test_jet_formulas_match_definitions_on_model_charts(name, seed):
    _compare_with_definitions(named_chart(name), seed)


def _chart_with_nan_gamma_at(point):
    """Rank-2 chart on the unit square whose gamma is NaN at one point."""
    base = Chart((-1.0, -1.0), (1.0, 1.0))

    def gam(m):
        out = np.zeros((2, 2, 2), dtype=object)
        if np.array_equal(value(np.asarray(m, dtype=object)), point):
            out[0, 0, 1] = float("nan")
        return out

    return algebroid.AlgebroidChart(base=base, rank=2, anchor=np.eye(2), gamma=gam,
                                     torsion=np.zeros((2, 2, 2)))


def test_a_nan_residual_at_the_second_sample_fails_the_check():
    pts = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]])
    C = _chart_with_nan_gamma_at(pts[1])
    rep = is_flat(C, samples=pts)
    assert np.isfinite(rep.per_point[0]) and np.isnan(rep.per_point[1])
    assert np.isnan(rep.max_residual)
    assert not rep.verdict


def test_a_nan_connection_residual_at_the_second_sample_fails_the_morphism(
        so3_action, monkeypatch):
    real, calls = cartan.intertwining_residuals, []

    def nan_after_first(*args):
        calls.append(args)
        anchor, conn, torsion = real(*args)
        return anchor, conn if len(calls) == 1 else math.nan, torsion
    monkeypatch.setattr(cartan, "intertwining_residuals", nan_after_first)
    rep = check_morphism(so3_action.chart, so3_action.chart, np.eye(3), lambda m: m, samples=3)
    assert len(calls) == 3 and math.isnan(rep.details["connection"])
    assert math.isnan(rep.max_residual) and not rep.verdict
