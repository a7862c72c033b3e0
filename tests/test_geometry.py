import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab import dual
from cartanlab.dual import Dual, value
from cartanlab.geometry import (INTERIOR_MARGIN, Chart, GeometryError, SmoothField, as_point,
                                curvature_from_christoffel, euclidean_metric,
                                hyperbolic_metric, lie_bracket_vf, metric_by_name,
                                scalar_form_fit, sphere_metric)
from oracles import covariant_vec, fd_jacobian, flat_connection, levi_civita


def _curvature(conn, m, U, V, W):
    """R(U, V)W at m for constant U, V, W: the curvature tensor contracted."""
    R = curvature_from_christoffel(conn.christoffel.first_jet([m]))[0]
    return np.einsum("lkij,i,j,k->l", R,
                     *(np.asarray(X, dtype=float) for X in (U, V, W)))


def test_chart_validation():
    with pytest.raises(GeometryError):
        Chart((0.0,), (0.0,))
    c = Chart((-1.0, 0.0), (1.0, np.inf))
    assert c.dim == 2
    assert c.contains([0.0, 5.0])
    assert not c.contains([2.0, 1.0])


def test_a_point_at_infinity_is_never_inside_a_chart(circle):
    cover = circle.cover.chart.base
    assert cover.lower == (-np.inf,) and cover.upper == (np.inf,)
    for x in (np.inf, -np.inf, np.nan):
        assert not cover.contains([x])
        assert not cover.contains([x], margin=-1.0)
        with pytest.raises(GeometryError, match="outside chart interior"):
            cover.require_interior([x])
    assert cover.contains([1e300])
    half = Chart((-1.0, 0.0), (1.0, np.inf))
    assert list(half.contains([[0.0, 5.0], [0.0, np.inf], [np.nan, 1.0], [0.0, 0.0]])) == [
        True, False, False, False]


@pytest.mark.parametrize("m", [[0.5], [0.0, 1.0, 2.0], [[0.5], [0.2]], [[0.0, 1.0, 2.0]], 0.5],
                         ids=["short-point", "long-point", "short-stack", "long-stack", "scalar"])
def test_box_tests_refuse_a_point_of_another_length(m):
    box = Chart((-1.0, 0.0), (1.0, 3.0))
    got = np.shape(m)[-1] if np.ndim(m) else 0
    for read in (box.contains, box.require_interior, box.boundary_distance):
        with pytest.raises(GeometryError, match=f"has 2 coordinates, not {got}"):
            read(m)
    assert box.contains([0.5, 1.0]) and box.boundary_distance([[0.5, 1.0]]).shape == (1,)


@st.composite
def _boxes_and_stacks(draw):
    """A box with some infinite ends, a margin, and a stack whose
    coordinates include each axis's exact ends lower + margin and
    upper - margin, points just past them, NaN and +-inf."""
    n = draw(st.integers(1, 3))
    lower, upper = [], []
    for _ in range(n):
        a, b = sorted(draw(st.lists(st.floats(-4, 4), min_size=2, max_size=2, unique=True)))
        lower.append(-np.inf if draw(st.booleans()) else a)
        upper.append(np.inf if draw(st.booleans()) else b)
    margin = draw(st.sampled_from([INTERIOR_MARGIN, 0.0, 0.25, -1e-3]))
    axes = [[lo + margin, hi - margin, np.nextafter(lo + margin, -np.inf),
             np.nextafter(hi - margin, np.inf), np.nan, np.inf, -np.inf,
             draw(st.floats(-6, 6))] for lo, hi in zip(lower, upper)]
    stack = np.array([[draw(st.sampled_from(c)) for c in axes]
                      for _ in range(draw(st.integers(1, 8)))])
    return Chart(tuple(lower), tuple(upper)), margin, stack


@settings(max_examples=200, deadline=None)
@given(case=_boxes_and_stacks())
def test_stacked_box_tests_equal_the_per_point_reading(case):
    chart, margin, stack = case
    with np.errstate(invalid="ignore"):     # inf - inf reads NaN
        inside = chart.contains(stack, margin)
        dist = chart.boundary_distance(stack)
        assert inside.shape == dist.shape == (len(stack),)
        for i, p in enumerate(stack):
            assert inside[i] == chart.contains(p, margin)
            np.testing.assert_array_equal(dist[i], chart.boundary_distance(p))
            if np.all(np.isfinite(p)):
                # the per-coordinate rule, as it reads on finite points
                assert inside[i] == all(lo + margin <= x <= hi - margin
                                        for x, lo, hi in zip(p, chart.lower, chart.upper))
            else:
                assert not inside[i] and not dist[i] > -np.inf
    default = chart.contains(stack)
    if default.all():
        chart.require_interior(stack)
    else:
        first = stack[np.argmin(default)]
        with pytest.raises(GeometryError) as err:
            chart.require_interior(stack)
        assert str(err.value) == f"point {first} outside chart interior"


def test_box_tests_read_dual_points_by_their_values():
    c = Chart((-1.0, 0.0), (1.0, np.inf))
    m = np.array([[Dual(0.5, 1.0), Dual(2.0, 0.0)], [Dual(1.0, 1.0), Dual(2.0, 0.0)]])
    assert list(c.contains(m)) == [True, False]
    assert list(c.boundary_distance(m)) == [0.5, 0.0]
    assert c.contains(m[0]) and c.boundary_distance(m[0]) == 0.5


@pytest.mark.parametrize("lower,upper", [
    ((2.64,), (6.78,)),                         # finite, beyond the clip
    ((-9.0, 5.0), (-4.0, np.inf)),              # half-infinite beyond it
    ((-np.inf, -1.0), (-7.0, 1.0)),
    ((-np.inf, 0.3), (np.inf, np.pi - 0.3)),
])
def test_sample_and_halton_points_lie_in_the_chart(lower, upper):
    c = Chart(lower, upper)
    lo, hi = c.sample_box()
    assert np.all(lo < hi)
    pts = np.vstack([c.sample_points(np.random.default_rng(0), 20), c.halton_points(20)])
    assert all(c.contains(p) for p in pts)
    # finite bounds are kept as they are
    assert all(a == x for a, x in zip(lower + upper, [*lo, *hi]) if np.isfinite(a))


def test_lie_bracket_constant_fields_commute():
    V = lambda m: np.array([1.0, 0.0], dtype=object)
    W = lambda m: np.array([0.0, 1.0], dtype=object)
    out = value(np.asarray(lie_bracket_vf(V, W, [0.3, 0.4]), dtype=object))
    assert np.allclose(out, 0.0)


def test_lie_bracket_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    Vs = sympy.Matrix([0, x])       # x d/dy
    Ws = sympy.Matrix([y, 0])       # y d/dx
    Js_v = Vs.jacobian([x, y])
    Js_w = Ws.jacobian([x, y])
    br = Js_w * Vs - Js_v * Ws
    expected = np.array(br.subs({x: 1.0, y: 1.0}), dtype=float).ravel()
    V = lambda m: np.array([0.0 * m[0], m[0]], dtype=object)
    W = lambda m: np.array([m[1], 0.0 * m[0]], dtype=object)
    got = value(np.asarray(lie_bracket_vf(V, W, [1.0, 1.0]), dtype=object))
    assert np.allclose(got, expected, atol=1e-13)
    assert np.allclose(expected, [1.0, -1.0])


def test_lie_bracket_antisymmetry_self():
    V = lambda m: np.array([m[0] * m[1], dual.sin(m[0])], dtype=object)
    out = value(np.asarray(lie_bracket_vf(V, V, [0.5, 0.8]), dtype=object))
    assert np.allclose(out, 0.0)


def test_levi_civita_euclidean_vanishes():
    eu = euclidean_metric(2)
    lc = levi_civita(eu)
    G = value(np.asarray(lc.christoffel(as_point([0.3, -0.7])), dtype=object))
    assert np.allclose(G, 0.0)


def test_levi_civita_sphere_closed_form():
    sph = sphere_metric(2)
    lc = levi_civita(sph)
    th = math.pi / 4
    G = value(np.asarray(lc.christoffel(as_point([th, 0.3])), dtype=object))
    assert abs(G[0, 1, 1] - (-math.sin(th) * math.cos(th))) < 1e-12
    assert abs(G[0, 1, 1] + 0.5) < 1e-12
    assert abs(G[1, 0, 1] - 1.0 / math.tan(th)) < 1e-12


def test_levi_civita_hyperbolic_closed_form():
    hyp = hyperbolic_metric(2)
    lc = levi_civita(hyp)
    yv = 1.7
    G = value(np.asarray(lc.christoffel(as_point([0.2, yv])), dtype=object))
    assert abs(G[0, 0, 1] - (-1.0 / yv)) < 1e-12
    assert abs(G[1, 0, 0] - (1.0 / yv)) < 1e-12
    assert abs(G[1, 1, 1] - (-1.0 / yv)) < 1e-12


def test_levi_civita_symmetry_and_compatibility(rng):
    sph = sphere_metric(2)
    lc = levi_civita(sph)
    for m in sph.chart.sample_points(rng, 100):
        m = as_point(m)
        G = value(np.asarray(lc.christoffel(m), dtype=object))
        assert np.allclose(G, np.swapaxes(G, 1, 2), atol=1e-14)
        # metric compatibility: d_k g_ij = G^l_ki g_lj + G^l_kj g_il
        dg = value(dual.jacobian(lambda p: np.asarray(sph(p), dtype=object), m))
        g = value(np.asarray(sph(m), dtype=object))
        lhs = np.einsum("ijk->kij", dg)
        rhs = np.einsum("lki,lj->kij", G, g) + np.einsum("lkj,il->kij", G, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_levi_civita_rejects_non_spd():
    chart = Chart((-1.0,) * 2, (1.0,) * 2)
    bad = SmoothField.constant(chart, np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(GeometryError):
        levi_civita(bad).christoffel(as_point([0.0, 0.0]))


def test_curvature_flat_connection_zero():
    conn = flat_connection(Chart((-1.0,) * 2, (1.0,) * 2))
    out = value(np.asarray(_curvature(conn, [0.1, 0.2], [1, 0], [0, 1], [1, 0]),
                           dtype=object))
    assert np.allclose(out, 0.0)


def test_curvature_antisymmetry_in_uv():
    sph = sphere_metric(2)
    lc = levi_civita(sph)
    m = [1.0, 0.2]
    a = value(np.asarray(_curvature(lc, m, [1, 0], [0, 1], [0, 1]), dtype=object))
    b = value(np.asarray(_curvature(lc, m, [0, 1], [1, 0], [0, 1]), dtype=object))
    assert np.allclose(a, -b, atol=1e-13)
    c = value(np.asarray(_curvature(lc, m, [1, 0], [1, 0], [0, 1]), dtype=object))
    assert np.allclose(c, 0.0, atol=1e-13)


def test_curvature_is_tensorial_in_w():
    # replacing W by f W at m scales the output by f(m); checked against
    # the definition R(U,V)W = nabla_U nabla_V W - nabla_V nabla_U W for
    # constant U, V (which commute) and a genuinely varying W-field
    sph = sphere_metric(2)
    lc = levi_civita(sph)
    m = as_point([0.9, -0.4])
    U = lambda p: np.array([1.0 + 0.0 * p[0], 0.0 * p[0]], dtype=object)
    V = lambda p: np.array([0.0 * p[0], 1.0 + 0.0 * p[0]], dtype=object)
    w0 = np.array([0.3, 0.7])
    f = lambda p: 1.0 + p[0] * p[1]

    def nested(Wfield):
        dVW = lambda p: covariant_vec(lc, V, Wfield, as_point(p))
        dUW = lambda p: covariant_vec(lc, U, Wfield, as_point(p))
        return (value(np.asarray(covariant_vec(lc, U, dVW, m), dtype=object))
                - value(np.asarray(covariant_vec(lc, V, dUW, m), dtype=object)))

    base = value(np.asarray(_curvature(lc, m, [1, 0], [0, 1], w0), dtype=object))
    # definitional route on the constant extension agrees with the
    # Christoffel-derivative formula
    assert np.max(np.abs(nested(lambda p: w0.astype(object)) - base)) < 1e-10
    # scaling by a varying function acts through its value at m only
    Wf = lambda p: f(p) * w0.astype(object)
    fv = float(value(np.asarray(f(m), dtype=object)))
    assert np.max(np.abs(nested(Wf) - fv * base)) < 1e-9


def test_curvature_matches_finite_difference_oracle():
    sph = sphere_metric(2)
    lc = levi_civita(sph)
    m = np.array([1.1, 0.5])
    U, V, W = np.eye(2)[0], np.eye(2)[1], np.array([0.4, -0.2])
    got = value(np.asarray(_curvature(lc, m, U, V, W), dtype=object))
    # FD oracle: R = dG_i/dx contracted, rebuilt from finite differences
    def christ(p):
        return value(np.asarray(lc.christoffel(as_point(p)), dtype=object))
    dG = np.stack([(christ(m + h) - christ(m - h)) / (2e-6)
                   for h in (np.array([1e-6, 0]), np.array([0, 1e-6]))], axis=-1)
    G = christ(m)
    term = np.einsum("kjbi,i,j,b->k", dG, U, V, W) - np.einsum("kibj,i,j,b->k", dG, U, V, W)
    quad = (np.einsum("kim,mjb,i,j,b->k", G, G, U, V, W)
            - np.einsum("kjm,mib,i,j,b->k", G, G, U, V, W))
    assert np.max(np.abs(got - (term + quad))) < 1e-6


def test_scalar_form_fit_signs_and_constancy(rng):
    cases = {"euclidean": (euclidean_metric(2), 0.0),
             "sphere": (sphere_metric(2), 1.0),
             "hyperbolic": (hyperbolic_metric(2), -1.0)}
    for name, (metric, s_expect) in cases.items():
        fit = scalar_form_fit(metric, metric.chart.sample_points(rng, 20))
        assert np.all(fit.residual < 1e-6)
        svals = fit.s
        assert max(svals) - min(svals) < 1e-6, name
        assert abs(np.mean(svals) - s_expect) < 1e-6, name


def test_metric_catalog_names():
    assert metric_by_name("euclidean(3)").shape == (3, 3)
    assert metric_by_name("sphere(2)").name == "sphere(2)"
    assert metric_by_name("hyperbolic(2)").name == "hyperbolic(2)"
    with pytest.raises(GeometryError):
        metric_by_name("torus(2)")


def test_fd_jacobian_cross_checks_dual_jacobian():
    f = lambda m: np.array([m[0] ** 2 + m[1], dual.exp(m[0]) * m[1]], dtype=object)
    m = np.array([0.4, -0.9])
    exact = value(dual.jacobian(f, m))
    approx = fd_jacobian(lambda p: value(np.asarray(f(as_point(p)), dtype=object)), m)
    assert np.max(np.abs(exact - approx)) < 1e-8


def test_a_lane_formula_of_the_wrong_shape_is_refused():
    # at order 0 the lane coordinates are float arrays, so np.array([...])
    # stacks them into an extra lane axis instead of one entry each
    chart = Chart((-1.0, -1.0), (1.0, 1.0))
    f = SmoothField(chart, (2,), lambda m: np.array([2 * m[0], m[0] * m[1]], dtype=object),
                    name="pair", lanes=True)
    pts = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]])
    with pytest.raises(ValueError, match=r"pair returned shape \(2, 3\) on lane points, "
                                         r"expected \(2,\)"):
        f.values(pts)
    # at order 1 the coordinates are Duals and the same formula is read right
    jet = f.first_jet(pts)
    assert np.array_equal(jet.v, np.stack([2 * pts[:, 0], pts[:, 0] * pts[:, 1]], axis=1))
