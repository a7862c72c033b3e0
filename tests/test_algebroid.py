import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cartanlab import algebra, algebroid, dual, models
from cartanlab.algebroid import (AffineCocycleEntry, AlgebroidError,
                                 check_anchor_homomorphism, check_cocycle,
                                 check_overlap_compatibility, infinitesimalize,
                                 make_action_algebroid)
from cartanlab.development import bracket_orientation
from cartanlab.dual import value
from cartanlab.geometry import Chart, as_point
import oracles
from oracles import reverse


def test_translations_anchor_identity(translations2):
    a = value(np.asarray(translations2.chart.anchor(as_point([0.3, 0.5])), dtype=object))
    assert np.allclose(a, np.eye(2))
    t = value(np.asarray(translations2.chart.torsion(as_point([0.3, 0.5])), dtype=object))
    assert np.allclose(t, 0.0)


def test_so3_anchor_is_skew_of_point(so3_action):
    m = np.array([0.7, -0.3, 1.1])
    a = value(np.asarray(so3_action.chart.anchor(as_point(m)), dtype=object))
    # columns are m x e_i, i.e. the hat matrix of m
    hat = np.array([[0.0, -m[2], m[1]], [m[2], 0.0, -m[0]], [-m[1], m[0], 0.0]])
    assert np.allclose(a, hat, atol=1e-14)
    # torsion equals the so(3) bracket table
    t = value(np.asarray(so3_action.chart.torsion(as_point(m)), dtype=object))
    c = oracles.so3().structure_constants
    assert np.allclose(np.einsum("cab->abc", t), c)


def test_counterexample_anchor(circle):
    th = 0.8
    a = value(np.asarray(circle.cover.chart.anchor(as_point([th])), dtype=object))
    assert abs(a[0, 0] - math.exp(-th)) < 1e-14


# An action algebroid's anchor is its action on the basis, so the action is
# a bracket homomorphism exactly when the anchor is.

def test_action_homomorphism_translations(translations2):
    rep = check_anchor_homomorphism(translations2.chart, 1e-10, sign=1)
    assert rep.passed and rep.max_residual == 0.0


def test_action_homomorphism_so3_sign_resolution(so3_action):
    assert bracket_orientation(so3_action.chart) == 1
    rep = check_anchor_homomorphism(so3_action.chart, sign=1)
    assert rep.passed and rep.max_residual < 1e-8
    # the mirrored cross product resolves to the opposite flag
    mirrored = make_action_algebroid(
        so3_action.algebra,
        lambda xi, m: -np.asarray(oracles.so3_cross_action(xi, m), dtype=object),
        so3_action.chart.base)
    assert bracket_orientation(mirrored.chart) == -1
    assert check_anchor_homomorphism(mirrored.chart, sign=-1).passed


def test_action_homomorphism_failure_case():
    # e1 -> x d/dx, e2 -> d/dx on an abelian algebra: fields do not commute
    g0 = algebra.abelian(2)

    def act(xi, m):
        return np.array([xi[0] * m[0] + xi[1]], dtype=object)

    A = make_action_algebroid(g0, act, Chart((-2.0,), (2.0,)))
    plus = check_anchor_homomorphism(A.chart, 1e-8, sign=1)
    minus = check_anchor_homomorphism(A.chart, 1e-8, sign=-1)
    assert not plus.passed and not minus.passed


def test_section_bracket_constant_sections_equal_tau(so3_action):
    m = [0.2, 0.4, -0.6]
    out = value(np.asarray(
        so3_action.chart.bracket(np.eye(3)[0], np.eye(3)[1])(m), dtype=object))
    assert np.allclose(out, [0.0, 0.0, 1.0], atol=1e-14)


def test_section_bracket_self_is_zero(so3_action):
    X = lambda m: np.array([m[0], 1.0 + 0.0 * m[0], m[2] ** 2], dtype=object)
    out = value(np.asarray(
        so3_action.chart.bracket(X, X)([0.5, 0.1, 0.9]), dtype=object))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_section_bracket_antisymmetry_exact(so3_action, sphere):
    X = lambda m: np.array([m[0], 1.0 + 0.0 * m[0], m[2] * m[1]], dtype=object)
    Y = lambda m: np.array([0.2 + 0.0 * m[0], m[1], m[0] ** 2], dtype=object)
    m = [0.5, 0.1, 0.9]
    xy = value(np.asarray(so3_action.chart.bracket(X, Y)(m), dtype=object))
    yx = value(np.asarray(so3_action.chart.bracket(Y, X)(m), dtype=object))
    assert np.array_equal(xy, -yx)
    m2 = sphere.m0 + [0.05, 0.1]
    a = value(np.asarray(sphere.rc.chart.bracket(np.eye(3)[0], np.eye(3)[2])(m2), dtype=object))
    b = value(np.asarray(sphere.rc.chart.bracket(np.eye(3)[2], np.eye(3)[0])(m2), dtype=object))
    assert np.max(np.abs(a + b)) < 1e-14


def test_section_bracket_leibniz_oracle(translations2):
    # [fY, Y] = -(#Y f) Y for scalar f; oracle by direct expansion
    C = translations2.chart
    Y = lambda m: np.array([1.0 + 0.0 * m[0], m[0]], dtype=object)
    f = lambda m: m[0] * m[1]
    fY = lambda m: np.array([f(m), f(m) * m[0]], dtype=object)
    m = np.array([0.7, -0.2])
    got = value(np.asarray(C.bracket(fY, Y)(m), dtype=object))
    # #Y f along the anchor (identity): directional derivative of f along Y
    anchor_y = value(np.asarray(C.anchor(as_point(m)), dtype=object)) @ \
        value(np.asarray(Y(as_point(m)), dtype=object))
    df = value(oracles.directional(lambda p: f(p), as_point(m), anchor_y))
    expected = -df * value(np.asarray(Y(as_point(m)), dtype=object))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_section_bracket_jacobi_property(so3_action, rng):
    C = so3_action.chart

    def poly_section(seed):
        r = np.random.default_rng(seed)
        A = r.uniform(-0.5, 0.5, (3, 3))
        b = r.uniform(-0.5, 0.5, 3)

        def fn(m):
            m = as_point(m)
            return A.astype(object) @ m + b
        return fn

    X, Y, Z = poly_section(1), poly_section(2), poly_section(3)
    m = as_point([0.4, -0.2, 0.3])
    xy = C.bracket(X, Y)
    yz = C.bracket(Y, Z)
    zx = C.bracket(Z, X)
    total = (value(np.asarray(C.bracket(xy, Z)(m), dtype=object))
             + value(np.asarray(C.bracket(yz, X)(m), dtype=object))
             + value(np.asarray(C.bracket(zx, Y)(m), dtype=object)))
    assert np.max(np.abs(total)) < 1e-6


def test_anchor_homomorphism_signs(so3_action, translations2):
    assert check_anchor_homomorphism(so3_action.chart, sign=1).passed
    assert not check_anchor_homomorphism(so3_action.chart, sign=-1).passed
    assert check_anchor_homomorphism(translations2.chart, sign=1).passed


def test_perturbed_torsion_fails_anchor_check(translations2):
    C = translations2.chart

    def bad_torsion(m):
        t = np.zeros((2, 2, 2), dtype=object)
        t[0, 0, 1] = 0.3
        t[0, 1, 0] = -0.3
        return t

    bad = algebroid.AlgebroidChart(base=C.base, rank=2, anchor=C.anchor,
                                   gamma=C.gamma, torsion=bad_torsion)
    assert not check_anchor_homomorphism(bad, sign=1).passed


def test_torsion_antisymmetrized_exactly(so3_action, rng):
    t = np.asarray(so3_action.chart.torsion(as_point([0.1, 0.2, 0.3])), dtype=object)
    tv = value(t)
    assert np.array_equal(tv, -np.swapaxes(tv, 1, 2))


def test_cocycle_identity_and_translation_composition():
    eye = AffineCocycleEntry.identity(2, 2)
    entries = {(0, 0): eye, (1, 1): eye,
               (0, 1): AffineCocycleEntry(np.eye(2), np.array([1.0, 0.0]), np.eye(2)),
               (1, 2): AffineCocycleEntry(np.eye(2), np.array([0.0, 1.0]), np.eye(2)),
               (0, 2): AffineCocycleEntry(np.eye(2), np.array([1.0, 1.0]), np.eye(2))}
    rep = check_cocycle(entries)
    assert rep.passed


def test_cocycle_composition_ordering_with_scalings():
    # affine legs: 0->1 doubles, 1->2 triples with offset; 0->2 must be the
    # true composite (apply 0->1 first)
    s2 = AffineCocycleEntry(2 * np.eye(1), np.array([1.0]), np.eye(1))
    s3 = AffineCocycleEntry(3 * np.eye(1), np.array([0.5]), np.eye(1))
    good = AffineCocycleEntry(6 * np.eye(1), np.array([3.5]), np.eye(1))
    assert check_cocycle({(0, 1): s2, (1, 2): s3, (0, 2): good}).passed
    wrong_order = AffineCocycleEntry(6 * np.eye(1), np.array([2.0]), np.eye(1))
    assert not check_cocycle({(0, 1): s2, (1, 2): s3, (0, 2): wrong_order}).passed


def test_cocycle_perturbed_fails():
    entries = {(0, 1): AffineCocycleEntry(np.eye(1), np.array([1.0]), np.eye(1)),
               (1, 2): AffineCocycleEntry(np.eye(1), np.array([1.0]), np.eye(1)),
               (0, 2): AffineCocycleEntry(np.eye(1), np.array([2.01]), np.eye(1))}
    rep = check_cocycle(entries)
    assert not rep.passed
    assert abs(rep.composition_residual - 0.01) < 1e-12


def test_infinitesimalize_single_chart_trivial():
    g0 = algebra.abelian(2)
    G = infinitesimalize(g0, lambda xi, m: np.asarray(xi, dtype=object),
                         [Chart((-1.0,) * 2, (1.0,) * 2)], {})
    assert len(G.charts) == 1 and len(G.overlaps) == 0
    a = value(np.asarray(G.charts[0].anchor(as_point([0.1, 0.1])), dtype=object))
    assert np.allclose(a, np.eye(2))


def test_infinitesimalize_torus_translation_cocycle():
    # circle of circumference 1 from two intervals; wrap transition is a
    # unit translation and all fiber maps stay the identity
    g0 = algebra.abelian(1)
    charts = [Chart((-0.3,), (0.8,)), Chart((0.2,), (1.3,))]
    entries = {(0, 1): AffineCocycleEntry(np.eye(1), np.array([0.0]), np.eye(1)),
               (1, 0): AffineCocycleEntry(np.eye(1), np.array([-1.0]), np.eye(1))}
    G = infinitesimalize(g0, lambda xi, m: np.asarray(xi, dtype=object), charts, entries)
    assert len(G.overlaps) == 2
    assert check_overlap_compatibility(G, tol=1e-9).passed
    for ov in G.overlaps:
        mid = [(ov.region_i.lower[0] + ov.region_i.upper[0]) / 2]
        mu = value(np.asarray(ov.fiber_map(as_point(mid)), dtype=object))
        assert np.allclose(mu, np.eye(1))


def test_infinitesimalize_circle_from_three_arcs():
    # quotient circle in cover coordinates: three arcs, two identity seams
    # and a wrap seam shifting by 2 pi; compatibility forces the wrap twist
    # to the scaling e^{-2 pi} in the 2->0 direction
    from cartanlab.transport import BasePath, line_segment, monodromy
    g0 = algebra.abelian(1)
    mu = math.exp(2 * math.pi)
    two_pi = 2 * math.pi
    charts = [Chart((-0.2,), (2.3,)), Chart((1.9,), (4.4,)), Chart((4.0,), (two_pi + 0.2,))]
    entries = {
        (0, 1): AffineCocycleEntry.identity(1, 1),
        (1, 2): AffineCocycleEntry.identity(1, 1),
        (2, 0): AffineCocycleEntry(np.eye(1), np.array([-two_pi]),
                                   np.array([[1.0 / mu]])),
    }
    G = infinitesimalize(g0, models.scaling_action, charts, entries)
    assert check_overlap_compatibility(G, tol=1e-7).passed
    # positively oriented generator loop: transport picks up 1/mu, the
    # reverse orientation picks up mu
    loop = BasePath((
        line_segment(0, [0.0], [2.0]),
        line_segment(1, [2.0], [4.2]),
        line_segment(2, [4.2], [two_pi]),
        line_segment(0, [0.0], [0.0]),
    ))
    M = monodromy(G, loop)
    assert abs(M.matrix[0, 0] - 1.0 / mu) < 1e-9 / mu
    Mrev = monodromy(G, reverse(loop))
    assert abs(Mrev.matrix[0, 0] - mu) < 1e-6


def test_infinitesimalize_rejects_bad_cocycle():
    g0 = algebra.abelian(1)
    charts = [Chart((-1.0,), (1.0,))]
    entries = {(0, 0): AffineCocycleEntry(np.eye(1), np.array([0.5]), np.eye(1))}
    with pytest.raises(AlgebroidError):
        infinitesimalize(g0, lambda xi, m: np.asarray(xi, dtype=object), charts, entries)


def test_bundled_glued_models_intertwine(circle, torus):
    assert check_overlap_compatibility(circle.glued, tol=1e-7).passed
    assert check_overlap_compatibility(torus.glued, tol=1e-7).passed


def test_intertwining_reads_the_derivative_of_a_varying_fiber_map(translations2):
    # gamma = 0 and T = 0, so the connection residual is max |d mu| and the
    # anchor residual max |mu - 1|
    C = translations2.chart
    ms = np.array([[0.5, -0.3], [-1.0, 0.2], [0.0, 0.0]])
    anchor, conn, torsion = algebroid.intertwining_residuals(
        C, C, lambda m: m,
        lambda m: np.array([[dual.exp(m[0]), m[1]], [0.0, 1.0]], dtype=object), ms)
    assert np.allclose(conn, np.maximum(np.exp(ms[:, 0]), 1.0), rtol=1e-15, atol=0)
    assert np.allclose(anchor, np.maximum(np.abs(np.expm1(ms[:, 0])), np.abs(ms[:, 1])),
                       rtol=1e-15, atol=1e-16)
    assert np.all(torsion == 0.0)


def test_an_overlap_with_no_evaluated_point_fails():
    # the region (0.2, 0.8) maps by +100, out of the target chart (0, 1)
    g0 = algebra.abelian(1)
    C = make_action_algebroid(g0, lambda xi, m: np.asarray(xi, dtype=object),
                              Chart((0.0,), (1.0,))).chart
    ov = algebroid.Overlap(0, 0, AffineCocycleEntry(np.eye(1), np.array([100.0]), 7 * np.eye(1)),
                           Chart((0.2,), (0.8,)))
    rep = check_overlap_compatibility(algebroid.GluedAlgebroid((C,), (ov,)))
    assert not rep.passed and rep.max_residual == np.inf
    assert rep.details == {"overlap_0_0": np.inf, "overlap_0_0_points": 0}


def test_every_overlap_of_the_circle_is_evaluated(circle):
    # both circle overlaps join charts 0 and 1; each reports its own points
    rep = check_overlap_compatibility(circle.glued)
    assert rep.details["overlap_0_1_points"] == 17
    assert rep.details["overlap_0_1_1_points"] == 17


def test_jets_evaluate_only_the_fields_a_check_reads(so3_action):
    from cartanlab import cartan, geometry, transport
    C0 = so3_action.chart
    calls = []
    C = algebroid.AlgebroidChart(C0.base, C0.rank, C0.anchor, C0.gamma,
                                 lambda m: calls.append(m) or C0.torsion(m))
    pts = C.base.halton_points(2)
    cartan.is_flat(C, samples=pts)
    transport.invariant_metric_check(C, geometry.SmoothField.constant(C.base, np.eye(3)),
                                     samples=pts)
    assert calls == []
    cartan.is_cartan(C, samples=pts)
    assert calls


def test_a_nan_action_at_the_second_sample_fails_the_homomorphism(translations2,
                                                                  nan_after_first_point):
    # the action reaches the homomorphism check as the anchor it builds
    C = translations2.chart
    chart = algebroid.AlgebroidChart(C.base, 2, anchor=nan_after_first_point(C.anchor),
                                     gamma=C.gamma, torsion=C.torsion)
    rep = check_anchor_homomorphism(chart, 1e-10, sign=1, samples=[[0.1, 0.2], [0.3, -0.4]])
    assert not rep.passed and math.isnan(rep.max_residual)


def test_a_nan_fiber_map_past_the_first_point_fails_overlap_compatibility(
        nan_after_first_point, monkeypatch):
    charts = [Chart((-0.3,), (0.8,)), Chart((0.2,), (1.3,))]
    entries = {(0, 1): AffineCocycleEntry(np.eye(1), np.array([0.0]), np.eye(1)),
               (1, 0): AffineCocycleEntry(np.eye(1), np.array([-1.0]), np.eye(1))}
    G = infinitesimalize(algebra.abelian(1), lambda xi, m: np.asarray(xi, dtype=object),
                         charts, entries)
    ov = G.overlaps[-1]
    # the last overlap's fiber map turns NaN past the first of its points
    # as the intertwining residuals read it
    read = algebroid.intertwining_residuals
    monkeypatch.setattr(algebroid, "intertwining_residuals", lambda Ci, Cj, phi, mu, ms: read(
        Ci, Cj, phi, nan_after_first_point(mu) if phi.__self__ is ov else mu, ms))
    rep = check_overlap_compatibility(G)
    assert not rep.passed and math.isnan(rep.max_residual)
    assert math.isnan(rep.details[f"overlap_{ov.i}_{ov.j}"])
    assert rep.details[f"overlap_{G.overlaps[0].i}_{G.overlaps[0].j}"] <= 1e-7


def test_a_nan_twist_fails_overlap_compatibility(translations2):
    C = translations2.chart
    ov = algebroid.Overlap(0, 0, AffineCocycleEntry(np.eye(2), np.zeros(2),
                                                   np.array([[1.0, 0.0], [0.0, math.nan]])),
                           Chart((-0.5, -0.5), (0.5, 0.5)))
    rep = check_overlap_compatibility(algebroid.GluedAlgebroid((C,), (ov,)))
    assert not rep.passed and math.isnan(rep.max_residual)
    assert math.isnan(rep.details["overlap_0_0"]) and rep.details["overlap_0_0_points"] == 17


def test_a_nan_offset_in_the_second_identity_entry_fails_the_cocycle():
    ident = AffineCocycleEntry(np.eye(2), np.zeros(2), np.eye(2))
    bad = AffineCocycleEntry(np.eye(2), np.array([0.0, math.nan]), np.eye(2))
    rep = check_cocycle({(0, 0): ident, (1, 1): bad})
    assert math.isnan(rep.identity_residual) and not rep.passed
    assert rep.failures == ("transition 1->1 is not the identity",)


def test_a_nan_composition_after_the_first_fails_the_cocycle():
    def shift(x):
        return AffineCocycleEntry(np.eye(1), np.array([x]), np.eye(1))
    rep = check_cocycle({(0, 1): shift(1.0), (1, 2): shift(2.0), (0, 2): shift(3.0),
                         (2, 3): shift(math.nan), (1, 3): shift(2.0)})
    assert math.isnan(rep.composition_residual) and not rep.passed


def test_each_inverted_overlap_is_built_once_per_glued_algebroid(torus):
    G = torus.glued
    first, again = list(G.overlaps_between(1, 0)), list(G.overlaps_between(1, 0))
    # the direct entry 1 -> 0, then the two entries 0 -> 1 read backwards
    assert [(ov.i, ov.j) for ov in first] == [(1, 0)] * 3
    assert first[0] in G.overlaps and not any(ov in G.overlaps for ov in first[1:])
    assert all(a is b for a, b in zip(first, again))
    assert first[1].region_i is again[1].region_i


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _transitions(draw):
    """An invertible affine entry (A diagonal or dense, 1 to 3 dims) with an
    invertible twist M, and a region box."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        scale = draw(arrays(float, n, elements=_floats(0.25, 4.0)))
        A = np.diag(scale * draw(arrays(float, n, elements=st.sampled_from([-1.0, 1.0]))))
    else:
        A = draw(arrays(float, (n, n), elements=_floats(-2.0, 2.0)))
    M = draw(arrays(float, (r, r), elements=_floats(-2.0, 2.0)))
    # singular values in [1/4, 4]: well conditioned and of moderate scale
    assume(all(0.25 <= s <= 4.0 for X in (A, M) for s in np.linalg.svd(X, compute_uv=False)))
    b = draw(arrays(float, n, elements=_floats(-5.0, 5.0)))
    lower = draw(arrays(float, n, elements=_floats(-3.0, 3.0)))
    width = draw(arrays(float, n, elements=_floats(0.1, 3.0)))
    return AffineCocycleEntry(A, b, M), Chart(tuple(lower), tuple(lower + width))


@settings(max_examples=100, deadline=None)
@given(case=_transitions())
def test_an_overlap_inverse_undoes_its_transition(case):
    e, region = case
    ov = algebroid.Overlap(0, 1, e, region)
    inv = ov.inverse
    assert inv is ov.inverse and (inv.i, inv.j) == (1, 0)
    n, r = len(e.b), len(e.M)
    corners = np.array([np.where([(k >> a) & 1 for a in range(n)], region.upper, region.lower)
                        for k in range(2 ** n)])
    ms = np.vstack([corners, region.halton_points(5)])
    scale = max(1.0, np.abs(ms).max(), np.abs(e.b).max())
    assert np.all(np.abs(inv.base_map(ov.base_map(ms)) - ms) <= 1e-12 * scale)
    ident = e.inverse().compose(e)
    assert np.max(np.abs(ident.A - np.eye(n))) <= 1e-12
    assert np.max(np.abs(ident.b)) <= 1e-12 * scale
    assert np.max(np.abs(ident.M - np.eye(r))) <= 1e-12
    assert np.max(np.abs(inv.fiber_map(ms[0]) @ ov.fiber_map(ms[0]) - np.eye(r))) <= 1e-12
    # the inverse's region is the bounding box of the corner images, up to rounding
    images = ov.base_map(corners)
    assert inv.region_i.contains(images, margin=-1e-12 * scale).all()
    assert np.allclose(images.min(axis=0), inv.region_i.lower, rtol=0, atol=1e-12 * scale)
    assert np.allclose(images.max(axis=0), inv.region_i.upper, rtol=0, atol=1e-12 * scale)
