import dataclasses
import math

import numpy as np
import pytest

from cartanlab import algebra, algebroid, dual, models
from cartanlab.algebroid import (AffineCocycleEntry, AlgebroidError,
                                 check_action_homomorphism,
                                 check_anchor_homomorphism, check_cocycle,
                                 check_overlap_compatibility, infinitesimalize,
                                 make_action_algebroid, resolve_action_sign,
                                 section_bracket)
from cartanlab.dual import value
from cartanlab.geometry import Chart, as_point


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
    c = algebra.so3().structure_constants
    assert np.allclose(np.einsum("cab->abc", t), c)


def test_counterexample_anchor(circle):
    th = 0.8
    a = value(np.asarray(circle.cover.chart.anchor(as_point([th])), dtype=object))
    assert abs(a[0, 0] - math.exp(-th)) < 1e-14


def test_action_homomorphism_translations(translations2):
    rep = check_action_homomorphism(translations2, 1e-10, sign=1)
    assert rep.passed and rep.max_residual == 0.0


def test_action_homomorphism_so3_sign_resolution(so3_action):
    rep = resolve_action_sign(so3_action)
    assert rep.passed
    assert rep.sign == 1
    assert rep.max_residual < 1e-8
    # the mirrored cross product resolves to the opposite flag
    mirrored = make_action_algebroid(
        so3_action.algebra,
        lambda xi, m: -np.asarray(so3_action.action(xi, m), dtype=object),
        so3_action.chart.base)
    rep2 = resolve_action_sign(mirrored)
    assert rep2.passed and rep2.sign == -1


def test_action_homomorphism_failure_case():
    # e1 -> x d/dx, e2 -> d/dx on an abelian algebra: fields do not commute
    g0 = algebra.abelian(2)

    def act(xi, m):
        return np.array([xi[0] * m[0] + xi[1]], dtype=object)

    A = make_action_algebroid(g0, act, Chart((-2.0,), (2.0,)))
    plus = check_action_homomorphism(A, 1e-8, sign=1)
    minus = check_action_homomorphism(A, 1e-8, sign=-1)
    assert not plus.passed and not minus.passed


def test_section_bracket_constant_sections_equal_tau(so3_action):
    m = [0.2, 0.4, -0.6]
    out = value(np.asarray(
        section_bracket(so3_action.chart, np.eye(3)[0], np.eye(3)[1], m), dtype=object))
    assert np.allclose(out, [0.0, 0.0, 1.0], atol=1e-14)


def test_section_bracket_self_is_zero(so3_action):
    X = lambda m: np.array([m[0], 1.0 + 0.0 * m[0], m[2] ** 2], dtype=object)
    out = value(np.asarray(
        section_bracket(so3_action.chart, X, X, [0.5, 0.1, 0.9]), dtype=object))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_section_bracket_antisymmetry_exact(so3_action, sphere):
    X = lambda m: np.array([m[0], 1.0 + 0.0 * m[0], m[2] * m[1]], dtype=object)
    Y = lambda m: np.array([0.2 + 0.0 * m[0], m[1], m[0] ** 2], dtype=object)
    m = [0.5, 0.1, 0.9]
    xy = value(np.asarray(section_bracket(so3_action.chart, X, Y, m), dtype=object))
    yx = value(np.asarray(section_bracket(so3_action.chart, Y, X, m), dtype=object))
    assert np.array_equal(xy, -yx)
    m2 = sphere.m0 + [0.05, 0.1]
    a = value(np.asarray(section_bracket(
        sphere.rc.chart, np.eye(3)[0], np.eye(3)[2], m2), dtype=object))
    b = value(np.asarray(section_bracket(
        sphere.rc.chart, np.eye(3)[2], np.eye(3)[0], m2), dtype=object))
    assert np.max(np.abs(a + b)) < 1e-14


def test_section_bracket_leibniz_oracle(translations2):
    # [fY, Y] = -(#Y f) Y for scalar f; oracle by direct expansion
    C = translations2.chart
    Y = lambda m: np.array([1.0 + 0.0 * m[0], m[0]], dtype=object)
    f = lambda m: m[0] * m[1]
    fY = lambda m: np.array([f(m), f(m) * m[0]], dtype=object)
    m = np.array([0.7, -0.2])
    got = value(np.asarray(section_bracket(C, fY, Y, m), dtype=object))
    # #Y f along the anchor (identity): directional derivative of f along Y
    anchor_y = value(np.asarray(C.anchor(as_point(m)), dtype=object)) @ \
        value(np.asarray(Y(as_point(m)), dtype=object))
    df = value(dual.directional(lambda p: f(p), as_point(m), anchor_y))
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
    from cartanlab.transport import BasePath, PathSegment, monodromy
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
        PathSegment(0, lambda t: np.array([0.0 + t * 2.0])),
        PathSegment(1, lambda t: np.array([2.0 + t * 2.2])),
        PathSegment(2, lambda t: np.array([4.2 + t * (two_pi - 4.2)])),
        PathSegment(0, lambda t: np.array([0.0 * t])),
    ))
    M = monodromy(G, loop)
    assert abs(M.matrix[0, 0] - 1.0 / mu) < 1e-9 / mu
    Mrev = monodromy(G, loop.reverse())
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


def test_jet_arrays_read_in_any_order_match(sphere):
    C = sphere.rc.chart
    fields = ("anchor", "d_anchor", "gamma", "d_gamma", "torsion", "d_torsion")
    for m in C.base.halton_points(2):
        J = C.jet(m)
        whole = [getattr(J, f) for f in fields]
        assert all(getattr(J, f) is a for f, a in zip(fields, whole))
        for order in (fields[::-1], fields[2::2] + fields[1::2] + fields[:1]):
            J = C.jet(m)
            got = {f: getattr(J, f) for f in order}
            assert all(np.array_equal(got[f], a) for f, a in zip(fields, whole))


def test_a_nan_action_at_the_second_sample_fails_the_homomorphism(translations2,
                                                                  nan_after_first_point):
    A = algebroid.ActionAlgebroid(translations2.algebra,
                                  nan_after_first_point(translations2.action),
                                  translations2.chart)
    rep = check_action_homomorphism(A, 1e-10, sign=1, samples=[[0.1, 0.2], [0.3, -0.4]])
    assert not rep.passed and math.isnan(rep.max_residual)


def test_a_nan_fiber_map_past_the_first_point_fails_overlap_compatibility(
        nan_after_first_point):
    charts = [Chart((-0.3,), (0.8,)), Chart((0.2,), (1.3,))]
    entries = {(0, 1): AffineCocycleEntry(np.eye(1), np.array([0.0]), np.eye(1)),
               (1, 0): AffineCocycleEntry(np.eye(1), np.array([-1.0]), np.eye(1))}
    G = infinitesimalize(algebra.abelian(1), lambda xi, m: np.asarray(xi, dtype=object),
                         charts, entries)
    ov = G.overlaps[-1]
    bad = dataclasses.replace(ov, fiber_map=nan_after_first_point(ov.fiber_map))
    rep = check_overlap_compatibility(algebroid.GluedAlgebroid(G.charts, G.overlaps[:-1] + (bad,)))
    assert not rep.passed and math.isnan(rep.max_residual)
    assert math.isnan(rep.details[f"overlap_{ov.i}_{ov.j}"])


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
