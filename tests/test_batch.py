"""Closed-form batches of fields and line paths against the per-point
evaluation they replace, which stays the oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cartanlab import cli, models, ode
from cartanlab.algebroid import AlgebroidError
from cartanlab.dual import value
from cartanlab.geometry import Chart, GeometryError, SmoothField, as_point
from cartanlab.transport import line_path, segment_batch
from oracles import as_curve

FLOATS = st.floats(-1e3, 1e3, allow_nan=False)
# two ulp of the larger operand
ULP2 = 5e-16


def _per_point(field, ms):
    return np.array([value(np.asarray(field(as_point(m)), dtype=object)) for m in ms])


def _points(n, min_size=1):
    return arrays(float, st.tuples(st.integers(min_size, 8), st.just(n)), elements=FLOATS)


@settings(max_examples=100, deadline=None)
@given(st.data(), array_shapes(min_dims=0, max_dims=3, max_side=3), st.integers(1, 3))
def test_constant_field_batch_is_the_per_point_value(data, shape, n):
    val = data.draw(arrays(float, shape, elements=FLOATS))
    field = SmoothField.constant(Chart((-np.inf,) * n, (np.inf,) * n), val)
    ms = data.draw(_points(n))
    got = field.values(ms)
    assert got.shape == (len(ms), *shape) and got.dtype == float
    assert got.tobytes() == _per_point(field, ms).tobytes()


def _inline_action(family, n, r, generators=None):
    block = {"algebra": {"structure_constants": np.zeros((r, r, r)).tolist()},
             "chart": {"lower": [-1e4] * n, "upper": [1e4] * n},
             "action": {"family": family}}
    if generators is not None:
        block["action"]["generators"] = generators.tolist()
    return cli._build_inline_action(block)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_translation_anchor_batch_is_the_per_point_value(torus, data, n):
    charts = [models.translations_model(n).chart, _inline_action("translation", n, n).chart]
    if n == 2:
        charts.append(torus.glued.charts[0])
    ms = data.draw(_points(n))
    for chart in charts:
        assert chart.anchor.batch is not None
        assert chart.anchor.values(ms).tobytes() == _per_point(chart.anchor, ms).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 3))
def test_linear_anchor_batch_is_within_two_ulp(data, n, r):
    gens = data.draw(arrays(float, (r, n, n), elements=st.floats(-50, 50)))
    anchor = _inline_action("linear", n, r, gens).chart.anchor
    ms = data.draw(_points(n))
    got, want = anchor.values(ms), _per_point(anchor, ms)
    assert got.shape == want.shape == (len(ms), n, r)
    assert np.all(np.abs(got - want) <= ULP2 * np.abs(want))


@settings(max_examples=100, deadline=None)
@given(ths=arrays(float, st.tuples(st.integers(1, 60), st.just(1)),
                  elements=st.floats(-700, 700)))
def test_scaling_anchor_batch_is_within_two_ulp(circle, ths):
    # np.exp and math.exp may differ in the last bit
    for anchor in (circle.cover.chart.anchor,
                   _inline_action("exponential_line", 1, 1).chart.anchor):
        got, want = anchor.values(ths), _per_point(anchor, ths)
        assert got.shape == want.shape == (len(ths), 1, 1)
        assert np.all(np.abs(got - want) <= ULP2 * np.abs(want))


def test_scaling_anchor_overflow_is_caught_by_the_ode_guard(circle):
    anchor = circle.cover.chart.anchor
    with pytest.raises(OverflowError):
        anchor(as_point([-800.0]))
    rhs = ode._overflow_safe(lambda t, y, lanes: anchor.values([[0.5], [-800.0]]).reshape(1, -1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = rhs(np.zeros(1), np.zeros((1, 2)), np.array([0]))
    assert np.all(out == 1e150)


def test_scaling_anchor_jet_overflow_is_refused_on_lanes_without_a_warning(circle):
    # the lane jet's leaves overflow to inf under np.errstate, as the
    # finiteness check on the value leaves expects
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlgebroidError, match="non-finite"):
            circle.cover.chart.anchor.first_jet([[0.5], [-800.0]])


def test_non_finite_linear_action_is_refused_by_both_forms():
    anchor = _inline_action("linear", 1, 1, np.array([[[1e300]]])).chart.anchor
    with np.errstate(over="ignore"), pytest.raises(AlgebroidError, match="non-finite"):
        anchor(as_point([1e10]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlgebroidError, match="non-finite"):
            anchor.values([[0.0], [1e10]])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_action_torsion_batch_is_the_per_point_antisymmetrized_bracket(circle, torus, data):
    # the chart antisymmetrizes the raw torsion and keeps its constant batch
    so3 = [[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
           [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
           [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]
    inline = cli._build_inline_action({
        "algebra": {"structure_constants": so3},
        "chart": {"lower": [-5.0] * 3, "upper": [5.0] * 3},
        "action": {"family": "translation"}}).chart
    for chart in (circle.glued.charts[0], circle.cover.chart, torus.glued.charts[1], inline):
        ms = data.draw(_points(chart.base.dim))
        assert chart.torsion.batch is not None
        assert chart.torsion.values(ms).tobytes() == _per_point(chart.torsion, ms).tobytes()


def test_fields_without_a_closed_form_loop_over_points(sphere):
    ms = sphere.chart.base.halton_points(5, shrink=0.2)
    for field in (sphere.chart.gamma, sphere.chart.torsion):
        assert field.batch is None
        assert field.values(ms).tobytes() == _per_point(field, ms).tobytes()


@pytest.mark.parametrize("name", ["sphere2", "hyperbolic2"])
def test_tm_h_anchor_batch_is_the_per_point_frame(name):
    chart = models.load_model(name).chart
    ms = chart.base.halton_points(9, shrink=0.05)
    assert chart.anchor.batch is not None
    assert chart.anchor.values(ms).tobytes() == _per_point(chart.anchor, ms).tobytes()


def test_tm_h_anchor_batch_refuses_a_metric_that_is_not_positive_definite():
    # a negative-definite "metric": both anchor forms refuse it
    bad = SmoothField(Chart((-1.0,), (1.0,)), (1, 1), lambda m: -np.eye(1, dtype=object))
    chart = models.build_riemannian_cartan(bad).chart
    with pytest.raises(GeometryError, match="positive definite"):
        chart.anchor.values([[0.0]])
    with pytest.raises(GeometryError, match="positive definite"):
        chart.anchor(as_point([0.0]))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 3), st.floats(0.0, 1.0))
def test_line_segment_batch_is_the_per_point_value(data, n, t):
    # the stacked read against the oracle curve a + t (b - a) at the Dual t
    ends = data.draw(arrays(float, st.tuples(st.integers(1, 8), st.just(2), st.just(n)),
                            elements=FLOATS))
    segs = [line_path(a, b).segments[0] for a, b in ends]
    # the lanes in reverse order, each segment in two lanes, each lane at
    # its own time
    lanes = np.arange(2 * len(segs))[::-1] % len(segs)
    times = np.linspace(0.0, t, len(lanes))
    ms, vs = segment_batch(segs)(times, lanes)
    want = [as_curve(segs[b]).point_velocity(tb) for tb, b in zip(times, lanes)]
    assert ms.tobytes() == np.stack([m for m, _ in want]).tobytes()
    assert vs.tobytes() == np.stack([v for _, v in want]).tobytes()
