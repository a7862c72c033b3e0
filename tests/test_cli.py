import copy
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab import algebra, cartan, cli, development, geometry, models
from cartanlab.cli import (ScenarioError, bundled_scenarios,
                           export_report, list_examples,
                           report_from_structured, run_scenario)

MINIMAL = {"name": "minimal", "model": "affine_line_group", "seed": 7,
           "checks": [{"op": "dual_pair"}]}


def test_empty_checks_block_passes():
    report = run_scenario({"name": "empty", "model": "flat_torus", "checks": []})
    assert report.verdict
    assert report.checks == []


def test_list_examples_contains_catalog():
    text = list_examples()
    for name in ("counterexample_s1", "flat_torus", "sphere2", "hyperbolic2",
                 "affine_line_group", "heisenberg"):
        assert name in text
    assert "euclidean(n)" in text


def test_unknown_model_and_op_are_scenario_errors():
    with pytest.raises(ScenarioError):
        run_scenario({"name": "x", "model": "nope", "checks": []})
    with pytest.raises(ScenarioError):
        run_scenario({"name": "x", "model": "flat_torus",
                      "checks": [{"op": "frobnicate"}]})


def test_inline_action_algebroid_model():
    doc = {
        "name": "inline",
        "model": {"action_algebroid": {
            "algebra": {"structure_constants": [[[0.0, 0.0], [0.0, 0.0]],
                                                [[0.0, 0.0], [0.0, 0.0]]]},
            "action": {"family": "translation"},
            "chart": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
        }},
        "checks": [{"op": "is_cartan", "samples": 10},
                   {"op": "is_flat", "samples": 10}],
    }
    report = run_scenario(doc)
    assert report.verdict


def test_inline_metric_model():
    doc = {"name": "inline-metric", "model": {"metric": "hyperbolic(2)"},
           "checks": [{"op": "is_flat", "samples": 5},
                      {"op": "scalar_form_fit", "points": 5,
                       "expect_abs_s": 1.0},
                      {"op": "classify", "expect_tag": "hyperbolic"},
                      {"op": "invariant_metric", "metric": "model", "samples": 5}]}
    report = run_scenario(doc)
    assert report.verdict, export_report(report, "text")
    assert [c.name for c in report.checks][2:] == ["classify", "invariant_metric"]


INLINE_ACTION = {"action_algebroid": {
    "algebra": {"structure_constants": [[[0.0]]]},
    "action": {"family": "translation"},
    "chart": {"lower": [-2.0], "upper": [2.0]},
}}
LINEAR_ACTION = {"action_algebroid": {
    "algebra": {"structure_constants": [[[0.0]]]},
    "action": {"family": "linear", "generators": [[[0.0, 1.0], [-1.0, 0.0]]]},
    "chart": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
}}

CHARTED_OPS = ("is_cartan", "is_flat", "geodesic_escape", "completeness")
GLUED_OPS = ("monodromy", "compactness_probe", "reconstruct", "equivariance_diagram")
RIEMANNIAN_OPS = ("scalar_form_fit", "classify", "invariant_metric")
LOCAL_LIE_GROUP_OPS = ("dual_pair", "local_lie_group", "obstruction_form")
# model -> ops it accepts; invariant_metric runs with its default metric: model
ACCEPTED_OPS = {
    "counterexample_s1": CHARTED_OPS + GLUED_OPS,
    "flat_torus": CHARTED_OPS + GLUED_OPS,
    "sphere2": CHARTED_OPS + RIEMANNIAN_OPS,
    "hyperbolic2": CHARTED_OPS + RIEMANNIAN_OPS,
    "inline-metric": CHARTED_OPS + RIEMANNIAN_OPS,
    "inline-action": CHARTED_OPS,
    "affine_line_group": LOCAL_LIE_GROUP_OPS,
    "heisenberg": LOCAL_LIE_GROUP_OPS,
}
MODEL_SPECS = {"inline-metric": {"metric": "sphere(2)"}, "inline-action": INLINE_ACTION,
               "inline-linear": LINEAR_ACTION}
MISMATCHES = [(model, op) for model, ok in ACCEPTED_OPS.items() for op in cli.CHECKS
              if op not in ok and op != "cocycle"]


@pytest.mark.parametrize("model,op", MISMATCHES)
def test_op_model_mismatch_is_scenario_error(model, op, tmp_path, capsys):
    doc = {"name": "mismatch", "model": MODEL_SPECS.get(model, model),
           "checks": [{"op": op}]}
    with pytest.raises(ScenarioError, match=op):
        run_scenario(doc)
    path = tmp_path / "mismatch.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["run", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_invariant_metric_by_name_runs_on_any_charted_model():
    doc = {"name": "named-metric", "model": "flat_torus",
           "checks": [{"op": "invariant_metric", "metric": "euclidean(2)", "samples": 2}]}
    report = run_scenario(doc)
    assert report.verdict
    assert report.checks[0].witnesses == {"samples": 2}


def test_a_nan_scalar_fit_at_the_second_point_fails(monkeypatch):
    fit = geometry.scalar_form_fit
    calls = []

    def nan_second(*args):
        calls.append(args)
        return geometry.ScalarFormFit(math.nan, math.nan) if len(calls) == 2 else fit(*args)

    monkeypatch.setattr(geometry, "scalar_form_fit", nan_second)
    params = {"points": 3, "expect_abs_s": None, "tol": 1e-6, "spread_tol": 1e-6}
    result = cli.check_scalar_form_fit(models.sphere2(), params, 7)
    assert len(calls) == 3
    assert not result.verdict and math.isnan(result.max_residual)


def test_a_nan_transition_residual_after_the_first_fails_reconstruct(monkeypatch):
    reconstruct = development.reconstruct_atlas

    def nan_after_first(*args, **kwargs):
        atlas = reconstruct(*args, **kwargs)
        atlas.transitions[1:] = [dataclasses.replace(t, residual=math.nan)
                                 for t in atlas.transitions[1:]]
        return atlas

    monkeypatch.setattr(development, "reconstruct_atlas", nan_after_first)
    params = {"monodromy_rtol": 1e-6, "expect_multiplier": None, "rtol": 1e-6}
    result = cli.check_reconstruct(models.flat_torus(), params, 7)
    assert not result.verdict and math.isnan(result.max_residual)


def test_a_nan_multiplier_after_the_first_transition_fails_reconstruct(monkeypatch):
    reconstruct = development.reconstruct_atlas

    def nan_after_first(*args, **kwargs):
        atlas = reconstruct(*args, **kwargs)
        for t in atlas.transitions[1:]:
            t.affine_matrix = np.full_like(t.affine_matrix, math.nan)
        return atlas

    monkeypatch.setattr(development, "reconstruct_atlas", nan_after_first)
    params = {"monodromy_rtol": 1e-6, "expect_multiplier": 1.0, "rtol": 1e-6}
    result = cli.check_reconstruct(models.flat_torus(), params, 7)
    assert not result.verdict and math.isnan(result.witnesses["fitted_multiplier"])


def test_a_nan_residual_fails_a_check_that_expects_fail(monkeypatch):
    nan_report = cartan.TensorReport("is_flat", math.nan, 1e-7, (0.0, math.nan))
    monkeypatch.setattr(cartan, "is_flat", lambda *a, **k: nan_report)
    params = {"samples": 2, "tol": 1e-7, "expect": "fail"}
    assert not cli.check_is_flat(models.sphere2(), params, 7).verdict


MISSING = object()
SEED = {"point": [0.0, 1.0], "fiber": [1.0, 0.0, 0.0]}
ENTRY = {"i": 0, "j": 0, "A": [[1.0]], "b": [0.0], "M": [[1.0]]}
# the model and the check each bad input goes into; the check is valid
# without it, and a valid first check shows that nothing runs before the error.
# A key of the model's action block goes into the model.
BAD_INPUT_TARGETS = {
    "samples": ("hyperbolic2", {"op": "is_flat"}),
    "points": ("hyperbolic2", {"op": "scalar_form_fit"}),
    "horizon": ("hyperbolic2", {"op": "completeness", "seeds": [SEED]}),
    "point": ("hyperbolic2", {"op": "geodesic_escape", "point": SEED["point"],
                              "fiber": SEED["fiber"]}),
    "seeds": ("hyperbolic2", {"op": "completeness", "seeds": [SEED]}),
    "entries": ("hyperbolic2", {"op": "cocycle", "entries": [ENTRY]}),
    "generators": ("inline-linear", {"op": "is_flat", "samples": 1}),
    "fiber": ("counterexample_s1", {"op": "geodesic_escape", "point": [0.0], "fiber": [1.0]}),
    "tol": ("affine_line_group", {"op": "dual_pair"}),
}
FIRST_CHECK = {"hyperbolic2": {"op": "is_flat", "samples": 1},
               "counterexample_s1": {"op": "is_flat", "samples": 1},
               "affine_line_group": {"op": "dual_pair"},
               "inline-linear": {"op": "is_cartan", "samples": 1}}


@pytest.mark.parametrize("key,val", [("samples", -3), ("samples", 0), ("samples", 2.5),
                                     ("samples", True), ("points", 0),
                                     ("horizon", 0), ("horizon", -1.0),
                                     ("horizon", float("inf")),
                                     pytest.param("point", MISSING, id="point-missing"),
                                     pytest.param("seeds", [{"point": [0.0, 1.0]}],
                                                  id="seeds-without-fiber"),
                                     pytest.param("seeds", MISSING, id="seeds-missing"),
                                     pytest.param("entries", MISSING, id="entries-missing"),
                                     pytest.param("entries", [{"i": 0, "j": 0, "A": [[1.0]],
                                                               "b": [0.0]}],
                                                  id="entries-without-M"),
                                     pytest.param("point", [0.0, 1.0, 2.0],
                                                  id="point-too-long"),
                                     pytest.param("point", [[0.0, 1.0]], id="point-nested"),
                                     pytest.param("point", ["a", 1.0], id="point-not-numbers"),
                                     pytest.param("fiber", [1.0, 0.0], id="fiber-too-long"),
                                     pytest.param("seeds", [{"point": [0.0],
                                                             "fiber": SEED["fiber"]}],
                                                  id="seeds-short-point"),
                                     pytest.param("seeds", [SEED, {"point": [0.0, 1.0],
                                                                   "fiber": [1.0]}],
                                                  id="seeds-short-fiber"),
                                     pytest.param("tol", "small", id="tol-small"),
                                     pytest.param("tol", True, id="tol-bool"),
                                     pytest.param("generators", MISSING,
                                                  id="generators-missing"),
                                     pytest.param("generators", [[[1.0]]],
                                                  id="generators-wrong-size"),
                                     pytest.param("entries", [{**ENTRY, "A": "x"}],
                                                  id="entries-A-not-numbers"),
                                     pytest.param("entries", [{**ENTRY, "b": [0.0, 1.0]}],
                                                  id="entries-b-wrong-size"),
                                     pytest.param("entries", [{**ENTRY, "M": [[1.0, 0.0]]}],
                                                  id="entries-M-not-square"),
                                     pytest.param("entries", [{**ENTRY, "i": "x"}],
                                                  id="entries-i-not-integer")])
def test_bad_counts_are_scenario_errors(key, val, tmp_path, capsys):
    model, check = BAD_INPUT_TARGETS[key]
    spec = copy.deepcopy(MODEL_SPECS.get(model, model))
    check = dict(check)
    holder = spec["action_algebroid"]["action"] if key == "generators" else check
    holder.pop(key, None)
    if val is not MISSING:
        holder[key] = val
    doc = {"name": "bad-count", "model": spec, "checks": [FIRST_CHECK[model], check]}
    with pytest.raises(ScenarioError, match=key):
        run_scenario(doc)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_point_outside_the_circle_base_is_scenario_error(tmp_path, capsys):
    # a 2-D point on the 1-D circle used to reach numpy as a matmul error
    doc = {"name": "bad-point", "model": "counterexample_s1",
           "checks": [{"op": "geodesic_escape", "point": [0.0, 1.0], "fiber": [1.0]}]}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_an_exception_inside_a_check_exits_3_without_a_traceback(tmp_path, capsys):
    # parses, but classify needs constant curvature and the ellipsoid has none
    path = tmp_path / "ellipsoid.yaml"
    path.write_text("name: ellipsoid-classify\n"
                    "model: {metric: ellipsoid}\n"
                    "checks:\n"
                    "  - op: classify\n")
    assert cli.main(["run", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: check 1 (classify) could not run: ValueError: ")
    assert "Traceback" not in captured.err
    with pytest.raises(cli.CheckError) as info:
        run_scenario(yaml.safe_load(path.read_text()))
    assert isinstance(info.value.__cause__, ValueError)


def _exits_2_before_any_check(doc, words, monkeypatch, tmp_path, capsys, flags=()):
    """cli.main rejects doc with exit 2, an error line naming every one of
    words, an empty stdout and no traceback, before any check runs."""
    calls = []
    for op, fn in list(cli.CHECKS.items()):
        monkeypatch.setitem(cli.CHECKS, op,
                            lambda *a, _op=op, _fn=fn: calls.append(_op) or _fn(*a))
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["run", str(path), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and calls == [] and "Traceback" not in err
    assert err.startswith("error:") and all(w in err for w in words), err


# each bad check follows this valid one, which runs on every model
VALID_FIRST = {"op": "cocycle", "entries": [ENTRY]}
CIRCLE_GEODESIC = {"op": "geodesic_escape", "point": [0.0], "fiber": [1.0]}


@pytest.mark.parametrize("model,check,key", [
    pytest.param("flat_torus", {"op": "reconstruct", "monodromy_rtol": "x"},
                 "monodromy_rtol", id="a-rtol-string"),
    pytest.param("sphere2", {"op": "invariant_metric", "metric": "nonsense"}, "metric",
                 id="b-unknown-metric"),
    pytest.param("flat_torus", {"op": "invariant_metric", "metric": "euclidean(3)"}, "metric",
                 id="c-metric-of-another-dimension"),
    pytest.param("counterexample_s1", {**CIRCLE_GEODESIC, "expect_t_star": "soon"},
                 "expect_t_star", id="d-t-star-string"),
    pytest.param("counterexample_s1", {**CIRCLE_GEODESIC, "span": [0.0]}, "span",
                 id="e-span-of-one-number"),
    pytest.param("flat_torus", {"op": "completeness", "expect": "sometimes",
                                "seeds": [{"point": [0.1, 0.2], "fiber": [1.0, 0.5]}]},
                 "expect", id="f-unknown-expect"),
    pytest.param("sphere2", {"op": "is_flat", "sample": 3}, "sample", id="g-misspelled-key"),
    pytest.param({"metric": "ellipsoid"}, {"op": "is_flat", "tol": math.inf}, "tol",
                 id="h-infinite-tol"),
    pytest.param("sphere2", {"op": "is_cartan", "expect": "maybe"}, "expect",
                 id="i-expect-maybe"),
    pytest.param("counterexample_s1", {"op": "invariant_metric", "metric": "sphere(-1)"},
                 "metric", id="metric-of-negative-dimension"),
    pytest.param("sphere2", {"op": "geodesic_escape", "point": [0.0, 1.0],
                             "fiber": [1.0, 0.0, 0.0]}, "point", id="point-off-the-chart"),
    pytest.param("sphere2", {"op": "geodesic_escape", "point": [1.0, 1.0],
                             "fiber": [2.0e6, 0.0, 0.0]}, "1e+06", id="fiber-at-the-blowup-norm"),
    pytest.param("flat_torus", {"op": "completeness",
                                "seeds": [{"point": [0.0, 0.0], "fiber": [2.0e6, 0.0]}]},
                 "1e+06", id="seed-fiber-at-the-blowup-norm"),
])
def test_malformed_check_exits_2_before_any_check(model, check, key, monkeypatch, tmp_path,
                                                  capsys):
    doc = {"name": "malformed", "model": model, "checks": [VALID_FIRST, check]}
    _exits_2_before_any_check(doc, (check["op"], key), monkeypatch, tmp_path, capsys)


def _without(key):
    block = copy.deepcopy(INLINE_ACTION["action_algebroid"])
    del block[key]
    return {"action_algebroid": block}


@pytest.mark.parametrize("spec,words", [
    pytest.param(_without("algebra"), ("action_algebroid", "algebra"), id="no-algebra"),
    pytest.param(_without("chart"), ("action_algebroid", "chart"), id="j-no-chart"),
    pytest.param(_without("action"), ("action_algebroid", "action"), id="no-action"),
    pytest.param({"metric": "sphere(x)"}, ("metric", "sphere(x)"), id="k-sphere-of-x"),
    pytest.param({"metric": "torus(2)"}, ("metric", "torus(2)"), id="unknown-metric-family"),
    pytest.param({"metric": "flat"}, ("metric", "flat"), id="unknown-metric-name"),
    pytest.param({"metric": 5}, ("metric", "5"), id="metric-not-a-string"),
    pytest.param({"metric": "sphere(0)"}, ("metric", "sphere(0)"), id="metric-of-dimension-0"),
    pytest.param({"action_algebroid": {**INLINE_ACTION["action_algebroid"],
                                       "chart": {"lower": [2.0], "upper": [-2.0]}}},
                 ("action_algebroid", "lower < upper"), id="lower-above-upper"),
    pytest.param({"action_algebroid": {**INLINE_ACTION["action_algebroid"], "algebra": {
        "structure_constants": [[[0, 0, 0], [0, 0, 1], [-1, 0, 0]],
                                [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                                [[1, 0, 0], [-1, 0, 0], [0, 0, 0]]]}}},
                 ("action_algebroid", "Jacobi"), id="not-a-lie-algebra"),
    pytest.param({"metric": "sphere(2)", "samples": 3}, ("model block", "samples"),
                 id="stray-key-in-metric-block"),
    pytest.param({**INLINE_ACTION, "metric": "sphere(2)"},
                 ("model block", "action_algebroid", "metric"), id="action-and-metric"),
])
def test_bad_model_blocks_are_scenario_errors(spec, words, monkeypatch, tmp_path, capsys):
    doc = {"name": "bad-model", "model": spec, "checks": [VALID_FIRST]}
    with pytest.raises(ScenarioError):
        run_scenario(doc)
    _exits_2_before_any_check(doc, words, monkeypatch, tmp_path, capsys)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_tolerances_and_their_scale_must_be_finite(bad, monkeypatch, tmp_path, capsys):
    # the ellipsoid is not flat; only a tolerance that is no finite number certifies it
    doc = {"name": "ellipsoid", "model": {"metric": "ellipsoid"},
           "checks": [{"op": "is_flat", "samples": 2}]}
    path = tmp_path / "ellipsoid.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["run", str(path)]) == 1
    capsys.readouterr()
    _exits_2_before_any_check(doc, ("--tol-scale",), monkeypatch, tmp_path, capsys,
                              flags=("--tol-scale", str(bad)))
    for op, key in (("is_flat", "tol"), ("monodromy", "rtol"),
                    ("obstruction_form", "dw_tol")):
        model = {"is_flat": {"metric": "ellipsoid"}, "monodromy": "flat_torus",
                 "obstruction_form": "affine_line_group"}[op]
        doc = {"name": "bad-tol", "model": model, "checks": [{"op": op, key: bad}]}
        _exits_2_before_any_check(doc, (op, key), monkeypatch, tmp_path, capsys)


def test_a_tolerance_scaled_past_the_floats_is_rejected():
    doc = {"name": "overflow", "model": "affine_line_group",
           "checks": [{"op": "dual_pair", "tol": 1e300}]}
    assert run_scenario(doc, tol_scale=1e8).verdict
    with pytest.raises(ScenarioError, match="times --tol-scale"):
        run_scenario(doc, tol_scale=1e10)


# -- the parse pass, op by op and parameter by parameter -------------------------

PARSE_MODELS = {name: models.load_model(name)
                for name in ("sphere2", "flat_torus", "affine_line_group")}
SPHERE_SEED = {"point": [1.0, 0.5], "fiber": [1.0, 0.0, 0.0]}
REQUIRED_PARAMS = {"geodesic_escape": SPHERE_SEED, "completeness": {"seeds": [SPHERE_SEED]},
                   "cocycle": {"entries": [ENTRY]}}
DECLARED = [(op, key) for op, (_, params) in cli.OPS.items() for key in params]


def _model_name(op):
    return next(name for name, model in PARSE_MODELS.items()
                if isinstance(model, cli.OPS[op][0]))


# a value of the wrong kind for each kind; one-of kinds get "maybe"
WRONG_KIND = {cli._tol: math.inf, cli._positive: 0, cli._number: "soon", cli._count: 2.5,
              cli._point: [9.0, 9.0], cli._fiber: [1.0], cli._span: [0.0],
              cli._eigenvalues: [1.0], cli._seeds: [], cli._entries: [{**ENTRY, "i": 0.5}],
              cli._metric: "nonsense"}


@pytest.mark.parametrize("op,key", DECLARED)
def test_each_parameter_rejects_a_value_of_the_wrong_kind(op, key, monkeypatch, tmp_path,
                                                          capsys):
    kind = cli.OPS[op][1][key][1]
    check = {"op": op, **REQUIRED_PARAMS.get(op, {}), key: WRONG_KIND.get(kind, "maybe")}
    doc = {"name": "wrong-kind", "model": _model_name(op), "checks": [VALID_FIRST, check]}
    _exits_2_before_any_check(doc, (op, key), monkeypatch, tmp_path, capsys)


def test_each_op_runs_with_only_its_required_parameters():
    for op in cli.OPS:
        model = PARSE_MODELS[_model_name(op)]
        assert cli.parse_check({"op": op, **REQUIRED_PARAMS.get(op, {})}, model, 1.0)[0] == op


ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=8), st.floats(), st.integers(-10**30, 10**30),
    st.lists(st.one_of(st.floats(), st.integers(-3, 3), st.text(max_size=2)), max_size=4),
    st.lists(st.lists(st.floats(-2.0, 2.0), max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from(["model", "pass", "unbounded", "sphere(2)", "sphere(x)", "euclidean(2)",
                     [0.0, 1.0], [1.0, 0.5], [[1.0]], [SPHERE_SEED], [ENTRY], ENTRY]))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(DECLARED), ANY_VALUE, st.sampled_from([1.0, 1e-3, 1e300]))
def test_parse_pass_returns_declared_kinds_or_scenario_error(op_key, val, tol_scale):
    op, key = op_key
    model = PARSE_MODELS[_model_name(op)]
    item = {"op": op, **REQUIRED_PARAMS.get(op, {}), key: val}
    try:
        got, params = cli.parse_check(item, model, tol_scale)
    except ScenarioError:
        return
    assert got == op and set(params) == set(cli.OPS[op][1])
    for k, (default, kind) in cli.OPS[op][1].items():
        given_val = item.get(k, default)
        if kind is cli._tol:
            assert params[k] == given_val * tol_scale
        else:
            assert params[k] is given_val
        if params[k] is not None:
            assert kind(params[k], model) is None


def test_glued_model_transports_each_loop_once(monkeypatch):
    from cartanlab import models, transport
    calls = []
    monkeypatch.setattr(models, "monodromy",
                        lambda G, loop: calls.append(loop) or transport.monodromy(G, loop))
    doc = {"name": "loops", "model": "counterexample_s1",
           "checks": [{"op": "monodromy"}, {"op": "compactness_probe", "expect": "unbounded"}]}
    assert run_scenario(doc).verdict
    assert len(calls) == 1


def test_tensor_checks_count_components():
    doc = {"name": "components", "model": "counterexample_s1",
           "checks": [{"op": "is_cartan", "samples": 3}, {"op": "is_flat", "samples": 3}]}
    cartan_w, flat_w = (c.witnesses for c in run_scenario(doc).checks)
    # rank 1 has no fiber pairs and a 1-D base no tangent pairs
    assert cartan_w == {"samples": 3, "components_evaluated": 0}
    assert flat_w == {"samples": 3, "components_evaluated": 0}
    doc = {"name": "components", "model": {"metric": "euclidean(2)"},
           "checks": [{"op": "is_cartan", "samples": 1}, {"op": "is_flat", "samples": 2}]}
    cartan_w, flat_w = (c.witnesses for c in run_scenario(doc).checks)
    assert cartan_w["components_evaluated"] == 1 * 3 * 2   # C(3,2) fiber pairs x 2 directions
    assert flat_w["components_evaluated"] == 2 * 1 * 3     # C(2,2) tangent pairs x rank 3


def test_structured_report_roundtrip():
    report = run_scenario(MINIMAL)
    text = export_report(report, "json")
    back = report_from_structured(json.loads(text))
    assert back.scenario == report.scenario
    assert back.verdict == report.verdict
    assert export_report(back, "json") == text


def test_determinism_byte_identical():
    a = export_report(run_scenario(MINIMAL), "json")
    b = export_report(run_scenario(MINIMAL), "json")
    assert a == b


def test_counterexample_report_has_monodromy_eigenvalues():
    doc = {"name": "cx", "model": "counterexample_s1",
           "checks": [{"op": "monodromy",
                       "expect_eigenvalues": [math.exp(2 * math.pi)]}]}
    report = run_scenario(doc)
    assert report.verdict
    payload = json.loads(export_report(report, "json"))
    eigs = payload["checks"][0]["witnesses"]["eigenvalues"]
    assert abs(eigs[0] - 535.4916555247646) < 1e-6


def test_tol_scale_loosens_checks():
    doc = {"name": "strict", "model": "affine_line_group",
           "checks": [{"op": "dual_pair", "tol": 1e-30}]}
    assert not run_scenario(doc).verdict
    assert run_scenario(doc, tol_scale=1e20).verdict


def test_tol_scale_scales_every_threshold():
    # affine_line_group's trace form is far from zero (|w| ~ 1); scaled past
    # that, zero_tol calls it zero, and expect_zero false and true stay complements
    for expect_zero in (False, True):
        doc = {"name": "scaled", "model": "affine_line_group",
               "checks": [{"op": "obstruction_form", "expect_zero": expect_zero}]}
        assert run_scenario(doc).verdict is not expect_zero
        assert run_scenario(doc, tol_scale=1e12).verdict is expect_zero
    # a monodromy 1e-3 off an automorphism of so(3)
    so3 = algebra.so3()
    model = models.load_model("flat_torus")
    vars(model)["monodromies"] = (algebra.AlgebraMap(so3, so3, 1.001 * np.eye(3)),)
    item = {"op": "monodromy", "automorphism_tol": 1e-6}
    for tol_scale, verdict in ((1.0, False), (1e4, True)):
        op, params = cli.parse_check(item, model, tol_scale)
        assert cli.CHECKS[op](model, params, 42).verdict is verdict


def test_expect_fail_inverts_verdict():
    doc = {"name": "inv", "model": {"metric": "euclidean(2)"},
           "checks": [{"op": "is_flat", "samples": 5, "expect": "fail"}]}
    assert not run_scenario(doc).verdict


def test_nonpositive_tolerance_rejected():
    doc = {"name": "bad-tol", "model": "affine_line_group",
           "checks": [{"op": "dual_pair", "tol": -1.0}]}
    with pytest.raises(ScenarioError):
        run_scenario(doc)
    with pytest.raises(ScenarioError):
        run_scenario(MINIMAL, tol_scale=0.0)


def test_cli_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump(MINIMAL))
    assert cli.main(["run", str(good)]) == 0
    capsys.readouterr()

    failing = dict(MINIMAL, checks=[{"op": "dual_pair", "tol": 1e-30}])
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(failing))
    assert cli.main(["run", str(bad)]) == 1
    capsys.readouterr()

    broken = tmp_path / "broken.yaml"
    broken.write_text("name: [unclosed")
    assert cli.main(["run", str(broken)]) == 2
    capsys.readouterr()

    assert cli.main(["run", str(tmp_path / "missing.yaml")]) == 2
    capsys.readouterr()

    assert cli.main(["list-examples"]) == 0
    capsys.readouterr()


def test_a_complete_line_past_the_blowup_norm_is_not_certified_incomplete(tmp_path, capsys):
    # the torus line reaches base coordinate 1e6 at t = 1e6; only its fiber
    # may trigger the blow-up event
    doc = {"name": "long-line", "model": "flat_torus",
           "checks": [{"op": "completeness", "horizon": 2.0e6,
                       "seeds": [{"point": [0.0, 0.0], "fiber": [1.0, 0.0]}]}]}
    path = tmp_path / "line.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["run", str(path), "--format", "json"]) == 0
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert check["witnesses"]["verdicts"] == ["no-blowup-within-horizon"]


def test_cli_run_writes_and_exports_report(tmp_path, capsys):
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump(MINIMAL))
    out = tmp_path / "report.json"
    assert cli.main(["run", str(good), "--format", "json", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert json.loads(captured)["schema"] == 1
    assert out.exists()
    assert cli.main(["export", str(out), "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "dual_pair" in text and "verdict: pass" in text


def test_geodesic_escape_reports_its_ode_work():
    doc = {"name": "sphere-geodesic", "model": "sphere2",
           "checks": [{"op": "geodesic_escape", "point": [1.0, 0.5],
                       "fiber": [0.6, 0.8, 0.3]}]}
    w = run_scenario(doc).checks[0].witnesses
    assert w["status"] == "completed"
    # error control, not a cap of 1/64 of the span, sizes the steps
    assert 0 < w["steps"] < 64 and w["rhs_calls"] >= 6 * w["steps"]


@pytest.mark.parametrize("doc", [[], {"schema": 1, "checks": [1]}, {"schema": 1, "checks": [{}]}],
                         ids=["list", "check-not-an-object", "empty-check"])
def test_export_of_json_that_is_no_report_exits_2(doc, tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["export", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err


def test_cli_seed_override(tmp_path, capsys):
    good = tmp_path / "good.yaml"
    good.write_text(yaml.safe_dump(MINIMAL))
    assert cli.main(["run", str(good), "--seed", "11", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 11


def test_bundled_scenarios_parse_and_exist():
    names = bundled_scenarios()
    assert set(names) == {"counterexample_s1", "flat_torus", "sphere2",
                          "hyperbolic2", "affine_line_group", "heisenberg"}
    for path in names.values():
        doc = yaml.safe_load(Path(path).read_text())
        assert "name" in doc and "checks" in doc


@pytest.mark.parametrize("scenario", ["affine_line_group", "heisenberg",
                                      "counterexample_s1", "flat_torus",
                                      "hyperbolic2", "sphere2"])
def test_bundled_scenarios_pass(scenario):
    doc = yaml.safe_load(Path(bundled_scenarios()[scenario]).read_text())
    report = run_scenario(doc)
    assert report.verdict, export_report(report, "text")


def test_readme_op_table_lists_each_ops_parameters():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {line.split("|")[1].strip(" `"): line.split("|")[3]
            for line in readme.splitlines() if line.startswith("| `")}
    for op, (_, params) in cli.OPS.items():
        named = [part.split("`")[1] for part in rows[op].split(";")]
        assert named == list(params), op


@pytest.mark.parametrize("field", ["dw_residual", "w"])
def test_a_nan_obstruction_form_at_the_second_sample_fails(field, monkeypatch):
    form = models.obstruction_form
    calls = []

    def nan_second(pair, m):
        calls.append(m)
        ob = form(pair, m)
        if len(calls) != 2:
            return ob
        if field == "w":
            return models.ObstructionForm(np.full_like(ob.w, math.nan), ob.dw_residual)
        return models.ObstructionForm(ob.w, math.nan)

    monkeypatch.setattr(models, "obstruction_form", nan_second)
    params = {"samples": 3, "dw_tol": 1e-7, "zero_tol": 1e-9, "expect_zero": False}
    result = cli.check_obstruction_form(models.affine_line_group(), params, 7)
    assert len(calls) == 3 and not result.verdict


def test_a_nan_automorphism_residual_of_the_second_loop_fails(monkeypatch):
    is_automorphism = algebra.is_automorphism
    calls = []

    def nan_second(A, M):
        calls.append(M)
        rep = is_automorphism(A, M)
        return algebra.AutomorphismReport(math.nan, rep.tol) if len(calls) == 2 else rep

    monkeypatch.setattr(algebra, "is_automorphism", nan_second)
    params = {"expect_eigenvalues": None, "rtol": 1e-6, "automorphism_tol": 1e-6}
    result = cli.check_monodromy(models.flat_torus(), params, 7)
    assert len(calls) == 2 and not result.verdict
    assert math.isnan(result.witnesses["automorphism_residual"])


NO_SCIPY_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from cartanlab import cli
paths = cli.bundled_scenarios()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["run", paths[name], "--format", "json"]) for name in sys.argv[2:]]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_a_develop_and_a_geodesic_run_leave_scipy_unimported():
    # scipy is a test-only oracle: flat_torus develops and reconstructs an
    # atlas, counterexample_s1 also integrates geodesics to their blow-up
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(src), "flat_torus",
                           "counterexample_s1"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "scipy": []}
