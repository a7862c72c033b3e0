"""Scenario runner.

A scenario is a single YAML document naming a catalog model (or defining
one inline) and an ordered list of checks with parameters and tolerances.
Reports come in two formats: text (with residual tables and wall-clock
times) and structured JSON (schema 1, byte-deterministic for a fixed
seed; timing is text-only so that structured reports stay reproducible).

Exit codes: 0 scenario passed, 1 at least one check failed, 2 usage or
parse error, including any check that does not match its op's declaration
in ``OPS`` (the model kinds it accepts, and each parameter's default and
kind).  The parse pass checks every check before the first one runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import algebra, algebroid, cartan, development, geometry, models, transport
SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    pass


class CheckError(RuntimeError):
    """A check that parsed raised an exception while it ran."""


@dataclass
class CheckResult:
    name: str
    verdict: bool
    max_residual: float
    witnesses: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    def structured(self) -> dict:
        return {
            "name": self.name,
            "verdict": "pass" if self.verdict else "fail",
            "max_residual": self.max_residual,
            "witnesses": self.witnesses,
        }


@dataclass
class Report:
    scenario: str
    seed: int
    checks: list[CheckResult]

    @property
    def verdict(self) -> bool:
        return all(c.verdict for c in self.checks)

    def structured(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "seed": self.seed,
            "verdict": "pass" if self.verdict else "fail",
            "checks": [c.structured() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.structured(), indent=2, sort_keys=False) + "\n"

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}   seed: {self.seed}"]
        lines.append("-" * 72)
        for c in self.checks:
            word = "pass" if c.verdict else "FAIL"
            lines.append(f"{c.name:<34} {word:<5} residual {c.max_residual:.3e}"
                         f"   [{c.wall_clock:.2f}s]")
            for k, v in c.witnesses.items():
                if isinstance(v, list) and v and isinstance(v[0], dict):
                    lines.append(f"    {k}:")
                    lines.extend(f"      - {item}" for item in v)
                else:
                    lines.append(f"    {k}: {v}")
        lines.append("-" * 72)
        lines.append(f"verdict: {'pass' if self.verdict else 'FAIL'}")
        return "\n".join(lines) + "\n"


def report_from_structured(doc) -> Report:
    """The Report a schema-1 document holds, or a ScenarioError that says
    what the document lacks."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"a report must be a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported report schema {doc.get('schema')!r}")
    if not (isinstance(doc.get("scenario"), str) and type(doc.get("seed")) is int
            and isinstance(doc.get("checks"), list)):
        raise ScenarioError("a schema-1 report needs a 'scenario' string, a 'seed' integer "
                            "and a 'checks' list")
    for k, c in enumerate(doc["checks"]):
        if not (isinstance(c, dict) and isinstance(c.get("name"), str)
                and c.get("verdict") in ("pass", "fail")
                and type(c.get("max_residual")) in (int, float)
                and isinstance(c.get("witnesses", {}), dict)):
            raise ScenarioError(f"check {k} of the report must be an object with a 'name' "
                                f"string, a 'verdict' of 'pass' or 'fail', a numeric "
                                f"'max_residual' and a 'witnesses' object, not {c!r}")
    checks = [CheckResult(c["name"], c["verdict"] == "pass", c["max_residual"],
                          c.get("witnesses", {})) for c in doc["checks"]]
    return Report(doc["scenario"], doc["seed"], checks)


# -- scenario model resolution -------------------------------------------------

def _build_inline_action(block: dict):
    alg = algebra.LieAlgebra(np.asarray(block["algebra"]["structure_constants"], dtype=float))
    chart = geometry.Chart(tuple(block["chart"]["lower"]), tuple(block["chart"]["upper"]))
    fam = block["action"]["family"]
    if fam == "translation":
        action = models.translation_action
    elif fam == "linear":
        rank, n = alg.dim, chart.dim
        gens = block["action"].get("generators")
        if _numeric_shape(gens) != (rank, n, n):
            raise ValueError(f"linear action needs 'generators': a list of {rank} numeric "
                             f"{n}x{n} matrices (the algebra's rank, the chart's "
                             f"dimension), not {gens!r}")
        gens = [np.asarray(g, dtype=float) for g in gens]
        def action(xi, m, _g=gens):
            mat = sum(x * g.astype(object) for x, g in zip(xi, _g))
            return mat @ np.asarray(m, dtype=object)

        def batch(xi, ms, _g=np.stack(gens)):
            return (np.tensordot(xi, _g, 1)[None] * ms[:, None, :]).sum(axis=2)
        action.batch = batch
    elif fam == "exponential_line":
        action = models.scaling_action
    else:
        raise ValueError(f"unknown action family {fam!r}")
    return algebroid.make_action_algebroid(alg, action, chart)


_MODEL_BLOCKS = ("action_algebroid", "metric")


def resolve_model(spec) -> tuple[str, object]:
    if isinstance(spec, dict):
        if extra := [key for key in spec if key not in _MODEL_BLOCKS]:
            raise ScenarioError(f"a model block takes no key {extra[0]!r}; it takes one of "
                                f"{' and '.join(_MODEL_BLOCKS)}")
        if len(spec) > 1:
            raise ScenarioError(f"a model block takes one of {' and '.join(_MODEL_BLOCKS)}, "
                                f"not both")
    try:
        if isinstance(spec, str):
            return spec, models.load_model(spec)
        if isinstance(spec, dict) and "action_algebroid" in spec:
            return "inline-action-algebroid", _build_inline_action(spec["action_algebroid"])
        if isinstance(spec, dict) and "metric" in spec:
            metric = geometry.metric_by_name(spec["metric"])
            lo, hi = metric.chart.sample_box()
            name = f"riemannian:{spec['metric']}"
            return name, models.riemannian_model(name, metric, (lo + hi) / 2, with_model=False)
    except (KeyError, TypeError, ValueError) as e:  # from building the model
        raise ScenarioError(f"cannot build model {spec!r} ({type(e).__name__}: {e})") from None
    raise ScenarioError("model must be a catalog name, an action_algebroid "
                        "block, or a metric block")


# -- parameter kinds --------------------------------------------------------------
# A kind takes a parameter's value and the scenario's model.  It returns
# None when the value has the kind, and otherwise what the value must be.

def _numeric_shape(x) -> tuple | None:
    """Shape of x as an array of finite numbers; None when x holds anything
    else (strings, bools, None, nan, inf) or is ragged."""
    try:
        leaves = np.asarray(x, dtype=object).ravel()
        shape = np.shape(np.asarray(x, dtype=float))
    except (TypeError, ValueError, OverflowError):
        return None
    return shape if all(map(_is_real, leaves)) else None


def _is_real(x) -> bool:
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:       # an int too large for a float
        return False


def _positive(x, model):
    return None if _is_real(x) and x > 0 else "a positive finite number"


def _tol(x, model):
    """A positive finite number that the parse pass multiplies by --tol-scale."""
    return _positive(x, model)


def _number(x, model):
    return None if _is_real(x) else "a finite number"


def _count(x, model):
    return None if type(x) is int and x > 0 else "a positive integer"


def _one_of(*choices):
    return lambda x, model: (None if any(type(x) is type(c) and x == c for c in choices)
                             else " or ".join(map(repr, choices)))


def _numbers(size, what):
    """A list of size(model) finite numbers."""
    return lambda x, model: (None if _numeric_shape(x) == (size(model),)
                             else f"a list of {size(model)} numbers ({what})")


def _fiber(x, model):
    """A list of rank numbers below the geodesic blow-up norm: from a start
    at the norm the blow-up event could never fire."""
    rank = model.chart.rank
    if _numeric_shape(x) != (rank,) or not np.max(np.abs(x)) < transport.BLOWUP_NORM:
        return (f"a list of {rank} numbers (the model's rank), each of absolute value "
                f"below the blow-up norm {transport.BLOWUP_NORM:g}")


_span = _numbers(lambda model: 2, "start and end time")
_eigenvalues = _numbers(lambda model: len(model.loops) * model.chart.rank,
                        "the model's rank per loop")


def _point(x, model):
    base = model.chart.base
    if _numeric_shape(x) != (base.dim,) or not base.contains(x):
        return (f"a list of {base.dim} numbers inside the model's chart, from "
                f"{np.asarray(base.lower).tolist()} to {np.asarray(base.upper).tolist()}")


def _seeds(x, model):
    if not (isinstance(x, list) and x
            and all(isinstance(s, dict) and set(s) == {"point", "fiber"} for s in x)):
        return "a non-empty list of mappings with a point and a fiber"
    for s in x:
        for key, kind in (("point", _point), ("fiber", _fiber)):
            if wrong := kind(s[key], model):
                return f"seeds whose {key} is {wrong}"


def _entries(x, model):
    ok = isinstance(x, list) and x and all(
        isinstance(e, dict) and set(e) == {"i", "j", "A", "b", "M"}
        and type(e["i"]) is int and type(e["j"]) is int for e in x)
    shapes = {tuple(_numeric_shape(e[k]) for k in "AbM") for e in x} if ok else set()
    A, b, M = shapes.pop() if len(shapes) == 1 else (None, None, None)
    if b is None or len(b) != 1 or A != b * 2 or M is None or len(M) != 2 or M != M[:1] * 2:
        return ("a non-empty list of mappings with integers i and j, a square matrix A, "
                "a vector b of A's size and a square matrix M, all of one size")


def _metric(x, model):
    if x == "model":
        return None if isinstance(model, models.RiemannianModel) else (
            f"a metric name ('model' needs a RiemannianModel model, not a {type(model).__name__})")
    n = model.chart.base.dim
    try:
        if geometry.metric_by_name(x).chart.dim == n:
            return None
    except ValueError:      # no such metric
        pass
    return f"'model' or a metric name of the base dimension, like sphere({n})"


# -- check declarations -------------------------------------------------------------

REQUIRED = object()     # the default of a parameter a check cannot run without

# Charted models expose the algebroid chart their checks run on as
# ``model.chart``; cocycle reads no model.
_CHARTED = (models.GluedModel, models.RiemannianModel, algebroid.ActionAlgebroid)
_GLUED = (models.GluedModel,)
_RIEMANNIAN = (models.RiemannianModel,)
_LOCAL_LIE_GROUP = (models.LocalLieGroupModel,)
_PASS_FAIL = ("pass", _one_of("pass", "fail"))
_TENSOR = {"samples": (50, _count), "tol": (1e-7, _tol), "expect": _PASS_FAIL}

# op -> (the model types it accepts, {parameter: (default, kind)})
OPS = {
    "is_cartan": (_CHARTED, _TENSOR),
    "is_flat": (_CHARTED, _TENSOR),
    "monodromy": (_GLUED, {"expect_eigenvalues": (None, _eigenvalues), "rtol": (1e-6, _tol),
                           "automorphism_tol": (1e-6, _tol)}),
    "geodesic_escape": (_CHARTED, {
        "point": (REQUIRED, _point), "fiber": (REQUIRED, _fiber), "span": ((0.0, 1.0), _span),
        "expect_t_star": (None, _number), "tol": (1e-3, _tol),
        "expect_status": ("completed", _one_of("completed", "escaped_chart", "blowup",
                                               "step_collapse"))}),
    "completeness": (_CHARTED, {
        "seeds": (REQUIRED, _seeds), "horizon": (100.0, _positive),
        "expect": ("no-blowup-within-horizon",
                   _one_of("no-blowup-within-horizon", "certified-incomplete"))}),
    "scalar_form_fit": (_RIEMANNIAN, {"points": (20, _count), "expect_abs_s": (None, _number),
                                      "tol": (1e-6, _tol), "spread_tol": (1e-6, _tol)}),
    "classify": (_RIEMANNIAN, {"tol": (1e-6, _tol), "expect_tag": (
        None, _one_of("euclidean", "spherical", "hyperbolic"))}),
    "invariant_metric": (_CHARTED, {"metric": ("model", _metric), "samples": (10, _count),
                                    "tol": (1e-7, _tol), "expect": _PASS_FAIL}),
    "compactness_probe": (_GLUED, {
        "expect": ("consistent-with-compact-closure",
                   _one_of("consistent-with-compact-closure", "unbounded")),
        "expect_witness_length": (None, _count)}),
    "reconstruct": (_GLUED, {"monodromy_rtol": (1e-6, _tol),
                             "expect_multiplier": (None, _positive), "rtol": (1e-6, _tol)}),
    "equivariance_diagram": (_GLUED, {"samples": (6, _count), "tol": (1e-5, _tol)}),
    "dual_pair": (_LOCAL_LIE_GROUP, {"tol": (1e-8, _tol), "expect": _PASS_FAIL}),
    "local_lie_group": (_LOCAL_LIE_GROUP, {"tol": (1e-7, _tol)}),
    "obstruction_form": (_LOCAL_LIE_GROUP, {
        "samples": (5, _count), "dw_tol": (1e-7, _tol), "zero_tol": (1e-9, _tol),
        "expect_zero": (False, _one_of(False, True))}),
    "cocycle": ((object,), {"entries": (REQUIRED, _entries), "tol": (1e-9, _tol),
                            "expect": _PASS_FAIL}),
}


# -- parse pass -----------------------------------------------------------------------

def parse_check(item, model, tol_scale: float) -> tuple[str, dict]:
    """One check entry as (op, parameters): the op applies to the model,
    every key is declared, every value has its kind, defaults are filled in
    and every tolerance is multiplied by tol_scale."""
    if not isinstance(item, dict) or "op" not in item:
        raise ScenarioError("each check must be a mapping with an 'op' field")
    op = item["op"]
    if not isinstance(op, str) or op not in OPS:
        raise ScenarioError(f"unknown check op {op!r}; known: {sorted(OPS)}")
    kinds, declared = OPS[op]
    if not isinstance(model, kinds):
        raise ScenarioError(f"check {op!r} needs a {' or '.join(k.__name__ for k in kinds)} "
                            f"model, not a {type(model).__name__}")
    if extra := [key for key in item if key != "op" and key not in declared]:
        raise ScenarioError(f"check {op!r} takes no parameter {extra[0]!r}; "
                            f"it takes {', '.join(declared)}")
    params = {}
    for key, (default, kind) in declared.items():
        val = item.get(key, default)
        if val is REQUIRED:
            raise ScenarioError(f"check {op!r} needs {key!r}")
        if wrong := (key in item or val is not None) and kind(val, model):
            raise ScenarioError(f"{key} of check {op!r} must be {wrong}, not {val!r}")
        if kind is _tol:
            val *= tol_scale
            if wrong := _tol(val, model):
                raise ScenarioError(f"{key} of check {op!r} times --tol-scale must be "
                                    f"{wrong}, not {val!r}")
        params[key] = val
    return op, params


def parse_scenario(doc, seed: int | None, tol_scale: float) -> tuple[str, int, object, list]:
    """The parse pass: the scenario's name, seed, model and parsed checks,
    or a ScenarioError before any check runs."""
    if not isinstance(doc, dict) or "name" not in doc:
        raise ScenarioError("scenario must be a mapping with a 'name' field")
    if extra := [key for key in doc if key not in ("name", "model", "seed", "checks")]:
        raise ScenarioError(f"a scenario takes no key {extra[0]!r}; it takes name, model, "
                            f"seed and checks")
    seed = doc.get("seed", 42) if seed is None else seed
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ScenarioError(f"seed must be a non-negative integer, not {seed!r}")
    if not (_is_real(tol_scale) and tol_scale > 0):
        raise ScenarioError(f"--tol-scale must be a positive finite number, not {tol_scale!r}")
    checks = [] if doc.get("checks") is None else doc["checks"]
    if not isinstance(checks, list):
        raise ScenarioError("checks must be a list")
    model = resolve_model(doc.get("model"))[1]
    return doc["name"], seed, model, [parse_check(item, model, tol_scale) for item in checks]


# -- check registry -------------------------------------------------------------
# Each check reads the parameters as parse_check checked, filled and scaled them.

def _as_expected(passed: bool, params, residual: float) -> bool:
    """The verdict read against ``expect``; a residual that is not a finite
    number fails the check either way."""
    return math.isfinite(residual) and passed == (params["expect"] == "pass")


def check_is_cartan(model, params, seed):
    C = model.chart
    rep = cartan.is_cartan(C, samples=params["samples"], tol=params["tol"], seed=seed)
    return CheckResult("is_cartan", _as_expected(rep.verdict, params, rep.max_residual),
                       rep.max_residual,
                       {"samples": len(rep.per_point), "components_evaluated":
                        len(rep.per_point) * math.comb(C.rank, 2) * C.base.dim})


def check_is_flat(model, params, seed):
    C = model.chart
    rep = cartan.is_flat(C, samples=params["samples"], tol=params["tol"], seed=seed)
    return CheckResult("is_flat", _as_expected(rep.verdict, params, rep.max_residual),
                       rep.max_residual,
                       {"samples": len(rep.per_point), "components_evaluated":
                        len(rep.per_point) * math.comb(C.base.dim, 2) * C.rank})


def check_monodromy(model, params, seed):
    eigs, worst = [], 0.0
    for M in model.monodromies:
        eigs.extend(sorted(np.abs(np.linalg.eigvals(M.matrix)).tolist()))
    auto_res = cartan.worst([algebra.is_automorphism(M.source, M).residual
                             for M in model.monodromies])
    if params["expect_eigenvalues"] is not None:
        got = np.sort(np.asarray(eigs))
        want = np.sort(np.asarray(params["expect_eigenvalues"], dtype=float))
        worst = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    verdict = worst <= params["rtol"] and auto_res <= params["automorphism_tol"]
    return CheckResult("monodromy", verdict, worst,
                       {"eigenvalues": eigs, "automorphism_residual": auto_res})


def check_geodesic_escape(model, params, seed):
    res = transport.geodesic(model.chart, params["point"], params["fiber"],
                             span=tuple(params["span"]))
    t_star = params["expect_t_star"]
    if t_star is not None:
        worst = abs(res.t_end - t_star)
        verdict = res.certified_incomplete and worst <= params["tol"]
    else:
        worst = 0.0
        verdict = res.status == params["expect_status"]
    return CheckResult("geodesic_escape", verdict, worst,
                       {"status": res.status, "t_end": res.t_end, "steps": res.steps,
                        "rhs_calls": res.nfev})


def check_completeness(model, params, seed):
    seeds = [(s["point"], s["fiber"]) for s in params["seeds"]]
    verdicts = transport.completeness_probe(model.chart, seeds, horizon=params["horizon"])
    ok = all(v.verdict == params["expect"] for v in verdicts)
    return CheckResult("completeness", ok, 0.0,
                       {"verdicts": [v.verdict for v in verdicts],
                        "t_star": [v.t_star for v in verdicts]})


def check_scalar_form_fit(model, params, seed):
    rc = model.rc
    rng = np.random.default_rng(seed)
    pts = rc.metric.chart.sample_points(rng, params["points"])
    fits = [geometry.scalar_form_fit(rc.lc, rc.metric, m) for m in pts]
    svals = [f.s for f in fits]
    # numpy's max and min keep a NaN, so a NaN fit fails the comparisons below
    spread = float(np.max(svals) - np.min(svals))
    residual = cartan.worst([spread] + [f.residual for f in fits])
    verdict = spread <= params["spread_tol"]
    if params["expect_abs_s"] is not None:
        verdict = abs(abs(np.mean(svals)) - params["expect_abs_s"]) <= params["tol"] and verdict
    return CheckResult("scalar_form_fit", verdict, residual,
                       {"s_mean": float(np.mean(svals)), "spread": spread})


def check_classify(model, params, seed):
    cls = models.classify_constant_curvature(model.rc, model.m0, tol=params["tol"])
    return CheckResult("classify", params["expect_tag"] in (None, cls.tag),
                       cls.structure_residual,
                       {"tag": cls.tag, "s": cls.s, "model_algebra": cls.model_algebra,
                        "torsion_form": cls.torsion_form})


def check_invariant_metric(model, params, seed):
    chart, name = model.chart, params["metric"]
    if name == "model":
        sigma = model.metric
    else:
        metric = geometry.metric_by_name(name)
        sigma = geometry.SmoothField(chart.base, metric.shape, metric.fn, name=metric.name)
    pts = chart.base.sample_points(np.random.default_rng(seed), params["samples"])
    rep = transport.invariant_metric_check(chart, sigma, tol=params["tol"], samples=pts)
    return CheckResult("invariant_metric", _as_expected(rep.verdict, params, rep.max_residual),
                       rep.max_residual, {"samples": len(rep.per_point)})


def check_compactness_probe(model, params, seed):
    rep = transport.monodromy_compactness_probe(model.monodromies)
    witness = list(rep.witness_word) if rep.witness_word else None
    verdict = rep.verdict == params["expect"]
    length = params["expect_witness_length"]
    if verdict and rep.verdict == "unbounded" and length is not None:
        verdict = witness is not None and len(witness) == length
    return CheckResult("compactness_probe", verdict, rep.max_modulus_deviation,
                       {"verdict": rep.verdict, "witness_word": witness})


def check_reconstruct(model, params, seed):
    atlas = development.reconstruct_atlas(model.glued, model.homog, model.atlas_spec)
    # each loop's transport must equal its deck twist
    mono = cartan.worst([np.max(np.abs(M.matrix - d.twist.matrix))
                         / max(1.0, float(np.max(np.abs(d.twist.matrix))))
                         for M, d in zip(model.monodromies, model.decks)])
    worst = cartan.worst([t.residual for t in atlas.transitions])
    verdict = atlas.passed and mono <= params["monodromy_rtol"]
    mult = params["expect_multiplier"]
    witnesses = {
        "jacobian_min_abs_det": atlas.jacobian_min_abs_det,
        "monodromy_vs_twist": mono,
        "transitions": [
            {"from": t.i, "to": t.j, "residual": t.residual,
             "multiplier": t.affine_matrix.tolist(),
             "offset": t.affine_offset.tolist()} for t in atlas.transitions],
    }
    if mult is not None:
        fitted = cartan.worst([np.max(np.abs(t.affine_matrix)) for t in atlas.transitions])
        rel = abs(fitted - mult) / abs(mult)
        verdict = verdict and rel <= params["rtol"]
        witnesses["fitted_multiplier"] = fitted
    return CheckResult("reconstruct", verdict, worst, witnesses)


def check_equivariance_diagram(model, params, seed):
    rng = np.random.default_rng(seed)
    box = model.sample_box
    pts = rng.uniform(box.lower, box.upper, (params["samples"], box.dim))
    rep = development.equivariance_diagram_check(model.cover, model.homog, model.decks[0],
                                                 model.atlas_spec.m0, pts, tol=params["tol"])
    return CheckResult("equivariance_diagram", rep.verdict, rep.max_residual, {})


def check_dual_pair(model, params, seed):
    rep = models.check_dual_pair(model.pair, tol=params["tol"], seed=seed)
    return CheckResult("dual_pair", _as_expected(rep.verdict, params, rep.max_residual),
                       rep.max_residual, {})


def check_local_lie_group(model, params, seed):
    rep = models.local_lie_group_check(model.pair, tol=params["tol"], seed=seed)
    return CheckResult("local_lie_group", rep.passed, rep.max_residual,
                       {"jacobi_residual": rep.jacobi_residual})


def check_obstruction_form(model, params, seed):
    rng = np.random.default_rng(seed)
    pts = model.pair.chart.sample_points(rng, params["samples"])
    forms = [models.obstruction_form(model.pair, m) for m in pts]
    dw = cartan.worst([ob.dw_residual for ob in forms])
    wmax = cartan.worst([np.max(np.abs(ob.w)) for ob in forms])
    is_zero = wmax <= params["zero_tol"]
    # a form that is not a number is neither zero nor a valid nonzero form
    verdict = dw <= params["dw_tol"] and math.isfinite(wmax) and is_zero == params["expect_zero"]
    return CheckResult("obstruction_form", verdict, dw,
                       {"max_abs_w": wmax, "dw_residual": dw})


def check_cocycle(model, params, seed):
    entries = {(e["i"], e["j"]): algebroid.AffineCocycleEntry(
        *(np.asarray(e[k], dtype=float) for k in "AbM")) for e in params["entries"]}
    rep = algebroid.check_cocycle(entries, tol=params["tol"])
    residual = cartan.worst([rep.identity_residual, rep.composition_residual])
    return CheckResult("cocycle", _as_expected(rep.passed, params, residual), residual,
                       {"failures": list(rep.failures)})


CHECKS = {op: globals()[f"check_{op}"] for op in OPS}


def run_scenario(doc: dict, seed: int | None = None, tol_scale: float = 1.0) -> Report:
    """Parse every check, then run them in order.  An exception inside a
    check stops the run as a ``CheckError`` naming the check."""
    name, seed, model, checks = parse_scenario(doc, seed, tol_scale)
    results = []
    for k, (op, params) in enumerate(checks, 1):
        t0 = time.perf_counter()
        try:
            results.append(CHECKS[op](model, params, seed))
        except Exception as e:
            raise CheckError(f"check {k} ({op}) could not run: "
                             f"{type(e).__name__}: {e}") from e
        results[-1].wall_clock = time.perf_counter() - t0
    return Report(name, seed, results)


def load_scenario_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file: {e}") from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"scenario parse error{loc}: {e}") from None


def bundled_scenarios() -> dict[str, str]:
    pkg = resources.files("cartanlab") / "scenarios"
    return {entry.name[:-5]: str(entry) for entry in sorted(pkg.iterdir(), key=lambda p: p.name)
            if entry.name.endswith(".yaml")}


def list_examples() -> str:
    lines = ["catalog models:", *(f"  {name}" for name in sorted(models.CATALOG)),
             "bundled scenarios:",
             *(f"  {name}  ({path})" for name, path in bundled_scenarios().items()),
             "metric families: euclidean(n), sphere(n), hyperbolic(n)"]
    return "\n".join(lines) + "\n"


def export_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "text":
        return report.to_text()
    raise ScenarioError(f"unknown format {fmt!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cartanlab",
                                     description="scenario runner for algebroid "
                                                 "connection certification")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--format", choices=["text", "json"], default="text")
    p_run.add_argument("--tol-scale", type=float, default=1.0)
    p_run.add_argument("--out", default=None, help="also write the report here")
    sub.add_parser("list-examples", help="list catalog models and scenarios")
    p_exp = sub.add_parser("export", help="re-render a structured report")
    p_exp.add_argument("report")
    p_exp.add_argument("--format", choices=["text", "json"], default="text")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    if args.command == "list-examples":
        sys.stdout.write(list_examples())
        return 0

    if args.command == "export":
        try:
            doc = json.loads(Path(args.report).read_text())
            report = report_from_structured(doc)
            sys.stdout.write(export_report(report, args.format))
        except (OSError, json.JSONDecodeError, ScenarioError) as e:
            sys.stderr.write(f"error: {e}\n")
            return 2
        return 0

    try:
        doc = load_scenario_file(args.file)
        report = run_scenario(doc, seed=args.seed, tol_scale=args.tol_scale)
    except ScenarioError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except CheckError as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    sys.stdout.write(export_report(report, args.format))
    if args.out:
        Path(args.out).write_text(report.to_json())
    return 0 if report.verdict else 1


if __name__ == "__main__":
    sys.exit(main())
