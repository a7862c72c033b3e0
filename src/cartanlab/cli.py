"""Scenario runner.

A scenario is a single YAML document naming a catalog model (or defining
one inline) and an ordered list of checks with parameters and tolerances.
Reports come in two formats: text (with residual tables and wall-clock
times) and structured JSON (schema 1, byte-deterministic for a fixed
seed; timing is text-only so that structured reports stay reproducible).

Exit codes: 0 scenario passed, 1 at least one check failed, 2 usage or
parse error, a count or tolerance out of range, a missing required check
parameter, or a check whose op does not apply to the scenario's model.
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


def report_from_structured(doc: dict) -> Report:
    if doc.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported report schema {doc.get('schema')!r}")
    checks = [CheckResult(c["name"], c["verdict"] == "pass", c["max_residual"],
                          c.get("witnesses", {})) for c in doc["checks"]]
    return Report(doc["scenario"], doc["seed"], checks)


# -- scenario model resolution -------------------------------------------------

def _build_inline_action(block: dict):
    alg = algebra.LieAlgebra(np.asarray(block["algebra"]["structure_constants"], dtype=float))
    chart = geometry.Chart(tuple(block["chart"]["lower"]), tuple(block["chart"]["upper"]))
    fam = block["action"]["family"]
    if fam == "translation":
        action = lambda xi, m: np.asarray(xi, dtype=object)
    elif fam == "linear":
        rank, n = alg.dim, chart.dim
        gens = block["action"].get("generators")
        if _numeric_shape(gens) != (rank, n, n):
            raise ScenarioError(f"linear action needs 'generators': a list of {rank} numeric "
                                f"{n}x{n} matrices (the algebra's rank, the chart's "
                                f"dimension), not {gens!r}")
        gens = [np.asarray(g, dtype=float) for g in gens]
        def action(xi, m, _g=gens):
            mat = sum(x * g.astype(object) for x, g in zip(xi, _g))
            return mat @ np.asarray(m, dtype=object)
    elif fam == "exponential_line":
        action = models.scaling_action
    else:
        raise ScenarioError(f"unknown action family {fam!r}")
    return algebroid.make_action_algebroid(alg, action, chart)


def resolve_model(spec) -> tuple[str, object]:
    if isinstance(spec, str):
        try:
            return spec, models.load_model(spec)
        except KeyError as e:
            raise ScenarioError(str(e)) from None
    if isinstance(spec, dict) and "action_algebroid" in spec:
        return "inline-action-algebroid", _build_inline_action(spec["action_algebroid"])
    if isinstance(spec, dict) and "metric" in spec:
        metric = geometry.metric_by_name(spec["metric"])
        lo, hi = metric.chart.sample_box()
        name = f"riemannian:{spec['metric']}"
        return name, models.riemannian_model(name, metric, (lo + hi) / 2, with_model=False)
    raise ScenarioError("model must be a catalog name, an action_algebroid "
                        "block, or a metric block")


# The model kinds each op accepts.  Charted models expose the algebroid
# chart their checks run on as ``model.chart``; cocycle reads no model.
_CHARTED = (models.GluedModel, models.RiemannianModel, algebroid.ActionAlgebroid)
_MODEL_KINDS = {
    **dict.fromkeys(("is_cartan", "is_flat", "geodesic_escape", "completeness",
                     "invariant_metric"), _CHARTED),
    **dict.fromkeys(("monodromy", "compactness_probe", "reconstruct",
                     "equivariance_diagram"), (models.GluedModel,)),
    **dict.fromkeys(("scalar_form_fit", "classify"), (models.RiemannianModel,)),
    **dict.fromkeys(("dual_pair", "local_lie_group", "obstruction_form"),
                    (models.LocalLieGroupModel,)),
    "cocycle": (object,),
}


# Parameters a check cannot run without, and the keys of each list item.
_REQUIRED = {"geodesic_escape": ("point", "fiber"), "completeness": ("seeds",),
             "cocycle": ("entries",)}
_ITEM_FIELDS = {"seeds": ("point", "fiber"), "entries": ("i", "j", "A", "b", "M")}


def _require_model_kind(op: str, params: dict, model) -> None:
    kinds = _MODEL_KINDS[op]
    if op == "invariant_metric" and params.get("metric", "model") == "model":
        kinds = (models.RiemannianModel,)
    if not isinstance(model, kinds):
        wanted = " or ".join(k.__name__ for k in kinds)
        raise ScenarioError(f"check {op!r} needs a {wanted} model, "
                            f"not a {type(model).__name__}")


def _numeric_shape(x) -> tuple | None:
    """Shape of x as a float array; None when x is not numeric or is ragged."""
    try:
        return np.shape(np.asarray(x, dtype=float))
    except (TypeError, ValueError):
        return None


def _require_point_shapes(op: str, params: dict, model) -> None:
    """Each geodesic seed's point has the model's base dimension and its
    fiber vector the model's rank."""
    if op == "geodesic_escape":
        seeds, where = [params], f"check {op!r}"
    elif op == "completeness":
        seeds, where = params["seeds"], f"the seeds of check {op!r}"
    else:
        return
    dims = {"point": (model.chart.base.dim, "base dimension"),
            "fiber": (model.chart.rank, "rank")}
    for seed in seeds:
        for key, (n, what) in dims.items():
            if _numeric_shape(seed[key]) != (n,):
                raise ScenarioError(f"{key} in {where} must be a list of {n} numbers "
                                    f"(the model's {what}), not {seed[key]!r}")


def _require_cocycle_shapes(op: str, params: dict) -> None:
    """Each cocycle entry has integer chart indices, square A and M, and b
    of A's size."""
    if op != "cocycle":
        return
    for entry in params["entries"]:
        A, b, M = (_numeric_shape(entry[k]) for k in ("A", "b", "M"))
        indices = all(isinstance(entry[k], int) and not isinstance(entry[k], bool)
                      for k in ("i", "j"))
        if not (indices and _is_square(A) and b == A[:1] and _is_square(M)):
            raise ScenarioError(f"in the entries of check {op!r}, i and j must be integers, "
                                f"A a numeric square matrix, b a numeric vector of A's size "
                                f"and M a numeric square matrix, not {entry!r}")


def _is_square(shape) -> bool:
    return shape is not None and len(shape) == 2 and shape[0] == shape[1]


# -- check registry -------------------------------------------------------------

def _expect(params, default="pass"):
    return params.get("expect", default)


def _verdict_against_expect(passed: bool, expect: str) -> bool:
    if expect == "pass":
        return passed
    if expect == "fail":
        return not passed
    raise ScenarioError(f"expect must be pass or fail, got {expect!r}")


def check_is_cartan(model, params, ctx):
    rep = cartan.is_cartan(model.chart, samples=params.get("samples", 50),
                           tol=params.get("tol", 1e-7) * ctx["tol_scale"],
                           seed=ctx["seed"])
    verdict = _verdict_against_expect(rep.verdict, _expect(params))
    components = len(rep.per_point) * math.comb(model.chart.rank, 2) * model.chart.base.dim
    return CheckResult("is_cartan", verdict, rep.max_residual,
                       {"samples": len(rep.per_point), "components_evaluated": components})


def check_is_flat(model, params, ctx):
    rep = cartan.is_flat(model.chart, samples=params.get("samples", 50),
                         tol=params.get("tol", 1e-7) * ctx["tol_scale"],
                         seed=ctx["seed"])
    verdict = _verdict_against_expect(rep.verdict, _expect(params))
    components = len(rep.per_point) * math.comb(model.chart.base.dim, 2) * model.chart.rank
    return CheckResult("is_flat", verdict, rep.max_residual,
                       {"samples": len(rep.per_point), "components_evaluated": components})


def check_monodromy(model, params, ctx):
    eigs = []
    worst = 0.0
    auto_res = 0.0
    for M in model.monodromies:
        eigs.extend(sorted(np.abs(np.linalg.eigvals(M.matrix)).tolist()))
        auto_res = max(auto_res, algebra.is_automorphism(M.source, M).residual)
    expect_eigs = params.get("expect_eigenvalues")
    rtol = params.get("rtol", 1e-6) * ctx["tol_scale"]
    verdict = True
    if expect_eigs is not None:
        got = np.sort(np.asarray(eigs))
        want = np.sort(np.asarray(expect_eigs, dtype=float))
        worst = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
        verdict = worst <= rtol
    verdict = verdict and auto_res <= params.get("automorphism_tol", 1e-6) * ctx["tol_scale"]
    return CheckResult("monodromy", verdict, worst,
                       {"eigenvalues": eigs, "automorphism_residual": auto_res})


def check_geodesic_escape(model, params, ctx):
    res = transport.geodesic(model.chart, np.asarray(params["point"], dtype=float),
                             np.asarray(params["fiber"], dtype=float),
                             span=tuple(params.get("span", (0.0, 1.0))))
    t_star = params.get("expect_t_star")
    tol = params.get("tol", 1e-3) * ctx["tol_scale"]
    if t_star is not None:
        worst = abs(res.t_end - t_star)
        verdict = res.certified_incomplete and worst <= tol
    else:
        worst = 0.0
        verdict = res.status == params.get("expect_status", "completed")
    return CheckResult("geodesic_escape", verdict, worst,
                       {"status": res.status, "t_end": res.t_end})


def check_completeness(model, params, ctx):
    seeds = [(np.asarray(s["point"], dtype=float), np.asarray(s["fiber"], dtype=float))
             for s in params["seeds"]]
    verdicts = transport.completeness_probe(model.chart, seeds,
                                            horizon=params.get("horizon", 100.0))
    expect = params.get("expect", "no-blowup-within-horizon")
    ok = all(v.verdict == expect for v in verdicts)
    return CheckResult("completeness", ok, 0.0,
                       {"verdicts": [v.verdict for v in verdicts],
                        "t_star": [v.t_star for v in verdicts]})


def check_scalar_form_fit(model, params, ctx):
    rc = model.rc
    rng = np.random.default_rng(ctx["seed"])
    pts = rc.metric.chart.sample_points(rng, params.get("points", 20))
    fits = [geometry.scalar_form_fit(rc.lc, rc.metric, m) for m in pts]
    svals = [f.s for f in fits]
    spread = max(svals) - min(svals)
    resid = max(f.residual for f in fits)
    verdict = True
    if "expect_abs_s" in params:
        verdict = abs(abs(np.mean(svals)) - params["expect_abs_s"]) <= \
            params.get("tol", 1e-6) * ctx["tol_scale"]
    verdict = verdict and spread <= params.get("spread_tol", 1e-6) * ctx["tol_scale"]
    return CheckResult("scalar_form_fit", verdict, max(spread, resid),
                       {"s_mean": float(np.mean(svals)), "spread": spread})


def check_classify(model, params, ctx):
    cls = models.classify_constant_curvature(model.rc, model.m0,
                                             tol=params.get("tol", 1e-6) * ctx["tol_scale"])
    verdict = cls.tag == params.get("expect_tag", cls.tag)
    return CheckResult("classify", verdict, cls.structure_residual,
                       {"tag": cls.tag, "s": cls.s, "model_algebra": cls.model_algebra,
                        "torsion_form": cls.torsion_form})


def check_invariant_metric(model, params, ctx):
    chart = model.chart
    name = params.get("metric", "model")
    if name == "model":
        sigma = model.metric
    else:
        base = chart.base
        metric = geometry.metric_by_name(name)
        sigma = geometry.SmoothField(base, metric.shape,
                                     metric.fn, name=metric.name)
    rng = np.random.default_rng(ctx["seed"])
    rep = transport.invariant_metric_check(
        chart, sigma, tol=params.get("tol", 1e-7) * ctx["tol_scale"],
        samples=chart.base.sample_points(rng, params.get("samples", 10)))
    verdict = _verdict_against_expect(rep.verdict, _expect(params))
    return CheckResult("invariant_metric", verdict, rep.max_residual, {})


def check_compactness_probe(model, params, ctx):
    rep = transport.monodromy_compactness_probe(model.monodromies)
    expect = params.get("expect", "consistent-with-compact-closure")
    witness = list(rep.witness_word) if rep.witness_word else None
    verdict = rep.verdict == expect
    if verdict and expect == "unbounded" and "expect_witness_length" in params:
        verdict = witness is not None and len(witness) == params["expect_witness_length"]
    return CheckResult("compactness_probe", verdict, rep.max_modulus_deviation,
                       {"verdict": rep.verdict, "witness_word": witness})


def check_reconstruct(model, params, ctx):
    atlas = development.reconstruct_atlas(model.glued, model.homog, model.atlas_spec)
    # each loop's transport must equal its deck twist
    mono = 0.0
    for mono_map, deck in zip(model.monodromies, model.decks):
        M = mono_map.matrix
        twist = deck.twist.matrix
        scale = max(1.0, float(np.max(np.abs(twist))))
        mono = max(mono, float(np.max(np.abs(M - twist))) / scale)
    worst = max((t.residual for t in atlas.transitions), default=0.0)
    verdict = atlas.passed and mono <= params.get("monodromy_rtol", 1e-6) * ctx["tol_scale"]
    mult = params.get("expect_multiplier")
    witnesses = {
        "jacobian_min_abs_det": atlas.jacobian_min_abs_det,
        "monodromy_vs_twist": mono,
        "transitions": [
            {"from": t.i, "to": t.j, "residual": t.residual,
             "multiplier": t.affine_matrix.tolist(),
             "offset": t.affine_offset.tolist()} for t in atlas.transitions],
    }
    if mult is not None:
        fitted = max(float(np.max(np.abs(t.affine_matrix))) for t in atlas.transitions)
        rel = abs(fitted - mult) / abs(mult)
        verdict = verdict and rel <= params.get("rtol", 1e-6) * ctx["tol_scale"]
        witnesses["fitted_multiplier"] = fitted
    return CheckResult("reconstruct", verdict, worst, witnesses)


def check_equivariance_diagram(model, params, ctx):
    rng = np.random.default_rng(ctx["seed"])
    tol = params.get("tol", 1e-5) * ctx["tol_scale"]
    box = model.sample_box
    pts = rng.uniform(box.lower, box.upper, (params.get("samples", 6), box.dim))
    rep = development.equivariance_diagram_check(model.cover, model.homog, model.decks[0],
                                                 model.atlas_spec.m0, pts, tol=tol)
    return CheckResult("equivariance_diagram", rep.verdict, rep.max_residual, {})


def check_dual_pair(model, params, ctx):
    rep = models.check_dual_pair(model.pair, tol=params.get("tol", 1e-8) * ctx["tol_scale"],
                                 seed=ctx["seed"])
    verdict = _verdict_against_expect(rep.verdict, _expect(params))
    return CheckResult("dual_pair", verdict, rep.max_residual, {})


def check_local_lie_group(model, params, ctx):
    rep = models.local_lie_group_check(model.pair,
                                       tol=params.get("tol", 1e-7) * ctx["tol_scale"],
                                       seed=ctx["seed"])
    return CheckResult("local_lie_group", rep.passed,
                       max(rep.flat_residual, rep.flat_bar_residual,
                           rep.parallel_torsion_residual),
                       {"jacobi_residual": rep.jacobi_residual})


def check_obstruction_form(model, params, ctx):
    rng = np.random.default_rng(ctx["seed"])
    pts = model.pair.chart.sample_points(rng, params.get("samples", 5))
    dw = 0.0
    wmax = 0.0
    for m in pts:
        ob = models.obstruction_form(model.pair, m)
        dw = max(dw, ob.dw_residual)
        wmax = max(wmax, float(np.max(np.abs(ob.w))))
    verdict = dw <= params.get("dw_tol", 1e-7) * ctx["tol_scale"]
    is_zero = wmax <= params.get("zero_tol", 1e-9) * ctx["tol_scale"]
    verdict = verdict and is_zero == bool(params.get("expect_zero", False))
    return CheckResult("obstruction_form", verdict, dw,
                       {"max_abs_w": wmax, "dw_residual": dw})


def check_cocycle(model, params, ctx):
    entries = {}
    for e in params["entries"]:
        key = (int(e["i"]), int(e["j"]))
        entries[key] = algebroid.AffineCocycleEntry(
            np.asarray(e["A"], dtype=float), np.asarray(e["b"], dtype=float),
            np.asarray(e["M"], dtype=float))
    rep = algebroid.check_cocycle(entries, tol=params.get("tol", 1e-9) * ctx["tol_scale"])
    verdict = _verdict_against_expect(rep.passed, _expect(params))
    return CheckResult("cocycle", verdict,
                       max(rep.identity_residual, rep.composition_residual),
                       {"failures": list(rep.failures)})


CHECKS = {
    "is_cartan": check_is_cartan,
    "is_flat": check_is_flat,
    "monodromy": check_monodromy,
    "geodesic_escape": check_geodesic_escape,
    "completeness": check_completeness,
    "scalar_form_fit": check_scalar_form_fit,
    "classify": check_classify,
    "invariant_metric": check_invariant_metric,
    "compactness_probe": check_compactness_probe,
    "reconstruct": check_reconstruct,
    "equivariance_diagram": check_equivariance_diagram,
    "dual_pair": check_dual_pair,
    "local_lie_group": check_local_lie_group,
    "obstruction_form": check_obstruction_form,
    "cocycle": check_cocycle,
}


def run_scenario(doc: dict, seed: int | None = None, tol_scale: float = 1.0) -> Report:
    if not isinstance(doc, dict) or "name" not in doc:
        raise ScenarioError("scenario must be a mapping with a 'name' field")
    name = doc["name"]
    seed = int(doc.get("seed", 42) if seed is None else seed)
    if tol_scale <= 0:
        raise ScenarioError("tolerance scale must be positive")
    model_name, model = resolve_model(doc.get("model"))
    ctx = {"seed": seed, "tol_scale": tol_scale}
    checks = []
    for item in doc.get("checks", []) or []:
        if "op" not in item:
            raise ScenarioError("each check needs an 'op' field")
        op = item["op"]
        if op not in CHECKS:
            raise ScenarioError(f"unknown check op {op!r}; known: {sorted(CHECKS)}")
        params = {k: v for k, v in item.items() if k != "op"}
        for key in _REQUIRED.get(op, ()):
            if key not in params:
                raise ScenarioError(f"check {op!r} needs {key!r}")
            fields = _ITEM_FIELDS.get(key, ())
            if fields and not (isinstance(params[key], list) and all(
                    isinstance(it, dict) and all(f in it for f in fields)
                    for it in params[key])):
                raise ScenarioError(f"{key} of check {op!r} must be a list of mappings "
                                    f"with {', '.join(fields)}")
        for key, val in params.items():
            if key == "tol" or key.endswith("_tol") or key == "rtol":
                if isinstance(val, bool) or not isinstance(val, (int, float)):
                    raise ScenarioError(f"tolerance {key} of check {op!r} must be a number, "
                                        f"not {val!r}")
                if not val > 0:
                    raise ScenarioError(f"tolerance {key} of check {op!r} must be positive")
            if key in ("samples", "points") and \
                    (isinstance(val, bool) or not isinstance(val, int) or val <= 0):
                raise ScenarioError(f"{key} of check {op!r} must be a positive integer")
            if key == "horizon" and (isinstance(val, bool) or not isinstance(val, (int, float))
                                     or not 0 < val < math.inf):
                raise ScenarioError(f"horizon of check {op!r} must be a positive finite number")
        _require_model_kind(op, params, model)
        _require_point_shapes(op, params, model)
        _require_cocycle_shapes(op, params)
        checks.append((op, params))
    results = []
    for op, params in checks:
        t0 = time.perf_counter()
        res = CHECKS[op](model, params, ctx)
        res.wall_clock = time.perf_counter() - t0
        results.append(res)
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
    out = {}
    pkg = resources.files("cartanlab") / "scenarios"
    for entry in sorted(pkg.iterdir(), key=lambda p: p.name):
        if entry.name.endswith(".yaml"):
            out[entry.name[:-5]] = str(entry)
    return out


def list_examples() -> str:
    lines = ["catalog models:"]
    for name in sorted(models.CATALOG):
        lines.append(f"  {name}")
    lines.append("bundled scenarios:")
    for name, path in bundled_scenarios().items():
        lines.append(f"  {name}  ({path})")
    lines.append('metric families: euclidean(n), sphere(n), hyperbolic(n)')
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
        except (OSError, json.JSONDecodeError, ScenarioError, KeyError) as e:
            sys.stderr.write(f"error: {e}\n")
            return 2
        return 0

    try:
        doc = load_scenario_file(args.file)
        report = run_scenario(doc, seed=args.seed, tol_scale=args.tol_scale)
    except ScenarioError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    out_text = export_report(report, args.format)
    sys.stdout.write(out_text)
    if args.out:
        Path(args.out).write_text(report.to_json())
    return 0 if report.verdict else 1


if __name__ == "__main__":
    sys.exit(main())
