"""Time-to-verdict benchmark for the cartanlab scenario runner.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One client in one single-threaded process sends generated scenarios
through the CLI's own path (``cli.main``: parse, ``run_scenario``,
schema-1 JSON) in a closed loop for ``--seconds``, checks every report,
and prints each metric with its unit and sample count.  The last line of
standard output is one JSON object.  ``--trace 1`` instead runs a fixed,
seed-determined list of requests three times (untraced, traced, traced
with Dual allocations counted), requires byte-identical reports and
identical counts across the passes, and reports per-layer metrics.  See
perfbench/README.md for the metrics and workloads.

Exit codes: 0 all outputs checked correct, 1 an output check failed,
2 the program could not be loaded.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

# One BLAS thread; this must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
TAIL_BEYOND = 10
TRACE_REQUESTS = {"certify": 4, "develop": 3, "geodesic": 8}
OPS = ("is_cartan", "is_flat", "invariant_metric", "scalar_form_fit", "classify",
       "monodromy", "compactness_probe", "equivariance_diagram", "reconstruct",
       "geodesic_escape", "completeness")

# Runs in a fresh interpreter: what a CLI user pays before the first check.
# The pure-Python half of the speed probe runs inside it; it imports nothing
# that the setup would import.  Prints the wall and the adjusted time.
SETUP_CODE = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
import speed
with speed.Sampler(speed.python_probe, speed.NOMINAL_PYTHON_PROBE_S,
                   speed.SETUP_PROBE_INTERVAL_S) as sampler:
    t0 = perf_counter()
    sys.path.insert(0, sys.argv[2])
    import cartanlab.cli
    from cartanlab import models
    for name in sys.argv[3:]:
        models.load_model(name)
    t = perf_counter() - t0 - sampler.overhead
print(t, t * sampler.factor(0))
"""


def reference_loop() -> float:
    """Fixed pure-Python work, timed between requests to track machine
    speed drift.  Recorded, never gated on."""
    t0 = perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    return perf_counter() - t0


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "loadavg_before": loadavg()}


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """(percentile, value, values beyond it) for the highest whole
    percentile above the median with at least TAIL_BEYOND values beyond
    it, by nearest rank; None when no such percentile exists."""
    s = sorted(values)
    n = len(s)
    for p in range(99, 50, -1):
        rank = -(-p * n // 100)
        if n - rank >= TAIL_BEYOND:
            return p, s[rank - 1], n - rank
    return None


class Client:
    """Sends one request at a time through ``cartanlab.cli.main``."""

    def __init__(self, cli, path: Path):
        self.cli = cli
        self.path = path

    def send(self, req) -> tuple[float, object, str]:
        self.path.write_text(req.text)
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(["run", str(self.path), "--format", "json"])
        except Exception as e:  # a crash is a failed request, not a crashed benchmark
            code = f"exception {type(e).__name__}: {e}"
        dt = perf_counter() - t0
        if code != 0 and err.getvalue():
            code = f"{code} ({err.getvalue().strip()})"
        return dt, code, out.getvalue()


def measure_setup(models) -> tuple[list[float], list[float]]:
    """Wall and speed-adjusted setup times of fresh interpreters.  Call it
    after this process has imported cartanlab, so that bytecode of a fresh
    checkout is already compiled."""
    times, adjusted = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC), *models],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup run failed: {proc.stderr.strip()}")
        t, adj = map(float, proc.stdout.strip().splitlines()[-1].split())
        times.append(t)
        adjusted.append(adj)
    return times, adjusted


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, req, code, output) -> None:
        failed, msgs = workloads.verify(req, code, output)
        self.attempted += req.checks
        self.failed += failed
        self.messages.extend(msgs)


def line(name, value, unit, note="") -> None:
    print(f"{name:<44} {value:>14.6g} {unit:<16} {note}")


def run_untraced(args, client) -> tuple[Tally, dict]:
    tally = Tally()
    times, adjusted, refs, kinds = [], [], [], {}
    stream = workloads.requests(args.workload, args.seed)
    with speed.Sampler() as sampler:
        t_start = perf_counter()
        while perf_counter() - t_start < args.seconds:
            refs.append(reference_loop())
            req = next(stream)
            k, spent = len(sampler.samples), sampler.overhead
            dt, code, output = client.send(req)
            dt -= sampler.overhead - spent
            tally.add(req, code, output)
            times.append(dt)
            adjusted.append(dt * sampler.factor(k))
            kinds.setdefault(req.model, []).append(adjusted[-1])

    n = len(times)
    print(f"# requests: {n}, checks attempted: {tally.attempted}")
    p50_adj = statistics.median(adjusted)
    rps_adj = n / sum(adjusted)
    line("request_s.p50.adj", p50_adj, "s", f"n={n} requests, speed-adjusted")
    line("requests_per_s.adj", rps_adj, "1/s", f"n={n} requests, speed-adjusted")
    line("request_s.p50", statistics.median(times), "s", f"n={n} requests, wall")
    t = tail(times)
    if t:
        line("request_s.tail", t[1], "s", f"p{t[0]}, n={n} requests, {t[2]} beyond")
    else:
        print(f"{'request_s.tail':<44} {'-':>14} s                not reported: "
              f"n={n} requests leave fewer than {TAIL_BEYOND} above the median")
    rps = n / sum(times)
    line("requests_per_s", rps, "1/s", f"n={n} requests over {sum(times):.3f} s busy, wall")
    ratio = tally.failed / tally.attempted
    line("failed_ratio", ratio, "ratio", f"n={tally.attempted} checks, {tally.failed} failed")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    line("peak_rss_mb", rss, "MB", "n=1 process")
    q1, q2, q3 = quartiles(refs)
    line("env.reference_loop_s", q2, "s", f"n={len(refs)}, quartiles {q1:.6g} {q3:.6g}; not gated")
    q1, q2, q3 = quartiles(sampler.samples)
    line("env.speed_probe_s", q2, "s", f"n={len(sampler.samples)}, quartiles {q1:.6g} {q3:.6g}; "
         f"nominal {speed.NOMINAL_PROBE_S:g}")
    for model, ts in sorted(kinds.items()):
        print(f"# {model} requests: n={len(ts)}, adjusted median {statistics.median(ts):.4f} s")
    metrics = {"request_s.p50.adj": (p50_adj, "s"),
               "requests_per_s.adj": (rps_adj, "1/s"),
               "peak_rss_mb": (rss, "MB")}
    return tally, metrics


def run_traced(args, client) -> tuple[Tally, dict]:
    """Three passes over a fixed request list; every pass must give
    byte-identical reports, which is the benchmark's re-run check."""
    reqs = workloads.first_requests(args.workload, args.seed, TRACE_REQUESTS[args.workload])
    k = len(reqs)
    tally = Tally()
    outputs = {}

    def one_pass(tracer=None):
        times = []
        if tracer:
            tracer.install()
        try:
            for i, req in enumerate(reqs):
                if tracer:
                    tracer.request = i
                dt, code, output = client.send(req)
                times.append(dt)
                tally.add(req, code, output)
                if outputs.setdefault(i, output) != output:
                    tally.messages.append(f"{req.name}: report differs between passes")
        finally:
            if tracer:
                tracer.remove()
        return times

    untraced = one_pass()
    traced = Tracer()
    traced_times = one_pass(traced)
    counting = Tracer(count_duals=True)
    one_pass(counting)

    differing = 0
    for i in range(k):
        a = dict(traced.counts[i])
        b = {key: v for key, v in counting.counts[i].items() if key != "dual.allocs"}
        if a != b:
            differing += 1
            diff = sorted(key for key in set(a) | set(b) if a.get(key) != b.get(key))
            tally.messages.append(f"{reqs[i].name}: counts differ between traced runs: {diff}")

    c = sum((traced.counts[i] for i in range(k)), start=Counter())
    per_request = self_times(traced.spans)
    st = Counter()
    for (_, name), secs in per_request.items():
        st[name] += secs

    def per(v):
        return v / k

    evals = sum(c[f"geometry.field_evals.{f}"] for f in ("gamma", "anchor", "torsion"))
    orient = c["development.bracket_orientation.calls"]
    m = {
        "dual.jacobian.calls": (per(c["dual.jacobian.calls"]), "1/request"),
        "dual.jacobian.self_s": (per(st["dual.jacobian"]), "s/request"),
        "dual.allocs": (per(sum(counting.counts[i]["dual.allocs"] for i in range(k))),
                        "1/request"),
        "geometry.field_evals": (per(evals), "1/request"),
        "geometry.field_evals.gamma": (per(c["geometry.field_evals.gamma"]), "1/request"),
        "geometry.field_evals.anchor": (per(c["geometry.field_evals.anchor"]), "1/request"),
        "geometry.field_evals.torsion": (per(c["geometry.field_evals.torsion"]), "1/request"),
        "geometry.field_evals.dual_ratio": (
            c["geometry.field_evals.dual"] / evals if evals else 0.0, "ratio"),
        "geometry.field_eval.self_s": (per(st["geometry.field_eval"]), "s/request"),
        "geometry.lie_bracket_vf.calls": (per(c["geometry.lie_bracket_vf.calls"]), "1/request"),
        "algebroid.conn.calls": (per(c["algebroid.conn.calls"]), "1/request"),
        "algebroid.conn.self_s": (per(st["algebroid.conn"]), "s/request"),
        "algebroid.bracket.calls": (per(c["algebroid.bracket.calls"]), "1/request"),
        "ode.rhs_calls": (per(c["ode.rhs_calls"]), "1/request"),
        "ode.steps": (per(c["ode.steps"]), "1/request"),
        "ode.rhs_per_step": (c["ode.rhs_calls"] / c["ode.steps"] if c["ode.steps"] else 0.0,
                             "ratio"),
        "ode.rhs.s": (per(st["ode.rhs"]), "s/request"),
        "ode.integrate.self_s": (per(st["ode.integrate"]), "s/request"),
        "ode.step_collapses": (per(c["ode.step_collapses"]), "1/request"),
        "development.orientation_cache.hit_ratio": (
            c["development.orientation_cache.hits"] / orient if orient else 0.0, "ratio"),
        "development.orientation_cache.size": (
            per(c["development.orientation_cache.added"]), "entries/request"),
    }
    for name in ("cartan.cocurvature", "cartan.curvature_conn", "transport.transport_matrix",
                 "transport.geodesic", "development.develop_point", "algebra.log_matrix",
                 "ode.integrate", "development.integrated_twist", "algebra.exp_matrix"):
        m[f"{name}.calls"] = (per(c[f"{name}.calls"]), "1/request")
    for name in ("cartan.cocurvature", "cartan.curvature_conn", "models.build",
                 "models.classify", "transport.transport_matrix", "transport.monodromy",
                 "transport.geodesic", "development.develop_point",
                 "development.development_jacobian", "development.reconstruct_atlas",
                 "algebra.log_matrix", "cli.parse", "cli.resolve_model", "cli.render"):
        m[f"{name}.s"] = (per(st[name]), "s/request")
    for op in OPS:
        m[f"cli.check.s.{op}"] = (per(st[f"cli.check.{op}"]), "s/request")
    p_un, p_tr = statistics.median(untraced), statistics.median(traced_times)
    m["trace.untraced_request_s.p50"] = (p_un, "s")
    m["trace.traced_request_s.p50"] = (p_tr, "s")
    m["trace.overhead_ratio"] = (p_tr / p_un, "ratio")

    print(f"# traced requests: {k} (fixed by the seed); every count and time is per request")
    for name in sorted(m):
        value, unit = m[name]
        line(name, value, unit, f"n={k} requests")
    print(f"# requests whose counts differ between the two traced passes: {differing}")
    print(f"# spans recorded in the traced run: {len(traced.spans)}")
    summary = [{"request": req.name, "model": req.model, "counts": dict(traced.counts[i]),
                "self_s": {name: secs for (j, name), secs in sorted(per_request.items())
                           if j == i}}
               for i, req in enumerate(reqs)]
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"# per-request counts and self times: {path.relative_to(ROOT)}")
    return tally, m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "cartanlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cartanlab sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from cartanlab import cli
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}\n")
        return 2

    env = environment()
    OUT.mkdir(exist_ok=True)
    client = Client(cli, OUT / f"request-{os.getpid()}.yaml")
    try:
        if args.trace:
            tally, metrics = run_traced(args, client)
        else:
            setups, setups_adj = measure_setup(workloads.MODELS[args.workload])
            tally, metrics = run_untraced(args, client)
            note = f"n={len(setups)} fresh interpreters, models {workloads.MODELS[args.workload]}"
            line("setup_s", statistics.median(setups_adj), "s", note + ", speed-adjusted")
            line("setup_s.wall", statistics.median(setups), "s", note)
            metrics["setup_s"] = (statistics.median(setups_adj), "s")
    finally:
        client.path.unlink(missing_ok=True)
    env["loadavg_after"] = loadavg()
    print("# environment: " + json.dumps(env, sort_keys=True))
    for msg in tally.messages[:50]:
        print(f"# FAILED {msg}")
    correct = tally.failed == 0 and not tally.messages
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in sorted(metrics.items())}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
