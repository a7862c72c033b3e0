"""Tests of the benchmark itself: run with
``python3 -m pytest perfbench/tests -q`` from the repository root."""

import io
import json
import math
import signal
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import speed
import workloads
from spans import Tracer, self_times
from cartanlab import cli, models, transport
from cartanlab.dual import value
from cartanlab.geometry import as_point

RUN = workloads.__file__.replace("workloads.py", "run.py")


def _send(req, tmp_path):
    path = tmp_path / "req.yaml"
    path.write_text(req.text)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["run", str(path), "--format", "json"])
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_in_its_seed(workload):
    a = [r.text for r in workloads.first_requests(workload, 7, 6)]
    b = [r.text for r in workloads.first_requests(workload, 7, 6)]
    c = [r.text for r in workloads.first_requests(workload, 8, 6)]
    assert a == b
    assert a != c


def test_generator_mixes():
    kinds = lambda w: [r.model for r in workloads.first_requests(w, 3, 12)]  # noqa: E731
    certify = kinds("certify")
    assert all(a != b for a, b in zip(certify, certify[1:]))
    assert kinds("develop").count("flat_torus") == 8
    assert sorted(set(kinds("geodesic"))) == sorted(workloads.MODELS["geodesic"])


def test_chart_boxes_match_the_catalog():
    sphere = models.sphere2().rc.chart.base
    hyper = models.hyperbolic2().rc.chart.base
    assert tuple(zip(sphere.lower, sphere.upper)) == workloads.SPHERE_BOX
    assert tuple(zip(hyper.lower, hyper.upper)) == workloads.HYPERBOLIC_BOX
    assert workloads.EXIT_MARGIN == transport.EXIT_MARGIN


@pytest.mark.parametrize("theta0,x0", [(0.3, 0.7), (-0.8, -1.6)])
def test_circle_escape_time(theta0, x0):
    t_star = workloads.circle_escape_time(theta0, x0)
    res = transport.geodesic(models.counterexample_s1().cover.chart, [theta0], [x0],
                             span=(0.0, 1.5 * t_star))
    assert res.status == "blowup"
    assert res.t_end == pytest.approx(t_star, abs=workloads.ESCAPE_TOL)


def test_monodromy_eigenvalues():
    for name, want in workloads.MONODROMY_EIGENVALUES.items():
        model = models.load_model(name)
        loops = getattr(model, "loops", None) or [model.generator_loop]
        got = sorted(x for lp in loops for x in
                     np.abs(np.linalg.eigvals(transport.monodromy(model.glued, lp).matrix)))
        assert got == pytest.approx(sorted(want), rel=workloads.EIGEN_RTOL)


def test_scalar_form_and_classify_tags():
    for name, tag in workloads.CLASSIFY_TAG.items():
        model = models.load_model(name)
        cls = models.classify_constant_curvature(model.rc, model.m0)
        assert cls.tag == tag
        assert abs(cls.s) == pytest.approx(workloads.SCALAR_ABS_S, abs=workloads.SCALAR_TOL)


@pytest.mark.parametrize("name", ["sphere2", "hyperbolic2"])
def test_curved_geodesic_keeps_its_metric_speed_inside_the_bound(name):
    reqs = [r for r in workloads.first_requests("geodesic", 11, 8) if r.model == name]
    check = reqs[0].doc["checks"][0]
    model = models.load_model(name)
    res = transport.geodesic(model.rc.chart, check["point"], check["fiber"],
                             span=tuple(check["span"]))
    assert res.status == "completed"
    speed0 = math.hypot(*check["fiber"][:2])
    speeds = []
    for m, v in zip(res.path.base, res.path.velocity):
        g = value(np.asarray(model.metric(as_point(m)), dtype=object))
        speeds.append(math.sqrt(v @ g @ v))
    assert speeds == pytest.approx([speed0] * len(speeds), rel=1e-6)
    skew = res.path.fiber[:, 2]
    assert skew == pytest.approx([check["fiber"][2]] * len(skew), abs=1e-9)
    span = abs(check["span"][1] - check["span"][0])
    assert speed0 * span <= workloads.EXIT_DISTANCE[name](check["point"])


def test_verify_accepts_real_reports_and_flags_wrong_ones(tmp_path):
    req = next(r for r in workloads.requests("geodesic", 5) if r.model == "counterexample_s1")
    code, out = _send(req, tmp_path)
    assert workloads.verify(req, code, out) == (0, [])
    doc = json.loads(out)
    doc["checks"][0]["witnesses"]["t_end"] += 0.01
    failed, msgs = workloads.verify(req, 0, json.dumps(doc))
    assert failed == 1 and "t_end" in msgs[0]
    assert workloads.verify(req, 1, out)[0] == req.checks
    assert workloads.verify(req, None, "")[0] == req.checks


def test_self_times_on_a_synthetic_span_tree():
    # request [0, 10] > a [1, 6] > b [2, 3], c [4, 5.5]; d [7, 9] > b [7.5, 8]
    spans = [("request", 0.0, 10.0, -1, 0), ("a", 1.0, 6.0, 0, 0), ("b", 2.0, 3.0, 1, 0),
             ("c", 4.0, 5.5, 1, 0), ("d", 7.0, 9.0, 0, 0), ("b", 7.5, 8.0, 4, 0)]
    spans += [("request", 20.0, 21.0, -1, 1), ("b", 20.5, 20.75, 6, 1)]
    st = self_times(spans)
    assert st == pytest.approx({(0, "request"): 3.0, (0, "a"): 2.5, (0, "b"): 1.5,
                                (0, "c"): 1.5, (0, "d"): 1.5, (1, "request"): 0.75,
                                (1, "b"): 0.25})


def test_trimmed_mean_drops_one_outlier_in_ten():
    assert speed.trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    assert speed.trimmed_mean([2.0, 4.0]) == 3.0


def test_sampler_probes_during_work_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.35:
            pass
    assert len(sampler.samples) >= 2
    assert 0 < sampler.overhead < 0.35
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # a request with no probe of its own falls back to recent probes
    n = len(sampler.samples)
    assert sampler.factor(n) > 0 and len(sampler.samples) == n


def test_traced_counts_repeat_and_tracing_is_removed(tmp_path):
    from cartanlab import dual, ode
    originals = (dual.jacobian, ode.integrate, transport.integrate, cli.CHECKS["completeness"])
    req = next(r for r in workloads.requests("geodesic", 2) if r.model == "sphere2")
    counts, outputs = [], []
    for count_duals in (False, True):
        tracer = Tracer(count_duals=count_duals)
        tracer.install()
        try:
            tracer.request = 0
            outputs.append(_send(req, tmp_path)[1])
        finally:
            tracer.remove()
        counts.append(dict(tracer.counts[0]))
        assert self_times(tracer.spans)[0, "ode.rhs"] > 0
    assert counts[1].pop("dual.allocs") > 0
    assert counts[0] == counts[1]
    assert counts[0]["ode.integrate.calls"] == counts[0]["transport.geodesic.calls"] == 1
    assert counts[0]["ode.rhs_calls"] == counts[0]["ode.rhs.calls"] > 0
    assert counts[0]["geometry.field_evals.gamma"] == counts[0]["ode.rhs_calls"]
    assert outputs[0] == outputs[1]
    assert originals == (dual.jacobian, ode.integrate, transport.integrate,
                         cli.CHECKS["completeness"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_failed_checks(workload):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "4",
                           "--seconds", "0.1", "--trace", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "failed_ratio" in proc.stdout and " 0 ratio" in proc.stdout
    spec = json.loads((Path(RUN).parents[1] / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
