"""Seeded scenario requests for the three benchmark workloads, their
expected outcomes, and the check of a schema-1 report against them.

A request is one scenario document: one catalog model and an ordered list
of checks.  Every request carries its expected outcome twice: inside the
scenario (``expect_*`` keys, so the CLI's own verdict tests it) and in
``Request.expect``, which ``verify`` compares with the JSON report using
the closed forms below, independently of the CLI's verdicts.

The generator draws only from the seed.  It never looks at how long a
request took or whether it passed, so slow or failing inputs stay in the
stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import count, islice

import numpy as np
import yaml

WORKLOADS = ("certify", "develop", "geodesic")

# e^{2 pi}: the counterexample_s1 monodromy eigenvalue and reconstructed
# transition multiplier.
CIRCLE_MU = math.exp(2.0 * math.pi)
MONODROMY_EIGENVALUES = {"counterexample_s1": [CIRCLE_MU],
                         "flat_torus": [1.0, 1.0, 1.0, 1.0]}
COMPACTNESS = {"counterexample_s1": "unbounded",
               "flat_torus": "consistent-with-compact-closure"}
CLASSIFY_TAG = {"sphere2": "spherical", "hyperbolic2": "hyperbolic"}
SCALAR_ABS_S = 1.0

SCALAR_TOL = 1e-6
EIGEN_RTOL = 1e-6
ESCAPE_TOL = 1e-3

# Chart boxes of the curved catalog models (geometry.sphere_metric(2) and
# geometry.hyperbolic_metric(2)) and the margin at which transport's
# chart-exit event fires (transport.EXIT_MARGIN).
SPHERE_BOX = ((0.2, math.pi - 0.2), (-3.0, 3.0))
HYPERBOLIC_BOX = ((-3.0, 3.0), (0.3, 3.0))
EXIT_MARGIN = 1e-6
# Share of the proven distance to the chart boundary that a curved
# geodesic may travel.
SPEED_SHARE = 0.8
CURVED_SPAN = 1.0

# half-open ranges of equivariance_diagram sample counts per develop model
EQUIVARIANCE_SAMPLES = {"flat_torus": (2, 5), "counterexample_s1": (16, 20)}
CIRCLE_HORIZON = 10.0
TORUS_HORIZON = 10.0
TORUS_COMPLETENESS_SEEDS = 12
CIRCLE_ESCAPES = 3
CIRCLE_COMPLETENESS_SEEDS = 2


def circle_escape_time(theta0: float, x0: float) -> float:
    """Blow-up time of the counterexample_s1 geodesic from (theta0, x0).

    The action is xi * e^{-theta} and the fiber stays constant, so
    d(e^theta)/dt = x0 and e^theta reaches 0 at t* = -e^{theta0} / x0.
    """
    return -math.exp(theta0) / x0


def sphere_exit_distance(m) -> float:
    """Lower bound on the round-metric length of any curve from m that
    reaches the chart-exit margin of the sphere2 chart.

    g = diag(1, sin^2 theta): moving theta by d costs length >= d, and
    moving phi by d costs >= sin(0.2) d because sin(theta) >= sin(0.2)
    on the chart.
    """
    (t_lo, t_hi), (p_lo, p_hi) = SPHERE_BOX
    theta, phi = float(m[0]), float(m[1])
    s = math.sin(t_lo)
    return min(theta - t_lo, t_hi - theta, s * (phi - p_lo), s * (p_hi - phi)) - EXIT_MARGIN


def hyperbolic_exit_distance(m) -> float:
    """Same bound for the hyperbolic2 chart, g = (dx^2 + dy^2) / y^2.

    Moving y from y0 to y1 costs >= |ln(y1 / y0)|; moving x by d costs
    >= d / 3 because y <= 3 on the chart.
    """
    (x_lo, x_hi), (y_lo, y_hi) = HYPERBOLIC_BOX
    x, y = float(m[0]), float(m[1])
    return min(math.log(y / y_lo), math.log(y_hi / y),
               (x - x_lo) / y_hi, (x_hi - x) / y_hi) - EXIT_MARGIN


EXIT_DISTANCE = {"sphere2": sphere_exit_distance, "hyperbolic2": hyperbolic_exit_distance}


@dataclass
class Request:
    """One generated scenario and what its report must say."""

    name: str
    model: str
    doc: dict
    expect: list[dict] = field(default_factory=list)

    @property
    def text(self) -> str:
        return yaml.safe_dump(self.doc, sort_keys=False)

    @property
    def checks(self) -> int:
        return len(self.doc["checks"])


def _scenario(name, model, seed, checks) -> dict:
    return {"name": name, "model": model, "seed": seed, "checks": checks}


def _certify(rng, i, phase) -> Request:
    model = ("sphere2", "hyperbolic2")[(i + phase) % 2]
    checks = [
        {"op": "is_cartan", "samples": 1, "tol": 1e-7},
        {"op": "is_flat", "samples": 2, "tol": 1e-7},
        {"op": "invariant_metric", "metric": "model", "samples": 2, "tol": 1e-7},
        {"op": "scalar_form_fit", "points": 2, "expect_abs_s": SCALAR_ABS_S,
         "tol": SCALAR_TOL, "spread_tol": SCALAR_TOL},
        {"op": "classify", "expect_tag": CLASSIFY_TAG[model]},
    ]
    expect = [{}, {}, {}, {"abs_s": SCALAR_ABS_S}, {"tag": CLASSIFY_TAG[model]}]
    seed = int(rng.integers(0, 2**31))
    return Request(f"certify-{i}", model, _scenario(f"certify-{i}", model, seed, checks),
                   expect)


def _develop(rng, i, phase) -> Request:
    # Two torus requests per circle request.  Circle requests carry more
    # equivariance samples so both kinds cost about the same and the
    # median never straddles a cheap and an expensive kind.
    model = ("flat_torus", "flat_torus", "counterexample_s1")[(i + phase) % 3]
    eigs = MONODROMY_EIGENVALUES[model]
    compact = COMPACTNESS[model]
    samples = EQUIVARIANCE_SAMPLES[model]
    checks = [
        {"op": "monodromy", "expect_eigenvalues": eigs, "rtol": EIGEN_RTOL},
        {"op": "compactness_probe", "expect": compact},
        {"op": "equivariance_diagram", "samples": int(rng.integers(*samples)), "tol": 1e-5},
        {"op": "reconstruct"},
    ]
    expect = [{"eigenvalues": eigs}, {"compactness": compact}, {}, {}]
    if model == "counterexample_s1":
        checks[1]["expect_witness_length"] = 1
        expect[1]["witness_length"] = 1
        checks[3].update(expect_multiplier=CIRCLE_MU, rtol=EIGEN_RTOL)
        expect[3]["multiplier"] = CIRCLE_MU
    seed = int(rng.integers(0, 2**31))
    return Request(f"develop-{i}", model, _scenario(f"develop-{i}", model, seed, checks),
                   expect)


def _circle_seed(rng) -> tuple[float, float]:
    theta0 = float(rng.uniform(-1.0, 1.0))
    x0 = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
    return theta0, x0


def _curved_geodesic(rng, model) -> tuple[dict, dict]:
    if model == "sphere2":
        m0 = [float(rng.uniform(0.6, math.pi - 0.6)), float(rng.uniform(-2.0, 2.0))]
    else:
        m0 = [float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.7, 2.0))]
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    # The base speed |a(m) X|_g equals |v| for all time (see README), so
    # |v| * span below the exit distance proves the run completes.
    speed = SPEED_SHARE * EXIT_DISTANCE[model](m0) / CURVED_SPAN
    fiber = [speed * math.cos(angle), speed * math.sin(angle), float(rng.uniform(-1.0, 1.0))]
    span = [0.0, CURVED_SPAN * float(rng.choice([-1.0, 1.0]))]
    check = {"op": "geodesic_escape", "point": m0, "fiber": fiber, "span": span,
             "expect_status": "completed"}
    return check, {"status": "completed", "t_end": span[1]}


def _geodesic(rng, i, phase) -> Request:
    model = ("sphere2", "hyperbolic2", "counterexample_s1", "flat_torus")[(i + phase) % 4]
    checks, expect = [], []
    if model in EXIT_DISTANCE:
        check, exp = _curved_geodesic(rng, model)
        checks.append(check)
        expect.append(exp)
    elif model == "counterexample_s1":
        for _ in range(CIRCLE_ESCAPES):
            theta0, x0 = _circle_seed(rng)
            t_star = circle_escape_time(theta0, x0)
            checks.append({"op": "geodesic_escape", "point": [theta0], "fiber": [x0],
                           "span": [0.0, 1.5 * t_star], "expect_t_star": t_star,
                           "tol": ESCAPE_TOL})
            expect.append({"status": "blowup", "t_star": t_star})
        seeds = [_circle_seed(rng) for _ in range(CIRCLE_COMPLETENESS_SEEDS)]
        checks.append({"op": "completeness", "horizon": CIRCLE_HORIZON,
                       "expect": "certified-incomplete",
                       "seeds": [{"point": [t], "fiber": [x]} for t, x in seeds]})
        expect.append({"verdict": "certified-incomplete",
                       "t_star": [circle_escape_time(t, x) for t, x in seeds]})
    else:
        seeds = [{"point": [float(v) for v in rng.uniform(-0.3, 0.3, 2)],
                  "fiber": [float(v) for v in rng.uniform(-1.0, 1.0, 2)]}
                 for _ in range(TORUS_COMPLETENESS_SEEDS)]
        checks.append({"op": "completeness", "horizon": TORUS_HORIZON,
                       "expect": "no-blowup-within-horizon", "seeds": seeds})
        expect.append({"verdict": "no-blowup-within-horizon",
                       "t_star": [None] * len(seeds)})
    seed = int(rng.integers(0, 2**31))
    return Request(f"geodesic-{i}", model, _scenario(f"geodesic-{i}", model, seed, checks),
                   expect)


_MAKERS = {"certify": _certify, "develop": _develop, "geodesic": _geodesic}
MODELS = {"certify": ("sphere2", "hyperbolic2"),
          "develop": ("flat_torus", "counterexample_s1"),
          "geodesic": ("sphere2", "hyperbolic2", "counterexample_s1", "flat_torus")}


def requests(workload: str, seed: int):
    """Endless, seed-determined stream of requests for a workload."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    phase = int(rng.integers(0, 12))
    make = _MAKERS[workload]
    for i in count():
        yield make(rng, i, phase)


def first_requests(workload: str, seed: int, n: int) -> list[Request]:
    return list(islice(requests(workload, seed), n))


# -- verification ---------------------------------------------------------------

def _close(got, want, rtol) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _check_failures(check: dict, op: str, exp: dict) -> list[str]:
    """Mismatches between one schema-1 check record and its expectation."""
    bad = []
    if check.get("name") != op:
        return [f"check name {check.get('name')!r}, expected {op!r}"]
    if check.get("verdict") != "pass":
        bad.append(f"{op}: verdict {check.get('verdict')!r}")
    w = check.get("witnesses", {})
    if "tag" in exp and w.get("tag") != exp["tag"]:
        bad.append(f"{op}: tag {w.get('tag')!r}, expected {exp['tag']!r}")
    if "abs_s" in exp and not abs(abs(w.get("s_mean", math.nan)) - exp["abs_s"]) <= SCALAR_TOL:
        bad.append(f"{op}: s_mean {w.get('s_mean')!r}, expected |s| = {exp['abs_s']}")
    if "eigenvalues" in exp:
        got = sorted(w.get("eigenvalues") or [])
        want = sorted(exp["eigenvalues"])
        if len(got) != len(want) or not all(_close(g, e, EIGEN_RTOL) for g, e in zip(got, want)):
            bad.append(f"{op}: eigenvalues {got}, expected {want}")
    if "compactness" in exp and w.get("verdict") != exp["compactness"]:
        bad.append(f"{op}: verdict {w.get('verdict')!r}, expected {exp['compactness']!r}")
    if "witness_length" in exp and len(w.get("witness_word") or []) != exp["witness_length"]:
        bad.append(f"{op}: witness word {w.get('witness_word')!r}")
    if "multiplier" in exp and not _close(w.get("fitted_multiplier", math.nan),
                                          exp["multiplier"], EIGEN_RTOL):
        bad.append(f"{op}: multiplier {w.get('fitted_multiplier')!r}")
    if "status" in exp and w.get("status") != exp["status"]:
        bad.append(f"{op}: status {w.get('status')!r}, expected {exp['status']!r}")
    if op == "geodesic_escape" and "t_end" in exp and w.get("t_end") != exp["t_end"]:
        bad.append(f"{op}: t_end {w.get('t_end')!r}, expected {exp['t_end']!r}")
    if op == "geodesic_escape" and "t_star" in exp and \
            not abs(w.get("t_end", math.nan) - exp["t_star"]) <= ESCAPE_TOL:
        bad.append(f"{op}: t_end {w.get('t_end')!r}, expected t* = {exp['t_star']!r}")
    if op == "completeness":
        verdicts = w.get("verdicts") or []
        if verdicts != [exp["verdict"]] * len(exp["t_star"]):
            bad.append(f"{op}: verdicts {verdicts}")
        for got, want in zip(w.get("t_star") or [], exp["t_star"]):
            if (want is None) != (got is None) or \
                    (want is not None and not abs(got - want) <= ESCAPE_TOL):
                bad.append(f"{op}: t_star {got!r}, expected {want!r}")
    return bad


def verify(req: Request, exit_code, output: str) -> tuple[int, list[str]]:
    """Return (failed checks, messages) for one request's CLI outcome.

    A nonzero exit code, an exception (``exit_code`` None) or an
    unreadable report fails every check of the request.
    """
    n = req.checks
    if exit_code != 0:
        return n, [f"{req.name}: exit code {exit_code!r}"]
    try:
        doc = json.loads(output)
    except json.JSONDecodeError as e:
        return n, [f"{req.name}: report is not JSON ({e})"]
    head = [("schema", 1), ("scenario", req.doc["name"]), ("seed", req.doc["seed"]),
            ("verdict", "pass")]
    msgs = [f"{req.name}: {k} {doc.get(k)!r}, expected {v!r}" for k, v in head
            if doc.get(k) != v]
    got = doc.get("checks") or []
    if len(got) != n:
        return n, msgs + [f"{req.name}: {len(got)} checks reported, expected {n}"]
    failed = 0
    for check, spec, exp in zip(got, req.doc["checks"], req.expect):
        bad = _check_failures(check, spec["op"], exp)
        failed += bool(bad)
        msgs.extend(f"{req.name}: {b}" for b in bad)
    if msgs and not failed:
        failed = n
    return failed, msgs
