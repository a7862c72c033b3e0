"""Parallel transport, monodromy, geodesics and completeness probes.

Transport solves dX^a/dt + Gamma^a_{ib} dm^i/dt X^b = 0 along a base
path, applying fiber transition matrices at chart switches of a glued
algebroid.  Geodesics couple that equation with dm/dt = a(m) X.

Completeness verdicts are one-sided: numerical integration can certify
incompleteness (the fiber norm or the base speed reaching the blow-up
norm at a finite time, integrated in a rescaled time that stays finite
there) but only ever reports the absence of blow-up within a horizon.  A
solve that merely stops (a step collapse) certifies nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dual
from .dual import Dual, value
from .algebra import AlgebraMap, Subalgebra
from .algebroid import AlgebroidChart, GluedAlgebroid
from .cartan import TensorReport, bar_tm_tensor, fiber_bracket_at, worst
from .geometry import Chart, as_point
from .ode import integrate, rk4

BLOWUP_NORM = 1e6
# speed above which geodesics are integrated in rescaled time (see
# _geodesic_rhs); below it the steps are those of an integration in t
RESCALE_SPEED = 100.0
EXIT_MARGIN = 1e-6
# chart switches after which a glued geodesic stops ("switch_limit")
MAX_SWITCHES = 500
# largest gap between consecutive path segments, and between a loop's ends
CONTINUITY_TOL = 1e-6
# anchor singular values below CUTOFF times the largest span the isotropy;
# a retained/discarded ratio below ISOTROPY_GAP flags an ill-conditioned split
ISOTROPY_CUTOFF, ISOTROPY_GAP = 1e-8, 1e3


class TransportError(RuntimeError):
    pass


# -- paths --------------------------------------------------------------------

@dataclass(frozen=True)
class PathSegment:
    chart: int
    curve: Callable  # dual-safe map t -> point
    t0: float = 0.0
    t1: float = 1.0
    # endpoints (a, b) when the curve is a + t (b - a) on [0, 1]
    line: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False)

    def velocity(self, t: float):
        return dual.eps_part(np.asarray(self.curve(Dual(t, 1.0)), dtype=object))

    def point(self, t: float):
        return value(np.asarray(self.curve(t), dtype=object))

    def point_velocity(self, t: float):
        """Point and velocity as floats from one evaluation of the curve."""
        c = np.asarray(self.curve(Dual(t, 1.0)), dtype=object)
        return value(c), value(dual.eps_part(c))


def segment_batch(segs) -> Callable:
    """t -> float points and velocities (B, n) of segments that share one
    time span.  A batch of line segments reads them off its endpoints,
    stacked once; any other batch calls each ``point_velocity``."""
    if all(s.line is not None for s in segs):
        a = np.stack([s.line[0] for s in segs])
        v = np.stack([s.line[1] - s.line[0] for s in segs])
        return lambda t: (a + t * v, v)

    def each(t):
        ms, vs = zip(*(s.point_velocity(t) for s in segs))
        return np.stack(ms), np.stack(vs)
    return each


@dataclass(frozen=True)
class BasePath:
    segments: tuple[PathSegment, ...]

    @property
    def start(self):
        s = self.segments[0]
        return s.chart, s.point(s.t0)

    @property
    def end(self):
        s = self.segments[-1]
        return s.chart, s.point(s.t1)

    def reverse(self) -> "BasePath":
        segs = []
        for s in reversed(self.segments):
            segs.append(PathSegment(
                s.chart, lambda t, _s=s: _s.curve(_s.t0 + _s.t1 - t), s.t0, s.t1))
        return BasePath(tuple(segs))

    def then(self, other: "BasePath") -> "BasePath":
        return BasePath(self.segments + other.segments)


def line_path(a, b) -> BasePath:
    """The segment a -> b in chart 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return BasePath((PathSegment(0, lambda t: a + t * (b - a), line=(a, b)),))


def polyline_path(points) -> BasePath:
    segs = []
    for a, b in zip(points[:-1], points[1:]):
        segs.extend(line_path(a, b).segments)
    return BasePath(tuple(segs))


@dataclass
class GPath:
    """Time-parameterized algebroid path with base footprint."""

    times: np.ndarray
    base: np.ndarray       # (T, n)
    fiber: np.ndarray      # (T, r)
    charts: tuple          # (T,) the chart whose coordinates each row is in

    @property
    def velocity(self) -> np.ndarray:
        """(T, n) base velocity a(m)X of each row, in its chart's coordinates."""
        return np.array([value(np.asarray(C.anchor(as_point(m)), dtype=object)) @ x
                         for C, m, x in zip(self.charts, self.base, self.fiber)])

    def to_table(self) -> list[list[float]]:
        """Rows (t, m..., X...) for CSV-style export."""
        return [[float(t), *map(float, m), *map(float, x)]
                for t, m, x in zip(self.times, self.base, self.fiber)]

    def to_csv(self, path) -> None:
        import csv

        n = self.base.shape[1]
        r = self.fiber.shape[1]
        header = ["t"] + [f"m{i}" for i in range(n)] + [f"X{a}" for a in range(r)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(self.to_table())


# -- parallel transport -------------------------------------------------------

def _as_glued(G) -> GluedAlgebroid:
    if isinstance(G, GluedAlgebroid):
        return G
    if isinstance(G, AlgebroidChart):
        return GluedAlgebroid((G,), ())
    if hasattr(G, "chart"):
        return GluedAlgebroid((G.chart,), ())
    raise TypeError(f"expected a chart or glued algebroid, got {type(G)!r}")


def transport_matrix(G, path: BasePath) -> np.ndarray:
    """Fundamental transport matrix along the path, transitions included."""
    G = _as_glued(G)
    r = G.rank
    M = np.eye(r)
    prev_chart = None
    prev_end = None
    for seg in path.segments:
        C = G.charts[seg.chart]
        if prev_chart is not None:
            M = _apply_switch(G, prev_chart, seg.chart, prev_end,
                              seg.point(seg.t0)) @ M
        n = C.base.dim

        def rhs(t, mflat, _C=C, _seg=seg, _r=r):
            m, v = _seg.point_velocity(t)
            g = value(np.asarray(_C.gamma(as_point(m)), dtype=object))
            gv = np.einsum("iab,i->ab", g, v)
            return (-gv @ mflat.reshape(_r, _r)).reshape(-1)

        if not C.base.contains(seg.point(seg.t0)) or not C.base.contains(seg.point(seg.t1)):
            raise TransportError("path leaves its declared chart")
        out = integrate(rhs, (seg.t0, seg.t1), M.reshape(-1))
        if out.status != "completed":
            raise TransportError(f"transport ODE failed with status {out.status}")
        M = out.states[-1].reshape(r, r)
        prev_chart = seg.chart
        prev_end = seg.point(seg.t1)
    return M


def _apply_switch(G: GluedAlgebroid, i: int, j: int, m_end, m_next) -> np.ndarray:
    if i == j:
        if np.max(np.abs(m_end - m_next)) > CONTINUITY_TOL:
            raise TransportError("path segments are discontinuous")
        return np.eye(G.rank)
    candidates = G.overlaps_between(i, j)
    if not candidates:
        raise TransportError(f"no overlap between charts {i} and {j}")
    for ov in candidates:
        image = value(np.asarray(ov.base_map(as_point(m_end)), dtype=object))
        if np.max(np.abs(image - m_next)) <= CONTINUITY_TOL:
            return value(np.asarray(ov.fiber_map(as_point(m_end)), dtype=object))
    raise TransportError("chart switch does not match any overlap base map")


def parallel_transport(G, path: BasePath, X0) -> np.ndarray:
    return transport_matrix(G, path) @ np.asarray(X0, dtype=float)


def monodromy(G, loop: BasePath) -> AlgebraMap:
    """Parallel transport around a closed loop as an algebra map on the
    fiber bracket at the base point."""
    G = _as_glued(G)
    c0, m0 = loop.start
    c1, m1 = loop.end
    if c0 != c1 or np.max(np.abs(np.asarray(m0) - np.asarray(m1))) > CONTINUITY_TOL:
        raise TransportError("monodromy requires a loop closed in its start chart")
    M = transport_matrix(G, loop)
    A0 = fiber_bracket_at(G.charts[c0], m0)
    return AlgebraMap(A0, A0, M)


# -- parallel frames ----------------------------------------------------------

@dataclass(frozen=True)
class ParallelFrame:
    """Basis of parallel sections over a simply-connected region, equal to
    the standard fiber basis at the anchor point."""

    chart: AlgebroidChart
    m0: np.ndarray
    region: Chart
    steps: int = 96
    path_dependence: float = 0.0

    def section(self, a: int) -> Callable:
        e = np.zeros(self.chart.rank)
        e[a] = 1.0

        def sec(m):
            return _transport_line_dual(self.chart, self.m0, m, e, self.steps)

        return sec

    def sections(self):
        return [self.section(a) for a in range(self.chart.rank)]


def _transport_line_dual(C: AlgebroidChart, m0, m, x0, steps: int):
    """Fixed-step RK4 transport along the straight segment m0 -> m.

    ``x0`` is a fiber vector or an r x k matrix whose columns are
    transported together.  The endpoint may carry dual coordinates, so
    sections built from this are differentiable like any other field.
    """
    m0 = np.asarray(m0, dtype=float)
    m = as_point(m)
    delta = m - m0.astype(object)

    def rhs(t, x):
        p = m0.astype(object) + t * delta
        g = np.asarray(C.gamma(p), dtype=object)
        gv = np.einsum("iab,i->ab", g, delta)
        return -(gv @ x)

    return rk4(rhs, 0.0, 1.0, np.asarray(x0, dtype=object), steps)


def parallel_frame(C: AlgebroidChart, m0, region: Chart | None = None,
                   steps: int = 96, dependence_tol: float = 1e-6) -> ParallelFrame:
    """Frame of parallel sections; fails loudly when straight-line and
    staircase transports disagree (flatness violation) at any of three
    probe points."""
    m0 = np.asarray(m0, dtype=float)
    region = region or C.base
    eye = np.eye(C.rank)
    gaps = []
    for m in region.halton_points(3, shrink=0.15):
        mid = np.array(m, dtype=float).copy()
        mid[0] = m0[0]
        # the columns of each transported identity are the transported basis
        direct = value(_transport_line_dual(C, m0, m, eye, steps))
        via = value(_transport_line_dual(
            C, mid, m, value(_transport_line_dual(C, m0, mid, eye, steps)), steps))
        gaps.append(np.max(np.abs(direct - via)))
    res = worst(gaps)
    if not res <= dependence_tol:
        raise TransportError(
            f"path-dependent transport (residual {res:.3e}); region is not flat")
    return ParallelFrame(C, m0, region, steps, res)


# -- geodesics ----------------------------------------------------------------

@dataclass
class GeodesicResult:
    path: GPath
    # "completed" | "escaped_chart" | "escaped_atlas" | "blowup" | "step_collapse"
    # | "switch_limit"
    status: str
    t_end: float
    chart: int = 0
    switches: int = 0
    steps: int = 0     # accepted ODE steps, summed over the solves
    nfev: int = 0      # right-hand-side evaluations, summed over the solves

    @property
    def certified_incomplete(self) -> bool:
        return self.status == "blowup"


def _geodesic_events(C: AlgebroidChart, t1: float, direction: float, blowup_norm: float):
    """Terminal events on the rescaled state z = (t, m, X): t reaches t1,
    the larger of the fiber norm and the base speed |a(m) X| (max-norms)
    reaches ``blowup_norm``, m comes within EXIT_MARGIN of the chart edge.
    Each takes one state or a stack of them."""
    n = C.base.dim
    lower, upper = np.asarray(C.base.lower, dtype=float), np.asarray(C.base.upper, dtype=float)

    def end_fn(s, z):
        return direction * (t1 - z[..., 0])

    def blow_fn(s, z):
        zs = np.atleast_2d(z)
        xs = zs[:, n + 1:]
        v = np.einsum("bir,br->bi", C.anchor.values(zs[:, 1:n + 1]), xs)
        g = blowup_norm - np.maximum(abs(xs).max(axis=1), abs(v).max(axis=1))
        return g if np.ndim(z) == 2 else float(g[0])

    def exit_fn(s, z):
        m = z[..., 1:n + 1]
        return np.min(np.minimum(m - lower, upper - m), axis=-1) - EXIT_MARGIN

    events = [("end", end_fn), ("blowup", blow_fn)]
    if np.any(np.isfinite(lower)) or np.any(np.isfinite(upper)):
        events.append(("escaped_chart", exit_fn))
    return events


def _geodesic_rhs(C: AlgebroidChart, direction: float):
    """dz/ds of z = (t, m, X) in the rescaled time s, ds = (1 + |f|/K) |dt|
    with K = RESCALE_SPEED, where f = (a(m) X, -Gamma(a(m) X) X) is the
    geodesic field in t.  Below speed K, s runs nearly like t; above it
    |dz/ds| <= K, so a blow-up at finite t* is an infinite s-span over
    which t(s) converges to t*.  The scale is taken out before the norm,
    so a huge but finite f cannot overflow the norm and freeze t; a
    non-finite f is passed on for the solver's overflow guard."""
    n = C.base.dim

    def rhs(s, z):
        m, x = z[1:n + 1], z[n + 1:]
        v = value(np.asarray(C.anchor(as_point(m)), dtype=object)) @ x
        g = value(np.asarray(C.gamma(as_point(m)), dtype=object))
        w = np.concatenate(([1.0], v, -np.einsum("iab,i,b->a", g, v, x)))
        top = abs(w).max()
        if not top < np.inf:
            return w
        w /= top        # w[0] = 1/top, so 1 + |f|/K = top (w[0] + |w[1:]|/K)
        f = w[1:]
        return w * (direction / (w[0] + math.sqrt(f @ f) / RESCALE_SPEED))

    return rhs


def geodesic(C: AlgebroidChart, m0, X0, span=(0.0, 1.0),
             blowup_norm: float = BLOWUP_NORM) -> GeodesicResult:
    """Integrate dm/dt = a(m) X, nabla_{dm/dt} X = 0 from (m0, X0)."""
    C.base.require_interior(np.asarray(m0, dtype=float))
    return _geodesic_run(GluedAlgebroid((C,), ()), 0, m0, X0, span, blowup_norm,
                         max_switches=0, exit_status="escaped_chart")


def geodesic_glued(G, chart: int, m0, X0, span=(0.0, 1.0)) -> GeodesicResult:
    """Geodesic integration across chart switches of a glued algebroid,
    stopped with status "switch_limit" after MAX_SWITCHES switches."""
    return _geodesic_run(_as_glued(G), chart, m0, X0, span, BLOWUP_NORM,
                         MAX_SWITCHES, exit_status="escaped_atlas")


def _geodesic_run(G: GluedAlgebroid, chart: int, m0, X0, span, blowup_norm: float,
                  max_switches: int, exit_status: str) -> GeodesicResult:
    """The integration loop behind both public geodesic functions, which
    must not call each other: each is traced as one geodesic.

    Each leg, one chart between switches, is one solve in the rescaled
    time s of ``_geodesic_rhs`` with terminal events (``_geodesic_events``).
    Its s-span (1 + blowup_norm/K) |t1 - t| is only an upper bound, so
    the first step is the s-length the leg would take at its start speed.
    Blow-up is certified when the fiber norm or the base speed reaches
    ``blowup_norm``.  A leg that stops short of t1 otherwise, by a
    collapsed step or by spending its whole s-span (|f| above
    ``blowup_norm`` on average), reports "step_collapse"; a run past
    ``max_switches`` chart switches reports "switch_limit".  Neither
    certifies anything."""
    t = float(span[0])
    t_final = float(span[1])
    m = np.asarray(m0, dtype=float)
    x = np.asarray(X0, dtype=float)
    direction = 1.0 if t_final >= t else -1.0
    times, bases, fibers, charts = [], [], [], []
    switches = steps = nfev = 0
    while True:
        C = G.charts[chart]
        n = C.base.dim
        v = C.anchor.values(m[None])[0] @ x
        if not max(np.max(np.abs(x)), np.max(np.abs(v))) < blowup_norm:
            if not times:
                raise ValueError(f"start fiber {x.tolist()} or its base speed {v.tolist()} is "
                                 f"not below the blow-up norm {blowup_norm:g}, so its blow-up "
                                 f"event could never fire")
            status = "blowup"
            break
        dt = abs(t_final - t)
        # a margin past the start speed's s-length, so that a constant
        # field's first step ends beyond t1 and not a rounding short of it
        first = (1 + 1e-6) * (1 + np.linalg.norm(v) / RESCALE_SPEED) * dt
        out = integrate(_geodesic_rhs(C, direction),
                        (0.0, (1 + blowup_norm / RESCALE_SPEED) * dt),
                        np.concatenate([[t], m, x]),
                        events=_geodesic_events(C, t_final, direction, blowup_norm),
                        first_step=first)
        z = out.states
        times.extend(z[:, 0].tolist())
        bases.extend(z[:, 1:n + 1].tolist())
        fibers.extend(z[:, n + 1:].tolist())
        charts.extend([C] * len(z))
        steps, nfev = steps + out.steps, nfev + out.nfev
        t, m, x = z[-1, 0], z[-1, 1:n + 1], z[-1, n + 1:]
        if out.status == "event:end" or dt == 0:
            status, t = "completed", t_final
            times[-1] = t
            break
        if out.status == "event:blowup":
            status = "blowup"
            break
        if out.status != "event:escaped_chart":
            status = "step_collapse"
            break
        # chart exit: look for a continuation chart
        nxt = _find_switch(G, chart, m)
        if nxt is None:
            status = exit_status
            break
        chart, m, x = nxt[0], nxt[1], nxt[2] @ x
        switches += 1
        if switches > max_switches:
            status = "switch_limit"
            break
    gp = GPath(np.asarray(times), np.asarray(bases), np.asarray(fibers), tuple(charts))
    return GeodesicResult(gp, status, float(t), chart, switches, steps, nfev)


def _find_switch(G: GluedAlgebroid, chart: int, m):
    best = None
    for j in range(len(G.charts)):
        if j == chart:
            continue
        for ov in G.overlaps_between(chart, j):
            if not ov.region_i.contains(m, margin=-10 * EXIT_MARGIN):
                continue
            image = value(np.asarray(ov.base_map(as_point(m)), dtype=object))
            dist = G.charts[j].base.boundary_distance(image)
            if dist > 50 * EXIT_MARGIN and (best is None or dist > best[3]):
                mu = value(np.asarray(ov.fiber_map(as_point(m)), dtype=object))
                best = (j, image, mu, dist)
    return best[:3] if best else None


# -- completeness -------------------------------------------------------------

@dataclass(frozen=True)
class SeedVerdict:
    seed: tuple
    verdict: str            # "certified-incomplete" | "no-blowup-within-horizon"
    t_star: float | None
    note: str = ""


def completeness_probe(obj, seeds, horizon: float = 100.0) -> list[SeedVerdict]:
    """One-sided completeness verdicts; never claims completeness.

    Seeds are (m0, X0) for a single chart or (chart, m0, X0) for a glued
    algebroid.  Both time directions are probed.
    """
    G = _as_glued(obj)
    verdicts = []
    for seed in seeds:
        if len(seed) == 3:
            chart, m0, X0 = seed
        else:
            chart, (m0, X0) = 0, seed
        worst: tuple[str, float | None, str] = ("no-blowup-within-horizon", None, "")
        for sign in (+1.0, -1.0):
            res = geodesic_glued(G, chart, m0, X0, (0.0, sign * horizon))
            if res.status == "blowup":
                worst = ("certified-incomplete", res.t_end, "")
                break
            if res.status == "escaped_atlas":
                worst = ("no-blowup-within-horizon", None,
                         f"left the atlas at t={res.t_end:.6g}; verdict limited to the atlas")
            elif res.status in ("step_collapse", "switch_limit"):
                worst = ("no-blowup-within-horizon", None, f"integration stopped at "
                         f"t={res.t_end:.6g} ({res.status.replace('_', ' ')})")
        verdicts.append(SeedVerdict(tuple(map(tuple, (np.atleast_1d(m0), np.atleast_1d(X0)))),
                                    worst[0], worst[1], worst[2]))
    return verdicts


# -- isotropy -----------------------------------------------------------------

@dataclass(frozen=True)
class IsotropyResult:
    subalgebra: Subalgebra
    singular_values: np.ndarray
    well_conditioned: bool


def isotropy_subalgebra(C: AlgebroidChart, m0) -> IsotropyResult:
    """Kernel of the anchor at m0 inside the fiber bracket algebra."""
    m0 = as_point(m0)
    a = value(np.asarray(C.anchor(m0), dtype=object))
    u, s, vt = np.linalg.svd(a)
    scale = s[0] if len(s) and s[0] > 0 else 1.0
    keep = s > ISOTROPY_CUTOFF * scale
    killed = [vt[k] for k in range(C.rank) if k >= len(s) or not keep[k]]
    # rank-gap diagnostic between smallest retained and largest discarded
    retained = s[keep] if np.any(keep) else np.array([])
    discarded = s[~keep] if np.any(~keep) else np.array([])
    ok = True
    if len(retained) and len(discarded) and discarded.max() > 0:
        ok = retained.min() / discarded.max() >= ISOTROPY_GAP
    parent = fiber_bracket_at(C, m0)
    sub = Subalgebra(parent, tuple(np.asarray(v, dtype=float) for v in killed))
    return IsotropyResult(sub, s, ok)


# -- sufficient-condition checkers --------------------------------------------

def invariant_metric_check(C: AlgebroidChart, sigma, tol: float = 1e-7,
                           samples=None) -> TensorReport:
    """Residual of the induced derivative of the metric along fiber
    directions: #x . sigma(V,W) - sigma(bar_x V, W) - sigma(V, bar_x W),
    by default at 10 points drawn with seed 42."""
    if samples is None:
        samples = C.base.sample_points(np.random.default_rng(42), 10)
    per = []
    for m in samples:
        m = as_point(m)
        sig = value(np.asarray(sigma(m), dtype=object))
        J = C.jet(m)
        bar = bar_tm_tensor(J)     # bar[:, a, k] = nabla_bar_{e_a} e_k
        res = []
        for a in range(C.rank):
            dsig = dual.directional(lambda p: np.asarray(sigma(as_point(p)), dtype=object),
                                    m, J.anchor[:, a])
            res.append(value(np.asarray(dsig, dtype=object)) - sig @ bar[:, a] - bar[:, a].T @ sig)
        per.append(float(np.max(np.abs(res), initial=0.0)))
    return TensorReport("invariant_metric_check", worst(per), tol, tuple(per),
                        tuple(map(tuple, np.asarray(samples, dtype=float))))


@dataclass(frozen=True)
class CompactnessReport:
    verdict: str                 # "consistent-with-compact-closure" | "unbounded"
    witness_word: tuple[int, ...] | None
    max_modulus_deviation: float
    max_word_norm: float

    @property
    def passed(self) -> bool:
        return self.verdict == "consistent-with-compact-closure"


def monodromy_compactness_probe(maps, norm_bound: float = 1e3) -> CompactnessReport:
    """Heuristic compact-closure probe on monodromy generators.

    Words over the generators and their inverses are scanned up to length
    6; any eigenvalue modulus more than 1e-9 away from 1 or word norm
    above ``norm_bound`` produces an "unbounded" verdict with a witness
    word.  Each word
    length is one stacked product, eigenvalue and norm computation, read
    in scan order so the first violating word is the witness.
    """
    labels, mats = [], []
    for k, M in enumerate(maps):
        mat = M.matrix if isinstance(M, AlgebraMap) else np.asarray(M, dtype=float)
        labels += [k + 1, -(k + 1)]
        mats += [mat, np.linalg.inv(mat)]
    max_dev = 0.0
    max_norm = 0.0
    if not mats:
        return CompactnessReport("consistent-with-compact-closure", None, max_dev, max_norm)
    gens = np.stack(mats)
    words = [()]
    frontier = np.eye(gens.shape[1])[None]
    for _ in range(6):
        pairs = [(f, j) for f, w in enumerate(words) for j, label in enumerate(labels)
                 if not (w and w[-1] == -label)]
        fi, gj = np.array(pairs).T
        frontier = frontier[fi] @ gens[gj]
        words = [words[f] + (labels[j],) for f, j in pairs]
        devs = np.max(np.abs(np.abs(np.linalg.eigvals(frontier)) - 1.0), axis=1)
        norms = np.linalg.norm(frontier, 2, axis=(1, 2))
        bad = np.nonzero((devs > 1e-9) | (norms > norm_bound))[0]
        seen = bad[0] + 1 if len(bad) else len(words)
        max_dev = max(max_dev, float(np.max(devs[:seen])))
        max_norm = max(max_norm, float(np.max(norms[:seen])))
        if len(bad):
            return CompactnessReport("unbounded", words[bad[0]], max_dev, max_norm)
    return CompactnessReport("consistent-with-compact-closure", None, max_dev, max_norm)


@dataclass(frozen=True)
class EscapeBound:
    T: float
    sup_norm: float
    verified: bool
    note: str = ("box-coordinate balls replace geodesic balls; the bound "
                 "is conservative for metrics dominating the box metric")


def escape_bound(V, sigma, chart: Chart, m, r: float) -> EscapeBound:
    """Uniform flow-time lower bound T = r / sup_{B_2r} |V|.

    The supremum is sampled on a grid of 33 points per axis over the box
    ball of radius 2r, and integral curves from three points of the inner
    ball are integrated for |t| <= T as a cross-check.
    """
    m = np.asarray(m, dtype=float)
    n = len(m)
    axes = [np.linspace(mi - 2 * r, mi + 2 * r, 33) for mi in m]
    sup = 0.0
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([ax.reshape(-1) for ax in mesh], axis=1)
    for p in pts:
        if not chart.contains(p, margin=0.0):
            continue
        v = value(np.asarray(V(as_point(p)), dtype=object))
        g = value(np.asarray(sigma(as_point(p)), dtype=object))
        sup = max(sup, float(np.sqrt(v @ g @ v)))
    if sup == 0.0:
        return EscapeBound(np.inf, 0.0, True)
    T = r / sup
    ok = True
    rng = np.random.default_rng(7)
    for _ in range(3):
        p0 = m + rng.uniform(-r, r, size=n)
        for sign in (1.0, -1.0):
            out = integrate(lambda t, y: value(np.asarray(V(as_point(y)), dtype=object)),
                            (0.0, sign * T), p0)
            if out.status != "completed":
                ok = False
            else:
                if np.max(np.abs(out.states[-1] - m)) > 3 * r + 1e-9:
                    ok = False
    return EscapeBound(T, sup, ok)
