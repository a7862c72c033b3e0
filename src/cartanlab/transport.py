"""Parallel transport, monodromy, geodesics and completeness probes.

Transport solves dX^a/dt + Gamma^a_{ib} dm^i/dt X^b = 0 along a base
path, applying fiber transition matrices at chart switches of a glued
algebroid.  Geodesics couple that equation with dm/dt = a(m) X.

Completeness verdicts are one-sided: numerical integration can certify
incompleteness (norm blow-up or step collapse at a finite time) but only
ever reports the absence of blow-up within a horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dual
from .dual import Dual, value
from .algebra import AlgebraMap, Subalgebra
from .algebroid import AlgebroidChart, GluedAlgebroid
from .cartan import TensorReport, bar_tm_tensor, fiber_bracket_at
from .geometry import Chart, as_point
from .ode import integrate, rk4

BLOWUP_NORM = 1e6
EXIT_MARGIN = 1e-6


class TransportError(RuntimeError):
    pass


# -- paths --------------------------------------------------------------------

@dataclass(frozen=True)
class PathSegment:
    chart: int
    curve: Callable  # dual-safe map t -> point
    t0: float = 0.0
    t1: float = 1.0

    def velocity(self, t: float):
        return dual.eps_part(np.asarray(self.curve(Dual(t, 1.0)), dtype=object))

    def point(self, t: float):
        return value(np.asarray(self.curve(t), dtype=object))

    def point_velocity(self, t: float):
        """Point and velocity as floats from one evaluation of the curve."""
        c = np.asarray(self.curve(Dual(t, 1.0)), dtype=object)
        return value(c), value(dual.eps_part(c))


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


def line_path(a, b, chart: int = 0) -> BasePath:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return BasePath((PathSegment(chart, lambda t: a + t * (b - a)),))


def polyline_path(points, chart: int = 0) -> BasePath:
    segs = []
    for a, b in zip(points[:-1], points[1:]):
        segs.extend(line_path(a, b, chart).segments)
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


def transport_matrix(G, path: BasePath, sub_tol: float = 1e-6) -> np.ndarray:
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
                              seg.point(seg.t0), sub_tol) @ M
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


def _apply_switch(G: GluedAlgebroid, i: int, j: int, m_end, m_next, tol) -> np.ndarray:
    if i == j:
        if np.max(np.abs(m_end - m_next)) > tol:
            raise TransportError("path segments are discontinuous")
        return np.eye(G.rank)
    candidates = G.overlaps_between(i, j)
    if not candidates:
        raise TransportError(f"no overlap between charts {i} and {j}")
    for ov in candidates:
        image = value(np.asarray(ov.base_map(as_point(m_end)), dtype=object))
        if np.max(np.abs(image - m_next)) <= tol:
            return value(np.asarray(ov.fiber_map(as_point(m_end)), dtype=object))
    raise TransportError("chart switch does not match any overlap base map")


def parallel_transport(G, path: BasePath, X0) -> np.ndarray:
    return transport_matrix(G, path) @ np.asarray(X0, dtype=float)


def monodromy(G, loop: BasePath, tol: float = 1e-6) -> AlgebraMap:
    """Parallel transport around a closed loop as an algebra map on the
    fiber bracket at the base point."""
    G = _as_glued(G)
    c0, m0 = loop.start
    c1, m1 = loop.end
    if c0 != c1 or np.max(np.abs(np.asarray(m0) - np.asarray(m1))) > tol:
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
                   steps: int = 96, dependence_tol: float = 1e-6,
                   probes: int = 3) -> ParallelFrame:
    """Frame of parallel sections; fails loudly when straight-line and
    staircase transports disagree (flatness violation)."""
    m0 = np.asarray(m0, dtype=float)
    region = region or C.base
    eye = np.eye(C.rank)
    worst = 0.0
    pts = region.halton_points(probes, shrink=0.15)
    for m in pts:
        mid = np.array(m, dtype=float).copy()
        mid[0] = m0[0]
        # the columns of each transported identity are the transported basis
        direct = value(_transport_line_dual(C, m0, m, eye, steps))
        via = value(_transport_line_dual(
            C, mid, m, value(_transport_line_dual(C, m0, mid, eye, steps)), steps))
        worst = max(worst, float(np.max(np.abs(direct - via))))
    if worst > dependence_tol:
        raise TransportError(
            f"path-dependent transport (residual {worst:.3e}); region is not flat")
    return ParallelFrame(C, m0, region, steps, worst)


# -- geodesics ----------------------------------------------------------------

@dataclass
class GeodesicResult:
    path: GPath
    status: str        # "completed" | "escaped_chart" | "blowup" | "escaped_atlas"
    t_end: float
    chart: int = 0
    switches: int = 0
    steps: int = 0     # accepted ODE steps, summed over the solves
    nfev: int = 0      # right-hand-side evaluations, summed over the solves

    @property
    def certified_incomplete(self) -> bool:
        return self.status == "blowup"


def _geodesic_events(C: AlgebroidChart, blowup_norm: float):
    n = C.base.dim

    def exit_fn(t, y, _C=C, _n=n):
        return _C.base.boundary_distance(y[:_n]) - EXIT_MARGIN

    def blow_fn(t, y):
        return blowup_norm - float(np.max(np.abs(y)))

    events = [("blowup", blow_fn)]
    if any(np.isfinite(C.base.lower)) or any(np.isfinite(C.base.upper)):
        events.append(("escaped_chart", exit_fn))
    return events


def _geodesic_rhs(C: AlgebroidChart):
    n, r = C.base.dim, C.rank

    def rhs(t, y, _C=C, _n=n, _r=r):
        m, x = y[:_n], y[_n:]
        a = value(np.asarray(_C.anchor(as_point(m)), dtype=object))
        v = a @ x
        g = value(np.asarray(_C.gamma(as_point(m)), dtype=object))
        dx = -np.einsum("iab,i,b->a", g, v, x)
        return np.concatenate([v, dx])

    return rhs


def geodesic(C: AlgebroidChart, m0, X0, span=(0.0, 1.0),
             blowup_norm: float = BLOWUP_NORM) -> GeodesicResult:
    """Integrate dm/dt = a(m) X, nabla_{dm/dt} X = 0 from (m0, X0)."""
    C.base.require_interior(np.asarray(m0, dtype=float))
    return _geodesic_run(GluedAlgebroid((C,), ()), 0, m0, X0, span, blowup_norm,
                         max_switches=0, exit_status="escaped_chart")


def geodesic_glued(G, chart: int, m0, X0, span=(0.0, 1.0),
                   blowup_norm: float = BLOWUP_NORM,
                   max_switches: int = 500) -> GeodesicResult:
    """Geodesic integration across chart switches of a glued algebroid."""
    return _geodesic_run(_as_glued(G), chart, m0, X0, span, blowup_norm,
                         max_switches, exit_status="escaped_atlas")


def _geodesic_run(G: GluedAlgebroid, chart: int, m0, X0, span, blowup_norm: float,
                  max_switches: int, exit_status: str) -> GeodesicResult:
    """The integration loop behind both public geodesic functions, which
    must not call each other: each is traced as one geodesic."""
    t = float(span[0])
    t_final = float(span[1])
    m = np.asarray(m0, dtype=float)
    x = np.asarray(X0, dtype=float)
    times, bases, fibers, charts = [], [], [], []
    switches = steps = nfev = 0
    status = "completed"
    while True:
        C = G.charts[chart]
        out = integrate(_geodesic_rhs(C), (t, t_final), np.concatenate([m, x]),
                        events=_geodesic_events(C, blowup_norm))
        n = C.base.dim
        times.extend(out.times.tolist())
        bases.extend(out.states[:, :n].tolist())
        fibers.extend(out.states[:, n:].tolist())
        charts.extend([C] * len(out.times))
        steps, nfev = steps + out.steps, nfev + out.nfev
        t = out.t_end
        m, x = out.states[-1, :n], out.states[-1, n:]
        if out.status == "completed":
            break
        if out.status in ("step_collapse", "event:blowup"):
            status = "blowup"
            break
        # chart exit: look for a continuation chart
        nxt = _find_switch(G, chart, m)
        if nxt is None:
            status = exit_status
            break
        chart, m, x = nxt[0], nxt[1], nxt[2] @ x
        switches += 1
        if np.max(np.abs(x)) >= blowup_norm:
            status = "blowup"
            break
        if switches > max_switches:
            status = "blowup"
            break
    gp = GPath(np.asarray(times), np.asarray(bases), np.asarray(fibers), tuple(charts))
    return GeodesicResult(gp, status, t, chart, switches, steps, nfev)


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


def completeness_probe(obj, seeds, horizon: float = 100.0,
                       blowup_norm: float = BLOWUP_NORM) -> list[SeedVerdict]:
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
            res = geodesic_glued(G, chart, m0, X0, (0.0, sign * horizon), blowup_norm)
            if res.status == "blowup":
                worst = ("certified-incomplete", res.t_end, "")
                break
            if res.status == "escaped_atlas":
                worst = ("no-blowup-within-horizon", None,
                         f"left the atlas at t={res.t_end:.6g}; verdict limited to the atlas")
        verdicts.append(SeedVerdict(tuple(map(tuple, (np.atleast_1d(m0), np.atleast_1d(X0)))),
                                    worst[0], worst[1], worst[2]))
    return verdicts


# -- isotropy -----------------------------------------------------------------

@dataclass(frozen=True)
class IsotropyResult:
    subalgebra: Subalgebra
    singular_values: np.ndarray
    well_conditioned: bool


def isotropy_subalgebra(C: AlgebroidChart, m0, cutoff: float = 1e-8,
                        gap: float = 1e3) -> IsotropyResult:
    """Kernel of the anchor at m0 inside the fiber bracket algebra."""
    m0 = as_point(m0)
    a = value(np.asarray(C.anchor(m0), dtype=object))
    u, s, vt = np.linalg.svd(a)
    scale = s[0] if len(s) and s[0] > 0 else 1.0
    keep = s > cutoff * scale
    killed = [vt[k] for k in range(C.rank) if k >= len(s) or not keep[k]]
    # rank-gap diagnostic between smallest retained and largest discarded
    retained = s[keep] if np.any(keep) else np.array([])
    discarded = s[~keep] if np.any(~keep) else np.array([])
    ok = True
    if len(retained) and len(discarded) and discarded.max() > 0:
        ok = retained.min() / discarded.max() >= gap
    parent = fiber_bracket_at(C, m0)
    sub = Subalgebra(parent, tuple(np.asarray(v, dtype=float) for v in killed))
    return IsotropyResult(sub, s, ok)


# -- sufficient-condition checkers --------------------------------------------

def invariant_metric_check(C: AlgebroidChart, sigma, tol: float = 1e-7,
                           samples=None, seed: int = 42) -> TensorReport:
    """Residual of the induced derivative of the metric along fiber
    directions: #x . sigma(V,W) - sigma(bar_x V, W) - sigma(V, bar_x W)."""
    if samples is None:
        samples = C.base.sample_points(np.random.default_rng(seed), 10)
    res = 0.0
    for m in samples:
        m = as_point(m)
        sig = value(np.asarray(sigma(m), dtype=object))
        J = C.jet(m)
        bar = bar_tm_tensor(J)     # bar[:, a, k] = nabla_bar_{e_a} e_k
        for a in range(C.rank):
            dsig = dual.directional(lambda p: np.asarray(sigma(as_point(p)), dtype=object),
                                    m, J.anchor[:, a])
            ra = value(np.asarray(dsig, dtype=object)) - sig @ bar[:, a] - bar[:, a].T @ sig
            res = max(res, float(np.max(np.abs(ra))))
    return TensorReport("invariant_metric_check", res, tol)


@dataclass(frozen=True)
class CompactnessReport:
    verdict: str                 # "consistent-with-compact-closure" | "unbounded"
    witness_word: tuple[int, ...] | None
    max_modulus_deviation: float
    max_word_norm: float

    @property
    def passed(self) -> bool:
        return self.verdict == "consistent-with-compact-closure"


def monodromy_compactness_probe(maps, word_length: int = 6, modulus_tol: float = 1e-9,
                                norm_bound: float = 1e3) -> CompactnessReport:
    """Heuristic compact-closure probe on monodromy generators.

    Words over the generators and their inverses are scanned up to the
    given length; any eigenvalue modulus away from 1 or unbounded word
    norm produces an "unbounded" verdict with a witness word.  Each word
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
    for _ in range(word_length):
        pairs = [(f, j) for f, w in enumerate(words) for j, label in enumerate(labels)
                 if not (w and w[-1] == -label)]
        fi, gj = np.array(pairs).T
        frontier = frontier[fi] @ gens[gj]
        words = [words[f] + (labels[j],) for f, j in pairs]
        devs = np.max(np.abs(np.abs(np.linalg.eigvals(frontier)) - 1.0), axis=1)
        norms = np.linalg.norm(frontier, 2, axis=(1, 2))
        bad = np.nonzero((devs > modulus_tol) | (norms > norm_bound))[0]
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


def escape_bound(V, sigma, chart: Chart, m, r: float,
                 grid: int = 33, verify_seeds: int = 3) -> EscapeBound:
    """Uniform flow-time lower bound T = r / sup_{B_2r} |V|.

    The supremum is sampled on a grid over the box ball of radius 2r and
    integral curves from the inner ball are integrated for |t| <= T as a
    cross-check.
    """
    m = np.asarray(m, dtype=float)
    n = len(m)
    axes = [np.linspace(mi - 2 * r, mi + 2 * r, grid) for mi in m]
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
    for _ in range(verify_seeds):
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
