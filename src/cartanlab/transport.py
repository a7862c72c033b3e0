"""Parallel transport, monodromy, geodesics and completeness probes.

Transport solves dX^a/dt + Gamma^a_{ib} dm^i/dt X^b = 0 along a base
path, a polyline of straight segments in chart coordinates, applying
fiber transition matrices at chart switches of a glued algebroid, read
in closed form off an overlap's cocycle entry, or off its inverse (built
when a switch first asks for it, and kept).  The equation is linear, so
a path's transport is the product of its segments' transports and its
transitions: every segment of a batch of paths is transported from the
identity as a lane of one solve on the group (``transport_matrices``),
and each path composes its segment matrices.  Geodesics couple that
equation with dm/dt = a(m) X and are integrated by the Runge-Kutta
driver.  Every right-hand side, node read, event and start check reads
the anchor and gamma as floats through ``SmoothField.values`` (the
closed-form batch where a field has one), and the path's points and
velocities through ``segment_batch``, so a geodesic and its blow-up
event see the same anchor.  Geodesics run as the lanes of one lane solve
per chart and round (``_geodesic_runs``): a completeness probe
integrates all its seeds in both directions together, ``geodesic`` a
stack of starts (the CLI's one run per scenario), each lane bit for bit
as it runs alone, and a lane that leaves its chart switches chart and
runs on in the next round's solve of its new chart.  A start at or
above the blow-up norm is refused by one test (``below_blowup``), which
the scenario parse pass makes too.

Completeness verdicts are one-sided: numerical integration can certify
incompleteness (the fiber norm or the base speed reaching the blow-up
norm at a finite time, integrated in a rescaled time that stays finite
there) but only ever reports the absence of blow-up within a horizon.  A
solve that merely stops (a step collapse) certifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import AlgebraMap, Subalgebra, TensorReport, expm, vector_norms, worst
from .algebroid import AlgebroidChart, GluedAlgebroid
from .cartan import bar_tm_tensor, fiber_bracket_at, per_point_max
from .geometry import GeometryError, SmoothField, sample_stack
from .ode import _nan_guarded, integrate, lie_solve, magnus

BLOWUP_NORM = 1e6
# tolerances of each segment transport's Magnus steps
TRANSPORT_RTOL, TRANSPORT_ATOL = 1e-12, 1e-13
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

@dataclass(frozen=True, eq=False)
class PathSegment:
    """The straight segment t -> a + t (b - a), t in [0, 1], in the
    coordinates of ``chart``."""

    chart: int
    a: np.ndarray
    b: np.ndarray


def segment_batch(segs) -> Callable:
    """(t, lanes) -> float points and velocities (k, n) of the segments
    ``segs[lanes]``, each at its own time t (k,), read off their
    endpoints, stacked once."""
    a = np.stack([s.a for s in segs])
    v = np.stack([s.b - s.a for s in segs])

    def lines(t, lanes):
        vl = v[lanes]
        return a[lanes] + t[:, None] * vl, vl
    return lines


@dataclass(frozen=True)
class BasePath:
    """A polyline: straight segments, each run on t in [0, 1]."""

    segments: tuple[PathSegment, ...]

    @property
    def start(self):
        s = self.segments[0]
        return s.chart, s.a

    @property
    def end(self):
        s = self.segments[-1]
        return s.chart, s.b


def line_segment(chart: int, a, b) -> PathSegment:
    """The segment a -> b in ``chart``."""
    return PathSegment(chart, np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def line_path(a, b) -> BasePath:
    """The segment a -> b in chart 0."""
    return BasePath((line_segment(0, a, b),))


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
        return np.array([C.anchor.values(m[None])[0] @ x
                         for C, m, x in zip(self.charts, self.base, self.fiber)])


# -- parallel transport -------------------------------------------------------

def _chart(G: GluedAlgebroid, label: int) -> AlgebroidChart:
    """The chart of G that ``label`` names, refusing a label outside
    0, ..., len(G.charts) - 1 (a negative index would name a chart from the
    end)."""
    if not 0 <= label < len(G.charts):
        raise TransportError(f"chart {label} is not a chart of the algebroid, whose charts "
                             f"are 0 to {len(G.charts) - 1}")
    return G.charts[label]


def _as_glued(G) -> GluedAlgebroid:
    if isinstance(G, GluedAlgebroid):
        return G
    if isinstance(G, AlgebroidChart):
        return GluedAlgebroid((G,), ())
    if hasattr(G, "chart"):
        return GluedAlgebroid((G.chart,), ())
    raise TypeError(f"expected a chart or glued algebroid, got {type(G)!r}")


def transport_matrices(G, paths) -> list[np.ndarray]:
    """Fundamental transport matrices (r, r) along a batch of paths,
    transitions included.

    Every segment of every path is transported from the identity as a lane
    of one ``ode.lie_solve`` (``_segment_transports``), bit for bit its
    transport alone: a lane whose Gamma(v) is exactly 0 at its
    Gauss-Legendre nodes, 2 and then 4 of them, keeps P = I exactly, as
    every segment of the catalog's glued atlases does; any other lane
    takes fourth-order Magnus steps of dP/dt = -Gamma(v) P under its own
    step control at TRANSPORT_RTOL and TRANSPORT_ATOL.  Each node set
    reads the points and velocities of its lanes from one
    ``segment_batch`` call and gamma from one ``values`` call per chart
    among them.  A segment is straight, so it stays in its chart's box
    exactly when both its ends do.  The equation is linear, so each path's
    matrix is the product of its segment matrices and transition matrices,
    in path order; a path with no segments transports by the identity."""
    G = _as_glued(G)
    segs = [s for p in paths for s in p.segments]
    for s in segs:
        if not _chart(G, s.chart).base.contains([s.a, s.b]).all():
            raise TransportError("path leaves its declared chart")
    T, out = iter(_segment_transports(G, segs) if segs else ()), []
    for p in paths:
        M = next(T) if p.segments else np.eye(G.rank)
        for prev, seg in zip(p.segments, p.segments[1:]):
            M = next(T) @ (_apply_switch(G, prev.chart, seg.chart, prev.b, seg.a) @ M)
        out.append(M)
    return out


def _segment_transports(G: GluedAlgebroid, segs) -> np.ndarray:
    """Transport matrices (B, r, r) from the identity along segments, each
    a lane of one ``lie_solve``: a lane whose Gamma(v) vanishes at its
    nodes keeps P = I, any other takes Magnus steps of dP/dt = -Gamma(v) P,
    exp(Omega) P with Omega the series (``ode.magnus``) of -Gamma(v) at
    the nodes of the step.  A node set reads gamma once per chart label
    among its segments."""
    r = G.rank
    read = segment_batch(segs)
    label = np.array([s.chart for s in segs])
    P = np.tile(np.eye(r), (len(segs), 1, 1))

    def gamma_v(lanes, tau):
        (k, s) = tau.shape
        at = np.repeat(lanes, s)
        ms, vs = read(tau.reshape(-1), at)
        gv = np.empty((k * s, r, r))
        lab = label[at]
        for c in dict.fromkeys(lab.tolist()):
            sel = lab == c
            gv[sel] = np.einsum("biac,bi->bac", G.charts[c].gamma.values(ms[sel]), vs[sel])
        return (gv.reshape(k, s, r, r),)

    def one_step(lanes, F, w):
        one = ~F[0].any(axis=(1, 2, 3))
        return one, (P[lanes[one]],)

    def step(Y, F, h):
        return (expm(magnus(-F[0], h)[:, -1]) @ Y[0],)

    status = lie_solve(_nan_guarded(gamma_v, [(r, r)]), one_step, step, (P,), TRANSPORT_RTOL,
                       TRANSPORT_ATOL)
    if status != "completed":
        raise TransportError(f"transport ODE failed with status {status}")
    return P


def transport_matrix(G, path: BasePath) -> np.ndarray:
    """Fundamental transport matrix along one path (``transport_matrices``)."""
    return transport_matrices(G, [path])[0]


def _apply_switch(G: GluedAlgebroid, i: int, j: int, m_end, m_next) -> np.ndarray:
    if i == j:
        if np.max(np.abs(m_end - m_next)) > CONTINUITY_TOL:
            raise TransportError("path segments are discontinuous")
        return np.eye(G.rank)
    # the direct entries are tried first, so an inverse is built only
    # where none of them matches
    ov = None
    for ov in G.overlaps_between(i, j):
        if np.max(np.abs(ov.base_map(m_end) - m_next)) <= CONTINUITY_TOL:
            return ov.fiber_map(m_end)
    if ov is None:
        raise TransportError(f"no overlap between charts {i} and {j}")
    raise TransportError("chart switch does not match any overlap base map")


def monodromies(G, loops) -> list[AlgebraMap]:
    """Parallel transport around each closed loop as an algebra map on the
    fiber bracket at its base point, all loops from one
    ``transport_matrices`` call."""
    G = _as_glued(G)
    starts = [loop.start for loop in loops]
    for (c0, m0), (c1, m1) in zip(starts, (loop.end for loop in loops)):
        if c0 != c1 or np.max(np.abs(np.asarray(m0) - np.asarray(m1))) > CONTINUITY_TOL:
            raise TransportError("monodromy requires a loop closed in its start chart")
    out = []
    for (c0, m0), M in zip(starts, transport_matrices(G, loops)):
        A0 = fiber_bracket_at(G.charts[c0], m0)
        out.append(AlgebraMap(A0, A0, M))
    return out


def monodromy(G, loop: BasePath) -> AlgebraMap:
    """Monodromy of one closed loop (``monodromies``)."""
    return monodromies(G, [loop])[0]


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


def _geodesic_events(C: AlgebroidChart, t1: np.ndarray, direction: np.ndarray,
                     blowup_norm: float):
    """Terminal lane events on the rescaled states z = (t, m, X) of lanes
    in the chart C, each with its own end time t1 and direction: t reaches
    t1, the larger of the fiber norm and the base speed |a(m) X|
    (max-norms) reaches ``blowup_norm`` (one anchor read), and on a box
    with a finite edge the chart's ``boundary_distance`` of m falls to
    EXIT_MARGIN.  Each takes times (k,), states (k, dim) and lane indices (k,)."""
    n = C.base.dim

    def end_fn(s, z, lanes):
        return direction[lanes] * (t1[lanes] - z[:, 0])

    def blow_fn(s, z, lanes):
        x = z[:, n + 1:]
        v = np.einsum("bir,br->bi", C.anchor.values(z[:, 1:n + 1]), x)
        return blowup_norm - np.maximum(abs(x).max(axis=1), abs(v).max(axis=1))

    def exit_fn(s, z, lanes):
        return C.base.boundary_distance(z[:, 1:n + 1]) - EXIT_MARGIN

    events = [("end", end_fn), ("blowup", blow_fn)]
    if np.isfinite(C.base.lower + C.base.upper).any():
        events.append(("escaped_chart", exit_fn))
    return events


def _geodesic_rhs(C: AlgebroidChart, direction):
    """dz/ds of z = (t, m, X) in the rescaled time s, ds = (1 + |f|/K) |dt|
    with K = RESCALE_SPEED, where f = (a(m) X, -Gamma(a(m) X) X) is the
    geodesic field in t.  Below speed K, s runs nearly like t; above it
    |dz/ds| <= K, so a blow-up at finite t* is an infinite s-span over
    which t(s) converges to t*.  The scale is taken out before the norm,
    so a huge but finite f cannot overflow the norm and freeze t; a
    non-finite f is passed on for the solver's overflow guard.

    ``rhs(s, z, lanes)`` takes the times (k,), a stack (k, dim) of lane
    states and their lane indices (k,), with ``direction`` one per lane,
    and reads them with one anchor and one gamma call.  Each row's
    arithmetic is its own, so a lane's field is bit for bit the same in
    any stack, a stack of one included."""
    n = C.base.dim

    def rhs(s, z, lanes):
        m, x = z[:, 1:n + 1], z[:, n + 1:]
        v = (C.anchor.values(m) @ x[:, :, None])[:, :, 0]
        e = np.einsum("kiab,ki,kb->ka", C.gamma.values(m), v, x)
        w = np.concatenate((np.ones((len(z), 1)), v, -e), axis=1)
        top = abs(w).max(axis=1)
        d = direction[lanes]
        if top.max() < np.inf:
            return _rescaled(w, top, d)
        ok = top < np.inf
        w[ok] = _rescaled(w[ok], top[ok], d[ok])
        return w

    return rhs


def _rescaled(w, top, d):
    """Rows w = (1, f) of the geodesic field, scaled to dz/ds in the
    direction d: w[:, 0] / top = 1/top, so 1 + |f|/K = top (w0 + |w[1:]|/K)."""
    w = w / top[:, None]
    f = w[:, 1:]
    speed = np.sqrt((f[:, None, :] @ f[:, :, None])[:, 0, 0])
    return w * (d / (w[:, 0] + speed / RESCALE_SPEED))[:, None]


def below_blowup(C: AlgebroidChart, ms, xs, blowup_norm: float):
    """The base speeds a(m) X (B, n) of the states m (B, n), X (B, r) in
    C, from one anchor read, and whether each has its fiber and base speed
    (max-norms) below ``blowup_norm``: from a start that has not, the
    blow-up event could never fire, so geodesics and the parse pass
    refuse it."""
    v = (C.anchor.values(ms) @ xs[:, :, None])[:, :, 0]
    return v, np.abs(np.concatenate((xs, v), axis=1)).max(axis=1) < blowup_norm


def geodesic(C: AlgebroidChart, m0, X0, span=(0.0, 1.0),
             blowup_norm: float = BLOWUP_NORM):
    """Integrate dm/dt = a(m) X, nabla_{dm/dt} X = 0 from (m0, X0) in the
    chart C, stopped with status "escaped_chart" at its edge.

    A start is one lane and returns its ``GeodesicResult``.  A stack of
    starts, m0 (B, n) and X0 (B, r) with span (2,) for every lane or
    (B, 2) one per lane, is one run of B lanes (``_geodesic_runs``) and
    returns their B results, each bit for bit its start run alone."""
    m0 = np.asarray(m0, dtype=float)
    ms = np.atleast_2d(m0)
    spans = np.broadcast_to(np.asarray(span, dtype=float), (len(ms), 2))
    runs = _geodesic_runs(GluedAlgebroid((C,), ()),
                          [(0, m, x, s) for m, x, s in zip(ms, np.atleast_2d(X0), spans)],
                          blowup_norm)
    return runs if m0.ndim == 2 else runs[0]


def geodesic_glued(G, chart: int, m0, X0, span=(0.0, 1.0)) -> GeodesicResult:
    """Geodesic integration across chart switches of a glued algebroid,
    stopped with status "switch_limit" after MAX_SWITCHES switches.  A
    geodesic that leaves its chart with no chart to switch to reports
    "escaped_atlas", or "escaped_chart" on an algebroid of one chart."""
    return _geodesic_runs(_as_glued(G), [(chart, m0, X0, span)], BLOWUP_NORM)[0]


def _geodesic_runs(G: GluedAlgebroid, starts, blowup_norm: float) -> list[GeodesicResult]:
    """The integration loop behind both public geodesic functions, which
    must not call each other (each is traced as one geodesic), and behind
    ``completeness_probe``: B geodesics from ``starts``, each (chart, m0,
    X0, span), as the lanes of one run.

    Each leg of a geodesic, one chart between switches, is a lane of a
    solve in the rescaled time s of ``_geodesic_rhs`` with terminal events
    (``_geodesic_events``); each round of the run makes one lane solve per
    chart among the geodesics still running.  A leg's s-span
    (1 + blowup_norm/K) |t1 - t| is only an upper bound, so its first step
    is the s-length the leg would take at its start speed.  A lane that
    leaves its chart switches chart and runs its next leg in the next
    round; one that finds no chart to switch to reports "escaped_chart" on
    an algebroid of one chart and "escaped_atlas" on an atlas.  Every
    geodesic is bit for bit what it is alone.

    Blow-up is certified when the fiber norm or the base speed reaches
    ``blowup_norm``.  A leg that stops short of t1 otherwise, by a
    collapsed step or by spending its whole s-span (|f| above
    ``blowup_norm`` on average), reports "step_collapse"; a run past
    MAX_SWITCHES chart switches reports "switch_limit".  Neither
    certifies anything.  A start whose chart label names no chart of G,
    or whose point is not more than EXIT_MARGIN inside its chart (where
    the exit event could never fire), is refused before any solve."""
    B = len(starts)
    chart = [int(c) for c, _, _, _ in starts]
    for c, (_, m0, _, _) in zip(chart, starts):
        if not _chart(G, c).base.boundary_distance(m0) > EXIT_MARGIN:
            raise GeometryError(f"point {np.asarray(m0, dtype=float)} outside chart interior: "
                                f"a geodesic starts more than {EXIT_MARGIN:g} inside its chart")
    m = [np.asarray(m0, dtype=float) for _, m0, _, _ in starts]
    x = [np.asarray(X0, dtype=float) for _, _, X0, _ in starts]
    t = [float(span[0]) for *_, span in starts]
    t_final = np.array([float(span[1]) for *_, span in starts])
    direction = np.where(t_final >= np.array(t), 1.0, -1.0)
    exit_status = "escaped_chart" if len(G.charts) == 1 else "escaped_atlas"
    times, bases, fibers, charts = ([[] for _ in range(B)] for _ in range(4))
    switches, steps, nfev, status = [0] * B, [0] * B, [0] * B, [None] * B
    run = list(range(B))
    while run:
        legs = {}
        for b in run:
            legs.setdefault(chart[b], []).append(b)
        for c, lanes in legs.items():
            C, n = G.charts[c], G.charts[c].base.dim
            ms, xs = np.array([m[b] for b in lanes]), np.array([x[b] for b in lanes])
            v, go = below_blowup(C, ms, xs, blowup_norm)
            for j in np.nonzero(~go)[0]:
                if not times[lanes[j]]:
                    raise ValueError(f"start fiber {xs[j].tolist()} or its base speed "
                                     f"{v[j].tolist()} is not below the blow-up norm "
                                     f"{blowup_norm:g}, so its blow-up event could never fire")
                status[lanes[j]] = "blowup"
            if not go.all():
                lanes, ms, xs, v = [b for b, g in zip(lanes, go) if g], ms[go], xs[go], v[go]
                if not lanes:
                    continue
            t0 = np.array([t[b] for b in lanes])
            dt = np.abs(t_final[lanes] - t0)
            # a margin past the start speed's s-length, so that a constant
            # field's first step ends beyond t1 and not a rounding short of it
            first = (1 + 1e-6) * (1 + vector_norms(v) / RESCALE_SPEED) * dt
            out = integrate(_geodesic_rhs(C, direction[lanes]),
                            (0.0, (1 + blowup_norm / RESCALE_SPEED) * dt),
                            np.column_stack((t0, ms, xs)),
                            events=_geodesic_events(C, t_final[lanes], direction[lanes],
                                                    blowup_norm),
                            first_step=first)
            for b, o, dtb in zip(lanes, out.lanes, dt):
                z = o.states
                times[b].extend(z[:, 0].tolist())
                bases[b].extend(z[:, 1:n + 1].tolist())
                fibers[b].extend(z[:, n + 1:].tolist())
                charts[b].extend([C] * len(z))
                steps[b], nfev[b] = steps[b] + o.steps, nfev[b] + o.nfev
                t[b], m[b], x[b] = z[-1, 0], z[-1, 1:n + 1], z[-1, n + 1:]
                if o.status == "event:end" or dtb == 0:
                    status[b], t[b] = "completed", t_final[b]
                    times[b][-1] = t[b]
                elif o.status == "event:blowup":
                    status[b] = "blowup"
                elif o.status != "event:escaped_chart":
                    status[b] = "step_collapse"
                elif (nxt := _find_switch(G, c, m[b])) is None:
                    status[b] = exit_status
                else:
                    chart[b], m[b], x[b] = nxt[0], nxt[1], nxt[2] @ x[b]
                    switches[b] += 1
                    if switches[b] > MAX_SWITCHES:
                        status[b] = "switch_limit"
        run = [b for b in run if status[b] is None]
    return [GeodesicResult(GPath(np.asarray(times[b]), np.asarray(bases[b]), np.asarray(fibers[b]),
                                 tuple(charts[b])), status[b], float(t[b]), chart[b],
                           switches[b], steps[b], nfev[b]) for b in range(B)]


def _find_switch(G: GluedAlgebroid, chart: int, m):
    best = None
    for j in range(len(G.charts)):
        if j == chart:
            continue
        for ov in G.overlaps_between(chart, j):
            if not ov.region_i.contains(m, margin=-10 * EXIT_MARGIN):
                continue
            image = ov.base_map(m)
            dist = G.charts[j].base.boundary_distance(image)
            if dist > 50 * EXIT_MARGIN and (best is None or dist > best[3]):
                best = (j, image, ov.fiber_map(m), dist)
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
    algebroid.  Both time directions are probed, all seeds in both
    directions as the lanes of one geodesic run (``_geodesic_runs``), so
    a probe whose geodesics switch no chart is one solve per chart among
    its seeds, and each seed's verdict is read off its two runs by
    ``seed_verdicts``.  An empty seed list is refused: a probe of no
    geodesic finds no blow-up and shows nothing.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("completeness_probe needs at least one seed")
    G = _as_glued(obj)
    starts = [seed if len(seed) == 3 else (0, *seed) for seed in seeds]
    runs = _geodesic_runs(G, [(chart, m0, X0, (0.0, sign * horizon))
                              for chart, m0, X0 in starts for sign in (1.0, -1.0)],
                          BLOWUP_NORM)
    return seed_verdicts([(m0, X0) for _, m0, X0 in starts], runs)


def seed_verdicts(seeds, runs) -> list[SeedVerdict]:
    """The verdict of each seed (m0, X0) from its runs to +horizon and to
    -horizon, runs[2k] and runs[2k + 1].  The + direction is read first:
    the first blow-up certifies incompleteness, else the note of the last
    direction that stopped early.  A geodesic that leaves its chart with
    no chart to switch to ("escaped_chart" from an algebroid of one chart,
    "escaped_atlas" from an atlas) has left the atlas."""
    verdicts = []
    for k, (m0, X0) in enumerate(seeds):
        worst: tuple[str, float | None, str] = ("no-blowup-within-horizon", None, "")
        for res in runs[2 * k:2 * k + 2]:
            if res.status == "blowup":
                worst = ("certified-incomplete", res.t_end, "")
                break
            if res.status in ("escaped_chart", "escaped_atlas"):
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
    m0 = np.asarray(m0, dtype=float)
    a = C.anchor.values(m0[None])[0]
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

def invariant_metric_check(C: AlgebroidChart, sigma: SmoothField, tol: float = 1e-7,
                           samples=None) -> TensorReport:
    """Residual of the induced derivative of the metric along fiber
    directions: #x . sigma(V,W) - sigma(bar_x V, W) - sigma(V, bar_x W),
    from the metric's 1-jets (``SmoothField.first_jet``) over the whole
    sample set, by default 10 points drawn with seed 42, reduced point by
    point."""
    if samples is None:
        samples = C.base.sample_points(np.random.default_rng(42), 10)
    samples = sample_stack(samples)
    S, A = sigma.first_jet(samples), C.anchor.first_jet(samples)
    bar = bar_tm_tensor(A, C.gamma.first_jet(samples))  # bar[..., :, a, k] = nabla_bar_{e_a} e_k
    res = (np.einsum("i...pq,...ia->...apq", S.d, A.v)
           - np.einsum("...pi,...iaq->...apq", S.v, bar)
           - np.einsum("...iap,...iq->...apq", bar, S.v))
    per = per_point_max(res)
    return TensorReport("invariant_metric_check", worst(per), tol, per,
                        tuple(map(tuple, samples)))


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
    word.  Each word length is one stacked product, eigenvalue and norm
    computation, read in scan order so the first violating word is the
    witness.  A word is kept as its parent word's index in the previous
    length and its last letter, so only the witness is spelled out.

    Only distinct words are read.  Of the words of one length that share
    their matrix, bit for bit, and their last letter, only the first in
    scan order is kept: the others have the same extensions, each after
    its twin's.  The scan stops at the first length whose keys all occur
    at the length before, since every later length only repeats matrices
    already read.  So the verdict, the witness and both maxima are those
    of the full scan, and a finite holonomy group (identities, signs,
    permutations) is read in a few words.
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
    letter = np.arange(len(gens))
    frontier = np.eye(gens.shape[1])[None]
    parents, letters = [], []
    for _ in range(6):
        fi = np.repeat(np.arange(len(frontier)), len(gens))
        gj = np.tile(letter, len(frontier))
        if letters:
            # generator 2k + 1 is the inverse of 2k: drop each word's cancellations
            keep = gj != (letters[-1][fi] ^ 1)
            fi, gj = fi[keep], gj[keep]
        frontier = frontier[fi] @ gens[gj]
        if letters:
            keys = _word_keys(frontier, gj)
            first = np.sort(np.unique(keys, axis=0, return_index=True)[1])
            frontier, fi, gj, keys = frontier[first], fi[first], gj[first], keys[first]
            if len(keys) <= len(prev) and set(map(bytes, keys)) <= set(map(bytes, prev)):
                break
        parents.append(fi)
        letters.append(gj)
        devs = np.max(np.abs(np.abs(np.linalg.eigvals(frontier)) - 1.0), axis=1)
        norms = np.linalg.svd(frontier, compute_uv=False)[:, 0]
        bad = np.nonzero((devs > 1e-9) | (norms > norm_bound))[0]
        seen = bad[0] + 1 if len(bad) else len(frontier)
        max_dev = max(max_dev, float(np.max(devs[:seen])))
        max_norm = max(max_norm, float(np.max(norms[:seen])))
        if len(bad):
            word, i = [], bad[0]
            for fi, gj in zip(parents[::-1], letters[::-1]):
                word.append(labels[gj[i]])
                i = fi[i]
            return CompactnessReport("unbounded", tuple(word[::-1]), max_dev, max_norm)
        prev = _word_keys(frontier, gj)
    return CompactnessReport("consistent-with-compact-closure", None, max_dev, max_norm)


def _word_keys(mats: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Each word's matrix bits and last letter, one row per word."""
    return np.concatenate([mats.reshape(len(mats), -1).view(np.int64), last[:, None]], axis=1)
