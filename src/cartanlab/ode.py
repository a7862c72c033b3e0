"""Integration backends.

Adaptive integration of nonlinear equations (geodesics) runs on one
explicit Runge-Kutta driver, ``solve_ivp``, with the Dormand-Prince
5(4) pair of Hairer, Norsett and Wanner, *Solving Ordinary Differential
Equations I*, sections II.4-6, and Shampine's quartic dense output.  The
step controller is the classical one: RMS error norm, safety factor
0.9, step factors clamped to [0.2, 10], no growth right after a rejected
step, and rtol raised to at least 100 eps.  It is the controller of
scipy's ``solve_ivp`` with the same tableau, so the step sequences and
work counts are scipy's RK45.  Each solve first tries the whole span in
one step, or a caller's first step where the span is only an upper bound
(a geodesic in rescaled time), so the embedded error estimate alone
sizes every step; a step that has to shrink below ten float spacings of
t is a step collapse.

``integrate`` adds named terminal events.  Every event function is
checked at step ends and also scanned on the interpolant at 64 evenly
spaced times over the range actually integrated, so a sign change that
opens and closes inside one long step is still found; roots are located
on the interpolant by Brent's method.  The driver steps float arrays
only.

Every solve is a lane stack: a state stack y0 (L, n) is L independent
solves in one, and a single solve is a stack of one.  Each lane has its
own span end, first step, t, step size, error norm (the RMS over its own
n entries, at rtol and atol as given, with no scaling by L),
accept/reject decision, events, dense output, event scan, Brent roots
and status.  A driver step makes one trial step of every running lane,
one right-hand-side call per stage over all of them.  The stage sums,
error estimates and interpolants are stacked products of lane-major
stages, which numpy computes lane by lane as it computes a lane alone, so
every lane's result is bit for bit the result of its solve alone.  A
solve returns one ``Solution``: a ``Lane`` record per lane, whose
``nfev`` counts the right-hand-side evaluations of that lane and whose
``steps`` its accepted steps, and its own ``nfev`` batched calls and
``steps`` driver steps, as many as its longest lane takes trial steps.

Linear equations with known coefficients along a straight segment
(transport, development) are solved on their group instead
(``lie_solve``): a lane whose coefficients allow it takes one exact step
over the segment, confirmed by Gauss-Legendre node counts 2, 4, ...
until two agree; any other lane takes fourth-order Magnus steps, each
checked against its two half steps under the same step control.  The
lanes are stacked as in ``solve_ivp``, each bit for bit its solve alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .algebra import vector_norms

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-9
# event functions are scanned at this many evenly spaced times over the
# integrated range
_EVENT_SCAN_POINTS = 64
_EPS = np.finfo(float).eps
# event roots are solved until the bracket is below _ROOT_XTOL + _ROOT_RTOL |t|
_ROOT_XTOL, _ROOT_RTOL, _ROOT_MAX_ITER = 4 * _EPS, 4 * _EPS, 100
# any smaller rtol is raised to this floor
RTOL_FLOOR = 100 * _EPS
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


# Dormand and Prince (1980), with Shampine's (1986) dense output: stage
# times C, stage coefficients A (row s builds stage s), step weights B,
# weights E of the order-4 error estimate (the last on f at the step end)
# and dense-output coefficients P
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rk_interpolate(t, t_old, h, y_old, Q):
    """RK45 dense output of the steps (t_old, h, y_old, Q) at t; the
    arguments broadcast, so one call serves many steps and times."""
    x = (np.asarray(t) - t_old) / h
    p = np.cumprod(np.repeat(np.asarray(x)[..., None], Q.shape[-1], axis=-1), axis=-1)
    return y_old + np.asarray(h)[..., None] * np.einsum("...nk,...k->...n", Q, p)


class DenseOutput:
    """Continuous solution of an RK45 lane: each accepted step's
    interpolant.  ``sol(t)`` is the state at t (shape (n,)), or the states
    at an array of times (shape (T, n)); a time on a step end is read off
    the step that ends there."""

    def __init__(self, steps, direction: float):
        self.t_old, self.h, self.y_old, self.Q = (np.array(v) for v in zip(*steps))
        self.direction = direction

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        k = np.searchsorted(self.direction * self.t_old, self.direction * t) - 1
        k = np.clip(k, 0, len(self.h) - 1)
        return _rk_interpolate(t, self.t_old[k], self.h[k], self.y_old[k], self.Q[k])


@dataclass
class Lane:
    """One lane of a solve.  ``times`` holds the start and every accepted
    step end; after an event its last entry is the event time instead of
    the end of the step that crossed it.  ``states`` (T, n) holds the
    states at ``times``, ``status`` is "completed", "event:<name>" or
    "step_collapse", ``t_end`` the time reached, ``event_name`` the name of
    the event that stopped the lane, ``nfev`` its right-hand-side
    evaluations, ``steps`` its accepted steps and ``sol`` its dense output,
    which ``integrate`` drops once it has scanned it."""

    times: np.ndarray
    states: np.ndarray
    status: str
    t_end: float
    event_name: str | None
    nfev: int
    steps: int
    sol: DenseOutput | None = None


@dataclass
class Solution:
    """A lane solve: its ``lanes``, ``nfev`` batched right-hand-side calls
    and ``steps`` driver steps, each one trial step of every running lane,
    as many as its longest lane takes trial steps."""

    lanes: tuple[Lane, ...]
    nfev: int
    steps: int

    @property
    def status(self) -> str:
        """"step_collapse" when any lane's is, "completed" when every
        lane's is, else "event"."""
        status = [lane.status for lane in self.lanes]
        return ("step_collapse" if "step_collapse" in status else
                "completed" if all(s == "completed" for s in status) else "event")

    @property
    def t(self) -> np.ndarray:
        """The driver steps numbered 0, 1, ..., ``steps``, so that
        ``len(t) - 1`` counts them."""
        return np.arange(self.steps + 1.0)


def _brent(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f between a and b by Brent's method (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4), given fa = f(a) and
    fb = f(b) of opposite signs: inverse quadratic interpolation or secant
    steps where they shrink the bracket fast enough, bisection otherwise,
    until the bracket is below _ROOT_XTOL + _ROOT_RTOL |x|.  Without a
    sign change it returns b."""
    if fa == 0:
        return a
    if fb == 0 or (fa < 0) == (fb < 0):
        return b
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAX_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur


def _per_lane(v, L: int) -> list[float]:
    """A scalar or one value per lane, as a list of L floats."""
    v = np.asarray(v, dtype=float)
    return [float(v)] * L if v.ndim == 0 else v.tolist()


def _lane_fn(fn, b: int, state):
    """s -> float value of the lane event fn on lane b at time s and the
    state ``state(s)``, for Brent's method."""
    lane = np.array([b])
    return lambda s: float(fn(np.array([s]), state(s)[None], lane)[0])


def solve_ivp(fun, t_span, y0, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
              events=(), first_step=None) -> Solution:
    """Integrate the lane stack y0 (L, n), L independent solves of
    y' = fun(t, y) (see the module docstring), over t_span with RK45,
    each lane starting with one step of its ``first_step``, or over its
    whole span when it is None or longer.
    ``fun(t, y, lanes)`` takes the times (k,), states (k, n) and lane
    indices (k,) of k of the lanes and returns (k, n); the end of
    ``t_span`` and ``first_step`` may give one value per lane.

    ``events`` are named terminal events (name, g), g(t, y, lanes)
    returning (k,): after each accepted step of a lane those whose sign
    changes between the step's ends (a zero counts as either sign) are
    solved for on the step's interpolant, and the lane stops at the
    earliest root.  Returns a Solution of L Lanes.

    The stage sums, step ends, error estimates and interpolants are
    stacked products of lane-major stages (lanes, stages, n), so each
    lane's arithmetic is that of a solve of its own; the step control runs
    lane by lane on Python floats, whose arithmetic is that of numpy's
    float64 scalars."""
    y0 = np.asarray(y0, dtype=float)
    names, fns = [name for name, _ in events], [fn for _, fn in events]
    L, n = y0.shape
    S = len(_C)
    t0 = float(t_span[0])
    t1 = _per_lane(t_span[1], L)
    direction = [1.0 if end >= t0 else -1.0 for end in t1]
    rtol = max(rtol, RTOL_FLOOR)
    exponent = -1.0 / 5
    y = y0.copy()
    f = np.asarray(fun(np.full(L, t0), y, np.arange(L)), dtype=float).reshape(L, n)
    t = [t0] * L
    h_abs = [abs(end - t0) for end in t1]
    if first_step is not None:
        h_abs = [min(h, s) for h, s in zip(h_abs, _per_lane(first_step, L))]
    ts, ys, steps = [[t0] for _ in t], [[row] for row in y0], [[] for _ in t]
    nfev, status, hit = [1] * L, [None] * L, [None] * L
    rejected, min_step = [False] * L, [0.0] * L
    run = [b for b in range(L) if n and t1[b] != t0]
    for b in set(range(L)) - set(run):
        status[b] = "completed"
        ts[b].append(t1[b])
        ys[b].append(y0[b])
    g = {}
    if fns and run:
        ri = np.array(run)
        g0 = [np.asarray(ev(np.full(len(run), t0), y0[ri], ri), dtype=float) for ev in fns]
        g = {b: [ge[j] for ge in g0] for j, b in enumerate(run)}
    A = [_A[s, :s] for s in range(S)]
    rounds, calls, idx = 0, 1, None
    while run:
        trial, tl, hl = [], [], []
        for b in run:
            tb, d = t[b], direction[b]
            if not rejected[b]:
                min_step[b] = 10 * abs(math.nextafter(tb, d * math.inf) - tb)
                h_abs[b] = max(h_abs[b], min_step[b])
            if h_abs[b] < min_step[b]:
                status[b] = "step_collapse"
                continue
            t_new = tb + h_abs[b] * d
            if d * (t_new - t1[b]) > 0:
                t_new = t1[b]
            h_abs[b] = abs(t_new - tb)
            trial.append(t_new)
            tl.append(tb)
            hl.append(t_new - tb)
        if len(trial) < len(run):
            run = [b for b in run if status[b] is None]
            idx = None
            if not run:
                break
        if idx is None:
            idx = np.array(run)
        tt, h = np.array(tl), np.array(hl)
        hc = h[:, None]
        tc = tt + np.multiply.outer(_C, h)  # the stage times t + C[s] h
        yr = y[idx]
        K = np.empty((len(run), S + 1, n))
        K[:, 0] = f[idx]
        for s in range(1, S):
            K[:, s] = fun(tc[s], yr + (A[s] @ K[:, :s]) * hc, idx)
        y_new = yr + hc * (_B @ K[:, :-1])
        K[:, -1] = fun(tt + h, y_new, idx)
        calls += S
        scale = atol + np.maximum(np.abs(yr), np.abs(y_new)) * rtol
        accepted = []
        errs = (vector_norms((_E @ K) * hc / scale) / n ** 0.5).tolist()
        for j, (b, err) in enumerate(zip(run, errs)):
            nfev[b] += S
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** exponent)
                h_abs[b] *= min(1, factor) if rejected[b] else factor
                rejected[b] = False
                accepted.append(j)
            else:
                h_abs[b] *= max(_MIN_FACTOR, _SAFETY * err ** exponent)
                rejected[b] = True
        if accepted:
            every = len(accepted) == len(run)
            acc = slice(None) if every else np.array(accepted)
            Ka = K if every else K[acc]
            ya = y_new if every else y_new[acc]
            rows = idx[acc]
            y[rows], f[rows] = ya, Ka[:, -1]
            Q = Ka.transpose(0, 2, 1) @ _P
            if fns:
                ta = np.array([trial[j] for j in accepted])
                g_acc = [np.asarray(ev(ta, ya, rows), dtype=float).tolist() for ev in fns]
            stopped = False
            for i, j in enumerate(accepted):
                b = run[j]
                steps[b].append((tl[j], hl[j], yr[j], Q[i]))
                t[b] = trial[j]
                ts[b].append(t[b])
                ys[b].append(ya[i])
                if fns:
                    gb, g_new = g[b], [ge[i] for ge in g_acc]
                    crossed = [k for k, (a, c) in enumerate(zip(gb, g_new))
                               if (a <= 0 and c >= 0) or (a >= 0 and c <= 0)]
                    if crossed:
                        step = steps[b][-1]
                        at = lambda s, step=step: _rk_interpolate(s, *step)  # noqa: E731
                        roots = [(k, _brent(_lane_fn(fns[k], b, at), step[0], t[b], gb[k],
                                            g_new[k])) for k in crossed]
                        k, ts[b][-1] = min(roots, key=lambda kr: direction[b] * kr[1])
                        ys[b][-1] = _rk_interpolate(ts[b][-1], *step)
                        hit[b], status[b], stopped = names[k], f"event:{names[k]}", True
                        continue
                    g[b] = g_new
                if not direction[b] * (t[b] - t1[b]) < 0:
                    status[b], stopped = "completed", True
            if stopped:
                run, idx = [b for b in run if status[b] is None], None
        rounds += 1
    return Solution(tuple(Lane(np.array(ts[b]), np.array(ys[b]), status[b], ts[b][-1], hit[b],
                               nfev[b], len(ts[b]) - 1,
                               DenseOutput(steps[b], direction[b]) if steps[b] else None)
                          for b in range(L)), calls, rounds)


_GUARDED = (OverflowError, FloatingPointError, ValueError, np.linalg.LinAlgError)


def _overflow_safe(rhs):
    """Trial steps can overshoot into float overflow or slightly past a
    field's domain; returning huge finite values forces step rejection
    instead of a crash (the terminal events stop integration first).  A
    lane right-hand side ``rhs(t, y, lanes)`` that raises is called again
    lane by lane, so only the lanes that raise get the sentinel;
    non-finite entries are replaced by it entry by entry."""
    def f(t, y, lanes):
        try:
            out = np.asarray(rhs(t, y, lanes), dtype=float)
        except _GUARDED:
            if len(y) == 1:
                return np.full(np.shape(y), 1e150)
            return np.concatenate([f(t[j:j + 1], y[j:j + 1], lanes[j:j + 1])
                                   for j in range(len(y))])
        if not np.isfinite(out).all():
            out = np.nan_to_num(out, nan=1e150, posinf=1e150, neginf=-1e150)
        return out
    return f


def _first_sign_changes(lanes, events, t0: float) -> list:
    """Per lane, (name, t) for the earliest sign change of any named lane
    event on the lane's dense output, or None.  ``solve_ivp`` checks the
    sign at every step end, so only the steps that hold a scan time
    t0 + j(stop - t0)/64 are scanned, at those times and at the step's two
    ends, up to ``stop``, the end of the lane's integrated range (included
    unless an event stopped the lane there; a lane that stayed at t0, or
    that completed without a step and so has no dense output, as a lane of
    no entries does, is not scanned): one call of each event on the grid
    states of all lanes.  A change between two grid times is located by
    Brent's method on the interpolant."""
    grids = {}
    for b, lane in enumerate(lanes):
        stop = float(lane.times[-1])
        if stop == t0 or lane.sol is None:
            continue
        d = stop - t0
        scan = t0 + d * np.arange(1, _EVENT_SCAN_POINTS) / _EVENT_SCAN_POINTS
        # lane.times[i-1] < scan <= lane.times[i]
        i = np.searchsorted(lane.times * np.sign(d), scan * np.sign(d))
        grid = np.concatenate([scan, lane.times[i - 1], lane.times[i], [stop]])
        ahead = (grid - stop) * d
        closed = lane.event_name is None
        grid = np.unique(grid[(ahead <= 0) if closed else (ahead < 0)])[::1 if d > 0 else -1]
        if len(grid) >= 2:
            grids[b] = grid
    out = [None] * len(lanes)
    if not grids:
        return out
    scanned = list(grids)
    times = np.concatenate([grids[b] for b in scanned])
    states = np.concatenate([lanes[b].sol(grids[b]) for b in scanned])
    ids = np.concatenate([np.full(len(grids[b]), b) for b in scanned])
    last = np.cumsum([len(grids[b]) for b in scanned])[:-1] - 1   # each grid's end but the last's
    for name, fn in events:
        g = np.asarray(fn(times, states, ids), dtype=float)
        change = (g[:-1] != 0) & (g[:-1] * g[1:] <= 0)
        change[last] = False
        seen = set()
        for i in np.nonzero(change)[0].tolist():
            b = int(ids[i])
            if b in seen:
                continue
            seen.add(b)
            t = _brent(_lane_fn(fn, b, lanes[b].sol), times[i], times[i + 1], g[i], g[i + 1])
            if out[b] is None or (t - out[b][1]) * (lanes[b].times[-1] - t0) < 0:
                out[b] = (name, t)
    return out


def _trim(lane: Lane, t0: float, hit) -> Lane:
    """``lane`` without its dense output, cut at the event that stops it:
    the scan's sign change ``hit`` = (name, t), else the event the solve
    stopped it at, if any.  The cut keeps the times before t, then t and
    the interpolated state there."""
    if hit is None and lane.event_name is None:
        return replace(lane, sol=None)
    name, t = hit or (lane.event_name, lane.t_end)
    keep = (lane.times - t) * np.sign(lane.times[-1] - t0) < 0
    return Lane(np.append(lane.times[keep], t), np.vstack([lane.states[keep], lane.sol(t)]),
                f"event:{name}", t, name, lane.nfev, lane.steps)


def integrate(rhs, t_span, y0, events=None, rtol=DEFAULT_RTOL,
              atol=DEFAULT_ATOL, first_step=None) -> Solution:
    """Adaptive integration of the lane stack y0 (L, n), L independent
    solves in one (see ``solve_ivp``), with named terminal events.

    ``rhs(t, y, lanes)`` and each event fn(t, y, lanes) of ``events``, a
    list of (name, fn), take the times (k,), states (k, n) and lane
    indices (k,) of any k of the lanes; fn returns (k,).  Error control at
    rtol/atol sizes every step of each lane on its own, with no scaling by
    the number of lanes, starting from one step of ``first_step``
    (default: the whole span).  A lane stops at the first sign change of
    any fn, found by RK45's own check at step ends or by a scan of its
    dense output at no more than 1/64 of its integrated range apart (the
    scan calls no right-hand side; the scans of all lanes are one call of
    each fn).  Step-size collapse is
    reported as its own status (the solver cannot continue but the last
    reached time brackets the breakdown); an event before the collapse
    wins.

    Returns a Solution: per lane the Lane its solve alone gives, bit for
    bit, with its ``nfev`` (that lane's right-hand-side evaluations) and
    ``steps`` (its accepted steps), and the solve's own ``nfev`` batched
    right-hand-side calls and ``steps`` driver steps.
    """
    t0 = float(t_span[0])
    # the 1e150 sentinel of _overflow_safe overflows the error norm, or
    # makes it inf/inf, which then rejects the step as intended
    with np.errstate(over="ignore", invalid="ignore"):
        out = solve_ivp(_overflow_safe(rhs), (t0, t_span[1]), y0, rtol=rtol, atol=atol,
                        events=events or (), first_step=first_step)
        hits = _first_sign_changes(out.lanes, events, t0) if events else [None] * len(out.lanes)
    return Solution(tuple(_trim(lane, t0, hit) for lane, hit in zip(out.lanes, hits)),
                    out.nfev, out.steps)


# -- Lie-group steps of linear equations --------------------------------------

# Gauss-Legendre node counts: a one-step lane compares its first two counts
# from _FIRST_NODES and doubles up to _MAX_NODES; a Magnus step takes
# _STEP_NODES
_FIRST_NODES, _MAX_NODES, _STEP_NODES = 2, 64, 3


@cache
def _gauss(s: int) -> tuple[np.ndarray, np.ndarray]:
    """The s Gauss-Legendre nodes and weights on [0, 1], from the
    eigendecomposition of the Jacobi matrix of the Legendre recurrence
    (Golub and Welsch, Math. Comp. 23, 1969)."""
    k = np.arange(1.0, s)
    x, V = np.linalg.eigh(np.diag(k / np.sqrt(4 * k * k - 1), 1), UPLO="U")
    return (x + 1.0) / 2.0, V[0] ** 2


@cache
def _magnus_tables() -> tuple[np.ndarray, np.ndarray]:
    """W (s + 1, s) and K (s + 1, s, s) of the Magnus series of Y' = V Y
    to its commutator term over [0, c] of a step h, from the values V_k at
    the s = _STEP_NODES Gauss-Legendre nodes, for c each node and then 1:
    Omega(c) = h sum_k W_ck V_k + h^2 sum_kl K_ckl [V_k, V_l], read off
    the polynomial through the node values (l_k its Lagrange basis):
    W_ck = int_0^c l_k, K_ckl = int_0^c l_k(u) int_0^u l_l / 2."""
    c, _ = _gauss(_STEP_NODES)
    ends, p = np.append(c, 1.0), np.arange(_STEP_NODES)
    L = np.linalg.inv(np.vander(c, increasing=True))    # L[p, k]: the u^p term of l_k
    W = ends[:, None] ** (p + 1) / (p + 1) @ L
    # int_0^c u^p int_0^u w^q = c^(p+q+2) / ((q + 1)(p + q + 2))
    E = ends[:, None, None] ** (p[:, None] + p + 2) / ((p + 1) * (p[:, None] + p + 2))
    return W, np.einsum("cpq,pk,ql->ckl", E, L, L) / 2


def _commutators(V: np.ndarray) -> np.ndarray:
    """[V_k, V_l] (B, s, s, m, m) of each lane's node values V (B, s, m, m)."""
    return V[:, :, None] @ V[:, None] - V[:, None] @ V[:, :, None]


def magnus(V: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Omega (B, s + 1, m, m) of the fourth-order Magnus series of Y' = V Y
    over a step h (B,) of each lane, from V (B, s, m, m) at the
    s = _STEP_NODES Gauss-Legendre nodes of the step: Y(c) = exp(Omega(c))
    Y(0) at each node c and, last, at the step's end (``_magnus_tables``)."""
    W, K = _magnus_tables()
    hc = h[:, None, None, None]
    return (np.einsum("cs,bsij->bcij", W, V) * hc
            + np.einsum("ckl,bklij->bcij", K, _commutators(V)) * hc ** 2)


def _error(Y1, Y2, rtol, atol) -> np.ndarray:
    """Per lane, the RMS norm of Y1 - Y2, two tuples of state stacks
    (B, ...), each entry scaled by atol + rtol max(|y1|, |y2|), as
    ``solve_ivp`` measures a step's error: the two agree at rtol/atol
    where it is at most 1."""
    y1, y2 = (np.concatenate([y.reshape(len(y), -1) for y in Y], axis=1) for Y in (Y1, Y2))
    scale = atol + np.maximum(np.abs(y1), np.abs(y2)) * rtol
    return vector_norms((y1 - y2) / scale) / y1.shape[1] ** 0.5


def _nan_guarded(read, shapes):
    """``read(lanes, tau)``, a tuple of field stacks (k, s, *shape), one per
    shape of ``shapes``, read again lane by lane where it raises an
    arithmetic error; a lane whose read raises alone reads NaN, so no
    lane's read depends on its stack."""
    def guarded(lanes, tau):
        try:
            return read(lanes, tau)
        except _GUARDED:
            if len(lanes) == 1:
                return tuple(np.full((1, tau.shape[1], *shape), np.nan) for shape in shapes)
            parts = [guarded(lanes[j:j + 1], tau[j:j + 1]) for j in range(len(lanes))]
            return tuple(map(np.concatenate, zip(*parts)))
    return guarded


def _one_steps(fields, one_step, Y, rtol, atol) -> np.ndarray:
    """Take the lanes that ``one_step`` admits over [0, 1] in one step;
    return the other lanes.  The node count s doubles from _FIRST_NODES
    until the states of s and 2 s nodes agree at rtol/atol, and the 2 s
    one is kept; a lane that finds no such pair up to _MAX_NODES is
    left."""
    todo, prev, left, s = np.arange(len(Y[0])), None, [], _FIRST_NODES
    while todo.size and s <= _MAX_NODES:
        c, w = _gauss(s)
        one, cand = one_step(todo, fields(todo, np.tile(c, (len(todo), 1))), w)
        left.append(todo[~one])
        todo, prev = todo[one], None if prev is None else tuple(p[one] for p in prev)
        if not todo.size:
            break
        if prev is not None:
            done = _error(prev, cand, rtol, atol) <= 1
            for y, x in zip(Y, cand):
                y[todo[done]] = x[done]
            todo, cand = todo[~done], tuple(x[~done] for x in cand)
        prev, s = cand, 2 * s
    return np.concatenate([*left, todo]).astype(int)


def _magnus_steps(fields, step, lanes, Y, rtol, atol) -> str:
    """Step ``lanes`` over [0, 1], each with its own step control: a step
    is kept when its error, the gap to its two half steps, which are kept,
    is at most 1 at rtol/atol, and the step size then changes by the
    factor 0.9 err^(-1/5), clamped to [0.2, 10], with no growth right
    after a rejection, the controller of ``solve_ivp``.  A lane whose read
    is not finite rejects its step.  Returns "step_collapse" once a lane's
    step falls below ten float spacings of its t, else "completed"."""
    c, n = _gauss(_STEP_NODES)[0], _STEP_NODES
    nodes = np.concatenate([c, c / 2, 0.5 + c / 2])      # the step, then its halves
    t, h, run = np.zeros(len(lanes)), np.ones(len(lanes)), np.arange(len(lanes))
    rejected = np.zeros(len(lanes), dtype=bool)
    while run.size:
        if np.any(h[run] < 10 * np.spacing(t[run])):
            return "step_collapse"
        end = np.where(h[run] >= 1.0 - t[run], 1.0, t[run] + h[run])
        hr, at, k = end - t[run], lanes[run], len(run)
        F = fields(at, t[run, None] + nodes * hr[:, None])
        read_ok = np.logical_and.reduce([np.isfinite(f.reshape(k, -1)).all(axis=1) for f in F])
        for f in F:
            f[~read_ok] = 0.0
        Yw = step(tuple(np.concatenate([y[at]] * 2) for y in Y),
                  tuple(np.concatenate([f[:, :n], f[:, n:2 * n]]) for f in F),
                  np.concatenate([hr, hr / 2]))
        Yh = step(tuple(y[k:] for y in Yw), tuple(f[:, 2 * n:] for f in F), hr / 2)
        err = np.where(read_ok, _error(tuple(y[:k] for y in Yw), Yh, rtol, atol), np.inf)
        ok = err <= 1
        factor = np.where(err == 0, _MAX_FACTOR,
                          np.clip(_SAFETY * err ** -0.2, _MIN_FACTOR, _MAX_FACTOR))
        for y, yh in zip(Y, Yh):
            y[at[ok]] = yh[ok]
        t[run[ok]] = end[ok]
        h[run] = hr * np.where(ok & rejected[run], np.minimum(factor, 1.0), factor)
        rejected[run] = ~ok
        run = run[t[run] < 1.0]
    return "completed"


def lie_solve(fields, one_step, step, Y, rtol: float, atol: float) -> str:
    """Solve a stack of linear equations over t in [0, 1] on their group
    (Iserles, Munthe-Kaas, Norsett and Zanna, "Lie-group methods", Acta
    Numerica 9, 2000), each lane bit for bit its solve alone.  ``Y`` is a
    tuple of state stacks (B, ...), updated in place.

    ``fields(lanes, tau)`` reads the coefficients of ``lanes`` at their
    times tau (k, s), a tuple of stacks (k, s, ...) (NaN where a lane
    cannot be read, see ``_nan_guarded``).  Every lane first tries one
    step (``_one_steps``): ``one_step(lanes, F, w)``, given the fields F
    at the s Gauss-Legendre nodes of weights w, returns which of ``lanes``
    it can step in one, and their states after it.  The other lanes take
    ``step(Y, F, h)``, a fourth-order Magnus step over h (k,) from the
    fields at the _STEP_NODES nodes of each lane's step, under their own
    step control (``_magnus_steps``).  Returns "completed" or
    "step_collapse".  rtol is at least RTOL_FLOOR, as in ``solve_ivp``."""
    rtol = max(rtol, RTOL_FLOOR)
    # a trial read can overflow; its lane then reads NaN and is rejected
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        left = _one_steps(fields, one_step, Y, rtol, atol)
        return _magnus_steps(fields, step, left, Y, rtol, atol)
