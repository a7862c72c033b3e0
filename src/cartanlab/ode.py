"""Integration backends.

Adaptive integration runs on one explicit Runge-Kutta driver,
``solve_ivp``, with the two Dormand-Prince pairs of Hairer, Norsett and
Wanner, *Solving Ordinary Differential Equations I*, sections II.4-6:
RK45, the 5(4) pair with Shampine's quartic dense output, and DOP853, the
8th-order pair whose error estimate blends its 5th- and 3rd-order
embedded estimates.  The step controller is the classical one: RMS error
norm, safety factor 0.9, step factors clamped to [0.2, 10], no growth
right after a rejected step, and rtol raised to at least 100 eps.  It is
the controller of scipy's ``solve_ivp`` with the same tableaux, so the
step sequences and work counts are scipy's.  Each solve first tries the
whole span in one step, or a caller's first step where the span is only
an upper bound (a geodesic in rescaled time), so the embedded error
estimate alone sizes every step; a step that has to shrink below ten
float spacings of t is a step collapse.

``integrate`` adds named terminal events.  Solves without events use
DOP853; solves with events use RK45 and its dense output.  Every event
function is checked at step ends and also scanned on the interpolant at
64 evenly spaced times over the range actually integrated, so a sign
change that opens and closes inside one long step is still found; roots
are located on the interpolant by Brent's method.  The driver steps
float arrays only.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

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


@dataclass(frozen=True)
class _Pair:
    """An embedded Runge-Kutta pair: stage times ``C``, stage coefficients
    ``A`` (row s builds stage s), step weights ``B``, the scaled error
    norms ``error_norms(K, h, scale)`` of a lane stack's stages ``K``
    (lanes, stages, n; the last stage holds f at the step end), a list of
    one float per lane, the order of that estimate, and the dense-output
    coefficients ``P`` where the pair has them."""

    C: np.ndarray
    A: np.ndarray
    B: np.ndarray
    error_norms: Callable
    error_order: int
    P: np.ndarray | None = None


def _rk45() -> _Pair:
    """Dormand and Prince (1980), with Shampine's (1986) dense output."""
    C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
    A = np.array([
        [0, 0, 0, 0, 0],
        [1/5, 0, 0, 0, 0],
        [3/40, 9/40, 0, 0, 0],
        [44/45, -56/15, 32/9, 0, 0],
        [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
    ])
    B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
    E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
    P = np.array([
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

    def error_norms(K, h, scale):
        return (vector_norms((E @ K) * h[:, None] / scale) / K.shape[-1] ** 0.5).tolist()
    return _Pair(C, A, B, error_norms, 4, P)


def _square(x: float) -> float:
    """x ** 2 of a Python float, inf where it overflows, as numpy's is."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _dop853() -> _Pair:
    """Hairer's DOP853 (Hairer, Norsett and Wanner, section II.10); no
    dense output, whose three extra stages no solve here needs."""
    C = np.array([0.0,
                  0.526001519587677318785587544488e-01,
                  0.789002279381515978178381316732e-01,
                  0.118350341907227396726757197510,
                  0.281649658092772603273242802490,
                  0.333333333333333333333333333333,
                  0.25,
                  0.307692307692307692307692307692,
                  0.651282051282051282051282051282,
                  0.6,
                  0.857142857142857142857142857142,
                  1.0])
    A = np.zeros((13, 12))      # row 12 holds the step weights
    A[1, 0] = 5.26001519587677318785587544488e-2
    A[2, 0] = 1.97250569845378994544595329183e-2
    A[2, 1] = 5.91751709536136983633785987549e-2
    A[3, 0] = 2.95875854768068491816892993775e-2
    A[3, 2] = 8.87627564304205475450678981324e-2
    A[4, 0] = 2.41365134159266685502369798665e-1
    A[4, 2] = -8.84549479328286085344864962717e-1
    A[4, 3] = 9.24834003261792003115737966543e-1
    A[5, 0] = 3.7037037037037037037037037037e-2
    A[5, 3] = 1.70828608729473871279604482173e-1
    A[5, 4] = 1.25467687566822425016691814123e-1
    A[6, 0] = 3.7109375e-2
    A[6, 3] = 1.70252211019544039314978060272e-1
    A[6, 4] = 6.02165389804559606850219397283e-2
    A[6, 5] = -1.7578125e-2
    A[7, 0] = 3.70920001185047927108779319836e-2
    A[7, 3] = 1.70383925712239993810214054705e-1
    A[7, 4] = 1.07262030446373284651809199168e-1
    A[7, 5] = -1.53194377486244017527936158236e-2
    A[7, 6] = 8.27378916381402288758473766002e-3
    A[8, 0] = 6.24110958716075717114429577812e-1
    A[8, 3] = -3.36089262944694129406857109825
    A[8, 4] = -8.68219346841726006818189891453e-1
    A[8, 5] = 2.75920996994467083049415600797e1
    A[8, 6] = 2.01540675504778934086186788979e1
    A[8, 7] = -4.34898841810699588477366255144e1
    A[9, 0] = 4.77662536438264365890433908527e-1
    A[9, 3] = -2.48811461997166764192642586468
    A[9, 4] = -5.90290826836842996371446475743e-1
    A[9, 5] = 2.12300514481811942347288949897e1
    A[9, 6] = 1.52792336328824235832596922938e1
    A[9, 7] = -3.32882109689848629194453265587e1
    A[9, 8] = -2.03312017085086261358222928593e-2
    A[10, 0] = -9.3714243008598732571704021658e-1
    A[10, 3] = 5.18637242884406370830023853209
    A[10, 4] = 1.09143734899672957818500254654
    A[10, 5] = -8.14978701074692612513997267357
    A[10, 6] = -1.85200656599969598641566180701e1
    A[10, 7] = 2.27394870993505042818970056734e1
    A[10, 8] = 2.49360555267965238987089396762
    A[10, 9] = -3.0467644718982195003823669022
    A[11, 0] = 2.27331014751653820792359768449
    A[11, 3] = -1.05344954667372501984066689879e1
    A[11, 4] = -2.00087205822486249909675718444
    A[11, 5] = -1.79589318631187989172765950534e1
    A[11, 6] = 2.79488845294199600508499808837e1
    A[11, 7] = -2.85899827713502369474065508674
    A[11, 8] = -8.87285693353062954433549289258
    A[11, 9] = 1.23605671757943030647266201528e1
    A[11, 10] = 6.43392746015763530355970484046e-1
    A[12, 0] = 5.42937341165687622380535766363e-2
    A[12, 5] = 4.45031289275240888144113950566
    A[12, 6] = 1.89151789931450038304281599044
    A[12, 7] = -5.8012039600105847814672114227
    A[12, 8] = 3.1116436695781989440891606237e-1
    A[12, 9] = -1.52160949662516078556178806805e-1
    A[12, 10] = 2.01365400804030348374776537501e-1
    A[12, 11] = 4.47106157277725905176885569043e-2
    E3 = np.append(A[12], 0.0)
    E3[0] -= 0.244094488188976377952755905512
    E3[8] -= 0.733846688281611857341361741547
    E3[11] -= 0.220588235294117647058823529412e-1
    E5 = np.zeros(13)
    E5[0] = 0.1312004499419488073250102996e-1
    E5[5] = -0.1225156446376204440720569753e+1
    E5[6] = -0.4957589496572501915214079952
    E5[7] = 0.1664377182454986536961530415e+1
    E5[8] = -0.3503288487499736816886487290
    E5[9] = 0.3341791187130174790297318841
    E5[10] = 0.8192320648511571246570742613e-1
    E5[11] = -0.2235530786388629525884427845e-1

    def error_norms(K, h, scale):
        out = []
        # lane by lane on Python floats, whose ** 2 is the numpy scalar power
        # and not the array square
        for n5, n3, hb in zip(vector_norms((E5 @ K) / scale).tolist(),
                              vector_norms((E3 @ K) / scale).tolist(), h.tolist()):
            err5, err3 = _square(n5), _square(n3)
            out.append(0.0 if err5 == 0 and err3 == 0 else
                       abs(hb) * err5 / math.sqrt((err5 + 0.01 * err3) * K.shape[-1]))
        return out
    return _Pair(C, A[:12], A[12], error_norms, 7)


_PAIRS = {"RK45": _rk45(), "DOP853": _dop853()}


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
    evaluations, ``steps`` its accepted steps and ``sol`` its dense output
    (RK45 only), which ``integrate`` drops once it has scanned it."""

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


def solve_ivp(fun, t_span, y0, method: str = "RK45", rtol: float = DEFAULT_RTOL,
              atol: float = DEFAULT_ATOL, events=(), first_step=None) -> Solution:
    """Integrate the lane stack y0 (L, n), L independent solves of
    y' = fun(t, y) (see the module docstring), over t_span with
    ``method``, "RK45" or "DOP853", each lane starting with one step of
    its ``first_step``, or over its whole span when it is None or longer.
    ``fun(t, y, lanes)`` takes the times (k,), states (k, n) and lane
    indices (k,) of k of the lanes and returns (k, n); the end of
    ``t_span`` and ``first_step`` may give one value per lane.

    ``events`` are named terminal events (name, g), g(t, y, lanes)
    returning (k,): after each accepted step of a lane those whose sign
    changes between the step's ends (a zero counts as either sign) are
    solved for on the step's interpolant, and the lane stops at the
    earliest root.  Events need RK45's dense output.  Returns a Solution
    of L Lanes.

    The stage sums, step ends, error estimates and interpolants are
    stacked products of lane-major stages (lanes, stages, n), so each
    lane's arithmetic is that of a solve of its own; the step control runs
    lane by lane on Python floats, whose arithmetic is that of numpy's
    float64 scalars."""
    y0 = np.asarray(y0, dtype=float)
    pair = _PAIRS[method]
    if events and pair.P is None:
        raise ValueError(f"{method} has no dense output to locate events on")
    names, fns = [name for name, _ in events], [fn for _, fn in events]
    L, n = y0.shape
    S = len(pair.C)
    t0 = float(t_span[0])
    t1 = _per_lane(t_span[1], L)
    direction = [1.0 if end >= t0 else -1.0 for end in t1]
    rtol = max(rtol, RTOL_FLOOR)
    exponent = -1.0 / (pair.error_order + 1)
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
    A = [pair.A[s, :s] for s in range(S)]
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
        tc = tt + np.multiply.outer(pair.C, h)  # the stage times t + C[s] h
        yr = y[idx]
        K = np.empty((len(run), S + 1, n))
        K[:, 0] = f[idx]
        for s in range(1, S):
            K[:, s] = fun(tc[s], yr + (A[s] @ K[:, :s]) * hc, idx)
        y_new = yr + hc * (pair.B @ K[:, :-1])
        K[:, -1] = fun(tt + h, y_new, idx)
        calls += S
        scale = atol + np.maximum(np.abs(yr), np.abs(y_new)) * rtol
        accepted = []
        for j, (b, err) in enumerate(zip(run, pair.error_norms(K, h, scale))):
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
            Q = Ka.transpose(0, 2, 1) @ pair.P if pair.P is not None else None
            if fns:
                ta = np.array([trial[j] for j in accepted])
                g_acc = [np.asarray(ev(ta, ya, rows), dtype=float).tolist() for ev in fns]
            stopped = False
            for i, j in enumerate(accepted):
                b = run[j]
                if Q is not None:
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
    (default: the whole span).  Without events the pair is DOP853.  A lane
    stops at the first sign change of any fn, found by RK45's own check at
    step ends or by a scan of its dense output at no more than 1/64 of its
    integrated range apart (the scan calls no right-hand side; the scans
    of all lanes are one call of each fn).  Step-size collapse is
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
        out = solve_ivp(_overflow_safe(rhs), (t0, t_span[1]), y0,
                        method="RK45" if events else "DOP853", rtol=rtol, atol=atol,
                        events=events or (), first_step=first_step)
        if not events:
            return out
        hits = _first_sign_changes(out.lanes, events, t0)
    return Solution(tuple(_trim(lane, t0, hit) for lane, hit in zip(out.lanes, hits)),
                    out.nfev, out.steps)
