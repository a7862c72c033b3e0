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
are located on the interpolant by Brent's method.  The fixed-step
classical RK4 lives here as an independent oracle and doubles as the
dual-number-capable integrator (the adaptive driver steps float arrays
only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    norm ``error_norm(K, h, scale)`` of the stages ``K`` (the last row
    holds f at the step end), the order of that estimate, and the
    dense-output coefficients ``P`` where the pair has them."""

    C: np.ndarray
    A: np.ndarray
    B: np.ndarray
    error_norm: Callable
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

    def error_norm(K, h, scale):
        err = np.dot(K.T, E) * h / scale
        return np.linalg.norm(err) / err.size ** 0.5
    return _Pair(C, A, B, error_norm, 4, P)


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

    def error_norm(K, h, scale):
        err5 = np.linalg.norm(np.dot(K.T, E5) / scale) ** 2
        err3 = np.linalg.norm(np.dot(K.T, E3) / scale) ** 2
        if err5 == 0 and err3 == 0:
            return 0.0
        return np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale))
    return _Pair(C, A[:12], A[12], error_norm, 7)


_PAIRS = {"RK45": _rk45(), "DOP853": _dop853()}


def _rk_interpolate(t, t_old, h, y_old, Q):
    """RK45 dense output of the steps (t_old, h, y_old, Q) at t; the
    arguments broadcast, so one call serves many steps and times."""
    x = (np.asarray(t) - t_old) / h
    p = np.cumprod(np.repeat(np.asarray(x)[..., None], Q.shape[-1], axis=-1), axis=-1)
    return y_old + np.asarray(h)[..., None] * np.einsum("...nk,...k->...n", Q, p)


class DenseOutput:
    """Continuous solution of an RK45 solve: each accepted step's
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
class Solution:
    """A ``solve_ivp`` result.  ``t`` holds the start and every accepted
    step end; after an event its last entry is the event time instead of
    the end of the step that crossed it.  ``y`` (T, n) holds the states at
    ``t``, ``nfev`` the right-hand-side calls, ``event`` the index of the
    event that stopped the solve and ``sol`` the dense output (RK45 only)."""

    t: np.ndarray
    y: np.ndarray
    status: str                 # "completed" | "event" | "step_collapse"
    nfev: int
    event: int | None = None
    sol: DenseOutput | None = None


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


def solve_ivp(fun, t_span, y0, method: str = "RK45", rtol: float = DEFAULT_RTOL,
              atol: float = DEFAULT_ATOL, events=(), first_step=None) -> Solution:
    """Integrate y' = fun(t, y) from y0 over t_span with ``method``, "RK45"
    or "DOP853", starting with one step of ``first_step``, or over the
    whole span when it is None or longer.

    ``events`` are functions g(t, y), all terminal: after each accepted
    step those whose sign changes between the step's ends (a zero counts
    as either sign) are solved for on the step's interpolant, and the
    solve stops at the earliest root.  Events need RK45's dense output.
    """
    pair = _PAIRS[method]
    if events and pair.P is None:
        raise ValueError(f"{method} has no dense output to locate events on")
    t0, t1 = float(t_span[0]), float(t_span[1])
    direction = 1.0 if t1 >= t0 else -1.0
    rtol = max(rtol, RTOL_FLOOR)
    exponent = -1.0 / (pair.error_order + 1)
    y = np.array(y0, dtype=float)
    f = fun(t0, y)
    nfev = 1
    ts, ys, steps = [t0], [y], []
    if y.size == 0 or t0 == t1:
        return Solution(np.array([t0, t1]), np.array([y, y]), "completed", nfev)
    g = [ev(t0, y) for ev in events]
    K = np.empty((len(pair.C) + 1, y.size))
    t, h_abs = t0, abs(t1 - t0)
    if first_step is not None:
        h_abs = min(h_abs, first_step)
    status, hit = "completed", None
    while direction * (t - t1) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = "step_collapse"
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, len(pair.C)):
                K[s] = fun(t + pair.C[s] * h, y + np.dot(K[:s].T, pair.A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, pair.B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            nfev += len(pair.C)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = pair.error_norm(K, h, scale)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** exponent)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** exponent)
            rejected = True
        if status == "step_collapse":
            break
        step = (t, h, y, K.T.dot(pair.P)) if pair.P is not None else None
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        if step is not None:
            steps.append(step)
        if not events:
            continue
        g_new = [ev(t, y) for ev in events]
        roots = [(k, _brent(lambda s, ev=ev: ev(s, _rk_interpolate(s, *step)),
                            step[0], t, g[k], g_new[k]))
                 for k, ev in enumerate(events)
                 if (g[k] <= 0 and g_new[k] >= 0) or (g[k] >= 0 and g_new[k] <= 0)]
        if roots:
            hit, ts[-1] = min(roots, key=lambda kr: direction * kr[1])
            ys[-1] = _rk_interpolate(ts[-1], *step)
            status = "event"
            break
        g = g_new
    sol = DenseOutput(steps, direction) if steps else None
    return Solution(np.array(ts), np.array(ys), status, nfev, hit, sol)


@dataclass
class IvpOutcome:
    times: np.ndarray
    states: np.ndarray          # (T, dim)
    status: str                 # "completed" | "event:<name>" | "step_collapse"
    t_end: float
    event_name: str | None = None
    nfev: int = 0               # right-hand-side evaluations
    steps: int = 0              # accepted steps


def _overflow_safe(rhs):
    """Trial steps can overshoot into float overflow or slightly past a
    field's domain; returning huge finite values forces step rejection
    instead of a crash (the terminal events stop integration first)."""
    def f(t, y):
        try:
            out = np.asarray(rhs(t, y), dtype=float)
        except (OverflowError, FloatingPointError, ValueError,
                np.linalg.LinAlgError):
            return np.full(np.shape(y), 1e150)
        if not np.all(np.isfinite(out)):
            out = np.nan_to_num(out, nan=1e150, posinf=1e150, neginf=-1e150)
        return out
    return f


def _first_sign_change(sol, fns, t0: float, stop: float, closed: bool):
    """(k, t) for the earliest sign change of any event function fns[k] on
    the dense output, or None.  ``solve_ivp`` checks the sign at every
    step end, so only the steps that hold a scan time t0 + j(stop - t0)/64
    are scanned, at those times and at the step's two ends, up to
    ``stop``, the end of the integrated range (included when ``closed``):
    one call of each fn on the stack of grid states.  A change between two
    grid times is located by Brent's method on the interpolant."""
    d = stop - t0
    scan = t0 + d * np.arange(1, _EVENT_SCAN_POINTS) / _EVENT_SCAN_POINTS
    i = np.searchsorted(sol.t * np.sign(d), scan * np.sign(d))   # sol.t[i-1] < scan <= sol.t[i]
    grid = np.concatenate([scan, sol.t[i - 1], sol.t[i], [stop]])
    ahead = (grid - stop) * d
    grid = np.unique(grid[(ahead <= 0) if closed else (ahead < 0)])[::1 if d > 0 else -1]
    if len(grid) < 2:
        return None
    ys = sol.sol(grid)
    best = None
    for k, fn in enumerate(fns):
        g = np.asarray(fn(grid, ys), dtype=float)
        hits = np.nonzero((g[:-1] != 0) & (g[:-1] * g[1:] <= 0))[0]
        if len(hits):
            j = hits[0]
            t = _brent(lambda s: fn(s, sol.sol(s)), grid[j], grid[j + 1], g[j], g[j + 1])
            if best is None or (t - best[1]) * d < 0:
                best = (k, t)
    return best


def integrate(rhs, t_span, y0, events=None, rtol=DEFAULT_RTOL,
              atol=DEFAULT_ATOL, first_step=None) -> IvpOutcome:
    """Adaptive integration with named terminal events.

    Error control at rtol/atol sizes every step, starting from one step
    of ``first_step`` (default: the whole span).  Without events the pair
    is DOP853.  ``events`` is a list of (name, fn): fn(t, y) takes one
    time and state and returns a float, or times (T,) and a stack of
    states (T, n) and returns (T,).  Integration stops at the first sign
    change of any fn, found by RK45's own check at step ends or by a scan
    of the dense output at no more than 1/64 of the integrated range apart
    (the scan calls no right-hand side).
    Step-size collapse is reported as its own status (the solver cannot
    continue but the last reached time brackets the breakdown); an event
    before the collapse wins.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    names = [name for name, _ in events or ()]
    fns = [fn for _, fn in events or ()]
    # the 1e150 sentinel of _overflow_safe overflows the error norm, which
    # then rejects the step as intended
    with np.errstate(over="ignore"):
        sol = solve_ivp(_overflow_safe(rhs), (t0, t1), y0,
                        method="RK45" if fns else "DOP853", rtol=rtol, atol=atol,
                        events=fns, first_step=first_step)
        work = {"nfev": sol.nfev, "steps": len(sol.t) - 1}
        hit, t_hit = sol.event, float(sol.t[-1])
        if fns and t_hit != t0:
            earlier = _first_sign_change(sol, fns, t0, t_hit, closed=hit is None)
            if earlier is not None:
                hit, t_hit = earlier
    if hit is not None:
        keep = (sol.t - t_hit) * (t1 - t0) < 0
        times = np.append(sol.t[keep], t_hit)
        states = np.vstack([sol.y[keep], sol.sol(t_hit)])
        return IvpOutcome(times, states, f"event:{names[hit]}", t_hit, names[hit], **work)
    if sol.status == "step_collapse":
        return IvpOutcome(sol.t, sol.y, "step_collapse", float(sol.t[-1]), **work)
    return IvpOutcome(sol.t, sol.y, "completed", t1, **work)


def rk4(rhs, t0: float, t1: float, y0, steps: int):
    """Fixed-step classical RK4; works elementwise so dual-number states
    pass straight through."""
    y = np.asarray(y0, dtype=object).copy()
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = np.asarray(rhs(t, y), dtype=object)
        k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1), dtype=object)
        k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2), dtype=object)
        k4 = np.asarray(rhs(t + h, y + h * k3), dtype=object)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y
