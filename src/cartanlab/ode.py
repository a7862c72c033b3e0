"""Integration backends.

Adaptive integration delegates to scipy with tight tolerances, and the
embedded error estimate alone sizes every step: each solve first tries
the whole span in one step.  Solves without events use DOP853, the
8th-order Dormand-Prince pair.  Solves with terminal events use RK45 with
dense output; besides scipy's own check at step ends, every event
function is scanned on the interpolant at 64 evenly spaced times per
span, so a sign change that opens and closes inside one long step is
still found.  The fixed-step classical RK4 lives here as an independent
oracle and doubles as the dual-number-capable integrator (scipy cannot
step through object arrays).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-9
# event functions are scanned at this many evenly spaced times per span
_EVENT_SCAN_POINTS = 64
_EPS = np.finfo(float).eps


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


def _first_sign_change(sol, fns, t0: float, t1: float, stop: float, closed: bool):
    """(k, t) for the earliest sign change of any event function fns[k] on
    the dense output, or None.  scipy checks the sign at every step end, so
    only the steps that hold a scan time t0 + j(t1 - t0)/64 are scanned, at
    those times and at the step's two ends, up to ``stop`` (included when
    ``closed``); a change between two scan times is located by brentq on
    the interpolant."""
    d = t1 - t0
    scan = t0 + d * np.arange(1, _EVENT_SCAN_POINTS) / _EVENT_SCAN_POINTS
    scan = scan[(scan - stop) * d < 0]
    i = np.searchsorted(sol.t * np.sign(d), scan * np.sign(d))   # sol.t[i-1] < scan <= sol.t[i]
    grid = np.concatenate([scan, sol.t[i - 1], sol.t[i], [stop]])
    ahead = (grid - stop) * d
    grid = np.unique(grid[(ahead <= 0) if closed else (ahead < 0)])[::1 if d > 0 else -1]
    if len(grid) < 2:
        return None
    ys = sol.sol(grid)
    best = None
    for k, fn in enumerate(fns):
        g = np.array([fn(t, ys[:, j]) for j, t in enumerate(grid)])
        hits = np.nonzero((g[:-1] != 0) & (g[:-1] * g[1:] <= 0))[0]
        if len(hits):
            j = hits[0]
            ends = {grid[j]: g[j], grid[j + 1]: g[j + 1]}   # brentq sees the scanned signs
            t = brentq(lambda s: ends[s] if s in ends else fn(s, sol.sol(s)),
                       grid[j], grid[j + 1], xtol=4 * _EPS, rtol=4 * _EPS)
            if best is None or (t - best[1]) * d < 0:
                best = (k, t)
    return best


def integrate(rhs, t_span, y0, events=None, rtol=DEFAULT_RTOL,
              atol=DEFAULT_ATOL) -> IvpOutcome:
    """Adaptive integration with named terminal events.

    Error control at rtol/atol sizes every step, starting from one step
    over the whole span.  Without events the solver is DOP853.  ``events``
    is a list of (name, fn) with fn(t, y) -> float; integration stops at
    the first sign change of any fn, found by RK45's own check at step
    ends or by a scan of the dense output at no more than 1/64 of the span
    apart (the scan calls no right-hand side).  Step-size collapse is
    reported as its own status (the solver cannot continue but the last
    reached time brackets the breakdown); an event before the collapse
    wins.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    span = abs(t1 - t0)
    names = [name for name, _ in events or ()]
    fns = [fn for _, fn in events or ()]
    for fn in fns:
        fn.terminal = True
    # the 1e150 sentinel of _overflow_safe overflows scipy's error norm,
    # which then rejects the step as intended
    with np.errstate(over="ignore"):
        sol = solve_ivp(_overflow_safe(rhs), (t0, t1), np.asarray(y0, dtype=float),
                        method="RK45" if fns else "DOP853", rtol=rtol, atol=atol,
                        first_step=span if span > 0 else None,
                        events=fns or None, dense_output=bool(fns))
        work = {"nfev": sol.nfev, "steps": len(sol.t) - 1}
        hit = None
        if sol.status == 1:     # scipy's own event time ends sol.t
            hit = next(k for k, te in enumerate(sol.t_events) if len(te))
        t_hit = float(sol.t[-1])
        if fns and span > 0:
            earlier = _first_sign_change(sol, fns, t0, t1, t_hit, closed=hit is None)
            if earlier is not None:
                hit, t_hit = earlier
    if hit is not None:
        keep = (sol.t - t_hit) * (t1 - t0) < 0
        times = np.append(sol.t[keep], t_hit)
        states = np.vstack([sol.y.T[keep], sol.sol(t_hit)])
        return IvpOutcome(times, states, f"event:{names[hit]}", t_hit, names[hit], **work)
    if sol.status == -1:
        return IvpOutcome(sol.t, sol.y.T, "step_collapse", float(sol.t[-1]), **work)
    return IvpOutcome(sol.t, sol.y.T, "completed", t1, **work)


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
