"""Integration backends.

Adaptive integration delegates to scipy's Runge-Kutta 4(5) with tight
tolerances.  Its embedded error estimate sets every step; only solves
with terminal events also cap the step at 1/64 of the span, so that a
sign change of an event function cannot be stepped over.  The fixed-step
classical RK4 lives here as an independent oracle and doubles as the
dual-number-capable integrator (scipy cannot step through object arrays).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-9
# steps per span at least, for solves with terminal events
_EVENT_MIN_STEPS = 64


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


def integrate(rhs, t_span, y0, events=None, rtol=DEFAULT_RTOL,
              atol=DEFAULT_ATOL) -> IvpOutcome:
    """Adaptive RK45 with named terminal events.

    ``events`` is a list of (name, fn) with fn(t, y) -> float; integration
    stops at the first sign change of any fn, and no step is longer than
    1/64 of the span.  Without events the error control at rtol/atol alone
    sets the steps.  Step-size collapse is reported as its own status (the
    solver cannot continue but the last reached time brackets the
    breakdown).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    span = abs(t1 - t0)
    evs = []
    names = []
    for name, fn in (events or []):
        fn.terminal = True
        evs.append(fn)
        names.append(name)
    sol = solve_ivp(_overflow_safe(rhs), (t0, t1), np.asarray(y0, dtype=float),
                    method="RK45", rtol=rtol, atol=atol,
                    max_step=span / _EVENT_MIN_STEPS if evs and span > 0 else np.inf,
                    first_step=span * 1e-4 if span > 0 else None,
                    events=evs or None, dense_output=False)
    times = sol.t
    states = sol.y.T
    work = {"nfev": sol.nfev, "steps": len(sol.t) - 1}
    if sol.status == 1:
        for k, te in enumerate(sol.t_events):
            if len(te):
                tev = float(te[0])
                yev = sol.y_events[k][0]
                times = np.append(times, tev)
                states = np.vstack([states, yev])
                return IvpOutcome(times, states, f"event:{names[k]}", tev, names[k],
                                  **work)
    if sol.status == -1:
        return IvpOutcome(times, states, "step_collapse", float(sol.t[-1]), **work)
    return IvpOutcome(times, states, "completed", t1, **work)


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
