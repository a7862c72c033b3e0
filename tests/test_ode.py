import math

import numpy as np

from cartanlab import ode, transport
from cartanlab.algebroid import AlgebroidChart
from cartanlab.geometry import Chart


def test_event_free_linear_solve_takes_few_steps():
    # G(t) = I + t Xi for a nilpotent translation generator: a Runge-Kutta
    # step is exact on it, so only its error control sets the steps
    Xi = np.array([[0.0, 0.0, 0.7], [0.0, 0.0, -0.4], [0.0, 0.0, 0.0]])
    out = ode.integrate(lambda t, y: (Xi @ y.reshape(3, 3)).reshape(-1), (0.0, 1.0),
                        np.eye(3).reshape(-1), rtol=1e-12, atol=1e-13)
    assert out.status == "completed"
    assert 0 < out.steps < 10
    assert np.max(np.abs(out.states[-1].reshape(3, 3) - (np.eye(3) + Xi))) < 1e-14


def test_event_window_inside_one_full_span_step_is_found():
    # (y - 5)^2 - 0.01 is negative only for t in (4.9, 5.1), far inside the
    # full-span first step, which RK45 accepts since y' = 1 is exact
    out = ode.integrate(lambda t, y: np.ones(1), (0.0, 10.0), [0.0],
                        events=[("window", lambda t, y: (y[0] - 5.0) ** 2 - 0.01)])
    assert out.status == "event:window" and out.event_name == "window"
    assert abs(out.t_end - 4.9) < 1e-9
    assert out.times[-1] == out.t_end and abs(out.states[-1][0] - 4.9) < 1e-9


def _ends_at_one(t, y):
    # a field whose domain ends at t = 1: the solve collapses there
    if t >= 1.0:
        raise ValueError("outside the domain")
    return np.ones(1)


def test_event_before_a_step_collapse_wins():
    never = ("never", lambda t, y: 1.0)
    assert ode.integrate(_ends_at_one, (0.0, 2.0), [0.0], events=[never]).status == \
        "step_collapse"
    # negative only for y in (0.48, 0.52), between two accepted step ends
    out = ode.integrate(_ends_at_one, (0.0, 2.0), [0.0],
                        events=[never, ("window", lambda t, y: (y[0] - 0.5) ** 2 - 0.02 ** 2)])
    assert out.status == "event:window"
    assert abs(out.t_end - 0.48) < 1e-9


def test_constant_skew_transport_turns_several_times_exactly():
    # dX/dt = -L J X along m(t) = tL: the transport is the rotation by -L,
    # five full turns and one radian, which a full-span step must not skip
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    chart = AlgebroidChart(Chart((-np.inf,), (np.inf,)), 2,
                           anchor=lambda m: np.eye(1, 2, dtype=object),
                           gamma=lambda m: J[None].astype(object),
                           torsion=lambda m: np.zeros((2, 2, 2), dtype=object))
    L = 10 * math.pi + 1.0
    M = transport.transport_matrix(chart, transport.line_path([0.0], [L]))
    rot = np.array([[math.cos(L), math.sin(L)], [-math.sin(L), math.cos(L)]])
    assert np.max(np.abs(M - rot)) < 1e-8
