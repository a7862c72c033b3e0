import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from cartanlab import development, models, ode, transport
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
                        events=[("window", lambda t, y: (y[..., 0] - 5.0) ** 2 - 0.01)])
    assert out.status == "event:window" and out.event_name == "window"
    assert abs(out.t_end - 4.9) < 1e-9
    assert out.times[-1] == out.t_end and abs(out.states[-1][0] - 4.9) < 1e-9


def _ends_at_one(t, y):
    # a field whose domain ends at t = 1: the solve collapses there
    if t >= 1.0:
        raise ValueError("outside the domain")
    return np.ones(1)


def test_event_before_a_step_collapse_wins():
    never = ("never", lambda t, y: np.ones_like(t))
    assert ode.integrate(_ends_at_one, (0.0, 2.0), [0.0], events=[never]).status == \
        "step_collapse"
    # negative only for y in (0.48, 0.52), between two accepted step ends
    out = ode.integrate(_ends_at_one, (0.0, 2.0), [0.0],
                        events=[never, ("window", lambda t, y: (y[..., 0] - 0.5) ** 2 - 0.02 ** 2)])
    assert out.status == "event:window"
    assert abs(out.t_end - 0.48) < 1e-9


def test_first_step_sets_the_first_trial_step():
    out = ode.integrate(lambda t, y: np.ones(1), (0.0, 10.0), [0.0], first_step=2.0)
    assert out.status == "completed" and out.times[1] == 2.0
    assert ode.integrate(lambda t, y: np.ones(1), (0.0, 10.0), [0.0],
                         first_step=20.0).steps == 1


def test_event_scan_covers_the_integrated_range_of_a_long_span():
    # the span is only a bound: a stop event ends the solve at t = 10 inside
    # the one exact first step (0, 20), and the window (4.9, 5.1) lies
    # between two scan times spread over the whole span, not over (0, 10)
    out = ode.integrate(lambda t, y: np.ones(1), (0.0, 1e6), [0.0], first_step=20.0,
                        events=[("stop", lambda t, y: 10.0 - y[..., 0]),
                                ("window", lambda t, y: (y[..., 0] - 5.0) ** 2 - 0.01)])
    assert out.steps == 1
    assert out.status == "event:window" and abs(out.t_end - 4.9) < 1e-9


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


# -- the in-house driver against scipy's solve_ivp and brentq -----------------

def _scipy_solve_ivp(fun, t_span, y0, method="RK45", rtol=ode.DEFAULT_RTOL,
                     atol=ode.DEFAULT_ATOL, events=(), first_step=None):
    """scipy's solve_ivp, configured as ``ode.solve_ivp`` runs: a full-span
    (or the given) first step and terminal events on the dense output."""
    for ev in events:
        ev.terminal = True
    span = abs(t_span[1] - t_span[0])
    if first_step is not None:
        span = min(span, first_step)
    r = scipy.integrate.solve_ivp(fun, t_span, np.asarray(y0, dtype=float), method=method,
                                  rtol=rtol, atol=atol, first_step=span or None,
                                  events=list(events) or None, dense_output=bool(events))
    status = {0: "completed", 1: "event", -1: "step_collapse"}[r.status]
    hit = next(k for k, te in enumerate(r.t_events) if len(te)) if r.status == 1 else None
    sol = (lambda t: r.sol(t).T) if r.sol is not None else None
    return ode.Solution(r.t, r.y.T, status, r.nfev, hit, sol)


def _scipy_brent(f, a, b, fa, fb):
    return scipy.optimize.brentq(f, a, b, xtol=ode._ROOT_XTOL, rtol=ode._ROOT_RTOL,
                                 maxiter=ode._ROOT_MAX_ITER)


def _outcomes(monkeypatch, run, oracle: bool):
    """The outcome of every adaptive solve that ``run`` makes, with the
    in-house driver or, for ``oracle``, with scipy's in its place."""
    outcomes, integrate = [], ode.integrate

    def recording(*args, **kwargs):
        outcomes.append(integrate(*args, **kwargs))
        return outcomes[-1]
    with monkeypatch.context() as mp:
        for module in (ode, transport, development):
            mp.setattr(module, "integrate", recording)
        if oracle:
            mp.setattr(ode, "solve_ivp", _scipy_solve_ivp)
            mp.setattr(ode, "_brent", _scipy_brent)
        run()
    return outcomes


def _linear():
    Xi = np.array([[0.0, 0.0, 0.7], [0.0, 0.0, -0.4], [0.0, 0.0, 0.0]])
    ode.integrate(lambda t, y: (Xi @ y.reshape(3, 3)).reshape(-1), (0.0, 1.0),
                  np.eye(3).reshape(-1), rtol=1e-12, atol=1e-13)


def _window():
    ode.integrate(lambda t, y: np.ones(1), (0.0, 10.0), [0.0],
                  events=[("window", lambda t, y: (y[..., 0] - 5.0) ** 2 - 0.01)])


def _collapse_and_window():
    never = ("never", lambda t, y: np.ones_like(t))
    ode.integrate(_ends_at_one, (0.0, 2.0), [0.0], events=[never])
    ode.integrate(_ends_at_one, (0.0, 2.0), [0.0],
                  events=[never, ("window", lambda t, y: (y[..., 0] - 0.5) ** 2 - 0.02 ** 2)])


def _skew_transport():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    chart = AlgebroidChart(Chart((-np.inf,), (np.inf,)), 2,
                           anchor=lambda m: np.eye(1, 2, dtype=object),
                           gamma=lambda m: J[None].astype(object),
                           torsion=lambda m: np.zeros((2, 2, 2), dtype=object))
    transport.transport_matrix(chart, transport.line_path([0.0], [10 * math.pi + 1.0]))


def _circle_geodesics():
    chart = models.counterexample_s1().chart
    transport.geodesic(chart, [0.0], [1.0], span=(0.0, -2.0))      # blows up at t* = -1
    transport.geodesic(chart, [0.0], [1.0], span=(0.0, 100.0))
    transport.geodesic(chart, [0.4], [-1.3], span=(0.0, 3.0))


def _curved_geodesics():
    transport.geodesic(models.sphere2().chart, [1.2, 0.3], [0.5, -0.8, 0.3], span=(0.0, 1.0))
    transport.geodesic(models.hyperbolic2().chart, [0.2, 1.1], [-0.4, 0.6, 0.9],
                       span=(0.0, -1.0))


def _develop():
    circle = models.counterexample_s1()
    development.develop_paths(circle.cover, circle.homog,
                              [transport.line_path([0.0], [x]) for x in (1.0, -0.7, 5.5)])
    torus = models.flat_torus()
    development.reconstruct_atlas(torus.glued, torus.homog, torus.atlas_spec)


@pytest.mark.parametrize("run", [_linear, _window, _collapse_and_window, _skew_transport,
                                 _circle_geodesics, _curved_geodesics, _develop])
def test_driver_matches_scipy_solve_ivp(run, monkeypatch):
    ours = _outcomes(monkeypatch, run, oracle=False)
    theirs = _outcomes(monkeypatch, run, oracle=True)
    assert len(ours) == len(theirs) > 0
    for a, b in zip(ours, theirs):
        assert (a.status, a.event_name) == (b.status, b.event_name)
        assert (a.steps, a.nfev) == (b.steps, b.nfev)
        assert math.isclose(a.t_end, b.t_end, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
    (lambda x: math.tanh(50 * (x - 0.3)), 1.0, -1.0),
    (lambda x: math.expm1(x) - 1e-9, -1.0, 3.0),
])
def test_brent_matches_brentq(f, a, b):
    got = ode._brent(f, a, b, f(a), f(b))
    want = scipy.optimize.brentq(f, a, b, xtol=ode._ROOT_XTOL, rtol=ode._ROOT_RTOL,
                                 maxiter=ode._ROOT_MAX_ITER)
    assert abs(got - want) <= 16 * ode._EPS * max(1.0, abs(want))
