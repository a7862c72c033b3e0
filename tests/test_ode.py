import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from cartanlab import models, ode, transport
from cartanlab.algebroid import AlgebroidChart
from cartanlab.geometry import Chart


def _ones(t, y, lanes):
    return np.ones((len(y), 1))


def _linear_flow(Xi):
    return lambda t, y, lanes: (Xi @ y.reshape(-1, 3, 3)).reshape(len(y), -1)


def test_event_free_linear_solve_takes_few_steps():
    # G(t) = I + t Xi for a nilpotent translation generator: a Runge-Kutta
    # step is exact on it, so only its error control sets the steps
    Xi = np.array([[0.0, 0.0, 0.7], [0.0, 0.0, -0.4], [0.0, 0.0, 0.0]])
    out, = ode.integrate(_linear_flow(Xi), (0.0, 1.0), np.eye(3).reshape(1, -1),
                         rtol=1e-12, atol=1e-13).lanes
    assert out.status == "completed"
    assert 0 < out.steps < 10
    assert np.max(np.abs(out.states[-1].reshape(3, 3) - (np.eye(3) + Xi))) < 1e-14


def test_event_window_inside_one_full_span_step_is_found():
    # (y - 5)^2 - 0.01 is negative only for t in (4.9, 5.1), far inside the
    # full-span first step, which RK45 accepts since y' = 1 is exact
    out, = ode.integrate(_ones, (0.0, 10.0), [[0.0]],
                         events=[("window", lambda t, y, lanes: (y[..., 0] - 5.0) ** 2 - 0.01)]
                         ).lanes
    assert out.status == "event:window" and out.event_name == "window"
    assert abs(out.t_end - 4.9) < 1e-9
    assert out.times[-1] == out.t_end and abs(out.states[-1][0] - 4.9) < 1e-9


def _ends_at_one(t, y, lanes):
    # a field whose domain ends at t = 1: the solve collapses there
    if t.max() >= 1.0:
        raise ValueError("outside the domain")
    return np.ones((len(y), 1))


def _never(t, y, lanes):
    return np.ones_like(t)


def _window_at_half(t, y, lanes):
    # negative only for y in (0.48, 0.52), between two accepted step ends
    return (y[..., 0] - 0.5) ** 2 - 0.02 ** 2


def test_event_before_a_step_collapse_wins():
    assert ode.integrate(_ends_at_one, (0.0, 2.0), [[0.0]], events=[("never", _never)]
                         ).lanes[0].status == "step_collapse"
    out, = ode.integrate(_ends_at_one, (0.0, 2.0), [[0.0]],
                         events=[("never", _never), ("window", _window_at_half)]).lanes
    assert out.status == "event:window"
    assert abs(out.t_end - 0.48) < 1e-9


def test_first_step_sets_the_first_trial_step():
    out, = ode.integrate(_ones, (0.0, 10.0), [[0.0]], first_step=2.0).lanes
    assert out.status == "completed" and out.times[1] == 2.0
    assert ode.integrate(_ones, (0.0, 10.0), [[0.0]], first_step=20.0).lanes[0].steps == 1


def test_event_scan_covers_the_integrated_range_of_a_long_span():
    # the span is only a bound: a stop event ends the solve at t = 10 inside
    # the one exact first step (0, 20), and the window (4.9, 5.1) lies
    # between two scan times spread over the whole span, not over (0, 10)
    out, = ode.integrate(_ones, (0.0, 1e6), [[0.0]], first_step=20.0,
                         events=[("stop", lambda t, y, lanes: 10.0 - y[..., 0]),
                                 ("window", lambda t, y, lanes: (y[..., 0] - 5.0) ** 2 - 0.01)]
                         ).lanes
    assert out.steps == 1
    assert out.status == "event:window" and abs(out.t_end - 4.9) < 1e-9


def test_lanes_of_no_entries_complete_without_a_step_under_events():
    # a lane of no entries completes at its span end without a step, so it
    # has no dense output for the event scan to read
    zero = lambda t, y, lanes: np.zeros_like(y)     # noqa: E731
    out = ode.integrate(zero, (0.0, 1.0), np.zeros((2, 0)), events=[("never", _never)])
    plain = ode.integrate(zero, (0.0, 1.0), np.zeros((2, 0)))
    assert [(o.status, o.event_name, o.t_end, o.times.tolist(), o.states.shape, o.sol)
            for o in out.lanes] == [("completed", None, 1.0, [0.0, 1.0], (2, 0), None)] * 2
    assert [(o.times.tolist(), o.nfev, o.steps) for o in out.lanes] == \
        [(o.times.tolist(), o.nfev, o.steps) for o in plain.lanes]


def _forced_oscillators(t, y, lanes):
    # q' = p, p' = -(1 + t^2/2) q, r' = t - 0.3 r on a stack of lane states
    return np.stack([y[:, 1], -y[:, 0] * (1.0 + 0.5 * t * t), t - 0.3 * y[:, 2]], axis=1)


@pytest.mark.parametrize("with_events", [False, True])
def test_a_lane_stack_solves_each_lane_as_it_solves_alone(with_events):
    rng = np.random.default_rng(3)
    y0 = rng.uniform(-1.0, 1.0, (7, 3))
    ends, firsts = rng.uniform(-6.0, 6.0, 7), rng.uniform(0.05, 3.0, 7)
    events = [("cross", lambda t, y, lanes: y[:, 0] - 0.5),
              ("late", lambda t, y, lanes: 4.0 - np.abs(t))] if with_events else None
    out = ode.integrate(_forced_oscillators, (0.0, ends), y0, events=events, first_step=firsts)
    assert isinstance(out, ode.Solution) and len(out.lanes) == 7
    S = 6
    for b, got in enumerate(out.lanes):
        want, = ode.integrate(_forced_oscillators, (0.0, ends[b]), y0[b:b + 1], events=events,
                              first_step=firsts[b]).lanes
        assert (got.status, got.event_name, got.steps, got.nfev) == \
            (want.status, want.event_name, want.steps, want.nfev)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.states.tobytes() == want.states.tobytes()
        assert np.float64(got.t_end).tobytes() == np.float64(want.t_end).tobytes()
    assert {o.status for o in out.lanes} >= ({"completed", "event:cross"} if with_events
                                              else {"completed"})
    # one right-hand-side call per stage over the running lanes: the solve
    # takes as many driver steps as its longest lane takes trial steps
    assert out.nfev == 1 + S * out.steps
    assert out.steps == max((o.nfev - 1) // S for o in out.lanes)


def test_a_lane_that_overflows_leaves_its_batch_mate_as_it_runs_alone(circle):
    # the scaling anchor e^-theta raises for the whole stack it reads once
    # one point overflows (theta = -800); only that lane gets the sentinel
    anchor = circle.cover.chart.anchor
    with pytest.raises(FloatingPointError):
        anchor.values(np.array([[-800.0], [0.5]]))

    def rhs(t, y, lanes):
        return anchor.values(y)[:, :, 0]
    both = ode.integrate(rhs, (0.0, 1.0), np.array([[-800.0], [0.5]]))
    alone = ode.integrate(rhs, (0.0, 1.0), np.array([[0.5]]))
    got, want = both.lanes[1], alone.lanes[0]
    assert got.status == "completed" and both.lanes[0].status == "step_collapse"
    assert (got.steps, got.nfev) == (want.steps, want.nfev)
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()


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

def _scipy_solve_ivp(fun, t_span, y0, rtol=ode.DEFAULT_RTOL, atol=ode.DEFAULT_ATOL, events=(),
                     first_step=None):
    """scipy's solve_ivp, configured as ``ode.solve_ivp`` runs, lane by
    lane: a full-span (or the given) first step and terminal events on the
    dense output.  scipy has no driver steps, so the solve counts none."""
    y0 = np.asarray(y0, dtype=float)
    L = len(y0)
    ends = np.broadcast_to(t_span[1], (L,))
    firsts = np.broadcast_to(np.array(first_step, dtype=object), (L,))
    lanes = tuple(_scipy_lane(fun, (t_span[0], ends[b]), y0[b], b, rtol, atol, events,
                              firsts[b]) for b in range(L))
    return ode.Solution(lanes, sum(lane.nfev for lane in lanes), 0)


def _scipy_lane(fun, t_span, y0, b, rtol, atol, events, first_step):
    """Lane b of a lane stack, solved alone by scipy's solve_ivp."""
    at = np.array([b])
    terminal = []
    for _, ev in events:
        def g(t, y, ev=ev):
            return float(ev(np.array([t]), y[None], at)[0])
        g.terminal = True
        terminal.append(g)
    span = abs(t_span[1] - t_span[0])
    if first_step is not None:
        span = min(span, first_step)
    r = scipy.integrate.solve_ivp(lambda t, y: fun(np.array([t]), y[None], at)[0], t_span, y0,
                                  method="RK45", rtol=rtol, atol=atol, first_step=span or None,
                                  events=terminal or None, dense_output=bool(events))
    name = (next(name for (name, _), te in zip(events, r.t_events) if len(te))
            if r.status == 1 else None)
    status = f"event:{name}" if name else {0: "completed", -1: "step_collapse"}[r.status]
    sol = (lambda t: r.sol(t).T) if r.sol is not None else None
    return ode.Lane(r.t, r.y.T, status, float(r.t[-1]), name, r.nfev, len(r.t) - 1, sol)


def _scipy_brent(f, a, b, fa, fb):
    return scipy.optimize.brentq(f, a, b, xtol=ode._ROOT_XTOL, rtol=ode._ROOT_RTOL,
                                 maxiter=ode._ROOT_MAX_ITER)


def _outcomes(monkeypatch, run, oracle: bool):
    """The outcome of every adaptive solve that ``run`` makes, lane by
    lane, with the in-house driver or, for ``oracle``, with scipy's in its
    place."""
    outcomes, integrate = [], ode.integrate

    def recording(*args, **kwargs):
        out = integrate(*args, **kwargs)
        outcomes.extend(out.lanes)
        return out
    with monkeypatch.context() as mp:
        for module in (ode, transport):
            mp.setattr(module, "integrate", recording)
        if oracle:
            mp.setattr(ode, "solve_ivp", _scipy_solve_ivp)
            mp.setattr(ode, "_brent", _scipy_brent)
        run()
    return outcomes


def _linear():
    Xi = np.array([[0.0, 0.0, 0.7], [0.0, 0.0, -0.4], [0.0, 0.0, 0.0]])
    ode.integrate(_linear_flow(Xi), (0.0, 1.0), np.eye(3).reshape(1, -1), rtol=1e-12,
                  atol=1e-13)


def _window():
    ode.integrate(_ones, (0.0, 10.0), [[0.0]],
                  events=[("window", lambda t, y, lanes: (y[..., 0] - 5.0) ** 2 - 0.01)])


def _collapse_and_window():
    ode.integrate(_ends_at_one, (0.0, 2.0), [[0.0]], events=[("never", _never)])
    ode.integrate(_ends_at_one, (0.0, 2.0), [[0.0]],
                  events=[("never", _never), ("window", _window_at_half)])


def _skew_transport():
    # the transport equation dX/dt = -L J X of five full turns and one
    # radian, solved by the driver as a lane solve without events
    L = 10 * math.pi + 1.0
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    ode.integrate(lambda t, y, lanes: (-L * J @ y.reshape(-1, 2, 2)).reshape(len(y), -1),
                  (0.0, 1.0), np.eye(2).reshape(1, -1))


def _circle_geodesics():
    chart = models.counterexample_s1().chart
    transport.geodesic(chart, [0.0], [1.0], span=(0.0, -2.0))      # blows up at t* = -1
    transport.geodesic(chart, [0.0], [1.0], span=(0.0, 100.0))
    transport.geodesic(chart, [0.4], [-1.3], span=(0.0, 3.0))


def _circle_benchmark_geodesics():
    # the benchmark's circle request in one run: three escapes over 1.5
    # times their blow-up times and two completeness seeds in both
    # directions, lanes that retire at their blow-ups until the last runs
    # alone
    rng = np.random.default_rng(11)
    theta = rng.uniform(-1.0, 1.0, 5)
    x = rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
    escapes = [(t, v, (0.0, -1.5 * math.exp(t) / v)) for t, v in zip(theta[:3], x[:3])]
    seeds = [(t, v, (0.0, sign * 10.0)) for t, v in zip(theta[3:], x[3:]) for sign in (1.0, -1.0)]
    m0, X0, spans = zip(*escapes, *seeds)
    runs = transport.geodesic(models.counterexample_s1().chart, np.array(m0)[:, None],
                              np.array(X0)[:, None], span=spans)
    assert [r.status for r in runs].count("blowup") == 5


def _curved_geodesics():
    transport.geodesic(models.sphere2().chart, [1.2, 0.3], [0.5, -0.8, 0.3], span=(0.0, 1.0))
    transport.geodesic(models.hyperbolic2().chart, [0.2, 1.1], [-0.4, 0.6, 0.9],
                       span=(0.0, -1.0))


def _sphere_stack():
    # three sphere2 starts in one run, with their own spans and directions
    transport.geodesic(models.sphere2().chart, [[1.2, 0.3], [1.6, -0.5], [0.9, 1.1]],
                       [[0.5, -0.8, 0.3], [-0.3, 0.4, -0.6], [0.2, 0.6, 0.1]],
                       span=[(0.0, 1.0), (0.0, -0.8), (0.0, 0.5)])


@pytest.mark.parametrize("run", [_linear, _window, _collapse_and_window, _skew_transport,
                                 _circle_geodesics, _circle_benchmark_geodesics,
                                 _curved_geodesics, _sphere_stack])
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
