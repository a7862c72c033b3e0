import numpy as np

from cartanlab import ode, transport
from cartanlab.transport import geodesic


def test_event_free_linear_solve_takes_few_steps():
    # G(t) = I + t Xi for a nilpotent translation generator: RK45 is exact
    # on it, so only its error control sets the steps
    Xi = np.array([[0.0, 0.0, 0.7], [0.0, 0.0, -0.4], [0.0, 0.0, 0.0]])
    out = ode.integrate(lambda t, y: (Xi @ y.reshape(3, 3)).reshape(-1), (0.0, 1.0),
                        np.eye(3).reshape(-1), rtol=1e-12, atol=1e-13)
    assert out.status == "completed"
    assert 0 < out.steps < 10
    assert np.max(np.abs(out.states[-1].reshape(3, 3) - (np.eye(3) + Xi))) < 1e-14


def test_solves_with_terminal_events_keep_the_step_cap(translations2, monkeypatch):
    outcomes = []

    def recording(*args, **kwargs):
        out = ode.integrate(*args, **kwargs)
        outcomes.append(out)
        return out
    monkeypatch.setattr(transport, "integrate", recording)
    res = geodesic(translations2.chart, [0.0, 0.0], [0.7, -0.3], span=(0.0, 2.0))
    assert res.status == "completed"
    assert len(outcomes) == 1 and outcomes[0].steps >= 64
