"""Speed probe: a fixed piece of work, timed every PROBE_INTERVAL_S while
requests run, that tells how fast the shared machine ran this process at
that moment.

On a shared host the same request can take 1.5 times longer when other
tenants are busy, and that state changes within seconds.  The probe runs
inside the request (from a SIGALRM handler, between bytecodes of the main
thread), so it sees the same machine state as the request it interrupts.
A request's adjusted time is its wall time, minus the time spent in the
probe, scaled by NOMINAL_PROBE_S over the (trimmed) mean probe time
during the request: the time the request would take on a machine where one probe
takes NOMINAL_PROBE_S.  The probe is benchmark code, so a change to the
program cannot move it.

The probe mixes a pure-Python integer loop with small numpy operations
and float conversions, the two kinds of work cartanlab's layers do.
"""

from __future__ import annotations

import signal
from time import perf_counter

PROBE_INTERVAL_S = 0.1
# A setup lasts about 1 s; probe it more often to get enough samples.
SETUP_PROBE_INTERVAL_S = 0.02
# About the probe times on an uncontended core of the 2-core Xeon VM where
# the benchmark was built; contended, the full probe took up to 1.7 ms.
NOMINAL_PROBE_S = 1.0e-3
NOMINAL_PYTHON_PROBE_S = 0.4e-3
# Share of samples dropped at each end before averaging: a preempted probe
# is an outlier, not a machine state.
TRIM = 0.1
MIN_SAMPLES = 5


def python_probe() -> float:
    """Time the pure-Python half of the probe, in seconds.  It imports
    nothing, so it can run while an interpreter's setup is measured."""
    t0 = perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    return perf_counter() - t0


def probe() -> float:
    """Time the full probe, in seconds."""
    import numpy as np
    t0 = perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    m = np.eye(3)
    x = m
    for _ in range(130):
        x = x @ m + m * 0.5
        acc += sum(float(v) for v in x[0]) > 0.0
    return perf_counter() - t0


def trimmed_mean(values) -> float:
    s = sorted(values)
    k = int(len(s) * TRIM)
    s = s[k:len(s) - k] if len(s) > 2 * k else s
    return sum(s) / len(s)


class Sampler:
    """Runs the probe on a timer while active.

    ``samples`` holds every probe time; ``overhead`` is the wall time spent
    in the handler, which callers subtract from the times they measure.
    """

    def __init__(self, probe=probe, nominal: float = NOMINAL_PROBE_S,
                 interval: float = PROBE_INTERVAL_S):
        self.probe = probe
        self.nominal = nominal
        self.interval = interval
        self.samples: list[float] = []
        self.overhead = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(self.probe())
        self.overhead += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, since: int) -> float:
        """The nominal probe time over the mean probe time of samples[since:],
        widened back to the last MIN_SAMPLES samples when a request was
        too short to collect that many."""
        s = self.samples[since:]
        if len(s) < MIN_SAMPLES:
            s = self.samples[-MIN_SAMPLES:]
        if len(s) < MIN_SAMPLES:
            s = s + [self.probe() for _ in range(MIN_SAMPLES - len(s))]
        return self.nominal / trimmed_mean(s)
