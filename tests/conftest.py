from __future__ import annotations

import numpy as np
import pytest

from cartanlab import models
import oracles


@pytest.fixture(scope="session")
def circle():
    return models.counterexample_s1()


@pytest.fixture(scope="session")
def torus():
    return models.flat_torus()


@pytest.fixture(scope="session")
def sphere():
    return models.sphere2()


@pytest.fixture(scope="session")
def hyperbolic():
    return models.hyperbolic2()


@pytest.fixture(scope="session")
def euclid():
    return oracles.euclidean2()


@pytest.fixture(scope="session")
def ellipsoid():
    return oracles.ellipsoid2()


@pytest.fixture(scope="session")
def so3_action():
    return oracles.so3_r3_model()


@pytest.fixture(scope="session")
def translations2():
    return models.translations_model(2)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


@pytest.fixture()
def nan_after_first_point():
    """Wrap a field-like fn(..., m) so that it returns NaNs at every point
    but the first it is evaluated at: a check that reduces residuals over
    samples must then fail, whichever sample comes first."""
    from cartanlab.dual import value

    def wrap(fn):
        first = []

        def f(*args):
            out = np.asarray(fn(*args), dtype=object)
            at = np.asarray(value(np.asarray(args[-1], dtype=object)), dtype=float)
            first[:] = first or [at]
            return out if np.array_equal(at, first[0]) else np.full(out.shape, np.nan)
        return f
    return wrap
