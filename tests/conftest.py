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
    samples must then fail, whichever sample comes first.  At a lane point
    of ``dual.taylor_stack`` the values turn NaN on the lanes of every
    other point."""
    from cartanlab.dual import Dual, value

    def wrap(fn):
        first = []

        def f(*args):
            out = np.asarray(fn(*args), dtype=object)
            # the point's coordinates, one row per lane at a lane point
            at = np.array([value(x) for x in args[-1]], dtype=float).T
            first[:] = first or [at.reshape(-1, len(args[-1]))[0]]
            keep = np.all(at == first[0], axis=-1)
            if keep.ndim == 0:
                return out if keep else np.full(out.shape, np.nan)

            def blank(x):
                if isinstance(x, Dual):
                    return Dual(blank(x.val), x.eps)
                return np.where(keep, x, np.nan)
            res = np.empty(out.shape, dtype=object)
            flat = res.reshape(-1)
            for k, x in enumerate(out.flat):
                flat[k] = blank(x)
            return res
        return f
    return wrap
