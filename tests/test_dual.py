import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from cartanlab import dual
from cartanlab.dual import Dual, value
import oracles


def test_first_derivative_matches_closed_form():
    f = lambda x: dual.sin(x) * x * x + dual.exp(2.0 * x)
    x0 = 0.7
    d = f(Dual(x0, 1.0))
    exact = math.cos(x0) * x0 ** 2 + 2 * x0 * math.sin(x0) + 2 * math.exp(2 * x0)
    assert abs(d.eps - exact) < 1e-13


def test_second_derivative_via_nesting():
    f = lambda x: dual.log(x) * dual.sqrt(x)
    x0 = 1.9
    seed = Dual(Dual(x0, 1.0), Dual(1.0, 0.0))
    out = f(seed)
    # d2/dx2 [log x sqrt x] = -log x / (4 x^{3/2})
    exact = -0.25 * math.log(x0) / x0 ** 1.5
    # cross-check against central differences of the first derivative
    h = 1e-6
    d1 = lambda x: f(Dual(x, 1.0)).eps
    fd = (d1(x0 + h) - d1(x0 - h)) / (2 * h)
    assert abs(out.eps.eps - fd) < 1e-8
    assert abs(out.eps.eps - exact) < 1e-12


def test_polynomial_jacobian_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    exprs = [x ** 3 * y - 2 * y ** 2, x * y + sympy.sin(x)]
    J_sym = sympy.Matrix(exprs).jacobian([x, y])
    pt = {x: 0.8, y: -1.1}
    expected = np.array(J_sym.subs(pt), dtype=float)

    def f(m):
        return np.array([m[0] ** 3 * m[1] - 2.0 * m[1] ** 2,
                         m[0] * m[1] + dual.sin(m[0])], dtype=object)

    got = value(dual.jacobian(f, np.array([0.8, -1.1])))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_jacobian_at_a_dual_point_matches_directionals():
    def f(m):
        return np.array([[m[0] ** 3 * m[1], dual.sin(m[0] * m[2])],
                         [dual.exp(m[1]) / m[2], 2.0]], dtype=object)

    m = dual.lift(np.array([0.8, -1.1, 0.6], dtype=object), [0.3, -0.5, 1.2])
    J = dual.jacobian(f, m)
    assert J.shape == (2, 2, 3)
    for k in range(3):
        want = np.asarray(oracles.directional(f, m, np.eye(3)[k]), dtype=object)
        for part in (value, lambda x: value(oracles.eps_part(x))):
            assert np.array_equal(part(J[..., k]), part(want))


def test_directional_second_derivative():
    def f(m):
        return m[0] ** 2 * m[1]

    out = dual.taylor(f, np.array([1.5, 2.0]), 2).d.d[0, 1]
    # d^2/dxdy (x^2 y) = 2x
    assert abs(value(out) - 3.0) < 1e-13


@settings(max_examples=150, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_product_rule_holds(a, da, b, db):
    x = Dual(a, da)
    y = Dual(b, db)
    z = x * y
    assert z.val == a * b
    assert abs(z.eps - (a * db + b * da)) < 1e-9 * (1 + abs(a * db) + abs(b * da))


def _value_by_recursion(x):
    if isinstance(x, Dual):
        return _value_by_recursion(x.val)
    if isinstance(x, np.ndarray) and x.dtype == object:
        flat = [_value_by_recursion(e) for e in x.reshape(-1)]
        return np.array(flat, dtype=float).reshape(x.shape)
    return float(x)


_nested_duals = st.recursive(st.floats(allow_nan=False) | st.integers(-10 ** 6, 10 ** 6),
                             lambda inner: st.builds(Dual, inner, inner), max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(st.data(), array_shapes(min_dims=0, max_dims=3, max_side=3))
def test_value_matches_recursive_definition_on_object_arrays(data, shape):
    elems = data.draw(st.lists(_nested_duals, min_size=math.prod(shape),
                               max_size=math.prod(shape)))
    x = np.empty(shape, dtype=object)
    x.reshape(-1)[:] = elems
    got = value(x)
    want = _value_by_recursion(x)
    assert got.dtype == np.float64 and got.shape == shape
    assert got.tobytes() == want.tobytes()


def test_solve_matches_numpy_on_floats(rng):
    A = rng.uniform(-1, 1, size=(4, 4)) + 4 * np.eye(4)
    b = rng.uniform(-1, 1, size=4)
    got = value(np.asarray(dual.solve(A.astype(object), b.astype(object)), dtype=object))
    assert np.allclose(got, np.linalg.solve(A, b), atol=1e-12)


def test_cholesky_matches_numpy(rng):
    B = rng.uniform(-1, 1, size=(3, 3))
    S = B @ B.T + 3 * np.eye(3)
    L = value(np.asarray(dual.cholesky(S.astype(object)), dtype=object))
    assert np.allclose(L, np.linalg.cholesky(S), atol=1e-12)


def test_solve_propagates_derivatives():
    # A(t) x = b with A = [[2+t, 0], [0, 1]], b = (1, 1): x0(t) = 1/(2+t)
    def xs(t):
        A = np.array([[2.0 + t, 0.0], [0.0, 1.0]], dtype=object)
        return dual.solve(A, np.array([1.0, 1.0], dtype=object))

    out = xs(Dual(0.5, 1.0))
    assert abs(out[0].val - 1 / 2.5) < 1e-14
    assert abs(out[0].eps - (-1 / 2.5 ** 2)) < 1e-14
