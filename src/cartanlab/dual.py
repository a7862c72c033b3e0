"""Forward-mode automatic differentiation with nestable dual numbers.

All field differentiation in this package goes through this module.  A
``Dual`` carries a value and one epsilon slot; nesting duals inside duals
yields exact second (and higher) directional derivatives.  Fields are
ordinary Python callables written with ``+ - * /``, ``**`` and the
``exp/log/sin/cos/sqrt`` methods (numpy ufuncs dispatch to these on
object arrays), so any such callable is differentiable here without
modification.

Array-valued formulas differentiate without per-scalar Duals through
``Taylor`` jets: a field's jet is taken once at a point with nested Duals
(``taylor``), and ``contract``, ``inv`` and ``cholesky`` carry it through
whole-array numpy contractions by the product rule (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, on propagating Taylor
coefficients).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np


class Dual:
    """A value plus one infinitesimal component.

    ``val`` and ``eps`` may themselves be Duals; constants mix in as plain
    floats.  Comparisons look only at the underlying value, so interior
    tests and pivot selection work transparently.
    """

    __slots__ = ("val", "eps")

    def __init__(self, val, eps=0.0):
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    # -- arithmetic ---------------------------------------------------------
    # ndarray operands are declined so numpy dispatches elementwise.

    def __add__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Dual(other - self.val, -self.eps)

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.val * other.eps + self.eps * other.val)
        return Dual(self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            return Dual(self.val * inv,
                        (self.eps - self.val * inv * other.eps) * inv)
        return Dual(self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        inv = 1.0 / self.val
        return Dual(other * inv, -other * inv * inv * self.eps)

    def __pow__(self, p):
        """A constant power; a Dual exponent is not supported."""
        if p == 0:
            return Dual(self.val ** 0, self.eps * 0.0)
        return Dual(self.val ** p, p * self.val ** (p - 1) * self.eps)

    def __abs__(self):
        s = 1.0 if value(self) >= 0 else -1.0
        return Dual(abs(self.val) if not isinstance(self.val, Dual) else self.val * s,
                    self.eps * s)

    # -- comparisons on the value ------------------------------------------

    def __lt__(self, other):
        return value(self) < value(other)

    def __le__(self, other):
        return value(self) <= value(other)

    def __gt__(self, other):
        return value(self) > value(other)

    def __ge__(self, other):
        return value(self) >= value(other)

    def __float__(self):
        return float(value(self))

    # -- elementary functions (numpy object ufuncs dispatch to these) -------

    def exp(self):
        e = _exp(self.val)
        return Dual(e, e * self.eps)

    def log(self):
        return Dual(_log(self.val), self.eps / self.val)

    def sqrt(self):
        r = _sqrt(self.val)
        return Dual(r, self.eps / (2.0 * r))

    def sin(self):
        return Dual(_sin(self.val), _cos(self.val) * self.eps)

    def cos(self):
        return Dual(_cos(self.val), -_sin(self.val) * self.eps)

    def conjugate(self):
        return self


def _unary(name, mathfn):
    def f(x):
        return getattr(x, name)() if isinstance(x, Dual) else mathfn(x)
    return f


_exp = _unary("exp", math.exp)
_log = _unary("log", math.log)
_sqrt = _unary("sqrt", math.sqrt)
_sin = _unary("sin", math.sin)
_cos = _unary("cos", math.cos)

# public names for writing dual-safe field formulas
exp, log, sqrt = _exp, _log, _sqrt
sin, cos = _sin, _cos


def value(x):
    """Strip every dual layer, returning plain floats or float arrays."""
    if isinstance(x, Dual):
        return value(x.val)
    if isinstance(x, np.ndarray):
        # Dual.__float__ strips every layer, one C loop over the elements
        return x.astype(float) if x.dtype == object else x
    return float(x)


def eps_part(x):
    """Epsilon component, one layer deep, elementwise on object arrays."""
    if isinstance(x, Dual):
        return x.eps
    if isinstance(x, np.ndarray) and x.dtype == object:
        out = np.empty(x.shape, dtype=object)
        flat, oflat = x.reshape(-1), out.reshape(-1)
        for i in range(flat.size):
            oflat[i] = eps_part(flat[i])
        return out
    if isinstance(x, np.ndarray):
        return np.zeros(x.shape)
    return 0.0


def lift(m, v):
    """Point ``m`` displaced by epsilon in direction ``v`` (object array).

    Coordinates of ``m`` may already be Duals; the new epsilon layer wraps
    around them, which is what makes nesting work.
    """
    m = np.asarray(m, dtype=object) if not (isinstance(m, np.ndarray) and m.dtype == object) else m
    out = np.empty(len(m), dtype=object)
    for k in range(len(m)):
        out[k] = Dual(m[k], v[k])
    return out


def directional(f, m, v):
    """Exact directional derivative of ``f`` at ``m`` along ``v``."""
    return eps_part(f(lift(m, v)))


def jacobian(f, m):
    """Stack of directional derivatives along coordinate axes.

    For ``f`` with output shape ``s`` returns shape ``s + (n,)``; the last
    axis indexes the differentiation direction.
    """
    n = len(m)
    cols = []
    for k in range(n):
        v = [0.0] * n
        v[k] = 1.0
        cols.append(directional(f, m, v))
    cols = [np.asarray(c, dtype=object) if not np.isscalar(c) and not isinstance(c, Dual) else c
            for c in cols]
    if isinstance(cols[0], np.ndarray):
        return np.stack(cols, axis=-1)
    out = np.empty(n, dtype=object)
    for k in range(n):
        out[k] = cols[k]
    return out


def second_directional(f, m, v, w):
    """Exact mixed second derivative d^2 f(m)[v, w]."""
    inner = lift(m, v)
    outer = np.empty(len(m), dtype=object)
    for k in range(len(m)):
        outer[k] = Dual(inner[k], Dual(w[k], 0.0))
    return eps_part(eps_part(f(outer)))


# -- small dense linear algebra on object arrays -----------------------------
#
# numpy.linalg rejects object dtype, and every matrix here is tiny, so the
# factorizations are spelled out.  Pivoting compares stripped values only.

def solve(a, b):
    """Gaussian elimination with partial pivoting; works through Duals."""
    a = np.array(a, dtype=object, copy=True)
    b = np.array(b, dtype=object, copy=True)
    n = a.shape[0]
    vec = b.ndim == 1
    if vec:
        b = b.reshape(n, 1)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(value(a[r, col])))
        if abs(value(a[piv, col])) == 0.0:
            raise np.linalg.LinAlgError("singular matrix in dual solve")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        inv = 1.0 / a[col, col]
        for r in range(col + 1, n):
            f = a[r, col] * inv
            a[r, col:] = a[r, col:] - f * a[col, col:]
            b[r, :] = b[r, :] - f * b[col, :]
    x = np.empty((n, b.shape[1]), dtype=object)
    for r in range(n - 1, -1, -1):
        acc = b[r, :]
        if r + 1 < n:
            acc = acc - a[r, r + 1:] @ x[r + 1:, :]
        x[r, :] = acc / a[r, r]
    return x[:, 0] if vec else x


def inv(a):
    """Inverse of a matrix of Duals or floats, or of a ``Taylor`` jet of one
    (float leaves go to LAPACK)."""
    if isinstance(a, Taylor):
        ai = inv(a.v)
        return Taylor(ai, -contract("ij,zjk,kl->zil", ai, a.d, ai))
    if np.asarray(a).dtype != object:
        return np.linalg.inv(a)
    n = np.asarray(a).shape[0]
    eye = np.zeros((n, n))
    np.fill_diagonal(eye, 1.0)
    return solve(a, eye.astype(object))


def cholesky(a):
    """Lower-triangular Cholesky factor L (a = L L^T) of an SPD matrix of
    Duals or floats, or of a ``Taylor`` jet of one, whose derivative is
    dL = L Phi(L^-1 da L^-T) with Phi the lower triangle, diagonal halved."""
    if isinstance(a, Taylor):
        L = cholesky(a.v)
        Li = inv(L)
        X = contract("ij,zjk,lk->zil", Li, a.d, Li)
        return Taylor(L, contract("ij,zjk->zik", L, X * _half_lower(leaf(L).shape[-1])))
    a = np.asarray(a)
    if a.dtype != object:
        return np.linalg.cholesky(a)
    n = a.shape[0]
    L = np.zeros((n, n), dtype=object)
    for i in range(n):
        for j in range(i + 1):
            s = a[i, j]
            for k in range(j):
                s = s - L[i, k] * L[j, k]
            if i == j:
                if value(s) <= 0.0:
                    raise np.linalg.LinAlgError("matrix not positive definite")
                L[i, j] = _sqrt(s)
            else:
                L[i, j] = s / L[j, j]
    return L


# -- Taylor jets of arrays -----------------------------------------------------

class Taylor:
    """Truncated Taylor jet of an array-valued function at a point.

    ``v`` is the jet of the value and ``d`` the jet of its first derivatives,
    both one order lower, with the coordinate direction on a new leading axis
    of ``d``; a jet of order 0 is a plain array (floats, or objects carrying
    the Dual layers of the point).  So ``v.d`` and ``d.v`` are both first
    derivatives and ``d.d[i, j]`` is d_i d_j.  Every operation acts on the
    trailing axes, which makes a leading axis of ``d`` invisible to it.
    """

    __slots__ = ("v", "d")
    __array_ufunc__ = None      # ndarray (op) Taylor defers to Taylor

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __add__(self, other):
        if isinstance(other, Taylor):
            return Taylor(self.v + other.v, self.d + other.d)
        return Taylor(self.v + other, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Taylor(-self.v, -self.d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Elementwise product; a plain operand is a constant."""
        if isinstance(other, Taylor):
            return Taylor(self.v * other.v, self.d * other.v + self.v * other.d)
        return Taylor(self.v * other, self.d * other)

    __rmul__ = __mul__


def leaf(x):
    """The order-0 part of a jet: its value array."""
    while isinstance(x, Taylor):
        x = x.v
    return x


def linear(f, x):
    """Apply ``f``, linear and acting on trailing axes only, to a jet."""
    if isinstance(x, Taylor):
        return Taylor(linear(f, x.v), linear(f, x.d))
    return f(x)


def swap(x):
    """Transpose of the last two axes."""
    return linear(lambda a: np.swapaxes(a, -1, -2), x)


@lru_cache(maxsize=None)
def _derivative_spec(spec: str, k: int) -> str:
    """``spec`` with a fresh leading index on operand k and on the output."""
    ins, out = spec.split("->")
    z = next(c for c in "zyxwvutsrqponmlkjihgfedcbaZYXWVUTSRQPONMLKJIHGFEDCBA"
             if c not in spec)
    ins = [z + s if j == k else s for j, s in enumerate(ins.split(","))]
    return ",".join(ins) + "->" + z + out


def contract(spec: str, *ops):
    """``np.einsum`` with explicit subscripts over jets and constants: the
    derivative is the sum over jet operands of the contraction with that
    operand replaced by its derivative."""
    jets = [k for k, o in enumerate(ops) if isinstance(o, Taylor)]
    if not jets:
        return np.einsum(spec, *ops)
    vals = [o.v if isinstance(o, Taylor) else o for o in ops]
    d = None
    for k in jets:
        term = contract(_derivative_spec(spec, k), *vals[:k], ops[k].d, *vals[k + 1:])
        d = term if d is None else d + term
    return Taylor(contract(spec, *vals), d)


@lru_cache(maxsize=None)
def _half_lower(n: int) -> np.ndarray:
    return np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)


def _components(x, layers: int) -> list:
    """The 2**layers parts of a scalar under its outer Dual layers; bit b of
    the index is set where the part is differentiated along layer b
    (layer 0 innermost)."""
    if layers == 0:
        return [x]
    if isinstance(x, Dual):
        return _components(x.val, layers - 1) + _components(x.eps, layers - 1)
    return _components(x, layers - 1) + [0.0] * 2 ** (layers - 1)


def taylor(f, m, order: int):
    """Jet of the given order of an array-valued ``f`` at ``m``.

    ``f`` is evaluated once per nondecreasing multi-index of ``order``
    directions, at m lifted by ``order`` nested Dual layers, and each
    evaluation yields every derivative along a sub-multi-index.  At a float
    point (a float array, or an object array of floats) the leaves are float
    arrays; at a Dual point they are object arrays keeping its layers.
    """
    m = np.asarray(m, dtype=object)
    floats = not any(isinstance(x, Dual) for x in m)
    if order == 0:
        out = np.asarray(f(m), dtype=object)
        return out.astype(float) if floats else out
    n = len(m)
    eye = np.eye(n)
    parts = {}
    shape = None
    for dirs in combinations_with_replacement(range(n), order):
        p = m
        for i in dirs:
            p = lift(p, eye[i])
        out = np.asarray(f(p), dtype=object)
        shape = out.shape
        comps = np.array([_components(x, order) for x in out.reshape(-1)], dtype=object)
        for mask in range(2 ** order):
            idx = tuple(dirs[b] for b in range(order) if mask >> b & 1)
            parts.setdefault(idx, comps[:, mask])
    derivs = []
    for j in range(order + 1):
        D = np.empty((n,) * j + (len(parts[()]),), dtype=object)
        for t in product(range(n), repeat=j):
            D[t] = parts[tuple(sorted(t))]
        D = D.reshape((n,) * j + shape)
        derivs.append(D.astype(float) if floats else D)

    def jet(k, j):
        return derivs[j] if k == 0 else Taylor(jet(k - 1, j), jet(k - 1, j + 1))

    return jet(order, 0)
