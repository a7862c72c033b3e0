"""Forward-mode automatic differentiation with nestable dual numbers.

All field differentiation in this package goes through this module.  A
``Dual`` carries a value and one epsilon slot; nesting duals inside duals
yields exact second (and higher) directional derivatives.  Fields are
ordinary Python callables written with ``+ - * /``, ``**`` and the
``exp/log/sin/cos/sqrt/tan`` methods (numpy ufuncs dispatch to these on
object arrays), so any such callable is differentiable here without
modification.
"""

from __future__ import annotations

import math

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
        if isinstance(p, Dual):
            # a**b = exp(b log a); rarely needed but kept for completeness
            return (p * self.log()).exp()
        if p == 0:
            return Dual(self.val ** 0, self.eps * 0.0)
        return Dual(self.val ** p, p * self.val ** (p - 1) * self.eps)

    def __rpow__(self, base):
        return (self * math.log(base)).exp()

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

    def tan(self):
        c = _cos(self.val)
        return Dual(_tan(self.val), self.eps / (c * c))

    def arctan(self):
        return Dual(_arctan(self.val), self.eps / (1.0 + self.val * self.val))

    def sinh(self):
        return Dual(_sinh(self.val), _cosh(self.val) * self.eps)

    def cosh(self):
        return Dual(_cosh(self.val), _sinh(self.val) * self.eps)

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
_tan = _unary("tan", math.tan)
_arctan = _unary("arctan", math.atan)
_sinh = _unary("sinh", math.sinh)
_cosh = _unary("cosh", math.cosh)

# public names for writing dual-safe field formulas
exp, log, sqrt = _exp, _log, _sqrt
sin, cos, tan, arctan = _sin, _cos, _tan, _arctan
sinh, cosh = _sinh, _cosh


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
    n = np.asarray(a).shape[0]
    eye = np.zeros((n, n))
    np.fill_diagonal(eye, 1.0)
    return solve(a, eye.astype(object))


def cholesky(a):
    """Lower-triangular Cholesky factor of an SPD matrix of Duals."""
    a = np.asarray(a, dtype=object)
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
