"""Forward-mode automatic differentiation with nestable dual numbers.

All field differentiation in this package goes through this module.  A
``Dual`` carries a value and one epsilon slot; nesting duals inside duals
yields exact second (and higher) directional derivatives.  Fields are
ordinary Python callables written with ``+ - * /``, ``**`` and the
``exp/log/sin/cos/sqrt`` methods (numpy ufuncs dispatch to these on
object arrays), so any such callable is differentiable here without
modification.

Two routines differentiate.  ``taylor_stack`` takes the jets at a stack
of float points from one call: its point is a lane point, whose
coordinates are Duals nested ``order`` deep with float-array leaves over
lanes, one lane per (sample point, multi-index) pair, and
``exp/log/sin/cos/sqrt`` send such leaves to numpy (vector forward mode;
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13;
Bettencourt, Johnson & Duvenaud, "Taylor-mode automatic differentiation
for higher-order derivatives in JAX", 2019).  It needs a formula that
runs on array leaves as written, as the catalog metrics, the local Lie
group frames, the action anchors and the overlap and deck maps do
(``SmoothField.lanes``), and every check reads its derivatives from it or
in closed form.  ``taylor`` takes a jet of any order at one point, float
or Dual, with one call of the field per nondecreasing multi-index of
directions, and ``jacobian`` is its order-1 view; it works on any
Dual-capable callable and is the oracle.  It serves a jet at a Dual
point, a formula that does not run on lanes, and the section calculus.

Array-valued formulas then differentiate without per-scalar Duals:
``contract``, ``inv`` and ``cholesky_inv`` carry a ``Taylor`` jet through
whole-array numpy contractions by the product rule.  The tests'
reference for these lifts a point along one direction
(``tests/oracles.py``: ``directional``).

The point axis: a jet at B points has leaves of shape (n,)*j + (B,) +
shape, the j derivative axes ahead of the point axis, so an order-1 jet
has value (B, *shape) and derivative (n, B, *shape).  Einsum specs over
such jets write ``...`` for the point axis after any derivative index; a
jet at one point is the same with ``...`` empty.
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


def _unary(name, mathfn, npfn):
    def f(x):
        if isinstance(x, Dual):
            return getattr(x, name)()
        return npfn(x) if isinstance(x, np.ndarray) else mathfn(x)
    return f


_exp = _unary("exp", math.exp, np.exp)
_log = _unary("log", math.log, np.log)
_sqrt = _unary("sqrt", math.sqrt, np.sqrt)
_sin = _unary("sin", math.sin, np.sin)
_cos = _unary("cos", math.cos, np.cos)

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


def jacobian(f, m):
    """First derivatives of ``f`` at ``m`` along the coordinate axes: the
    order-1 ``taylor`` jet's derivative, with the direction moved last.

    For ``f`` with output shape ``s`` returns shape ``s + (n,)``.
    """
    return np.moveaxis(taylor(f, m, 1).d, 0, -1)


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
    (float leaves go to LAPACK, a stack of matrices at once)."""
    if isinstance(a, Taylor):
        ai = inv(a.v)
        return Taylor(ai, -contract("...ij,z...jk,...kl->z...il", ai, a.d, ai))
    if np.asarray(a).dtype != object:
        return np.linalg.inv(a)
    n = np.asarray(a).shape[0]
    eye = np.zeros((n, n))
    np.fill_diagonal(eye, 1.0)
    return solve(a, eye.astype(object))


def cholesky_inv(a):
    """The lower-triangular Cholesky factor L (a = L L^T) of an SPD matrix
    of Duals or floats, or of a ``Taylor`` jet of one, and its inverse.
    On a jet both derivatives come from P = Phi(L^-1 da L^-T), with Phi
    the lower triangle, diagonal halved: dL = L P and d(L^-1) = -P L^-1,
    so each order inverts nothing and the whole jet takes one inversion,
    of the leaf factor.  Float leaves may be a stack of matrices."""
    if isinstance(a, Taylor):
        L, Li = cholesky_inv(a.v)
        P = (contract("...ij,z...jk,...lk->z...il", Li, a.d, Li)
             * _half_lower(leaf(L).shape[-1]))
        return (Taylor(L, contract("...ij,z...jk->z...ik", L, P)),
                Taylor(Li, -contract("z...ij,...jk->z...ik", P, Li)))
    L = cholesky(a)
    return L, inv(L)


def cholesky(a):
    """Lower-triangular Cholesky factor L (a = L L^T) of an SPD matrix of
    Duals or floats (see ``cholesky_inv`` for a jet).  Float leaves may be
    a stack of matrices."""
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
    trailing axes, which makes a leading axis of ``d``, and a point axis
    (see the module docstring), invisible to it.
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
    return linear(lambda a: a.swapaxes(-1, -2), x)


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


def _nest(derivs: list, order: int):
    """The jet of the given order whose j-th derivatives are ``derivs[j]``."""
    def jet(k, j):
        return derivs[j] if k == 0 else Taylor(jet(k - 1, j), jet(k - 1, j + 1))
    return jet(order, 0)


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
    return _nest(derivs, order)


@lru_cache(maxsize=None)
def _lanes(n: int, order: int):
    """The nondecreasing multi-indices of ``order`` directions in n
    coordinates, (M, order), and for each derivative order j the (layer
    mask, multi-index) pair whose component is d_t for every t in
    range(n)**j, in C order, as two index arrays."""
    dirs = list(combinations_with_replacement(range(n), order))
    first = {}
    for q, d in enumerate(dirs):
        for mask in range(2 ** order):
            first.setdefault(tuple(d[b] for b in range(order) if mask >> b & 1), (mask, q))
    picks = [tuple(np.array(a, dtype=int) for a in
                   zip(*(first[tuple(sorted(t))] for t in product(range(n), repeat=j))))
             for j in range(order + 1)]
    return np.array(dirs, dtype=int).reshape(len(dirs), order), picks


@lru_cache(maxsize=64)
def _seeds(n: int, order: int, B: int) -> tuple:
    """The eps of each coordinate of a lane point at B points, one per
    layer: the one-hot seeds of its direction over the lanes, layer b
    wrapped in b layers of zero eps.  Read-only, since every call of
    ``taylor_stack`` with these sizes shares them."""
    dirs, _ = _lanes(n, order)
    out = []
    for i in range(n):
        layers = []
        for b in range(order):
            e = np.tile((dirs[:, b] == i).astype(float), B)
            e.setflags(write=False)
            for _ in range(b):
                e = Dual(e, 0.0)
            layers.append(e)
        out.append(tuple(layers))
    return tuple(out)


def taylor_stack(f, ms, order: int):
    """Jets of the given order of ``f`` at the float points ``ms`` (B, n),
    with the point axis after the derivative axes, from one call of ``f``.
    Where ``f`` declares its output ``shape`` (a ``SmoothField``), an
    output of any other shape raises ``ValueError``: at order 0 the
    coordinates are float arrays, so a formula that builds its output
    with ``np.array([...], dtype=object)`` returns them as an extra lane
    axis instead of one entry each.

    Lane p*M + q holds point p moved along the q-th of the M nondecreasing
    multi-indices, so each coordinate is a Dual nested ``order`` deep whose
    leaves are float arrays over the B*M lanes; the eps of layer b is
    wrapped in b layers of zero eps, so that arrays only ever meet arrays
    and floats.  ``f`` must run on such leaves as written (numpy
    arithmetic and the ``exp/log/sin/cos/sqrt`` of this module).  Each
    lane yields every derivative along a sub-multi-index, as in ``taylor``.
    """
    ms = np.asarray(ms, dtype=float)
    B, n = ms.shape
    dirs, picks = _lanes(n, order)
    M = len(dirs)
    p = np.empty(n, dtype=object)
    for i, seeds in enumerate(_seeds(n, order, B)):
        x = np.repeat(ms[:, i], M)
        for e in seeds:
            x = Dual(x, e)
        p[i] = x
    out = np.asarray(f(p), dtype=object)
    shape = getattr(f, "shape", None)
    if shape is not None and out.shape != tuple(shape):
        raise ValueError(f"{getattr(f, 'name', '') or 'formula'} returned shape {out.shape} "
                         f"on lane points, expected {tuple(shape)}; build the output entry "
                         f"by entry into an object array of that shape")
    flat = out.reshape(-1)
    comps = np.zeros((2 ** order, B * M, flat.size))
    for k, x in enumerate(flat):
        if not isinstance(x, Dual):         # a constant: its derivatives stay zero
            comps[0, :, k] = x
            continue
        for mask, c in enumerate(_components(x, order)):
            comps[mask, :, k] = c
    comps = comps.reshape(2 ** order, B, M, flat.size)
    return _nest([comps[mask, :, q].reshape((n,) * j + (B,) + out.shape)
                  for j, (mask, q) in enumerate(picks)], order)


def stack(jets: list):
    """The jets of one order at single points, stacked on a point axis after
    the derivative axes."""
    def at(xs, k):
        if isinstance(xs[0], Taylor):
            return Taylor(at([x.v for x in xs], k), at([x.d for x in xs], k + 1))
        return np.stack(xs, axis=k)
    return at(jets, 0)


def point(x, b: int):
    """The jet at point b of a jet over a stack of points."""
    def at(x, k):
        if isinstance(x, Taylor):
            return Taylor(at(x.v, k), at(x.d, k + 1))
        return x[(slice(None),) * k + (b,)]
    return at(x, 0)
