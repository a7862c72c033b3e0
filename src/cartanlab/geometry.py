"""Coordinate charts, differentiable fields, metrics and TM curvature.

Everything lives on open boxes.  Fields are plain callables evaluated
through dual numbers, so first and second derivatives are exact; a field's
float values at a stack of points come from ``SmoothField.values``, its
values and first derivatives there from ``SmoothField.first_jet``.  The
catalog metrics, the frames of ``frame_connection`` and the action
anchors run on lane points (``SmoothField.lanes``, ``dual.taylor_stack``),
so their values and jets of any order at a stack come from one formula
call; a field with neither a closed form nor a lane formula falls back
to ``dual.taylor`` point by point inside those two reads, a reference
path that no bundled model takes.  Every check reads its sample set as
one stack (``sample_stack``), never one point at a time; point tests
(``Chart.contains``, ``require_interior``, ``boundary_distance``), the
only code that compares points with a chart's bounds, take it too, and
refuse a point or stack whose last axis is not the chart's dimension.

Curvature convention used throughout:

    R(U, V)W = nabla_U nabla_V W - nabla_V nabla_U W - nabla_{[U,V]} W

Under this convention the round unit sphere fits scalar factor s = +1 and
the hyperbolic plane s = -1 in ``scalar_form_fit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dual
from .dual import value

INTERIOR_MARGIN = 1e-9
# an infinite end of a chart axis is sampled from -SAMPLE_CLIP or SAMPLE_CLIP,
# or SAMPLE_CLIP past a finite other end that lies beyond
SAMPLE_CLIP = 2.0


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    """Open box in R^n; bounds may be infinite."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lower)
        hi = tuple(float(x) for x in self.upper)
        if len(lo) != len(hi):
            raise GeometryError("lower/upper must have equal length")
        if not all(a < b for a, b in zip(lo, hi)):
            raise GeometryError("need lower < upper on every axis")
        for name, bound in (("lower", lo), ("upper", hi)):
            object.__setattr__(self, name, bound)
            object.__setattr__(self, "_" + name, np.array(bound))    # for the box tests

    @property
    def dim(self) -> int:
        return len(self.lower)

    def _coords(self, m) -> np.ndarray:
        """The float coordinates of a point (n,) or a stack (B, n) of the box."""
        x = value(np.asarray(m))
        if x.shape[-1:] != (self.dim,):
            raise GeometryError(f"a point of this chart has {self.dim} coordinates, "
                                f"not {x.shape[-1] if x.ndim else 0}")
        return x

    def contains(self, m, margin: float = INTERIOR_MARGIN):
        """Whether x is finite and lower + margin <= x <= upper - margin on
        every axis at the point m (n,), or at each point of a stack (B, n)."""
        x = self._coords(m)
        inside = np.isfinite(x) & (self._lower + margin <= x) & (x <= self._upper - margin)
        return inside.all(axis=-1)

    def require_interior(self, m):
        """Refuse the point m (n,), or the stack m (B, n), unless every point
        lies in the box (``contains``), naming the first that does not."""
        x = self._coords(m)
        inside = self.contains(x)
        if not inside.all():
            first = np.atleast_2d(x)[np.argmin(inside)].astype(float)
            raise GeometryError(f"point {first} outside chart interior")

    def boundary_distance(self, m):
        """The least of x - lower and upper - x over the axes, at m as ``contains``
        reads it: inf on a box with no finite edge, NaN or -inf at a non-finite x."""
        x = self._coords(m)
        return np.min(np.minimum(x - self._lower, self._upper - x), axis=-1)

    def sample_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounded box used for sampling: finite bounds as they are, infinite
        ends clipped (see ``SAMPLE_CLIP``), so the box lies in the chart."""
        lo = np.array([a if np.isfinite(a) else min(-SAMPLE_CLIP, b - SAMPLE_CLIP)
                       for a, b in zip(self.lower, self.upper)])
        hi = np.array([b if np.isfinite(b) else max(SAMPLE_CLIP, a + SAMPLE_CLIP)
                       for a, b in zip(self.lower, self.upper)])
        return lo, hi

    def sample_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform samples in the (clipped) box, 5% of its width off each side."""
        lo, hi = self.sample_box()
        pad = 0.05 * (hi - lo)
        return rng.uniform(lo + pad, hi - pad, size=(count, self.dim))

    def halton_points(self, count: int, shrink: float = 0.02) -> np.ndarray:
        """Deterministic low-discrepancy samples in the (clipped) box."""
        lo, hi = self.sample_box()
        pad = shrink * (hi - lo)
        pts = _halton(count, self.dim)
        return (lo + pad) + pts * ((hi - pad) - (lo + pad))

    def intersect(self, other: "Chart") -> "Chart | None":
        lo = tuple(max(a, b) for a, b in zip(self.lower, other.lower))
        hi = tuple(min(a, b) for a, b in zip(self.upper, other.upper))
        if not all(a < b for a, b in zip(lo, hi)):
            return None
        return Chart(lo, hi)


def _halton(count: int, dim: int) -> np.ndarray:
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    out = np.zeros((count, dim))
    for d in range(dim):
        b = primes[d % len(primes)]
        for i in range(count):
            f, r, n = 1.0, 0.0, i + 1
            while n > 0:
                f /= b
                r += f * (n % b)
                n //= b
            out[i, d] = r
    return out


@dataclass(frozen=True)
class SmoothField:
    """Point-to-value assignment on a chart, dual-number evaluable.

    ``shape`` is the output shape: () scalar, (n,) tangent vector, (r,)
    fiber vector, (n, n) bilinear form, and so on.  Calling the field runs
    ``fn``, its Dual-capable formula, for ``dual.taylor`` and the section
    calculus; ``values`` is the float read, and every float value of a
    field is read through it.  ``batch``, when a constructor knows the
    field in closed form, maps float points (B, n) to float values
    (B, *shape) in one call.  ``jet``, when it knows the first derivative
    in closed form, maps float points (B, n) to the field's order-1
    ``dual.Taylor`` jet there, value (B, *shape) and derivative
    (n, B, *shape) (see ``first_jet``).  ``lanes`` says that ``fn`` also
    runs on the lane points of ``dual.taylor_stack`` (float-array leaves),
    so that its values and jets of any order at a stack of points come
    from one call of it.
    """

    chart: Chart
    shape: tuple[int, ...]
    fn: Callable
    name: str = ""
    batch: Callable | None = None
    jet: Callable | None = None
    lanes: bool = False

    def __call__(self, m):
        return self.fn(m)

    def first_jet(self, ms) -> dual.Taylor:
        """Float values ``v`` (B, *shape) and first derivatives ``d``
        (n, B, *shape), ``d[i]`` the derivative along d_i, at float points
        (B, n): the closed-form ``jet`` where the constructor has one, else
        one lane call where the formula runs on lanes, else ``dual.taylor``
        point by point, the reference path for the Dual-only formulas that
        tests build."""
        ms = np.asarray(ms, dtype=float)
        if self.jet is not None:
            return self.jet(ms)
        if self.lanes:
            return dual.taylor_stack(self, ms, 1)
        return dual.stack([dual.taylor(self, m, 1) for m in ms])

    def values(self, ms) -> np.ndarray:
        """Float values (B, *shape) at float points (B, n): the closed-form
        batch when the field has one, else one lane call where the formula
        runs on lanes, else one call per point."""
        ms = np.asarray(ms, dtype=float)
        if self.batch is not None:
            return self.batch(ms)
        if self.lanes:
            return dual.taylor_stack(self, ms, 0)
        vals = [value(np.asarray(self(as_point(m)))) for m in ms]
        return np.array(vals, dtype=float).reshape(len(ms), *self.shape)

    @staticmethod
    def constant(chart: Chart, val, name: str = "") -> "SmoothField":
        arr = np.asarray(val, dtype=float)

        def jet(ms):
            return dual.Taylor(np.repeat(arr[None], len(ms), axis=0),
                               np.zeros((chart.dim, len(ms)) + arr.shape))

        return SmoothField(chart, arr.shape, lambda m: arr.copy(), name=name,
                           batch=lambda ms: np.repeat(arr[None], len(ms), axis=0),
                           jet=jet, lanes=True)


def as_field(chart: Chart, shape, obj, name: str) -> SmoothField:
    """``obj`` as a field: a field as is, a callable wrapped, else a constant."""
    if isinstance(obj, SmoothField):
        return obj
    if callable(obj):
        return SmoothField(chart, shape, obj, name=name)
    return SmoothField.constant(chart, obj, name=name)


def as_point(m) -> np.ndarray:
    m = np.asarray(m)
    if m.dtype != object:
        m = m.astype(float).astype(object)
    return m


def lie_bracket_vf(V, W, m):
    """Jacobi-Lie bracket [V, W](m) = (DW)V - (DV)W of vector-field
    callables, by ``dual.jacobian``.  No check calls it (the checks take
    brackets from stacked jets); the tests' section calculus and the
    benchmark's tracer do."""
    m = as_point(m)
    vm = np.asarray(V(m), dtype=object)
    wm = np.asarray(W(m), dtype=object)
    dw = dual.jacobian(lambda p: np.asarray(W(p), dtype=object), m)
    dv = dual.jacobian(lambda p: np.asarray(V(p), dtype=object), m)
    return dw @ vm - dv @ wm


@dataclass(frozen=True)
class TMConnection:
    """Linear connection on the tangent bundle of a chart.

    ``christoffel`` is a field of shape (n, n, n) with layout [k, i, j] for
    Gamma^k_{ij}: (nabla_U V)^k = U^i d_i V^k + Gamma^k_{ij} U^i V^j.  A
    plain callable is wrapped as a field, whose first derivatives then come
    from ``dual.taylor``; ``frame_connection`` gives a closed-form jet.
    """

    chart: Chart
    christoffel: SmoothField

    def __post_init__(self):
        n = self.chart.dim
        object.__setattr__(self, "christoffel",
                           as_field(self.chart, (n, n, n), self.christoffel, "christoffel"))


def frame_connection(chart: Chart, frame: Callable) -> TMConnection:
    """Connection whose parallel fields are the columns of ``frame(m)``.

    Gamma^k_{ij} = -(d_i E)^k_a (E^{-1})^a_j so that nabla E_a = 0,
    contracted from the frame's 1-jet for a value and from its 2-jet for
    the closed-form jet.  The frame runs on lane points, so the values and
    jets at a stack of points come from one call of it
    (``dual.taylor_stack``).
    """
    def christoffel(E):
        return -dual.contract("i...ka,...aj->...kij", E.d, dual.inv(E.v))

    return TMConnection(chart, SmoothField(
        chart, (chart.dim,) * 3, lambda m: christoffel(dual.taylor(frame, m, 1)),
        name="frame connection",
        batch=lambda ms: christoffel(dual.taylor_stack(frame, ms, 1)),
        jet=lambda ms: christoffel(dual.taylor_stack(frame, ms, 2))))


def christoffel_from_jet(G):
    """Gamma[k, i, j] = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2 from a metric
    jet of order >= 1 (see ``metric_jet``), as a jet one order lower.

    One contraction moves the derivative index of G.d behind the point
    axis, A[l, i, j] = d_i g_jl; the other two terms are A with trailing
    axes swapped: d_j g_il = A[l, j, i], and d_l g_ij = A[i, l, j] since g
    is symmetric."""
    A = dual.contract("i...jl->...lij", G.d)
    lower = dual.linear(lambda a: 0.5 * (a + a.swapaxes(-1, -2) - a.swapaxes(-3, -2)), A)
    return dual.contract("...kl,...lij->...kij", dual.inv(G.v), lower)


def curvature_from_christoffel(Gam):
    """R[l, k, i, j] = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
    from a jet of the Christoffel symbols of order >= 1, one order lower."""
    A = (dual.contract("i...ljk->...lkij", Gam.d)
         + dual.contract("...lim,...mjk->...lkij", Gam.v, Gam.v))
    return A - dual.swap(A)


def metric_jet(metric: SmoothField, m, order: int):
    """The metric's jet of the given order at a stack of float points
    (B, n), with the point axis after the derivative axes, or at one point
    (n,), float or Dual.  A metric that runs on lanes gives the jets at
    float points from one call (``dual.taylor_stack``); otherwise, and at
    a Dual point, ``dual.taylor`` takes them point by point.  Refused
    where the metric is not positive definite."""
    m = np.asarray(m)
    if m.ndim == 2:
        G = (dual.taylor_stack(metric, m, order) if metric.lanes
             else dual.stack([dual.taylor(metric, p, order) for p in m]))
    elif metric.lanes and not any(isinstance(x, dual.Dual) for x in m):
        G = dual.point(dual.taylor_stack(metric, m[None], order), 0)
    else:
        G = dual.taylor(metric, m, order)
    if np.min(np.linalg.eigvalsh(value(dual.leaf(G)))) <= 0:
        raise GeometryError("metric not positive definite at sample point")
    return G


def sample_stack(ms) -> np.ndarray:
    """A check's sample points as one float stack (B, n).  A check over no
    point would evaluate nothing and pass, so an empty stack is refused."""
    ms = np.asarray(ms, dtype=float)
    if not len(ms):
        raise GeometryError("no sample points: a check over none evaluates nothing")
    return ms


@dataclass(frozen=True)
class ScalarFormFit:
    s: np.ndarray           # (B,) the fitted factor at each point
    residual: np.ndarray    # (B,) the misfit there


def scalar_form_fit(metric: SmoothField, ms) -> ScalarFormFit:
    """Least-squares fit of R(U,V)W to s (sigma(V,W) U - sigma(U,W) V) at
    each point of the stack ms (B, n).  One metric 2-jet over the stack
    gives both: R from its Christoffel symbols, sigma from its value."""
    ms = sample_stack(ms)
    metric.chart.require_interior(ms)
    G = metric_jet(metric, ms, 2)
    R = curvature_from_christoffel(christoffel_from_jet(G))
    g, eye = dual.leaf(G), np.eye(metric.chart.dim)
    B = np.einsum("...jk,li->...lkij", g, eye) - np.einsum("...ik,lj->...lkij", g, eye)
    each = (1, 2, 3, 4)
    denom = np.sum(B * B, axis=each)
    # a 1-dimensional metric has B = 0: s = 0 and the residual is |R|
    s = np.divide(np.sum(R * B, axis=each), denom, out=np.zeros(len(ms)), where=denom > 0)
    misfit = (R - s[:, None, None, None, None] * B).reshape(len(ms), 1, -1)
    # |misfit| at each point by one dot product, as np.linalg.norm takes it
    return ScalarFormFit(s, np.sqrt(misfit @ np.swapaxes(misfit, 1, 2))[:, 0, 0])


# -- bundled metric catalog ---------------------------------------------------

def euclidean_metric(n: int) -> SmoothField:
    chart = Chart((-np.inf,) * n, (np.inf,) * n)
    return SmoothField.constant(chart, np.eye(n), name=f"euclidean({n})")


def sphere_metric(n: int = 2) -> SmoothField:
    """Round unit sphere in polar coordinates.

    For n = 2: coordinates (theta, phi), sigma = diag(1, sin^2 theta) on
    theta in (0.2, pi - 0.2).  Higher n uses iterated polar angles.
    """
    lo = [0.2] * (n - 1) + [-3.0]
    hi = [np.pi - 0.2] * (n - 1) + [3.0]
    chart = Chart(tuple(lo), tuple(hi))

    def fn(m):
        m = as_point(m)
        g = np.zeros((n, n), dtype=object)
        g[0, 0] = 1.0
        acc = 1.0
        for k in range(1, n):
            s = dual.sin(m[k - 1])
            acc = acc * s * s
            g[k, k] = acc
        return g

    return SmoothField(chart, (n, n), fn, name=f"sphere({n})", lanes=True)


def hyperbolic_metric(n: int = 2) -> SmoothField:
    """Upper half-space metric (sum dx_i^2) / x_n^2 with x_n > 0."""
    lo = [-3.0] * (n - 1) + [0.3]
    hi = [3.0] * (n - 1) + [3.0]
    chart = Chart(tuple(lo), tuple(hi))

    def fn(m):
        m = as_point(m)
        y = m[n - 1]
        inv2 = 1.0 / (y * y)
        g = np.zeros((n, n), dtype=object)
        for k in range(n):
            g[k, k] = inv2
        return g

    return SmoothField(chart, (n, n), fn, name=f"hyperbolic({n})", lanes=True)


def ellipsoid_metric() -> SmoothField:
    """Induced metric on an ellipsoid with axes (1, 1, c), c = 1.3;
    non-constant curvature."""
    c = 1.3
    chart = Chart((0.3, -3.0), (np.pi - 0.3, 3.0))

    def fn(m):
        m = as_point(m)
        th = m[0]
        ct, st = dual.cos(th), dual.sin(th)
        g = np.zeros((2, 2), dtype=object)
        g[0, 0] = ct * ct + (c * c) * st * st
        g[1, 1] = st * st
        return g

    return SmoothField(chart, (2, 2), fn, name="ellipsoid", lanes=True)


METRIC_CATALOG = {
    "euclidean": euclidean_metric,
    "sphere": sphere_metric,
    "hyperbolic": hyperbolic_metric,
}


def metric_by_name(name: str) -> SmoothField:
    """Resolve names like ``euclidean(2)`` or ``sphere(2)``."""
    if not isinstance(name, str):
        raise GeometryError(f"a metric name is a string, not {name!r}")
    name = name.strip()
    if "(" in name and name.endswith(")"):
        base, arg = name[:-1].split("(", 1)
        if base not in METRIC_CATALOG or not arg.isdecimal() or int(arg) < 1:
            raise GeometryError(f"no metric {name!r}: the families are "
                                f"{', '.join(METRIC_CATALOG)}, each of a positive dimension")
        return METRIC_CATALOG[base](int(arg))
    if name == "ellipsoid":
        return ellipsoid_metric()
    raise GeometryError(f"unknown metric name {name!r}")
