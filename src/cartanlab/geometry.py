"""Coordinate charts, differentiable fields, metrics and TM curvature.

Everything lives on open boxes.  Fields are plain callables evaluated
through dual numbers, so first and second derivatives are exact; central
finite differences are available separately as a cross-check oracle.

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
# infinite chart axes are sampled on [-SAMPLE_CLIP, SAMPLE_CLIP]
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
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def contains(self, m, margin: float = INTERIOR_MARGIN) -> bool:
        m = value(np.asarray(m, dtype=object))
        return all(lo + margin <= x <= hi - margin
                   for x, lo, hi in zip(m, self.lower, self.upper))

    def require_interior(self, m):
        if not self.contains(m):
            raise GeometryError(f"point {value(np.asarray(m, dtype=object))} outside chart interior")

    def boundary_distance(self, m) -> float:
        m = value(np.asarray(m, dtype=object))
        d = np.inf
        for x, lo, hi in zip(m, self.lower, self.upper):
            if np.isfinite(lo):
                d = min(d, x - lo)
            if np.isfinite(hi):
                d = min(d, hi - x)
        return float(d)

    def sample_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounded box used for sampling; infinite axes are clipped."""
        lo = np.array([max(a, -SAMPLE_CLIP) for a in self.lower])
        hi = np.array([min(b, SAMPLE_CLIP) for b in self.upper])
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
    fiber vector, (n, n) bilinear form, and so on.  ``batch``, when a
    constructor knows the field in closed form, maps float points (B, n)
    to float values (B, *shape) in one call.  ``jet``, when it knows the
    first derivative in closed form, maps a float point (n,) to the float
    value and derivative (*shape, n), the last axis the direction.
    """

    chart: Chart
    shape: tuple[int, ...]
    fn: Callable
    name: str = ""
    batch: Callable | None = None
    jet: Callable | None = None

    def __call__(self, m):
        return self.fn(m)

    def values(self, ms) -> np.ndarray:
        """Float values (B, *shape) at float points (B, n): the closed-form
        batch when the field has one, else one call per point."""
        ms = np.asarray(ms, dtype=float)
        if self.batch is not None:
            return self.batch(ms)
        vals = [value(np.asarray(self(as_point(m)), dtype=object)) for m in ms]
        return np.array(vals, dtype=float).reshape(len(ms), *self.shape)

    @staticmethod
    def constant(chart: Chart, val, name: str = "") -> "SmoothField":
        arr = np.asarray(val, dtype=float)
        return SmoothField(chart, arr.shape, lambda m, _a=arr: _a.copy(), name=name,
                           batch=lambda ms, _a=arr: np.repeat(_a[None], len(ms), axis=0))


def as_point(m) -> np.ndarray:
    m = np.asarray(m)
    if m.dtype != object:
        m = m.astype(float).astype(object)
    return m


def lie_bracket_vf(V, W, m):
    """Jacobi-Lie bracket [V, W](m) = (DW)V - (DV)W."""
    m = as_point(m)
    vm = np.asarray(V(m), dtype=object)
    wm = np.asarray(W(m), dtype=object)
    dw = dual.jacobian(lambda p: np.asarray(W(p), dtype=object), m)
    dv = dual.jacobian(lambda p: np.asarray(V(p), dtype=object), m)
    return dw @ vm - dv @ wm


@dataclass(frozen=True)
class TMConnection:
    """Linear connection on the tangent bundle of a chart.

    ``christoffel(m)`` returns shape (n, n, n) with layout [k, i, j] for
    Gamma^k_{ij}: (nabla_U V)^k = U^i d_i V^k + Gamma^k_{ij} U^i V^j.
    """

    chart: Chart
    christoffel: Callable

    def covariant_vec(self, V, W, m):
        """nabla_V W at m for vector-field callables V, W."""
        m = as_point(m)
        vm = np.asarray(V(m), dtype=object)
        gm = np.asarray(self.christoffel(m), dtype=object)
        dw = dual.jacobian(lambda p: np.asarray(W(p), dtype=object), m)
        wm = np.asarray(W(m), dtype=object)
        return dw @ vm + np.einsum("kij,i,j->k", gm, vm, wm)


def flat_connection(chart: Chart) -> TMConnection:
    n = chart.dim
    zeros = np.zeros((n, n, n))
    return TMConnection(chart, lambda m: zeros)


def frame_connection(chart: Chart, frame: Callable) -> TMConnection:
    """Connection whose parallel fields are the columns of ``frame(m)``.

    Gamma^k_{ij} = -(d_i E)^k_a (E^{-1})^a_j so that nabla E_a = 0.
    """
    def christoffel(m):
        m = as_point(m)
        E = np.asarray(frame(m), dtype=object)
        dE = dual.jacobian(lambda p: np.asarray(frame(p), dtype=object), m)  # (n, n, n)=(k, a, i)
        Einv = dual.inv(E)
        return -np.einsum("kai,aj->kij", dE, Einv)
    return TMConnection(chart, christoffel)


def christoffel_from_jet(G):
    """Gamma[k, i, j] = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2 from a metric
    jet of order >= 1 (``dual.taylor``), as a jet one order lower."""
    dg = G.d                                   # dg[i, j, l] = d_i g_jl
    lower = 0.5 * (dual.contract("ijl->lij", dg) + dual.contract("jil->lij", dg) - dg)
    return dual.contract("kl,lij->kij", dual.inv(G.v), lower)


def curvature_from_christoffel(Gam):
    """R[l, k, i, j] = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
    from a jet of the Christoffel symbols of order >= 1, one order lower."""
    A = dual.contract("iljk->lkij", Gam.d) + dual.contract("lim,mjk->lkij", Gam.v, Gam.v)
    return A - dual.swap(A)


def metric_jet(metric: SmoothField, m, order: int):
    """The metric's jet at m (``dual.taylor``), refused where the metric is
    not positive definite."""
    G = dual.taylor(metric, as_point(m), order)
    if np.min(np.linalg.eigvalsh(value(dual.leaf(G)))) <= 0:
        raise GeometryError("metric not positive definite at sample point")
    return G


def levi_civita(metric: SmoothField) -> TMConnection:
    """Torsion-free metric connection from the Koszul formula, contracted
    from the metric's 1-jet."""
    return TMConnection(metric.chart,
                        lambda m: christoffel_from_jet(metric_jet(metric, m, 1)))


def curvature_tm(conn: TMConnection, m, U, V, W):
    """R(U, V)W at m for constant-coefficient U, V, W."""
    m = as_point(m)
    conn.chart.require_interior(m)
    return np.einsum("lkij,i,j,k->l", curvature_tensor_obj(conn, m),
                     *(np.asarray(X, dtype=object) for X in (U, V, W)))


def curvature_tensor(conn: TMConnection, m) -> np.ndarray:
    """Full R[l, k, i, j] = (R(e_i, e_j) e_k)^l at m, as floats."""
    return value(curvature_tensor_obj(conn, m))


def curvature_tensor_obj(conn: TMConnection, m) -> np.ndarray:
    """Curvature tensor preserving dual layers of the evaluation point.

    R[l, k, i, j] = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{im} G^m_{jk}
    - G^l_{jm} G^m_{ik}, from one evaluation of the Christoffel symbols
    and their Jacobian.  It does not check the chart interior: this is
    evaluation plumbing for derived fields, which integrators probe right
    up to chart edges.
    """
    m = as_point(m)
    G = np.asarray(conn.christoffel(m), dtype=object)
    dG = dual.jacobian(lambda p: np.asarray(conn.christoffel(p), dtype=object), m)  # (l, j, k, i)
    D = np.einsum("ljki->lkij", dG)
    Q = np.einsum("lim,mjk->lkij", G, G)
    return (D - np.swapaxes(D, 2, 3)) + (Q - np.swapaxes(Q, 2, 3))


@dataclass(frozen=True)
class ScalarFormFit:
    s: float
    residual: float


def scalar_form_fit(conn: TMConnection, metric: SmoothField, m) -> ScalarFormFit:
    """Least-squares fit of R(U,V)W to s (sigma(V,W) U - sigma(U,W) V)."""
    m = as_point(m)
    conn.chart.require_interior(m)
    n = conn.chart.dim
    R = curvature_tensor(conn, m)
    g = value(np.asarray(metric(m), dtype=object))
    eye = np.eye(n)
    B = (np.einsum("jk,li->lkij", g, eye) - np.einsum("ik,lj->lkij", g, eye))
    denom = float(np.sum(B * B))
    if denom == 0.0:
        return ScalarFormFit(0.0, float(np.linalg.norm(R)))
    s = float(np.sum(R * B) / denom)
    return ScalarFormFit(s, float(np.linalg.norm(R - s * B)))


# -- finite-difference oracles ------------------------------------------------

def fd_jacobian(f, m) -> np.ndarray:
    """Central-difference Jacobian with step 1e-5; cross-check only, never
    load-bearing."""
    h = 1e-5
    m = np.asarray(m, dtype=float)
    n = len(m)
    cols = []
    for k in range(n):
        dp = np.zeros(n)
        dp[k] = h
        cols.append((np.asarray(f(m + dp), dtype=float)
                     - np.asarray(f(m - dp), dtype=float)) / (2 * h))
    return np.stack(cols, axis=-1)


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

    return SmoothField(chart, (n, n), fn, name=f"sphere({n})")


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

    return SmoothField(chart, (n, n), fn, name=f"hyperbolic({n})")


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

    return SmoothField(chart, (2, 2), fn, name="ellipsoid")


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
