"""Chart-level transitive Lie algebroids.

A chart presents the algebroid as a triple of fields over a coordinate
box: the anchor ``a(m)`` (n x r), connection coefficients ``gamma(m)``
(n x r x r, with nabla_{d_i} X = d_i X + gamma[i] @ X) and the torsion
``T(m)`` (r x r x r, T(x,y)^c = T[c,a,b] x^a y^b, antisymmetric in a,b).
The bracket is never stored; it is always derived:

    [X, Y] = nabla_{#X} Y - nabla_{#Y} X + T(X, Y)

``AlgebroidChart.jet`` evaluates the three fields and their first
derivatives at most once at a point, each when a pointwise tensor check
first reads it: from the field's closed form (``SmoothField.jet``) where
it has one, else by Dual evaluation.

Action algebroids carry gamma = 0 and T equal to the fiberwise algebra
bracket.  Glued algebroids add transition data on overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import dual
from .dual import value
from .algebra import LieAlgebra, worst
from .geometry import Chart, SmoothField, as_point, lie_bracket_vf


class AlgebroidError(ValueError):
    pass


def _as_field(chart, shape, obj, name=""):
    if isinstance(obj, SmoothField):
        return obj
    if callable(obj):
        return SmoothField(chart, shape, obj, name=name)
    return SmoothField.constant(chart, obj, name=name)


class Jet:
    """Float values and first derivatives of a chart's fields at a point,
    each evaluated when first read.  Each ``d_*`` array is the field's shape
    plus a last axis indexing the coordinate direction of differentiation.
    """

    def __init__(self, chart: AlgebroidChart, m):
        self._chart, self._m = chart, m
        self._closed = {}

    def _closed_form(self, name: str):
        """(value, derivative) from the field's closed-form jet, or None."""
        f = getattr(self._chart, name)
        if f.jet is None:
            return None
        if name not in self._closed:
            self._closed[name] = f.jet(value(self._m))
        return self._closed[name]

    def _value(self, name: str) -> np.ndarray:
        closed = self._closed_form(name)
        if closed is not None:
            return closed[0]
        return value(np.asarray(getattr(self._chart, name)(self._m), dtype=object))

    def _derivative(self, name: str) -> np.ndarray:
        closed = self._closed_form(name)
        if closed is not None:
            return closed[1]
        f = getattr(self._chart, name)
        return value(dual.jacobian(lambda p: np.asarray(f(p), dtype=object), self._m))

    anchor = cached_property(lambda self: self._value("anchor"))              # (n, r)
    d_anchor = cached_property(lambda self: self._derivative("anchor"))       # (n, r, n)
    gamma = cached_property(lambda self: self._value("gamma"))                # (n, r, r)
    d_gamma = cached_property(lambda self: self._derivative("gamma"))         # (n, r, r, n)
    torsion = cached_property(lambda self: self._value("torsion"))            # (r, r, r)
    d_torsion = cached_property(lambda self: self._derivative("torsion"))     # (r, r, r, n)

    def gamma_on_anchor(self) -> np.ndarray:
        """P[:, a, b] = Gamma(#e_a)e_b, so [e_a, e_b] = P - P^T + T."""
        return np.einsum("ia,icb->cab", self.anchor, self.gamma)

    def frame_bracket(self) -> np.ndarray:
        """[e_a, e_b] of constant frame sections, at axis positions (:, a, b)."""
        P = self.gamma_on_anchor()
        return P - np.swapaxes(P, 1, 2) + self.torsion


@dataclass(frozen=True)
class AlgebroidChart:
    base: Chart
    rank: int
    anchor: SmoothField
    gamma: SmoothField
    torsion: SmoothField

    def __post_init__(self):
        n, r = self.base.dim, self.rank
        object.__setattr__(self, "anchor", _as_field(self.base, (n, r), self.anchor, "anchor"))
        object.__setattr__(self, "gamma", _as_field(self.base, (n, r, r), self.gamma, "gamma"))
        raw = _as_field(self.base, (r, r, r), self.torsion, "torsion")

        def anti(t):
            return 0.5 * (t - np.swapaxes(t, 1, 2))

        jet = None
        if raw.jet is not None:
            def jet(m, _raw=raw):
                t, dt = _raw.jet(m)
                return anti(t), anti(dt)

        object.__setattr__(self, "torsion", SmoothField(
            self.base, (r, r, r), lambda m, _raw=raw: anti(np.asarray(_raw(m), dtype=object)),
            name="torsion", jet=jet))

    def jet(self, m) -> Jet:
        """Anchor, gamma and torsion with their first derivatives at m."""
        return Jet(self, as_point(m))

    # -- section calculus -----------------------------------------------------

    def section(self, x) -> Callable:
        """Constant-in-trivialization extension of a fiber vector."""
        if callable(x):
            return x
        arr = np.asarray(x, dtype=object)
        return lambda m, _a=arr: _a

    def vector(self, v) -> Callable:
        if callable(v):
            return v
        arr = np.asarray(v, dtype=object)
        return lambda m, _a=arr: _a

    def anchor_of(self, X) -> Callable:
        """Vector field #X for a fiber section X."""
        X = self.section(X)
        return lambda m: np.asarray(self.anchor(m), dtype=object) @ np.asarray(X(m), dtype=object)

    def conn(self, V, X, m):
        """nabla_V X at m; V tangent (vector or field), X fiber section."""
        m = as_point(m)
        V = self.vector(V)
        X = self.section(X)
        vm = np.asarray(V(m), dtype=object)
        xm = np.asarray(X(m), dtype=object)
        dx = dual.jacobian(lambda p: np.asarray(X(p), dtype=object), m)  # (r, n)
        gm = np.asarray(self.gamma(m), dtype=object)
        return dx @ vm + np.einsum("iab,i,b->a", gm, vm, xm)

    def torsion_apply(self, m, x, y):
        t = np.asarray(self.torsion(m), dtype=object)
        return np.einsum("cab,a,b->c", t,
                         np.asarray(x, dtype=object), np.asarray(y, dtype=object))

    def bracket(self, X, Y) -> Callable:
        """Derived section bracket as a fiber-valued field."""
        X = self.section(X)
        Y = self.section(Y)

        def br(m):
            m2 = as_point(m)
            return (self.conn(self.anchor_of(X), Y, m2)
                    - self.conn(self.anchor_of(Y), X, m2)
                    + self.torsion_apply(m2, X(m2), Y(m2)))

        return br


def section_bracket(C: AlgebroidChart, X, Y, m):
    """[X, Y] at m for fiber sections (callables or constant vectors)."""
    C.base.require_interior(m)
    return C.bracket(X, Y)(m)


@dataclass(frozen=True)
class ActionAlgebroid:
    """Action algebroid of a Lie algebra acting on a chart."""

    algebra: LieAlgebra
    action: Callable  # (xi, m) -> tangent vector, linear in xi
    chart: AlgebroidChart


def make_action_algebroid(g0: LieAlgebra, action: Callable, base: Chart) -> ActionAlgebroid:
    """Build the chart with gamma = 0, T = fiberwise bracket, anchor from
    the action's basis fields.

    An action that carries a float batch form ``action.batch(xi, ms)``
    (points (B, n) to tangent vectors (B, n)) gives the anchor a
    closed-form batch (``SmoothField.values``)."""
    r = g0.dim
    n = base.dim
    eye = np.eye(r)

    def anchor_fn(m):
        m = as_point(m)
        out = np.empty((n, r), dtype=object)
        for i in range(r):
            out[:, i] = np.asarray(action(eye[i], m), dtype=object)
        if not np.all(np.isfinite(value(out))):
            raise AlgebroidError("action produced non-finite values")
        return out

    def anchor_batch(ms):
        out = np.empty((len(ms), n, r))
        # like Python floats in anchor_fn, overflow to inf and fail below
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(r):
                out[:, :, i] = action.batch(eye[i], ms)
        if not np.all(np.isfinite(out)):
            raise AlgebroidError("action produced non-finite values")
        return out

    tors = np.einsum("abc->cab", g0.structure_constants)
    chart = AlgebroidChart(
        base=base,
        rank=r,
        anchor=SmoothField(base, (n, r), anchor_fn, name="action anchor",
                           batch=anchor_batch if hasattr(action, "batch") else None),
        gamma=SmoothField.constant(base, np.zeros((n, r, r)), name="canonical flat"),
        torsion=SmoothField.constant(base, tors, name="fiber bracket"),
    )
    return ActionAlgebroid(g0, action, chart)


# -- homomorphism checks ------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    name: str
    max_residual: float
    tol: float
    sign: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def check_action_homomorphism(A: ActionAlgebroid, tol: float = 1e-8,
                              sign: int = 1, samples: np.ndarray | None = None) -> ResidualReport:
    """Residual of ([e_i, e_j])^dagger = sign * [e_i^dagger, e_j^dagger]."""
    g0 = A.algebra
    r = g0.dim
    eye = np.eye(r)
    if samples is None:
        samples = A.chart.base.halton_points(7)
    res = []
    for m in samples:
        for i in range(r):
            for j in range(i + 1, r):
                lhs = np.asarray(A.action(g0.bracket(eye[i], eye[j]), as_point(m)), dtype=object)
                Vi = lambda p, _i=i: np.asarray(A.action(eye[_i], p), dtype=object)
                Vj = lambda p, _j=j: np.asarray(A.action(eye[_j], p), dtype=object)
                rhs = lie_bracket_vf(Vi, Vj, m)
                rhs = value(np.asarray(rhs, dtype=object))
                res.append(np.max(np.abs(value(lhs) - sign * rhs)))
    return ResidualReport("action_homomorphism", worst(res), tol, sign=sign)


def resolve_action_sign(A: ActionAlgebroid) -> ResidualReport:
    """Try both sign conventions; return the report of the passing one
    (or the smaller-residual one if neither passes)."""
    plus = check_action_homomorphism(A, sign=1)
    if plus.passed:
        return plus
    minus = check_action_homomorphism(A, sign=-1)
    return minus if minus.max_residual < plus.max_residual else plus


def check_anchor_homomorphism(C: AlgebroidChart, tol: float = 1e-8,
                              sign: int = 1, samples: np.ndarray | None = None) -> ResidualReport:
    """Residual of #[X, Y] = sign * [#X, #Y] on constant-frame sections."""
    if samples is None:
        samples = C.base.halton_points(7)
    res = []
    for m in samples:
        J = C.jet(m)
        lhs = np.einsum("ic,cab->iab", J.anchor, J.frame_bracket())
        L = np.einsum("ibk,ka->iab", J.d_anchor, J.anchor)     # (D #e_b) #e_a
        res.append(np.max(np.abs(lhs - sign * (L - np.swapaxes(L, 1, 2)))))
    return ResidualReport("anchor_homomorphism", worst(res), tol, sign=sign)


# -- glued algebroids ---------------------------------------------------------

@dataclass(frozen=True)
class Overlap:
    """Transition data from chart i to chart j on a region of chart i."""

    i: int
    j: int
    base_map: Callable
    base_map_inv: Callable
    fiber_map: Callable  # m (chart-i coords) -> (r, r) matrix
    region_i: Chart

    @staticmethod
    def affine(i, j, A, b, M, region_i) -> "Overlap":
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        M = np.asarray(M, dtype=float)
        Ainv = np.linalg.inv(A)
        return Overlap(
            i, j,
            base_map=lambda m: A.astype(object) @ as_point(m) + b,
            base_map_inv=lambda m: Ainv.astype(object) @ (as_point(m) - b),
            fiber_map=lambda m: M,
            region_i=region_i,
        )


@dataclass(frozen=True)
class GluedAlgebroid:
    charts: tuple[AlgebroidChart, ...]
    overlaps: tuple[Overlap, ...]

    @property
    def rank(self) -> int:
        return self.charts[0].rank

    def overlaps_between(self, i: int, j: int) -> list[Overlap]:
        """All transitions i -> j, including inverted entries."""
        out = [ov for ov in self.overlaps if ov.i == i and ov.j == j]
        out.extend(_inverted(ov) for ov in self.overlaps if ov.i == j and ov.j == i)
        return out

    def overlap(self, i: int, j: int) -> Overlap | None:
        found = self.overlaps_between(i, j)
        return found[0] if found else None


def _inverted(ov: Overlap) -> Overlap:
    def fiber(m):
        mi = ov.base_map_inv(as_point(m))
        return np.linalg.inv(value(np.asarray(ov.fiber_map(mi), dtype=object)))

    region = _map_box(ov.base_map, ov.region_i)
    return Overlap(ov.j, ov.i, ov.base_map_inv, ov.base_map, fiber, region)


def _map_box(f, box: Chart) -> Chart:
    """Bounding box of the image of a box under a map (corners sampled)."""
    lo = np.asarray(box.lower)
    hi = np.asarray(box.upper)
    n = box.dim
    corners = []
    for mask in range(2 ** n):
        c = np.where([(mask >> k) & 1 for k in range(n)], hi, lo)
        corners.append(value(np.asarray(f(as_point(c)), dtype=object)))
    corners = np.stack(corners)
    return Chart(tuple(corners.min(axis=0)), tuple(corners.max(axis=0)))


def intertwining_residuals(Ci: AlgebroidChart, Cj: AlgebroidChart, phi, mu,
                           m) -> tuple[float, float, float]:
    """Anchor, connection and torsion residuals at m of the bundle map that
    sends the base of ``Ci`` by ``phi`` and its fibers by the matrix field
    ``mu`` into ``Cj``: the max |.| of

        a_j mu - Dphi a_i,
        mu Gamma_i(v) - d_v mu - Gamma_j(Dphi v) mu   (v over the axes),
        mu T_i(x, y) - T_j(mu x, mu y).
    """
    m = as_point(m)
    pm = as_point(phi(m))
    dphi, dmu = (value(dual.jacobian(lambda p, _f=f: np.asarray(_f(p), dtype=object), m))
                 for f in (phi, mu))
    M = value(np.asarray(mu(m), dtype=object))
    ai, gi, ti = (value(np.asarray(f(m), dtype=object)) for f in (Ci.anchor, Ci.gamma, Ci.torsion))
    aj, gj, tj = (value(np.asarray(f(pm), dtype=object)) for f in (Cj.anchor, Cj.gamma, Cj.torsion))
    anchor = aj @ M - dphi @ ai
    conn = np.einsum("cd,kde->cek", M, gi) - dmu - np.einsum("ik,icd,de->cek", dphi, gj, M)
    torsion = np.einsum("cd,dab->cab", M, ti) - np.einsum("cde,da,eb->cab", tj, M, M)
    return tuple(float(np.max(np.abs(t), initial=0.0)) for t in (anchor, conn, torsion))


def check_overlap_compatibility(G: GluedAlgebroid, tol: float = 1e-7) -> ResidualReport:
    """Anchor / connection / torsion intertwining residuals on a fixed
    low-discrepancy sample of 17 points per overlap."""
    details = {}
    for ov in G.overlaps:
        Ci, Cj = G.charts[ov.i], G.charts[ov.j]
        pts = ov.region_i.halton_points(17, shrink=0.05)
        res = []
        for m in pts:
            m = as_point(m)
            if not ov.region_i.contains(m) or not Ci.base.contains(m):
                continue
            if not Cj.base.contains(ov.base_map(m)):
                continue
            res.extend(intertwining_residuals(Ci, Cj, ov.base_map, ov.fiber_map, m))
        details[f"overlap_{ov.i}_{ov.j}"] = worst(res)
    return ResidualReport("overlap_compatibility", worst(list(details.values())), tol,
                          details=details)


# -- cocycles and infinitesimalization ---------------------------------------

@dataclass(frozen=True)
class AffineCocycleEntry:
    """Transition of model coordinates x -> A x + b with fiber twist M."""

    A: np.ndarray
    b: np.ndarray
    M: np.ndarray

    def compose(self, other: "AffineCocycleEntry") -> "AffineCocycleEntry":
        # self after other: x -> A_self (A_other x + b_other) + b_self
        return AffineCocycleEntry(self.A @ other.A, self.A @ other.b + self.b,
                                  self.M @ other.M)

    @staticmethod
    def identity(n: int, r: int) -> "AffineCocycleEntry":
        return AffineCocycleEntry(np.eye(n), np.zeros(n), np.eye(r))


@dataclass(frozen=True)
class CocycleReport:
    identity_residual: float
    composition_residual: float
    tol: float
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return worst([self.identity_residual, self.composition_residual]) <= self.tol


def check_cocycle(entries: dict, tol: float = 1e-9) -> CocycleReport:
    """Verify the cocycle laws on a family of chart transitions.

    An entry keyed (i, j) is the transition from chart i into chart j.
    The diagonal must be the identity, and whenever the three legs of a
    triple are all present (taken as the witness that the triple overlap
    is nonempty), going i -> j -> k must agree with going i -> k.
    """
    id_res = []
    comp_res = []
    failures = []
    for (i, j), e in entries.items():
        if i == j:
            n, r = len(e.b), e.M.shape[0]
            ident = AffineCocycleEntry.identity(n, r)
            d = worst([np.max(np.abs(e.A - ident.A)), np.max(np.abs(e.b)),
                       np.max(np.abs(e.M - ident.M))])
            id_res.append(d)
            if not d <= tol:
                failures.append(f"transition {i}->{i} is not the identity")
    for (i, j), e_ij in entries.items():
        if i == j:
            continue
        for (j2, k), e_jk in entries.items():
            if j2 != j or j == k or (i, k) not in entries:
                continue
            e_ik = entries[(i, k)]
            comp = e_jk.compose(e_ij)
            d = worst([np.max(np.abs(comp.A - e_ik.A)), np.max(np.abs(comp.b - e_ik.b)),
                       np.max(np.abs(comp.M - e_ik.M))])
            comp_res.append(d)
            if not d <= tol:
                failures.append(
                    f"transitions {i}->{j}->{k} disagree with {i}->{k} "
                    f"(residual {d:.3e})")
    return CocycleReport(worst(id_res), worst(comp_res), tol, tuple(failures))


def infinitesimalize(g0: LieAlgebra, action: Callable, charts: list[Chart],
                     cocycle: dict) -> GluedAlgebroid:
    """Glue action-algebroid charts along an affine transition cocycle.

    Each chart box carries the action algebroid of ``g0`` on model
    coordinates; the entry (i, j) sends chart-i coordinates to chart-j
    coordinates by x -> A x + b and fibers by the twist matrix M.
    """
    rep = check_cocycle({k: v for k, v in cocycle.items()}, tol=1e-9)
    if not rep.passed:
        raise AlgebroidError(f"cocycle violation: {rep.failures}")
    pieces = [make_action_algebroid(g0, action, c).chart for c in charts]
    overlaps = []
    for (i, j), e in cocycle.items():
        if i == j:
            continue
        Ainv = np.linalg.inv(e.A)
        pre = _map_box(lambda x: Ainv.astype(object) @ (as_point(x) - e.b), charts[j])
        region = charts[i].intersect(pre)
        if region is None:
            continue
        overlaps.append(Overlap.affine(i, j, e.A, e.b, e.M, region))
    G = GluedAlgebroid(tuple(pieces), tuple(overlaps))
    compat = check_overlap_compatibility(G)
    if not compat.passed:
        raise AlgebroidError(
            f"overlap compatibility residual {compat.max_residual:.3e} > {compat.tol:.1e}")
    return G
