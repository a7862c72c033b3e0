"""Chart-level transitive Lie algebroids.

A chart presents the algebroid as a triple of fields over a coordinate
box: the anchor ``a(m)`` (n x r), connection coefficients ``gamma(m)``
(n x r x r, with nabla_{d_i} X = d_i X + gamma[i] @ X) and the torsion
``T(m)`` (r x r x r, T(x,y)^c = T[c,a,b] x^a y^b, antisymmetric in a,b).
The bracket is never stored; it is always derived:

    [X, Y] = nabla_{#X} Y - nabla_{#Y} X + T(X, Y)

The pointwise checks read each field they need once for the whole sample
set, as its ``SmoothField.first_jet`` stacked over the points (the
field's closed form where it has one, else its 1-jets from one lane
call), and contract those jets directly; ``frame_bracket`` is the
bracket of constant frame sections.  The overlap check reads an
overlap's base and fiber maps with their first derivatives from one lane
call each (``dual.taylor_stack``) and the fields from ``values`` at its
points and at their images.  Both checks return an
``algebra.TensorReport``.

Action algebroids carry gamma = 0 and T equal to the fiberwise algebra
bracket; their anchors run on lane points.  Glued algebroids join charts
along overlaps, each an ``AffineCocycleEntry`` on a region, read in
closed form; an overlap's inverse is built on first read and kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import dual
from .dual import value
from .algebra import LieAlgebra, TensorReport, worst
from .geometry import Chart, SmoothField, as_field, as_point, sample_stack


class AlgebroidError(ValueError):
    pass


def frame_bracket(A, G, T):
    """[e_a, e_b] = Gamma(#e_a)e_b - Gamma(#e_b)e_a + T(e_a, e_b) of constant
    frame sections, at axis positions (:, a, b), from the anchor, gamma and
    torsion: of their values, or of their jets for the bracket's jet."""
    P = dual.contract("...ia,...icb->...cab", A, G)
    return P - dual.swap(P) + T


@dataclass(frozen=True)
class AlgebroidChart:
    base: Chart
    rank: int
    anchor: SmoothField
    gamma: SmoothField
    torsion: SmoothField
    # jets(ms) builds the anchor, gamma and torsion 1-jets at the float
    # points ms (B, n) and keeps them, so that every later ``first_jet`` of
    # the three there reads what was kept; None where the chart keeps none
    jets: Callable | None = None

    def __post_init__(self):
        n, r = self.base.dim, self.rank
        object.__setattr__(self, "anchor", as_field(self.base, (n, r), self.anchor, "anchor"))
        object.__setattr__(self, "gamma", as_field(self.base, (n, r, r), self.gamma, "gamma"))
        raw = as_field(self.base, (r, r, r), self.torsion, "torsion")

        def anti(t):
            """Antisymmetric part in the last two axes, of an array or a jet."""
            return 0.5 * (t - dual.swap(t))

        object.__setattr__(self, "torsion", SmoothField(
            self.base, (r, r, r), lambda m: anti(np.asarray(raw(m), dtype=object)),
            name="torsion", batch=None if raw.batch is None else lambda ms: anti(raw.batch(ms)),
            jet=lambda ms: anti(raw.first_jet(ms))))

    # -- section calculus -----------------------------------------------------

    def section(self, x) -> Callable:
        """Constant-in-trivialization extension of a fiber (or tangent) vector."""
        if callable(x):
            return x
        arr = np.asarray(x, dtype=object)
        return lambda m, _a=arr: _a

    def anchor_of(self, X) -> Callable:
        """Vector field #X for a fiber section X."""
        X = self.section(X)
        return lambda m: np.asarray(self.anchor(m), dtype=object) @ np.asarray(X(m), dtype=object)

    def conn(self, V, X, m):
        """nabla_V X at m; V tangent (vector or field), X fiber section."""
        m = as_point(m)
        V = self.section(V)
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


@dataclass(frozen=True)
class ActionAlgebroid:
    """Action algebroid of a Lie algebra acting on a chart."""

    algebra: LieAlgebra
    chart: AlgebroidChart   # its anchor carries the action's basis fields


def make_action_algebroid(g0: LieAlgebra, action: Callable, base: Chart) -> ActionAlgebroid:
    """Build the chart with gamma = 0, T = fiberwise bracket, anchor from
    the action's basis fields.

    The action must run on the lane points of ``dual.taylor_stack`` as
    written, so the anchor's jets at a stack of points come from one call
    of it.  An action that carries a float batch form
    ``action.batch(xi, ms)`` (points (B, n) to tangent vectors (B, n))
    gives the anchor a closed-form batch (``SmoothField.values``)."""
    r = g0.dim
    n = base.dim
    eye = np.eye(r)

    def anchor_fn(m):
        m = as_point(m)
        out = np.empty((n, r), dtype=object)
        # like Python floats, lane leaves overflow to inf and fail below
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(r):
                # entry by entry: at an order-0 lane point, np.array([...])
                # of float-array leaves stacks them into one row per entry
                col = action(eye[i], m)
                for k in range(n):
                    out[k, i] = col[k]
        if not all(np.all(np.isfinite(value(x))) for x in out.flat):
            raise AlgebroidError("action produced non-finite values")
        return out

    def anchor_batch(ms):
        out = np.empty((len(ms), n, r))
        # like Python floats in anchor_fn, overflow to inf and fail below
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(r):
                out[:, :, i] = action.batch(eye[i], ms)
        if not np.isfinite(out).all():
            raise AlgebroidError("action produced non-finite values")
        return out

    tors = np.einsum("abc->cab", g0.structure_constants)
    chart = AlgebroidChart(
        base=base,
        rank=r,
        anchor=SmoothField(base, (n, r), anchor_fn, name="action anchor",
                           batch=anchor_batch if hasattr(action, "batch") else None,
                           lanes=True),
        gamma=SmoothField.constant(base, np.zeros((n, r, r)), name="canonical flat"),
        torsion=SmoothField.constant(base, tors, name="fiber bracket"),
    )
    return ActionAlgebroid(g0, chart)


# -- homomorphism checks ------------------------------------------------------

def check_anchor_homomorphism(C: AlgebroidChart, tol: float = 1e-8,
                              sign: int = 1, samples: np.ndarray | None = None) -> TensorReport:
    """Residual of #[X, Y] = sign * [#X, #Y] on constant-frame sections."""
    samples = sample_stack(C.base.halton_points(7) if samples is None else samples)
    A, G, T = (f.first_jet(samples) for f in (C.anchor, C.gamma, C.torsion))
    lhs = np.einsum("...ic,...cab->...iab", A.v, frame_bracket(A.v, G.v, T.v))
    L = np.einsum("k...ib,...ka->...iab", A.d, A.v)     # (D #e_b) #e_a
    return TensorReport("anchor_homomorphism",
                        worst(np.abs(lhs - sign * (L - np.swapaxes(L, -1, -2)))), tol)


# -- glued algebroids ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Overlap:
    """The transition from chart i to chart j on a region of chart i: its
    affine cocycle entry, x -> A x + b with the constant fiber twist M."""

    i: int
    j: int
    entry: AffineCocycleEntry
    region_i: Chart

    def base_map(self, m):
        """A m + b at a float point, a float stack or a lane point."""
        return self.entry(m)

    def fiber_map(self, m):
        """The fiber twist M (r, r), the same at every point m."""
        return self.entry.M

    @cached_property
    def inverse(self) -> "Overlap":
        """The transition j -> i on the image box of the region, kept."""
        return Overlap(self.j, self.i, self.entry.inverse(), _map_box(self.entry, self.region_i))


@dataclass(frozen=True)
class GluedAlgebroid:
    charts: tuple[AlgebroidChart, ...]
    overlaps: tuple[Overlap, ...]

    @property
    def rank(self) -> int:
        return self.charts[0].rank

    def overlaps_between(self, i: int, j: int):
        """All transitions i -> j, one at a time: the direct entries, then
        the inverses of the entries j -> i, each inverse built when it is
        reached."""
        yield from (ov for ov in self.overlaps if (ov.i, ov.j) == (i, j))
        yield from (ov.inverse for ov in self.overlaps if (ov.j, ov.i) == (i, j))


def _map_box(e: AffineCocycleEntry, box: Chart) -> Chart:
    """Bounding box of the image of a box under e, from its stacked corners."""
    up = (np.arange(2 ** box.dim)[:, None] >> np.arange(box.dim)) & 1
    corners = e(np.where(up == 1, box.upper, box.lower))
    return Chart(tuple(corners.min(axis=0)), tuple(corners.max(axis=0)))


def intertwining_residuals(Ci: AlgebroidChart, Cj: AlgebroidChart, phi, mu,
                           ms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchor, connection and torsion residuals at each of the points ms
    (B, n) of the bundle map that sends the base of ``Ci`` by ``phi`` and
    its fibers by the matrix field ``mu`` into ``Cj``: the max |.| at each
    point of

        a_j mu - Dphi a_i,
        mu Gamma_i(v) - d_v mu - Gamma_j(Dphi v) mu   (v over the axes),
        mu T_i(x, y) - T_j(mu x, mu y).

    phi and Dphi come from one lane call of ``phi``, mu and its
    derivatives from one of ``mu``, and the fields from ``values`` at the
    points and at their images."""
    ms = np.asarray(ms, dtype=float)
    Phi, Mu = (dual.taylor_stack(f, ms, 1) for f in (phi, mu))
    dphi = np.moveaxis(Phi.d, 0, -1)           # dphi[b, i, k] = d_k phi^i
    dmu = np.moveaxis(Mu.d, 0, -1)             # dmu[b, c, e, k] = d_k mu_ce
    M = Mu.v
    ai, gi, ti = (f.values(ms) for f in (Ci.anchor, Ci.gamma, Ci.torsion))
    aj, gj, tj = (f.values(Phi.v) for f in (Cj.anchor, Cj.gamma, Cj.torsion))
    anchor = aj @ M - dphi @ ai
    conn = (np.einsum("...cd,...kde->...cek", M, gi) - dmu
            - np.einsum("...ik,...icd,...de->...cek", dphi, gj, M))
    torsion = (np.einsum("...cd,...dab->...cab", M, ti)
               - np.einsum("...cde,...da,...eb->...cab", tj, M, M))
    return tuple(np.max(np.abs(t), axis=tuple(range(1, t.ndim)), initial=0.0)
                 for t in (anchor, conn, torsion))


def check_overlap_compatibility(G: GluedAlgebroid, tol: float = 1e-7) -> TensorReport:
    """Anchor / connection / torsion intertwining residuals on a fixed
    low-discrepancy sample of 17 points per overlap, read as one stack.
    ``details`` holds each overlap's residual under ``overlap_i_j``
    (``overlap_i_j_1`` and so on for further overlaps of charts i and j)
    and how many of its points were evaluated under that key with
    ``_points`` appended; a point is skipped where it or its image leaves a
    chart.  An overlap with none evaluated certifies nothing, so its
    residual is inf."""
    details, per = {}, []
    for k, ov in enumerate(G.overlaps):
        Ci, Cj = G.charts[ov.i], G.charts[ov.j]
        repeat = sum((o.i, o.j) == (ov.i, ov.j) for o in G.overlaps[:k])
        key = f"overlap_{ov.i}_{ov.j}" + (f"_{repeat}" if repeat else "")
        pts = ov.region_i.halton_points(17, shrink=0.05)
        pts = pts[ov.region_i.contains(pts) & Ci.base.contains(pts)]
        if len(pts):
            pts = pts[Cj.base.contains(dual.taylor_stack(ov.base_map, pts, 0))]
        per.append(worst(np.concatenate(intertwining_residuals(
            Ci, Cj, ov.base_map, ov.fiber_map, pts))) if len(pts) else np.inf)
        details[key], details[f"{key}_points"] = per[-1], len(pts)
    return TensorReport("overlap_compatibility", worst(per), tol, details=details)


# -- cocycles and infinitesimalization ---------------------------------------

@dataclass(frozen=True)
class AffineCocycleEntry:
    """Transition of model coordinates x -> A x + b with fiber twist M: an
    overlap's transition (``Overlap``) or a deck transformation
    (``models.GluedModel.decks``)."""

    A: np.ndarray
    b: np.ndarray
    M: np.ndarray

    def __call__(self, m):
        """A m + b at a float point, a float stack or a lane point."""
        return m @ self.A.T + self.b

    def compose(self, other: "AffineCocycleEntry") -> "AffineCocycleEntry":
        # self after other: x -> A_self (A_other x + b_other) + b_self
        return AffineCocycleEntry(self.A @ other.A, self.A @ other.b + self.b,
                                  self.M @ other.M)

    def inverse(self) -> "AffineCocycleEntry":
        # x -> A^-1 (x - b) = A^-1 x - A^-1 b, with twist M^-1
        Ainv = np.linalg.inv(self.A)
        return AffineCocycleEntry(Ainv, -(Ainv @ self.b), np.linalg.inv(self.M))

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


def _entry_gap(e: AffineCocycleEntry, f: AffineCocycleEntry) -> float:
    """The largest |e - f| over the entries of A, b and M."""
    return worst([np.max(np.abs(e.A - f.A)), np.max(np.abs(e.b - f.b)), np.max(np.abs(e.M - f.M))])


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
            d = _entry_gap(e, AffineCocycleEntry.identity(len(e.b), e.M.shape[0]))
            id_res.append(d)
            if not d <= tol:
                failures.append(f"transition {i}->{i} is not the identity")
    for (i, j), e_ij in entries.items():
        if i == j:
            continue
        for (j2, k), e_jk in entries.items():
            if j2 != j or j == k or (i, k) not in entries:
                continue
            d = _entry_gap(e_jk.compose(e_ij), entries[(i, k)])
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
    rep = check_cocycle(cocycle, tol=1e-9)
    if not rep.passed:
        raise AlgebroidError(f"cocycle violation: {rep.failures}")
    pieces = tuple(make_action_algebroid(g0, action, c).chart for c in charts)
    # the region of chart i that the entry sends into chart j
    regions = {(i, j): charts[i].intersect(_map_box(e.inverse(), charts[j]))
               for (i, j), e in cocycle.items() if i != j}
    G = GluedAlgebroid(pieces, tuple(Overlap(i, j, cocycle[i, j], R)
                                     for (i, j), R in regions.items() if R is not None))
    compat = check_overlap_compatibility(G)
    if not compat.passed:
        raise AlgebroidError(
            f"overlap compatibility residual {compat.max_residual:.3e} > {compat.tol:.1e}")
    return G
