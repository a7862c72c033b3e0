"""Reference implementations and fixtures that only the tests use.

The references compute what the package computes from 1-jets and
adaptive solves another way, for the tests to compare: the section
calculus by its defining formulas, from which the tests build the
cocurvature; central differences, directional Duals and the nested-Dual
curvature; the Levi-Civita connection, the per-point scalar-form fit
and the covariant derivative and dual-pair residual pair by pair, which
the stacked checks are compared against; the displayed component
formulas of the TM+h chart; fixed-step RK4, which steps Dual states,
with the parallel frames and twist fits built on it; the matrix exp,
log, integrated twist and coset residual of one element at a time, and
the atlas reconstruction overlap by overlap, which the stacked coset
algebra is compared against bit for bit; curve
segments, whose points and velocities are read off a Dual time, the
reference that the package's polylines are checked against; transport
solved segment after segment from the carried matrix, development
carrying the parallel frame P rather than its inverse, both reading each
segment as a curve and solved by scipy's DOP853 rather than the package's
own steppers, the flat torus overlaps found by trial
intersection of every shifted box, an overlap's transition and a deck's
images read through object-array maps point by point, and the twist
check of a deck whose derivative comes from one lane call.  The fixtures are polylines, reversed
and concatenated polylines, the catalog loops written as curve lambdas,
and the stock algebras and models that no catalog entry or scenario
names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cartanlab import algebra, development, dual, transport
from cartanlab.algebra import (AlgebraError, AlgebraMap, LieAlgebra, MatrixRealization,
                               TensorReport, worst)
from cartanlab.algebroid import (ActionAlgebroid, AffineCocycleEntry, AlgebroidChart,
                                 Overlap, make_action_algebroid)
from cartanlab.cartan import curvature_conn_tensor, fiber_bracket_at
from cartanlab.development import (_ATLAS_SAMPLES, AtlasReport, Coset, CoverSpec,
                                   DevelopmentError, HomogeneousModel, TransitionRecord,
                                   _coset_coords, _fit_affine, _frame_jacobian,
                                   coset_residual, develop_ends, induced_affine_map,
                                   reconstruct_ends)
from cartanlab.dual import Dual, lift, value
from cartanlab.geometry import (Chart, SmoothField, TMConnection, as_point,
                                christoffel_from_jet, curvature_from_christoffel,
                                ellipsoid_metric, euclidean_metric, lie_bracket_vf, metric_jet)
from cartanlab.models import (DualPair, LocalLieGroupModel, RiemannianCartanChart,
                              RiemannianModel, riemannian_model, skew_basis, skew_coords)
from cartanlab.transport import BasePath, TransportError, line_path, line_segment


# -- stock algebras -----------------------------------------------------------

def so3() -> LieAlgebra:
    """[e1,e2]=e3 and cyclic."""
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return LieAlgebra(c, basis_labels=("e1", "e2", "e3"))


def so3_realization() -> MatrixRealization:
    """Cross-product generators: G_i v = e_i x v."""
    def hat(v):
        return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return MatrixRealization(so3(), tuple(hat(np.eye(3)[i]) for i in range(3)))


def affine_line() -> LieAlgebra:
    """Scaling and translation of the line: [e1, e2] = e2."""
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = -1.0
    return LieAlgebra(c, basis_labels=("scale", "shift"))


def heisenberg() -> LieAlgebra:
    """[e1, e2] = e3 with e3 central."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return LieAlgebra(c)


# -- the coset algebra one element at a time ----------------------------------
# References for the stacked exp, log, integrated twist and coset residual:
# each takes one element through the arithmetic the stacked forms group.

def expm_at(a) -> np.ndarray:
    """Pade scaling and squaring of one matrix (``algebra.expm``'s
    algorithm): degree and s from its own 1-norm; a strictly upper
    triangular matrix takes its terminating series."""
    a = np.asarray(a, dtype=float)
    norm = np.abs(a).sum(axis=0).max()
    if not math.isfinite(norm):
        raise AlgebraError("matrix exponential of non-finite entries")
    if not np.any(np.tril(a)):
        out, term = np.eye(len(a)) + a, a
        for m in range(2, len(a)):
            term = term @ a / m
            out += term
        return out
    theta = algebra._PADE_THETA
    m = next((m for m, t in theta.items() if norm <= t), 13)
    s = max(0, math.ceil(math.log2(norm / theta[13]))) if m == 13 else 0
    a = a / 2.0 ** s
    b = algebra._PADE_COEFFS[m]
    eye = np.eye(len(a))
    a2 = a @ a
    if m < 13:
        even = [eye, a2]
        for _ in range(2, (m + 1) // 2):
            even.append(even[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(even))
        v = sum(b[2 * k] * p for k, p in enumerate(even))
    else:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def exp_matrix_at(R: MatrixRealization, xi) -> np.ndarray:
    return expm_at(np.tensordot(np.asarray(xi, dtype=float), np.stack(R.generators),
                                axes=([0], [0])))


def log_matrix_at(R: MatrixRealization, g) -> tuple[np.ndarray | None, float]:
    """(coordinates, off-span residual) of one principal log, (None, inf)
    where g has none."""
    try:
        L = algebra.principal_log(np.asarray(g, dtype=float))
    except AlgebraError:
        return None, math.inf
    basis = np.stack([G.reshape(-1) for G in R.generators], axis=1)
    coords, *_ = np.linalg.lstsq(basis, L.reshape(-1), rcond=None)
    return coords, float(np.linalg.norm(L.reshape(-1) - basis @ coords))


def integrated_twist_at(H: HomogeneousModel, mu: AlgebraMap, g) -> np.ndarray:
    coords, off = log_matrix_at(H.realization, g)
    if not off <= 1e-7 * (1 + np.linalg.norm(g)):
        raise DevelopmentError("group element has no principal log in the algebra")
    return exp_matrix_at(H.realization, mu.matrix @ coords)


def coset_residual_at(H: HomogeneousModel, g1, g2) -> float:
    coords, off = log_matrix_at(H.realization, np.linalg.solve(g1, g2))
    if coords is None:
        return math.inf
    return float(np.linalg.norm(H.h0_projector @ coords) + off)


def reconstruct_atlas_by_overlap(H: HomogeneousModel, spec: CoverSpec) -> AtlasReport:
    """The atlas of ``development.reconstruct_atlas`` past its refusals,
    overlap by overlap: each overlap reads its induced map, twisted images,
    transition residuals and coordinates in calls of its own."""
    A = spec.cover
    patch_pts = spec.patch_samples
    frames = develop_ends(A, H, spec.m0, reconstruct_ends(spec))
    gs, Qs = frames.g, frames.Q
    npatch = sum(len(pts) for pts in patch_pts)
    gs, devs = gs[:npatch], gs[npatch:]
    firsts = np.cumsum([0] + [len(pts) for pts in patch_pts[:-1]])
    dets = [abs(np.linalg.det(_frame_jacobian(A, H, pts[:1], gs[k:k + 1], Qs[k:k + 1])[0]))
            for pts, k in zip(patch_pts, firsts)]
    samples = Coset(gs, H)
    chart_samples = np.split(_coset_coords(H, samples.g), firsts[1:])
    transitions = []
    k = _ATLAS_SAMPLES
    for ov, dev in zip(spec.overlaps,
                       devs.reshape(len(spec.overlaps), 1 + 2 * k, *devs.shape[1:])):
        q, psi = dev[0], dev[1:]
        aff = induced_affine_map(ov.entry, H, Coset(q, H))
        psi_i, psi_j = Coset(psi[:k], H), Coset(psi[k:], H)
        res = worst(coset_residual(psi_j, aff(psi_i)))
        X, Y = np.split(_coset_coords(H, psi), 2)
        Amat, b, fit = _fit_affine(X, Y)
        transitions.append(TransitionRecord(ov.i, ov.j, res, ov.entry.M, Amat, b, fit))
    return AtlasReport(chart_samples, float(np.min(dets, initial=np.inf)), transitions)


# -- derivatives by definition ------------------------------------------------

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


def directional(f, m, v):
    """Exact directional derivative of ``f`` at ``m`` along ``v``."""
    return eps_part(f(lift(m, v)))


# -- TM connections and curvature ---------------------------------------------

def flat_connection(chart: Chart) -> TMConnection:
    n = chart.dim
    return TMConnection(chart, np.zeros((n, n, n)))


def covariant_vec(conn: TMConnection, V, W, m):
    """nabla_V W at m for vector-field callables V, W, by its definition
    (nabla_V W)^k = V^i d_i W^k + Gamma^k_ij V^i W^j with the Jacobian of W
    from ``dual.jacobian``: the per-pair reference for the stacked
    ``models.check_dual_pair``."""
    m = as_point(m)
    vm = np.asarray(V(m), dtype=object)
    gm = np.asarray(conn.christoffel(m), dtype=object)
    dw = dual.jacobian(lambda p: np.asarray(W(p), dtype=object), m)
    wm = np.asarray(W(m), dtype=object)
    return dw @ vm + np.einsum("kij,i,j->k", gm, vm, wm)


def poly_field(rng: np.random.Generator, n: int) -> Callable:
    """m -> A m + b + Q(m, m), drawn as A, b, Q in turn."""
    A = rng.uniform(-1, 1, size=(n, n))
    b = rng.uniform(-1, 1, size=n)
    Q = rng.uniform(-0.3, 0.3, size=(n, n, n))
    return lambda m: A.astype(object) @ as_point(m) + b + np.einsum("kij,i,j->k", Q, m, m)


def dual_pair_residual_by_pairs(P: DualPair, seed: int = 42) -> float:
    """Per-pair reference for ``models.check_dual_pair``: the same fields at
    the same points, each pair's bar_X Y, nabla_Y X and [X, Y] taken with
    ``dual.jacobian`` (``covariant_vec``, ``geometry.lie_bracket_vf``)."""
    rng = np.random.default_rng(seed)
    samples = P.chart.sample_points(rng, 5)
    Gb, Ga = P.nabla_bar.christoffel.values(samples), P.nabla.christoffel.values(samples)
    res = [worst(np.abs(Gb - np.swapaxes(Ga, -1, -2)))]
    fields = [poly_field(rng, P.chart.dim) for _ in range(20)]
    for k in range(0, len(fields), 2):
        X, Y = fields[k], fields[k + 1]
        m = as_point(samples[k % len(samples)])
        lhs, mid, br = (value(np.asarray(t, dtype=object)) for t in (
            covariant_vec(P.nabla_bar, X, Y, m), covariant_vec(P.nabla, Y, X, m),
            lie_bracket_vf(X, Y, m)))
        res.append(np.max(np.abs(lhs - mid - br)))
    return worst(res)


def levi_civita(metric: SmoothField) -> TMConnection:
    """Torsion-free metric connection from the Koszul formula: the
    Christoffel symbols are contracted from the metric's 1-jet, and their
    closed-form jet at a stack of points from its 2-jets there."""
    return TMConnection(metric.chart, SmoothField(
        metric.chart, (metric.chart.dim,) * 3,
        lambda m: christoffel_from_jet(metric_jet(metric, m, 1)), name="levi-civita",
        jet=lambda ms: christoffel_from_jet(metric_jet(metric, ms, 2))))


def scalar_form_fit_at(conn: TMConnection, metric: SmoothField, m) -> tuple[float, float]:
    """Per-point reference for ``geometry.scalar_form_fit``: (s, residual)
    of the least-squares fit of R(U,V)W to s (sigma(V,W) U - sigma(U,W) V)
    at one point, R from the connection's Christoffel 1-jet there and
    sigma from a separate read of the metric."""
    m = as_point(m)
    conn.chart.require_interior(m)
    n = conn.chart.dim
    R = curvature_from_christoffel(conn.christoffel.first_jet(m[None]))[0]
    g = metric.values(m[None])[0]
    eye = np.eye(n)
    B = (np.einsum("jk,li->lkij", g, eye) - np.einsum("ik,lj->lkij", g, eye))
    denom = float(np.sum(B * B))
    if denom == 0.0:
        return 0.0, float(np.linalg.norm(R))
    s = float(np.sum(R * B) / denom)
    return s, float(np.linalg.norm(R - s * B))


def curvature_tensor_obj(conn: TMConnection, m) -> np.ndarray:
    """Curvature tensor preserving dual layers of the evaluation point.

    R[l, k, i, j] = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{im} G^m_{jk}
    - G^l_{jm} G^m_{ik}, from one evaluation of the Christoffel symbols
    and their Jacobian (``dual.jacobian``), so it can be differentiated
    again (``curvature_formula_check``); it is also the nested-Dual
    reference for ``geometry.curvature_from_christoffel``.  It does not
    check the chart interior: this is evaluation plumbing for derived
    fields, which integrators probe right up to chart edges.
    """
    m = as_point(m)
    G = np.asarray(conn.christoffel(m), dtype=object)
    dG = dual.jacobian(lambda p: np.asarray(conn.christoffel(p), dtype=object), m)  # (l, j, k, i)
    D = np.einsum("ljki->lkij", dG)
    Q = np.einsum("lim,mjk->lkij", G, G)
    return (D - np.swapaxes(D, 2, 3)) + (Q - np.swapaxes(Q, 2, 3))


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


# -- fixed-step integration ---------------------------------------------------

def rk4(rhs, t0: float, t1: float, y0, steps: int):
    """Fixed-step classical RK4; works elementwise so dual-number states
    pass straight through."""
    y = np.asarray(y0, dtype=object).copy()
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = np.asarray(rhs(t, y), dtype=object)
        k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1), dtype=object)
        k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2), dtype=object)
        k4 = np.asarray(rhs(t + h, y + h * k3), dtype=object)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


# -- section calculus ---------------------------------------------------------

def nabla_bar_tm(C: AlgebroidChart, X, V, m):
    """Associated fiber-direction derivative of a tangent field."""
    m = as_point(m)
    C.base.require_interior(m)
    X = C.section(X)
    V = C.section(V)
    first = np.asarray(C.anchor(m), dtype=object) @ C.conn(V, X, m)
    second = lie_bracket_vf(C.anchor_of(X), V, m)
    return first + second


def nabla_bar_g(C: AlgebroidChart, X, Y, m):
    """Associated fiber-direction derivative of a fiber section."""
    m = as_point(m)
    C.base.require_interior(m)
    X = C.section(X)
    Y = C.section(Y)
    return C.conn(C.anchor_of(Y), X, m) + C.bracket(X, Y)(m)


def torsion_bar(C: AlgebroidChart, x, y, m):
    """Torsion of the associated connection on constant extensions.

    Equals the stored torsion field by construction of the derived
    bracket; kept as an explicit consistency probe.
    """
    m = as_point(m)
    C.base.require_interior(m)
    X, Y = C.section(x), C.section(y)
    return (C.conn(C.anchor_of(Y), X, m) - C.conn(C.anchor_of(X), Y, m)
            + C.bracket(X, Y)(m))


# -- paths, parallel frames and twist fits -------------------------------------

@dataclass(frozen=True)
class CurveSegment:
    """The segment t -> curve(t), t in [0, 1], in ``chart``, for a
    Dual-safe curve: the reference that the package's straight segments
    are checked against.  Only the carried oracles below run it, reading
    its points through ``point`` and ``point_velocity``."""

    chart: int
    curve: Callable

    def point(self, t: float):
        return value(np.asarray(self.curve(t), dtype=object))

    def point_velocity(self, t: float):
        """Point and velocity as floats from one evaluation of the curve
        at the Dual time t + eps."""
        c = np.asarray(self.curve(Dual(t, 1.0)), dtype=object)
        return value(c), value(eps_part(c))


def as_curve(seg) -> CurveSegment:
    """A straight segment as the curve a + t (b - a) on [0, 1]; a curve
    segment as it is."""
    if isinstance(seg, CurveSegment):
        return seg
    a, b = seg.a, seg.b
    return CurveSegment(seg.chart, lambda t: a + t * (b - a))


def reverse(path: BasePath) -> BasePath:
    """The polyline run backwards."""
    return BasePath(tuple(line_segment(s.chart, s.b, s.a) for s in reversed(path.segments)))


def then(path: BasePath, other: BasePath) -> BasePath:
    """``path`` followed by ``other``."""
    return BasePath(path.segments + other.segments)


def polyline_path(points) -> BasePath:
    segs = []
    for a, b in zip(points[:-1], points[1:]):
        segs.extend(line_path(a, b).segments)
    return BasePath(tuple(segs))


def circle_loop_by_curves() -> BasePath:
    """The counterexample_s1 loop written as curve lambdas, for the
    carried oracles."""
    two_pi = 2 * math.pi
    return BasePath((
        CurveSegment(1, lambda t: np.array([1.5 * math.pi + t * (math.pi - 1.5 * math.pi)])),
        CurveSegment(0, lambda t: np.array([math.pi * (1 - t)])),
        CurveSegment(1, lambda t: np.array([two_pi + t * (1.5 * math.pi - two_pi)])),
    ))


def torus_loops_by_curves() -> tuple[BasePath, BasePath]:
    """The flat_torus loops written as curve lambdas."""
    return (
        BasePath((CurveSegment(0, lambda t: np.array([0.3 * t, 0.0])),
                  CurveSegment(1, lambda t: np.array([0.3 + 0.5 * t, 0.0])),
                  CurveSegment(0, lambda t: np.array([-0.2 + 0.2 * t, 0.0])))),
        BasePath((CurveSegment(0, lambda t: np.array([0.0, 0.3 * t])),
                  CurveSegment(2, lambda t: np.array([0.0, 0.3 + 0.5 * t])),
                  CurveSegment(0, lambda t: np.array([0.0, -0.2 + 0.2 * t])))),
    )


@dataclass(frozen=True)
class ParallelFrame:
    """Basis of parallel sections over a simply-connected region, equal to
    the standard fiber basis at the anchor point."""

    chart: AlgebroidChart
    m0: np.ndarray
    region: Chart
    steps: int = 96
    path_dependence: float = 0.0

    def section(self, a: int) -> Callable:
        e = np.zeros(self.chart.rank)
        e[a] = 1.0

        def sec(m):
            return _transport_line_dual(self.chart, self.m0, m, e, self.steps)

        return sec

    def sections(self):
        return [self.section(a) for a in range(self.chart.rank)]


def _transport_line_dual(C: AlgebroidChart, m0, m, x0, steps: int):
    """Fixed-step RK4 transport along the straight segment m0 -> m.

    ``x0`` is a fiber vector or an r x k matrix whose columns are
    transported together.  The endpoint may carry dual coordinates, so
    sections built from this are differentiable like any other field.
    """
    m0 = np.asarray(m0, dtype=float)
    m = as_point(m)
    delta = m - m0.astype(object)

    def rhs(t, x):
        p = m0.astype(object) + t * delta
        g = np.asarray(C.gamma(p), dtype=object)
        gv = np.einsum("iab,i->ab", g, delta)
        return -(gv @ x)

    return rk4(rhs, 0.0, 1.0, np.asarray(x0, dtype=object), steps)


def parallel_frame(C: AlgebroidChart, m0, region: Chart | None = None,
                   steps: int = 96, dependence_tol: float = 1e-6) -> ParallelFrame:
    """Frame of parallel sections; fails loudly when straight-line and
    staircase transports disagree (flatness violation) at any of three
    probe points."""
    m0 = np.asarray(m0, dtype=float)
    region = region or C.base
    eye = np.eye(C.rank)
    gaps = []
    for m in region.halton_points(3, shrink=0.15):
        mid = np.array(m, dtype=float).copy()
        mid[0] = m0[0]
        # the columns of each transported identity are the transported basis
        direct = value(_transport_line_dual(C, m0, m, eye, steps))
        via = value(_transport_line_dual(
            C, mid, m, value(_transport_line_dual(C, m0, mid, eye, steps)), steps))
        gaps.append(np.max(np.abs(direct - via)))
    res = worst(gaps)
    if not res <= dependence_tol:
        raise TransportError(
            f"path-dependent transport (residual {res:.3e}); region is not flat")
    return ParallelFrame(C, m0, region, steps, res)


def fit_twist(chart, base_map: Callable, m0, samples) -> AlgebraMap:
    """Least-squares twist of a base map on the parallel-section fields.

    Solves Dphi(m) a(m) P(m) = a(phi m) P(phi m) mu over the samples,
    where P is the parallel frame from m0 (64 RK4 steps), then verifies
    the fit to 1e-6.
    """
    r = chart.rank
    m0 = np.asarray(m0, dtype=float)

    def frame_at(m):
        return value(_transport_line_dual(chart, m0, m, np.eye(r), 64))

    rows_lhs = []
    rows_rhs = []
    for m in samples:
        m = as_point(np.asarray(m, dtype=float))
        pm = value(np.asarray(base_map(m), dtype=object))
        dphi = value(dual.jacobian(lambda p: np.asarray(base_map(as_point(p)), dtype=object), m))
        a_m = value(np.asarray(chart.anchor(m), dtype=object))
        a_p = value(np.asarray(chart.anchor(as_point(pm)), dtype=object))
        lhs = dphi @ a_m @ frame_at(value(np.asarray(m, dtype=object)))
        rhs = a_p @ frame_at(pm)
        rows_lhs.append(lhs)
        rows_rhs.append(rhs)
    L = np.vstack(rows_lhs)
    R = np.vstack(rows_rhs)
    mu, *_ = np.linalg.lstsq(R, L, rcond=None)
    resid = float(np.max(np.abs(R @ mu - L)))
    if resid > 1e-6:
        raise DevelopmentError(f"no algebra twist fits the base map (residual {resid:.3e})")
    g0 = fiber_bracket_at(chart, m0)
    return AlgebraMap(g0, g0, mu)


# -- carried-matrix transport, P-frame development, the torus overlap loop ----

def _dop853(rhs, y0) -> np.ndarray:
    """The state at t = 1 of y' = rhs from y0 at t = 0, one lane of the
    package's lane right-hand sides, solved by scipy's DOP853 at
    rtol = atol = 1e-13, apart from the package's own solvers."""
    from scipy.integrate import solve_ivp
    out = solve_ivp(lambda t, y: rhs(np.array([t]), y[None], np.array([0]))[0], (0.0, 1.0),
                    y0, method="DOP853", rtol=1e-13, atol=1e-13)
    if out.status != 0:
        raise RuntimeError(f"the reference solve failed: {out.message}")
    return out.y[:, -1]


def transport_matrix_carried(G, path: BasePath) -> np.ndarray:
    """Transport matrix solved one segment at a time, each solve starting
    from the matrix carried so far, with the transition applied between
    solves (what ``transport.transport_matrices`` does with one solve from
    the identity over all segments), by scipy's DOP853 at rtol = atol =
    1e-13.  Each segment is read as a curve (``as_curve``), point by
    point."""
    G = transport._as_glued(G)
    r = G.rank
    M = np.eye(r)
    prev = None
    for seg in map(as_curve, path.segments):
        C = G.charts[seg.chart]
        if prev is not None:
            M = transport._apply_switch(G, prev.chart, seg.chart, prev.point(1.0),
                                        seg.point(0.0)) @ M

        def rhs(t, mflat, lanes, C=C, seg=seg):
            m, v = seg.point_velocity(t[0])
            gv = np.einsum("biac,bi->ac", C.gamma.values(m[None]), v[None])
            return (-gv @ mflat.reshape(r, r)).reshape(1, -1)

        # the ends only: exact for a straight segment, not for a curve
        if not C.base.contains(seg.point(0.0)) or not C.base.contains(seg.point(1.0)):
            raise TransportError("path leaves its declared chart")
        M = _dop853(rhs, M.reshape(-1)).reshape(r, r)
        prev = seg
    return M


def develop_frames_p(A, H: HomogeneousModel, paths) -> tuple[np.ndarray, np.ndarray]:
    """Group elements (B, d, d) and parallel frames P (B, r, r) at the ends
    of a batch of paths, each path solved on its own, segment by segment
    and read as curves (``as_curve``), as dP/dt = -Gamma(v) P with each
    lift re-expressed by a linear solve against P
    (``development._develop_frames`` carries P^-1 instead), by scipy's
    DOP853 at rtol = atol = 1e-13."""
    chart = development._chart_of(A)
    d = H.realization.matrix_dim
    r = chart.rank
    sign = -float(development.bracket_orientation(chart))
    gens = np.stack(H.realization.generators)
    ends = []
    for path in paths:
        state = np.concatenate([np.eye(r).reshape(-1), np.eye(d).reshape(-1)])
        for s in map(as_curve, path.segments):

            def rhs(t, y, lanes, s=s):
                P = y[:, :r * r].reshape(1, r, r)
                G = y[:, r * r:].reshape(1, d, d)
                m, v = s.point_velocity(t[0])
                ms, v = m[None], v[None]
                gv = np.einsum("biac,bi->bac", chart.gamma.values(ms), v)
                X = development._lift_fibers(chart.anchor.values(ms), v)
                xi = sign * np.linalg.solve(P, X[..., None])[..., 0]
                Xi = np.einsum("bi,iac->bac", xi, gens)
                return np.concatenate([(-gv @ P).reshape(1, -1), (Xi @ G).reshape(1, -1)], axis=1)

            state = _dop853(rhs, state)
        ends.append(state)
    state = np.array(ends)
    return state[:, r * r:].reshape(-1, d, d), state[:, :r * r].reshape(-1, r, r)


def torus_overlaps(boxes) -> list[Overlap]:
    """The flat torus transitions by trial intersection of every box with
    every shifted box (``models.flat_torus`` computes the bounds first and
    builds only the nonempty regions)."""
    overlaps = []
    for i in range(4):
        for j in range(4):
            for sx in (-1.0, 0.0, 1.0):
                for sy in (-1.0, 0.0, 1.0):
                    if i == j and sx == 0 and sy == 0:
                        continue
                    if j < i and sx == 0 and sy == 0:
                        continue  # unshifted pairs recorded once
                    shift = np.array([sx, sy])
                    target = Chart(tuple(np.array(boxes[j].lower) - shift),
                                   tuple(np.array(boxes[j].upper) - shift))
                    region = boxes[i].intersect(target)
                    if region is None:
                        continue
                    overlaps.append(Overlap(i, j, AffineCocycleEntry(np.eye(2), shift, np.eye(2)),
                                            region))
    return overlaps


@dataclass(frozen=True)
class ObjectTransition:
    """An overlap's transition read as object-array maps of one point at a
    time, as overlaps were read before they held their cocycle entry: the
    base map A m + b and its inverse A^-1 (m - b) on ``as_point``, the
    inverse fiber twist inverted at every read, and the image box of a
    region from its corners mapped one by one.  The closed-form reads of
    ``Overlap`` are checked against it bit for bit."""

    entry: AffineCocycleEntry

    def base_map(self, m):
        return self.entry.A.astype(object) @ as_point(m) + self.entry.b

    def base_map_inv(self, m):
        return np.linalg.inv(self.entry.A).astype(object) @ (as_point(m) - self.entry.b)

    def fiber_map(self, m):
        return value(np.asarray(self.entry.M, dtype=object))

    def fiber_map_inv(self, m):
        return np.linalg.inv(value(np.asarray(self.fiber_map(self.base_map_inv(m)),
                                              dtype=object)))

    def image_box(self, box: Chart) -> Chart:
        corners = []
        for mask in range(2 ** box.dim):
            c = np.where([(mask >> k) & 1 for k in range(box.dim)], box.upper, box.lower)
            corners.append(value(np.asarray(self.base_map(as_point(c)), dtype=object)))
        corners = np.stack(corners)
        return Chart(tuple(corners.min(axis=0)), tuple(corners.max(axis=0)))


def deck_image_at(deck: AffineCocycleEntry, m) -> np.ndarray:
    """A deck's image of one point, read as decks were read before they
    were cocycle entries: the object-array base map at ``as_point(m)``,
    its values taken back to floats.  The stacked images of
    ``development`` are checked against it bit for bit."""
    m = as_point(np.asarray(m, dtype=float))
    return value(np.asarray(ObjectTransition(deck).base_map(m), dtype=object))


def equivariant_twist_by_lanes(A: ActionAlgebroid, deck: AffineCocycleEntry,
                               samples) -> TensorReport:
    """``development.check_equivariant_twist`` with phi and Dphi from one
    lane call of the deck's object-array base map (``dual.taylor_stack``)
    rather than read off the entry."""
    ms = np.asarray(samples, dtype=float)
    Phi = dual.taylor_stack(ObjectTransition(deck).base_map, ms, 1)
    lhs = np.moveaxis(Phi.d, 0, -1) @ A.chart.anchor.values(ms)
    rhs = A.chart.anchor.values(Phi.v) @ deck.M
    per = np.max(np.abs(lhs - rhs), axis=(1, 2))
    return TensorReport("check_equivariant_twist", worst(per), 1e-8, tuple(per.tolist()))


# -- the TM+h chart against its displayed formulas, and fixture models --------

def skew_pairs(n: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(n) for q in range(p + 1, n)]


def skew_matrix(w, n: int):
    """Sum of w_pq (e_p e_q^T - e_q e_p^T) over lexicographic pairs."""
    return np.einsum("c,cpq->pq", np.asarray(w, dtype=object), skew_basis(n))


def skewness_residual(R: RiemannianCartanChart, samples=None) -> float:
    """h-coordinates must act by metric-skew endomorphisms (by default at
    10 points drawn with seed 42)."""
    base = R.metric.chart
    if samples is None:
        samples = base.sample_points(np.random.default_rng(42), 10)
    E = skew_basis(R.n)
    res = []
    for m in samples:
        m = as_point(m)
        F = value(np.asarray(R.frame(m), dtype=object))
        sig = value(np.asarray(R.metric(m), dtype=object))
        phi = F @ E @ np.linalg.inv(F)
        res.append(np.max(np.abs(np.swapaxes(phi, 1, 2) @ sig + sig @ phi)))
    return worst(res)


def bracket_component_check(R: RiemannianCartanChart, samples=None) -> TensorReport:
    """Derived section bracket against the displayed component formula on
    adapted constant sections, to tolerance 1e-6 (by default at 5 points
    drawn with seed 42)."""
    base = R.metric.chart
    if samples is None:
        samples = base.sample_points(np.random.default_rng(42), 5)
    n, r = R.n, R.rank
    eye = np.eye(r)
    lc = levi_civita(R.metric)
    res = []
    for m in samples:
        m = as_point(m)
        F = np.asarray(R.frame(m), dtype=object)
        Finv = dual.inv(F)
        dF = dual.jacobian(lambda p: np.asarray(R.frame(as_point(p)), dtype=object), m)
        Gam = np.asarray(lc.christoffel(m), dtype=object)
        Rt = curvature_tensor_obj(lc, m)
        for a in range(r):
            for b in range(a + 1, r):
                got = value(np.asarray(R.chart.bracket(eye[a], eye[b])(m), dtype=object))
                va, wa = eye[a][:n], eye[a][n:]
                vb, wb = eye[b][:n], eye[b][n:]
                Wa = skew_matrix(wa.astype(object), n)
                Wb = skew_matrix(wb.astype(object), n)
                Va, Vb = F @ va.astype(object), F @ vb.astype(object)
                Pa, Pb = F @ Wa @ Finv, F @ Wb @ Finv
                jl = (np.einsum("kci,c->ki", dF, vb.astype(object)) @ Va
                      - np.einsum("kci,c->ki", dF, va.astype(object)) @ Vb)
                def lc_endo(Vdir, W):
                    acc = np.zeros((n, n), dtype=object)
                    Phi = F @ W @ Finv
                    for i in range(n):
                        dPhi = dF[:, :, i] @ W @ Finv - F @ W @ (Finv @ dF[:, :, i] @ Finv)
                        Gi = Gam[:, i, :]
                        acc = acc + Vdir[i] * (dPhi + Gi @ Phi - Phi @ Gi)
                    return acc
                R_ab = np.einsum("lbij,i,j->lb", Rt, Va, Vb)
                want_tm = Finv @ jl
                want_h = skew_coords(Finv @ (Pa @ Pb - Pb @ Pa
                                             + lc_endo(Va, Wb) - lc_endo(Vb, Wa)
                                             + R_ab) @ F, n)
                want = np.concatenate([value(np.asarray(want_tm, dtype=object)),
                                       value(np.asarray(want_h, dtype=object))])
                res.append(np.max(np.abs(got - want)))
    return TensorReport("bracket_component_check", worst(res), 1e-6)


def curvature_formula_check(R: RiemannianCartanChart, samples=None) -> TensorReport:
    """Chart-connection curvature against the displayed closed form

        R(U1,U2)(V+phi) = 0 + ( -(LC_V R + phi . R)(U1, U2) ),

    to tolerance 1e-6 (by default at 4 points drawn with seed 42).
    """
    base = R.metric.chart
    if samples is None:
        samples = base.sample_points(np.random.default_rng(42), 4)
    n, r = R.n, R.rank
    eyer = np.eye(r)
    lc = levi_civita(R.metric)
    res = []
    for m in samples:
        m = as_point(m)
        F = np.asarray(R.frame(m), dtype=object)
        Finv = dual.inv(F)
        Gam = np.asarray(lc.christoffel(m), dtype=object)
        Rt = curvature_tensor_obj(lc, m)
        dRt = dual.jacobian(lambda p: curvature_tensor_obj(lc, as_point(p)), m)
        curv = curvature_conn_tensor(dual.point(R.chart.gamma.first_jet([m]), 0))
        for i in range(n):
            for j in range(i + 1, n):
                for a in range(r):
                    lhs = curv[:, a, i, j]
                    v, w = eyer[a][:n].astype(object), eyer[a][n:].astype(object)
                    V = F @ v
                    Phi = F @ skew_matrix(w, n) @ Finv
                    Rij = Rt[:, :, i, j]
                    # (LC_V R)(e_i, e_j) as an endomorphism
                    dR_V = np.einsum("lbk,k->lb", dRt[:, :, i, j, :], V)
                    GV = np.einsum("kil,l->ki", Gam, V)  # Gamma(V) matrix [k,i]
                    cov = (dR_V + GV @ Rij - Rij @ GV
                           - np.einsum("lbkj,ki->lbij", Rt, GV)[:, :, i, j]
                           - np.einsum("lbik,kj->lbij", Rt, GV)[:, :, i, j])
                    phiR = (Phi @ Rij - Rij @ Phi
                            - np.einsum("lbkj,ki->lbij", Rt, Phi)[:, :, i, j]
                            - np.einsum("lbik,kj->lbij", Rt, Phi)[:, :, i, j])
                    closed_h = -(cov + phiR)
                    want = np.concatenate([
                        np.zeros(n),
                        value(np.asarray(skew_coords(Finv @ closed_h @ F, n), dtype=object))])
                    res.append(np.max(np.abs(lhs - want)))
    return TensorReport("curvature_formula_check", worst(res), 1e-6)


def so3_r3_model() -> ActionAlgebroid:
    """Rotation algebra acting on R^3 with anchor a(m) = skew(m).

    The orientation is m x xi, under which the basis fields are a plain
    bracket homomorphism and the derived section bracket is Jacobi; the
    opposite cross product satisfies the mirrored homomorphism law
    instead (``development.bracket_orientation`` tells the two apart).
    """
    base = Chart((-5.0,) * 3, (5.0,) * 3)
    return make_action_algebroid(so3(), so3_cross_action, base)


def so3_cross_action(xi, m):
    """The field m x xi of xi in so(3) on R^3."""
    xi = np.asarray(xi, dtype=object)
    m = np.asarray(m, dtype=object)
    return np.array([m[1] * xi[2] - m[2] * xi[1],
                     m[2] * xi[0] - m[0] * xi[2],
                     m[0] * xi[1] - m[1] * xi[0]], dtype=object)


def euclidean2() -> RiemannianModel:
    return riemannian_model("euclidean2", euclidean_metric(2), [0.0, 0.0])


def ellipsoid2() -> RiemannianModel:
    return riemannian_model("ellipsoid", ellipsoid_metric(), [1.1, 0.2])


def abelian_pair(n: int = 2) -> LocalLieGroupModel:
    chart = Chart((-3.0,) * n, (3.0,) * n)
    return LocalLieGroupModel("abelian", DualPair(
        chart, flat_connection(chart), flat_connection(chart)))
