"""Executable model constructions and the bundled example catalog.

The centerpiece is the canonical chart connection on TM + h for a
Riemannian metric, where h is the bundle of metric-skew endomorphisms:

    nabla_U (V + phi) = (LC_U V + phi(U)) + (LC_U phi + R(U, V))

in an adapted trivialization built from a metric-orthonormal frame F.
The chart is built by index contraction in frame coordinates: gamma and
the torsion are contractions of the connection and curvature matrices in
that frame with the skew basis E[c] = e_p e_q^T - e_q e_p^T.  The
torsion of the associated connection is always computed from this
definition, never copied from a closed form; the classification then
compares the extracted fiber bracket against the constant-curvature
model bracket

    [(v1,w1),(v2,w2)] = (w1 v2 - w2 v1,  [w1,w2] - s (v1 v2^T - v2 v1^T))

whose h-component is antisymmetric in the tangent slots.

Catalog names: counterexample_s1, flat_torus, sphere2, hyperbolic2,
affine_line_group, heisenberg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import dual
from .dual import value
from .algebra import (AlgebraMap, LieAlgebra, Subalgebra, abelian,
                      adjoint_realization, so3, translation_realization)
from .algebroid import (ActionAlgebroid, AlgebroidChart, GluedAlgebroid,
                        Overlap, make_action_algebroid)
from .cartan import TensorReport, curvature_conn_tensor, fiber_bracket_at, worst
from .development import (CoverSpec, EquivariantMap, HomogeneousModel,
                          OverlapSpec)
from .geometry import (Chart, GeometryError, SmoothField, TMConnection, as_point,
                       christoffel_from_jet, curvature_from_christoffel,
                       curvature_tensor, curvature_tensor_obj, ellipsoid_metric,
                       euclidean_metric, flat_connection, frame_connection,
                       hyperbolic_metric, levi_civita, lie_bracket_vf, metric_jet,
                       scalar_form_fit, sphere_metric)
from .transport import BasePath, PathSegment, monodromy


# -- skew bookkeeping ---------------------------------------------------------

def skew_pairs(n: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(n) for q in range(p + 1, n)]


def skew_basis(n: int) -> np.ndarray:
    """E[c] = e_p e_q^T - e_q e_p^T over lexicographic pairs (p, q)."""
    P, Q = np.triu_indices(n, 1)
    E = np.zeros((len(P), n, n))
    E[np.arange(len(P)), P, Q] = 1.0
    E[np.arange(len(P)), Q, P] = -1.0
    return E


def skew_matrix(w, n: int):
    """Sum of w_pq (e_p e_q^T - e_q e_p^T) over lexicographic pairs."""
    return np.einsum("c,cpq->pq", np.asarray(w, dtype=object), skew_basis(n))


def skew_coords(S, n: int):
    """Coordinates of the skew part of S on that basis, over S's last two axes."""
    P, Q = np.triu_indices(n, 1)
    return 0.5 * (S[..., P, Q] - S[..., Q, P])


# -- the Riemannian chart connection on TM + h --------------------------------

@dataclass(frozen=True)
class RiemannianCartanChart:
    metric: SmoothField
    lc: TMConnection
    chart: AlgebroidChart
    n: int
    frame: Callable            # m -> orthonormal frame matrix F (columns)

    @property
    def rank(self) -> int:
        return self.chart.rank


def _scatter(a, r: int, slots) -> np.ndarray:
    """``a`` placed at ``slots`` of its trailing axes, each widened to r."""
    out = np.zeros(a.shape[:-len(slots)] + (r,) * len(slots), dtype=a.dtype)
    out[(Ellipsis, *slots)] = a
    return out


class _FrameParts(NamedTuple):
    """What the TM+h fields are contracted from, as jets of one order."""
    F: object          # orthonormal frame, vectors in columns
    dF: object         # dF[i] = d_i F
    Finv: object
    rho: object        # rho(d_i, F e_k) at (i, k, a, b)
    lc_h: object       # LC derivative along d_i of skew section c, (i, e, c)
    gamma: object


def build_riemannian_cartan(metric: SmoothField) -> RiemannianCartanChart:
    """Assemble the adapted chart for the canonical connection on TM + h.

    Fiber basis: the frame vectors F e_k, then the endomorphisms
    F E[c] F^-1.  In frame coordinates the LC connection is
    omega_i = F^-1 (d_i F + Gamma_i F) and the curvature
    rho(U, V) = F^-1 R(U, V) F, and every field is an index contraction
    of these with the skew basis E.

    Only the metric is differentiated: its jet at a point is taken once
    with nested Duals (``dual.taylor``), and the frame, Christoffel
    symbols, curvature and the three fields are contractions of that jet
    (``dual.contract``).  The same formula runs on float leaves at a float
    point and on Dual leaves at a Dual point; on a jet one order higher it
    yields the first derivatives too, which the fields offer
    ``AlgebroidChart.jet`` as their closed form (``SmoothField.jet``).
    """
    base = metric.chart
    n = base.dim
    E = skew_basis(n)
    r = n + len(E)
    TM, H, ALL = slice(0, n), slice(n, r), slice(0, r)
    lc = levi_civita(metric)
    # [E[c], E[d]] in skew coordinates, at (e, c, d) of the skew block
    EE = _scatter(0.5 * np.einsum("epq,cdpq->ecd", E, E[:, None] @ E[None] - E[None] @ E[:, None]),
                  r, (H, H, H))

    def place(x, *slots):
        return dual.linear(lambda a: _scatter(a, r, slots), x)

    def parts(G) -> _FrameParts:
        """Frame data and gamma, two orders below the metric jet G."""
        L = dual.cholesky(G.v)
        F1 = dual.swap(dual.inv(L))                                   # F = L^-T
        F, dF, Finv = F1.v, F1.d, dual.swap(L.v)                      # dF[i] = d_i F
        Gam1 = christoffel_from_jet(G)
        Rt = curvature_from_christoffel(Gam1)                         # (l, b, i, j)
        om = (dual.contract("aj,ijb->iab", Finv, dF)
              + dual.contract("aj,jim,mb->iab", Finv, Gam1.v, F))     # omega_i, (i, a, k)
        rho = dual.contract("al,lmij,jk,mb->ikab", Finv, Rt, F, F)    # rho(d_i, F e_k)
        om_E = (dual.contract("iap,cpb->icab", om, E)
                - dual.contract("cap,ipb->icab", E, om))              # [omega_i, E[c]]
        lc_h = 0.5 * dual.contract("epq,icpq->iec", E, om_E)          # in skew coordinates
        gamma = (place(om, TM, TM) + place(0.5 * dual.contract("epq,ikpq->iek", E, rho), H, TM)
                 + place(dual.contract("cpq,qi->ipc", E, Finv), TM, H)   # E[c] F^-1 e_i
                 + place(lc_h, H, H))
        return _FrameParts(F, dF, Finv, rho, lc_h, gamma)

    def torsion_of(p: _FrameParts):
        """Gamma(#e_b) e_a - Gamma(#e_a) e_b + [e_a, e_b] on adapted sections."""
        P = place(dual.contract("ik,iab->akb", p.F, p.gamma), ALL, TM, ALL)   # Gamma(#e_k) e_b
        # the section bracket: Jacobi-Lie bracket of frame vectors, the
        # curvature rho(F e_k, F e_l), the LC derivatives of the skew
        # sections along frame vectors and the commutators [E[c], E[d]]
        jl = dual.contract("ik,iml->mkl", p.F, p.dF)                  # d_{F e_k} F e_l
        lc_kd = dual.contract("ik,iec->ekc", p.F, p.lc_h)
        bracket = (place(dual.contract("am,mkl->akl", p.Finv, jl - dual.swap(jl)), TM, TM, TM)
                   + place(0.5 * dual.contract("epq,ik,ilpq->ekl", E, p.F, p.rho), H, TM, TM)
                   + place(lc_kd, H, TM, H) - place(dual.swap(lc_kd), H, H, TM) + EE)
        return dual.swap(P) - P + bracket

    def frame(m):
        return dual.swap(dual.inv(dual.cholesky(metric_jet(metric, m, 0))))

    @lru_cache(maxsize=1)
    def jet_parts(m):
        # one metric jet serves the closed-form jets of all three fields at m
        return parts(metric_jet(metric, m, 3))

    def frames(ms):
        """The anchor at float points (B, n): the frames F = L^-T, stacked."""
        try:
            L = np.linalg.cholesky(metric.values(ms))
        except np.linalg.LinAlgError:
            raise GeometryError("metric not positive definite at sample point") from None
        out = np.zeros((len(ms), n, r))
        out[:, :, TM] = np.swapaxes(np.linalg.inv(L), -1, -2)
        return out

    def field(name, shape, value_fn, of, batch=None):
        def jet(m):
            # copies, so no caller can write into the shared parts
            x = of(jet_parts(tuple(m)))
            return x.v.copy(), np.moveaxis(x.d, 0, -1).copy()
        return SmoothField(base, shape, value_fn, name=f"tm+h {name}", batch=batch, jet=jet)

    chart = AlgebroidChart(
        base=base, rank=r,
        anchor=field("anchor", (n, r), lambda m: place(frame(m), TM), lambda p: place(p.F, TM),
                     frames),
        gamma=field("connection", (n, r, r), lambda m: parts(metric_jet(metric, m, 2)).gamma,
                    lambda p: p.gamma),
        torsion=field("torsion", (r, r, r), lambda m: torsion_of(parts(metric_jet(metric, m, 2))),
                      torsion_of))
    return RiemannianCartanChart(metric, lc, chart, n, frame)


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
    res = []
    for m in samples:
        m = as_point(m)
        F = np.asarray(R.frame(m), dtype=object)
        Finv = dual.inv(F)
        dF = dual.jacobian(lambda p: np.asarray(R.frame(as_point(p)), dtype=object), m)
        Gam = np.asarray(R.lc.christoffel(m), dtype=object)
        Rt = curvature_tensor_obj(R.lc, m)
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
    res = []
    for m in samples:
        m = as_point(m)
        F = np.asarray(R.frame(m), dtype=object)
        Finv = dual.inv(F)
        Gam = np.asarray(R.lc.christoffel(m), dtype=object)
        Rt = curvature_tensor_obj(R.lc, m)
        dRt = dual.jacobian(lambda p: curvature_tensor_obj(R.lc, as_point(p)), m)
        curv = curvature_conn_tensor(R.chart.jet(m))
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


# -- constant-curvature classification ----------------------------------------

def model_structure_constants(s: float, n: int) -> np.ndarray:
    """Bracket table of the constant-curvature model algebra on the
    adapted basis (tangent slots first, then skew pairs)."""
    pairs = skew_pairs(n)
    r = n + len(pairs)
    eye = np.eye(r)
    c = np.zeros((r, r, r))

    def bracket(x, y):
        v1, w1 = x[:n], x[n:]
        v2, w2 = y[:n], y[n:]
        W1 = value(np.asarray(skew_matrix(w1.astype(object), n), dtype=object))
        W2 = value(np.asarray(skew_matrix(w2.astype(object), n), dtype=object))
        tm = W1 @ v2 - W2 @ v1
        h = W1 @ W2 - W2 @ W1 - s * (np.outer(v1, v2) - np.outer(v2, v1))
        return np.concatenate([tm, value(np.asarray(skew_coords(h.astype(object), n), dtype=object))])

    for a in range(r):
        for b in range(a + 1, r):
            cab = bracket(eye[a], eye[b])
            c[a, b, :] = cab
            c[b, a, :] = -cab
    return c


MODEL_ALGEBRA_NAMES = {"euclidean": "o(n) semidirect R^n",
                       "spherical": "o(n+1)",
                       "hyperbolic": "o(n,1)"}


@dataclass(frozen=True)
class Classification:
    tag: str
    s: float
    model_algebra: str
    structure_residual: float
    torsion_form: str = ("h-component [w1,w2] - s(sigma(V2) tensor V1 - "
                         "sigma(V1) tensor V2); antisymmetric by construction")


def classify_constant_curvature(R: RiemannianCartanChart, m0,
                                tol: float = 1e-6) -> Classification:
    """Fit the scalar curvature and compare the extracted fiber bracket
    with the model bracket built from it; |s| <= 1e-8 is euclidean.

    Requires the chart connection to be flat (constant curvature); a
    non-flat chart has no constant model to classify into even when the
    pointwise bracket fits, so the precondition is spot-checked at six
    points.
    """
    from .cartan import is_flat
    flat = is_flat(R.chart, samples=6)
    if not flat.verdict:
        raise ValueError(
            f"chart connection is not flat (residual {flat.max_residual:.3e}); "
            "curvature is not constant")
    fit = scalar_form_fit(R.lc, R.metric, m0)
    s = fit.s
    extracted = fiber_bracket_at(R.chart, m0).structure_constants
    model = model_structure_constants(s, R.n)
    resid = float(np.max(np.abs(extracted - model)))
    if resid > tol or fit.residual > tol:
        raise ValueError(f"extracted bracket misfits the model "
                         f"(residual {max(resid, fit.residual):.3e})")
    if abs(s) <= 1e-8:
        tag = "euclidean"
    elif s > 0:
        tag = "spherical"
    else:
        tag = "hyperbolic"
    return Classification(tag, s, MODEL_ALGEBRA_NAMES[tag], resid)


# -- dual pairs and local Lie groups ------------------------------------------

@dataclass(frozen=True)
class DualPair:
    chart: Chart
    nabla: TMConnection
    nabla_bar: TMConnection


def _poly_field(rng: np.random.Generator, n: int) -> Callable:
    A = rng.uniform(-1, 1, size=(n, n))
    b = rng.uniform(-1, 1, size=n)
    Q = rng.uniform(-0.3, 0.3, size=(n, n, n))

    def fn(m):
        m = as_point(m)
        lin = A.astype(object) @ m + b
        quad = np.einsum("kij,i,j->k", Q, m, m)
        return lin + quad

    return fn


def check_dual_pair(P: DualPair, tol: float = 1e-8, seed: int = 42) -> TensorReport:
    """Residual of bar_X Y - nabla_Y X - [X, Y] on coordinate fields and
    20 random polynomial fields, at 5 random points."""
    rng = np.random.default_rng(seed)
    samples = P.chart.sample_points(rng, 5)
    n = P.chart.dim
    res = []
    for m in samples:
        m = as_point(m)
        Gb = value(np.asarray(P.nabla_bar.christoffel(m), dtype=object))
        Ga = value(np.asarray(P.nabla.christoffel(m), dtype=object))
        res.append(np.max(np.abs(Gb - np.swapaxes(Ga, 1, 2)), initial=0.0))
    fields = [_poly_field(rng, n) for _ in range(20)]
    for k in range(0, len(fields) - 1, 2):
        X, Y = fields[k], fields[k + 1]
        m = samples[k % len(samples)]
        m = as_point(m)
        lhs = value(np.asarray(P.nabla_bar.covariant_vec(X, Y, m), dtype=object))
        mid = value(np.asarray(P.nabla.covariant_vec(Y, X, m), dtype=object))
        br = value(np.asarray(lie_bracket_vf(X, Y, m), dtype=object))
        res.append(np.max(np.abs(lhs - mid - br)))
    return TensorReport("check_dual_pair", worst(res), tol)


def _tm_flatness(conn: TMConnection, samples) -> float:
    res = []
    for m in samples:
        conn.chart.require_interior(m)
        res.append(np.max(np.abs(curvature_tensor(conn, m))))
    return worst(res)


def torsion_field(P: DualPair, m):
    """T[k, i, j] of the second connection on coordinate fields."""
    G = np.asarray(P.nabla_bar.christoffel(as_point(m)), dtype=object)
    return G - np.einsum("kij->kji", G)


@dataclass(frozen=True)
class LocalLieGroupReport:
    flat_residual: float
    flat_bar_residual: float
    parallel_torsion_residual: float
    jacobi_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol and self.jacobi_residual <= 1e-6

    @property
    def max_residual(self) -> float:
        return worst([self.flat_residual, self.flat_bar_residual,
                      self.parallel_torsion_residual])


def local_lie_group_check(P: DualPair, tol: float = 1e-7,
                          m0=None, seed: int = 42) -> LocalLieGroupReport:
    """Flatness of both connections, parallelism of the torsion of the
    second, and the Jacobi identity of the restricted bracket, at 5 random
    points."""
    samples = P.chart.sample_points(np.random.default_rng(seed), 5)
    n = P.chart.dim
    flat_a = _tm_flatness(P.nabla, samples)
    flat_b = _tm_flatness(P.nabla_bar, samples)
    par = []
    for m in samples:
        m = as_point(m)
        T = torsion_field(P, m)
        dT = dual.jacobian(lambda p: torsion_field(P, p), m)   # (k,i,j,l)
        Gb = np.asarray(P.nabla_bar.christoffel(m), dtype=object)
        for axis in range(n):
            grad = dT[:, :, :, axis]
            corr = (np.einsum("km,mij->kij", Gb[:, axis, :], T)
                    - np.einsum("mi,kmj->kij", Gb[:, axis, :], T)
                    - np.einsum("mj,kim->kij", Gb[:, axis, :], T))
            par.append(np.max(np.abs(value(grad + corr))))
    m0 = np.asarray(m0 if m0 is not None else samples[0], dtype=float)
    T0 = value(torsion_field(P, m0))
    c = np.einsum("kij->ijk", T0)
    from .algebra import jacobi_residual
    jres = jacobi_residual(0.5 * (c - np.swapaxes(c, 0, 1)))
    return LocalLieGroupReport(flat_a, flat_b, worst(par), float(jres), tol)


def restricted_bracket(P: DualPair, m0) -> LieAlgebra:
    T0 = value(torsion_field(P, m0))
    return LieAlgebra(np.einsum("kij->ijk", T0))


@dataclass(frozen=True)
class ObstructionForm:
    w: np.ndarray
    dw_residual: float


def obstruction_form(P: DualPair, m) -> ObstructionForm:
    """Trace one-form w(U) = trace T(U, .) and its exterior-derivative
    residual (closedness)."""
    m = as_point(m)

    def w_fn(p):
        T = torsion_field(P, p)
        return np.einsum("kik->i", T)

    w = value(np.asarray(w_fn(m), dtype=object))
    dw = dual.jacobian(w_fn, m)   # (i, j) = d_j w_i
    dwv = value(dw)
    curl = dwv.T - dwv
    return ObstructionForm(w, float(np.max(np.abs(curl))))


# -- catalog ------------------------------------------------------------------

def translation_action(xi, m):
    """R^n acting on R^n by translations: the field of xi is xi."""
    return np.asarray(xi, dtype=object)


translation_action.batch = lambda xi, ms: np.broadcast_to(xi, ms.shape)


def translations_model(n: int) -> ActionAlgebroid:
    base = Chart((-np.inf,) * n, (np.inf,) * n)
    return make_action_algebroid(abelian(n), translation_action, base)


def so3_r3_model() -> ActionAlgebroid:
    """Rotation algebra acting on R^3 with anchor a(m) = skew(m).

    The orientation is m x xi, under which the basis fields are a plain
    bracket homomorphism and the derived section bracket is Jacobi; the
    opposite cross product satisfies the mirrored homomorphism law
    instead (resolve_action_sign tells the two apart).
    """
    base = Chart((-5.0,) * 3, (5.0,) * 3)

    def cross(xi, m):
        xi = np.asarray(xi, dtype=object)
        m = np.asarray(m, dtype=object)
        return np.array([m[1] * xi[2] - m[2] * xi[1],
                         m[2] * xi[0] - m[0] * xi[2],
                         m[0] * xi[1] - m[1] * xi[0]], dtype=object)

    return make_action_algebroid(so3(), cross, base)


@dataclass(frozen=True)
class GluedModel:
    """A glued atlas over a quotient of its universal cover.

    ``loops[k]`` generates the fundamental group and ``decks[k]`` is the
    deck transformation it closes up under; ``sample_box`` is the box of
    the cover that equivariance checks draw base points from.
    """

    cover: ActionAlgebroid
    glued: GluedAlgebroid
    loops: tuple[BasePath, ...]
    decks: tuple[EquivariantMap, ...]
    homog: HomogeneousModel
    atlas_spec: CoverSpec
    sample_box: Chart

    @property
    def chart(self) -> AlgebroidChart:
        return self.cover.chart

    @cached_property
    def monodromies(self) -> tuple[AlgebraMap, ...]:
        """Transport around each loop, computed on first use."""
        return tuple(monodromy(self.glued, loop) for loop in self.loops)


def scaling_action(xi, th):
    return np.array([xi[0] * dual.exp(-th[0])], dtype=object)


def _scaling_batch(xi, ths):
    # overflow raises, as math.exp does in the per-point form
    with np.errstate(over="raise"):
        return xi[0] * np.exp(-ths)


scaling_action.batch = _scaling_batch


def counterexample_s1() -> GluedModel:
    """Compact base, flat Cartan, incomplete: the codimension-zero example
    with scaling monodromy."""
    g0 = abelian(1)
    cover = make_action_algebroid(g0, scaling_action, Chart((-np.inf,), (np.inf,)))
    mu = math.exp(2 * math.pi)
    two_pi = 2 * math.pi
    chart_a = Chart((-0.5,), (math.pi + 0.5,))
    chart_b = Chart((math.pi - 0.5,), (two_pi + 0.5,))
    arc_a = make_action_algebroid(g0, scaling_action, chart_a).chart
    arc_b = make_action_algebroid(g0, scaling_action, chart_b).chart
    overlaps = (
        Overlap.affine(0, 1, np.eye(1), np.zeros(1), np.eye(1),
                       Chart((math.pi - 0.5,), (math.pi + 0.5,))),
        Overlap.affine(0, 1, np.eye(1), np.array([two_pi]), np.array([[mu]]),
                       Chart((-0.5,), (0.5,))),
    )
    glued = GluedAlgebroid((arc_a, arc_b), overlaps)
    # oriented so that transport around it scales by e^{2 pi}
    loop = BasePath((
        PathSegment(1, lambda t: np.array([1.5 * math.pi + t * (math.pi - 1.5 * math.pi)])),
        PathSegment(0, lambda t: np.array([math.pi * (1 - t)])),
        PathSegment(1, lambda t: np.array([two_pi + t * (1.5 * math.pi - two_pi)])),
    ))
    deck = EquivariantMap(
        base_map=lambda m: np.asarray(m, dtype=object) + np.array([two_pi]),
        twist=AlgebraMap(g0, g0, np.array([[mu]])))
    homog = HomogeneousModel(g0, translation_realization(1),
                             Subalgebra(g0, ()), closure="asserted-closed")
    patches = (Chart((-0.45,), (math.pi + 0.45,)),
               Chart((math.pi - 0.45,), (two_pi + 0.45,)))
    spec = CoverSpec(
        cover=cover, m0=np.zeros(1), patches=patches,
        overlaps=(
            OverlapSpec(0, 1, Chart((math.pi - 0.45,), (math.pi + 0.45,)),
                        EquivariantMap.identity(g0)),
            OverlapSpec(0, 1, Chart((-0.45,), (0.45,)), deck),
        ))
    return GluedModel(cover, glued, (loop,), (deck,), homog, spec,
                      Chart((-0.5,), (1.5,)))


def flat_torus() -> GluedModel:
    g0 = abelian(2)
    cover = translations_model(2)
    half = 0.36
    centers = [np.array(c) for c in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5))]
    boxes = [Chart(tuple(c - half), tuple(c + half)) for c in centers]
    pieces = tuple(make_action_algebroid(g0, translation_action, b).chart for b in boxes)
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
                    overlaps.append(Overlap.affine(i, j, np.eye(2), shift,
                                                   np.eye(2), region))
    glued = GluedAlgebroid(pieces, tuple(overlaps))
    loop_x = BasePath((
        PathSegment(0, lambda t: np.array([0.3 * t, 0.0])),
        PathSegment(1, lambda t: np.array([0.3 + 0.5 * t, 0.0])),
        PathSegment(0, lambda t: np.array([-0.2 + 0.2 * t, 0.0])),
    ))
    loop_y = BasePath((
        PathSegment(0, lambda t: np.array([0.0, 0.3 * t])),
        PathSegment(2, lambda t: np.array([0.0, 0.3 + 0.5 * t])),
        PathSegment(0, lambda t: np.array([0.0, -0.2 + 0.2 * t])),
    ))
    deck_x = EquivariantMap(lambda m: np.asarray(m, dtype=object) + np.array([1.0, 0.0]),
                            AlgebraMap(g0, g0, np.eye(2)))
    deck_y = EquivariantMap(lambda m: np.asarray(m, dtype=object) + np.array([0.0, 1.0]),
                            AlgebraMap(g0, g0, np.eye(2)))
    homog = HomogeneousModel(g0, translation_realization(2),
                             Subalgebra(g0, ()), closure="asserted-closed")
    patches = tuple(Chart(tuple(c - 0.33), tuple(c + 0.33)) for c in centers)
    spec_overlaps = (
        OverlapSpec(0, 1, Chart((0.17, -0.3), (0.3, 0.3)), EquivariantMap.identity(g0)),
        OverlapSpec(1, 0, Chart((0.67, -0.3), (0.8, 0.3)), deck_x),
        OverlapSpec(0, 2, Chart((-0.3, 0.17), (0.3, 0.3)), EquivariantMap.identity(g0)),
        OverlapSpec(2, 0, Chart((-0.3, 0.67), (0.3, 0.8)), deck_y),
    )
    spec = CoverSpec(cover, np.zeros(2), patches, spec_overlaps)
    return GluedModel(cover, glued, (loop_x, loop_y), (deck_x, deck_y), homog, spec,
                      Chart((-0.5, -0.5), (0.5, 0.5)))


@dataclass(frozen=True)
class RiemannianModel:
    name: str
    metric: SmoothField
    rc: RiemannianCartanChart
    m0: np.ndarray
    homog: HomogeneousModel | None

    @property
    def chart(self) -> AlgebroidChart:
        return self.rc.chart


def riemannian_model(name: str, metric: SmoothField, m0,
                     with_model: bool = True) -> RiemannianModel:
    rc = build_riemannian_cartan(metric)
    m0 = np.asarray(m0, dtype=float)
    homog = None
    if with_model:
        algebra = fiber_bracket_at(rc.chart, m0)
        realization = adjoint_realization(algebra, tol=1e-6)
        n = rc.n
        h_basis = tuple(np.eye(rc.rank)[n + k] for k in range(rc.rank - n))
        homog = HomogeneousModel(algebra, realization,
                                 Subalgebra(algebra, h_basis, tol=1e-6),
                                 closure="asserted-closed")
    return RiemannianModel(name, metric, rc, m0, homog)


def sphere2() -> RiemannianModel:
    return riemannian_model("sphere2", sphere_metric(2), [math.pi / 2, 0.0])


def hyperbolic2() -> RiemannianModel:
    return riemannian_model("hyperbolic2", hyperbolic_metric(2), [0.0, 1.0])


def euclidean2() -> RiemannianModel:
    return riemannian_model("euclidean2", euclidean_metric(2), [0.0, 0.0])


def ellipsoid2() -> RiemannianModel:
    return riemannian_model("ellipsoid", ellipsoid_metric(), [1.1, 0.2],
                            with_model=False)


@dataclass(frozen=True)
class LocalLieGroupModel:
    name: str
    pair: DualPair


def affine_line_group() -> LocalLieGroupModel:
    chart = Chart((0.2, -3.0), (5.0, 3.0))

    def right_frame(m):
        m = as_point(m)
        E = np.zeros((2, 2), dtype=object)
        E[0, 0] = m[0]
        E[1, 0] = m[1]
        E[1, 1] = 1.0
        return E

    def left_frame(m):
        m = as_point(m)
        E = np.zeros((2, 2), dtype=object)
        E[0, 0] = m[0]
        E[1, 1] = m[0]
        return E

    return LocalLieGroupModel("affine_line_group", DualPair(
        chart, frame_connection(chart, right_frame), frame_connection(chart, left_frame)))


def heisenberg_group() -> LocalLieGroupModel:
    chart = Chart((-2.0,) * 3, (2.0,) * 3)

    def right_frame(m):
        m = as_point(m)
        E = np.zeros((3, 3), dtype=object)
        E[0, 0] = 1.0
        E[1, 1] = 1.0
        E[2, 2] = 1.0
        E[2, 0] = m[1]
        return E

    def left_frame(m):
        m = as_point(m)
        E = np.zeros((3, 3), dtype=object)
        E[0, 0] = 1.0
        E[1, 1] = 1.0
        E[2, 2] = 1.0
        E[2, 1] = m[0]
        return E

    return LocalLieGroupModel("heisenberg", DualPair(
        chart, frame_connection(chart, right_frame), frame_connection(chart, left_frame)))


def abelian_pair(n: int = 2) -> LocalLieGroupModel:
    chart = Chart((-3.0,) * n, (3.0,) * n)
    return LocalLieGroupModel("abelian", DualPair(
        chart, flat_connection(chart), flat_connection(chart)))


CATALOG = {
    "counterexample_s1": counterexample_s1,
    "flat_torus": flat_torus,
    "sphere2": sphere2,
    "hyperbolic2": hyperbolic2,
    "affine_line_group": affine_line_group,
    "heisenberg": heisenberg_group,
}


def load_model(name: str):
    if name not in CATALOG:
        raise KeyError(f"unknown catalog model {name!r}; available: {sorted(CATALOG)}")
    return CATALOG[name]()
