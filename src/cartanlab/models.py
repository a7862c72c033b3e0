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
from .algebra import (AlgebraMap, Subalgebra, TensorReport, abelian,
                      adjoint_realization, translation_realization, worst)
from .algebroid import (ActionAlgebroid, AffineCocycleEntry, AlgebroidChart,
                        GluedAlgebroid, Overlap, make_action_algebroid)
from .cartan import fiber_bracket_at
from .development import CoverSpec, HomogeneousModel
from .geometry import (Chart, GeometryError, SmoothField, TMConnection, as_point,
                       christoffel_from_jet, curvature_from_christoffel,
                       frame_connection, hyperbolic_metric, metric_jet,
                       sample_stack, scalar_form_fit, sphere_metric)
from .transport import BasePath, line_segment, monodromies


# -- skew bookkeeping ---------------------------------------------------------

def skew_basis(n: int) -> np.ndarray:
    """E[c] = e_p e_q^T - e_q e_p^T over lexicographic pairs (p, q)."""
    P, Q = np.triu_indices(n, 1)
    E = np.zeros((len(P), n, n))
    E[np.arange(len(P)), P, Q] = 1.0
    E[np.arange(len(P)), Q, P] = -1.0
    return E


def skew_coords(S, n: int):
    """Coordinates of the skew part of S on that basis, over S's last two axes."""
    P, Q = np.triu_indices(n, 1)
    return 0.5 * (S[..., P, Q] - S[..., Q, P])


# -- the Riemannian chart connection on TM + h --------------------------------

@dataclass(frozen=True)
class RiemannianCartanChart:
    metric: SmoothField
    chart: AlgebroidChart
    n: int
    frame: Callable            # m -> orthonormal frame matrix F (columns)

    @property
    def rank(self) -> int:
        return self.chart.rank


def _blocks(r: int, *blocks):
    """One array, or one jet, whose trailing axes, each of length r, hold
    each ``(x, slots)`` of ``blocks`` at ``slots`` and zeros elsewhere, in
    the dtype of the blocks (objects at a Dual point).  A plain array among
    jets is a constant: it enters the value only."""
    if any(isinstance(x, dual.Taylor) for x, _ in blocks):
        return dual.Taylor(
            _blocks(r, *((x.v if isinstance(x, dual.Taylor) else x, s) for x, s in blocks)),
            _blocks(r, *((x.d, s) for x, s in blocks if isinstance(x, dual.Taylor))))
    lead = max((x.shape[:x.ndim - len(s)] for x, s in blocks), key=len)
    out = np.zeros(lead + (r,) * len(blocks[0][1]),
                   dtype=np.result_type(*(x for x, _ in blocks)))
    for x, s in blocks:
        out[(Ellipsis, *s)] = x
    return out


@lru_cache(maxsize=None)
def _skew_bracket(n: int) -> np.ndarray:
    """K[e, c, p, a] with sum_pa K[e, c, p, a] w[p, a] the skew coordinate e
    (``skew_coords``) of [w, E[c]], for any w: the matrix
    (E[c] E[e] - E[e] E[c]) / 2 at (p, a)."""
    E = skew_basis(n)
    return 0.5 * (np.einsum("epq,caq->ecpa", E, E) - np.einsum("eqa,cqp->ecpa", E, E))


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

    Only the metric is differentiated: its jet is taken once
    (``geometry.metric_jet``), and the frame, Christoffel symbols,
    curvature and the three fields are contractions of that jet
    (``dual.contract``), each read with few numpy calls: the LC derivative
    of the skew sections, [omega_i, E[c]] in skew coordinates, is one
    contraction of omega with the constant ``_skew_bracket(n)``, and gamma
    and the torsion's section bracket are written block by block into one
    array (``_blocks``).  The same formula runs on float leaves at a float
    point or a stack of them and on Dual leaves at a Dual point; on a jet
    one order higher it yields the first derivatives too, which the fields
    offer as their closed-form jet (``SmoothField.jet``, read by
    ``first_jet``).  Those jets are kept on the chart, point by point, and
    a stack's missing points are built in one pass from one metric 3-jet
    over all of them, so each sample point's jets are built once however
    many checks read them.  The chart's ``jets`` is that pass: the scenario
    runner calls it once over the sample points of all of a scenario's
    tensor checks when the first of them runs (``cli.WORK``), so their own
    reads find every point kept.  A pass that raises keeps nothing.
    """
    base = metric.chart
    n = base.dim
    E = skew_basis(n)
    r = n + len(E)
    TM, H, ALL = slice(0, n), slice(n, r), slice(0, r)
    # [E[c], E[d]] in skew coordinates, at (e, c, d)
    EE = 0.5 * np.einsum("epq,cdpq->ecd", E, E[:, None] @ E[None] - E[None] @ E[:, None])
    K = _skew_bracket(n)

    def parts(G) -> _FrameParts:
        """Frame data and gamma, two orders below the metric jet G."""
        L, Li = dual.cholesky_inv(G.v)
        F1 = dual.swap(Li)                                            # F = L^-T
        F, dF, Finv = F1.v, F1.d, dual.swap(L.v)                      # dF[i] = d_i F
        Gam1 = christoffel_from_jet(G)
        Rt = curvature_from_christoffel(Gam1)                         # (l, b, i, j)
        om = (dual.contract("...aj,i...jb->...iab", Finv, dF)
              + dual.contract("...aj,...jim,...mb->...iab", Finv, Gam1.v, F))  # omega_i (i, a, k)
        # rho(d_i, F e_k) = F^-1 R(d_i, F e_k) F, one factor at a time
        rho = dual.contract("...al,...lmij->...amij", Finv, Rt)
        rho = dual.contract("...amij,...jk->...amik", rho, F)
        rho = dual.contract("...amik,...mb->...ikab", rho, F)
        lc_h = dual.contract("ecpa,...ipa->...iec", K, om)  # [omega_i, E[c]], skew coords
        gamma = _blocks(r, (om, (TM, TM)),
                        (0.5 * dual.contract("epq,...ikpq->...iek", E, rho), (H, TM)),
                        (dual.contract("cpq,...qi->...ipc", E, Finv), (TM, H)),  # E[c] F^-1 e_i
                        (lc_h, (H, H)))
        return _FrameParts(F, dF, Finv, rho, lc_h, gamma)

    def torsion_of(p: _FrameParts):
        """Gamma(#e_b) e_a - Gamma(#e_a) e_b + [e_a, e_b] on adapted sections."""
        P = _blocks(r, (dual.contract("...ik,...iab->...akb", p.F, p.gamma),
                        (ALL, TM, ALL)))                              # Gamma(#e_k) e_b
        # the section bracket: Jacobi-Lie bracket of frame vectors, the
        # curvature rho(F e_k, F e_l), the LC derivatives of the skew
        # sections along frame vectors and the commutators [E[c], E[d]]
        jl = dual.contract("...ik,i...ml->...mkl", p.F, p.dF)         # d_{F e_k} F e_l
        lc_kd = dual.contract("...ik,...iec->...ekc", p.F, p.lc_h)
        bracket = _blocks(
            r, (dual.contract("...am,...mkl->...akl", p.Finv, jl - dual.swap(jl)), (TM, TM, TM)),
            (0.5 * dual.contract("...ik,...eil->...ekl", p.F,
                                 dual.contract("epq,...ilpq->...eil", E, p.rho)), (H, TM, TM)),
            (lc_kd, (H, TM, H)), (-dual.swap(lc_kd), (H, H, TM)), (EE, (H, H, H)))
        return dual.swap(P) - P + bracket

    def frame(m):
        return dual.swap(dual.inv(dual.cholesky(metric_jet(metric, m, 0))))

    store = {}       # point -> the anchor, gamma and torsion order-1 jets there

    def jet_parts(ms):
        """The three fields' jets at each float point of ms (B, n); one
        metric 3-jet over the points not yet kept serves all three."""
        keys = [tuple(m) for m in ms]
        new = [k for k in dict.fromkeys(keys) if k not in store]
        if new:
            p = parts(metric_jet(metric, np.array(new), 3))
            jets = (_blocks(r, (p.F, (TM,))), p.gamma, torsion_of(p))
            for b, k in enumerate(new):
                store[k] = tuple(dual.point(x, b) for x in jets)
        return [store[k] for k in keys]

    def frames(ms):
        """The anchor at float points (B, n): the frames F = L^-T, stacked."""
        try:
            L = np.linalg.cholesky(metric.values(ms))
        except np.linalg.LinAlgError:
            raise GeometryError("metric not positive definite at sample point") from None
        out = np.zeros((len(ms), n, r))
        out[:, :, TM] = np.swapaxes(np.linalg.inv(L), -1, -2)
        return out

    def field(name, shape, value_fn, slot, batch=None):
        def jet(ms):
            # stacked afresh, so no caller can write into the kept jets
            return dual.stack([j[slot] for j in jet_parts(ms)])
        return SmoothField(base, shape, value_fn, name=f"tm+h {name}", batch=batch, jet=jet)

    chart = AlgebroidChart(
        base=base, rank=r,
        anchor=field("anchor", (n, r), lambda m: _blocks(r, (frame(m), (TM,))), 0, frames),
        gamma=field("connection", (n, r, r), lambda m: parts(metric_jet(metric, m, 2)).gamma, 1),
        torsion=field("torsion", (r, r, r),
                      lambda m: torsion_of(parts(metric_jet(metric, m, 2))), 2),
        jets=jet_parts)
    return RiemannianCartanChart(metric, chart, n, frame)


# -- constant-curvature classification ----------------------------------------

def model_structure_constants(s: float, n: int) -> np.ndarray:
    """Bracket table of the constant-curvature model algebra on the
    adapted basis (tangent slots first, then skew pairs), all pairs of
    basis vectors (v_a, W_a) at once."""
    E = skew_basis(n)
    V = np.eye(n + len(E), n)                           # v_a
    W = np.concatenate([np.zeros((n, n, n)), E])        # W_a
    WV = np.einsum("apq,bq->abp", W, V)                 # W_a v_b
    WW = W[:, None] @ W[None]                           # W_a W_b
    VV = np.einsum("ap,bq->abpq", V, V)                 # v_a v_b^T
    h = WW - np.swapaxes(WW, 0, 1) - s * (VV - np.swapaxes(VV, 0, 1))
    return np.concatenate([WV - np.swapaxes(WV, 0, 1), skew_coords(h, n)], axis=-1)


# classify's flatness spot check: its sample count and seed
CLASSIFY_FLAT_SAMPLES = 6
CLASSIFY_FLAT_SEED = 42

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
    pointwise bracket fits, so the precondition is spot-checked at
    ``CLASSIFY_FLAT_SAMPLES`` points drawn with ``CLASSIFY_FLAT_SEED``.
    The torsion at m0 is read from the chart's jets, which the chart keeps,
    so a scenario that read them ahead builds no second jet there.
    """
    from .cartan import is_flat
    flat = is_flat(R.chart, samples=CLASSIFY_FLAT_SAMPLES, seed=CLASSIFY_FLAT_SEED)
    if not flat.passed:
        raise ValueError(
            f"chart connection is not flat (residual {flat.max_residual:.3e}); "
            "curvature is not constant")
    fit = scalar_form_fit(R.metric, [m0])
    s, fit_residual = float(fit.s[0]), float(fit.residual[0])
    extracted = fiber_bracket_at(R.chart, m0).structure_constants
    model = model_structure_constants(s, R.n)
    resid = float(np.max(np.abs(extracted - model)))
    if not (resid <= tol and fit_residual <= tol):
        raise ValueError(f"extracted bracket misfits the model "
                         f"(residual {max(resid, fit_residual):.3e})")
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


def _quadratic_fields(rng: np.random.Generator, ms) -> tuple[np.ndarray, np.ndarray]:
    """Values (F, n) and Jacobians (F, n, n), ``jac[f, k, l]`` = d_l X_f^k,
    of F = len(ms) random fields X_f = A m + b + Q(m, m), each drawn as A,
    b, Q in turn and read at its point ms[f], in closed form from the
    stacked (A, b, Q)."""
    n = ms.shape[1]
    A, b, Q = (np.stack(c) for c in zip(*(
        (rng.uniform(-1, 1, size=(n, n)), rng.uniform(-1, 1, size=n),
         rng.uniform(-0.3, 0.3, size=(n, n, n))) for _ in ms)))
    val = np.einsum("fkl,fl->fk", A, ms) + b + np.einsum("fkij,fi,fj->fk", Q, ms, ms)
    jac = A + np.einsum("fklj,fj->fkl", Q, ms) + np.einsum("fkil,fi->fkl", Q, ms)
    return val, jac


def check_dual_pair(P: DualPair, tol: float = 1e-8, seed: int = 42) -> TensorReport:
    """Residual of bar_X Y - nabla_Y X - [X, Y] on coordinate fields and on
    10 pairs of random quadratic fields (``_quadratic_fields``), at 5
    random points, pair k at point 2k mod 5.  Each connection's
    Christoffel symbols come from one ``values`` call."""
    rng = np.random.default_rng(seed)
    samples = P.chart.sample_points(rng, 5)
    Gb, Ga = P.nabla_bar.christoffel.values(samples), P.nabla.christoffel.values(samples)
    res = [worst(np.abs(Gb - np.swapaxes(Ga, -1, -2)))]
    at = np.arange(0, 20, 2) % len(samples)
    # field 2k is X and field 2k + 1 is Y of pair k
    val, jac = _quadratic_fields(rng, np.repeat(samples[at], 2, axis=0))
    X, Y, DX, DY = val[0::2], val[1::2], jac[0::2], jac[1::2]
    lhs = np.einsum("pkl,pl->pk", DY, X) + np.einsum("pkij,pi,pj->pk", Gb[at], X, Y)
    mid = np.einsum("pkl,pl->pk", DX, Y) + np.einsum("pkij,pi,pj->pk", Ga[at], Y, X)
    br = np.einsum("pkl,pl->pk", DY, X) - np.einsum("pkl,pl->pk", DX, Y)
    res.append(worst(np.abs(lhs - mid - br)))
    return TensorReport("check_dual_pair", worst(res), tol)


def _tm_flatness(conn: TMConnection, samples) -> float:
    """Max |R| of the connection over the stack of samples, from one
    Christoffel jet."""
    samples = sample_stack(samples)
    conn.chart.require_interior(samples)
    return worst(np.abs(curvature_from_christoffel(conn.christoffel.first_jet(samples))))


def _torsion_jet(P: DualPair, ms):
    """The second connection's Christoffel symbols' 1-jets at the points ms
    (B, n) and its torsion's order-1 jets, taken from them."""
    G = P.nabla_bar.christoffel.first_jet(ms)
    return G, G - dual.swap(G)


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
    points.  The second connection's flatness and torsion parallelism read
    one Christoffel jet per point."""
    samples = P.chart.sample_points(np.random.default_rng(seed), 5)
    flat_a = _tm_flatness(P.nabla, samples)
    P.nabla_bar.chart.require_interior(samples)
    Gam, T = _torsion_jet(P, samples)
    flat_b = worst(np.abs(curvature_from_christoffel(Gam)))
    G = Gam.v
    # (bar_nabla_l T)^k_ij from the jets, l on the leading axis of T.d
    cov = (np.moveaxis(T.d, 0, 1) + np.einsum("...klm,...mij->...lkij", G, T.v)
           - np.einsum("...mli,...kmj->...lkij", G, T.v)
           - np.einsum("...mlj,...kim->...lkij", G, T.v))
    m0 = np.asarray(m0 if m0 is not None else samples[0], dtype=float)
    T0 = _torsion_jet(P, m0[None])[1].v[0]
    c = np.einsum("kij->ijk", T0)
    from .algebra import jacobi_residual
    jres = jacobi_residual(0.5 * (c - np.swapaxes(c, 0, 1)))
    return LocalLieGroupReport(flat_a, flat_b, worst(np.abs(cov)), float(jres), tol)


@dataclass(frozen=True)
class ObstructionForm:
    w: np.ndarray              # (B, n)
    dw_residual: np.ndarray    # (B,)


def obstruction_form(P: DualPair, ms) -> ObstructionForm:
    """Trace one-form w(U) = trace T(U, .) and its exterior-derivative
    residual (closedness) at each point of the stack ms (B, n), from one
    torsion jet over the stack."""
    w = dual.contract("...kik->...i", _torsion_jet(P, sample_stack(ms))[1])
    dw = np.moveaxis(w.d, 0, -1)                     # dw[b, i, j] = d_j w_i at point b
    return ObstructionForm(w.v, np.max(np.abs(dw - np.swapaxes(dw, 1, 2)), axis=(1, 2)))


# -- catalog ------------------------------------------------------------------

def translation_action(xi, m):
    """R^n acting on R^n by translations: the field of xi is xi."""
    return np.asarray(xi, dtype=object)


translation_action.batch = lambda xi, ms: np.broadcast_to(xi, ms.shape)


def translations_model(n: int) -> ActionAlgebroid:
    base = Chart((-np.inf,) * n, (np.inf,) * n)
    return make_action_algebroid(abelian(n), translation_action, base)


@dataclass(frozen=True)
class GluedModel:
    """A glued atlas over a quotient of its universal cover.

    ``loops[k]`` generates the fundamental group and ``decks[k]`` is the
    deck transformation it closes up under, the affine cocycle entry
    m -> A m + b of the cover with its algebra twist M; ``sample_box`` is
    the box of the cover that equivariance checks draw base points from.
    """

    cover: ActionAlgebroid
    glued: GluedAlgebroid
    loops: tuple[BasePath, ...]
    decks: tuple[AffineCocycleEntry, ...]
    homog: HomogeneousModel
    atlas_spec: CoverSpec
    sample_box: Chart

    @property
    def chart(self) -> AlgebroidChart:
        return self.cover.chart

    @cached_property
    def monodromies(self) -> tuple[AlgebraMap, ...]:
        """Transport around each loop, computed on first use from one
        lane solve (``transport.monodromies``)."""
        return tuple(monodromies(self.glued, self.loops))


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
    deck = AffineCocycleEntry(np.eye(1), np.array([two_pi]), np.array([[mu]]))
    overlaps = (
        Overlap(0, 1, AffineCocycleEntry.identity(1, 1),
                Chart((math.pi - 0.5,), (math.pi + 0.5,))),
        Overlap(0, 1, deck, Chart((-0.5,), (0.5,))),
    )
    glued = GluedAlgebroid((arc_a, arc_b), overlaps)
    # oriented so that transport around it scales by e^{2 pi}
    loop = BasePath((
        line_segment(1, [1.5 * math.pi], [math.pi]),
        line_segment(0, [math.pi], [0.0]),
        line_segment(1, [two_pi], [1.5 * math.pi]),
    ))
    homog = HomogeneousModel(g0, translation_realization(1),
                             Subalgebra(g0, ()), closure="asserted-closed")
    patches = (Chart((-0.45,), (math.pi + 0.45,)),
               Chart((math.pi - 0.45,), (two_pi + 0.45,)))
    spec = CoverSpec(
        cover=cover, m0=np.zeros(1), patches=patches,
        overlaps=(
            Overlap(0, 1, AffineCocycleEntry.identity(1, 1),
                    Chart((math.pi - 0.45,), (math.pi + 0.45,))),
            Overlap(0, 1, deck, Chart((-0.45,), (0.45,))),
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
    # box i meets box j shifted by -s wherever the intersection bounds
    # order; the unshifted pairs are recorded once
    lower = np.array([b.lower for b in boxes])
    upper = np.array([b.upper for b in boxes])
    shifts = np.array([(sx, sy) for sx in (-1.0, 0.0, 1.0) for sy in (-1.0, 0.0, 1.0)])
    I, J, S = np.array([(i, j, s) for i in range(4) for j in range(4) for s in range(9)
                        if j > i or shifts[s].any()]).T
    lo = np.maximum(lower[I], lower[J] - shifts[S])
    hi = np.minimum(upper[I], upper[J] - shifts[S])
    overlaps = [Overlap(int(i), int(j), AffineCocycleEntry(np.eye(2), shifts[s], np.eye(2)),
                        Chart(tuple(a), tuple(b)))
                for i, j, s, a, b, ok in zip(I, J, S, lo, hi, np.all(lo < hi, axis=1)) if ok]
    glued = GluedAlgebroid(pieces, tuple(overlaps))
    loop_x = BasePath((
        line_segment(0, [0.0, 0.0], [0.3, 0.0]),
        line_segment(1, [0.3, 0.0], [0.8, 0.0]),
        line_segment(0, [-0.2, 0.0], [0.0, 0.0]),
    ))
    loop_y = BasePath((
        line_segment(0, [0.0, 0.0], [0.0, 0.3]),
        line_segment(2, [0.0, 0.3], [0.0, 0.8]),
        line_segment(0, [0.0, -0.2], [0.0, 0.0]),
    ))
    deck_x, deck_y = (AffineCocycleEntry(np.eye(2), np.array(b), np.eye(2))
                      for b in ((1.0, 0.0), (0.0, 1.0)))
    identity = AffineCocycleEntry.identity(2, 2)
    homog = HomogeneousModel(g0, translation_realization(2),
                             Subalgebra(g0, ()), closure="asserted-closed")
    patches = tuple(Chart(tuple(c - 0.33), tuple(c + 0.33)) for c in centers)
    spec_overlaps = (
        Overlap(0, 1, identity, Chart((0.17, -0.3), (0.3, 0.3))),
        Overlap(1, 0, deck_x, Chart((0.67, -0.3), (0.8, 0.3))),
        Overlap(0, 2, identity, Chart((-0.3, 0.17), (0.3, 0.3))),
        Overlap(2, 0, deck_y, Chart((-0.3, 0.67), (0.3, 0.8))),
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

    @property
    def chart(self) -> AlgebroidChart:
        return self.rc.chart

    @cached_property
    def homog(self) -> HomogeneousModel:
        """The homogeneous model of the fiber bracket at m0, with the skew
        block as isotropy, built on first use; raises ``AlgebraError`` where
        that bracket fails the Jacobi identity or the skew block does not
        close."""
        algebra = fiber_bracket_at(self.rc.chart, self.m0)
        n, r = self.rc.n, self.rc.rank
        return HomogeneousModel(algebra, adjoint_realization(algebra, tol=1e-6),
                                Subalgebra(algebra, tuple(np.eye(r)[n:]), tol=1e-6),
                                closure="asserted-closed")


def riemannian_model(name: str, metric: SmoothField, m0) -> RiemannianModel:
    return RiemannianModel(name, metric, build_riemannian_cartan(metric),
                           np.asarray(m0, dtype=float))


def sphere2() -> RiemannianModel:
    return riemannian_model("sphere2", sphere_metric(2), [math.pi / 2, 0.0])


def hyperbolic2() -> RiemannianModel:
    return riemannian_model("hyperbolic2", hyperbolic_metric(2), [0.0, 1.0])


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
