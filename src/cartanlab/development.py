"""Development of transitive algebra actions into a homogeneous model.

Given a transitive action on a simply-connected chart and a matrix model
of the simply-connected group integrating the algebra, a base path from
the anchor point is lifted through the anchor's minimum-norm right
inverse and integrated as a right-logarithmic matrix ODE

    dg/dt = (sum_i xi_i(t) G_i) g,    g(0) = I.

The endpoint coset g(1) H0 is the developed image of the path's end.
A check's developments are integrated as one stacked solve: the B paths
of a batch share one adaptive DOP853 step sequence, with tolerances scaled
by 1/sqrt(B) so that each endpoint still meets its own tolerance, and each
right-hand side evaluates fields and paths once for the whole batch.
Equivariant base maps with an algebra twist induce affine maps of the
coset space, and the reconstruction of a locally homogeneous atlas
composes developments with patch lifts and verifies the transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import dual
from .dual import value
from .algebra import (AlgebraError, AlgebraMap, LieAlgebra, MatrixRealization,
                      Subalgebra, exp_matrix, log_matrix, sqrtm)
from .algebroid import ActionAlgebroid, worst
from .cartan import TensorReport
from .geometry import Chart, as_point
from .ode import RTOL_FLOOR, integrate
from .transport import BasePath, line_path, segment_batch


# relative rank test of the anchor lift (see _lift_fibers)
_RANK_TOL = 1e-8
# sample points per patch and per overlap of an atlas reconstruction
_ATLAS_SAMPLES = 6


class DevelopmentError(RuntimeError):
    pass


@dataclass(frozen=True)
class HomogeneousModel:
    """Matrix model of the simply-connected group with a chosen subgroup.

    ``closure`` records what is asserted about the connected subgroup
    integrating ``h0``: "asserted-closed", "asserted-nonclosed" or
    "unknown".  The realization fixes the global topology used; that
    choice is the scenario author's responsibility and is echoed in
    reports.
    """

    algebra: LieAlgebra
    realization: MatrixRealization
    h0: Subalgebra
    closure: str = "unknown"

    def h0_matrix(self) -> np.ndarray:
        return self.h0.matrix()

    def h0_projector(self) -> np.ndarray:
        """Orthogonal projector onto the complement of span(h0) in
        coordinate space."""
        B = self.h0_matrix()
        n = self.algebra.dim
        if B.shape[1] == 0:
            return np.eye(n)
        q, _ = np.linalg.qr(B)
        return np.eye(n) - q @ q.T


@dataclass(frozen=True)
class Coset:
    g: np.ndarray
    model: HomogeneousModel

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if abs(np.linalg.det(g)) < 1e-12:
            raise DevelopmentError("coset representative must be invertible")
        object.__setattr__(self, "g", g)


def coset_residual(c1: Coset, c2: Coset) -> float:
    """Distance of g1^-1 g2 from H0: norm of the log component orthogonal
    to span(h0), plus any off-algebra part of the log."""
    H = c1.model
    z = np.linalg.solve(c1.g, c2.g)
    lr = log_matrix(H.realization, z)
    if not lr.in_region:
        return np.inf
    P = H.h0_projector()
    return float(np.linalg.norm(P @ lr.coords) + lr.off_span_residual)


@dataclass(frozen=True)
class EquivariantMap:
    """Base map together with its algebra twist."""

    base_map: Callable
    twist: AlgebraMap

    def compose(self, other: "EquivariantMap") -> "EquivariantMap":
        return EquivariantMap(
            base_map=lambda m: self.base_map(other.base_map(m)),
            twist=self.twist.compose(other.twist),
        )

    @staticmethod
    def identity(g0: LieAlgebra) -> "EquivariantMap":
        return EquivariantMap(lambda m: m, AlgebraMap(g0, g0, np.eye(g0.dim)))


def check_equivariant_twist(A: ActionAlgebroid, E: EquivariantMap,
                            samples=None) -> TensorReport:
    """Residual of the pushforward identity Dphi(m) xi'(m) = (mu xi)'(phi m),
    to tolerance 1e-8 (by default at 10 points drawn with seed 42)."""
    g0 = A.algebra
    if samples is None:
        samples = A.chart.base.sample_points(np.random.default_rng(42), 10)
    eye = np.eye(g0.dim)
    per = []
    for m in samples:
        m = as_point(m)
        pm = value(np.asarray(E.base_map(m), dtype=object))
        if not A.chart.base.contains(pm):
            raise DevelopmentError("equivariant map image escapes the chart")
        dphi = dual.jacobian(lambda p: np.asarray(E.base_map(as_point(p)), dtype=object), m)
        gaps = []
        for i in range(g0.dim):
            lhs = value(dphi @ np.asarray(A.action(eye[i], m), dtype=object))
            rhs = value(np.asarray(A.action(E.twist(eye[i]), as_point(pm)), dtype=object))
            gaps.append(np.max(np.abs(lhs - rhs)))
        per.append(worst(gaps))
    return TensorReport("check_equivariant_twist", worst(per), 1e-8, tuple(per))


# -- development --------------------------------------------------------------

def _chart_of(A):
    return A.chart if isinstance(A, ActionAlgebroid) else A


# keyed by id with a strong reference kept, so a collected chart's address
# can never alias a fresh one
_ORIENTATION_CACHE: dict[int, tuple[object, int]] = {}


def bracket_orientation(chart) -> int:
    """Resolved sign of #[X,Y] = sign [#X, #Y] for the chart, to tolerance
    1e-6 at three points.

    Charts built from coordinate vector-field brackets come out +1; action
    algebroids over matrix-commutator structure constants come out -1.
    The sign is detected, never assumed, and cached per chart object.
    """
    from .algebroid import check_anchor_homomorphism
    key = id(chart)
    if key not in _ORIENTATION_CACHE:
        pts = chart.base.halton_points(3, shrink=0.2)
        minus = check_anchor_homomorphism(chart, tol=1e-6, sign=-1, samples=pts)
        if minus.passed:
            _ORIENTATION_CACHE[key] = (chart, -1)
        else:
            plus = check_anchor_homomorphism(chart, tol=1e-6, sign=1, samples=pts)
            if not plus.passed:
                raise DevelopmentError(
                    "anchor homomorphism fails with either sign; not a Lie algebroid chart")
            _ORIENTATION_CACHE[key] = (chart, 1)
    return _ORIENTATION_CACHE[key][1]


def _lift_fibers(a, v):
    """Minimum-norm anchor lifts of a stack of tangent vectors; errors when
    v is not in an anchor's range (transitivity violated).

    A batch of square anchors whose determinants all exceed _RANK_TOL times
    the product of their row norms (Hadamard's bound, so the test ignores
    row scaling) is solved directly; any other batch is pseudo-inverted,
    since solving a rank-deficient anchor returns an arbitrary lift of a v
    in its range."""
    n = a.shape[-1]
    if a.shape[-2] != n:
        solvable = False
    elif n == 1:
        solvable = bool(np.all(np.abs(a) > 0))     # for 1x1 the test is a != 0
    else:
        det = np.linalg.det(a)
        rows = np.einsum("bij,bij->bi", a, a).prod(axis=1)
        solvable = bool(np.all(det * det > _RANK_TOL ** 2 * rows))
    try:
        if solvable:
            xi = np.linalg.solve(a, v[..., None])[..., 0]
        else:
            xi = np.einsum("bij,bj->bi", np.linalg.pinv(a), v)
    except np.linalg.LinAlgError:
        raise DevelopmentError("anchor not surjective along path (no lift)") from None
    gap = np.max(np.abs(np.einsum("bij,bj->bi", a, xi) - v), axis=1)
    bad = gap > _RANK_TOL * (1.0 + np.max(np.abs(v), axis=1))
    if np.any(bad):
        raise DevelopmentError(
            f"anchor not surjective along path (gap {np.max(gap[bad]):.3e})")
    return xi


def _develop_frames(A, H: HomogeneousModel, paths,
                    rtol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Group elements (B, d, d) and parallel frames (B, r, r) at the ends
    of a batch of paths; see ``develop_paths``.  Each right-hand side reads
    the B points and velocities from one ``segment_batch`` call and the
    anchors and gammas from one ``SmoothField.values`` call each."""
    chart = _chart_of(A)
    d = H.realization.matrix_dim
    r = chart.rank
    B = len(paths)
    if B == 0:
        return np.zeros((0, d, d)), np.zeros((0, r, r))
    limit = max(1, int((rtol / RTOL_FLOOR) ** 2 * (1 - 1e-9)))
    if B > limit:
        parts = [_develop_frames(A, H, paths[k:k + limit], rtol)
                 for k in range(0, B, limit)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    spans = [(s.t0, s.t1) for s in paths[0].segments]
    if any([(s.t0, s.t1) for s in p.segments] != spans for p in paths):
        raise DevelopmentError("paths in one batch must share their segment time spans")
    sign = -float(bracket_orientation(chart))
    gens = np.stack(H.realization.generators)
    state = np.tile(np.concatenate([np.eye(r).reshape(-1), np.eye(d).reshape(-1)]), B)
    for k, span in enumerate(spans):
        curve = segment_batch([p.segments[k] for p in paths])

        def rhs(t, y):
            y = y.reshape(B, -1)
            P = y[:, :r * r].reshape(B, r, r)
            G = y[:, r * r:].reshape(B, d, d)
            ms, v = curve(t)
            gv = np.einsum("biac,bi->bac", chart.gamma.values(ms), v)
            X = _lift_fibers(chart.anchor.values(ms), v)
            xi = sign * np.linalg.solve(P, X[..., None])[..., 0]
            Xi = np.einsum("bi,iac->bac", xi, gens)
            return np.concatenate([(-gv @ P).reshape(B, -1),
                                   (Xi @ G).reshape(B, -1)], axis=1).reshape(-1)

        out = integrate(rhs, span, state, rtol=rtol / np.sqrt(B), atol=1e-13 / np.sqrt(B))
        if out.status != "completed":
            raise DevelopmentError(f"development ODE failed: {out.status}")
        state = out.states[-1]
    state = state.reshape(B, -1)
    return state[:, r * r:].reshape(B, d, d), state[:, :r * r].reshape(B, r, r)


def develop_paths(A, H: HomogeneousModel, paths, rtol: float = 1e-12) -> list[Coset]:
    """Develop a batch of paths in one stacked solve.

    The paths must share their segment count and segment time spans.  All
    B states are integrated together by DOP853 with tolerances
    rtol/sqrt(B) and atol/sqrt(B), atol = 1e-13, so that the RMS of each
    of its two embedded error estimates over the whole state bounds that
    path's own RMS at rtol/atol.  (DOP853 accepts a step on a blend of the
    two, err5^2 / sqrt(err5^2 + 0.01 err3^2), for which the bound per path
    holds only approximately.)  Batches whose scaled rtol would fall below
    the driver's rtol floor (``ode.RTOL_FLOOR``, 100 eps) are split.

    Each right-hand side evaluates the path points and velocities, the
    anchor and gamma once for the whole batch: in closed form for line
    segments and for fields that have a batch form (constant fields,
    translation, linear and scaling action anchors), else point by point.

    The lift is re-expressed in the parallel frame transported from the
    path start (for an action algebroid the frame stays the identity), so
    the fiber coordinates match the algebra basis of the model.  Charts
    whose anchor is a plain bracket homomorphism (orientation +1) have
    their lifts negated: left-action generator fields anti-commute, and
    the left-coset formulas downstream assume that picture.
    """
    return [Coset(g, H) for g in _develop_frames(A, H, list(paths), rtol)[0]]


def develop_point(A, H: HomogeneousModel, path: BasePath,
                  rtol: float = 1e-12) -> Coset:
    """Integrate the anchor-lifted path in the model group."""
    return develop_paths(A, H, [path], rtol=rtol)[0]


def develop_to(A, H: HomogeneousModel, m0, m) -> Coset:
    """Development along the straight segment m0 -> m."""
    return develop_point(A, H, line_path(np.asarray(m0, float), np.asarray(m, float)))


def _develop_from(A, H: HomogeneousModel, m0, points) -> list[Coset]:
    """Developments along the straight segments m0 -> m, one batch for all m."""
    m0 = np.asarray(m0, float)
    return develop_paths(A, H, [line_path(m0, np.asarray(m, float)) for m in points])


def path_independence_check(A, H: HomogeneousModel,
                            path1: BasePath, path2: BasePath,
                            rtol: float = 1e-12) -> float:
    """Coset residual between developments of two homotopic paths with
    equal endpoints."""
    c1, m1 = path1.end
    c2, m2 = path2.end
    if np.max(np.abs(np.asarray(m1) - np.asarray(m2))) > 1e-9:
        raise DevelopmentError("paths must share endpoints")
    g1 = develop_point(A, H, path1, rtol=rtol)
    g2 = develop_point(A, H, path2, rtol=rtol)
    return coset_residual(g1, g2)


def development_jacobian(A, H: HomogeneousModel, m0, m,
                         rtol: float = 1e-10) -> np.ndarray:
    """Jacobian at m of the developed coset coordinates.

    Local coordinates around D(m): h0-orthogonal log components of
    D(m)^-1 D(m + dx).  Extending the path by dx multiplies D(m) on the
    left by I + Xi(dx), with Xi(dx) = sign sum_i (P(m)^-1 lift_m(dx))_i G_i
    (P the parallel frame at the path end, G_i the generators), so column
    k is the h0-complement coordinates of Ad(D(m)^-1) Xi(e_k).  This is
    exact when development is path-independent modulo H0 (flat), which
    the action-algebroid covers of ``reconstruct_atlas`` satisfy.
    """
    m = np.asarray(m, dtype=float)
    g, frame = _develop_frames(A, H, [line_path(m0, m)], rtol=rtol)
    return _frame_jacobian(A, H, m, g[0], frame[0])


def _frame_jacobian(A, H: HomogeneousModel, m, g: np.ndarray,
                    frame: np.ndarray) -> np.ndarray:
    """``development_jacobian`` at m from the developed element g and the
    parallel frame there."""
    chart = _chart_of(A)
    n = len(m)
    a = chart.anchor.values([m])[0]
    lifts = _lift_fibers(np.broadcast_to(a, (n, *a.shape)), np.eye(n))
    xi = -bracket_orientation(chart) * np.linalg.solve(frame, lifts.T)
    gens = np.stack(H.realization.generators)
    ad = np.linalg.solve(g, np.einsum("ik,iac->kac", xi, gens) @ g)
    coords, *_ = np.linalg.lstsq(gens.reshape(len(gens), -1).T,
                                 ad.reshape(n, -1).T, rcond=None)
    J = _complement_coords(H, coords)
    if J.shape[0] != n:
        # transitive case: coset dimension equals base dimension
        raise DevelopmentError("coset coordinate count does not match base dimension")
    return J


# -- induced affine maps ------------------------------------------------------

def integrated_twist(H: HomogeneousModel, mu: AlgebraMap, g: np.ndarray,
                     depth: int = 0, span_tol: float = 1e-7) -> np.ndarray:
    """Group automorphism integrating the algebra twist, evaluated at g.

    Defined through exp and log; elements outside the log region are
    split by principal square roots.
    """
    lr = log_matrix(H.realization, g)
    if lr.in_region and lr.off_span_residual <= span_tol * (1 + np.linalg.norm(g)):
        return exp_matrix(H.realization, mu(lr.coords))
    if depth >= 12:
        raise DevelopmentError("could not split group element into log range")
    try:
        root = sqrtm(g)
    except AlgebraError as e:
        raise DevelopmentError(f"could not split group element into log range: {e}") from None
    half = integrated_twist(H, mu, root, depth + 1, span_tol)
    return half @ half


@dataclass(frozen=True)
class AffineCosetMap:
    """Coset map g H0 -> mu_hat(g) q H0 induced by an equivariant map."""

    model: HomogeneousModel
    twist: AlgebraMap
    q: np.ndarray
    consistency_residual: float = 0.0

    def __call__(self, c: Coset) -> Coset:
        return Coset(integrated_twist(self.model, self.twist, c.g) @ self.q, self.model)

    def compose(self, other: "AffineCosetMap") -> "AffineCosetMap":
        # self after other: mu (mu'(g) q') q = (mu mu')(g) mu(q') q
        q = integrated_twist(self.model, self.twist, other.q) @ self.q
        return AffineCosetMap(self.model, self.twist.compose(other.twist), q,
                              worst([self.consistency_residual, other.consistency_residual]))


def induced_affine_map(E: EquivariantMap, H: HomogeneousModel,
                       q_coset: Coset) -> AffineCosetMap:
    """Build the induced coset map and verify its subgroup consistency:
    the twist must carry H0 onto q H0 q^-1 (checked on h0 generators, to
    tolerance 1e-6)."""
    per = []
    for b in H.h0.basis_vectors:
        for t in (0.05, -0.08):
            elt = exp_matrix(H.realization, t * b)
            im = integrated_twist(H, E.twist, elt)
            back = np.linalg.solve(q_coset.g, im @ q_coset.g)
            lr = log_matrix(H.realization, back)
            if not lr.in_region:
                per.append(np.inf)
                continue
            P = H.h0_projector()
            per.append(np.linalg.norm(P @ lr.coords) + lr.off_span_residual)
    res = worst(per)
    if not res <= 1e-6:
        raise DevelopmentError(
            f"twist does not normalize the subgroup through q (residual {res:.3e})")
    return AffineCosetMap(H, E.twist, q_coset.g, res)


def check_lemma_diagram(A: ActionAlgebroid, H: HomogeneousModel, E: EquivariantMap,
                        path: BasePath) -> float:
    """Matrix residual of: develop the phi-image path = apply the
    integrated twist to the developed path."""
    segs = []
    for s in path.segments:
        segs.append(type(s)(s.chart, lambda t, _s=s: E.base_map(_s.curve(t)), s.t0, s.t1))
    g, g_img = develop_paths(A, H, [path, BasePath(tuple(segs))])
    lhs = g_img.g
    rhs = integrated_twist(H, E.twist, g.g)
    return float(np.max(np.abs(lhs - rhs)))


def _image(E: EquivariantMap, m) -> np.ndarray:
    return value(np.asarray(E.base_map(as_point(np.asarray(m, dtype=float))), dtype=object))


def equivariance_diagram_check(A: ActionAlgebroid, H: HomogeneousModel,
                               E: EquivariantMap, m0, sample_points,
                               tol: float = 1e-5) -> TensorReport:
    """Coset residual of D(phi(m)) against the induced map of D(m)."""
    ms = [np.asarray(m, dtype=float) for m in sample_points]
    ends = [_image(E, m0)] + [_image(E, m) for m in ms] + ms
    q, *devs = _develop_from(A, H, m0, ends)
    aff = induced_affine_map(E, H, q)
    per = [coset_residual(lhs, aff(c)) for lhs, c in zip(devs[:len(ms)], devs[len(ms):])]
    return TensorReport("equivariance_diagram", worst(per), tol, tuple(per))


def fit_twist(chart, base_map: Callable, m0, samples) -> AlgebraMap:
    """Least-squares twist of a base map on the parallel-section fields.

    Solves Dphi(m) a(m) P(m) = a(phi m) P(phi m) mu over the samples,
    where P is the parallel frame from m0 (64 RK4 steps), then verifies
    the fit to 1e-6.
    """
    from .cartan import fiber_bracket_at
    from .transport import _transport_line_dual
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


# -- geometric closure --------------------------------------------------------

@dataclass(frozen=True)
class ClosureReport:
    verdict: str          # "closed" | "nonclosed-witness" | "undecided"
    reason: str
    witness: tuple | None = None


def geometric_closure_probe(H: HomogeneousModel) -> ClosureReport:
    """Decide closure of the connected subgroup integrating h0.

    Order of attack: honor an explicit assertion; the trivial subalgebra
    is closed; a single generator with an antisymmetric realization spans
    a torus one-parameter subgroup, where rationally dependent rotation
    frequencies give a circle (closed) and an irrational frequency ratio
    (no fraction with denominator up to 10^6 within 1e-10) is a
    dense-winding witness.  Everything else is honestly undecided.
    """
    if H.closure == "asserted-closed":
        return ClosureReport("closed", "asserted by the model")
    if H.closure == "asserted-nonclosed":
        return ClosureReport("nonclosed-witness", "asserted by the model")
    if H.h0.dim == 0:
        return ClosureReport("closed", "trivial subalgebra")
    if H.h0.dim == 1:
        gen = H.realization.element(H.h0.basis_vectors[0])
        if np.max(np.abs(gen + gen.T)) < 1e-12:
            freqs = np.abs(np.imag(np.linalg.eigvals(gen)))
            freqs = np.unique(np.round(freqs[freqs > 1e-12], 12))
            if len(freqs) <= 1:
                return ClosureReport("closed", "single rotation frequency")
            base = freqs[0]
            for w in freqs[1:]:
                ratio = w / base
                frac = Fraction(ratio).limit_denominator(10 ** 6)
                err = abs(ratio - float(frac))
                # every real admits approximations with err ~ 1/q^2, so a
                # genuine rational must beat that scale decisively
                if err > 1e-10 or err * frac.denominator ** 2 > 1e-2:
                    return ClosureReport(
                        "nonclosed-witness",
                        "irrational frequency ratio winds densely in a torus",
                        witness=(float(base), float(w)))
            return ClosureReport("closed", "rationally dependent rotation frequencies")
    return ClosureReport("undecided", "no decision procedure applies to this subalgebra")


# -- atlas reconstruction -----------------------------------------------------

@dataclass(frozen=True)
class OverlapSpec:
    """One overlap component between patches i and j, described in the
    cover coordinates of patch i's lift, with the deck map relating the
    two lifts there."""

    i: int
    j: int
    region: Chart
    deck: EquivariantMap


@dataclass(frozen=True)
class CoverSpec:
    cover: ActionAlgebroid
    m0: np.ndarray
    patches: tuple[Chart, ...]
    overlaps: tuple[OverlapSpec, ...]


@dataclass
class TransitionRecord:
    i: int
    j: int
    residual: float
    twist_matrix: np.ndarray
    affine_matrix: np.ndarray | None
    affine_offset: np.ndarray | None
    fit_residual: float | None


@dataclass
class AtlasReport:
    chart_samples: list[np.ndarray]       # developed coordinates per patch
    jacobian_min_abs_det: float
    transitions: list[TransitionRecord]
    notes: str = ""

    @property
    def passed(self) -> bool:
        ok = self.jacobian_min_abs_det >= 1e-6
        ok = ok and all(t.residual <= 1e-5 for t in self.transitions)
        return ok


def _complement_coords(H: HomogeneousModel, coords: np.ndarray) -> np.ndarray:
    """Algebra coordinates projected off span(h0), one row per kept axis."""
    P = H.h0_projector()
    keep = np.nonzero(np.linalg.norm(P, axis=1) > 1e-12)[0]
    return (P @ coords)[keep]


def _coset_coords(H: HomogeneousModel, c: Coset) -> np.ndarray:
    lr = log_matrix(H.realization, c.g)
    if not lr.in_region:
        raise DevelopmentError("coset representative outside log region")
    return _complement_coords(H, lr.coords)


def reconstruct_atlas(glued, H: HomogeneousModel, spec: CoverSpec) -> AtlasReport:
    """Build numeric charts by developing patch lifts and verify that the
    overlap transitions are the induced affine maps of their deck data.

    ``glued`` is the algebroid being reconstructed; its rank must match
    the model algebra and every deck twist must be an automorphism of the
    fiber bracket read off its charts.
    """
    from .cartan import fiber_bracket_at
    closure = geometric_closure_probe(H)
    if closure.verdict == "nonclosed-witness":
        raise DevelopmentError("reconstruction requires geometric closure")
    charts = getattr(glued, "charts", (glued,))
    if charts[0].rank != H.algebra.dim:
        raise DevelopmentError(
            f"algebroid rank {charts[0].rank} does not match the model "
            f"algebra dimension {H.algebra.dim}")
    probe_chart = charts[0]
    probe_pt = probe_chart.base.halton_points(1, shrink=0.3)[0]
    fb = fiber_bracket_at(probe_chart, probe_pt)
    from .algebra import is_automorphism
    for ov in spec.overlaps:
        rep = is_automorphism(fb, AlgebraMap(fb, fb, ov.deck.twist.matrix), tol=1e-6)
        if not rep.passed:
            raise DevelopmentError(
                f"deck twist for patches {ov.i}/{ov.j} is not an automorphism "
                f"of the fiber bracket (residual {rep.residual:.3e})")
    A = spec.cover
    m0 = np.asarray(spec.m0, dtype=float)
    chart_samples = []
    dets = []
    patch_pts = [patch.halton_points(_ATLAS_SAMPLES, shrink=0.1) for patch in spec.patches]
    gs, frames = _develop_frames(A, H, [line_path(m0, p) for pts in patch_pts for p in pts])
    start = 0
    for pts in patch_pts:
        chart_samples.append(np.stack([_coset_coords(H, Coset(g, H))
                                       for g in gs[start:start + len(pts)]]))
        # the Jacobian at each patch's first sample, read off its development
        J = _frame_jacobian(A, H, pts[0], gs[start], frames[start])
        dets.append(abs(np.linalg.det(J)))
        start += len(pts)
    # each overlap develops its q = D(deck(m0)), its samples p and their images
    region_pts = [ov.region.halton_points(_ATLAS_SAMPLES, shrink=0.1)
                  for ov in spec.overlaps]
    devs = iter(_develop_from(A, H, m0, [
        e for ov, pts in zip(spec.overlaps, region_pts)
        for e in [_image(ov.deck, m0), *pts, *(_image(ov.deck, p) for p in pts)]]))
    transitions = []
    for ov, pts in zip(spec.overlaps, region_pts):
        aff = induced_affine_map(ov.deck, H, next(devs))
        psi_i = [next(devs) for _ in pts]
        psi_j = [next(devs) for _ in pts]
        res = worst([coset_residual(pj, aff(pi)) for pi, pj in zip(psi_i, psi_j)])
        X = np.stack([_coset_coords(H, c) for c in psi_i])
        Y = np.stack([_coset_coords(H, c) for c in psi_j])
        Amat, b, fit = _fit_affine(X, Y)
        transitions.append(TransitionRecord(ov.i, ov.j, res, ov.deck.twist.matrix,
                                            Amat, b, fit))
    note = f"closure probe: {closure.verdict} ({closure.reason})"
    # numpy's min keeps a NaN, so a NaN determinant fails ``passed``
    return AtlasReport(chart_samples, float(np.min(dets, initial=np.inf)), transitions, note)


def _fit_affine(X: np.ndarray, Y: np.ndarray):
    """Least-squares affine fit Y = A X + b."""
    npts, n = X.shape
    M = np.hstack([X, np.ones((npts, 1))])
    sol, *_ = np.linalg.lstsq(M, Y, rcond=None)
    A = sol[:n].T
    b = sol[n]
    fit = float(np.max(np.abs(M @ sol - Y))) if npts > n else None
    return A, b, fit
