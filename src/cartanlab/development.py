"""Development of transitive algebra actions into a homogeneous model.

Given a transitive action on a simply-connected chart and a matrix model
of the simply-connected group integrating the algebra, a base path from
the anchor point is lifted through the anchor's minimum-norm right
inverse and integrated as a right-logarithmic matrix ODE

    dg/dt = (sum_i xi_i(t) G_i) g,    g(0) = I.

The endpoint coset g(1) H0 is the developed image of the path's end.
The lift is read in the frame parallel along the path; the development
carries that frame's inverse Q, dQ/dt = Q Gamma(dm/dt), so that the lift
is re-expressed with a product instead of a linear solve.  Along a
straight segment both equations are linear with known coefficients, so
they are stepped on the group (Iserles, Munthe-Kaas, Norsett and Zanna,
"Lie-group methods", Acta Numerica 9, 2000): a lane whose Gamma(v)
vanishes and whose algebra elements commute at its Gauss-Legendre nodes
takes one step, g(1) = exp(sum_k w_k Xi_k) g(0), with as many nodes as
two node counts need to agree at its tolerances; any other lane takes
fourth-order Magnus steps of the pair under its own step control.  A
check's developments are the lanes of one such pass, each bit for bit
its development alone, and each node set reads fields and paths once for
the lanes it holds.  The equivariance diagram and the atlas
reconstruction name their ends (``equivariance_ends``,
``reconstruct_ends``) apart from the residuals they read off the
developed lanes, so a scenario develops the ends of both as the lanes of
one ``develop_ends`` call.
A deck transformation is an affine cocycle entry x -> A x + b with the
constant algebra twist M (``algebroid.AffineCocycleEntry``), so its
images come from one stacked product and its derivative is A.  It
induces an affine map of the coset space, and the reconstruction of a
locally homogeneous atlas composes developments with patch lifts and
verifies the transitions, each overlap of its cover spec an
``algebroid.Overlap``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction

import numpy as np

from .algebra import (AlgebraMap, LieAlgebra, MatrixRealization,
                      Subalgebra, TensorReport, exp_matrix, expm, log_matrix,
                      vector_norms, worst)
from .algebroid import ActionAlgebroid, AffineCocycleEntry, Overlap
from .geometry import Chart, sample_stack
from .ode import _commutators, _nan_guarded, lie_solve, magnus
from .transport import CONTINUITY_TOL, BasePath, line_path, segment_batch


# relative rank test of the anchor lift (see _lift_fibers)
_RANK_TOL = 1e-8
# sample points per patch and per overlap of an atlas reconstruction
_ATLAS_SAMPLES = 6
# largest off-span residual of a log that integrated_twist accepts, per 1 + |g|
_SPAN_TOL = 1e-7


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

    @cached_property
    def h0_projector(self) -> np.ndarray:
        """Orthogonal projector onto the complement of span(h0) in
        coordinate space, computed once per model."""
        B = self.h0.matrix()
        n = self.algebra.dim
        if B.shape[1] == 0:
            return np.eye(n)
        q, _ = np.linalg.qr(B)
        return np.eye(n) - q @ q.T


@dataclass(frozen=True)
class Coset:
    """The coset g H0, or a stack of cosets: g is one representative
    (d, d) or a stack of them (B, d, d), each of which must be
    invertible."""

    g: np.ndarray
    model: HomogeneousModel

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if np.any(np.abs(np.linalg.det(g)) < 1e-12):
            raise DevelopmentError("coset representative must be invertible")
        object.__setattr__(self, "g", g)


def coset_residual(c1: Coset, c2: Coset):
    """Residual of g1^-1 g2 against H0: the norm of the component of its
    principal log orthogonal to span(h0), plus any off-algebra part of
    that log; inf where g1^-1 g2 has no principal log.  It vanishes where
    the log lies in h0 and equals the distance along a transvection p, but
    it is a residual, not a distance: the log of exp(p) h, h in H0, is not
    p + log h.  Either coset may be a stack; the residuals then come as
    one array, from one log of the stacked g1^-1 g2."""
    H = c1.model
    lr = log_matrix(H.realization, np.linalg.solve(c1.g, c2.g))
    off = lr.off_span_residual
    norm = vector_norms((H.h0_projector @ lr.coords[..., None])[..., 0])
    return np.where(off == np.inf, np.inf, norm + off)[()]


def check_equivariant_twist(A: ActionAlgebroid, E: AffineCocycleEntry,
                            samples=None) -> TensorReport:
    """Residual of the pushforward identity Dphi(m) xi'(m) = (mu xi)'(phi m)
    of the deck phi = E, m -> A m + b with twist mu = M, read on the basis
    fields as A a(m) = a(phi m) M, to tolerance 1e-8 (by default at 10
    points drawn with seed 42).  The images come from one stacked product
    and the anchors from ``values``; an image outside the chart is
    refused."""
    if samples is None:
        samples = A.chart.base.sample_points(np.random.default_rng(42), 10)
    ms = sample_stack(samples)
    phi = E(ms)
    if not A.chart.base.contains(phi).all():
        raise DevelopmentError("equivariant map image escapes the chart")
    lhs = E.A @ A.chart.anchor.values(ms)
    rhs = A.chart.anchor.values(phi) @ E.M
    per = np.max(np.abs(lhs - rhs), axis=(1, 2))
    return TensorReport("check_equivariant_twist", worst(per), 1e-8, tuple(per.tolist()))


# -- development --------------------------------------------------------------

def _chart_of(A):
    return A.chart if isinstance(A, ActionAlgebroid) else A


# keyed by id; an entry goes when its chart is collected, before its
# address can be reused, so the cache keeps no chart alive
_ORIENTATION_CACHE: dict[int, int] = {}


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
        sign = -1
        if not check_anchor_homomorphism(chart, tol=1e-6, sign=-1, samples=pts).passed:
            if not check_anchor_homomorphism(chart, tol=1e-6, sign=1, samples=pts).passed:
                raise DevelopmentError(
                    "anchor homomorphism fails with either sign; not a Lie algebroid chart")
            sign = 1
        _ORIENTATION_CACHE[key] = sign
        weakref.finalize(chart, _ORIENTATION_CACHE.pop, key, None)
    return _ORIENTATION_CACHE[key]


def _lift_fibers(a, v):
    """Minimum-norm anchor lifts of a stack of tangent vectors; errors when
    v is not in an anchor's range (transitivity violated).

    A square anchor whose determinant exceeds _RANK_TOL times the product
    of its row norms (Hadamard's bound, so the test ignores row scaling) is
    solved directly; any other anchor is pseudo-inverted, since solving a
    rank-deficient anchor returns an arbitrary lift of a v in its range.
    The test is made anchor by anchor, so no lift depends on its stack."""
    n = a.shape[-1]
    if a.shape[-2] != n:
        solvable = np.zeros(len(a), dtype=bool)
    elif n == 1:
        solvable = np.abs(a[:, 0, 0]) > 0     # for 1x1 the test is a != 0
    else:
        det = np.linalg.det(a)
        rows = np.einsum("bij,bij->bi", a, a).prod(axis=1)
        solvable = det * det > _RANK_TOL ** 2 * rows
    try:
        if solvable.all():
            xi = np.linalg.solve(a, v[..., None])[..., 0]
        else:
            xi = np.einsum("bij,bj->bi", np.linalg.pinv(a), v)
            if solvable.any():
                xi[solvable] = np.linalg.solve(a[solvable], v[solvable][..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise DevelopmentError("anchor not surjective along path (no lift)") from None
    gap = np.max(np.abs(np.einsum("bij,bj->bi", a, xi) - v), axis=1)
    bad = gap > _RANK_TOL * (1.0 + np.max(np.abs(v), axis=1))
    if np.any(bad):
        raise DevelopmentError(
            f"anchor not surjective along path (gap {np.max(gap[bad]):.3e})")
    return xi


def _node_fields(chart, read, lanes: np.ndarray, tau: np.ndarray):
    """Gamma(v) (k, s, r, r) and anchor lifts of v (k, s, r) at the times
    tau (k, s) of the segments ``lanes`` of ``read``: one stacked read of
    the points and one call each of gamma, anchor and ``_lift_fibers``.
    A path that does not lift raises ``DevelopmentError``."""
    (k, s), r = tau.shape, chart.rank
    ms, v = read(tau.reshape(-1), np.repeat(lanes, s))
    gv = np.einsum("biac,bi->bac", chart.gamma.values(ms), v)
    X = _lift_fibers(chart.anchor.values(ms), v)
    return gv.reshape(k, s, r, r), X.reshape(k, s, r)


def _one_step(Q, G, sign, gens, lanes, F, w):
    """Which of ``lanes`` develop in one step over the segment, from their
    fields F = (Gamma(v), lifts) at s Gauss-Legendre nodes of weights w,
    and their (Q, G) after it: the lanes whose Gamma(v) vanishes and whose
    elements Xi_k = sum_i xi_ki G_i commute at the nodes.  They commute
    where xi_k ^ xi_l vanishes on every generator pair (i, j) with
    [G_i, G_j] != 0, as [Xi_k, Xi_l] = sum_(i<j) (xi_ki xi_lj - xi_kj
    xi_li) [G_i, G_j].  Such a lane keeps Q, and its Magnus series is its
    first term: G(1) = exp(sum_k w_k Xi_k) G(0)."""
    gv, X = F
    i, j = np.nonzero(np.triu(_commutators(gens[None])[0].any(axis=(2, 3)), 1))
    xi = sign * (Q[lanes, None] @ X[..., None])[..., 0]
    wedge = xi[:, :, None, i] * xi[:, None, :, j] - xi[:, :, None, j] * xi[:, None, :, i]
    one = (~gv.any(axis=(1, 2, 3)) & ~wedge.any(axis=(1, 2, 3))
           & np.isfinite(xi).all(axis=(1, 2)))
    Om = np.einsum("bi,iac->bac", np.einsum("k,bki->bi", w, xi[one]), gens)
    return one, (Q[lanes[one]], expm(Om) @ G[lanes[one]])


def _magnus_step(sign, gens, Y, F, h):
    """One fourth-order Magnus step over h (k,) of the pair
    dQ/dt = Q Gamma(v), dG/dt = Xi G, Y = (Q, G), from the fields
    F = (Gamma(v) (k, s, r, r), lifts (k, s, r)) at the _STEP_NODES nodes
    of each lane's step (``ode.magnus``).  Q at the nodes is a right
    product, Q exp(-Omega) with Omega the series of -Gamma(v) to each
    node, so its commutator term changes sign."""
    (Q, G), (gv, X) = Y, F
    Qc = Q[:, None] @ expm(-magnus(-gv, h))
    Xi = np.einsum("bki,iac->bkac", sign * (Qc[:, :-1] @ X[..., None])[..., 0], gens)
    return Qc[:, -1], expm(magnus(Xi, h)[:, -1]) @ G


def _develop_frames(A, H: HomogeneousModel, paths,
                    rtol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Group elements (B, d, d) and inverse parallel frames (B, r, r) at
    the ends of a batch of paths; see ``develop_paths``.  Every segment
    must lie in chart 0, the action's one chart: it does when both its
    ends do, as it is straight.  Each segment must start where the one
    before it ends, as in transport.  Segment by segment, every lane first
    tries one step over the segment (``_one_step``), and the lanes that
    cannot take one take Magnus steps (``_magnus_step``), in one
    ``ode.lie_solve``; each node set of either reads the points off one
    ``segment_batch`` and gamma, the anchor and the lifts in one call
    each."""
    chart = _chart_of(A)
    d = H.realization.matrix_dim
    r = chart.rank
    B = len(paths)
    if B == 0:
        return np.zeros((0, d, d)), np.zeros((0, r, r))
    count = len(paths[0].segments)
    if any(len(p.segments) != count for p in paths):
        raise DevelopmentError("paths in one batch must have the same number of segments")
    segs = [s for p in paths for s in p.segments]
    if any(s.chart != 0 for s in segs):
        raise DevelopmentError("a development runs in chart 0; a segment names another chart")
    ends = np.array([e for s in segs for e in (s.a, s.b)]).reshape(-1, chart.base.dim)
    if not chart.base.contains(ends).all():
        raise DevelopmentError("path leaves its chart")
    seams = ends.reshape(B, count, 2, chart.base.dim)
    if np.max(np.abs(seams[:, 1:, 0] - seams[:, :-1, 1]), initial=0.0) > CONTINUITY_TOL:
        raise DevelopmentError("path segments are discontinuous")
    sign = -float(bracket_orientation(chart))
    gens = np.stack(H.realization.generators)
    Q, G = np.tile(np.eye(r), (B, 1, 1)), np.tile(np.eye(d), (B, 1, 1))
    one = partial(_one_step, Q, G, sign, gens)
    step = partial(_magnus_step, sign, gens)
    for k in range(count):
        read = segment_batch([p.segments[k] for p in paths])
        fields = _nan_guarded(partial(_node_fields, chart, read), [(r, r), (r,)])
        if lie_solve(fields, one, step, (Q, G), rtol, 1e-13) != "completed":
            raise DevelopmentError("development ODE failed: step_collapse")
    return G, Q


def develop_paths(A, H: HomogeneousModel, paths, rtol: float = 1e-12) -> list[Coset]:
    """Develop a batch of paths as the lanes of one pass.

    The paths must have the same number of segments, and every segment
    must lie in the chart of A, named chart 0; a path that leaves it, or
    whose segments do not join, is refused, as ``transport_matrices``
    refuses one.  Each path is a lane
    that meets rtol and atol = 1e-13 on its own, segment by segment: in
    one step over the segment where its Gamma(v) vanishes and its algebra
    elements commute at the nodes, as on every action algebroid with an
    abelian model, else in Magnus steps under its own step control (see
    ``_develop_frames``).  Its coset is bit for bit the one it develops
    alone.

    Each node set evaluates the path points and velocities, the anchor
    and gamma once for its lanes: the points off the stacked segment ends,
    the fields in closed form where they have a batch form (constant
    fields, translation, linear and scaling action anchors), else point
    by point.

    The lift is re-expressed in the parallel frame P transported from the
    path start, so the fiber coordinates match the algebra basis of the
    model.  The development carries the inverse frame Q = P^-1, which
    obeys dQ/dt = Q Gamma(v) (v the path velocity) when dP/dt = -Gamma(v)
    P, so each node re-expresses its lift with one product Q lift instead
    of a linear solve.  For an action algebroid Gamma = 0 and Q stays the
    identity exactly.  Charts whose anchor is a plain bracket homomorphism
    (orientation +1) have their lifts negated: left-action generator
    fields anti-commute, and the left-coset formulas downstream assume
    that picture.
    """
    return [Coset(g, H) for g in _develop_frames(A, H, list(paths), rtol)[0]]


def develop_point(A, H: HomogeneousModel, path: BasePath,
                  rtol: float = 1e-12) -> Coset:
    """Integrate the anchor-lifted path in the model group."""
    return develop_paths(A, H, [path], rtol=rtol)[0]


@dataclass(frozen=True)
class Frames:
    """The group elements g (B, d, d) and inverse parallel frames Q
    (B, r, r) at the ends of B developed lanes; ``frames[i:j]`` holds
    lanes i to j."""

    g: np.ndarray
    Q: np.ndarray

    def __len__(self) -> int:
        return len(self.g)

    def __getitem__(self, lanes: slice) -> "Frames":
        return Frames(self.g[lanes], self.Q[lanes])


def develop_ends(A, H: HomogeneousModel, m0, ends) -> Frames:
    """The frames at the end of each straight segment m0 -> e, each a lane
    of one pass (``_develop_frames``), so each is bit for bit its
    development alone."""
    m0 = np.asarray(m0, float)
    return Frames(*_develop_frames(A, H, [line_path(m0, np.asarray(e, float)) for e in ends]))


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
    left by I + Xi(dx), with Xi(dx) = sign sum_i (Q(m) lift_m(dx))_i G_i
    (Q the inverse parallel frame at the path end, G_i the generators), so
    column k is the h0-complement coordinates of Ad(D(m)^-1) Xi(e_k).  This is
    exact when development is path-independent modulo H0 (flat), which
    the action-algebroid covers of ``reconstruct_atlas`` satisfy.
    """
    m = np.asarray(m, dtype=float)
    g, Q = _develop_frames(A, H, [line_path(m0, m)], rtol=rtol)
    return _frame_jacobian(A, H, m[None], g, Q)[0]


def _frame_jacobian(A, H: HomogeneousModel, ms: np.ndarray, g: np.ndarray,
                    Q: np.ndarray) -> np.ndarray:
    """``development_jacobian`` (B, n, n) at each of the points ms (B, n)
    from the developed elements g (B, d, d) and the inverse parallel
    frames Q (B, r, r) there: one anchor read, one lift of every axis at
    every point, one solve and one least-squares fit for the stack."""
    chart = _chart_of(A)
    B, n = ms.shape
    a = chart.anchor.values(ms)
    lifts = _lift_fibers(np.repeat(a, n, axis=0), np.tile(np.eye(n), (B, 1)))
    xi = -bracket_orientation(chart) * (Q @ np.swapaxes(lifts.reshape(B, n, -1), 1, 2))
    gens = np.stack(H.realization.generators)
    ad = np.linalg.solve(g[:, None], np.einsum("bik,iac->bkac", xi, gens) @ g[:, None])
    coords, *_ = np.linalg.lstsq(gens.reshape(len(gens), -1).T,
                                 ad.reshape(B * n, -1).T, rcond=None)
    J = np.swapaxes(_complement_coords(H, coords.T).reshape(B, n, -1), 1, 2)
    if J.shape[1] != n:
        # transitive case: coset dimension equals base dimension
        raise DevelopmentError("coset coordinate count does not match base dimension")
    return J


# -- induced affine maps ------------------------------------------------------

def integrated_twist(H: HomogeneousModel, mu: AlgebraMap | list[AlgebraMap],
                     g: np.ndarray) -> np.ndarray:
    """Group automorphism integrating the algebra twist, evaluated at g
    (d, d) or at each element of a stack (B, ..., d, d): exp(mu(log g))
    with the principal log, one log and one exponential for the stack.
    ``mu`` is one ``AlgebraMap`` for every element, or a sequence of them,
    the k-th twisting the elements g[k].  Refused where an element has no
    principal log or its log leaves the algebra (off-span residual above
    1e-7 (1 + |g|))."""
    g = np.asarray(g, dtype=float)
    lr = log_matrix(H.realization, g)
    off = lr.off_span_residual
    size = vector_norms(g.reshape(*g.shape[:-2], g.shape[-2] * g.shape[-1]))
    bad = ~(off <= _SPAN_TOL * (1 + size))
    if np.any(bad):
        raise DevelopmentError(f"group element has no principal log in the algebra "
                               f"(off-span residual {worst(off[bad]):.3e})")
    if isinstance(mu, AlgebraMap):
        return exp_matrix(H.realization, mu(lr.coords))
    return exp_matrix(H.realization, np.stack([m(c) for m, c in zip(mu, lr.coords)]))


@dataclass(frozen=True)
class AffineCosetMap:
    """Coset map g H0 -> mu_hat(g) q H0 induced by a deck transformation."""

    model: HomogeneousModel
    twist: AlgebraMap
    q: np.ndarray
    consistency_residual: float = 0.0

    def __call__(self, c: Coset) -> Coset:
        """The image of a coset, or of each of a stack."""
        return Coset(integrated_twist(self.model, self.twist, c.g) @ self.q, self.model)

    def compose(self, other: "AffineCosetMap") -> "AffineCosetMap":
        # self after other: mu (mu'(g) q') q = (mu mu')(g) mu(q') q
        q = integrated_twist(self.model, self.twist, other.q) @ self.q
        return AffineCosetMap(self.model, self.twist.compose(other.twist), q,
                              worst([self.consistency_residual, other.consistency_residual]))


def induced_affine_map(E: AffineCocycleEntry, H: HomogeneousModel,
                       q_coset: Coset) -> AffineCosetMap:
    """Build the coset map induced by the deck E, its twist M read as an
    automorphism of H's algebra, and verify its subgroup consistency:
    the twist must carry H0 onto q H0 q^-1 (checked on h0 generators at
    two steps each, all in one stack, to tolerance 1e-6).  A trivial H0
    has nothing to check."""
    twist = AlgebraMap(H.algebra, H.algebra, E.M)
    if not H.h0.basis_vectors:
        return AffineCosetMap(H, twist, q_coset.g, 0.0)
    steps = np.array([t * b for b in H.h0.basis_vectors for t in (0.05, -0.08)])
    im = integrated_twist(H, twist, exp_matrix(H.realization, steps))
    res = worst(coset_residual(q_coset, Coset(im @ q_coset.g, H)))
    if not res <= 1e-6:
        raise DevelopmentError(
            f"twist does not normalize the subgroup through q (residual {res:.3e})")
    return AffineCosetMap(H, twist, q_coset.g, res)


def equivariance_ends(E: AffineCocycleEntry, m0, sample_points) -> list[np.ndarray]:
    """The ends that ``equivariance_diagram_check`` develops from m0, in
    lane order: phi(m0), then phi(m) for each sample m, then the samples;
    the images of the deck phi = E are one stacked product.  An empty
    sample set is refused (``sample_stack``)."""
    ms = sample_stack(sample_points)
    return [*E(np.vstack([np.asarray(m0, dtype=float), ms])), *ms]


def equivariance_diagram_check(A: ActionAlgebroid, H: HomogeneousModel,
                               E: AffineCocycleEntry, m0, sample_points,
                               tol: float = 1e-5, lanes=None) -> TensorReport:
    """Coset residual of D(phi(m)) against the induced map of D(m), over a
    nonempty set of samples m.  ``lanes()`` is the ``Frames`` of the ends
    of ``equivariance_ends``, in order (``develop_ends``); by default the
    ends are developed here."""
    if lanes is None:
        lanes = partial(develop_ends, A, H, m0, equivariance_ends(E, m0, sample_points))
    gs = lanes().g
    k = len(gs) // 2            # phi(m0), then k images and k samples
    aff = induced_affine_map(E, H, Coset(gs[0], H))
    per = coset_residual(Coset(gs[1:k + 1], H), aff(Coset(gs[k + 1:], H)))
    return TensorReport("equivariance_diagram", worst(per), tol, tuple(per.tolist()))


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
class CoverSpec:
    """Patches of the cover and the overlaps between them.  Each overlap is
    an ``Overlap(i, j, deck, region)``: a component of the overlap of
    patches i and j, its region in the cover coordinates of patch i's
    lift, and the deck that relates the two lifts there."""

    cover: ActionAlgebroid
    m0: np.ndarray
    patches: tuple[Chart, ...]
    overlaps: tuple[Overlap, ...]

    @cached_property
    def patch_samples(self) -> list[np.ndarray]:
        """The Halton samples of each patch that the reconstruction develops."""
        return [patch.halton_points(_ATLAS_SAMPLES, shrink=0.1) for patch in self.patches]


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
    """Algebra coordinates (..., n) projected off span(h0), keeping the
    axes the projector does not annihilate."""
    P = H.h0_projector
    keep = np.nonzero(np.linalg.norm(P, axis=1) > 1e-12)[0]
    return (P @ coords[..., None])[..., keep, 0]


def _coset_coords(H: HomogeneousModel, gs: np.ndarray) -> np.ndarray:
    """Coset coordinates (B, k) of a stack of coset representatives, from
    one log."""
    lr = log_matrix(H.realization, gs)
    if np.any(np.isnan(lr.coords)):
        raise DevelopmentError("coset representative outside log region")
    return _complement_coords(H, lr.coords)


def reconstruct_ends(spec: CoverSpec) -> list[np.ndarray]:
    """The ends that ``reconstruct_atlas`` develops from spec.m0, in lane
    order: every patch's samples, then for each overlap the deck image q
    of m0, the overlap's samples p and their deck images, the images one
    stacked product."""
    ends = [p for pts in spec.patch_samples for p in pts]
    for ov in spec.overlaps:
        pts = ov.region_i.halton_points(_ATLAS_SAMPLES, shrink=0.1)
        q, *images = ov.base_map(np.vstack([spec.m0, pts]))
        ends += [q, *pts, *images]
    return ends


def reconstruct_atlas(glued, H: HomogeneousModel, spec: CoverSpec,
                      lanes=None) -> AtlasReport:
    """Build numeric charts by developing patch lifts and verify that the
    overlap transitions are the induced affine maps of their deck data.

    ``glued`` is the algebroid being reconstructed; its rank must match
    the model algebra and every deck twist must be an automorphism of the
    fiber bracket read off its charts, and a spec with no patch and no
    overlap, which would check nothing and pass, is refused.  These are
    checked first.  Then the patch samples and every overlap's endpoints
    (``reconstruct_ends``) are developed in one batch, or read from
    ``lanes()``, their ``Frames`` in order (``develop_ends``).  Each
    overlap builds its induced map, and the patches read their Jacobians
    at their first samples in one stacked call.  Then all overlaps at
    once read their samples' twisted images (one stacked
    ``integrated_twist``, each overlap's twist on its own lanes) and
    transition residuals, and the coordinates of every patch and overlap
    sample come from one log; only the affine fit runs overlap by
    overlap.
    """
    from .cartan import fiber_bracket_at
    if not (spec.patches or spec.overlaps):
        raise DevelopmentError("a cover spec with no patch and no overlap reconstructs "
                               "nothing")
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
        rep = is_automorphism(fb, AlgebraMap(fb, fb, ov.entry.M), tol=1e-6)
        if not rep.passed:
            raise DevelopmentError(
                f"deck twist for patches {ov.i}/{ov.j} is not an automorphism "
                f"of the fiber bracket (residual {rep.max_residual:.3e})")
    A = spec.cover
    patch_pts = spec.patch_samples
    if lanes is None:
        lanes = partial(develop_ends, A, H, spec.m0, reconstruct_ends(spec))
    frames = lanes()
    gs, Qs = frames.g, frames.Q
    npatch = sum(len(pts) for pts in patch_pts)
    gs, devs = gs[:npatch], gs[npatch:]
    firsts = np.cumsum([0] + [len(pts) for pts in patch_pts[:-1]])
    # the Jacobian at each patch's first sample, read off its development
    dets = []
    if patch_pts:
        J = _frame_jacobian(A, H, np.array([pts[0] for pts in patch_pts]), gs[firsts],
                            Qs[firsts])
        dets = np.abs(np.linalg.det(J))
    samples = Coset(gs, H)      # every representative must be invertible
    # each overlap's lanes: its q = D(deck(m0)), its samples p and their images
    k = _ATLAS_SAMPLES
    devs = devs.reshape(len(spec.overlaps), 1 + 2 * k, *gs.shape[1:])
    for ov, dev in zip(spec.overlaps, devs):
        # refuses a twist that does not carry H0 onto q H0 q^-1; the map
        # is g H0 -> mu_hat(g) q H0, read below for all overlaps at once
        induced_affine_map(ov.entry, H, Coset(dev[0], H))
    psi = devs[:, 1:]
    res = []
    if spec.overlaps:
        # the samples' developments, then their images'
        psi_i, psi_j = Coset(psi[:, :k], H), Coset(psi[:, k:], H)
        twists = [AlgebraMap(H.algebra, H.algebra, ov.entry.M) for ov in spec.overlaps]
        images = integrated_twist(H, twists, psi_i.g) @ devs[:, :1]
        res = coset_residual(psi_j, Coset(images, H))
    coords = _coset_coords(H, np.concatenate([samples.g, psi.reshape(-1, *gs.shape[1:])]))
    chart_samples = np.split(coords[:npatch], firsts[1:])
    transitions = []
    xy = coords[npatch:].reshape(len(spec.overlaps), 2, k, coords.shape[-1])
    for ov, r, (X, Y) in zip(spec.overlaps, res, xy):
        Amat, b, fit = _fit_affine(X, Y)
        transitions.append(TransitionRecord(ov.i, ov.j, worst(r), ov.entry.M, Amat, b, fit))
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
