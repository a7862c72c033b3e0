"""Finite-dimensional Lie algebras as structure-constant tables.

Structure constants are stored dense with layout ``c[i, j, k]`` meaning
``[e_i, e_j] = sum_k c[i, j, k] e_k``.  Dimensions are capped at 32; every
construction checks antisymmetry exactly and the Jacobi identity to a
configurable tolerance.  The matrix exponential, principal square root
and principal log are numpy-only: Pade scaling and squaring, the scaled
product-form Denman-Beavers iteration, and inverse scaling and squaring
over those square roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_DIM = 32
DEFAULT_TOL = 1e-9
# the Mercator series of a log stops at a term below this
_SERIES_TOL = 1e-16
# a log takes square roots of g until |g - I|_F is at most the gap, and
# refuses g if the cap on roots is reached first
_ROOT_GAP, _MAX_ROOTS = 0.25, 40
# g is normal when |g g^T - g^T g|_F is at most this times |g|_F^2; a normal
# g has no principal log when an eigenvalue with negative real part has an
# imaginary part of at most the cut gap times its modulus (the log's
# condition there, about pi / gap, would leave no digit of it)
_NORMAL_TOL, _CUT_GAP = 1e-12, 1e-9


class AlgebraError(ValueError):
    pass


def worst(residuals) -> float:
    """The largest residual, NaN if any is NaN (``max`` would keep whichever
    came first), so a residual that is not a number fails its check."""
    return float(np.max(residuals, initial=0.0))


@dataclass(frozen=True)
class TensorReport:
    """Outcome of a residual check, which passes when its worst residual is
    within ``tol``.  A check over sample points also keeps each point's
    residual and the points."""

    name: str
    max_residual: float
    tol: float
    per_point: tuple[float, ...] = ()
    sample_points: tuple = ()
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra given by its structure-constant table."""

    structure_constants: np.ndarray
    basis_labels: tuple[str, ...] | None = None
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        c = np.asarray(self.structure_constants, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise AlgebraError("structure constants must be a cubic rank-3 array")
        if c.shape[0] > MAX_DIM:
            raise AlgebraError(f"dimension {c.shape[0]} exceeds cap {MAX_DIM}")
        # antisymmetry is enforced, not just checked
        c = 0.5 * (c - np.swapaxes(c, 0, 1))
        object.__setattr__(self, "structure_constants", c)
        res = jacobi_residual(c)
        if not res <= self.tol:
            raise AlgebraError(f"Jacobi residual {res:.3e} exceeds tolerance {self.tol:.1e}")

    @property
    def dim(self) -> int:
        return self.structure_constants.shape[0]

    def bracket(self, x, y):
        return bracket(self, x, y)

    def adjoint(self, x) -> np.ndarray:
        """Matrix of ad_x acting on coordinate vectors."""
        x = np.asarray(x, dtype=float)
        return np.einsum("i,ijk->kj", x, self.structure_constants)


def bracket(A: LieAlgebra, x, y):
    """Evaluate [x, y] through the structure constants."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != (A.dim,) or y.shape != (A.dim,):
        raise AlgebraError(f"expected coordinate vectors of length {A.dim}")
    return np.einsum("i,j,ijk->k", x, y, A.structure_constants)


def jacobi_residual(c: np.ndarray) -> float:
    """Max-norm of [[x,y],z] + [[y,z],x] + [[z,x],y] over basis triples."""
    t = np.einsum("ijm,mkl->ijkl", c, c)
    cyc = t + np.einsum("jkil->ijkl", t) + np.einsum("kijl->ijkl", t)
    return float(np.max(np.abs(cyc))) if c.size else 0.0


@dataclass(frozen=True)
class MatrixRealization:
    """Concrete matrices realizing the basis of a Lie algebra.

    The commutators of the generators must reproduce the structure
    constants; this is verified at construction.
    """

    algebra: LieAlgebra
    generators: tuple[np.ndarray, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=float) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) != self.algebra.dim:
            raise AlgebraError("one generator per basis element required")
        d = gens[0].shape[0]
        for g in gens:
            if g.shape != (d, d):
                raise AlgebraError("generators must be square matrices of equal size")
        res = self.closure_residual()
        if not res <= self.tol:
            raise AlgebraError(f"commutator closure residual {res:.3e} > {self.tol:.1e}")

    @property
    def matrix_dim(self) -> int:
        return self.generators[0].shape[0]

    def closure_residual(self) -> float:
        c = self.algebra.structure_constants
        gens = self.generators
        gaps = [Gi @ Gj - Gj @ Gi - sum(c[i, j, k] * Gk for k, Gk in enumerate(gens))
                for i, Gi in enumerate(gens) for j, Gj in enumerate(gens)]
        return worst([np.max(np.abs(gap)) for gap in gaps])

    def element(self, xi) -> np.ndarray:
        """sum_i xi_i G_i for a coordinate vector (n,) or each of a stack
        (B, n)."""
        xi = np.asarray(xi, dtype=float)
        d = self.matrix_dim
        flat = np.stack(self.generators).reshape(len(self.generators), d * d)
        return (xi[..., None, :] @ flat).reshape(*xi.shape[:-1], d, d)


def adjoint_realization(A: LieAlgebra, tol: float = 1e-8) -> MatrixRealization:
    """Realize the algebra by its adjoint matrices (faithful when the
    center is trivial)."""
    n = A.dim
    gens = [A.adjoint(np.eye(n)[i]) for i in range(n)]
    return MatrixRealization(A, tuple(gens), tol=tol)


# Higham (2005), Table 2.3: the largest 1-norm at which the degree-m Pade
# approximant to exp meets unit roundoff, and the approximants' coefficients
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0,
               13: 5.371920351148152e0}
_PADE_COEFFS = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240.,
        2162160., 110880., 3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600.,
         1187353796428800., 129060195264000., 10559470521600.,
         670442572800., 33522128640., 1323241920., 40840800., 960960.,
         16380., 182., 1.),
}


def expm(a) -> np.ndarray:
    """Matrix exponential of a (d, d) or of each element of a stack
    (B, d, d), by Pade scaling and squaring (Higham, "The scaling and
    squaring method for the matrix exponential revisited", SIAM J. Matrix
    Anal. Appl. 26, 2005, Algorithm 2.3): the lowest degree m in
    {3, 5, 7, 9} whose threshold holds the 1-norm, else degree 13 after
    halving the matrix s times and squaring the result s times.  Each
    element takes its own degree and s: the approximant is evaluated once
    per degree for the elements of that degree, and each squaring step
    squares the elements that still need one, so every element gets the
    arithmetic it would get alone.

    A strictly upper triangular element N (a translation or Heisenberg
    exponent) is nilpotent, so it takes its terminating series
    I + N + ... + N^(d-1)/(d-1)! instead: the result is unipotent, its
    diagonal exactly 1, as ``log_matrix`` expects of such elements."""
    a = np.asarray(a, dtype=float)
    stack = a.reshape(-1, *a.shape[-2:])
    norms = np.abs(stack).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.all(np.isfinite(norms)):
        raise AlgebraError("matrix exponential of non-finite entries")
    nilpotent = ~np.any(np.tril(stack), axis=(-2, -1))
    degree = np.select([nilpotent, *(norms <= theta for theta in _PADE_THETA.values())],
                       [0, *_PADE_THETA], 13)
    # s = max(0, ceil(log2 x)), x = norm / theta_13, read exactly off
    # x = f 2^e with 1/2 <= f < 1
    f, e = np.frexp(norms / _PADE_THETA[13])
    s = np.where(degree == 13, np.maximum(e - (f == 0.5), 0), 0)
    out = np.empty_like(stack)
    for m in set(degree.tolist()):
        lanes = degree == m
        out[lanes] = (_nilpotent_series(stack[lanes]) if m == 0 else
                      _pade(stack[lanes] / 2.0 ** s[lanes, None, None], m))
    for k in range(s.max(initial=0)):
        lanes = s > k
        out[lanes] = out[lanes] @ out[lanes]
    return out.reshape(a.shape)


def _nilpotent_series(a: np.ndarray) -> np.ndarray:
    """exp of a stack (B, d, d) of nilpotent matrices: the series to the
    a^(d-1) term."""
    out, term = np.eye(a.shape[-1]) + a, a
    for m in range(2, a.shape[-1]):
        term = term @ a / m
        out += term
    return out


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """The degree-m Pade approximant to exp on a stack (B, d, d)."""
    b = _PADE_COEFFS[m]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if m < 13:
        even = [eye, a2]                      # a^0, a^2, ..., a^(m-1)
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
    return np.linalg.solve(v - u, v + u)


# the square-root iteration scales while |M - I|_F is above the first bound
# and stops once it is below the second
_SQRT_SCALE_GAP, _SQRT_DONE_GAP, _SQRT_MAX_ITER = 1e-2, 1e-8, 60


def sqrtm(a) -> np.ndarray:
    """Principal square root of a real matrix with no eigenvalue on the
    closed negative real axis, by the product form of the Denman-Beavers
    iteration with determinantal scaling (Higham, *Functions of
    Matrices*, 2008, section 6.3):

        X <- X (I + M^-1) / 2,   M <- I / 2 + (M + M^-1) / 4,   X = M = A,

    preceded by X <- mu X and M <- mu^2 M with mu = |det M|^(-1/2n) while
    M is far from I.  Throughout, A^(1/2) = X M^(-1/2); once E = M - I is
    below 1e-8 the iteration ends with X (I - E/2), whose error is of
    order |E|^2.  No eigendecomposition is needed, so defective inputs
    converge too: a unipotent g in ceil(log2 n) steps, since each step
    squares the order of E in N = g - I (one step when N^2 = 0)."""
    a = np.asarray(a, dtype=float)
    n = len(a)
    eye = np.eye(n)
    x, m = a, a
    e = (a - eye).ravel()
    for _ in range(_SQRT_MAX_ITER):
        try:
            minv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            break       # only with an eigenvalue on the negative real axis
        if e @ e > _SQRT_SCALE_GAP ** 2:
            mu2 = abs(np.linalg.det(m)) ** (-1.0 / n)
            x, m, minv = math.sqrt(mu2) * x, mu2 * m, minv / mu2
        x = 0.5 * (x + x @ minv)
        m = 0.5 * eye + 0.25 * (m + minv)
        e = (m - eye).ravel()
        if e @ e <= _SQRT_DONE_GAP ** 2:
            return x - 0.5 * (x @ e.reshape(n, n))
    raise AlgebraError("square root iteration did not converge "
                       "(an eigenvalue on the negative real axis?)")


def exp_matrix(R: MatrixRealization, xi, t: float = 1.0) -> np.ndarray:
    """exp(t * sum_i xi_i G_i), scaling-and-squaring to machine precision,
    for coordinates xi (n,) or each row of a stack (B, n)."""
    m = expm(float(t) * R.element(xi))
    if not np.all(np.isfinite(m)):
        raise AlgebraError("matrix exponential produced non-finite entries")
    return m


@dataclass(frozen=True)
class LogResult:
    coords: np.ndarray                # NaN where g has no principal log
    off_span_residual: np.ndarray     # inf where g has no principal log


def vector_norms(v) -> np.ndarray:
    """Euclidean norms over the last axis of a stack of vectors (..., n).
    Each is summed by ``@`` as ``np.linalg.norm`` sums one vector, so a
    stack reads the norms its vectors have alone."""
    v = np.asarray(v, dtype=float)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def principal_log(g: np.ndarray) -> np.ndarray:
    """Principal matrix log.

    Where g - I is strictly upper triangular (a unipotent g, such as a
    translation or Heisenberg element) it is nilpotent, so the Mercator
    series ends after n - 1 terms and is summed as it stands.  Any other g
    goes through inverse scaling-and-squaring (``_log_by_roots``).  A
    normal g (a rotation, or compact isotropy) that needs a root takes its
    first one from its eigendecomposition (``_normal_sqrt``), since
    Denman-Beavers loses digits on an eigenvalue near the negative real
    axis: a rotation by nearly pi.
    """
    g = np.asarray(g, dtype=float)
    x = g - np.eye(g.shape[0])
    if not np.any(np.tril(x)):
        return _mercator(x, g.shape[0] - 1)
    if np.linalg.norm(x) > _ROOT_GAP and _is_normal(g):
        return 2.0 * _log_by_roots(_normal_sqrt(g), _SERIES_TOL)
    return _log_by_roots(g, _SERIES_TOL)


def _is_normal(g: np.ndarray) -> bool:
    return bool(np.linalg.norm(g @ g.T - g.T @ g) <= _NORMAL_TOL * np.linalg.norm(g) ** 2)


def _normal_sqrt(g: np.ndarray) -> np.ndarray:
    """Principal square root V D^(1/2) V^-1 of a normal g from
    ``np.linalg.eig`` (its eigenvectors are unitary, so V is well
    conditioned), refused where an eigenvalue lies on or within the cut
    gap of the closed negative real axis."""
    d, V = np.linalg.eig(g)
    if np.any((d.real <= 0) & (np.abs(d.imag) <= _CUT_GAP * np.abs(d))):
        raise AlgebraError("an eigenvalue on the negative real axis: no principal log")
    return ((V * np.sqrt(d.astype(complex))) @ np.linalg.inv(V)).real


def _mercator(x: np.ndarray, last: int, tol: float = 0.0) -> np.ndarray:
    """log(I + x) = x - x^2/2 + x^3/3 - ..., for x (d, d) or a stack
    (B, d, d), summed to the x^last term or to the first term whose
    entries all lie below tol."""
    out, term = x.copy(), x
    for m in range(2, last + 1):
        term = term @ x
        incr = (-1) ** (m + 1) / m * term
        out += incr
        if np.max(np.abs(incr), initial=0.0) < tol:
            break
    return out


def _log_by_roots(g: np.ndarray, series_tol: float) -> np.ndarray:
    """Principal log by inverse scaling and squaring (Higham, *Functions of
    Matrices*, 2008, section 11.5): k principal square roots bring g within
    0.25 of I in the Frobenius norm, where the Mercator series of
    log g^(1/2^k) converges, and log g = 2^k log g^(1/2^k).  Refused only
    where ``sqrtm`` refuses (an eigenvalue on the closed negative real
    axis) or where 40 roots leave g farther than 0.25 from I.
    """
    eye = np.eye(g.shape[0])
    k, a = 0, g
    while np.linalg.norm(a - eye) > _ROOT_GAP:
        if k == _MAX_ROOTS:
            raise AlgebraError(f"{_MAX_ROOTS} square roots leave g "
                               f"{np.linalg.norm(a - eye):.3g} from I")
        a, k = sqrtm(a), k + 1
    return _mercator(a - eye, 59, series_tol) * 2.0 ** k


def log_matrix(R: MatrixRealization, g) -> LogResult:
    """Principal log of g (d, d), or of each element of a stack (B, d, d),
    projected onto the generator span.

    The off-span residual reports how far the log lies from the algebra; a
    large residual means g is not (a small exponential of) an algebra
    element.  An element with no principal log reads NaN coordinates and
    an infinite residual, and leaves the others as they would be alone.
    The Mercator series is summed once for all unipotent elements (see
    ``principal_log``); every other element goes through
    ``principal_log`` on its own; one least-squares solve with a
    right-hand side per element gives the coordinates.
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[-1]
    stack = g.reshape(-1, d, d)
    x = stack - np.eye(d)
    unipotent = ~np.any(np.tril(x), axis=(-2, -1))
    logs = np.zeros_like(stack)
    logs[unipotent] = _mercator(x[unipotent], d - 1)
    found = unipotent.copy()
    for k in np.flatnonzero(~unipotent):
        try:
            logs[k] = principal_log(stack[k])
        except AlgebraError:
            continue
        found[k] = True
    basis = np.stack([G.reshape(-1) for G in R.generators], axis=1)
    flat = logs.reshape(len(stack), d * d)
    coords = np.linalg.lstsq(basis, flat.T, rcond=None)[0].T
    resid = vector_norms(flat - (basis @ coords[..., None])[..., 0])
    coords[~found], resid[~found] = np.nan, np.inf
    n = len(R.generators)
    return LogResult(coords.reshape(*g.shape[:-2], n), resid.reshape(g.shape[:-2])[()])


@dataclass(frozen=True)
class Subalgebra:
    """Span of coordinate vectors inside a parent algebra."""

    parent: LieAlgebra
    basis_vectors: tuple[np.ndarray, ...]
    tol: float = 1e-8

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=float) for v in self.basis_vectors)
        object.__setattr__(self, "basis_vectors", vecs)
        res = self.closure_residual()
        if not res <= self.tol:
            raise AlgebraError(f"subalgebra closure residual {res:.3e} > {self.tol:.1e}")

    @property
    def dim(self) -> int:
        return len(self.basis_vectors)

    def matrix(self) -> np.ndarray:
        if not self.basis_vectors:
            return np.zeros((self.parent.dim, 0))
        return np.stack(self.basis_vectors, axis=1)

    def closure_residual(self) -> float:
        if not self.basis_vectors:
            return 0.0
        B = self.matrix()
        proj = B @ np.linalg.pinv(B)
        brackets = [bracket(self.parent, x, y)
                    for x in self.basis_vectors for y in self.basis_vectors]
        return worst([np.max(np.abs(b - proj @ b)) for b in brackets])


@dataclass(frozen=True)
class AlgebraMap:
    """Linear map between Lie algebras in basis coordinates."""

    source: LieAlgebra
    target: LieAlgebra
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.target.dim, self.source.dim):
            raise AlgebraError("matrix shape must be target.dim x source.dim")
        object.__setattr__(self, "matrix", m)

    def __call__(self, x):
        """The image of a coordinate vector (n,) or of each of a stack (B, n)."""
        return (self.matrix @ np.asarray(x, dtype=float)[..., None])[..., 0]

    def compose(self, other: "AlgebraMap") -> "AlgebraMap":
        return AlgebraMap(other.source, self.target, self.matrix @ other.matrix)


def is_automorphism(A: LieAlgebra, M: AlgebraMap, tol: float = 1e-8) -> TensorReport:
    """Check M[x,y] = [Mx, My] on basis pairs; requires an invertible M."""
    if M.source is not A and M.source.dim != A.dim:
        raise AlgebraError("map must act on the given algebra")
    mat = M.matrix
    if abs(np.linalg.det(mat)) < 1e-14:
        raise AlgebraError("singular matrix cannot be an automorphism")
    n = A.dim
    eye = np.eye(n)
    res = [np.max(np.abs(mat @ bracket(A, eye[i], eye[j])
                         - bracket(A, mat @ eye[i], mat @ eye[j])))
           for i in range(n) for j in range(i + 1, n)]
    return TensorReport("is_automorphism", worst(res), tol)


# -- stock algebras -----------------------------------------------------------

def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(np.zeros((n, n, n)))


def translation_realization(n: int) -> MatrixRealization:
    """R^n as unipotent (n+1)x(n+1) matrices; log is global."""
    gens = []
    for i in range(n):
        g = np.zeros((n + 1, n + 1))
        g[i, n] = 1.0
        gens.append(g)
    return MatrixRealization(abelian(n), tuple(gens))
