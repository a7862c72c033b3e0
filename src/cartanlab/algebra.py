"""Finite-dimensional Lie algebras as structure-constant tables.

Structure constants are stored dense with layout ``c[i, j, k]`` meaning
``[e_i, e_j] = sum_k c[i, j, k] e_k``.  Dimensions are capped at 32; every
construction checks antisymmetry exactly and the Jacobi identity to a
configurable tolerance.  The matrix exponential and principal square
root are numpy-only: Pade scaling and squaring, and the scaled
product-form Denman-Beavers iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_DIM = 32
DEFAULT_TOL = 1e-9
# the Mercator series of a log stops at a term below this
_SERIES_TOL = 1e-16


class AlgebraError(ValueError):
    pass


def worst(residuals) -> float:
    """The largest residual, NaN if any is NaN (``max`` would keep whichever
    came first), so a residual that is not a number fails its check."""
    return float(np.max(residuals, initial=0.0))


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
class JacobiReport:
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def check_jacobi(A: LieAlgebra, tol: float = DEFAULT_TOL) -> JacobiReport:
    return JacobiReport(jacobi_residual(A.structure_constants), tol)


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
        xi = np.asarray(xi, dtype=float)
        return np.tensordot(xi, np.stack(self.generators), axes=([0], [0]))


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
    """Matrix exponential by Pade scaling and squaring (Higham, "The
    scaling and squaring method for the matrix exponential revisited",
    SIAM J. Matrix Anal. Appl. 26, 2005, Algorithm 2.3): the lowest degree
    m in {3, 5, 7, 9} whose threshold holds the 1-norm, else degree 13
    after halving the matrix s times and squaring the result s times."""
    a = np.asarray(a, dtype=float)
    norm = np.abs(a).sum(axis=0).max()
    if not math.isfinite(norm):
        raise AlgebraError("matrix exponential of non-finite entries")
    m = next((m for m, theta in _PADE_THETA.items() if norm <= theta), 13)
    s = max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if m == 13 else 0
    a = a / 2.0 ** s
    b = _PADE_COEFFS[m]
    eye = np.eye(len(a))
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
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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
    """exp(t * sum_i xi_i G_i), scaling-and-squaring to machine precision."""
    m = expm(float(t) * R.element(xi))
    if not np.all(np.isfinite(m)):
        raise AlgebraError("matrix exponential produced non-finite entries")
    return m


@dataclass(frozen=True)
class LogResult:
    coords: np.ndarray | None
    off_span_residual: float
    in_region: bool

    @property
    def ok(self) -> bool:
        return self.in_region and self.coords is not None


def principal_log(g: np.ndarray) -> np.ndarray:
    """Principal matrix log.

    Where g - I is strictly upper triangular (a unipotent g, such as a
    translation or Heisenberg element) it is nilpotent, so the Mercator
    series ends after n - 1 terms and is summed as it stands.  Any other g
    goes through inverse scaling-and-squaring (``_log_by_roots``).
    """
    g = np.asarray(g, dtype=float)
    x = g - np.eye(g.shape[0])
    if not np.any(np.tril(x)):
        out, term = x.copy(), x
        for m in range(2, g.shape[0]):
            term = term @ x
            out += (-1) ** (m + 1) / m * term
        return out
    return _log_by_roots(g, _SERIES_TOL)


def _log_by_roots(g: np.ndarray, series_tol: float) -> np.ndarray:
    """Principal log by inverse scaling-and-squaring.

    Requires spectral radius of g - I below 1; repeated principal square
    roots bring the argument close to the identity before the Mercator
    series is summed.
    """
    n = g.shape[0]
    eye = np.eye(n)
    rho = np.max(np.abs(np.linalg.eigvals(g - eye)))
    if rho >= 1.0:
        raise AlgebraError(f"outside log convergence region (spectral radius {rho:.3f} >= 1)")
    k = 0
    a = g.copy()
    while np.linalg.norm(a - eye) > 0.25 and k < 40:
        a = sqrtm(a)
        k += 1
    x = a - eye
    term = x.copy()
    out = x.copy()
    sign = -1.0
    for m in range(2, 60):
        term = term @ x
        incr = sign / m * term
        out += incr
        sign = -sign
        if np.max(np.abs(incr)) < series_tol:
            break
    return out * (2.0 ** k)


def log_matrix(R: MatrixRealization, g: np.ndarray) -> LogResult:
    """Principal log of g projected onto the generator span.

    The off-span residual reports how far the log lies from the algebra; a
    large residual means g is not (a small exponential of) an algebra
    element.
    """
    try:
        L = principal_log(np.asarray(g, dtype=float))
    except AlgebraError:
        return LogResult(None, np.inf, in_region=False)
    basis = np.stack([G.reshape(-1) for G in R.generators], axis=1)
    coords, *_ = np.linalg.lstsq(basis, L.reshape(-1), rcond=None)
    resid = float(np.linalg.norm(L.reshape(-1) - basis @ coords))
    return LogResult(coords, resid, in_region=True)


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
        return self.matrix @ np.asarray(x, dtype=float)

    def compose(self, other: "AlgebraMap") -> "AlgebraMap":
        return AlgebraMap(other.source, self.target, self.matrix @ other.matrix)


@dataclass(frozen=True)
class AutomorphismReport:
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def is_automorphism(A: LieAlgebra, M: AlgebraMap, tol: float = 1e-8) -> AutomorphismReport:
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
    return AutomorphismReport(worst(res), tol)


# -- stock algebras -----------------------------------------------------------

def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(np.zeros((n, n, n)))


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


def translation_realization(n: int) -> MatrixRealization:
    """R^n as unipotent (n+1)x(n+1) matrices; log is global."""
    gens = []
    for i in range(n):
        g = np.zeros((n + 1, n + 1))
        g[i, n] = 1.0
        gens.append(g)
    return MatrixRealization(abelian(n), tuple(gens))
