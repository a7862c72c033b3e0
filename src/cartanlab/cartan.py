"""Associated connections, torsion, cocurvature and certification.

The two associated fiber-direction connections of a chart connection are

    nabla_bar_X V = #(nabla_V X) + [#X, V]          (on tangent vectors)
    nabla_bar_X Y = nabla_{#Y} X + [X, Y]           (on fiber sections)

and the torsion of the latter recovers the stored torsion field.  A
connection is certified Cartan through the vanishing of its cocurvature

    c(X, Y)V = nabla_V [X,Y] - [nabla_V X, Y] - [X, nabla_V Y]
               + nabla_{nabla_bar_X V} Y - nabla_{nabla_bar_Y V} X

and flat through the vanishing of its ordinary curvature.  Both are
tensorial, so the checks evaluate them on constant frames, where each
reduces to a contraction of the point's 1-jet (``AlgebroidChart.jet``:
anchor, gamma and torsion with their first derivatives, each read through
``SmoothField.first_jet``).  The section calculus above, on arbitrary
sections by the closures of ``AlgebroidChart``, lives with the test
oracles (``tests/oracles.py``: ``nabla_bar_tm``, ``nabla_bar_g``,
``torsion_bar``); the tests build the cocurvature from it by definition
and compare the jet formulas against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dual import value
from .algebra import LieAlgebra
from .algebroid import AlgebroidChart, Jet, worst
from .geometry import as_point


@dataclass(frozen=True)
class TensorReport:
    op: str
    max_residual: float
    tol: float
    per_point: tuple[float, ...] = ()
    sample_points: tuple = ()
    details: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return self.max_residual <= self.tol

    def __str__(self):
        word = "pass" if self.verdict else "FAIL"
        return f"{self.op}: max residual {self.max_residual:.3e} (tol {self.tol:.1e}) {word}"


def _swap(t):
    return np.swapaxes(t, 1, 2)


def bar_tm_tensor(J: Jet) -> np.ndarray:
    """bar[:, a, k] = nabla_bar_{e_a} e_k = #Gamma(e_k)e_a - (d_k #)e_a."""
    return np.einsum("id,kda->iak", J.anchor, J.gamma) - J.d_anchor


def cocurvature_tensor(J: Jet) -> np.ndarray:
    """c[:, a, b, k] = c(e_a, e_b)e_k from the 1-jet at a point.

    With Gamma(u) = u^i Gamma_i, constant x, y, v and d_v the jet
    derivative, the definition reduces to

        B = Gamma(#x)y - Gamma(#y)x + T(x, y)                   = [x, y]
        t1 = d_v B + Gamma(v)B
        [Z, y] = Gamma(#Z)y - (d_{#y}Gamma)(v)x - Gamma(#y)Z + T(Z, y)
                                                 for Z = Gamma(v)x
        c = t1 - [Gamma(v)x, y] - [x, Gamma(v)y]
            + Gamma(bar_x v)y - Gamma(bar_y v)x.
    """
    A, G, T = J.anchor, J.gamma, J.torsion
    P, B = J.gamma_on_anchor(), J.frame_bracket()
    dP = np.einsum("iak,icb->cabk", J.d_anchor, G) + np.einsum("ia,icbk->cabk", A, J.d_gamma)
    t1 = dP - _swap(dP) + J.d_torsion + np.einsum("kcd,dab->cabk", G, B)
    # S[:, a, b, k] = [Gamma(e_k)e_a, e_b]; [x, Gamma(v)y] is its transpose
    S = (np.einsum("kda,cdb->cabk", G, P) - np.einsum("kcaj,jb->cabk", J.d_gamma, A)
         - np.einsum("cbd,kda->cabk", P, G) + np.einsum("cdb,kda->cabk", T, G))
    Q = np.einsum("iak,icb->cabk", bar_tm_tensor(J), G)
    return t1 - (S - _swap(S)) + (Q - _swap(Q))


def curvature_conn_tensor(J: Jet) -> np.ndarray:
    """F[:, b, i, j] = R(e_i, e_j)e_b of the chart connection:
    d_i Gamma_j - d_j Gamma_i + [Gamma_i, Gamma_j]."""
    D = np.einsum("jcbi->cbij", J.d_gamma) + np.einsum("icd,jdb->cbij", J.gamma, J.gamma)
    return D - np.swapaxes(D, 2, 3)


def _at(u, m):
    """Value at m of a constant or callable tensor argument."""
    return value(np.asarray(u(m) if callable(u) else u, dtype=object))


def cocurvature(C: AlgebroidChart, x, y, v, m):
    """Cocurvature c(x, y)v at m; callable arguments are read at m."""
    m = as_point(m)
    C.base.require_interior(m)
    x, y, v = (_at(u, m) for u in (x, y, v))
    return np.einsum("cabk,a,b,k->c", cocurvature_tensor(C.jet(m)), x, y, v)


def curvature_conn(C: AlgebroidChart, u, v, x, m):
    """Curvature of the chart connection: R(u,v)x, arguments read at m."""
    m = as_point(m)
    C.base.require_interior(m)
    u, v, x = (_at(w, m) for w in (u, v, x))
    return np.einsum("cbij,i,j,b->c", curvature_conn_tensor(C.jet(m)), u, v, x)


def _sample_set(C: AlgebroidChart, samples, seed=42):
    if samples is None:
        return C.base.sample_points(np.random.default_rng(seed), 50)
    if isinstance(samples, int):
        return C.base.sample_points(np.random.default_rng(seed), samples)
    return np.asarray(samples, dtype=float)


def _max_over_samples(op, C, tensor, samples, tol, seed) -> TensorReport:
    pts = _sample_set(C, samples, seed)
    for m in pts:
        C.base.require_interior(m)
    per = [float(np.max(np.abs(tensor(C.jet(m))), initial=0.0)) for m in pts]
    return TensorReport(op, worst(per), tol, tuple(per), tuple(map(tuple, pts)))


def is_cartan(C: AlgebroidChart, samples=None, tol: float = 1e-7, seed: int = 42) -> TensorReport:
    """Max cocurvature residual over samples and frame combinations."""
    return _max_over_samples("is_cartan", C, cocurvature_tensor, samples, tol, seed)


def is_flat(C: AlgebroidChart, samples=None, tol: float = 1e-7, seed: int = 42) -> TensorReport:
    """Max curvature residual of the chart connection over samples."""
    return _max_over_samples("is_flat", C, curvature_conn_tensor, samples, tol, seed)


def fiber_bracket_at(C: AlgebroidChart, m0, jacobi_tol: float = 1e-6) -> LieAlgebra:
    """Lie algebra read off the torsion at a point of a flat Cartan chart.

    Raises if the extracted table fails the Jacobi identity, which signals
    a violated flatness/Cartan precondition.
    """
    m0 = as_point(m0)
    C.base.require_interior(m0)
    t = value(np.asarray(C.torsion(m0), dtype=object))
    c = np.einsum("cab->abc", t)
    return LieAlgebra(c, tol=jacobi_tol)
