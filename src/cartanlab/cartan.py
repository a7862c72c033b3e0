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
reduces to a contraction of the fields' 1-jets, read for the whole sample
set at once through ``SmoothField.first_jet``: the anchor, gamma and
torsion for the cocurvature, gamma alone for the curvature, which is
``geometry.curvature_from_christoffel`` of gamma read as Christoffel
symbols.  The contractions carry the point axis (``...``) and the
residual is reduced point by point.  Both checks return an
``algebra.TensorReport``.  The section calculus above, on arbitrary
sections by the closures of ``AlgebroidChart``, lives with the test
oracles (``tests/oracles.py``: ``nabla_bar_tm``, ``nabla_bar_g``,
``torsion_bar``); the tests build the cocurvature from it by definition
and compare the jet formulas against it.
"""

from __future__ import annotations

import numpy as np

from .dual import contract, value
from .algebra import LieAlgebra, TensorReport, worst
from .algebroid import AlgebroidChart, frame_bracket
from .geometry import as_point, curvature_from_christoffel, sample_stack


def _swap(t):
    """Transpose of the frame slots a, b of c[..., :, a, b, k]."""
    return np.swapaxes(t, -3, -2)


def bar_tm_tensor(A, G) -> np.ndarray:
    """bar[..., :, a, k] = nabla_bar_{e_a} e_k = #Gamma(e_k)e_a - (d_k #)e_a,
    from the anchor and gamma jets."""
    return np.einsum("...id,...kda->...iak", A.v, G.v) - np.einsum("k...ia->...iak", A.d)


def cocurvature_tensor(A, G, T) -> np.ndarray:
    """c[..., :, a, b, k] = c(e_a, e_b)e_k from the anchor, gamma and torsion
    jets.

    With Gamma(u) = u^i Gamma_i, constant x, y, v and d_v the jet
    derivative, the definition reduces to

        B = Gamma(#x)y - Gamma(#y)x + T(x, y)                   = [x, y]
        t1 = d_v B + Gamma(v)B
        [Z, y] = Gamma(#Z)y - (d_{#y}Gamma)(v)x - Gamma(#y)Z + T(Z, y)
                                                 for Z = Gamma(v)x
        c = t1 - [Gamma(v)x, y] - [x, Gamma(v)y]
            + Gamma(bar_x v)y - Gamma(bar_y v)x.
    """
    B = frame_bracket(A, G, T)
    P = np.einsum("...ia,...icb->...cab", A.v, G.v)            # Gamma(#e_a)e_b
    t1 = np.einsum("k...cab->...cabk", B.d) + np.einsum("...kcd,...dab->...cabk", G.v, B.v)
    # S[..., :, a, b, k] = [Gamma(e_k)e_a, e_b]; [x, Gamma(v)y] is its transpose
    S = (np.einsum("...kda,...cdb->...cabk", G.v, P)
         - np.einsum("j...kca,...jb->...cabk", G.d, A.v)
         - np.einsum("...cbd,...kda->...cabk", P, G.v)
         + np.einsum("...cdb,...kda->...cabk", T.v, G.v))
    Q = np.einsum("...iak,...icb->...cabk", bar_tm_tensor(A, G), G.v)
    return t1 - (S - _swap(S)) + (Q - _swap(Q))


def curvature_conn_tensor(G) -> np.ndarray:
    """F[..., :, b, i, j] = R(e_i, e_j)e_b of the chart connection, from the
    gamma jet read as the Christoffel symbols Gamma^c_{ib} = gamma[i, c, b]."""
    return curvature_from_christoffel(contract("...icb->...cib", G))


def _frame_jets(C: AlgebroidChart, ms):
    """The anchor, gamma and torsion jets at the points ms (B, n)."""
    return C.anchor.first_jet(ms), C.gamma.first_jet(ms), C.torsion.first_jet(ms)


def _at(u, m):
    """Value at m of a constant or callable tensor argument."""
    return value(np.asarray(u(m) if callable(u) else u, dtype=object))


def cocurvature(C: AlgebroidChart, x, y, v, m):
    """Cocurvature c(x, y)v at m; callable arguments are read at m."""
    m = as_point(m)
    C.base.require_interior(m)
    x, y, v = (_at(u, m) for u in (x, y, v))
    return np.einsum("cabk,a,b,k->c", cocurvature_tensor(*_frame_jets(C, m[None]))[0], x, y, v)


def curvature_conn(C: AlgebroidChart, u, v, x, m):
    """Curvature of the chart connection: R(u,v)x, arguments read at m."""
    m = as_point(m)
    C.base.require_interior(m)
    u, v, x = (_at(w, m) for w in (u, v, x))
    return np.einsum("cbij,i,j,b->c", curvature_conn_tensor(C.gamma.first_jet(m[None]))[0],
                     u, v, x)


def sample_set(C: AlgebroidChart, samples, seed=42):
    """The points a tensor check reads: ``samples`` as given, or that many
    points (50 for None) drawn uniformly in the chart's sample box with
    ``seed``."""
    if samples is None:
        return C.base.sample_points(np.random.default_rng(seed), 50)
    if isinstance(samples, int):
        return C.base.sample_points(np.random.default_rng(seed), samples)
    return samples


def per_point_max(t) -> tuple[float, ...]:
    """Max |t| at each point of a residual stacked on a leading point axis."""
    return tuple(float(x) for x in np.max(np.abs(t), axis=tuple(range(1, t.ndim)), initial=0.0))


def _max_over_samples(name, C, tensor_at, samples, tol, seed) -> TensorReport:
    """The residual tensor over the whole sample set, from ``tensor_at`` of
    the stacked points, reduced to its max |.| at each point."""
    pts = sample_stack(sample_set(C, samples, seed))
    C.base.require_interior(pts)
    per = per_point_max(tensor_at(pts))
    return TensorReport(name, worst(per), tol, per, tuple(map(tuple, pts)))


def is_cartan(C: AlgebroidChart, samples=None, tol: float = 1e-7, seed: int = 42) -> TensorReport:
    """Max cocurvature residual over samples and frame combinations."""
    return _max_over_samples("is_cartan", C, lambda ms: cocurvature_tensor(*_frame_jets(C, ms)),
                             samples, tol, seed)


def is_flat(C: AlgebroidChart, samples=None, tol: float = 1e-7, seed: int = 42) -> TensorReport:
    """Max curvature residual of the chart connection over samples."""
    return _max_over_samples("is_flat", C,
                             lambda ms: curvature_conn_tensor(C.gamma.first_jet(ms)),
                             samples, tol, seed)


def fiber_bracket_at(C: AlgebroidChart, m0, jacobi_tol: float = 1e-6) -> LieAlgebra:
    """Lie algebra read off the torsion at a point of a flat Cartan chart.

    The torsion is the value of its order-1 jet (``first_jet``), which a
    chart that keeps its jets (``AlgebroidChart.jets``) reads from what it
    kept.  Raises if the extracted table fails the Jacobi identity, which
    signals a violated flatness/Cartan precondition.
    """
    m0 = as_point(m0)
    C.base.require_interior(m0)
    t = C.torsion.first_jet(m0[None]).v[0]
    c = np.einsum("cab->abc", t)
    return LieAlgebra(c, tol=jacobi_tol)
