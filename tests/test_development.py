import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from cartanlab import algebra, development, ode
from cartanlab.algebra import AlgebraMap, MatrixRealization, Subalgebra
from cartanlab.algebroid import (ActionAlgebroid, AffineCocycleEntry, AlgebroidChart,
                                 make_action_algebroid)
from cartanlab.development import (Coset, DevelopmentError, HomogeneousModel,
                                   check_equivariant_twist, coset_residual,
                                   develop_paths, develop_point, development_jacobian,
                                   equivariance_diagram_check, equivariance_ends,
                                   geometric_closure_probe,
                                   induced_affine_map, integrated_twist,
                                   path_independence_check, reconstruct_atlas,
                                   reconstruct_ends)
from cartanlab.dual import cos, sin
from cartanlab.geometry import Chart, GeometryError, as_point
from cartanlab.transport import (BasePath, TransportError, line_path, line_segment,
                                 transport_matrix)
import oracles
from oracles import fit_twist, polyline_path, reverse

E2PI = math.exp(2 * math.pi)


def _identity(A: ActionAlgebroid) -> AffineCocycleEntry:
    """The identity deck of an action algebroid's chart."""
    return AffineCocycleEntry.identity(A.chart.base.dim, A.algebra.dim)


def _twist(H: HomogeneousModel, deck: AffineCocycleEntry) -> AlgebraMap:
    """A deck's twist as an automorphism of the model's algebra."""
    return AlgebraMap(H.algebra, H.algebra, deck.M)


def test_equivariant_twist_identity(circle):
    E = _identity(circle.cover)
    rep = check_equivariant_twist(circle.cover, E)
    assert rep.passed and rep.max_residual < 1e-12


def test_equivariant_twist_deck_map(circle, rng):
    rep = check_equivariant_twist(circle.cover, circle.decks[0],
                                  samples=rng.uniform(-1, 1, (8, 1)))
    assert rep.passed


def test_equivariant_twist_rotation_needs_adjoint(so3_action, rng):
    R = algebra.exp_matrix(oracles.so3_realization(), [0, 0, 1], 0.8)
    good = AffineCocycleEntry(R, np.zeros(3), R)
    rep = check_equivariant_twist(so3_action, good, samples=rng.uniform(-1, 1, (6, 3)))
    assert rep.passed
    bad = AffineCocycleEntry(R, np.zeros(3), np.eye(3))
    rep2 = check_equivariant_twist(so3_action, bad, samples=rng.uniform(-1, 1, (6, 3)))
    assert not rep2.passed


def _axis_scaling(xi, m):
    """abelian(n) scaling each axis of R^n: the field of xi at m is xi * m."""
    return np.asarray(xi, dtype=object) * np.asarray(m, dtype=object)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _decks(draw):
    """An affine deck of 1 to 3 dimensions (A diagonal or dense) with a
    twist M of the same size, and four sample points."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        A = np.diag(draw(arrays(float, n, elements=_floats(-2.0, 2.0))))
    else:
        A = draw(arrays(float, (n, n), elements=_floats(-2.0, 2.0)))
    b = draw(arrays(float, n, elements=_floats(-2.0, 2.0)))
    M = draw(arrays(float, (n, n), elements=_floats(-2.0, 2.0)))
    return AffineCocycleEntry(A, b, M), draw(arrays(float, (4, n), elements=_floats(-1.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(case=_decks())
def test_the_twist_check_reads_dphi_off_the_entry_as_a_lane_call_reads_it(case):
    deck, ms = case
    n = len(deck.b)
    A = make_action_algebroid(algebra.abelian(n), _axis_scaling,
                              Chart((-math.inf,) * n, (math.inf,) * n))
    got = check_equivariant_twist(A, deck, samples=ms)
    want = oracles.equivariant_twist_by_lanes(A, deck, ms)
    assert np.max(np.abs(np.subtract(got.per_point, want.per_point))) <= 1e-12
    assert abs(got.max_residual - want.max_residual) <= 1e-12


def _bytes(points) -> bytes:
    return np.asarray(points, dtype=float).tobytes()


def test_deck_images_are_the_object_array_reads_bit_for_bit(circle, torus):
    # the glued models' decks and every deck of their cover specs, at m0
    # and at the spec's samples, in the ends the two development checks read
    k = development._ATLAS_SAMPLES
    for model in (circle, torus):
        spec = model.atlas_spec
        m0, samples = spec.m0, np.vstack(spec.patch_samples)
        for deck in model.decks:
            ends = equivariance_ends(deck, m0, samples)
            images = [oracles.deck_image_at(deck, m) for m in (m0, *samples)]
            assert _bytes(ends[:len(images)]) == _bytes(images)
        ends = reconstruct_ends(spec)[len(samples):]
        for ov, lanes in zip(spec.overlaps, np.reshape(ends, (len(spec.overlaps), 1 + 2 * k, -1))):
            pts = lanes[1:k + 1]
            images = [oracles.deck_image_at(ov.entry, m) for m in (m0, *pts)]
            assert _bytes([lanes[0], *lanes[k + 1:]]) == _bytes(images)


def test_develop_translations_gives_translation_part(torus):
    c = develop_point(torus.cover, torus.homog, line_path([0.0, 0.0], [0.7, -0.4]))
    assert np.allclose(c.g[:2, 2], [0.7, -0.4], atol=1e-10)
    ident = develop_point(torus.cover, torus.homog,
                          line_path([0.3, 0.3], [0.3, 0.3]))
    assert np.allclose(ident.g, np.eye(3), atol=1e-12)


def test_develop_counterexample_quadrature_oracle(circle):
    # lift of a straight path 0 -> theta is xi(t) = e^{theta(t)} dtheta/dt;
    # integrate it independently by quadrature
    theta = 1.3
    expected, _ = quad(lambda t: math.exp(t * theta) * theta, 0.0, 1.0)
    c = develop_point(circle.cover, circle.homog, line_path([0.0], [theta]))
    assert abs(c.g[0, 1] - expected) < 1e-9
    assert abs(expected - (math.exp(theta) - 1.0)) < 1e-10


def test_develop_rejects_rank_deficient_anchor(so3_action):
    # the rotation action is not transitive on R^3: radial motion cannot
    # be lifted through the anchor
    H = HomogeneousModel(so3_action.algebra, oracles.so3_realization(),
                         Subalgebra(so3_action.algebra, ()))
    with pytest.raises(DevelopmentError):
        develop_point(so3_action, H, line_path([1.0, 0.0, 0.0], [2.0, 0.0, 0.0]))


def _assert_batch_matches_single_paths(A, H, paths):
    batch = develop_paths(A, H, paths)
    assert len(batch) == len(paths)
    for path, got in zip(paths, batch):
        # each path is a lane of the batch's solve, bit for bit its solve alone
        assert np.array_equal(got.g, develop_point(A, H, path).g)


def test_develop_paths_matches_single_paths_torus(torus, rng):
    ends = rng.uniform(-0.9, 0.9, (6, 2))
    _assert_batch_matches_single_paths(torus.cover, torus.homog,
                                       [line_path([0.0, 0.0], e) for e in ends])


def test_develop_paths_matches_single_paths_circle(circle):
    # far ends grow like e^theta, so the batch mixes very different scales;
    # the last lane runs backwards
    thetas = [-0.5, 0.3, 1.7, math.pi, 2 * math.pi, 2 * math.pi + 1.5]
    _assert_batch_matches_single_paths(
        circle.cover, circle.homog,
        [line_path([0.0], [t]) for t in thetas] + [reverse(line_path([2.0], [0.0]))])


def test_develop_paths_matches_single_paths_sphere(sphere):
    # the TM+h chart has Gamma != 0, so the parallel frame P is nontrivial
    m0 = sphere.m0
    offsets = [[0.25, 0.2], [-0.2, 0.1], [0.1, -0.3]]
    paths = [polyline_path([m0, m0 + [0.0, o[1]], m0 + o]) for o in offsets]
    _assert_batch_matches_single_paths(sphere.rc.chart, sphere.homog, paths)


def test_inverse_frame_development_matches_the_p_frame_solve(circle, torus, sphere):
    # Gamma = 0 on the action algebroids: the frames stay the identity
    # exactly, and the developments agree with the P-frame solve
    for A, H, m0, ends in ((circle.cover, circle.homog, [0.0], [[0.4], [-1.1], [2.5]]),
                           (torus.cover, torus.homog, [0.0, 0.0], [[0.3, -0.2], [0.1, 0.4]])):
        paths = [line_path(m0, e) for e in ends]
        g, Q = development._develop_frames(A, H, paths)
        g_p, P = oracles.develop_frames_p(A, H, paths)
        assert np.max(np.abs(g - g_p)) <= 1e-12 * np.max(np.abs(g_p)) and np.array_equal(Q, P)
        assert np.array_equal(Q, np.broadcast_to(np.eye(Q.shape[-1]), Q.shape))
    # on the TM+h chart the frame is nontrivial; Q is P's inverse
    m0 = sphere.m0
    paths = [polyline_path([m0, m0 + [0.0, o[1]], m0 + o])
             for o in ([0.25, 0.2], [-0.2, 0.1], [0.1, -0.3])]
    g, Q = development._develop_frames(sphere.rc.chart, sphere.homog, paths)
    g_p, P = oracles.develop_frames_p(sphere.rc.chart, sphere.homog, paths)
    assert np.max(np.abs(P - np.eye(P.shape[-1]))) > 1e-2
    assert np.max(np.abs(g - g_p)) <= 1e-10 * np.max(np.abs(g_p))
    assert np.max(np.abs(Q @ P - np.eye(P.shape[-1]))) <= 1e-10


def _great_circle_arc(u, w):
    # t -> cos(t) u + sin(t) w on [0, 1]; with u, w orthonormal its velocity
    # is always orthogonal to the point, so it stays in the so(3) anchor's
    # range, which no chord does
    u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    return BasePath((oracles.CurveSegment(0, lambda t: [cos(t) * a + sin(t) * b
                                                        for a, b in zip(u, w)]),))


def _so3_model(so3_action):
    return HomogeneousModel(so3_action.algebra, oracles.so3_realization(),
                            Subalgebra(so3_action.algebra, ()))


def _standing_paths():
    # zero-length lanes: velocity 0, which every anchor lifts
    return [line_path(m, m) for m in ([1.0, 0.0, 0.0], [0.0, 0.6, 0.8])]


def test_develop_paths_rejects_a_non_liftable_path_in_the_batch(so3_action):
    # the standing lanes lift on their own, so only the radial path, last
    # in the batch, can fail it; the sibling test puts it in the middle
    H = _so3_model(so3_action)
    here, there = _standing_paths()
    radial = line_path([1.0, 0.0, 0.0], [2.0, 0.0, 0.0])
    develop_paths(so3_action, H, [here])
    develop_paths(so3_action, H, [there])
    with pytest.raises(DevelopmentError, match="surjective"):
        develop_paths(so3_action, H, [here, there, radial])


def test_a_radial_path_fails_the_lift_of_a_batch_whose_other_paths_lift(so3_action):
    here, there = _standing_paths()
    radial = line_path([1.0, 0.0, 0.0], [2.0, 0.0, 0.0])
    H = _so3_model(so3_action)
    develop_paths(so3_action, H, [here, there])
    with pytest.raises(DevelopmentError, match="surjective along path \\(gap"):
        develop_paths(so3_action, H, [here, radial, there])


def test_rank_deficient_square_anchors_take_the_minimum_norm_lift(so3_action):
    # the so(3) anchor on R^3 is square of rank 2: exactly singular along the
    # z = 0 plane, singular up to roundoff at the other points.  The
    # minimum-norm lift of a great-circle arc is the constant rotation rate
    # u x w (up to the anchor's sign), so the developed element is the
    # rotation by angle 1 about it.  No chord stays in the anchor's range,
    # so the lifts are read at stacked arc points and the arcs developed
    # through the oracle's curve segments
    s = math.sqrt(0.5)
    frames = [([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), ([0.0, s, s], [1.0, 0.0, 0.0]),
              ([0.6, 0.0, 0.8], [0.0, 1.0, 0.0])]
    t = np.linspace(0.0, 1.0, 7)[:, None]
    for u, w in frames:
        ms, vs = np.cos(t) * u + np.sin(t) * w, np.cos(t) * w - np.sin(t) * u
        lifts = development._lift_fibers(so3_action.chart.anchor.values(ms), vs)
        # the anchor at m is xi -> m x xi, so the lift is -(u x w); the
        # development's orientation sign turns it back
        assert np.allclose(lifts, -np.cross(u, w), rtol=0, atol=1e-12)
    g, _ = oracles.develop_frames_p(so3_action, _so3_model(so3_action),
                                    [_great_circle_arc(u, w) for u, w in frames])
    for (u, w), gk in zip(frames, g):
        k = np.cross(u, w)
        K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
        rotation = np.eye(3) + math.sin(1.0) * K + (1 - math.cos(1.0)) * K @ K
        assert np.allclose(gk, rotation, rtol=0, atol=1e-10)


def test_a_radial_path_at_a_generic_point_fails_the_lift_gap(so3_action):
    # at a generic point the rank-2 so(3) anchor is singular only up to
    # roundoff, so solve would return a huge lift instead of raising; the
    # lift must still reject the path
    m = np.array([0.6, -0.8, 1.1])
    lift = np.linalg.solve(so3_action.chart.anchor.values([m]), m[None, :, None])
    assert np.all(np.isfinite(lift))
    with pytest.raises(DevelopmentError, match="surjective along path \\(gap"):
        develop_paths(so3_action, _so3_model(so3_action), [line_path(m, 1.3 * m)])


def test_develop_paths_requires_equal_segment_counts(circle):
    with pytest.raises(DevelopmentError, match="same number of segments"):
        develop_paths(circle.cover, circle.homog,
                      [line_path([0.0], [1.0]), polyline_path([[0.0], [0.5], [1.0]])])


def test_develop_paths_refuses_a_path_that_leaves_its_chart(sphere):
    # as transport refuses it; the solve would read the fields off the chart
    m0 = sphere.m0
    path = line_path(m0, m0 + [5.0, 0.0])
    with pytest.raises(TransportError, match="leaves its declared chart"):
        transport_matrix(sphere.rc.chart, path)
    with pytest.raises(DevelopmentError, match="leaves its chart"):
        develop_paths(sphere.rc.chart, sphere.homog, [line_path(m0, m0 + [0.1, 0.0]), path])


def test_develop_paths_refuses_a_discontinuous_path(circle):
    # as transport refuses it; the gap (0.5 to 3.0) is no segment of the path
    gap = BasePath((line_segment(0, [0.0], [0.5]), line_segment(0, [3.0], [3.5])))
    with pytest.raises(TransportError, match="discontinuous"):
        transport_matrix(circle.cover, gap)
    with pytest.raises(DevelopmentError, match="discontinuous"):
        develop_point(circle.cover, circle.homog, gap)
    # a seam within the continuity tolerance still develops, in a batch too
    near = BasePath((line_segment(0, [0.0], [0.5]), line_segment(0, [0.5 + 1e-7], [3.5])))
    joined = polyline_path([[0.0], [0.5], [3.5]])
    assert develop_paths(circle.cover, circle.homog, [near, joined])[0].g.shape == (2, 2)
    with pytest.raises(DevelopmentError, match="discontinuous"):
        develop_paths(circle.cover, circle.homog, [joined, gap])


def test_develop_paths_refuses_a_segment_in_another_chart(torus):
    # the cover has one chart; a segment labelled chart 3 names no chart of it
    other = BasePath((line_segment(3, [0.0, 0.0], [0.2, 0.1]),))
    with pytest.raises(DevelopmentError, match="chart 0"):
        develop_paths(torus.cover, torus.homog, [line_path([0.0, 0.0], [0.1, 0.2]), other])


def _record_reads(monkeypatch):
    """The (lanes, nodes) of each stacked node read of a development."""
    reads = []

    def recording(chart, read, lanes, tau):
        reads.append(tau.shape)
        return fields(chart, read, lanes, tau)
    fields = development._node_fields
    monkeypatch.setattr(development, "_node_fields", recording)
    return reads


def test_development_work_is_independent_of_sample_count(circle, rng, monkeypatch):
    # more samples are more lanes of the same node reads, not more reads
    reads = _record_reads(monkeypatch)
    counts = []
    for k in (4, 12):
        reads.clear()
        equivariance_diagram_check(circle.cover, circle.homog, circle.decks[0], [0.0],
                                   rng.uniform(-0.5, 1.5, (k, 1)))
        assert reads and reads[0] == (1 + 2 * k, ode._FIRST_NODES)
        counts.append([nodes for _, nodes in reads])
    assert counts[0] == counts[1]


def test_develop_paths_at_the_rtol_floor_is_one_solve_of_lanes(torus, monkeypatch):
    # each path meets rtol on its own, so 25 paths at rtol 1e-13 are 25
    # lanes of the same node reads, none of them changed by its batch
    # mates: the torus lanes' elements are constant, so the first two node
    # counts agree and each is one read of all 25 lanes
    reads = _record_reads(monkeypatch)
    paths = [line_path([0.0, 0.0], [0.03 * k, -0.02 * k]) for k in range(25)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = develop_paths(torus.cover, torus.homog, paths, rtol=1e-13)
    first = ode._FIRST_NODES
    assert reads == [(25, first), (25, 2 * first)]
    for k, (path, c) in enumerate(zip(paths, batch)):
        assert np.allclose(c.g[:2, 2], [0.03 * k, -0.02 * k], atol=1e-12)
        assert np.array_equal(c.g, develop_paths(torus.cover, torus.homog, [path],
                                                 rtol=1e-13)[0].g)


def test_an_anchor_failing_the_rank_test_changes_only_its_own_lift(torus):
    # R^2 acting by d_x + d_y and d_x + (1 + y - x) d_y: the anchor's rows
    # are nearly parallel where y - x is below ~1e-8, so Hadamard's test
    # sends that lane to the pseudo-inverse and the other lanes to solve
    def action(xi, m):
        m = as_point(m)
        return [xi[0] + xi[1], xi[0] + xi[1] * (1 + m[1] - m[0])]

    A = make_action_algebroid(torus.cover.algebra, action, Chart((-1.0, -1.0), (1.0, 1.0)))
    near = line_path([-0.5, -0.5 + 1e-8], [-0.2, -0.2 + 1e-8])
    a = A.chart.anchor.values([near.start[1]])[0]
    assert np.linalg.det(a) ** 2 < development._RANK_TOL ** 2 * np.prod(np.sum(a * a, axis=1))
    paths = [line_path([-0.5, 0.3], [0.2, 0.6]), near, line_path([-0.8, 0.1], [-0.1, 0.9])]
    _assert_batch_matches_single_paths(A, torus.homog, paths)


def test_reconstruct_torus_batches_its_developments(torus, monkeypatch):
    batches = []
    frames = development._develop_frames
    monkeypatch.setattr(development, "_develop_frames", lambda A, H, paths, *a, **k:
                        batches.append(len(paths)) or frames(A, H, paths, *a, **k))
    reconstruct_atlas(torus.glued, torus.homog, torus.atlas_spec)
    # one batch: the patch samples (Jacobians included) and the overlaps
    assert batches == [len(development.reconstruct_ends(torus.atlas_spec))]


def test_circle_batch_matches_closed_form(circle):
    # D(theta)[0, 1] = e^theta - 1, out past one turn where it is ~2,400
    thetas = [-0.5, 0.3, 1.7, math.pi, 2 * math.pi, 2 * math.pi + 1.5]
    batch = develop_paths(circle.cover, circle.homog,
                          [line_path([0.0], [t]) for t in thetas])
    for t, c in zip(thetas, batch):
        want = math.expm1(t)
        assert abs(c.g[0, 1] - want) <= 1e-12 * abs(want)


def test_developed_translations_are_exactly_unipotent(circle, torus):
    # each lane's one step exponentiates a nilpotent element by its
    # terminating series, so no diagonal entry leaves 1
    for model in (circle, torus):
        spec = model.atlas_spec
        frames = development.develop_ends(spec.cover, model.homog, spec.m0,
                                          development.reconstruct_ends(spec))
        d = frames.g.shape[-1]
        assert np.array_equal(np.diagonal(frames.g, axis1=1, axis2=2), np.ones((len(frames), d)))
        assert not np.any(np.tril(frames.g, -1))


def test_a_lane_whose_node_counts_disagree_takes_more_nodes(circle, monkeypatch):
    # the integrand theta e^(theta t) of the far lane needs 32 nodes for
    # 16 to agree with them at rtol 1e-12; looser tolerances stop sooner,
    # and every count meets its rtol
    reads = _record_reads(monkeypatch)
    theta = 2 * math.pi + 1.5
    nodes = []
    for rtol in (1e-3, 1e-6, 1e-12):
        reads.clear()
        (c,) = develop_paths(circle.cover, circle.homog, [line_path([0.0], [theta])], rtol=rtol)
        assert abs(c.g[0, 1] - math.expm1(theta)) <= rtol * math.expm1(theta)
        nodes.append([n for _, n in reads])
    first = ode._FIRST_NODES
    assert nodes[-1] == [first * 2 ** k for k in range(5)]
    assert len(nodes[0]) < len(nodes[1]) < len(nodes[2])


def _dop853_development(chart, H, path):
    """(g, Q) at the end of one path from scipy's DOP853 at rtol = atol =
    1e-13 on the pair dQ/dt = Q Gamma(v), dG/dt = Xi G, segment by
    segment, each field read at one point."""
    d, r = H.realization.matrix_dim, chart.rank
    sign = -float(development.bracket_orientation(chart))
    gens = np.stack(H.realization.generators)
    y = np.concatenate([np.eye(r).ravel(), np.eye(d).ravel()])
    for seg in path.segments:
        a, v = seg.a, seg.b - seg.a

        def f(t, y, a=a, v=v):
            m = (a + t * v)[None]
            Q, G = y[:r * r].reshape(r, r), y[r * r:].reshape(d, d)
            gv = np.einsum("iac,i->ac", chart.gamma.values(m)[0], v)
            X = development._lift_fibers(chart.anchor.values(m), v[None])[0]
            Xi = np.einsum("i,iac->ac", sign * (Q @ X), gens)
            return np.concatenate([(Q @ gv).ravel(), (Xi @ G).ravel()])
        with warnings.catch_warnings():
            # scipy raises an rtol below 100 eps to that floor, with a warning
            warnings.simplefilter("ignore", UserWarning)
            y = scipy.integrate.solve_ivp(f, (0.0, 1.0), y, method="DOP853",
                                          rtol=1e-13, atol=1e-13).y[:, -1]
    return y[r * r:].reshape(d, d), y[:r * r].reshape(r, r)


def _relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_sphere_polylines_match_the_p_frame_and_scipy_solves(sphere):
    # the TM+h chart has Gamma != 0, so every lane takes Magnus steps of
    # the pair (Q, G) under its own step control
    rng = np.random.default_rng(3)
    m0 = sphere.m0
    paths = [polyline_path([m0, m0 + a, m0 + a + b]) for a, b in rng.uniform(-0.3, 0.3, (4, 2, 2))]
    chart, H = sphere.rc.chart, sphere.homog
    g, Q = development._develop_frames(chart, H, paths)
    g_p, P = oracles.develop_frames_p(chart, H, paths)
    assert min(np.max(np.abs(q - np.eye(3))) for q in Q) > 1e-2
    for k, path in enumerate(paths):
        assert _relative_gap(g[k], g_p[k]) <= 1e-11
        assert _relative_gap(Q[k], np.linalg.inv(P[k])) <= 1e-11
        g_s, Q_s = _dop853_development(chart, H, path)
        assert _relative_gap(g[k], g_s) <= 1e-11 and _relative_gap(Q[k], Q_s) <= 1e-11


def _affine_half_plane():
    """aff(1), [e0, e1] = e0, acting on the plane by e0 = d_x and
    e1 = x d_x + d_y, with its model the ax + b group.  Gamma = 0; the lift
    of a velocity v at (x, y) is (v_x - x v_y, v_y), constant along a
    horizontal segment and turning along any other, where the elements do
    not commute."""
    c = np.zeros((2, 2, 2))
    c[0, 1, 0], c[1, 0, 0] = 1.0, -1.0
    g0 = algebra.LieAlgebra(c)
    A = make_action_algebroid(g0, lambda xi, m: [xi[0] + xi[1] * m[0], xi[1] + 0.0 * m[1]],
                              Chart((-2.0, -2.0), (2.0, 2.0)))
    R = MatrixRealization(g0, (np.array([[0.0, 1.0], [0.0, 0.0]]),
                               np.array([[-1.0, 0.0], [0.0, 0.0]])))
    return A, HomogeneousModel(g0, R, Subalgebra(g0, ()))


def test_a_batch_mixes_one_step_and_stepped_lanes(monkeypatch):
    A, H = _affine_half_plane()
    level = [line_path([-0.5, 1.0], [1.2, 1.0]), line_path([0.3, -1.6], [-1.4, -1.6])]
    rising = [line_path([-0.5, 1.0], [0.7, 1.8]), line_path([1.0, -0.8], [-0.2, 1.5])]
    paths = [level[0], rising[0], level[1], rising[1]]
    reads = _record_reads(monkeypatch)
    g, _ = development._develop_frames(A, H, paths)
    first = ode._FIRST_NODES
    # the level lanes take one step, the rising lanes Magnus steps, each
    # trial read at the nodes of the step and of its two halves
    assert reads[:2] == [(4, first), (2, 2 * first)]
    assert {nodes for _, nodes in reads[2:]} == {3 * ode._STEP_NODES}
    _assert_batch_matches_single_paths(A, H, paths)
    g_p, _ = oracles.develop_frames_p(A, H, paths)
    assert all(_relative_gap(a, b) <= 1e-11 for a, b in zip(g, g_p))
    # a level lane develops into a translation, exactly unipotent
    for k in (0, 2):
        assert g[k][1, 1] == 1.0 and g[k][0, 0] == 1.0 and g[k][1, 0] == 0.0


def _fd_development_jacobian(A, H, m0, m, h=1e-5, rtol=1e-10):
    """Central differences of the h0-orthogonal log coordinates of
    D(m)^-1 D(m +- h e_k), all developments in one batch."""
    m = np.asarray(m, dtype=float)
    n = len(m)
    ends = [m, *(m + h * np.eye(n)), *(m - h * np.eye(n))]
    base, *moved = develop_paths(A, H, [line_path(m0, e) for e in ends], rtol=rtol)
    P = H.h0_projector
    keep = np.linalg.norm(P, axis=1) > 1e-12

    def coords(c):
        lr = algebra.log_matrix(H.realization, np.linalg.solve(base.g, c.g))
        return (P @ lr.coords)[keep]

    return np.stack([(coords(moved[k]) - coords(moved[n + k])) / (2 * h)
                     for k in range(n)], axis=1)


def test_development_jacobian_matches_finite_differences(circle, torus, sphere):
    # sphere2's TM+h chart has a nontrivial parallel frame and isotropy
    assert sphere.homog.h0.dim == 1
    cases = [(circle.cover, circle.homog, [0.0], [0.8]),
             (circle.cover, circle.homog, [0.0], [-0.4]),
             (torus.cover, torus.homog, [0.0, 0.0], [0.3, -0.2]),
             (sphere.rc.chart, sphere.homog, sphere.m0, sphere.m0 + [0.15, -0.1]),
             (sphere.rc.chart, sphere.homog, sphere.m0, sphere.m0 + [-0.12, 0.2])]
    for A, H, m0, m in cases:
        J = development_jacobian(A, H, m0, m)
        assert J.shape == (len(m), len(m))
        assert np.max(np.abs(J - _fd_development_jacobian(A, H, m0, m))) < 1e-8


def test_development_jacobian_circle_closed_form(circle):
    J = development_jacobian(circle.cover, circle.homog, [0.0], [0.8])
    assert abs(J[0, 0] - math.exp(0.8)) < 1e-10


def test_path_independence_counterexample(circle):
    p1 = line_path([0.0], [1.3])
    p2 = polyline_path([[0.0], [0.52], [1.3]])
    assert path_independence_check(circle.cover, circle.homog, p1, p2) < 1e-9


def test_path_independence_requires_matching_endpoints(circle):
    with pytest.raises(DevelopmentError):
        path_independence_check(circle.cover, circle.homog,
                                line_path([0.0], [1.0]), line_path([0.0], [1.1]))


def test_path_independence_sphere_mod_isotropy(sphere):
    m0 = sphere.m0
    p1 = line_path(m0, m0 + [0.25, 0.2])
    p2 = polyline_path([m0, m0 + [0.0, 0.2], m0 + [0.25, 0.2]])
    res = path_independence_check(sphere.rc.chart, sphere.homog, p1, p2)
    assert res < 1e-9
    # the full group elements genuinely differ by an isotropy element
    g1 = develop_point(sphere.rc.chart, sphere.homog, p1)
    g2 = develop_point(sphere.rc.chart, sphere.homog, p2)
    assert np.max(np.abs(g1.g - g2.g)) > 1e-3


def test_development_jacobian_counterexample(circle):
    J = development_jacobian(circle.cover, circle.homog, [0.0], [0.8])
    assert abs(J[0, 0] - math.exp(0.8)) < 1e-5


def test_integrated_twist_matches_exp_conjugation(circle):
    H = circle.homog
    mu = _twist(H, circle.decks[0])
    g = algebra.exp_matrix(H.realization, [0.3])
    out = integrated_twist(H, mu, g)
    want = algebra.exp_matrix(H.realization, mu([0.3]))
    assert np.max(np.abs(out - want)) < 1e-12


def test_integrated_twist_of_large_elements(sphere):
    # a 2.4 rad rotation: its principal log takes square roots first
    H = sphere.homog
    mu = AlgebraMap(H.algebra, H.algebra, np.eye(3))
    g = algebra.exp_matrix(H.realization, [0.0, 2.4, 0.0])
    out = integrated_twist(H, mu, g)
    assert np.max(np.abs(out - g)) < 1e-9


def test_integrated_twist_refuses_a_log_off_the_algebra():
    # the line as rotations at speeds 1 and 2: at t = 2 the second block has
    # turned 4 rad, whose principal log is 4 - 2 pi, off span(G)
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    G = np.block([[J, np.zeros((2, 2))], [np.zeros((2, 2)), 2 * J]])
    line = algebra.abelian(1)
    H = HomogeneousModel(line, MatrixRealization(line, (G,)), Subalgebra(line, ()))
    mu = AlgebraMap(line, line, np.eye(1))
    g = algebra.exp_matrix(H.realization, [1.0])
    assert np.max(np.abs(integrated_twist(H, mu, g) - g)) < 1e-12
    with pytest.raises(DevelopmentError, match="no principal log in the algebra"):
        integrated_twist(H, mu, algebra.exp_matrix(H.realization, [2.0]))


def test_sphere_coset_residual_beyond_a_third_of_a_turn(sphere):
    # the coset distance of I and exp(1.2 e2) from H0 = exp(span e3) is the
    # angle, though rho(g - I) = 2 sin(0.6) > 1
    H = sphere.homog
    g = algebra.exp_matrix(H.realization, [0.0, 1.2, 0.0])
    assert abs(coset_residual(Coset(np.eye(3), H), Coset(g, H)) - 1.2) <= 1e-12


def test_induced_affine_map_identity(circle):
    H = circle.homog
    E = _identity(circle.cover)
    q = develop_point(circle.cover, H, line_path([0.0], [0.0]))
    aff = induced_affine_map(E, H, q)
    c = develop_point(circle.cover, H, line_path([0.0], [0.9]))
    assert coset_residual(aff(c), c) < 1e-10


def test_induced_affine_map_counterexample_formula(circle):
    # x -> e^{2 pi} x + (e^{2 pi} - 1) on the developed line
    H = circle.homog
    q = develop_point(circle.cover, H, line_path([0.0], [2 * math.pi]))
    aff = induced_affine_map(circle.decks[0], H, q)
    for x in (0.0, -0.3, 2.0):
        c = develop_point(circle.cover, H, line_path([0.0], [math.log(1 + x)]))
        img = aff(c)
        want = E2PI * x + (E2PI - 1.0)
        assert abs(img.g[0, 1] - want) < 1e-6 * max(1.0, abs(want))


def test_induced_affine_map_composition_law(circle):
    # map of the composition equals composition of the maps
    H = circle.homog
    A = circle.cover
    deck = circle.decks[0]
    deck2 = deck.compose(deck)
    q1 = develop_point(A, H, line_path([0.0], deck(np.zeros(1))))
    aff1 = induced_affine_map(deck, H, q1)
    q2 = develop_point(A, H, line_path([0.0], deck2(np.zeros(1))))
    aff2 = induced_affine_map(deck2, H, q2)
    composed = aff1.compose(aff1)
    for x in (-0.2, 0.5):
        c = develop_point(A, H, line_path([0.0], [x]))
        assert coset_residual(aff2(c), composed(c)) < 1e-6


def test_induced_affine_map_group_equivariance(circle):
    # phi(g . x) = mu_hat(g) . phi(x) for g near the identity
    H = circle.homog
    q = develop_point(circle.cover, H, line_path([0.0], [2 * math.pi]))
    aff = induced_affine_map(circle.decks[0], H, q)
    for s in (0.07, -0.11):
        g = algebra.exp_matrix(H.realization, [s])
        x = develop_point(circle.cover, H, line_path([0.0], [0.4]))
        lhs = aff(development.Coset(g @ x.g, H))
        rhs = development.Coset(
            integrated_twist(H, _twist(H, circle.decks[0]), g) @ aff(x).g, H)
        assert coset_residual(lhs, rhs) < 1e-8


def test_lemma_b_guard_rejects_inconsistent_inputs(sphere):
    # a twist that does not normalize the isotropy through q must be refused
    H = sphere.homog
    bad_twist = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    E = AffineCocycleEntry(np.eye(2), np.zeros(2), bad_twist)
    q = development.Coset(algebra.exp_matrix(H.realization, [0.9, 0.0, 0.0]), H)
    with pytest.raises(DevelopmentError):
        induced_affine_map(E, H, q)


def _lemma_diagram(model, deck, a, b):
    """Matrix residual of: developing the deck image of the segment a -> b
    equals applying the integrated twist to its development.  The decks
    are translations, so the image is the segment phi(a) -> phi(b)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    g, g_img = develop_paths(model.cover, model.homog,
                             [line_path(a, b), line_path(deck(a), deck(b))])
    return np.max(np.abs(g_img.g - integrated_twist(model.homog, _twist(model.homog, deck),
                                                    g.g)))


def test_lemma_diagram_counterexample_matrix_level(circle):
    assert _lemma_diagram(circle, circle.decks[0], [0.0], [1.1]) < 1e-6


def test_lemma_diagram_torus(torus):
    assert _lemma_diagram(torus, torus.decks[1], [0.0, 0.0], [0.4, 0.3]) < 1e-9


def test_equivariance_diagram_counterexample(circle, rng):
    pts = rng.uniform(-0.5, 1.5, (10, 1))
    rep = equivariance_diagram_check(circle.cover, circle.homog, circle.decks[0],
                                     [0.0], pts)
    assert rep.passed and rep.max_residual < 1e-5


def test_equivariance_diagram_torus(torus, rng):
    pts = rng.uniform(-0.5, 0.5, (10, 2))
    for deck in torus.decks:
        rep = equivariance_diagram_check(torus.cover, torus.homog, deck,
                                         [0.0, 0.0], pts)
        assert rep.passed


def test_equivariance_diagram_identity_map(torus, rng):
    E = _identity(torus.cover)
    rep = equivariance_diagram_check(torus.cover, torus.homog, E, [0.0, 0.0],
                                     rng.uniform(-0.4, 0.4, (4, 2)))
    assert rep.max_residual < 1e-12


def test_equivariance_diagram_sphere_rotation(sphere):
    C, H, m0 = sphere.rc.chart, sphere.homog, sphere.m0
    shift = np.array([0.0, 0.25])
    samples = np.stack([m0 + [0.1, -0.1], m0 + [-0.12, 0.08]])
    tw = fit_twist(C, lambda m: np.asarray(m, dtype=object) + shift, m0, samples)
    assert algebra.is_automorphism(tw.source, tw, tol=1e-8).passed
    rep = equivariance_diagram_check(C, H, AffineCocycleEntry(np.eye(2), shift, tw.matrix),
                                     m0, samples)
    assert rep.passed and rep.max_residual < 1e-5


def test_closure_probe_trivial_and_asserted(circle):
    rep = geometric_closure_probe(circle.homog)
    assert rep.verdict == "closed"
    H_unasserted = HomogeneousModel(circle.homog.algebra, circle.homog.realization,
                                    circle.homog.h0)
    assert geometric_closure_probe(H_unasserted).verdict == "closed"


def test_closure_probe_irrational_winding():
    ab2 = algebra.abelian(2)

    def rot(wa, wb):
        g = np.zeros((4, 4))
        g[0, 1], g[1, 0] = -wa, wa
        g[2, 3], g[3, 2] = -wb, wb
        return g

    real = MatrixRealization(ab2, (rot(1.0, 0.0), rot(0.0, 1.0)))
    bad = HomogeneousModel(ab2, real,
                           Subalgebra(ab2, (np.array([1.0, math.sqrt(2.0)]),)))
    rep = geometric_closure_probe(bad)
    assert rep.verdict == "nonclosed-witness"
    assert rep.witness is not None
    good = HomogeneousModel(ab2, real,
                            Subalgebra(ab2, (np.array([2.0, 3.0]),)))
    assert geometric_closure_probe(good).verdict == "closed"


def test_closure_probe_sphere_isotropy_via_frequencies(sphere):
    H = HomogeneousModel(sphere.homog.algebra, sphere.homog.realization,
                         sphere.homog.h0, closure="unknown")
    rep = geometric_closure_probe(H)
    assert rep.verdict == "closed"


def test_closure_probe_undecided_for_nonskew():
    aff = oracles.affine_line()
    gens = (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    real = MatrixRealization(aff, gens)
    H = HomogeneousModel(aff, real, Subalgebra(aff, (np.array([1.0, 0.0]),)))
    assert geometric_closure_probe(H).verdict == "undecided"


def test_reconstruct_circle_atlas(circle):
    atlas = reconstruct_atlas(circle.glued, circle.homog, circle.atlas_spec)
    assert atlas.passed
    assert atlas.jacobian_min_abs_det >= 1e-6
    mults = [float(np.max(np.abs(t.affine_matrix))) for t in atlas.transitions]
    assert any(abs(m - 1.0) < 1e-9 for m in mults)
    twisted = max(mults)
    assert abs(twisted - E2PI) / E2PI < 1e-6
    offsets = {round(float(t.affine_offset[0]), 4) for t in atlas.transitions}
    assert round(E2PI - 1.0, 4) in offsets


def test_reconstruct_torus_atlas(torus):
    atlas = reconstruct_atlas(torus.glued, torus.homog, torus.atlas_spec)
    assert atlas.passed
    for t in atlas.transitions:
        assert np.max(np.abs(t.affine_matrix - np.eye(2))) < 1e-8
    shifts = sorted(round(float(np.max(np.abs(t.affine_offset))), 6)
                    for t in atlas.transitions)
    assert shifts == [0.0, 0.0, 1.0, 1.0]


def test_reconstruct_single_chart_trivial(torus):
    spec = development.CoverSpec(torus.cover, np.zeros(2),
                                 (torus.atlas_spec.patches[0],), ())
    atlas = reconstruct_atlas(torus.glued, torus.homog, spec)
    assert atlas.passed and not atlas.transitions


def test_a_reconstruction_of_no_patch_and_no_overlap_is_refused(torus):
    # it would develop nothing and pass
    spec = development.CoverSpec(torus.cover, np.zeros(2), (), ())
    with pytest.raises(DevelopmentError, match="reconstructs nothing"):
        reconstruct_atlas(torus.glued, torus.homog, spec)


def test_reconstruct_refuses_nonclosed(circle):
    H = HomogeneousModel(circle.homog.algebra, circle.homog.realization,
                         circle.homog.h0, closure="asserted-nonclosed")
    with pytest.raises(DevelopmentError):
        reconstruct_atlas(circle.glued, H, circle.atlas_spec)


def test_reconstruct_refuses_rank_mismatch(circle, torus):
    with pytest.raises(DevelopmentError):
        reconstruct_atlas(torus.glued, circle.homog, circle.atlas_spec)


def test_a_nan_action_after_the_first_point_fails_the_equivariant_twist(
        circle, nan_after_first_point):
    # the check reads the action through the anchor of its chart
    C = circle.cover.chart
    A = ActionAlgebroid(circle.cover.algebra,
                        AlgebroidChart(C.base, C.rank, nan_after_first_point(C.anchor),
                                       C.gamma, C.torsion))
    rep = check_equivariant_twist(A, _identity(A),
                                  samples=[[0.1], [0.4], [0.7]])
    assert rep.per_point[0] == 0.0 and math.isnan(rep.per_point[1])
    assert math.isnan(rep.max_residual) and not rep.passed


def _nan_after_the_first_lane(monkeypatch):
    """Make every stacked coset residual NaN after its first lane; returns
    the list of (real residuals, stack length) per call."""
    real, calls = development.coset_residual, []

    def nan_after_first(a, b):
        res = np.array(real(a, b), dtype=float)
        calls.append((res.copy(), res.size))
        res[1:] = math.nan
        return res
    monkeypatch.setattr(development, "coset_residual", nan_after_first)
    return calls


def test_a_nan_coset_residual_after_the_first_sample_fails_the_diagram(circle, monkeypatch):
    calls = _nan_after_the_first_lane(monkeypatch)
    rep = equivariance_diagram_check(circle.cover, circle.homog, circle.decks[0], [0.0],
                                     [[0.2], [0.5], [0.9]])
    # the circle's h0 is trivial, so the induced map reads no residual; the
    # diagram reads one stack of three
    assert [size for _, size in calls] == [3]
    assert rep.per_point[0] == calls[0][0][0] < 1e-5
    assert math.isnan(rep.max_residual) and not rep.passed


def test_a_nan_residual_after_the_first_generator_refuses_the_induced_map(monkeypatch):
    aff = oracles.affine_line()
    gens = (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    H = HomogeneousModel(aff, MatrixRealization(aff, gens),
                         Subalgebra(aff, (np.array([1.0, 0.0]),)))
    E, q = AffineCocycleEntry.identity(1, 2), Coset(np.eye(2), H)
    assert induced_affine_map(E, H, q).consistency_residual < 1e-12
    calls = _nan_after_the_first_lane(monkeypatch)
    with pytest.raises(DevelopmentError, match="residual nan"):
        induced_affine_map(E, H, q)
    # one stack: h0's one generator at two steps
    assert [size for _, size in calls] == [2] and calls[0][0][0] < 1e-12


# numpy warns of the NaN it is given; the check must still fail
@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
def test_a_nan_jacobian_after_the_first_patch_fails_reconstruct(torus, monkeypatch):
    real, calls = development._frame_jacobian, []

    def nan_second_patch(*args):
        J = real(*args)
        calls.append(len(J))
        J[1] = math.nan
        return J
    monkeypatch.setattr(development, "_frame_jacobian", nan_second_patch)
    atlas = reconstruct_atlas(torus.glued, torus.homog, torus.atlas_spec)
    # one stacked call reads the four patches' Jacobians
    assert calls == [4]
    assert math.isnan(atlas.jacobian_min_abs_det) and not atlas.passed


def test_an_equivariance_diagram_over_no_sample_is_refused(torus):
    # over no sample the diagram would compare nothing and pass
    with pytest.raises(GeometryError, match="no sample points"):
        equivariance_diagram_check(torus.cover, torus.homog, torus.decks[0],
                                   torus.atlas_spec.m0, [])
