"""Triangulation, the unfold update and fast marching."""
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ksurf import (
    CurvatureFamily,
    CurvatureSpec,
    IterationConfig,
    SectorSpec,
    dijkstra_bound,
    fast_march,
    geodesic_provider,
    global_vertex_ids,
    origin_vertex,
    patch_sectors,
    symmetric_angles,
    triangulate_complex,
    trimesh_from_quads,
    unfold_candidate,
)

import ksurf.geodesic
import geodesic_oracle as oracle
import mesh_oracle
from conftest import WORKLOADS, build_patched, build_surgery_m3, build_workload
from ksurf.amsler import RaySpec, sweep_runs
from ksurf.mesh import quad_table
from ksurf.surgery import FanAxes


def _max_angle(p, q, r):
    def at(a, b, c):
        u, v = b - a, c - a
        cosv = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        return math.acos(min(1.0, max(-1.0, cosv)))
    return max(at(p, q, r), at(q, r, p), at(r, p, q))


def _flat_grid(n, h):
    """Unit-square style grid: vertex (i, j) -> index i * (n + 1) + j."""
    verts = np.array([[i * h, j * h, 0.0]
                      for i in range(n + 1) for j in range(n + 1)])
    vid = lambda i, j: i * (n + 1) + j
    quads = [(vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1))
             for i in range(n) for j in range(n)]
    return verts, quads


def split_quad(p00, p10, p01, p11):
    """(tris, max_angle) of one quad, from the array kernel."""
    use_b, worst, _ = ksurf.geodesic._split_quads(np.array([[p00, p10, p01, p11]], dtype=float))
    return ksurf.geodesic._SPLITS[int(use_b[0])], float(worst[0])


def test_split_quad_tie_prefers_grid_diagonal():
    square = [np.array(p, dtype=float) for p in
              [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]]
    tris, worst = split_quad(*square)
    assert tris == ((0, 1, 3), (0, 3, 2))
    assert worst == pytest.approx(math.pi / 2)
    # a 2x1 rectangle also ties at pi/2 between the two diagonals
    rect = [np.array(p, dtype=float) for p in
            [(0, 0, 0), (2, 0, 0), (0, 1, 0), (2, 1, 0)]]
    tris, worst = split_quad(*rect)
    assert tris == ((0, 1, 3), (0, 3, 2))
    assert worst == pytest.approx(math.pi / 2)


def test_split_quad_picks_smaller_max_angle():
    # pulling one corner out makes the diagonals inequivalent
    pts = [np.array(p, dtype=float) for p in
           [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2.5, 2.0, 0)]]
    tris, worst = split_quad(*pts)
    enumerated = []
    for opt in (((0, 1, 3), (0, 3, 2)), ((0, 1, 2), (1, 3, 2))):
        enumerated.append(max(_max_angle(*(pts[c] for c in tri)) for tri in opt))
    assert worst == pytest.approx(min(enumerated))
    assert tris == (((0, 1, 3), (0, 3, 2)) if enumerated[0] <= enumerated[1]
                    else ((0, 1, 2), (1, 3, 2)))


@given(
    x=st.floats(0.3, 3.0), y=st.floats(0.3, 3.0),
    dx=st.floats(-0.8, 0.8), dy=st.floats(-0.8, 0.8),
)
@settings(max_examples=50, deadline=None)
def test_split_quad_matches_enumeration(x, y, dx, dy):
    pts = [np.array(p, dtype=float) for p in
           [(0, 0, 0), (x, 0, 0), (0, y, 0), (x + dx, y + dy, 0)]]
    try:
        tris, worst = split_quad(*pts)
    except ValueError:
        assume(False)
    best = min(max(_max_angle(*(pts[c] for c in tri)) for tri in opt)
               for opt in (((0, 1, 3), (0, 3, 2)), ((0, 1, 2), (1, 3, 2))))
    assert worst == pytest.approx(best, abs=1e-12)


def test_split_quad_degenerate():
    z = np.zeros(3)
    with pytest.raises(ValueError):
        split_quad(z, z, np.array([0.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0]))


def test_unfold_source_at_corner():
    # source sitting on corner k: the answer is just the i-k edge
    assert unfold_candidate(1.0, 0.0, math.sqrt(0.5), math.sqrt(0.5), 1.0) \
        == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_unfold_equilateral_through_value():
    # equilateral triangle, source mirrored below the far edge: the ray
    # passes through the triangle and spans twice the height
    got = unfold_candidate(1.0, 1.0, 1.0, 1.0, 1.0)
    assert got == pytest.approx(2.0 * math.sqrt(0.75), abs=1e-15)


def test_unfold_collinear_source():
    # source on the far edge itself (Dj + Dk = Djk): reconstruction puts it
    # on the line, 0.6 from k, still beating the edge detours
    got = unfold_candidate(0.4, 0.6, 1.2, 0.8, 1.0)
    xi = (0.8 ** 2 - 1.2 ** 2 + 1.0) / 2.0
    yi = math.sqrt(0.8 ** 2 - xi ** 2)
    expected = math.hypot(xi - 0.6, yi)
    assert got == pytest.approx(expected, abs=1e-14)
    assert got < min(0.4 + 1.2, 0.6 + 0.8)
    # collinear beyond k (Dj = Dk + Djk): the line from the source meets the
    # edge's axis at the source, outside the edge, so the detour through k wins
    assert unfold_candidate(2.0, 1.0, 1.2, 0.8, 1.0) == 1.0 + 0.8


def test_unfold_infeasible_falls_back_to_edges():
    # |Dj - Dk| > Djk: no planar position exists for the source, so the
    # edge-path minimum is returned
    got = unfold_candidate(3.0, 1.0, 1.0, 1.2, 1.0)
    assert got == pytest.approx(min(3.0 + 1.0, 1.0 + 1.2), abs=1e-15)


def test_unfold_rejects_bad_triangle():
    with pytest.raises(ValueError):
        unfold_candidate(1.0, 1.0, 0.0, 1.0, 1.0)


@given(
    xo=st.floats(-2.0, 3.0), yo=st.floats(-3.0, -0.05),
    xi=st.floats(-2.0, 3.0), yi=st.floats(0.05, 3.0),
    djk=st.floats(0.4, 3.0),
)
@settings(max_examples=80, deadline=None)
def test_unfold_reconstructs_planar_distances(xo, yo, xi, yi, djk):
    """Feed distances measured in a plane; the candidate must match the causal minimum."""
    j = np.array([0.0, 0.0])
    k = np.array([djk, 0.0])
    o = np.array([xo, yo])
    i = np.array([xi, yi])
    Dj, Dk = np.linalg.norm(o - j), np.linalg.norm(o - k)
    Dij, Dik = np.linalg.norm(i - j), np.linalg.norm(i - k)
    assume(min(Dij, Dik) > 0.05)
    # the straight line counts only where it crosses the edge jk
    crossing = xo + (xi - xo) * yo / (yo - yi)
    through = float(np.linalg.norm(i - o)) if 0.0 <= crossing <= djk else math.inf
    expected = min(through, Dj + Dij, Dk + Dik)
    case = (float(Dj), float(Dk), float(Dij), float(Dik), djk)
    got = unfold_candidate(*case)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == oracle._unfold(*case)[0]


UNFOLD_CASES = [
    (1.0, 0.0, math.sqrt(0.5), math.sqrt(0.5), 1.0),   # source at corner k
    (1.0, 1.0, 1.0, 1.0, 1.0),                         # equilateral, tied edge paths
    (2.0, 1.0, 1.2, 0.8, 1.0),                         # collinear source, disc_o = 0
    (0.4, 0.6, 1.2, 0.8, 1.0),                         # source on the edge jk
    # the line from the source to i passes through k, then through j: the
    # unfold ties the edge path there and the crossing sits on an end
    (math.sqrt(1.85), 0.5, math.sqrt(0.8), 1.0, 1.0),
    (0.5, math.sqrt(1.85), 1.0, math.sqrt(0.8), 1.0),
    (3.0, 1.0, 1.0, 1.2, 1.0),                         # infeasible, edge fallback
    # the nearer corner's edge path (1.87) is below Dk: a march seeded at j
    # and k together would accept i from that edge before unfolding
    (0.8511981163386722, 2.87778793714727, 1.0208049516751676, 2.454570562839132,
     2.6055840936026575),
]


def _near_ties():
    """Every case, and each of its five arguments moved by -1e-13 and +1e-13."""
    for case in UNFOLD_CASES:
        yield case
        for k in range(5):
            for step in (-1e-13, 1e-13):
                yield case[:k] + (case[k] + step,) + case[k + 1:]


def test_unfold_candidate_matches_scalar_oracle_on_near_ties():
    for case in _near_ties():
        assert unfold_candidate(*case) == oracle._unfold(*case)[0], case


def test_flat_grid_march_is_euclidean():
    n, h = 16, 1.0 / 16.0
    verts, quads = _flat_grid(n, h)
    m = trimesh_from_quads(verts, quads)
    res = fast_march(m, [(0, 0.0)])
    exact = np.linalg.norm(verts, axis=1)
    assert np.abs(res.d - exact).max() < 1e-9
    assert res.d[-1] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert res.unreachable == []
    # acceptance order never decreases
    accepted = res.d[np.array(res.order)]
    assert (np.diff(accepted) >= -1e-12).all()


def test_flat_grid_multi_source():
    n, h = 16, 1.0 / 16.0
    verts, quads = _flat_grid(n, h)
    m = trimesh_from_quads(verts, quads)
    far_corner = len(verts) - 1
    res = fast_march(m, [(0, 0.0), (far_corner, 0.0)])
    exact = np.minimum(np.linalg.norm(verts, axis=1),
                       np.linalg.norm(verts - verts[far_corner], axis=1))
    center = (n // 2) * (n + 1) + n // 2
    assert res.d[center] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)
    # Where the two fronts collide (the anti-diagonal band) the unfold mixes
    # distances from different sources into one phantom origin and lands a
    # little short; away from that band the reconstruction induction is exact.
    err = np.abs(res.d - exact).reshape(n + 1, n + 1)
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    off_ridge = np.abs(ii + jj - n) >= 2
    assert err[off_ridge].max() < 1e-9
    assert err.max() < 0.03


def test_march_with_weighted_source():
    verts, quads = _flat_grid(8, 0.125)
    m = trimesh_from_quads(verts, quads)
    res = fast_march(m, [(0, 0.25)])
    assert res.d[0] == 0.25
    assert res.d.min() == 0.25
    accepted = res.d[np.array(res.order)]
    assert (np.diff(accepted) >= -1e-12).all()
    upper = dijkstra_bound(m, [(0, 0.25)])
    assert (res.d <= upper + 1e-12).all()
    with pytest.raises(ValueError):
        fast_march(m, [(0, -0.1)])


def test_march_all_sources_zero():
    verts, quads = _flat_grid(4, 0.25)
    m = trimesh_from_quads(verts, quads)
    res = fast_march(m, [(v, 0.0) for v in range(len(verts))])
    assert np.all(res.d == 0.0)


def test_unreachable_vertex_reported():
    verts, quads = _flat_grid(4, 0.25)
    verts = np.vstack([verts, [10.0, 10.0, 0.0]])
    m = trimesh_from_quads(verts, quads)
    res = fast_march(m, [(0, 0.0)])
    assert res.unreachable == [len(verts) - 1]
    assert math.isinf(res.d[-1])


def test_dijkstra_bounds_march_from_above():
    cx = build_patched("LINEAR", 1.0, 2, 0.5, 6)
    m = triangulate_complex(cx)
    src = origin_vertex(cx, m)
    res = fast_march(m, [(src, 0.0)])
    upper = dijkstra_bound(m, [(src, 0.0)])
    assert (res.d <= upper + 1e-12).all()
    accepted = res.d[np.array(res.order)]
    assert (np.diff(accepted) >= -1e-12).all()


def _straight_rays(cx, m):
    """Vertex ids along every base ray and fan axis of ``cx``, each from its anchor."""
    sides = [(sid, side) for rec in cx.boundaries if isinstance(rec, RaySpec)
             for sid, side in rec.sides]
    # fan k's column is axis k; the last fan's column is an inherited curve
    sides += [(sid, "col") for rec in cx.boundaries if isinstance(rec, FanAxes)
              for sid in rec.fans[:-1]]
    return [m.node_ids[sid][:, 0] if side == "row" else m.node_ids[sid][0, :]
            for sid, side in sides]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_march_is_arc_length_along_straight_rays(name):
    # a straight ray is the shortest path between its nodes, and the march
    # from its anchor can follow its edges, so D is exactly its arc length
    cx = build_workload(name)
    m = triangulate_complex(cx)
    rays = _straight_rays(cx, m)
    marches = {}
    for ids in rays:
        assert (ids >= 0).all()
        anchor = int(ids[0])
        if anchor not in marches:
            marches[anchor] = fast_march(m, [(anchor, 0.0)]).d
        step = np.diff(m.vertices[ids], axis=0)
        arc = np.concatenate([[0.0], np.cumsum(np.sqrt(np.vecdot(step, step)))])
        assert np.abs(marches[anchor][ids] - arc).max() <= 1e-12
    assert len(marches) == (3 if name == "branch" else 1)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_march_never_goes_below_the_chord(name):
    cx = build_workload(name)
    m = triangulate_complex(cx)
    rng = np.random.default_rng(5)
    sources = [origin_vertex(cx, m), *rng.choice(m.n_vertices, 4, replace=False).tolist()]
    for src in sources:
        res = fast_march(m, [(src, 0.0)])
        chord = np.linalg.norm(m.vertices - m.vertices[src], axis=1)
        assert (res.d >= chord - 1e-12).all(), (name, src, float((chord - res.d).max()))
        assert (res.d <= dijkstra_bound(m, [(src, 0.0)]) + 1e-12).all()


@pytest.mark.parametrize("shift", [0.0, 0.6, 1.5])
def test_planar_march_is_bracketed_by_euclid_and_dijkstra(shift):
    # Row i of the grid (the nodes at x = i h) moves by shift * i cells along
    # x, and every node by up to 0.2 cell: about half the triangles are
    # obtuse. The Euclidean distance from the centre is exact.
    n, h = 40, 1.0 / 40
    rng = np.random.default_rng(11)
    verts, quads = _flat_grid(n, h)
    verts[:, :2] += rng.uniform(-0.2 * h, 0.2 * h, (len(verts), 2))
    verts[:, 0] += shift * h * np.repeat(np.arange(n + 1), n + 1)
    m = trimesh_from_quads(verts, quads)
    assert m.obtuse_count > 0.4 * len(m.tris)
    centre = (n // 2) * (n + 1) + n // 2
    res = fast_march(m, [(centre, 0.0)])
    euclid = np.linalg.norm(verts - verts[centre], axis=1)
    assert (res.d >= euclid - 1e-12).all(), float((euclid - res.d).max())
    assert (res.d <= dijkstra_bound(m, [(centre, 0.0)]) + 1e-12).all()


def test_dijkstra_on_single_quad():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    m = trimesh_from_quads(verts, [(0, 1, 2, 3)])
    d = dijkstra_bound(m, [(0, 0.0)])
    assert d[1] == pytest.approx(1.0)
    assert d[2] == pytest.approx(1.0)
    assert d[3] == pytest.approx(math.sqrt(2.0))  # grid diagonal edge


@pytest.mark.parametrize("quad,bad", [((0, 1, 2, -1), "[0, 1, 2, -1]"),
                                      ((0, 1, 2, 4), "[0, 1, 2, 4]")])
def test_trimesh_from_quads_rejects_index_outside_the_vertices(quad, bad):
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    message = f"quad 1 {bad} has an index outside 0..3"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trimesh_from_quads(verts, [(0, 1, 2, 3), quad])


@pytest.mark.parametrize("solver", [fast_march, dijkstra_bound])
@pytest.mark.parametrize("source", [-1, 4])
def test_march_rejects_a_source_outside_the_vertices(solver, source):
    # -1 would wrap to the last vertex, 4 would be a bare IndexError
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    m = trimesh_from_quads(verts, [(0, 1, 2, 3)])
    message = f"source vertex {source} outside 0..3"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solver(m, [(0, 0.0), (source, 0.0)])


@pytest.mark.parametrize("solver", [fast_march, dijkstra_bound])
@pytest.mark.parametrize("d0", [math.nan, math.inf, -1.0])
def test_march_rejects_a_source_distance_that_is_not_finite_and_nonnegative(solver, d0):
    # a NaN source would leave D at inf everywhere, a negative one would put D below 0
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    m = trimesh_from_quads(verts, [(0, 1, 2, 3)])
    message = f"source distance at vertex 2 must be finite and nonnegative, got {d0!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solver(m, [(0, 0.0), (2, d0)])


def test_triangulated_complex_counts(pseudosphere_n2):
    cx = pseudosphere_n2
    m = triangulate_complex(cx)
    _, first = global_vertex_ids(cx)
    I = cx.sectors[0].I
    assert m.n_vertices == len(first)
    assert m.tris.shape[0] == 2 * len(cx.sectors) * I * I
    # every valid node of vertex v sits bitwise at m.vertices[v]
    for s, ids in zip(cx.sectors, m.node_ids):
        assert np.array_equal(ids >= 0, s.valid)
        assert s.positions[s.valid].tobytes() == m.vertices[ids[s.valid]].tobytes()
    assert origin_vertex(cx, m) in range(m.n_vertices)
    assert np.array_equal(m.vertices[origin_vertex(cx, m)], np.zeros(3))


def test_heap_traffic_stays_near_linear():
    ratios = []
    for n in (8, 16, 32):
        verts, quads = _flat_grid(n, 1.0 / n)
        m = trimesh_from_quads(verts, quads)
        res = fast_march(m, [(0, 0.0)])
        N = len(verts)
        assert res.pops >= N  # every vertex accepted once, stale entries cost extra pops
        ratios.append(res.pushes / (N * math.log2(N)))
    assert ratios[-1] <= 3.0 * ratios[0]


def _perturbed_grid(seed, n=12):
    """Random grid whose rows mix exact squares, near-right angles and skew.

    Rows 0-1 are exact unit-spaced squares (diagonal ties), rows 2-4 are
    nudged by 1e-13 (near ties) and the rest by up to 0.35 h in all three
    coordinates (obtuse splits and unfold fallbacks).
    """
    rng = np.random.default_rng(seed)
    h = 1.0 / n
    verts, quads = _flat_grid(n, h)
    scale = np.where(np.arange(n + 1) < 2, 0.0,
                     np.where(np.arange(n + 1) < 5, 1e-13, 0.35 * h))
    verts = verts + rng.uniform(-1.0, 1.0, verts.shape) * np.repeat(scale, n + 1)[:, None]
    return verts, quads


def _scalar_quads(cx):
    """Vertices and quads of a complex assembled node by node."""
    ids, _, back_refs = mesh_oracle.global_vertex_ids(cx)
    verts = np.array([cx.sectors[sid].positions[i, j] for sid, i, j in
                      (refs[0] for refs in back_refs)])
    quads = [(ids[sid][qi, qj], ids[sid][qi + 1, qj],
              ids[sid][qi, qj + 1], ids[sid][qi + 1, qj + 1])
             for sid, s in enumerate(cx.sectors)
             for (qi, qj) in np.argwhere(s.quad_mask()).tolist()]
    return verts, quads


def _assert_march_matches_oracle(m, sources):
    got = fast_march(m, sources)
    d, order, pops, pushes, evaluations, fell_back = oracle.fast_march(m, sources)
    assert got.d.tobytes() == d.tobytes()
    assert got.order == order
    assert (got.pops, got.pushes) == (pops, pushes)
    # each (triangle, target) unfold is evaluated once, not on every revisit
    assert got.fallbacks == len(fell_back) <= min(evaluations, 3 * m.tris.shape[0])
    return got


def _oracle_meshes():
    for seed in (1, 2, 3):
        verts, quads = _perturbed_grid(seed)
        yield f"grid{seed}", verts, quads, trimesh_from_quads(verts, quads)
    for name, cx in (("patched", build_patched("LINEAR", 1.0, 2, 0.5, 8)),
                     ("surgery_m3", build_surgery_m3())):
        verts, quads = _scalar_quads(cx)
        m = triangulate_complex(cx)
        assert m.vertices.tobytes() == verts.tobytes(), name
        yield name, verts, quads, m


def test_array_kernels_match_scalar_oracles():
    fell_back = 0
    for name, verts, quads, m in _oracle_meshes():
        tris, lengths, obtuse = oracle.trimesh(verts, quads)
        assert np.array_equal(m.tris, tris), name
        assert m.tri_lengths.tobytes() == lengths.tobytes(), name
        assert m.obtuse_tris == obtuse, name
        rng = np.random.default_rng(len(name))
        multi = [(int(v), float(w)) for v, w in zip(
            rng.choice(m.n_vertices, 3, replace=False), rng.uniform(0.0, 0.2, 3))]
        # weights across one edge that differ by more than its length
        # cannot be unfolded, which exercises the fallback and its count
        a, b = (int(v) for v in m.tris[0, :2])
        clash = [(a, 0.0), (b, 1.1 * float(m.tri_lengths[0, 2]))]
        for sources in ([(0, 0.0)], [(m.n_vertices // 2, 0.0)], multi, clash):
            fell_back += _assert_march_matches_oracle(m, sources).fallbacks
    assert fell_back > 0


def test_fallback_counts_each_stencil_once():
    # Sources 0 and 5, and 0 and 1, straddle edges of triangles (0, 5, 6) and
    # (0, 6, 1) with weights that cannot be unfolded. Source 1 is accepted
    # while vertex 6 is still open, so the full recompute evaluates the first
    # failed unfold twice.
    h = 0.25
    verts, quads = _flat_grid(4, h)
    m = trimesh_from_quads(verts, quads)
    assert m.tris[0].tolist() == [0, 5, 6]
    sources = [(0, 0.0), (5, 1.1 * h), (1, 1.2 * h)]
    got = _assert_march_matches_oracle(m, sources)
    evaluations = oracle.fast_march(m, sources)[4]
    assert got.fallbacks == 2 < evaluations == 3


def test_split_quad_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pts = [np.array(p, dtype=float) for p in
               [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]]
        pts = [p + rng.normal(0.0, rng.choice([0.0, 1e-12, 0.3]), 3) for p in pts]
        tris, worst = split_quad(*pts)
        assert (tris, worst) == oracle.split_quad(*pts)


def test_triangulation_logs_no_warning(caplog):
    with caplog.at_level(logging.DEBUG, logger="ksurf.geodesic"):
        cx = patch_sectors(symmetric_angles(2), SectorSpec(u_max=1.0, v_max=1.0, I=8, J=8),
                           CurvatureSpec(CurvatureFamily.LINEAR, 10.0),
                           IterationConfig(tol=1e-4, max_iters=200))
        m = triangulate_complex(cx)
    assert m.obtuse_count > 0
    geodesic = [r for r in caplog.records if r.name == "ksurf.geodesic"]
    assert geodesic and all(r.levelno < logging.WARNING for r in geodesic)


def test_origin_vertex_rejects_a_missing_origin():
    cx = build_surgery_m3().copy()
    m = triangulate_complex(cx)
    assert origin_vertex(cx, m) == m.node_ids[0][0, 0]
    # no such sector, outside the grid, negative, excised by the cut
    for origin in ((len(cx.sectors), 0, 0), (0, 9, 0), (0, 0, -1), (0, 6, 6)):
        cx.origin = origin
        with pytest.raises(ValueError, match="origin node"):
            origin_vertex(cx, m)
    cx.origin = (0, 0, 0)
    with pytest.raises(ValueError, match="origin node"):
        origin_vertex(cx, trimesh_from_quads(m.vertices, [(0, 1, 2, 3)]))


def _march_key(r):
    return r.d.tobytes(), r.order, r.pops, r.pushes, r.fallbacks


def _cold_march(m, sources):
    ksurf.geodesic._stencil_memo = None
    return fast_march(m, sources)


def test_stencil_memo_follows_the_triangles():
    verts, quads = _perturbed_grid(2)
    a = trimesh_from_quads(verts, quads)
    # the same quads from another corner: the same vertices, other triangles
    b = trimesh_from_quads(verts, np.asarray(quads)[:, [1, 3, 0, 2]])
    assert a.n_vertices == b.n_vertices and a.tris.shape == b.tris.shape
    assert not np.array_equal(a.tris, b.tris)
    sources = [(0, 0.0), (a.n_vertices // 2, 0.1)]
    want = {name: _march_key(_cold_march(m, sources)) for name, m in (("a", a), ("b", b))}
    assert want["a"][0] != want["b"][0]
    for name, m in (("a", a), ("b", b), ("a", a)):
        assert _march_key(fast_march(m, sources)) == want[name], name

    # the triangles of one array rewritten in place
    c = trimesh_from_quads(verts, quads)
    assert _march_key(fast_march(c, sources)) == want["a"]
    c.tris[:] = b.tris
    c.tri_lengths[:] = b.tri_lengths
    assert _march_key(fast_march(c, sources)) == want["b"]


def test_fan_table_has_one_row_per_corner():
    verts, quads = _perturbed_grid(1)
    m = trimesh_from_quads(verts, quads)
    starts, rows = ksurf.geodesic._stencil_table(m)
    assert rows.shape == (3 * len(m.tris), 5) and rows.dtype == np.int32
    v = np.repeat(np.arange(m.n_vertices), np.diff(starts))
    p, q = rows[:, 0], rows[:, 1]
    # (v, p, q) runs through the three rotations of every triangle once
    rotations = [tuple(t[r:] + t[:r]) for t in m.tris.tolist() for r in range(3)]
    assert sorted(zip(v.tolist(), p.tolist(), q.tolist())) == sorted(rotations)
    # the length columns index |pq|, |vq| and |vp|
    lengths = m.tri_lengths.ravel()
    for column, (a, b) in zip(rows[:, 2:].T, ((p, q), (v, q), (v, p))):
        np.testing.assert_allclose(
            lengths[column], np.linalg.norm(m.vertices[a] - m.vertices[b], axis=1), rtol=1e-15)


def test_stencil_table_is_shared_and_read_only():
    verts, quads = _perturbed_grid(3)
    a = trimesh_from_quads(verts, quads)
    starts, rows = ksurf.geodesic._stencil_table(a)
    assert len(rows) == 3 * len(a.tris) == starts[-1]
    # equal triangles share the table; unfold_candidate keeps it
    assert unfold_candidate(1.0, 1.0, 1.0, 1.0, 1.0) == oracle._unfold(1.0, 1.0, 1.0, 1.0, 1.0)[0]
    again = trimesh_from_quads(verts.copy(), np.array(quads))
    assert ksurf.geodesic._stencil_table(again)[1] is rows
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 1
    with pytest.raises(TypeError):
        starts[0] = 1


def _least_unfold(cases):
    """``_least_unfold`` of (t, n, 5) stencils (Dj, Dk, Dij, Dik, Djk)."""
    Dj, Dk, Dij, Dik, Djk = np.moveaxis(np.asarray(cases, dtype=float), -1, 0)
    return ksurf.geodesic._least_unfold(Dj, Dk, ksurf.geodesic._triangle_terms(Dij, Dik, Djk))


def _random_stencils(rng, shape, scale):
    """Planar triangles (i, j, k) of the given edge scale, with source
    distances at j and k that can, nearly can or cannot be unfolded."""
    p = scale * rng.standard_normal(shape + (3, 2))
    Dij, Dik, Djk = (np.linalg.norm(p[..., a, :] - p[..., b, :], axis=-1)
                     for a, b in ((0, 1), (0, 2), (1, 2)))
    Dj = rng.uniform(0.0, 3.0, shape)
    Dk = np.abs(Dj + rng.uniform(-1.0, 1.0, shape) * Djk * rng.choice([0.5, 1.0, 1.2], shape))
    return np.stack([Dj, Dk, Dij, Dik, Djk], axis=-1)


def test_array_unfold_equals_unfold_candidate_bitwise():
    rng = np.random.default_rng(20)
    near_ties = list(_near_ties())
    for cases in (near_ties, _random_stencils(rng, (4000,), 1.0),
                  _random_stencils(rng, (4000,), 0.03)):
        # one triangle per node: each candidate
        want = [unfold_candidate(*case) for case in np.asarray(cases).tolist()]
        assert _least_unfold(np.asarray(cases)[None]).tobytes() == np.array(want).tobytes()
    # three triangles per node: the least candidate
    cases = _random_stencils(rng, (3, 4000), 0.03)
    want = np.array([unfold_candidate(*case) for case in cases.reshape(-1, 5).tolist()])
    assert _least_unfold(cases).tobytes() == want.reshape(3, -1).min(axis=0).tobytes()


def test_upwind_distance_on_a_flat_grid_is_euclidean():
    n, h = 16, 1.0 / 16.0
    verts, quads = _flat_grid(n, h)
    exact = np.linalg.norm(verts, axis=1)
    grid = ksurf.SectorGrid.empty(n, n, ksurf.Parity.ODD)
    grid.positions[:] = verts.reshape(n + 1, n + 1, 3)
    grid.geo_dist[0, :], grid.geo_dist[:, 0] = exact[:n + 1], exact[::n + 1]
    # the pass reads the first row and column, and nothing else of geo_dist
    grid.geo_dist[1:, 1:] = 7.0
    (d,) = ksurf.upwind_distance([grid])
    marched = fast_march(trimesh_from_quads(verts, quads), [(0, 0.0)]).d
    assert np.abs(d.ravel() - exact).max() < 1e-12
    assert np.abs(d.ravel() - marched).max() < 1e-12
    # laid end to end with a smaller sector, each gets the bits of its own pass
    small = ksurf.SectorGrid.empty(5, 9, ksurf.Parity.EVEN)
    for name in ("positions", "geo_dist"):
        getattr(small, name)[:] = getattr(grid, name)[:6, :10]
    both = ksurf.upwind_distance([small, grid])
    assert both[0].tobytes() == ksurf.upwind_distance([small])[0].tobytes()
    assert both[1].tobytes() == d.tobytes()


def _accepted_unfold_reference(cases):
    """The least over axis 0 of (t, n, 5) stencils under the acceptance rule, by
    ``unfold_candidate``: a candidate below a far corner's D gives the edge path."""
    least = []
    for stencils in np.moveaxis(np.asarray(cases), 1, 0).tolist():
        values = []
        for Dj, Dk, Dij, Dik, Djk in stencils:
            line = unfold_candidate(Dj, Dk, Dij, Dik, Djk)
            edge = min(Dj + Dij, Dk + Dik)
            values.append(edge if max(Dj, Dk) > line else line)
        least.append(min(values))
    return np.array(least)


def test_accepted_unfold_applies_the_rule_bitwise():
    rng = np.random.default_rng(21)
    for cases in (np.asarray(list(_near_ties()))[None], _random_stencils(rng, (1, 4000), 1.0),
                  _random_stencils(rng, (2, 4000), 0.03), _random_stencils(rng, (2, 4000), 0.3)):
        want = _accepted_unfold_reference(cases)
        # the rule changes the least candidate of some nodes of every random set
        assert len(cases[0]) < 4000 or (want != _least_unfold(cases)).any()
        # (n, t) arrays read as (t, n): the writes into strided arrays land too
        Dj, Dk, Dij, Dik, Djk = (np.asfortranarray(a) for a in np.moveaxis(cases, -1, 0))
        got = ksurf.geodesic._least_accepted_unfold(
            Dj, Dk, ksurf.geodesic._triangle_terms(Dij, Dik, Djk))
        assert got.tobytes() == want.tobytes()


def _pass_split(grid) -> dict:
    """{flat node index: whether the pass takes the second split of its quad}."""
    quad, _, seg = ksurf.geodesic._node_quads([grid])
    return dict(zip(quad[3].tolist(), ksurf.geodesic._choose_split(seg)[0].tolist()))


def _one_quad(p11):
    """A 1x1 sector on the unit square's corners 00, 10, 01 and ``p11``."""
    grid = ksurf.SectorGrid.empty(1, 1, ksurf.Parity.ODD)
    grid.positions[:] = [[(0, 0, 0), (0, 1, 0)], [(1, 0, 0), p11]]
    return grid


@pytest.mark.parametrize("p11,second", [
    # the square: a tie, which takes the grid diagonal
    ((1.0, 1.0, 0.0), False),
    # the grid diagonal's smallest cosine one ulp (of 1) lower: the other wins
    ((1.0 + 4e-16, 1.0, 0.0), True),
    ((1.0 + 1e-15, 1.0, 0.0), True),
    ((1.0 - 2e-16, 1.0, 0.0), False),
    # smallest cosines 2e-31 apart, which math.acos rounds to one angle: a tie
    ((1.0000000000000004, 0.9999999999999993, -1.0209498741071319e-16), False),
    ((1.0 + 1e-13, 1.0, 0.0), True),
])
def test_pass_and_triangulation_split_a_near_tie_alike(p11, second):
    grid = _one_quad(p11)
    (pass_b,) = _pass_split(grid).values()
    mesh = trimesh_from_quads(grid.positions.reshape(-1, 3), [[0, 2, 1, 3]])
    pts = [np.array(p, dtype=float) for p in ((0, 0, 0), (1, 0, 0), (0, 1, 0), p11)]
    assert pass_b == (mesh.tris[0, 2] == 1) == \
        (oracle.split_quad(*pts)[0] == ksurf.geodesic._SPLITS[1]) == second


@pytest.mark.parametrize("name", ["grow", "branch"])
def test_pass_splits_every_quad_as_the_march_does(name):
    cx = build_workload(name)
    table = quad_table(cx, global_vertex_ids(cx)[0])
    # the first triangle of a quad ends at corner 01 on the second split
    march_b = (triangulate_complex(cx).tris[0::2, 2] == table.corners[:, 2]).tolist()
    pass_b = [_pass_split(s) for s in cx.sectors]
    width = [s.J + 1 for s in cx.sectors]
    assert [pass_b[sid][(i + 1) * width[sid] + j + 1]
            for sid, i, j in zip(table.sector.tolist(), table.i.tolist(), table.j.tolist())] \
        == march_b


@pytest.mark.parametrize("name", ["grow", "fine"])
def test_upwind_pass_is_the_march_on_converged_workloads(name):
    # the pass reads the march's triangles and unfolds only where the march
    # could, so on a converged surface it reproduces the march's distance
    cx = build_workload(name)
    marched = geodesic_provider(cx)
    for run in sweep_runs(cx):
        for sid, d in zip(run, ksurf.upwind_distance([cx.sectors[sid] for sid in run])):
            s = cx.sectors[sid]
            interior = s.valid & ~s.boundary_mask()
            gap = float(np.abs(d[interior] - marched[sid][interior]).max())
            assert gap < 1e-12, (sid, gap)
