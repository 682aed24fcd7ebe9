"""Geodesic distance on triangulated complexes via fast marching.

Quads are split into two triangles each, choosing the diagonal that
minimizes the maximum triangle angle (ties go to the grid diagonal
(i, j) -> (i+1, j+1), which runs along u + v for either parity). The split
is one array kernel over all quads: it measures the four sides and both
diagonals once, takes the smallest clamped corner cosine of each option and
only then calls ``math.acos``, which gives the same worst angle as taking
the largest of the six angles because acos is monotone.

The marching update unfolds, for a vertex i of a triangle (i, j, k) with
both j and k already accepted, the source point and the target into the
plane of the edge (j, k) on opposite sides, takes the straight-line
distance in that configuration, and clamps it by the two edge paths:

    D_i = min( |(x_i, y_i+) - (x_o, y_o-)| , D_j + D_ij , D_k + D_ik ).

A negative discriminant (the accepted pair cannot be unfolded) falls back
to the edge terms. Triangles with a single accepted vertex contribute edge
terms only, which also seeds the march around the sources.

The march is incremental (Kimmel & Sethian 1998): a stencil's candidate
changes only when one of its two far corners is accepted, so accepting v
evaluates just the stencils that have v as a far corner. Every other
candidate is already folded into the current D of its target, so the
result equals a full re-evaluation of each neighbour bit for bit.
"""
from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import SurfaceComplex, global_vertex_ids

logger = logging.getLogger(__name__)

OBTUSE_TOL = 1e-9

# the two splits of a quad with corners (00, 10, 01, 11); the first uses the
# grid diagonal 00-11 and wins ties
_SPLITS = (((0, 1, 3), (0, 3, 2)), ((0, 1, 2), (1, 3, 2)))
# the quad's four sides and two diagonals as corner pairs
_SEGMENTS = ((0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (1, 2))
# per split and triangle (a, b, c): the segments ab, ac and bc
_TRI_SEGMENTS = np.array([
    [[_SEGMENTS.index(tuple(sorted(pair))) for pair in ((a, b), (a, c), (b, c))]
     for (a, b, c) in split]
    for split in _SPLITS
])


@dataclass
class TriMesh:
    """Triangle mesh with provenance.

    ``tri_lengths[t, a]`` is the length of the edge of triangle t opposite
    its local vertex a. ``back_refs[v]`` lists the (sector, i, j) grid nodes
    deduplicated into vertex v.
    """

    vertices: np.ndarray
    tris: np.ndarray
    tri_lengths: np.ndarray
    back_refs: list
    obtuse_tris: list = field(default_factory=list)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def obtuse_count(self) -> int:
        return len(self.obtuse_tris)

    def node_values(self, cx: SurfaceComplex, values, fill) -> list:
        """Per-sector (I+1, J+1) arrays holding ``values[v]`` at every node of v."""
        out = [np.full((s.I + 1, s.J + 1), fill, dtype=np.asarray(values).dtype)
               for s in cx.sectors]
        for v, refs in enumerate(self.back_refs):
            for (sid, i, j) in refs:
                out[sid][i, j] = values[v]
        return out


def _clamped_cos(opposite, s1, s2):
    """Law-of-cosines cosine, clamped to [-1, 1] as min(1, max(-1, c))."""
    c = (s1 * s1 + s2 * s2 - opposite * opposite) / (2.0 * s1 * s2)
    c = np.where(c > -1.0, c, -1.0)
    return np.where(c < 1.0, c, 1.0)


def _split_quads(corners: np.ndarray):
    """Diagonal choice for (Q, 4, 3) quad corners in (00, 10, 01, 11) order.

    Returns (use_b, worst, lengths): whether each quad takes the second
    split, the largest angle of the chosen split, and the (Q, 2, 3) edge
    lengths of its two triangles, opposite each corner.
    """
    pairs = np.array(_SEGMENTS)
    diff = corners[:, pairs[:, 1]] - corners[:, pairs[:, 0]]
    seg = np.sqrt(np.vecdot(diff, diff))  # bitwise equal to np.linalg.norm
    if (seg == 0.0).any():
        raise ValueError("degenerate triangle with a zero-length edge")
    sides = seg[:, _TRI_SEGMENTS]  # (Q, split, triangle, [ab, ac, bc])
    ab, ac, bc = sides[..., 0], sides[..., 1], sides[..., 2]
    cosines = np.stack([_clamped_cos(bc, ab, ac), _clamped_cos(ac, ab, bc),
                        _clamped_cos(ab, ac, bc)], axis=-1)
    min_cos = cosines.reshape(len(corners), 2, 6).min(axis=-1)
    # math.acos, not np.arccos: the two differ in the last bit on some inputs
    worst = np.array([math.acos(c) for c in min_cos.ravel().tolist()]).reshape(-1, 2)
    use_b = worst[:, 1] < worst[:, 0]
    pick = (np.arange(len(corners)), use_b.astype(np.intp))
    return use_b, worst[pick], sides[pick][..., ::-1]


def split_quad(p00, p10, p01, p11):
    """Choose the diagonal for one quad.

    Returns (tris, max_angle) where tris are two corner-index triples into
    (00, 10, 01, 11) order. The grid diagonal 00-11 wins ties.
    """
    use_b, worst, _ = _split_quads(np.array([[p00, p10, p01, p11]], dtype=float))
    return _SPLITS[int(use_b[0])], float(worst[0])


def triangulate_complex(cx: SurfaceComplex) -> TriMesh:
    """Deduplicate glued nodes and split every quad into two triangles."""
    ids, n_verts, back_refs = global_vertex_ids(cx)
    node_ids = np.concatenate([a.ravel() for a in ids])
    node_pos = np.concatenate([s.positions.reshape(-1, 3) for s in cx.sectors])
    valid = node_ids >= 0
    # vertex v takes the position of its first node, back_refs[v][0]
    _, first = np.unique(node_ids[valid], return_index=True)
    vertices = node_pos[valid][first]

    quads = []
    for a, s in zip(ids, cx.sectors):
        v = s.valid
        ok = v[:-1, :-1] & v[1:, :-1] & v[:-1, 1:] & v[1:, 1:]
        quads.append(np.stack([a[:-1, :-1][ok], a[1:, :-1][ok],
                               a[:-1, 1:][ok], a[1:, 1:][ok]], axis=1))
    return trimesh_from_quads(vertices, np.concatenate(quads), back_refs=back_refs)


def trimesh_from_quads(vertices: np.ndarray, quads, back_refs=None) -> TriMesh:
    """Split quads (corner order 00, 10, 01, 11) into a marchable TriMesh."""
    n_verts = vertices.shape[0]
    quads = np.asarray(quads, dtype=np.intp).reshape(-1, 4)
    use_b, worst, lengths = _split_quads(np.asarray(vertices, dtype=float)[quads])
    local = np.array(_SPLITS)[use_b.astype(np.intp)]  # (Q, 2, 3) corner slots
    tris = np.take_along_axis(quads, local.reshape(len(quads), 6), axis=1).reshape(-1, 3)
    obtuse_quads = np.flatnonzero(worst > math.pi / 2.0 + OBTUSE_TOL)
    obtuse = (2 * obtuse_quads[:, None] + [0, 1]).ravel().tolist()
    if obtuse:
        logger.debug("triangulation has %d obtuse triangles", len(obtuse))
    return TriMesh(
        vertices=vertices,
        tris=tris,
        tri_lengths=lengths.reshape(-1, 3),
        back_refs=back_refs if back_refs is not None else [[] for _ in range(n_verts)],
        obtuse_tris=obtuse,
    )


def _unfold(Dj: float, Dk: float, Dij: float, Dik: float, Djk: float):
    """Candidate distance and a flag marking the edge-term fallback.

    The two unfolded points are placed on opposite sides of the jk-axis
    (source below, target above), which is the configuration giving the
    largest straight-line suggestion; the result is clamped by the edge
    paths through j and k.
    """
    edge_bound = min(Dj + Dij, Dk + Dik)
    # Heron-style factored discriminants for the two circle intersections.
    disc_o = (Djk - (Dj - Dk)) * (Djk + (Dj - Dk)) * ((Dj + Dk) - Djk) * ((Dj + Dk) + Djk)
    disc_i = (Djk - (Dij - Dik)) * (Djk + (Dij - Dik)) * ((Dij + Dik) - Djk) * ((Dij + Dik) + Djk)
    scale = (Dj + Dk + Dij + Dik + Djk) ** 4
    if disc_o < 0.0:
        if disc_o < -1e-12 * scale:
            return edge_bound, True
        disc_o = 0.0
    if disc_i < 0.0:
        if disc_i < -1e-12 * scale:
            return edge_bound, True
        disc_i = 0.0
    inv = 1.0 / (2.0 * Djk)
    x_o = (Dk * Dk - Dj * Dj + Djk * Djk) * inv
    y_o = -math.sqrt(disc_o) * inv
    x_i = (Dik * Dik - Dij * Dij + Djk * Djk) * inv
    y_i = math.sqrt(disc_i) * inv
    through = math.hypot(x_i - x_o, y_i - y_o)
    return min(through, edge_bound), False


def unfold_candidate(Dj: float, Dk: float, Dij: float, Dik: float, Djk: float) -> float:
    """Distance suggestion for a vertex from one triangle.

    Dj, Dk are accepted values at the far corners, Dij, Dik, Djk the
    triangle edge lengths (j-k is the far edge).
    """
    if Djk <= 0.0 or Dij <= 0.0 or Dik <= 0.0:
        raise ValueError("triangle edges must have positive length")
    return _unfold(Dj, Dk, Dij, Dik, Djk)[0]


@dataclass
class MarchResult:
    d: np.ndarray
    order: list
    pops: int = 0
    pushes: int = 0
    fallbacks: int = 0
    unreachable: list = field(default_factory=list)


# stencil of corner a of a triangle: target i = a, far corners j = a+1,
# k = a+2, and the lengths (Dij, Dik, Djk) stored opposite k, j and i
_ROTATIONS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
_STENCIL_LENGTHS = np.array([[2, 1, 0], [0, 2, 1], [1, 0, 2]])


def _stencil_table(m: TriMesh):
    """Stencils grouped by far corner: (starts, corners, lengths).

    Rows starts[v]:starts[v+1] are the stencils with v as j or k, sorted by
    target; corners holds (i, j, k) and lengths (Dij, Dik, Djk).
    """
    corners = m.tris[:, _ROTATIONS].reshape(-1, 3)
    lengths = m.tri_lengths[:, _STENCIL_LENGTHS].reshape(-1, 3)
    rows = np.concatenate([np.arange(len(corners))] * 2)
    key = np.concatenate([corners[:, 1], corners[:, 2]])
    rows = rows[np.lexsort((corners[rows, 0], key))]
    starts = np.zeros(m.n_vertices + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=m.n_vertices), out=starts[1:])
    return starts.tolist(), corners[rows], lengths[rows]


def fast_march(m: TriMesh, sources) -> MarchResult:
    """Geodesic distance from weighted sources.

    ``sources`` is an iterable of (vertex, D0) pairs; source values are
    fixed. Returns per-vertex distances along with the acceptance order and
    queue operation counters; ``fallbacks`` counts the (triangle, target)
    unfolds that fell back to the edge terms. Vertices in components
    without a source keep D = inf and are listed as unreachable.
    """
    n = m.n_vertices
    d = [math.inf] * n
    accepted = bytearray(n)
    frozen = bytearray(n)  # accepted or a source: D never changes again
    heap = []
    result = MarchResult(d=None, order=[])

    for v, d0 in sources:
        v = int(v)
        if d0 < 0.0:
            raise ValueError("source distances must be nonnegative")
        if d[v] > d0:
            d[v] = float(d0)
        frozen[v] = 1
    for v in range(n):
        if frozen[v]:
            heapq.heappush(heap, (d[v], v))
            result.pushes += 1

    starts, corners, lengths = _stencil_table(m)
    order = result.order
    while heap:
        dv, v = heapq.heappop(heap)
        result.pops += 1
        if accepted[v] or dv != d[v]:
            continue
        accepted[v] = frozen[v] = 1
        order.append(v)
        lo, hi = starts[v], starts[v + 1]
        improved = []
        for (i, j, k), (Dij, Dik, Djk) in zip(corners[lo:hi].tolist(),
                                              lengths[lo:hi].tolist()):
            if frozen[i]:
                continue
            if accepted[j] and accepted[k]:
                cand, fell_back = _unfold(d[j], d[k], Dij, Dik, Djk)
                result.fallbacks += fell_back
            elif accepted[j]:
                cand = d[j] + Dij
            else:
                cand = d[k] + Dik
            # no stencil reads its own target's D, so lowering d[i] at once
            # ends where the best candidate of the group would
            if cand < d[i]:
                d[i] = cand
                if not improved or improved[-1] != i:
                    improved.append(i)
        for i in improved:
            heapq.heappush(heap, (d[i], i))
        result.pushes += len(improved)

    result.d = np.array(d)
    result.unreachable = [v for v in range(n) if not accepted[v]]
    return result


def dijkstra_bound(m: TriMesh, sources) -> np.ndarray:
    """Edge-graph Dijkstra distances, an upper bound for fast_march."""
    n = m.n_vertices
    adj = [[] for _ in range(n)]
    # the three edges of each triangle, in the order of the lengths opposite
    # corners 0, 1, 2; an edge shared by two triangles is listed twice
    ends = m.tris[:, [1, 2, 0, 2, 0, 1]].reshape(-1, 2).tolist()
    for (a, b), length in zip(ends, m.tri_lengths.ravel().tolist()):
        adj[a].append((b, length))
        adj[b].append((a, length))

    dist = np.full(n, math.inf)
    heap = []
    for v, d0 in sources:
        v = int(v)
        if dist[v] > d0:
            dist[v] = d0
            heapq.heappush(heap, (float(d0), v))
    done = np.zeros(n, dtype=bool)
    while heap:
        dv, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for nb, length in adj[v]:
            nd = dv + length
            if nd < dist[nb]:
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return dist
