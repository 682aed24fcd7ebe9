"""Geodesic distance on triangulated complexes via fast marching.

Quads are split into two triangles each, choosing the diagonal that
minimizes the maximum triangle angle (ties go to the grid diagonal
(i, j) -> (i+1, j+1), which runs along u + v for either parity). The split
is one array kernel over all quads: it measures the four sides and both
diagonals once, takes the smallest clamped corner cosine of each option and
only then calls ``math.acos``, which gives the same worst angle as taking
the largest of the six angles because acos is monotone.

The marching update unfolds, for a vertex i of a triangle (i, j, k) with
both j and k already accepted, the source point o and the target into the
plane of the edge (j, k) on opposite sides, k at the origin and j at
(D_jk, 0), and takes the straight-line distance in that configuration
where it is causal (Kimmel & Sethian 1998), else the two edge paths:

    D_i = min( |(x_i, y_i+) - (x_o, y_o-)| , D_j + D_ij , D_k + D_ik ),

where the first term counts only if the segment o-i meets the jk-axis
inside [0, D_jk], ends included. The crossing lies at
(x_o y_i - x_i y_o) / (y_i - y_o); the march tests
0 <= x_o y_i - x_i y_o <= D_jk (y_i - y_o) instead of dividing, and only
when the straight line would win. When y_i == y_o (both 0: a degenerate
triangle and a source on the axis) the segment lies on the axis and must
overlap [0, D_jk]. A line that misses the edge does not reach i through
this triangle, and taking it can put D below the straight-line distance
to the source.

A negative discriminant (the accepted pair cannot be unfolded) falls back
to the edge terms. Triangles with a single accepted vertex contribute edge
terms only, which also seeds the march around the sources.

The march is incremental (Kimmel & Sethian 1998): a stencil's candidate
changes only when one of its two far corners is accepted, so accepting v
evaluates just the stencils that have v as a far corner. Every other
candidate is already folded into the current D of its target, so the
result equals a full re-evaluation of each neighbour bit for bit.

Those stencils come from the fan table, one row per (corner, triangle),
grouped by corner. The row of v in triangle (v, p, q), in the triangle's
cyclic order, carries both stencils that have v as a far corner: target p
over (j, k) = (q, v) and target q over (j, k) = (v, p). The table depends
on the triangles alone: its rows hold vertex ids and flat indices into
``tri_lengths``, never the lengths themselves. It is memoised for the last
``(n_vertices, tris)`` marched, compared by content, so the queries on one
mesh, and outer iterations that keep the triangles, sort it once.
"""
from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import SurfaceComplex, global_vertex_ids, quad_table

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
    its local vertex a. For a mesh of a complex, ``node_ids`` holds the
    vertex id of every grid node per sector as (I+1, J+1) arrays, -1 on
    invalid nodes.
    """

    vertices: np.ndarray
    tris: np.ndarray
    tri_lengths: np.ndarray
    obtuse_tris: list = field(default_factory=list)
    node_ids: tuple | None = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def obtuse_count(self) -> int:
        return len(self.obtuse_tris)

    def node_values(self, values, fill) -> list:
        """Per-sector (I+1, J+1) arrays holding ``values[v]`` at every node of v."""
        if self.node_ids is None:
            raise ValueError("the mesh was not triangulated from a complex")
        values = np.asarray(values)
        out = []
        for ids in self.node_ids:
            per_node = np.full(ids.shape, fill, dtype=values.dtype)
            valid = ids >= 0
            per_node[valid] = values[ids[valid]]
            out.append(per_node)
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


def triangulate_complex(cx: SurfaceComplex) -> TriMesh:
    """Deduplicate glued nodes and split every quad into two triangles."""
    ids, first = global_vertex_ids(cx)
    # vertex v takes the position of its first node
    vertices = np.concatenate([s.positions.reshape(-1, 3) for s in cx.sectors])[first]
    mesh = trimesh_from_quads(vertices, quad_table(cx, ids).corners)
    mesh.node_ids = ids
    return mesh


def trimesh_from_quads(vertices: np.ndarray, quads) -> TriMesh:
    """Split quads (corner order 00, 10, 01, 11) into a marchable TriMesh.

    Every quad index must name a vertex (0..N-1); a negative one would wrap.
    """
    n_verts = vertices.shape[0]
    quads = np.asarray(quads, dtype=np.intp).reshape(-1, 4)
    bad = np.flatnonzero(((quads < 0) | (quads >= n_verts)).any(axis=1))
    if len(bad):
        q = int(bad[0])
        raise ValueError(f"quad {q} {quads[q].tolist()} has an index outside 0..{n_verts - 1}")
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
        obtuse_tris=obtuse,
    )


def unfold_candidate(Dj: float, Dk: float, Dij: float, Dik: float, Djk: float) -> float:
    """Distance suggestion for a vertex from one triangle.

    Dj, Dk are accepted values at the far corners, Dij, Dik, Djk the
    triangle edge lengths (j-k is the far edge). The result is the causal
    unfold or the shorter edge path (module docstring). The march loop computes
    it: on the one triangle (i, j, k) with j already accepted, accepting k
    evaluates the stencil of i once.
    """
    if Djk <= 0.0 or Dij <= 0.0 or Dik <= 0.0:
        raise ValueError("triangle edges must have positive length")
    d = [math.inf, Dj, Dk]
    _march(_ONE_TRIANGLE, [Djk, Dik, Dij], d, bytearray(b"\0\1\0"), bytearray(b"\0\1\1"),
           [(Dk, 2)])
    return d[0]


@dataclass
class MarchResult:
    d: np.ndarray
    order: list
    pops: int = 0
    pushes: int = 0
    fallbacks: int = 0
    unreachable: list = field(default_factory=list)


# the fan row of corner a of a triangle has v = a, p = a+1 and q = a+2 (mod 3);
# its lengths |pq|, |vq| and |vp| are the ones stored opposite a, a+1 and a+2
_ROTATIONS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def _stencils(tris: np.ndarray, n_vertices: int) -> tuple:
    """Fan table of the triangles, grouped by corner: (starts, rows).

    Rows starts[v]:starts[v+1] hold one row per triangle (v, p, q) of v,
    with p and q the next corners in the triangle's cyclic order: (p, q)
    and the flat indices into ``tri_lengths`` of (|pq|, |vq|, |vp|), as
    int32. The table is read-only and ``starts`` a tuple.
    """
    corners = tris[:, _ROTATIONS].reshape(-1, 3)
    lengths = 3 * np.arange(len(tris))[:, None, None] + _ROTATIONS
    rows = np.concatenate([corners[:, 1:], lengths.reshape(-1, 3)], axis=1).astype(np.int32)
    rows = rows[np.argsort(corners[:, 0], kind="stable")]
    starts = np.zeros(n_vertices + 1, dtype=np.intp)
    np.cumsum(np.bincount(corners[:, 0], minlength=n_vertices), out=starts[1:])
    rows.setflags(write=False)
    return tuple(starts.tolist()), rows


# the one triangle of unfold_candidate, kept apart from the memo of the marches
_ONE_TRIANGLE = _stencils(np.array([[0, 1, 2]]), 3)

# (n_vertices, tris, starts, rows) of the last mesh marched, swapped as a whole:
# racing callers may build a table twice, but each uses the one it checked
_stencil_memo = None


def _stencil_table(m: TriMesh) -> tuple:
    """``_stencils`` of the mesh's triangles, memoised on their content."""
    global _stencil_memo
    memo = _stencil_memo
    if memo is None or memo[0] != m.n_vertices or not np.array_equal(memo[1], m.tris):
        # drop the old table before the new one is built
        _stencil_memo = memo = None
        tris = np.array(m.tris, dtype=np.intp)
        tris.setflags(write=False)
        memo = (m.n_vertices, tris, *_stencils(tris, m.n_vertices))
        _stencil_memo = memo
    return memo[2], memo[3]


def fast_march(m: TriMesh, sources) -> MarchResult:
    """Geodesic distance from weighted sources.

    ``sources`` is an iterable of (vertex, D0) pairs; source values are
    fixed. Returns per-vertex distances along with the acceptance order and
    queue operation counters; ``fallbacks`` counts the (triangle, target)
    unfolds that fell back to the edge terms because the accepted pair
    cannot be unfolded (a line that misses the edge is not counted).
    Vertices in components without a source keep D = inf and are listed
    as unreachable.
    """
    n = m.n_vertices
    d = [math.inf] * n
    frozen = bytearray(n)  # accepted or a source: D never changes again
    for v, d0 in sources:
        v = int(v)
        if d0 < 0.0:
            raise ValueError("source distances must be nonnegative")
        if d[v] > d0:
            d[v] = float(d0)
        frozen[v] = 1
    heap = []
    for v in range(n):
        if frozen[v]:
            heapq.heappush(heap, (d[v], v))
    accepted = bytearray(n)
    seeded = len(heap)
    order, pops, pushes, fallbacks = _march(_stencil_table(m), m.tri_lengths.ravel().tolist(),
                                            d, accepted, frozen, heap)
    return MarchResult(d=np.array(d), order=order, pops=pops, pushes=seeded + pushes,
                       fallbacks=fallbacks,
                       unreachable=[v for v in range(n) if not accepted[v]])


def _march(table, lengths: list, d: list, accepted: bytearray, frozen: bytearray,
           heap: list) -> tuple:
    """Pop the heap until it is empty, updating ``d`` and the flags in place.

    ``table`` is a ``_stencils`` table and ``lengths`` the flat
    ``tri_lengths`` its rows index. Returns the acceptance order and the
    counts of pops, pushes and edge-term fallbacks.

    Accepting v reads each of its fan rows (v, p, q) once. The row holds
    the two stencils with v as a far corner, target p over (q, v) and
    target q over (v, p), and an unfold needs both far corners accepted:
    the row completes the unfold of p when q is accepted, or else that of q
    when p is. With both accepted neither target is open, so a row completes
    at most one unfold; with neither, v gives p and q their edge terms.
    The unfold is written out once in the loop, which saves a call per
    stencil; the order of its operations is fixed, since the bits of D
    depend on it. Each improved target is pushed once, in ascending id
    order.
    """
    starts, rows = table
    sqrt, hypot, heappop, heappush = math.sqrt, math.hypot, heapq.heappop, heapq.heappush
    order = []
    pops = pushes = fallbacks = 0
    while heap:
        dv, v = heappop(heap)
        pops += 1
        if accepted[v] or dv != d[v]:
            continue
        accepted[v] = frozen[v] = 1
        order.append(v)
        improved = []
        # no stencil reads its own target's D, so lowering d[i] at once ends
        # where the best candidate of the fan would
        for p, q, pq, vq, vp in rows[starts[v]:starts[v + 1]].tolist():
            # the unfold of target i over (j, k), the triangle's cyclic order (i, j, k)
            if accepted[q]:
                if frozen[p]:
                    continue
                i, Dj, Dk, Dij, Dik, Djk = p, d[q], dv, lengths[pq], lengths[vp], lengths[vq]
            elif accepted[p]:
                if frozen[q]:
                    continue
                i, Dj, Dk, Dij, Dik, Djk = q, dv, d[p], lengths[vq], lengths[pq], lengths[vp]
            else:
                if not frozen[p]:
                    cand = dv + lengths[vp]
                    if cand < d[p]:
                        d[p] = cand
                        if p not in improved:
                            improved.append(p)
                if not frozen[q]:
                    cand = dv + lengths[vq]
                    if cand < d[q]:
                        d[q] = cand
                        if q not in improved:
                            improved.append(q)
                continue
            # min() of the two edge paths, which keeps the first on a tie
            a, b = Dj + Dij, Dk + Dik
            cand = a if not b < a else b
            # Heron-style factored discriminants of the source below the
            # jk-axis and the target above it
            disc_o = (Djk - (Dj - Dk)) * (Djk + (Dj - Dk)) * ((Dj + Dk) - Djk) \
                * ((Dj + Dk) + Djk)
            disc_i = (Djk - (Dij - Dik)) * (Djk + (Dij - Dik)) * ((Dij + Dik) - Djk) \
                * ((Dij + Dik) + Djk)
            fell_back = False
            if disc_o < 0.0 or disc_i < 0.0:
                # no unfolding past a tolerance scaled like the products
                tiny = -1e-12 * (Dj + Dk + Dij + Dik + Djk) ** 4
                fell_back = disc_o < tiny or disc_i < tiny
                disc_o = 0.0 if disc_o < 0.0 else disc_o
                disc_i = 0.0 if disc_i < 0.0 else disc_i
            if fell_back:
                fallbacks += 1
            else:
                inv = 1.0 / (2.0 * Djk)
                x_o = (Dk * Dk - Dj * Dj + Djk * Djk) * inv
                y_o = -sqrt(disc_o) * inv
                x_i = (Dik * Dik - Dij * Dij + Djk * Djk) * inv
                y_i = sqrt(disc_i) * inv
                through = hypot(x_i - x_o, y_i - y_o)
                if not cand < through:
                    # causality: o->i crosses the jk-axis at x_o y_i - x_i y_o
                    # over y_i - y_o, which must lie in [0, Djk]; with
                    # y_i == y_o == 0 the segment lies on the axis
                    dy = y_i - y_o
                    cross = x_o * y_i - x_i * y_o
                    if (0.0 <= cross <= Djk * dy if dy > 0.0 else
                            (x_o <= Djk or x_i <= Djk) and (x_o >= 0.0 or x_i >= 0.0)):
                        cand = through
            if cand < d[i]:
                d[i] = cand
                if i not in improved:
                    improved.append(i)
        improved.sort()
        for i in improved:
            heappush(heap, (d[i], i))
        pushes += len(improved)
    return order, pops, pushes, fallbacks


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
