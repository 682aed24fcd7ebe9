"""Scalar reference implementations of triangulation and fast marching,
and an upper bound on the geodesic distance that shares no march kernel.

The per-quad diagonal enumeration, the scalar causal unfold and the
full-recompute march are what ``ksurf.geodesic`` replaced with an array
kernel and an incremental march that does the unfold inside its loop. They
are kept only as oracles: the library must reproduce their output bit for
bit. ``steiner_bound`` is the shortest path over Steiner points (Lanthier,
Maheshwari & Sack 2001), which bounds the exact distance on the piecewise
flat surface from above and converges to it as its points get denser.
"""
import heapq
import itertools
import math

import numpy as np

from ksurf.geodesic import OBTUSE_TOL

OPTION_A = ((0, 1, 3), (0, 3, 2))
OPTION_B = ((0, 1, 2), (1, 3, 2))


def _unfold(Dj: float, Dk: float, Dij: float, Dik: float, Djk: float):
    """Candidate distance and a flag marking the edge-term fallback.

    The two unfolded points are placed on opposite sides of the jk-axis
    (source below, target above), which is the configuration giving the
    largest straight-line suggestion. The straight line counts only where
    it crosses the edge jk and beats the edge paths through j and k;
    otherwise the shorter edge path is the result.
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
    if through <= edge_bound and _crosses_far_edge(x_o, y_o, x_i, y_i, Djk):
        return through, False
    return edge_bound, False


def _crosses_far_edge(x_o, y_o, x_i, y_i, Djk):
    """Whether the segment o-i meets the jk-axis (y = 0) inside [0, Djk].

    The crossing abscissa is (x_o y_i - x_i y_o) / (y_i - y_o); both sides
    of the bound are multiplied by y_i - y_o >= 0 instead of dividing. When
    y_i == y_o both points lie on the axis, and the segment between them
    must overlap [0, Djk].
    """
    dy = y_i - y_o
    if dy == 0.0:
        return min(x_o, x_i) <= Djk and max(x_o, x_i) >= 0.0
    cross = x_o * y_i - x_i * y_o
    return 0.0 <= cross and cross <= Djk * dy


def tri_angles(pa, pb, pc):
    """Angles at corners a, b, c of a triangle given by positions."""
    ab = np.linalg.norm(pb - pa)
    ac = np.linalg.norm(pc - pa)
    bc = np.linalg.norm(pc - pb)
    if min(ab, ac, bc) == 0.0:
        raise ValueError("degenerate triangle with a zero-length edge")

    def ang(opposite, s1, s2):
        c = (s1 * s1 + s2 * s2 - opposite * opposite) / (2.0 * s1 * s2)
        return math.acos(min(1.0, max(-1.0, c)))

    return ang(bc, ab, ac), ang(ac, ab, bc), ang(ab, ac, bc)


def split_quad(p00, p10, p01, p11):
    """(tris, max_angle) of the diagonal with the smaller maximum angle."""
    pts = (p00, p10, p01, p11)
    angles = []
    for opt in (OPTION_A, OPTION_B):
        worst = 0.0
        for tri in opt:
            worst = max(worst, max(tri_angles(*(pts[c] for c in tri))))
        angles.append(worst)
    if angles[1] < angles[0]:
        return OPTION_B, angles[1]
    return OPTION_A, angles[0]


def trimesh(vertices, quads):
    """(tris, tri_lengths, obtuse triangle list) of the scalar split."""
    tris = []
    obtuse = []
    for corners in quads:
        opt, worst = split_quad(*(vertices[c] for c in corners))
        for tri in opt:
            tris.append(tuple(corners[c] for c in tri))
        if worst > math.pi / 2.0 + OBTUSE_TOL:
            obtuse.extend([len(tris) - 2, len(tris) - 1])
    tris = np.array(tris, dtype=int)
    lengths = np.zeros((tris.shape[0], 3))
    for t in range(tris.shape[0]):
        pa, pb, pc = (vertices[v] for v in tris[t])
        lengths[t] = (np.linalg.norm(pc - pb), np.linalg.norm(pc - pa),
                      np.linalg.norm(pb - pa))
    return tris, lengths, obtuse


def fast_march(m, sources):
    """(d, order, pops, pushes, fallbacks, fell_back) of the full-recompute march.

    Every neighbour of an accepted vertex re-evaluates all its stencils.
    ``fallbacks`` counts every evaluation that fell back to the edge terms,
    ``fell_back`` is the set of distinct (target, stencil) pairs among them.
    """
    n = m.n_vertices
    records = [[] for _ in range(n)]
    for t in range(m.tris.shape[0]):
        vs = [int(v) for v in m.tris[t]]
        ls = m.tri_lengths[t]
        for a in range(3):
            records[vs[a]].append((vs[(a + 1) % 3], vs[(a + 2) % 3],
                                   float(ls[(a + 2) % 3]), float(ls[(a + 1) % 3]),
                                   float(ls[a])))
    neighbors = [set() for _ in range(n)]
    for t in range(m.tris.shape[0]):
        a, b, c = (int(v) for v in m.tris[t])
        neighbors[a].update((b, c))
        neighbors[b].update((a, c))
        neighbors[c].update((a, b))
    neighbors = [sorted(nb) for nb in neighbors]

    d = np.full(n, math.inf)
    accepted = np.zeros(n, dtype=bool)
    heap = []
    order = []
    pops = pushes = fallbacks = 0
    fell_back = set()
    fixed = set()
    for v, d0 in sources:
        v = int(v)
        if d[v] > d0:
            d[v] = d0
        fixed.add(v)
    for v in sorted(fixed):
        heapq.heappush(heap, (float(d[v]), v))
        pushes += 1
    while heap:
        dv, v = heapq.heappop(heap)
        pops += 1
        if accepted[v] or dv != d[v]:
            continue
        accepted[v] = True
        order.append(v)
        for nb in neighbors[v]:
            if accepted[nb] or nb in fixed:
                continue
            best = math.inf
            for r, (j, k, Dij, Dik, Djk) in enumerate(records[nb]):
                if accepted[j] and accepted[k]:
                    cand, fell = _unfold(d[j], d[k], Dij, Dik, Djk)
                    if fell:
                        fallbacks += 1
                        fell_back.add((nb, r))
                elif accepted[j]:
                    cand = d[j] + Dij
                elif accepted[k]:
                    cand = d[k] + Dik
                else:
                    continue
                if cand < best:
                    best = cand
            if best < d[nb]:
                d[nb] = best
                heapq.heappush(heap, (best, nb))
                pushes += 1
    return d, order, pops, pushes, fallbacks, fell_back


def steiner_bound(m, sources, k):
    """Dijkstra distances over the Steiner graph of order ``k`` of a TriMesh.

    The graph has k - 1 points on every edge, the barycentric lattice points
    (a, b, c) / k inside every triangle, and a straight segment between every
    two points of one triangle. Each segment is a path on the piecewise flat
    surface, so the result bounds the exact geodesic distance from above.
    Lengths come from ``tri_lengths`` alone: a lattice step (da, db, dc),
    summing to 0, has length sqrt(-(da db |ab|² + da dc |ac|² + db dc |bc|²)) / k,
    which is each edge length itself at k = 1 (the edge graph), and the same
    bits for the same segment at k = 2 and 4, whose point sets hold it.
    ``sources`` are (vertex, D0) pairs; returns the distances of the vertices.
    """
    n, tris = m.n_vertices, m.tris
    lattice = np.array([(k - b - c, b, c) for b in range(k + 1) for c in range(k + 1 - b)])
    pa, pb = np.array(list(itertools.combinations(range(len(lattice)), 2))).T
    da, db, dc = (lattice[pa] - lattice[pb]).T
    bc, ac, ab = (m.tri_lengths ** 2).T  # opposite corners a, b and c
    square = -(np.outer(ab, da * db) + np.outer(ac, da * dc) + np.outer(bc, db * dc))
    length = np.sqrt(np.maximum(square, 0.0)) / k

    # global point ids per (triangle, lattice point): the corners keep their
    # vertex ids, edge points follow from the lower vertex id of their edge
    ids = np.empty((len(tris), len(lattice)), dtype=np.intp)
    inner = (lattice > 0).all(axis=1)
    ids[:, inner] = n + np.arange(len(tris) * int(inner.sum())).reshape(len(tris), -1)
    pairs = np.sort(tris[:, [[1, 2], [0, 2], [0, 1]]], axis=-1)  # edge opposite each corner
    edges, edge_of = np.unique(pairs.reshape(-1, 2), axis=0, return_inverse=True)
    edge_of = edge_of.reshape(len(tris), 3)
    first = n + len(tris) * int(inner.sum())
    for p, point in enumerate(lattice.tolist()):
        zero = [a for a in range(3) if point[a] == 0]
        if len(zero) == 2:
            ids[:, p] = tris[:, 3 - sum(zero)]
        elif len(zero) == 1:
            a = zero[0]
            lo, hi = [c for c in range(3) if c != a]  # local corners of the edge
            # the point lies point[hi] / k of the way from corner lo to corner hi
            step = np.where(tris[:, lo] < tris[:, hi], point[hi], point[lo])
            ids[:, p] = first + (k - 1) * edge_of[:, a] + step - 1
    total = first + (k - 1) * len(edges)

    tail = np.concatenate([ids[:, pa].ravel(), ids[:, pb].ravel()])
    head = np.concatenate([ids[:, pb].ravel(), ids[:, pa].ravel()])
    order = np.argsort(tail, kind="stable")
    starts = np.searchsorted(tail[order], np.arange(total + 1)).tolist()
    head = head[order].tolist()
    weight = np.concatenate([length.ravel(), length.ravel()])[order].tolist()

    dist = [math.inf] * total
    heap = []
    for v, d0 in sources:
        if d0 < dist[v]:
            dist[v] = d0
            heapq.heappush(heap, (d0, v))
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        for w, length_vw in zip(head[starts[v]:starts[v + 1]],
                                weight[starts[v]:starts[v + 1]]):
            nd = dv + length_vw
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return np.array(dist[:n])
