"""Scalar reference implementation of glued-node deduplication.

This is the per-node union-find that ``ksurf.mesh.global_vertex_ids``
replaced with array numbering over the glued pairs. It is kept only as an
oracle: the library must return the same ids, count and back references.
"""
import numpy as np


def global_vertex_ids(cx):
    """Deduplicate glued nodes into global vertex ids.

    Returns (ids, count, back_refs) where ids is a list of (I+1, J+1) int
    arrays per sector (-1 on invalid nodes), count the number of distinct
    vertices and back_refs a list mapping each vertex id to its (sector, i, j)
    occurrences in deterministic order.
    """
    keys = []
    offsets = []
    total = 0
    for s in cx.sectors:
        offsets.append(total)
        total += (s.I + 1) * (s.J + 1)

    parent = list(range(total))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    def flat(sector_id: int, i: int, j: int) -> int:
        s = cx.sectors[sector_id]
        return offsets[sector_id] + i * (s.J + 1) + j

    for g in cx.gluings:
        for (ia, ja), (ib, jb) in g.pairs():
            union(flat(g.sector_a, ia, ja), flat(g.sector_b, ib, jb))

    ids = []
    back_refs = []
    lookup = {}
    for sid, s in enumerate(cx.sectors):
        arr = np.full((s.I + 1, s.J + 1), -1, dtype=int)
        for i in range(s.I + 1):
            for j in range(s.J + 1):
                if not s.valid[i, j]:
                    continue
                root = find(flat(sid, i, j))
                if root not in lookup:
                    lookup[root] = len(back_refs)
                    back_refs.append([])
                vid = lookup[root]
                arr[i, j] = vid
                back_refs[vid].append((sid, i, j))
        ids.append(arr)
    return ids, len(back_refs), back_refs
