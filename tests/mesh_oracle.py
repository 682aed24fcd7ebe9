"""Scalar reference implementations of deduplication and structural checks.

``global_vertex_ids`` is the per-node union-find that
``ksurf.mesh.global_vertex_ids`` replaced with array numbering over the
glued pairs; the library must return the same ids, count and back
references. ``validate_complex`` and ``incident_quad_count`` are the
per-quad loops that the quad table of ``ksurf.mesh`` replaced, with the
disk topology check written as a loop over the edge dictionary; the library
must report the same checks and counts. They are kept only as oracles.
"""
import numpy as np

from ksurf.mesh import (
    COINCIDENCE_TOL,
    UNIT_NORMAL_TOL,
    CheckResult,
    Parity,
    ValidationReport,
    gluing_gaps,
)


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
        for (ia, ja), (ib, jb) in zip(g.nodes_a, g.nodes_b):
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


def _quads(s):
    """(i, j) lower corners of the quads of ``s`` whose four nodes are valid."""
    for i in range(s.I):
        for j in range(s.J):
            if s.valid[i:i + 2, j:j + 2].all():
                yield (i, j)


def incident_quad_count(cx, sector, i, j):
    """Number of quads (over all sectors) meeting the given node."""
    ids, _, _ = global_vertex_ids(cx)
    target = ids[sector][i, j]
    if target < 0:
        raise ValueError(f"node ({sector},{i},{j}) is not a valid vertex")
    count = 0
    for sid, s in enumerate(cx.sectors):
        for (qi, qj) in _quads(s):
            corners = [(qi, qj), (qi + 1, qj), (qi, qj + 1), (qi + 1, qj + 1)]
            if any(ids[sid][a, b] == target for a, b in corners):
                count += 1
    return count


def _edge_label(parity, axis):
    """Asymptotic label of a grid edge running along the given index axis."""
    if parity is Parity.ODD:
        return "u" if axis == "i" else "v"
    return "v" if axis == "i" else "u"


def validate_complex(cx):
    """Structural checks for a surface complex, one quad at a time."""
    checks = []

    worst_norm = 0.0
    bad_state = ""
    for s in cx.sectors:
        if s.valid.any():
            norms = np.linalg.norm(s.normals[s.valid], axis=-1)
            finite = np.isfinite(norms)
            if not finite.all():
                bad_state = f"sector {s.sector_id} has unset normals"
            elif norms.size:
                worst_norm = max(worst_norm, float(np.abs(norms - 1.0).max()))
            rhos = s.rho[s.valid]
            if not (np.isnan(rhos) | (rhos > 0)).all():
                bad_state = f"sector {s.sector_id} has nonpositive rho"
            if not np.isfinite(s.positions[s.valid]).all():
                bad_state = f"sector {s.sector_id} has non-finite positions"
    checks.append(CheckResult(
        "vertex_states",
        passed=(not bad_state) and worst_norm < UNIT_NORMAL_TOL,
        value=worst_norm,
        detail=bad_state or f"max | |N| - 1 | = {worst_norm:.3e}",
    ))

    pos_max, nrm_max = gluing_gaps(cx)
    checks.append(CheckResult(
        "gluing_coincidence",
        passed=pos_max < COINCIDENCE_TOL and nrm_max < COINCIDENCE_TOL,
        value=max(pos_max, nrm_max),
        detail=f"max position gap {pos_max:.3e}, normal gap {nrm_max:.3e}",
    ))

    ids, n_verts, back_refs = global_vertex_ids(cx)

    quads = []
    edge_labels = {}
    edge_quads = {}
    label_conflict = ""
    for sid, s in enumerate(cx.sectors):
        for (qi, qj) in _quads(s):
            q = len(quads)
            quads.append((sid, qi, qj))
            c00 = ids[sid][qi, qj]
            c10 = ids[sid][qi + 1, qj]
            c01 = ids[sid][qi, qj + 1]
            c11 = ids[sid][qi + 1, qj + 1]
            edges = [
                (c00, c10, "i"), (c01, c11, "i"),
                (c00, c01, "j"), (c10, c11, "j"),
            ]
            for a, b, axis in edges:
                key = (min(a, b), max(a, b))
                lab = _edge_label(s.parity, axis)
                prev = edge_labels.setdefault(key, lab)
                if prev != lab and not label_conflict:
                    label_conflict = (
                        f"edge {key} labeled both {prev} and {lab} "
                        f"(sector {sid} quad ({qi},{qj}))"
                    )
                edge_quads.setdefault(key, []).append(q)
    checks.append(CheckResult(
        "edge_labels",
        passed=not label_conflict,
        detail=label_conflict or f"{len(edge_labels)} edges labeled consistently",
    ))

    color = [-1] * len(quads)
    conflict = ""
    for start in range(len(quads)):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            q = stack.pop()
            sid, qi, qj = quads[q]
            c00 = ids[sid][qi, qj]
            c10 = ids[sid][qi + 1, qj]
            c01 = ids[sid][qi, qj + 1]
            c11 = ids[sid][qi + 1, qj + 1]
            for a, b in ((c00, c10), (c01, c11), (c00, c01), (c10, c11)):
                key = (min(a, b), max(a, b))
                for nb in edge_quads[key]:
                    if nb == q:
                        continue
                    if color[nb] == -1:
                        color[nb] = 1 - color[q]
                        stack.append(nb)
                    elif color[nb] == color[q] and not conflict:
                        conflict = f"quads {quads[q]} and {quads[nb]} clash"
    checks.append(CheckResult(
        "two_coloring",
        passed=not conflict,
        detail=conflict or "quad graph is 2-colorable",
    ))

    vert_quads = [0] * n_verts
    for sid, s in enumerate(cx.sectors):
        for (qi, qj) in _quads(s):
            for a, b in ((qi, qj), (qi + 1, qj), (qi, qj + 1), (qi + 1, qj + 1)):
                vert_quads[ids[sid][a, b]] += 1
    boundary_vert = [False] * n_verts
    for key, qs in edge_quads.items():
        if len(qs) == 1:
            boundary_vert[key[0]] = True
            boundary_vert[key[1]] = True
    branch_ids = {}
    for bp in cx.branch_points:
        branch_ids[ids[bp.sector][bp.i, bp.j]] = bp.expected_quads
    incidence_fail = ""
    for v in range(n_verts):
        if v in branch_ids:
            if vert_quads[v] != branch_ids[v]:
                incidence_fail = (
                    f"branch vertex {back_refs[v][0]} has {vert_quads[v]} quads, "
                    f"expected {branch_ids[v]}"
                )
                break
        elif not boundary_vert[v] and vert_quads[v] != 4:
            incidence_fail = (
                f"interior vertex {back_refs[v][0]} has {vert_quads[v]} quads"
            )
            break
    checks.append(CheckResult(
        "quad_incidence",
        passed=not incidence_fail,
        detail=incidence_fail or "interior vertices regular, branch counts match",
    ))

    parent = list(range(n_verts))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    rim = [key for key, qs in edge_quads.items() if len(qs) == 1]
    for a, b in rim:
        parent[find(a)] = find(b)
    n_loops = len({find(a) for a, _ in rim})
    chi = n_verts - len(edge_quads) + len(quads)
    named = []
    if len(cx.sectors) > 1:
        named.append(("origin", tuple(cx.origin)))
    for bp in cx.branch_points:
        named.append(("branch point", (bp.sector, bp.i, bp.j)))
    exposed = ""
    for what, (sid, i, j) in named:
        v = ids[sid][i, j]
        if v >= 0 and boundary_vert[v] and not exposed:
            exposed = f", {what} {(sid, i, j)} on the boundary"
    checks.append(CheckResult(
        "disk_topology",
        passed=chi == 1 and n_loops == 1 and not exposed,
        value=chi,
        detail=f"chi = {chi}, {n_loops} boundary loop(s){exposed}",
    ))
    return ValidationReport(checks)
