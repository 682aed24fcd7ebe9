"""Sector grids, gluing metadata and structural validation.

A surface is a collection of quad-graph sectors. Each sector stores per-node
position, unit normal, rescaled curvature rho = (-K)^(-1/2) and geodesic
distance on regular (I+1) x (J+1) arrays. Sectors are glued along shared
boundary curves; glued nodes are stored in both sectors and checked for
coincidence rather than shared by reference.

Grid conventions
----------------
Index i runs along the sector's first boundary ray, j along the second.
A sector's parity decides which asymptotic coordinate each index carries:
ODD sectors have u = i, v = j; EVEN sectors have u = j, v = i. Quads are
checkered by (i + j) % 2 inside a sector; globally the checkering must be
a consistent 2-coloring of the quad adjacency graph, which fails exactly
when a branch vertex has an odd number of incident quads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

UNSET_DISTANCE = math.inf

COINCIDENCE_TOL = 1e-10
UNIT_NORMAL_TOL = 1e-12


class Parity(Enum):
    ODD = "ODD"
    EVEN = "EVEN"

    def flipped(self) -> "Parity":
        return Parity.EVEN if self is Parity.ODD else Parity.ODD


@dataclass
class RayData:
    """Per-node data of a boundary curve, as ``SectorGrid.write_side`` writes it."""

    positions: np.ndarray
    normals: np.ndarray
    rho: np.ndarray
    D: np.ndarray


@dataclass
class SectorGrid:
    """One quad-graph sector with per-node arrays.

    Arrays have shape (I+1, J+1, ...) where I and J count grid intervals.
    ``valid`` marks nodes that exist; branch-point surgery truncates a
    sector by invalidating the excised square.
    """

    positions: np.ndarray
    normals: np.ndarray
    rho: np.ndarray
    geo_dist: np.ndarray
    valid: np.ndarray
    parity: Parity
    sector_id: int = 0

    @classmethod
    def empty(cls, I: int, J: int, parity: Parity, sector_id: int = 0) -> "SectorGrid":
        if I < 1 or J < 1:
            raise ValueError(f"sector needs at least one quad, got I={I}, J={J}")
        shape = (I + 1, J + 1)
        return cls(
            positions=np.full(shape + (3,), np.nan),
            normals=np.full(shape + (3,), np.nan),
            rho=np.full(shape, np.nan),
            geo_dist=np.full(shape, UNSET_DISTANCE),
            valid=np.ones(shape, dtype=bool),
            parity=parity,
            sector_id=sector_id,
        )

    @property
    def I(self) -> int:
        return self.positions.shape[0] - 1

    @property
    def J(self) -> int:
        return self.positions.shape[1] - 1

    def write_side(self, side: str, data: RayData) -> None:
        """Write boundary data along the first row or column.

        ``side`` is "row" for the nodes (i, 0) or "col" for (0, j). Every
        boundary record of a complex writes its data through this method.
        """
        if side == "row":
            at, n = (slice(None), 0), self.I + 1
        else:
            at, n = (0, slice(None)), self.J + 1
        if data.positions.shape[0] != n:
            raise ValueError(f"{data.positions.shape[0]} boundary nodes for a {side} of {n}")
        self.positions[at] = data.positions
        self.normals[at] = data.normals
        self.rho[at] = data.rho
        self.geo_dist[at] = data.D

    def copy(self) -> "SectorGrid":
        return SectorGrid(
            positions=self.positions.copy(),
            normals=self.normals.copy(),
            rho=self.rho.copy(),
            geo_dist=self.geo_dist.copy(),
            valid=self.valid.copy(),
            parity=self.parity,
            sector_id=self.sector_id,
        )

    def quad_mask(self) -> np.ndarray:
        """(I, J) mask of the quads, by lower corner, that have all four nodes."""
        v = self.valid
        return v[:-1, :-1] & v[1:, :-1] & v[:-1, 1:] & v[1:, 1:]

    def boundary_mask(self) -> np.ndarray:
        """Nodes whose data is prescribed rather than swept (first row/column)."""
        m = np.zeros_like(self.valid)
        m[0, :] = True
        m[:, 0] = True
        return m & self.valid


def quad_corner_values(s: SectorGrid, a: np.ndarray) -> np.ndarray:
    """A per-node array of ``s`` at the corners of all valid quads, as (4, n, ...).

    Corners are ordered (f0, f1, f2, f12): f0 is the lower corner (i, j),
    f12 is (i+1, j+1), f1 the u-neighbor and f2 the v-neighbor of f0, so
    the roles of (i+1, j) and (i, j+1) swap with sector parity. Quads come
    in the i-major order of their lower corners in ``quad_mask``.
    """
    ok = s.quad_mask()
    c00, c10, c01, c11 = a[:-1, :-1][ok], a[1:, :-1][ok], a[:-1, 1:][ok], a[1:, 1:][ok]
    f1, f2 = (c10, c01) if s.parity is Parity.ODD else (c01, c10)
    return np.stack([c00, f1, f2, c11])


def quad_corner_arrays(s: SectorGrid):
    """Positions, normals and rho of all valid quads (see ``quad_corner_values``)."""
    return tuple(quad_corner_values(s, a) for a in (s.positions, s.normals, s.rho))


def diagonal_layout(grids: list) -> tuple:
    """The nodes of a group of sector grids, laid end to end by anti-diagonal.

    The sectors' flat, i-major node arrays are joined in list order. Returns
    (offsets, quad, odd, cuts): where each sector's nodes start, with the
    total last; the (4, n) flat indices of the corners 00, 10, 01 and 11 of
    the quad (i-1, j-1)-(i, j) of every node (i, j) of ``valid[1:, 1:]``,
    which is its corner 11, stably sorted by i + j; whether each node's
    sector is ODD; and where each anti-diagonal after the first starts.
    """
    offsets = np.concatenate([[0], np.cumsum([s.valid.size for s in grids])])
    node, width, odd, diag = [], [], [], []
    for s, offset in zip(grids, offsets.tolist()):
        i, j = np.nonzero(s.valid[1:, 1:])
        node.append(offset + (i + 1) * (s.J + 1) + j + 1)
        width.append(np.full(len(i), s.J + 1))
        odd.append(np.full(len(i), s.parity is Parity.ODD))
        diag.append(i + j)
    diag = np.concatenate(diag)
    order = np.argsort(diag, kind="stable")
    node, width, odd = (np.concatenate(a)[order] for a in (node, width, odd))
    quad = np.array([node - width - 1, node - 1, node - width, node])
    return offsets, quad, odd, np.flatnonzero(np.diff(diag[order])) + 1


@dataclass
class GluingMap:
    """Identification of two boundary node runs in different sectors.

    ``nodes_a[t]`` in sector ``sector_a`` and ``nodes_b[t]`` in ``sector_b``
    are the same surface point.
    """

    sector_a: int
    sector_b: int
    nodes_a: list
    nodes_b: list

    def __post_init__(self) -> None:
        if len(self.nodes_a) != len(self.nodes_b):
            raise ValueError("glued node runs must have equal length")


@dataclass(frozen=True)
class InheritLink:
    """Boundary record: a first row or column that mirrors source nodes.

    Branch-point surgery uses it for the fans' inherited curves. ``write``
    copies position, normal, rho and geodesic distance of ``src_nodes``
    into the ``side`` ("row" or "col") of the destination, which goes stale
    whenever the source sector is swept.
    """

    src_sector: int
    src_nodes: tuple
    dst_sector: int
    side: str

    @property
    def source(self) -> int:
        return self.src_sector

    @property
    def dst_sectors(self) -> tuple:
        return (self.dst_sector,)

    def write(self, cx: "SurfaceComplex", curv=None) -> None:
        src = cx.sectors[self.src_sector]
        at = tuple(np.array(self.src_nodes, dtype=int).T)
        cx.sectors[self.dst_sector].write_side(self.side, RayData(
            src.positions[at], src.normals[at], src.rho[at], src.geo_dist[at]))


@dataclass
class BranchPoint:
    sector: int
    i: int
    j: int
    incident_sectors: int
    expected_quads: int


@dataclass
class SurfaceComplex:
    """Sectors with their gluings, branch points and boundary records.

    ``boundaries`` lists immutable records of prescribed boundary data in
    the order they are written. Each has ``source``, the sector whose sweep
    makes it stale (None when it depends on the curvature alone),
    ``dst_sectors``, the sectors it writes into, and ``write(cx, curv)``,
    which goes through ``SectorGrid.write_side``;
    ``amsler.refresh_boundaries`` writes them.
    """

    sectors: list
    gluings: list = field(default_factory=list)
    branch_points: list = field(default_factory=list)
    origin: tuple = (0, 0, 0)
    boundaries: list = field(default_factory=list)
    history: list = field(default_factory=list)

    def copy(self) -> "SurfaceComplex":
        """Fresh sector arrays; gluings, records and history in new lists."""
        return SurfaceComplex(
            sectors=[s.copy() for s in self.sectors],
            gluings=list(self.gluings),
            branch_points=list(self.branch_points),
            origin=self.origin,
            boundaries=list(self.boundaries),
            history=list(self.history),
        )


def _set_roots(pairs) -> dict:
    """Union-find over the (a, b) ``pairs``: each non-root element mapped to its root.

    Every set is named by its smallest element; an element absent from the
    result is its own root.
    """
    parent = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def global_vertex_ids(cx: SurfaceComplex) -> tuple:
    """Deduplicate glued nodes into global vertex ids.

    Returns (ids, first): ids is a tuple of (I+1, J+1) int arrays per
    sector (-1 on invalid nodes), and first the flat index of each vertex's
    first node, in id order, so ``len(first)`` vertices.

    Nodes are numbered flat, sector by sector in i-major order. Union-find
    runs over the glued pairs only and names each set by its smallest flat
    index; vertex ids then number the sets in order of their first valid node.
    """
    shapes = [(s.I + 1, s.J + 1) for s in cx.sectors]
    offsets = np.concatenate([[0], np.cumsum([a * b for a, b in shapes], dtype=int)])

    def flat(sector: int, nodes) -> list:
        start, width = int(offsets[sector]), shapes[sector][1]
        return [start + i * width + j for i, j in nodes]

    pairs = [pair for g in cx.gluings
             for pair in zip(flat(g.sector_a, g.nodes_a), flat(g.sector_b, g.nodes_b))]
    root = np.arange(offsets[-1])
    for x, r in _set_roots(pairs).items():
        root[x] = r

    nodes = np.flatnonzero(np.concatenate([s.valid.ravel() for s in cx.sectors]))
    _, first, inverse = np.unique(root[nodes], return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    flat_ids = np.full(offsets[-1], -1, dtype=int)
    flat_ids[nodes] = rank[inverse]
    ids = tuple(flat_ids[offsets[k]:offsets[k + 1]].reshape(shape)
                for k, shape in enumerate(shapes))
    return ids, nodes[np.sort(first)]


def gluing_gaps(cx: SurfaceComplex) -> tuple:
    """Largest position and normal distances between glued nodes.

    Both start from 0.0 and are NaN when any glued distance is, so a
    non-finite glued node never reads as coincident.
    """
    pos_max = nrm_max = 0.0
    for g in cx.gluings:
        sa, sb = cx.sectors[g.sector_a], cx.sectors[g.sector_b]
        ia, ja = np.array(g.nodes_a, dtype=int).reshape(-1, 2).T
        ib, jb = np.array(g.nodes_b, dtype=int).reshape(-1, 2).T
        dp = sa.positions[ia, ja] - sb.positions[ib, jb]
        dn = sa.normals[ia, ja] - sb.normals[ib, jb]
        pos_max = float(np.maximum.reduce(np.sqrt(np.vecdot(dp, dp)), initial=pos_max))
        nrm_max = float(np.maximum.reduce(np.sqrt(np.vecdot(dn, dn)), initial=nrm_max))
    return pos_max, nrm_max


@dataclass(frozen=True)
class QuadTable:
    """Every valid quad of a complex, sector by sector, i-major inside each.

    ``corners[q]`` holds the vertex ids of quad q in grid order (00, 10, 01,
    11); ``sector[q]``, ``i[q]`` and ``j[q]`` locate its lower corner.
    """

    corners: np.ndarray
    sector: np.ndarray
    i: np.ndarray
    j: np.ndarray

    def where(self, q: int) -> tuple:
        """(sector, i, j) of quad q as Python ints."""
        return int(self.sector[q]), int(self.i[q]), int(self.j[q])


def quad_table(cx: SurfaceComplex, ids) -> QuadTable:
    """The quads of ``cx``, given its vertex ids from ``global_vertex_ids``."""
    at = [np.nonzero(s.quad_mask()) for s in cx.sectors]
    corners = [np.stack([a[i, j], a[i + 1, j], a[i, j + 1], a[i + 1, j + 1]], axis=1)
               for a, (i, j) in zip(ids, at)]
    return QuadTable(corners=np.concatenate(corners),
                     sector=np.repeat(np.arange(len(at)), [len(i) for i, _ in at]),
                     i=np.concatenate([i for i, _ in at]),
                     j=np.concatenate([j for _, j in at]))


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float | int | None = None
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            extra = f" ({c.detail})" if c.detail else ""
            lines.append(f"{c.name}: {status}{extra}")
        return "\n".join(lines)


# the four edges of a quad as corner pairs in grid order (00, 10, 01, 11), and
# whether each runs along index i; ODD sectors label i-edges u, EVEN ones v
_QUAD_EDGES = np.array([(0, 1), (2, 3), (0, 2), (1, 3)])
_ALONG_I = np.array([True, True, False, False])


def validate_complex(cx: SurfaceComplex) -> ValidationReport:
    """Structural checks for a surface complex.

    Verifies finite positions and unit normals, gluing coincidence,
    consistent u/v edge labels across sectors, 2-colorability of the quad
    adjacency graph, quad incidence counts (4 at interior vertices,
    recorded counts at branch points), and that the quads form a disk:
    Euler characteristic V - E + F = 1, one loop of boundary edges (edges
    of one quad), and the origin and every branch point off that loop. A
    one-sector complex has its origin at the corner (0, 0) of its only
    sector, on the boundary, so the origin is held interior only when there
    are two or more sectors.
    """
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

    ids, first_node = global_vertex_ids(cx)
    n_verts = len(first_node)
    quads = quad_table(cx, ids)
    ends = np.sort(quads.corners[:, _QUAD_EDGES], axis=-1).reshape(-1, 2)
    edge_keys, first, edge = np.unique(ends[:, 0] * n_verts + ends[:, 1],
                                       return_index=True, return_inverse=True)

    odd = np.array([s.parity is Parity.ODD for s in cx.sectors])[quads.sector]
    label = np.where((odd[:, None] == _ALONG_I).ravel(), "u", "v")
    clash = np.flatnonzero(label != label[first][edge])
    label_conflict = ""
    if len(clash):
        k = int(clash[0])
        sid, qi, qj = quads.where(k // 4)
        label_conflict = (f"edge {tuple(ends[k].tolist())} labeled both {label[first[edge[k]]]} "
                          f"and {label[k]} (sector {sid} quad ({qi},{qj}))")
    checks.append(CheckResult(
        "edge_labels",
        passed=not label_conflict,
        detail=label_conflict or f"{len(edge_keys)} edges labeled consistently",
    ))

    # the quads on each edge in table order, which is the order the DFS meets them
    uses = np.bincount(edge)
    starts = np.concatenate([[0], np.cumsum(uses)]).tolist()
    on_edge = (np.argsort(edge, kind="stable") // 4).tolist()
    edge_quads = [on_edge[a:b] for a, b in zip(starts, starts[1:])]
    quad_edges = edge.reshape(-1, 4).tolist()
    color = [-1] * len(quad_edges)
    conflict = ""
    for start in range(len(quad_edges)):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            q = stack.pop()
            for e in quad_edges[q]:
                for nb in edge_quads[e]:
                    if nb == q:
                        continue
                    if color[nb] == -1:
                        color[nb] = 1 - color[q]
                        stack.append(nb)
                    elif color[nb] == color[q] and not conflict:
                        conflict = f"quads {quads.where(q)} and {quads.where(nb)} clash"
    checks.append(CheckResult(
        "two_coloring",
        passed=not conflict,
        detail=conflict or "quad graph is 2-colorable",
    ))

    vert_quads = np.bincount(quads.corners.ravel(), minlength=n_verts)
    once = edge_keys[uses == 1]
    rim = np.stack([once // n_verts, once % n_verts], axis=1)  # boundary edges
    checked = np.ones(n_verts, dtype=bool)
    checked[rim] = False
    expected = np.full(n_verts, 4)
    branch_ids = {int(ids[bp.sector][bp.i, bp.j]): bp.expected_quads
                  for bp in cx.branch_points}
    for v, count in branch_ids.items():
        if v >= 0:
            checked[v], expected[v] = True, count
    bad = np.flatnonzero(checked & (vert_quads != expected))
    incidence_fail = ""
    if len(bad):
        v = int(bad[0])
        offsets = np.cumsum([0] + [a.size for a in ids])
        sid = int(np.searchsorted(offsets, first_node[v], side="right")) - 1
        node = (sid, *divmod(int(first_node[v] - offsets[sid]), ids[sid].shape[1]))
        has = f"{node} has {int(vert_quads[v])} quads"
        incidence_fail = (f"branch vertex {has}, expected {branch_ids[v]}" if v in branch_ids
                          else f"interior vertex {has}")
    checks.append(CheckResult(
        "quad_incidence",
        passed=not incidence_fail,
        detail=incidence_fail or "interior vertices regular, branch counts match",
    ))

    chi = n_verts - len(edge_keys) + len(quads.corners)
    roots = _set_roots(rim.tolist())
    n_loops = len({roots.get(v, v) for v in rim[:, 0].tolist()})
    named = [("origin", cx.origin)] if len(cx.sectors) > 1 else []
    named += [("branch point", (bp.sector, bp.i, bp.j)) for bp in cx.branch_points]
    on_rim = set(rim.ravel().tolist())
    exposed = [f"{what} {(s, i, j)}" for what, (s, i, j) in named if ids[s][i, j] in on_rim]
    checks.append(CheckResult(
        "disk_topology",
        passed=chi == 1 and n_loops == 1 and not exposed,
        value=chi,
        detail=f"chi = {chi}, {n_loops} boundary loop(s)"
               + (f", {exposed[0]} on the boundary" if exposed else ""),
    ))
    return ValidationReport(checks)
