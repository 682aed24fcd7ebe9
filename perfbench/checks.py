"""Output checks of the benchmark.

Every check recomputes its property from the arrays and files the library
hands back, with its own numpy code, so none of them trusts the library's
own diagnostics (``build_report``, ``validate_complex``). Each check raises
``CheckFailed`` with a one-line reason; the worker counts the operation
whose output failed as failed.
"""
from __future__ import annotations

import csv
import heapq
import json
import math

import numpy as np

LELIEUVRE_TOL = 1e-10   # absolute, on every quad relation
RHO_RTOL = 1e-12        # relative, rho against (-K(D))^(-1/2)
RAY_TOL = 1e-12         # absolute, ray positions and distances
DIJKSTRA_SLACK = 1e-12  # fast marching may not exceed the edge-graph distance


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _worst(values: np.ndarray) -> float:
    """Largest value, NaN if any value is NaN (so ``<= tol`` rejects it)."""
    if values.size == 0:
        return 0.0
    return float(np.max(values)) if np.all(np.isfinite(values)) else math.nan


# --- curvature law -----------------------------------------------------------

def rho_of_distance(curv, D: np.ndarray) -> np.ndarray:
    """rho = (-K(D))^(-1/2) for the curvature families, written out here."""
    family = curv.family.value
    if family == "CONSTANT":
        return np.ones_like(D)
    if family == "LINEAR":
        return (1.0 + curv.epsilon * D) ** -0.5
    if family == "RING":
        x = curv.ring_gain * (D - curv.ring_radius)
        return np.where(D <= curv.ring_radius, 1.0, (1.0 + curv.epsilon * x * x) ** -0.5)
    raise CheckFailed(f"no curvature formula for family {family}")


# --- complexes ---------------------------------------------------------------

def _corner_slices(parity_value: str):
    """Slices selecting corners f0, f1, f2, f12 of every quad of a sector."""
    lo, hi = slice(0, -1), slice(1, None)
    f0, f12 = (lo, lo), (hi, hi)
    step_i, step_j = (hi, lo), (lo, hi)
    if parity_value == "ODD":
        return f0, step_i, step_j, f12
    return f0, step_j, step_i, f12


def lelieuvre_residuals(s) -> dict:
    """Worst residual of each discrete Lelieuvre relation over a sector's quads."""
    corners = _corner_slices(s.parity.value)
    quad = np.logical_and.reduce([s.valid[c] for c in corners])
    P = [s.positions[c][quad] for c in corners]
    N = [s.normals[c][quad] for c in corners]
    rho = [s.rho[c][quad] for c in corners]
    nu = [np.sqrt(r)[:, None] * n for r, n in zip(rho, N)]
    nu0, nu1, nu2, nu12 = nu
    out = {
        "scaled_norm": _worst(np.abs(np.sum(nu12 * nu12, axis=1) - rho[3])),
        "closure": _worst(np.linalg.norm(np.cross(nu12 + nu0, nu1 + nu2), axis=1)),
    }
    tangency, length = [], []
    for a, b in ((0, 1), (0, 2), (1, 3), (2, 3)):
        e = P[b] - P[a]
        tangency.append(np.abs(np.sum(e * N[a], axis=1)))
        tangency.append(np.abs(np.sum(e * N[b], axis=1)))
        target = np.sqrt(rho[a] * rho[b]) * np.linalg.norm(np.cross(N[a], N[b]), axis=1)
        length.append(np.abs(np.linalg.norm(e, axis=1) - target))
    out["tangency"] = _worst(np.concatenate(tangency))
    out["edge_length"] = _worst(np.concatenate(length))
    return out


def check_finite(cx) -> None:
    for s in cx.sectors:
        v = s.valid
        for name, arr in (("position", s.positions[v]), ("normal", s.normals[v]),
                          ("rho", s.rho[v]), ("D", s.geo_dist[v])):
            _require(bool(np.all(np.isfinite(arr))),
                     f"sector {s.sector_id}: non-finite {name}")


def check_lelieuvre(cx) -> None:
    for s in cx.sectors:
        for name, worst in lelieuvre_residuals(s).items():
            _require(worst <= LELIEUVRE_TOL,
                     f"sector {s.sector_id}: {name} residual {worst:.3e}")


def check_rho(cx, curv) -> None:
    for s in cx.sectors:
        D = s.geo_dist[s.valid]
        rho = s.rho[s.valid]
        want = rho_of_distance(curv, D)
        err = _worst(np.abs(rho - want) / want)
        _require(err <= RHO_RTOL, f"sector {s.sector_id}: rho off (-K(D))^-1/2 by {err:.3e}")


def _ray(s, side: str):
    if side == "row":
        return s.positions[:, 0], s.geo_dist[:, 0]
    return s.positions[0, :], s.geo_dist[0, :]


def check_ray(cx, sector: int, side: str, p0, d0: float, h: float | None) -> float:
    """A straight boundary ray: evenly spaced on a line, D = d0 + k h.

    ``h`` is the expected spacing, or None to take it from the first step.
    Returns the spacing found.
    """
    P, D = _ray(cx.sectors[sector], side)
    where = f"sector {sector} {side} ray"
    step = P[1] - P[0]
    spacing = float(np.linalg.norm(step))
    k = np.arange(P.shape[0], dtype=float)
    _require(float(np.max(np.abs(P[0] - p0))) <= RAY_TOL, f"{where}: does not start at its anchor")
    _require(abs(float(D[0]) - d0) <= RAY_TOL, f"{where}: D starts at {D[0]!r}, not {d0!r}")
    if h is not None:
        _require(abs(spacing - h) <= RAY_TOL, f"{where}: spacing {spacing!r}, not {h!r}")
    off_line = _worst(np.abs(P - (P[0] + k[:, None] * step)).ravel())
    _require(off_line <= RAY_TOL, f"{where}: leaves its line by {off_line:.3e}")
    d_err = _worst(np.abs(D - (d0 + k * spacing)))
    _require(d_err <= RAY_TOL, f"{where}: D differs from d0 + k h by {d_err:.3e}")
    return spacing


def check_base_rays(cx, n_base: int, I: int, J: int, u_max: float, v_max: float) -> None:
    """Both rays of every base sector leave the origin with D = k h."""
    origin = np.zeros(3)
    for k in range(n_base):
        h_row = u_max / I if k % 2 == 0 else v_max / J
        h_col = v_max / J if k % 2 == 0 else u_max / I
        check_ray(cx, k, "row", origin, 0.0, h_row)
        check_ray(cx, k, "col", origin, 0.0, h_col)


def check_fan_axes(cx, target: int, b: int, fans: list) -> None:
    """The m - 1 straight split axes of one cut, anchored at the branch vertex.

    Fan k (1-based) carries axis k - 1 on its row and axis k on its column;
    the first row and last column are inherited curves, not axes.
    """
    t = cx.sectors[target]
    p0 = t.positions[b, b]
    d0 = float(t.geo_dist[b, b])
    spacings = []
    for k, sid in enumerate(fans, start=1):
        if k > 1:
            spacings.append(check_ray(cx, sid, "row", p0, d0, None))
        if k < len(fans):
            spacings.append(check_ray(cx, sid, "col", p0, d0, None))
    _require(max(spacings) - min(spacings) <= RAY_TOL,
             f"fan axes of sector {target} have unequal spacings {spacings}")


def check_gluing(cx) -> None:
    for g in cx.gluings:
        a, b = cx.sectors[g.sector_a], cx.sectors[g.sector_b]
        ia, ja = (np.array(x) for x in zip(*g.nodes_a))
        ib, jb = (np.array(x) for x in zip(*g.nodes_b))
        for name, arr_a, arr_b in (("position", a.positions, b.positions),
                                   ("normal", a.normals, b.normals)):
            gap = np.abs(arr_a[ia, ja] - arr_b[ib, jb])
            _require(bool(np.all(gap == 0.0)),
                     f"gluing {g.sector_a}-{g.sector_b}: {name} gap {_worst(gap.ravel()):.3e}")


def check_history(cx, tol: float) -> None:
    for rec in cx.history:
        _require(len(rec.changes) == rec.iterations >= 1,
                 f"stage epsilon {rec.epsilon}: {rec.iterations} iterations, "
                 f"{len(rec.changes)} changes")
        _require(all(math.isfinite(c) for c in rec.changes),
                 f"stage epsilon {rec.epsilon}: non-finite change")
        _require(rec.changes[-1] < tol,
                 f"stage epsilon {rec.epsilon}: last change {rec.changes[-1]:.3e} >= tol {tol:g}")


# --- exported files ----------------------------------------------------------

def read_obj(path):
    """Vertices, normals and quad faces (0-based) of an OBJ export."""
    v, vn, faces = [], [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                v.append([float(x) for x in line.split()[1:4]])
            elif line.startswith("vn "):
                vn.append([float(x) for x in line.split()[1:4]])
            elif line.startswith("f "):
                faces.append([int(tok.split("/")[0]) - 1 for tok in line.split()[1:]])
    return np.array(v), np.array(vn), np.array(faces, dtype=np.int64)


def read_csv_nodes(path) -> dict:
    """(sector, i, j) -> (vertex index, position, normal) from the CSV sidecar."""
    nodes = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["sector_id"]), int(row["i"]), int(row["j"]))
            nodes[key] = (int(row["vertex_index"]),
                          [float(row[c]) for c in ("x", "y", "z")],
                          [float(row[c]) for c in ("nx", "ny", "nz")])
    return nodes


def quad_edges(faces: np.ndarray):
    """Distinct (a, b) edges, a < b, of the quad faces and how many faces share each."""
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                            faces[:, [2, 3]], faces[:, [3, 0]]])
    edges.sort(axis=1)
    return np.unique(edges, axis=0, return_counts=True)


def quad_valences(faces: np.ndarray, n_vertices: int):
    """Incident quad count per vertex and the mask of boundary vertices."""
    valence = np.bincount(faces.ravel(), minlength=n_vertices)
    edges, counts = quad_edges(faces)
    boundary = np.zeros(n_vertices, dtype=bool)
    boundary[edges[counts == 1].ravel()] = True
    return valence, boundary


def check_valence(faces: np.ndarray, n_vertices: int, branch: dict) -> None:
    """Branch vertices have their stated quad count, other interior ones 4."""
    valence, boundary = quad_valences(faces, n_vertices)
    for v, want in branch.items():
        _require(int(valence[v]) == want,
                 f"branch vertex {v} has {int(valence[v])} quads, expected {want}")
    regular = ~boundary
    regular[list(branch)] = False
    bad = np.flatnonzero(regular & (valence != 4))
    _require(bad.size == 0, f"interior vertex {bad[:1].tolist()} has "
             f"{valence[bad[:1]].tolist()} quads, expected 4")


def check_export(cx, obj_path, csv_path, branch_nodes: dict):
    """OBJ and CSV carry the complex bitwise, and the valences are right.

    ``branch_nodes`` maps a grid node (sector, i, j) to its expected quad
    count. Returns the parsed OBJ (vertices, faces) for the query checks.
    """
    V, VN, F = read_obj(obj_path)
    nodes = read_csv_nodes(csv_path)
    n_valid = sum(int(s.valid.sum()) for s in cx.sectors)
    n_quads = sum(int((s.valid[:-1, :-1] & s.valid[1:, :-1] & s.valid[:-1, 1:]
                       & s.valid[1:, 1:]).sum()) for s in cx.sectors)
    _require(len(nodes) == n_valid, f"CSV has {len(nodes)} nodes, complex {n_valid}")
    _require(F.shape == (n_quads, 4), f"OBJ has {F.shape[0]} faces, complex {n_quads} quads")
    _require(V.shape == VN.shape, "OBJ v and vn counts differ")
    vids = np.array([vid for vid, _, _ in nodes.values()])
    _require(vids.min() == 0 and vids.max() + 1 == V.shape[0],
             f"CSV vertex indices do not cover the {V.shape[0]} OBJ vertices")
    for (sid, i, j), (vid, p, n) in nodes.items():
        s = cx.sectors[sid]
        _require(bool(s.valid[i, j]), f"CSV lists invalid node {(sid, i, j)}")
        exact = (np.array_equal(p, s.positions[i, j]) and np.array_equal(n, s.normals[i, j])
                 and np.array_equal(V[vid], s.positions[i, j])
                 and np.array_equal(VN[vid], s.normals[i, j]))
        _require(exact, f"node {(sid, i, j)} is not exported bitwise")
    branch = {nodes[key][0]: want for key, want in branch_nodes.items()}
    check_valence(F, V.shape[0], branch)
    return V, F


def check_report(report_json, report_txt, cx, n_vertices: int, n_quads: int) -> None:
    with open(report_json) as fh:
        rep = json.load(fh)
    with open(report_txt) as fh:
        first = fh.readline()
    _require(first.startswith("diagnostics report"), "text report has no header")
    _require(rep["n_vertices"] == n_vertices and rep["n_quads"] == n_quads,
             f"report counts {rep['n_vertices']}/{rep['n_quads']}, "
             f"export {n_vertices}/{n_quads}")
    want = [rec.iterations for rec in cx.history]
    got = [rec["iterations"] for rec in rep["change_history"]]
    _require(got == want, f"report history {got}, complex {want}")


def check_import(cx, imported) -> None:
    """import_mesh gives back every position and normal bitwise."""
    _require(len(imported.sectors) == len(cx.sectors), "imported sector count differs")
    for s, t in zip(cx.sectors, imported.sectors):
        same = (s.parity is t.parity and np.array_equal(s.valid, t.valid)
                and np.array_equal(s.positions[s.valid], t.positions[t.valid])
                and np.array_equal(s.normals[s.valid], t.normals[t.valid]))
        _require(same, f"sector {s.sector_id} does not round-trip bitwise")


# --- distance queries --------------------------------------------------------

def edge_graph_distance(V: np.ndarray, F: np.ndarray, sources) -> np.ndarray:
    """Dijkstra over the OBJ quad edges, an upper bound for fast marching."""
    edges, _ = quad_edges(F)
    lengths = np.linalg.norm(V[edges[:, 1]] - V[edges[:, 0]], axis=1)
    adj = [[] for _ in range(V.shape[0])]
    for (a, b), length in zip(edges.tolist(), lengths.tolist()):
        adj[a].append((b, length))
        adj[b].append((a, length))
    dist = [math.inf] * V.shape[0]
    heap = []
    for v in sources:
        dist[v] = 0.0
        heap.append((0.0, v))
    heapq.heapify(heap)
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        for nb, length in adj[v]:
            nd = dv + length
            if nd < dist[nb]:
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return np.array(dist)


def check_distance(V: np.ndarray, F: np.ndarray, sources, d: np.ndarray) -> None:
    """Zero at the sources, finite everywhere, at most the edge-graph path."""
    _require(d.shape == (V.shape[0],), f"distance field has shape {d.shape}")
    _require(all(d[v] == 0.0 for v in sources), "distance is not 0 at a source")
    _require(bool(np.all(np.isfinite(d))), "distance field is not finite")
    over = _worst(d - edge_graph_distance(V, F, sources))
    _require(over <= DIJKSTRA_SLACK, f"distance exceeds the edge-graph path by {over:.3e}")
