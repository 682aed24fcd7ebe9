"""Config parsing, mesh export/import and diagnostics reporting.

Configs are YAML (JSON also parses) with top-level keys ``curvature``,
``sectors``, ``grid``, ``iteration``, ``surgery`` and ``output``. Meshes
export as OBJ (one ``v`` and one ``vn`` line per deduplicated vertex, quads
as ``f`` faces with vertex//normal indices, full double precision) plus a
CSV sidecar with one row per sector node carrying the grid indices, the
deduplicated vertex index and the per-node scalars. A ``#meta`` comment in
the OBJ records sector shapes, parities, the origin and branch points so
the complex can be reimported losslessly.
"""
from __future__ import annotations

import contextlib
import io as _io
import json
import logging
import math
import re
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .amsler import (
    CurvatureFamily,
    CurvatureSpec,
    IterationConfig,
    SectorSpec,
    _resolve_schedule,
    _validate_angles,
    origin_vertex,
    symmetric_angles,
)
from .geodesic import TriMesh, fast_march, trimesh_from_quads, triangulate_complex
from .lelieuvre import quad_residual_arrays
from .mesh import (
    BranchPoint,
    CheckResult,
    GluingMap,
    Parity,
    SectorGrid,
    SurfaceComplex,
    global_vertex_ids,
    gluing_gaps,
    quad_corner_arrays,
    quad_corner_values,
    validate_complex,
)
from .vectors import cross

logger = logging.getLogger(__name__)

FLOAT_FMT = "%.17g"

CSV_COLUMNS = ["sector_id", "i", "j", "vertex_index",
               "x", "y", "z", "nx", "ny", "nz", "D", "K", "rho"]
# a CSV row as np.loadtxt reads it: four integer columns, then nine floats
CSV_ROW = np.dtype([(name, np.int64) for name in CSV_COLUMNS[:4]]
                   + [(name, np.float64) for name in CSV_COLUMNS[4:]])
# the /texture/normal part of a face vertex (a/b, a//c, a/b/c)
FACE_SUFFIX = re.compile(r"/\S*")
# the OBJ lines that carry the geometry: vertices, normals and faces
GEOMETRY_LINES = ("v ", "vn ", "f ")


class ConfigError(Exception):
    """Invalid or unparseable run configuration."""


@contextlib.contextmanager
def config_key(path: str):
    """Report ValueErrors of the library validators as ConfigError at ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """A validated run: building one (or ``replace``-ing a field) checks every value.

    A ``schedule`` of None stays None and means the automatic schedule: the
    target epsilon first, the doubling stages only if that fails.
    """

    curvature: CurvatureSpec
    schedule: list | None = None
    n: int = 2
    angles: list | None = None
    I: int = 20
    J: int = 20
    u_max: float = 1.0
    v_max: float = 1.0
    tol: float = 1e-4
    max_iters: int = 100
    surgery: list = field(default_factory=list)
    out_mesh: str = "surface.obj"
    out_csv: str = "surface.csv"
    out_report: str = "report.txt"

    def __post_init__(self) -> None:
        with config_key("curvature.schedule"):
            schedule = _resolve_schedule(
                self.curvature, IterationConfig(epsilon_schedule=self.schedule))
        if self.schedule is not None:
            object.__setattr__(self, "schedule", schedule)
        with config_key("sectors.n"):
            symmetric_angles(self.n)
        if self.angles is not None:
            with config_key("sectors.angles"):
                if len(self.angles) != 2 * self.n:
                    raise ValueError(
                        f"expected 2*n = {2 * self.n} angles, got {len(self.angles)}")
                _validate_angles(self.angles)
        with config_key("grid"):
            SectorSpec(u_max=self.u_max, v_max=self.v_max, I=self.I, J=self.J)
        with config_key("iteration"):
            self.iteration_config()
        self.check_surgery()

    def iteration_config(self) -> IterationConfig:
        return IterationConfig(tol=self.tol, max_iters=self.max_iters,
                               epsilon_schedule=self.schedule)

    def check_surgery(self) -> None:
        """Reject cuts that cannot apply to the complex they will meet.

        Follows the sector shapes through the cuts without generating
        anything: the 2n patched sectors alternate I x J and J x I, and a
        cut of sector s at b with m new sectors appends m fan sectors of
        (I - b) x size, size x size, ..., size x (I - b).
        """
        shapes = [(self.I, self.J) if k % 2 == 0 else (self.J, self.I)
                  for k in range(2 * self.n)]
        truncated = set()
        for idx, cut in enumerate(self.surgery):
            path = f"surgery[{idx}]"
            if cut.m % 2 == 0:
                raise ConfigError(f"{path}.m: must be odd, got {cut.m}")
            if cut.sector >= len(shapes):
                raise ConfigError(
                    f"{path}.sector: no sector {cut.sector}, the complex has "
                    f"{len(shapes)} sectors before this cut")
            if cut.sector in truncated:
                raise ConfigError(f"{path}.sector: sector {cut.sector} was already cut")
            rows, cols = shapes[cut.sector]
            if rows != cols:
                raise ConfigError(
                    f"{path}.sector: sector {cut.sector} is {rows}x{cols}, "
                    "surgery needs a square sector")
            if not 1 <= cut.b < rows:
                raise ConfigError(f"{path}.b: must satisfy 1 <= b < {rows}, got {cut.b}")
            side = rows - cut.b
            size = cut.size if cut.size is not None else side
            shapes += [(side, size)] + [(size, size)] * (cut.m - 2) + [(size, side)]
            truncated.add(cut.sector)


def _expect(mapping, key, types, path, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}: missing required key")
        return default
    val = mapping[key]
    if types is float and isinstance(val, int) and not isinstance(val, bool):
        val = _as_float(val, f"{path}.{key}")
    if not isinstance(val, types if isinstance(types, tuple) else (types,)) \
            or isinstance(val, bool):
        raise ConfigError(f"{path}.{key}: expected {getattr(types, '__name__', types)}, "
                          f"got {type(val).__name__}")
    return val


def _expect_map(data, key, path):
    sub = data.get(key, {})
    if sub is None:
        sub = {}
    if not isinstance(sub, dict):
        raise ConfigError(f"{path}{key}: expected a mapping")
    return sub


def _expect_numbers(mapping, key, path):
    """The list of numbers at ``key`` as floats, or None when absent."""
    val = mapping.get(key)
    if val is None:
        return None
    if not isinstance(val, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in val):
        raise ConfigError(f"{path}.{key}: expected a list of numbers")
    return [_as_float(x, f"{path}.{key}") for x in val]


def _as_float(val, path: str) -> float:
    try:
        return float(val)
    except OverflowError:
        raise ConfigError(f"{path}: integer too large for a float") from None


def _parse_cuts(entries) -> list:
    if entries is None:
        return []
    if not isinstance(entries, list):
        raise ConfigError("surgery: expected a list of cut specifications")
    from .surgery import SurgerySpec
    cuts = []
    for idx, entry in enumerate(entries):
        path = f"surgery[{idx}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: expected a mapping")
        with config_key(path):
            cuts.append(SurgerySpec(
                sector=_expect(entry, "sector", int, path, default=0),
                b=_expect(entry, "b", int, path, required=True),
                m=_expect(entry, "m", int, path, required=True),
                spacing=_expect(entry, "spacing", float, path, default=None),
                size=_expect(entry, "size", int, path, default=None)))
    return cuts


def parse_config(text: str) -> RunConfig:
    """Parse a run configuration, filling defaults; RunConfig checks the values."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    known = {"curvature", "sectors", "grid", "iteration", "surgery", "output"}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown top-level key")

    curv_map = _expect_map(data, "curvature", "")
    fam_name = _expect(curv_map, "family", str, "curvature", default="CONSTANT")
    try:
        family = CurvatureFamily(fam_name)
    except ValueError:
        names = "|".join(f.value for f in CurvatureFamily)
        raise ConfigError(f"curvature.family: expected one of {names}, got {fam_name!r}")
    params = _expect_map(curv_map, "params", "curvature.")
    with config_key("curvature"):
        curv = CurvatureSpec(
            family=family,
            epsilon=_expect(curv_map, "epsilon", float, "curvature", default=0.0),
            ring_radius=_expect(params, "ring_radius", float, "curvature.params", default=0.5),
            ring_gain=_expect(params, "ring_gain", float, "curvature.params", default=20.0))

    sectors = _expect_map(data, "sectors", "")
    grid = _expect_map(data, "grid", "")
    I = _expect(grid, "I", int, "grid", default=20)
    iteration = _expect_map(data, "iteration", "")
    output = _expect_map(data, "output", "")
    return RunConfig(
        curvature=curv,
        schedule=_expect_numbers(curv_map, "schedule", "curvature"),
        n=_expect(sectors, "n", int, "sectors", default=2),
        angles=_expect_numbers(sectors, "angles", "sectors"),
        I=I,
        J=_expect(grid, "J", int, "grid", default=I),
        u_max=_expect(grid, "u_max", float, "grid", default=1.0),
        v_max=_expect(grid, "v_max", float, "grid", default=1.0),
        tol=_expect(iteration, "tol", float, "iteration", default=1e-4),
        max_iters=_expect(iteration, "max_iters", int, "iteration", default=100),
        surgery=_parse_cuts(data.get("surgery")),
        out_mesh=_expect(output, "mesh", str, "output", default="surface.obj"),
        out_csv=_expect(output, "csv", str, "output", default="surface.csv"),
        out_report=_expect(output, "report", str, "output", default="report.txt"),
    )


def _meta_dict(cx: SurfaceComplex) -> dict:
    return {
        "version": 1,
        "origin": list(cx.origin),
        "sectors": [
            {"id": s.sector_id, "shape": [s.I, s.J], "parity": s.parity.value}
            for s in cx.sectors
        ],
        "branch_points": [asdict(bp) for bp in cx.branch_points],
        "history": [asdict(rec) for rec in cx.history],
    }


def _format_rows(fmt: str, rows: np.ndarray) -> str:
    """One line ``fmt % row`` per row of a 2-D array."""
    return (fmt * len(rows)) % tuple(rows.ravel().tolist())


def _obj_text(cx: SurfaceComplex, ids, first) -> str:
    """The OBJ export of ``cx`` with its vertex numbering from ``global_vertex_ids``."""
    xyz = " ".join([FLOAT_FMT] * 3)
    out = _io.StringIO()
    out.write("#meta " + json.dumps(_meta_dict(cx), sort_keys=True) + "\n")
    # vertex v is written from its first node
    out.write(_format_rows(f"v {xyz}\n", np.concatenate(
        [s.positions.reshape(-1, 3) for s in cx.sectors])[first]))
    out.write(_format_rows(f"vn {xyz}\n", np.concatenate(
        [s.normals.reshape(-1, 3) for s in cx.sectors])[first]))
    for a, s in zip(ids, cx.sectors):
        f0, f1, f2, f12 = quad_corner_values(s, a) + 1
        out.write(_format_rows("f %d//%d %d//%d %d//%d %d//%d\n",
                               np.stack([f0, f1, f12, f2], axis=1).repeat(2, axis=1)))
    return out.getvalue()


def export_mesh(cx: SurfaceComplex, obj_path, csv_path=None) -> tuple:
    """Write the OBJ mesh and the per-node CSV sidecar. Returns both paths."""
    obj_path = str(obj_path)
    if csv_path is None:
        csv_path = Path(obj_path).with_suffix(".csv")
    csv_path = str(csv_path)

    ids, first = global_vertex_ids(cx)
    with open(obj_path, "w", newline="\n") as fh:
        fh.write(_obj_text(cx, ids, first))

    rows = _io.StringIO()
    rows.write(",".join(CSV_COLUMNS) + "\n")
    row = "%d,%d,%d,%d," + ",".join([FLOAT_FMT] * 9) + "\n"
    for sid, (a, s) in enumerate(zip(ids, cx.sectors)):
        i, j = np.nonzero(s.valid)
        rho = s.rho[i, j]
        # Python's float power, as the per-node form computed K
        K = [-(r ** -2.0) for r in rho.tolist()]
        rows.write(_format_rows(row, np.column_stack([
            np.full(len(i), sid), i, j, a[i, j], s.positions[i, j], s.normals[i, j],
            s.geo_dist[i, j], K, rho])))
    with open(csv_path, "w", newline="\n") as fh:
        fh.write(rows.getvalue())
    logger.info("exported %d vertices to %s / %s", len(first), obj_path, csv_path)
    return obj_path, csv_path


def _open_input(path, **kwargs):
    """Open an input file for reading; a missing or unreadable one is a ConfigError."""
    try:
        return open(path, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc


def _loadtxt(path, fh, what: str, select=None, width=None, first_line=1, **kwargs):
    """``np.loadtxt`` of the rest of ``fh``; a line it cannot read is a ConfigError.

    ``select`` maps each line to the text to read, "" to skip it, and rows
    of a 2-D result must have ``width`` columns. ``first_line`` is the
    number of the line ``fh`` stands at. When the read fails, the lines are
    read again one at a time, by the same parser, to name the first that is
    not ``what``. No line at all gives an empty array.
    """
    start = fh.tell()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # np.loadtxt's "no data"
        try:
            rows = np.loadtxt(fh if select is None else map(select, fh), **kwargs)
            if width is None or not len(rows) or rows.shape[1] == width:
                return rows
        except ValueError:
            pass
        fh.seek(start)
        for lineno, line in enumerate(fh, first_line):
            try:
                row = np.loadtxt([line if select is None else select(line)], **kwargs)
            except ValueError:
                row = None
            if row is None or width is not None and len(row) and row.shape[1] != width:
                raise ConfigError(f"{path}: line {lineno}: cannot parse {line.strip()!r} "
                                  f"as {what}")
    raise ConfigError(f"{path}: cannot parse as {what}")


def _meta_node(value, sectors: list, obj_path, lineno: int, what: str) -> tuple:
    """``value`` of the #meta line as a (sector, i, j) triple naming a grid node."""
    if not (isinstance(value, list) and len(value) == 3
            and all(type(x) is int for x in value)):
        raise ConfigError(f"{obj_path}: line {lineno}: #meta {what} {value!r} is not a "
                          "(sector, i, j) triple of integers")
    sid, i, j = value
    if not (0 <= sid < len(sectors) and 0 <= i <= sectors[sid].I and 0 <= j <= sectors[sid].J):
        raise ConfigError(f"{obj_path}: line {lineno}: #meta {what} {value} names no node of "
                          f"the {len(sectors)} sectors of the #meta line")
    return sid, i, j


def import_mesh(obj_path, csv_path) -> SurfaceComplex:
    """Rebuild a SurfaceComplex from an exported OBJ + CSV pair.

    Gluings are reconstructed from nodes sharing a deduplicated vertex
    index; grid data comes from the CSV, structure from the #meta comment.
    A malformed #meta line, one of the wrong shape, an origin or branch
    point that names no node listed in the CSV, or a CSV row naming a
    sector or node the #meta line does not have, is a ConfigError naming
    the file and the line.
    """
    meta = None
    with _open_input(obj_path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.startswith("#meta "):
                try:
                    meta = json.loads(line[len("#meta "):])
                except ValueError as exc:
                    raise ConfigError(
                        f"{obj_path}: line {lineno}: malformed #meta JSON: {exc}") from exc
                break
    if meta is None:
        raise ConfigError(f"{obj_path}: missing #meta line, not a ksurf export")

    from .amsler import StageRecord
    try:
        sectors = []
        for entry in meta["sectors"]:
            I, J = entry["shape"]
            grid = SectorGrid.empty(I, J, Parity(entry["parity"]), entry["id"])
            grid.valid[:, :] = False
            sectors.append(grid)
        origin = _meta_node(meta["origin"], sectors, obj_path, lineno, "origin")
        cx = SurfaceComplex(sectors=sectors, origin=origin)
        for bp in meta.get("branch_points", []):
            sid, i, j = _meta_node([bp["sector"], bp["i"], bp["j"]], sectors, obj_path, lineno,
                                   "branch point")
            cx.branch_points.append(BranchPoint(
                sector=sid, i=i, j=j, incident_sectors=bp["incident_sectors"],
                expected_quads=bp["expected_quads"]))
        for rec in meta.get("history", []):
            cx.history.append(StageRecord(epsilon=rec["epsilon"],
                                          iterations=rec["iterations"],
                                          changes=list(rec["changes"]),
                                          upwind_changes=list(rec.get("upwind_changes", []))))
    except (KeyError, TypeError, ValueError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(
            f"{obj_path}: line {lineno}: #meta JSON of the wrong shape: {what}") from exc

    with _open_input(csv_path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != CSV_COLUMNS:
            raise ConfigError(f"{csv_path}: unexpected CSV columns {header}")
        start = fh.tell()
        rows = _loadtxt(csv_path, fh, f"{len(CSV_COLUMNS)} comma-separated values, "
                        "4 integers then 9 numbers", first_line=2, delimiter=",",
                        dtype=CSV_ROW, comments=None, ndmin=1)
        sid, i, j = rows["sector_id"], rows["i"], rows["j"]
        known = (sid >= 0) & (sid < len(cx.sectors))
        shape = np.array([s.valid.shape for s in cx.sectors])[np.where(known, sid, 0)]
        inside = known & (i >= 0) & (i < shape[:, 0]) & (j >= 0) & (j < shape[:, 1])
        bad = np.flatnonzero(~inside)
        if len(bad):
            k = int(bad[0])
            fh.seek(start)
            # row k of the array is the k-th line that is not empty
            lineno = [n for n, line in enumerate(fh, 2) if line != "\n"][k]
            sid_k, i_k, j_k = int(sid[k]), int(i[k]), int(j[k])
            if not known[k]:
                raise ConfigError(f"{csv_path}: line {lineno}: sector_id {sid_k} is not a "
                                  f"sector of the #meta line (0..{len(cx.sectors) - 1})")
            s = cx.sectors[sid_k]
            raise ConfigError(f"{csv_path}: line {lineno}: node ({i_k}, {j_k}) lies outside "
                              f"sector {sid_k}, whose nodes are (0..{s.I}, 0..{s.J})")

    positions = np.column_stack([rows["x"], rows["y"], rows["z"]])
    normals = np.column_stack([rows["nx"], rows["ny"], rows["nz"]])
    for k, s in enumerate(cx.sectors):
        mine = sid == k
        node = i[mine], j[mine]
        s.valid[node] = True
        s.positions[node] = positions[mine]
        s.normals[node] = normals[mine]
        s.rho[node] = rows["rho"][mine]
        s.geo_dist[node] = rows["D"][mine]

    named = [("origin", cx.origin)] + [("branch point", (bp.sector, bp.i, bp.j))
                                       for bp in cx.branch_points]
    for what, node in named:
        if not cx.sectors[node[0]].valid[node[1:]]:
            raise ConfigError(f"{obj_path}: line {lineno}: #meta {what} {list(node)} is not "
                              f"a node listed in {csv_path}")
    for s in cx.sectors:
        s.positions[~s.valid] = np.nan
        s.normals[~s.valid] = np.nan
        s.rho[~s.valid] = np.nan
        s.geo_dist[~s.valid] = math.inf

    # nodes sharing a vertex index, in CSV order: each later one is glued
    # to the first, and one gluing per sector pair collects them, vertex by vertex
    by_vid = np.argsort(rows["vertex_index"], kind="stable")
    vid = rows["vertex_index"][by_vid]
    head = np.ones(len(vid), dtype=bool)
    head[1:] = vid[1:] != vid[:-1]
    first = by_vid[np.maximum.accumulate(np.where(head, np.arange(len(vid)), 0))][~head]
    other = by_vid[~head]
    pair = sid[first] * len(cx.sectors) + sid[other]
    by_pair = np.argsort(pair, kind="stable")
    first, other = first[by_pair], other[by_pair]
    _, starts = np.unique(pair[by_pair], return_index=True)
    cx.gluings = []
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(first)]):
        a, b = first[lo:hi], other[lo:hi]
        cx.gluings.append(GluingMap(
            sector_a=int(sid[a[0]]), sector_b=int(sid[b[0]]),
            nodes_a=list(zip(i[a].tolist(), j[a].tolist())),
            nodes_b=list(zip(i[b].tolist(), j[b].tolist()))))
    return cx


def obj_geometry_check(obj_path, cx: SurfaceComplex) -> CheckResult:
    """Whether the ``v``, ``vn`` and ``f`` lines of ``obj_path`` are those ``cx`` exports.

    ``cx`` is the complex imported from the file and its CSV. Line endings
    aside, the lines must match in text and order; a failure names the
    first line that differs, or the first one the file lacks.
    """
    want = [line for line in _obj_text(cx, *global_vertex_ids(cx)).splitlines()
            if line.startswith(GEOMETRY_LINES)]
    with _open_input(obj_path) as fh:
        got = [(n, line.rstrip("\r\n")) for n, line in enumerate(fh, 1)
               if line.startswith(GEOMETRY_LINES)]
    for k, (lineno, line) in enumerate(got):
        if k == len(want) or line != want[k]:
            expected = repr(want[k]) if k < len(want) else "no such line"
            return CheckResult("obj_geometry", passed=False,
                               detail=f"line {lineno}: {line!r}, the import exports {expected}")
    if len(got) < len(want):
        return CheckResult("obj_geometry", passed=False,
                           detail=f"the file ends before {want[len(got)]!r} of the import")
    return CheckResult("obj_geometry", passed=True,
                       detail=f"{len(got)} v, vn and f lines match the import")


def _vertex_line(line: str) -> str:
    return line if line.startswith("v ") else ""


def _face_line(line: str) -> str:
    """The vertex indices of a face line, without the keyword."""
    return FACE_SUFFIX.sub("", line[1:]) if line.startswith("f ") else ""


def trimesh_from_obj(path) -> TriMesh:
    """Triangulate the quads of an exported OBJ for distance queries.

    Every ``v`` line needs three coordinates (a fourth is ignored), every
    ``f`` line four vertices, and every face index must name one of the
    file's vertices (1..N); a line that breaks this is a ConfigError naming
    the file and the line.
    """
    with _open_input(path) as fh:
        verts = _loadtxt(path, fh, "a vertex with 3 coordinates", _vertex_line,
                         usecols=(1, 2, 3), ndmin=2)
        fh.seek(0)
        idx = _loadtxt(path, fh, "a quad face", _face_line, width=4,
                       dtype=np.int64, ndmin=2) - 1
        if not len(verts) or not len(idx):
            raise ConfigError(f"{path}: no mesh data found")
        bad = np.flatnonzero(((idx < 0) | (idx >= len(verts))).any(axis=1))
        if len(bad):
            f = int(bad[0])
            fh.seek(0)
            lineno = [n for n, line in enumerate(fh, 1) if line.startswith("f ")][f]
            raise ConfigError(f"{path}: line {lineno}: face {(idx[f] + 1).tolist()} "
                              f"has an index outside 1..{len(verts)}")
    # Face cycles are (f0, f1, f12, f2); quad corner order is (f0, f1, f2, f12).
    return trimesh_from_quads(verts, idx[:, [0, 1, 3, 2]])


@dataclass
class DiagnosticsReport:
    """Residuals recomputed from surface data plus generation history."""

    max_compatibility: float
    max_tangency: float
    max_edge_length: float
    max_unit_norm: float
    gluing_pos_max: float
    gluing_normal_max: float
    boundary_arc_err: float
    obtuse_count: int
    singular_margin: float
    change_history: list
    n_vertices: int
    n_quads: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = [
            "diagnostics report",
            f"  vertices: {self.n_vertices}, quads: {self.n_quads}",
            f"  max compatibility residual: {self.max_compatibility:.3e}",
            f"  max edge tangency residual: {self.max_tangency:.3e}",
            f"  max edge length residual:   {self.max_edge_length:.3e}",
            f"  max unit-normal residual:   {self.max_unit_norm:.3e}",
            f"  gluing gaps (pos, normal):  {self.gluing_pos_max:.3e}, "
            f"{self.gluing_normal_max:.3e}",
            f"  boundary arc-length error:  {self.boundary_arc_err:.3e}",
            f"  obtuse triangles:           {self.obtuse_count}",
            f"  singular-edge margin:       {self.singular_margin:.6f}",
        ]
        for rec in self.change_history:
            changes = ", ".join(f"{c:.3e}" for c in rec["changes"])
            lines.append(
                f"  stage epsilon {rec['epsilon']:g}: {len(rec['upwind_changes'])} upwind "
                f"passes, {rec['iterations']} iterations [{changes}]"
            )
        return "\n".join(lines) + "\n"


# corners (center, a, b) of the four quad angles, corners ordered (f0, f1, f2, f12)
ANGLE_CENTER = (0, 3, 1, 2)
ANGLE_A = (1, 1, 0, 0)
ANGLE_B = (2, 2, 3, 3)
# np.arctan2 and math.atan2 differ in the last bit: candidates for the
# smallest margin are chosen by array within this slack, then recomputed
MARGIN_SLACK = 1e-12


def _singular_margin(pos: np.ndarray) -> float:
    """min of pi - angle over the quad angles, from (4, n, 3) corner positions.

    Each angle is ``angle_between`` of the two edges at its corner. NaN
    angles are skipped, as a Python ``min`` fold from inf skips them;
    returns inf when no angle is finite.
    """
    u = pos[ANGLE_A, :] - pos[ANGLE_CENTER, :]
    v = pos[ANGLE_B, :] - pos[ANGLE_CENTER, :]
    c = cross(u, v)
    y = np.sqrt(np.vecdot(c, c)).ravel()  # |u x v|
    x = np.vecdot(u, v).ravel()
    rough = math.pi - np.arctan2(y, x)
    best = np.fmin.reduce(rough, initial=math.inf)
    if best == math.inf:
        return math.inf
    near = np.flatnonzero(rough <= best + MARGIN_SLACK).tolist()
    return min(math.pi - math.atan2(y[k], x[k]) for k in near)


def build_report(cx: SurfaceComplex) -> DiagnosticsReport:
    """Recompute all diagnostics from the complex data (nothing cached).

    Residual maxima skip NaN (``np.fmax`` from 0.0), as the Python ``max``
    fold that first defined them did.
    """
    worst = [0.0] * 4  # compatibility, tangency, edge length, unit norm
    margin = math.inf
    n_quads = 0
    for s in cx.sectors:
        pos, nrm, rho = quad_corner_arrays(s)
        n_quads += pos.shape[1]
        worst = [float(np.fmax.reduce(res, initial=w))
                 for w, res in zip(worst, quad_residual_arrays(pos, nrm, rho))]
        margin = min(margin, _singular_margin(pos))
    max_compat, max_tan, max_edge, max_unit = worst
    pos_max, nrm_max = gluing_gaps(cx)

    mesh = triangulate_complex(cx)
    ids = mesh.node_ids
    try:
        origin_vid = origin_vertex(cx, mesh)
    except ValueError:
        origin_vid = None
    arc_err = math.nan
    if origin_vid is not None:
        march = fast_march(mesh, [(origin_vid, 0.0)])
        arc_err = 0.0
        for sid, s in enumerate(cx.sectors):
            if ids[sid][0, 0] != origin_vid:
                continue
            for ray, vids in ((s.positions[:, 0], ids[sid][1:, 0]),
                              (s.positions[0, :], ids[sid][0, 1:])):
                step = ray[1:] - ray[:-1]
                arc = np.cumsum(np.sqrt(np.vecdot(step, step)))
                arc_err = float(np.fmax.reduce(np.abs(march.d[vids] - arc), initial=arc_err))

    return DiagnosticsReport(
        max_compatibility=max_compat,
        max_tangency=max_tan,
        max_edge_length=max_edge,
        max_unit_norm=max_unit,
        gluing_pos_max=pos_max,
        gluing_normal_max=nrm_max,
        boundary_arc_err=arc_err,
        obtuse_count=mesh.obtuse_count,
        singular_margin=margin if margin < math.inf else math.nan,
        change_history=[asdict(rec) for rec in cx.history],
        n_vertices=mesh.n_vertices,
        n_quads=n_quads,
    )


def write_report(report: DiagnosticsReport, text_path, json_path=None) -> None:
    with open(text_path, "w", newline="\n") as fh:
        fh.write(report.to_text())
    if json_path is not None:
        with open(json_path, "w", newline="\n") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
