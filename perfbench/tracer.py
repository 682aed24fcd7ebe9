"""Spans and counters around the library's layer boundaries.

The tracer replaces module attributes such as ``ksurf.amsler.sweep_sector``
with timing wrappers, so it sees each call the package makes through that
name. A span is (name, start, end, parent); a span's self time is its
duration minus the time its child spans cover. Counters are read from
what the calls return. Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

ALL = ("grow", "fine", "branch")
BRANCH = ("branch",)

ROUND = "round"  # the benchmark's own span around one round


def _count_sweep(c, grid):
    c["quad_solves"] += int(grid.valid[1:, 1:].sum())


def _count_trimesh(c, mesh):
    c["triangles"] += int(mesh.tris.shape[0])
    c["obtuse_triangles"] += mesh.obtuse_count


def _count_march(c, result):
    c["march_pops"] += result.pops
    c["march_pushes"] += result.pushes
    c["march_accepted"] += len(result.order)
    c["march_fallback_evals"] += result.fallbacks


# (module, attribute, span name, counter, workloads that must call it)
WRAPS = (
    ("ksurf.amsler", "sweep_sector", "lelieuvre.sweep", _count_sweep, ALL),
    ("ksurf.amsler", "run_stage", "amsler.loop", None, ALL),
    ("ksurf.amsler", "geodesic_provider", "amsler.loop", None, ALL),
    ("ksurf.amsler", "ray_boundary_data", "amsler.rays", None, ALL),
    ("ksurf.amsler", "triangulate_complex", "geodesic.triangulate", None, ALL),
    ("ksurf.amsler", "fast_march", "geodesic.march", _count_march, ALL),
    ("ksurf.geodesic", "global_vertex_ids", "mesh.dedup", None, ALL),
    ("ksurf.geodesic", "trimesh_from_quads", "geodesic.trimesh", _count_trimesh, ALL),
    ("ksurf.geodesic", "fast_march", "geodesic.march", _count_march, ALL),
    ("ksurf.mesh", "global_vertex_ids", "mesh.dedup", None, ALL),
    ("ksurf.mesh", "validate_complex", "mesh.validate", None, ALL),
    ("ksurf.surgery", "insert_branch_point", "surgery.insert", None, BRANCH),
    ("ksurf.surgery", "run_stage", "amsler.loop", None, BRANCH),
    ("ksurf.surgery", "ray_boundary_data", "amsler.rays", None, BRANCH),
    ("ksurf.surgery", "validate_complex", "mesh.validate", None, BRANCH),
    ("ksurf.io", "parse_config", "io.parse_config", None, ()),
    ("ksurf.io", "export_mesh", "io.export", None, ALL),
    ("ksurf.io", "build_report", "io.report", None, ALL),
    ("ksurf.io", "write_report", "io.report", None, ALL),
    ("ksurf.io", "trimesh_from_obj", "io.obj_parse", None, ALL),
    ("ksurf.io", "import_mesh", "io.import", None, ALL),
    ("ksurf.io", "global_vertex_ids", "mesh.dedup", None, ALL),
    ("ksurf.io", "triangulate_complex", "geodesic.triangulate", None, ALL),
    ("ksurf.io", "trimesh_from_quads", "geodesic.trimesh", _count_trimesh, ALL),
    ("ksurf.io", "fast_march", "geodesic.march", _count_march, ALL),
)

# per-layer metric -> span whose summed self time it reports
SELF_TIMES = {
    "lelieuvre.sweep_s": "lelieuvre.sweep",
    "geodesic.triangulate_s": "geodesic.triangulate",
    "geodesic.trimesh_s": "geodesic.trimesh",
    "geodesic.march_s": "geodesic.march",
    "amsler.loop_self_s": "amsler.loop",
    "amsler.rays_s": "amsler.rays",
    "mesh.dedup_s": "mesh.dedup",
    "mesh.validate_s": "mesh.validate",
    "surgery.self_s": "surgery.insert",
    "io.report_s": "io.report",
    "io.export_s": "io.export",
    "io.obj_parse_s": "io.obj_parse",
    "io.import_s": "io.import",
}

# units of every per-layer metric the traced run reports
UNITS = {name: "s" for name in SELF_TIMES}
UNITS.update({
    "lelieuvre.sweep_calls": "count", "lelieuvre.quad_solves": "count",
    "lelieuvre.quad_solves_per_s": "1/s",
    "geodesic.triangulate_calls": "count", "geodesic.triangles": "count",
    "geodesic.obtuse_triangles": "count",
    "geodesic.march_calls": "count", "geodesic.march_pops": "count",
    "geodesic.march_pushes": "count", "geodesic.march_accept_ratio": "ratio",
    "geodesic.march_fallback_evals": "count",
    "amsler.stages": "count", "mesh.dedup_calls": "count", "surgery.calls": "count",
    "io.parse_config_s": "s", "io.export_bytes": "bytes", "trace.overhead_s": "s",
})

COVERAGE_TOL = 0.05  # layer self times must cover the traced total within this share


class TraceError(Exception):
    """The trace no longer matches the library it wraps."""


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []      # [name, start, end, parent index]
        self.stack = []
        self.counters = defaultdict(int)
        self.calls = defaultdict(int)   # (module, attribute) -> calls
        self._saved = []
        self._targets = []
        for module_name, attr, name, count, required in WRAPS:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                raise TraceError(f"{module_name}.{attr} no longer exists")
            self._targets.append((module, attr, name, count, required))

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self.calls.clear()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def round(self):
        """Span of one benchmark round, the root of the layers' spans."""
        idx = self._open(ROUND)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, key, name, count):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.calls[key] += 1
            if count is not None:
                count(tracer.counters, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, name, count, _ in self._targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, (module.__name__, attr), name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def check_calls(self) -> None:
        """Every name the workload must call was called."""
        missing = [f"{m.__name__}.{attr}" for m, attr, _, _, required in self._targets
                   if self.workload in required and not self.calls[(m.__name__, attr)]]
        if missing:
            raise TraceError(f"{self.workload}: no calls recorded through {', '.join(missing)}")

    def self_times(self) -> dict:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def span_count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def round_metrics(self, total_s: float) -> dict:
        """Per-layer metrics of one traced round; checks that they cover it."""
        self.check_calls()
        own = self.self_times()
        m = {metric: own.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        covered = sum(t for name, t in own.items() if name != ROUND)
        if abs(total_s - covered) > COVERAGE_TOL * total_s:
            raise TraceError(f"layer self times cover {covered:.3f} s of a "
                             f"{total_s:.3f} s traced round")
        c = self.counters
        m["lelieuvre.sweep_calls"] = self.span_count("lelieuvre.sweep")
        m["lelieuvre.quad_solves"] = c["quad_solves"]
        m["lelieuvre.quad_solves_per_s"] = c["quad_solves"] / m["lelieuvre.sweep_s"]
        m["geodesic.triangulate_calls"] = self.span_count("geodesic.triangulate")
        m["geodesic.triangles"] = c["triangles"]
        m["geodesic.obtuse_triangles"] = c["obtuse_triangles"]
        m["geodesic.march_calls"] = self.span_count("geodesic.march")
        m["geodesic.march_pops"] = c["march_pops"]
        m["geodesic.march_pushes"] = c["march_pushes"]
        m["geodesic.march_accept_ratio"] = c["march_accepted"] / c["march_pops"]
        m["geodesic.march_fallback_evals"] = c["march_fallback_evals"]
        m["amsler.stages"] = self.calls[("ksurf.amsler", "run_stage")] + \
            self.calls[("ksurf.surgery", "run_stage")]
        m["mesh.dedup_calls"] = self.span_count("mesh.dedup")
        m["surgery.calls"] = self.span_count("surgery.insert")
        return m
