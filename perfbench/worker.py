"""One run of one workload, in a fresh process started by ``run.py``.

Set-up (imports, ``parse_config`` on the workload's YAML, the specs) is
timed from the moment the parent started this process. Then whole rounds
run: two, and more while they fit in ``--seconds``. A round makes the library calls of
``ksurf generate``/``ksurf surgery`` (generation, each surgery cut, export
and report), of ``ksurf distance`` (OBJ parse, one march per source set)
and of ``ksurf validate`` (import, structural validation, report), timed
as one interval, and then checks every output. The last line of stdout is
the run's JSON result.

With ``--trace 1`` untraced and traced rounds alternate; the traced ones
give the per-layer metrics and the difference of the two the overhead.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import ksurf
from ksurf import amsler, geodesic, io, mesh, surgery

from checks import (
    CheckFailed,
    check_base_rays,
    check_distance,
    check_export,
    check_fan_axes,
    check_finite,
    check_gluing,
    check_history,
    check_import,
    check_lelieuvre,
    check_report,
    check_rho,
)
from tracer import UNITS, TraceError, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("grow", "fine", "branch")
SINGLE_QUERIES = 3      # single-source distance queries per round
MULTI_SOURCES = 4       # sources of the one multi-source query per round

E2E_UNITS = {"solve_s": "s", "finish_s": "s", "query_s": "s", "total_s": "s",
             "outer_iters": "count", "peak_rss_mb": "MB"}


def draw_sources(seed: int, n_vertices: int) -> list:
    """Source vertex sets of the distance queries: several single, one multi."""
    rng = np.random.default_rng(seed)
    singles = rng.choice(n_vertices, size=SINGLE_QUERIES, replace=False)
    multi = rng.choice(n_vertices, size=MULTI_SOURCES, replace=False)
    return [[int(v)] for v in singles] + [sorted(int(v) for v in multi)]


class Setup:
    """What set-up builds: the parsed config and the specs of the calls."""

    def __init__(self, config_text: str):
        self.cfg = io.parse_config(config_text)
        cfg = self.cfg
        self.spec = amsler.SectorSpec(u_max=cfg.u_max, v_max=cfg.v_max, I=cfg.I, J=cfg.J)
        self.angles = cfg.angles if cfg.angles is not None else amsler.symmetric_angles(cfg.n)
        self.iteration = cfg.iteration_config()


def run_round(st: Setup, seed: int, out_dir: Path) -> dict:
    """One timed round: the calls of generate/surgery, distance and validate."""
    cfg = st.cfg
    obj, csv = out_dir / "surface.obj", out_dir / "surface.csv"
    txt, js = out_dir / "report.txt", out_dir / "report.json"
    t0 = time.perf_counter()
    chain = [amsler.patch_sectors(st.angles, st.spec, cfg.curvature, st.iteration)]
    for cut in cfg.surgery:
        chain.append(surgery.insert_branch_point(chain[-1], cut, cfg.curvature, st.iteration))
    t1 = time.perf_counter()
    cx = chain[-1]
    io.export_mesh(cx, obj, csv)
    io.write_report(io.build_report(cx), txt, js)
    t2 = time.perf_counter()
    tri = io.trimesh_from_obj(obj)
    source_sets = draw_sources(seed, tri.n_vertices)
    marches = [geodesic.fast_march(tri, [(v, 0.0) for v in srcs]) for srcs in source_sets]
    imported = io.import_mesh(obj, csv)
    verdict = mesh.validate_complex(imported)
    imported_report = io.build_report(imported)
    imported_report.to_text()  # what `ksurf validate` prints
    t3 = time.perf_counter()
    return {
        "times": {"solve_s": t1 - t0, "finish_s": t2 - t1, "query_s": t3 - t2,
                  "total_s": t3 - t0},
        "chain": chain, "files": (obj, csv, txt, js), "source_sets": source_sets,
        "marches": marches, "imported": imported, "verdict": verdict,
        "imported_report": imported_report,
    }


def _cx_ok(cx, st: Setup, cuts_so_far: list) -> None:
    cfg = st.cfg
    check_finite(cx)
    check_lelieuvre(cx)
    check_rho(cx, cfg.curvature)
    n_base = 2 * cfg.n
    check_base_rays(cx, n_base, cfg.I, cfg.J, cfg.u_max, cfg.v_max)
    first_fan = n_base
    for cut in cuts_so_far:
        check_fan_axes(cx, cut.sector, cut.b, list(range(first_fan, first_fan + cut.m)))
        first_fan += cut.m
    check_gluing(cx)
    check_history(cx, cfg.tol)


def check_round(st: Setup, r: dict) -> list:
    """Check every operation of a round; returns one failure reason or None each."""
    cfg = st.cfg
    results = []

    def op(fn, *args):
        try:
            out = fn(*args)
        except CheckFailed as exc:
            results.append(str(exc))
            return None
        results.append(None)
        return out

    for k, cx in enumerate(r["chain"]):
        op(_cx_ok, cx, st, cfg.surgery[:k])
    cx = r["chain"][-1]
    obj, csv, txt, js = r["files"]
    branch = {(0, 0, 0): 2 * cfg.n}
    branch.update({(cut.sector, cut.b, cut.b): cut.m + 3 for cut in cfg.surgery})

    def export_ok():
        V, F = check_export(cx, obj, csv, branch)
        check_report(js, txt, cx, V.shape[0], F.shape[0])
        return V, F

    parsed = op(export_ok)
    for srcs, march in zip(r["source_sets"], r["marches"]):
        if parsed is None:
            results.append("export failed its checks")
        else:
            op(check_distance, parsed[0], parsed[1], srcs, march.d)

    def validate_ok():
        if not r["verdict"].passed:
            raise CheckFailed(f"validate_complex rejects the import:\n{r['verdict']}")
        check_import(cx, r["imported"])
        if parsed is not None and r["imported_report"].n_vertices != parsed[0].shape[0]:
            raise CheckFailed("report of the import counts other vertices")

    op(validate_ok)
    return results


def ops_per_round(cfg) -> int:
    return 1 + len(cfg.surgery) + 1 + SINGLE_QUERIES + 1 + 1


def _median(rounds: list, key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def run(workload: str, config_text: str, seed: int, seconds: float, trace: bool,
        t_start: float, out_dir: Path) -> tuple:
    """Set up, run rounds for ``seconds``, check them. Returns (result, setup_s)."""
    tracer = Tracer(workload) if trace else None
    if tracer:
        tracer.install()
    st = Setup(config_text)
    setup_s = time.monotonic() - t_start
    if tracer:
        parse_config_s = tracer.self_times()["io.parse_config"]
        tracer.uninstall()
        tracer.reset()

    out_dir.mkdir(parents=True, exist_ok=True)
    plain, traced, archive = [], [], []
    attempted = failed = 0
    reasons = []
    peak_rss_mb = None
    began = time.perf_counter()
    while True:
        traced_round = bool(tracer) and len(plain) > len(traced)
        try:
            if traced_round:
                tracer.install()
                try:
                    with tracer.round():
                        r = run_round(st, seed, out_dir)
                finally:
                    tracer.uninstall()
            else:
                r = run_round(st, seed, out_dir)
        except Exception as exc:  # a library failure ends the run, reported as failed
            traceback.print_exc()
            attempted += ops_per_round(st.cfg)
            failed += ops_per_round(st.cfg)
            reasons.append(f"{type(exc).__name__}: {exc}")
            break
        if peak_rss_mb is None:  # the first round's peak, before any check runs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced_round:
            layer = tracer.round_metrics(r["times"]["total_s"])
            layer["io.export_bytes"] = sum(os.path.getsize(p) for p in r["files"][:2])
            traced.append({**layer, "total_s": r["times"]["total_s"]})
            archive.append(list(tracer.spans))
            tracer.reset()
        else:
            plain.append({**r["times"],
                          "outer_iters": sum(rec.iterations for rec in r["chain"][-1].history)})
        print("round " + " ".join(f"{k} {v:.3f}" for k, v in r["times"].items())
              + (" traced" if traced_round else ""), file=sys.stderr)
        outcomes = check_round(st, r)
        attempted += len(outcomes)
        failed += sum(1 for o in outcomes if o is not None)
        reasons.extend(o for o in outcomes if o is not None)
        # After two rounds, start another only if it should end within the run's
        # seconds. (A traced run's first two rounds are one untraced, one traced.)
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - began
        if done >= 2 and elapsed + elapsed / done > seconds:
            break

    metrics, units = {}, (UNITS if trace else E2E_UNITS)
    if trace and traced:
        metrics = {k: _median(traced, k) for k in UNITS
                   if k not in ("io.parse_config_s", "trace.overhead_s")}
        metrics["io.parse_config_s"] = parse_config_s
        metrics["trace.overhead_s"] = _median(traced, "total_s") - _median(plain, "total_s")
        with open(out_dir.parent / f"trace-seed{seed}.json", "w") as fh:
            json.dump({"workload": workload, "seed": seed, "rounds": archive}, fh)
            fh.write("\n")
    elif not trace and plain:
        metrics = {k: _median(plain, k) for k in E2E_UNITS if k != "peak_rss_mb"}
        metrics["peak_rss_mb"] = peak_rss_mb
    for why in sorted(set(reasons)):
        print(f"check failed: {why}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, setup_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() at which the parent started this process")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first generation call and print setup_s")
    ap.add_argument("--out", required=True, help="directory for the run's files")
    args = ap.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    if not Path(ksurf.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ksurf was imported from {ksurf.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    config_text = (BENCH_DIR / "workloads" / f"{args.workload}.yaml").read_text()
    if args.setup_only:
        Setup(config_text)
        print(json.dumps({"setup_s": time.monotonic() - args.started}))
        return 0
    out_dir = Path(args.out)
    try:
        result, setup_s = run(args.workload, config_text, args.seed, args.seconds,
                              bool(args.trace), args.started, out_dir / "files")
    except TraceError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"setup_s": setup_s, **result}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
