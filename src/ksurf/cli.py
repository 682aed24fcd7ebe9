"""Command line entry point.

Subcommands:

  generate   build a patched surface from a config and export OBJ + CSV
  surgery    apply branch-point cuts from the config to a generated surface
  distance   fast-march geodesic distance over an exported OBJ
  validate   reimport an export, compare its OBJ geometry and run the
             structural checks

Exit codes: 0 success, 1 configuration error, 2 numerical failure
(non-convergence, unsolvable quad, grid too coarse, degenerate geometry).
"""
from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .amsler import (
    GridTooCoarseError,
    NonConvergenceError,
    SectorSpec,
    patch_sectors,
    symmetric_angles,
)
from .geodesic import fast_march
from .io import (
    ConfigError,
    RunConfig,
    _format_rows,
    build_report,
    config_key,
    export_mesh,
    import_mesh,
    obj_geometry_check,
    parse_config,
    trimesh_from_obj,
    write_report,
)
from .lelieuvre import QuadError
from .mesh import ValidationReport, validate_complex
from .surgery import insert_branch_point

logger = logging.getLogger("ksurf")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class GeometryError(Exception):
    """Geometry the numerics cannot work on, such as a zero-length edge."""


@contextlib.contextmanager
def _geometry(what: str):
    """Report ValueErrors of the geometry code as GeometryError (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise GeometryError(f"{what}: {exc}") from exc


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a YAML run configuration")
    p.add_argument("--out", help="output OBJ path (overrides the config)")
    p.add_argument("--tol", type=float, help="iteration tolerance override")
    p.add_argument("--epsilon", type=float, help="target curvature deviation override")
    p.add_argument("--sectors", type=int, dest="n_sectors",
                   help="half the number of sectors around the center")
    p.add_argument("--grid", help="grid size as I or I,J")
    p.add_argument("--quiet", action="store_true", help="log warnings only")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksurf",
        description="discrete surfaces of prescribed negative Gaussian curvature",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate and export a patched surface")
    _add_common(p_gen)

    p_sur = sub.add_parser("surgery", help="generate, then insert branch points")
    _add_common(p_sur)

    p_dist = sub.add_parser("distance", help="geodesic distance over an exported OBJ")
    p_dist.add_argument("--mesh", required=True, help="input OBJ path")
    p_dist.add_argument("--source", action="append", type=int, default=None,
                        help="source vertex index (repeatable; default 0)")
    p_dist.add_argument("--out", help="output CSV path (default: stdout)")
    p_dist.add_argument("--quiet", action="store_true")

    p_val = sub.add_parser("validate", help="structural checks on an export")
    p_val.add_argument("--mesh", required=True, help="input OBJ path")
    p_val.add_argument("--csv", required=True, help="matching CSV sidecar")
    p_val.add_argument("--quiet", action="store_true")
    return parser


def _load_config(args) -> RunConfig:
    """The config file (or the defaults) with the flags applied, all checked alike.

    The directories of the output files must exist, so that a bad path
    fails before the generation instead of after it.
    """
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        cfg = parse_config(text)
    else:
        cfg = parse_config("")
    overrides = {}
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.epsilon is not None:
        with config_key("curvature"):
            overrides["curvature"] = cfg.curvature.with_epsilon(args.epsilon)
        overrides["schedule"] = None
    if args.n_sectors is not None:
        overrides.update(n=args.n_sectors, angles=None)
    if args.grid is not None:
        try:
            sizes = [int(p) for p in args.grid.split(",")]
        except ValueError:
            sizes = []
        if len(sizes) not in (1, 2):
            raise ConfigError(f"--grid expects I or I,J, got {args.grid!r}")
        overrides.update(I=sizes[0], J=sizes[-1])
    if args.out:
        out = Path(args.out)
        with config_key("--out"):
            overrides.update(out_mesh=args.out, out_csv=str(out.with_suffix(".csv")),
                             out_report=str(out.with_suffix(".report.txt")))
    cfg = replace(cfg, **overrides)
    outputs = (("output.mesh", cfg.out_mesh), ("output.csv", cfg.out_csv),
               ("output.report", cfg.out_report))
    for key, path in outputs:
        parent = Path(path).parent
        if not parent.is_dir():
            raise ConfigError(f"{'--out' if args.out else key}: directory {parent} does not exist")
    return cfg


def _generate_complex(cfg):
    spec = SectorSpec(u_max=cfg.u_max, v_max=cfg.v_max, I=cfg.I, J=cfg.J)
    angles = cfg.angles if cfg.angles is not None else symmetric_angles(cfg.n)
    with _geometry("generation"):
        return patch_sectors(angles, spec, cfg.curvature, cfg.iteration_config())


def _json_report_path(text_path: str) -> str:
    """The text report's path with a .json suffix."""
    p = Path(text_path)
    json_path = p.with_suffix(".json")
    return str(json_path if json_path != p else p.with_name(p.name + ".json"))


def _export_all(cx, cfg) -> None:
    export_mesh(cx, cfg.out_mesh, cfg.out_csv)
    report = build_report(cx)
    json_path = _json_report_path(cfg.out_report)
    write_report(report, cfg.out_report, json_path)
    logger.info("report written to %s and %s", cfg.out_report, json_path)


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    cx = _generate_complex(cfg)
    _export_all(cx, cfg)
    return EXIT_OK


def cmd_surgery(args) -> int:
    cfg = _load_config(args)
    if not cfg.surgery:
        raise ConfigError("surgery: config lists no cuts")
    cx = _generate_complex(cfg)
    for cut in cfg.surgery:
        with _geometry(f"surgery at sector {cut.sector}"):
            cx = insert_branch_point(cx, cut, cfg.curvature, cfg.iteration_config())
    _export_all(cx, cfg)
    return EXIT_OK


def cmd_distance(args) -> int:
    with _geometry(args.mesh):
        mesh = trimesh_from_obj(args.mesh)
    raw = args.source if args.source else [0]
    sources = []
    for s in raw:
        if not 0 <= s < mesh.n_vertices:
            raise ConfigError(
                f"--source {s} out of range for {mesh.n_vertices} vertices")
        sources.append((s, 0.0))
    result = fast_march(mesh, sources)
    text = "vertex_index,D\n" + _format_rows(
        "%d,%.17g\n", np.column_stack([np.arange(mesh.n_vertices), result.d]))
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
        logger.info("distances for %d vertices written to %s",
                    mesh.n_vertices, args.out)
    else:
        sys.stdout.write(text)
    if result.unreachable:
        logger.warning("%d vertices unreachable from the sources",
                       len(result.unreachable))
    return EXIT_OK


def cmd_validate(args) -> int:
    cx = import_mesh(args.mesh, args.csv)
    report = ValidationReport([obj_geometry_check(args.mesh, cx), *validate_complex(cx).checks])
    sys.stdout.write(f"{report}\n")
    if not report.passed:
        logger.error("validation failed")
        return EXIT_NUMERICAL
    with _geometry(args.mesh):
        diag = build_report(cx)
    sys.stdout.write(diag.to_text())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {
        "generate": cmd_generate,
        "surgery": cmd_surgery,
        "distance": cmd_distance,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    except (NonConvergenceError, QuadError, GridTooCoarseError, GeometryError) as exc:
        logger.error("%s", exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
