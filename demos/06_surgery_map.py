#!/usr/bin/env python3
"""Surgery map: two generations of branch points on a grid of base surfaces.

Every base (family, eps, n, grid I, extent) is generated with the automatic
schedule, tol 1e-4 and at most 100 iterations per stage. Each cell of the
map then cuts it twice:

- cut 1: an m = 3 or m = 5 cut of sector 0 at b = I/4, I/2 or 3I/4;
- cut 2: an m = 3 cut into the middle fan of cut 1, at b = (I - b) / 2
  (half of the fan's side), run only when cut 1 converged.

Outer iterations count the distance marches of each cut (a counting wrapper
stands in for ``ksurf.amsler.geodesic_provider``), so a cut that fails in
its seed sweep counts 0. Every converged cut is then given one more plain
iteration, ``run_stage`` with ``max_iters=1`` on a copy; its change says
how far the result is from a fixed point of the plain map.

Writes ``demos/surgery_map.md``; ``--cells N`` runs only the first N cells
and ``--out`` names another file. ``--baseline FILE`` reads a map that this
script wrote at another commit and adds its outcomes and iterations, cell by
cell, with a comparison in the summary.
"""
import argparse
import itertools
import logging
import os

from ksurf import amsler
from ksurf import (
    CurvatureFamily,
    CurvatureSpec,
    GridTooCoarseError,
    IterationConfig,
    NonConvergenceError,
    QuadError,
    SectorSpec,
    SurgerySpec,
    geodesic_provider,
    insert_branch_point,
    patch_sectors,
    run_stage,
    symmetric_angles,
)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "surgery_map.md")
TOL = 1e-4
CFG = IterationConfig(tol=TOL, max_iters=100)

BASES = [(family, eps, n, grid, extent)
         for family, eps in (("LINEAR", 1.0), ("LINEAR", 2.9), ("LINEAR", 10.0),
                             ("RING", 2.0), ("RING", 2.9))
         for n, grid, extent in itertools.product((2, 3), (12, 18), (0.5, 0.75))]


def cuts(grid: int) -> list:
    """(b, m) of the first cuts of a base with grid size ``grid``."""
    return [(b, m) for b in (grid // 4, grid // 2, 3 * grid // 4) for m in (3, 5)]


def counted(fn, *args):
    """(result or None, outcome, marches) of ``fn(*args)``."""
    marches = 0

    def provider(cx):
        nonlocal marches
        marches += 1
        return geodesic_provider(cx)

    amsler.geodesic_provider = provider
    try:
        result = fn(*args)
    except NonConvergenceError as exc:
        return None, exc.kind, marches
    except (QuadError, GridTooCoarseError) as exc:
        return None, type(exc).__name__, marches
    finally:
        amsler.geodesic_provider = geodesic_provider
    return result, "converged", marches


def plain_change(cx, curv) -> float:
    """The change of one more plain iteration from the converged ``cx``."""
    try:
        return run_stage(cx.copy(), curv, IterationConfig(tol=TOL, max_iters=1)).changes[0]
    except NonConvergenceError as exc:
        return exc.changes[0]


def base_surface(family, eps, n, grid, extent):
    curv = CurvatureSpec(CurvatureFamily[family], eps)
    spec = SectorSpec(u_max=extent, v_max=extent, I=grid, J=grid)
    return counted(patch_sectors, symmetric_angles(n), spec, curv, CFG)


def map_cell(base, cell) -> dict:
    family, eps, n, grid, extent, b, m = cell
    curv = CurvatureSpec(CurvatureFamily[family], eps)
    row = {"cell": cell, "cuts": [], "plain": []}
    cx = base
    # the middle fan of cut 1 is its fan (m + 1) / 2, whose side is I - b
    targets = [SurgerySpec(sector=0, b=b, m=m),
               SurgerySpec(sector=len(base.sectors) + m // 2, b=(grid - b) // 2, m=3)]
    for spec in targets:
        cx, outcome, marches = counted(insert_branch_point, cx, spec, curv, CFG)
        row["cuts"].append((outcome, marches))
        if cx is None:
            break
        row["plain"].append(plain_change(cx, curv))
    row["second"] = (targets[1].sector, targets[1].b)
    return row


def read_map(path) -> dict:
    """{cell: ((outcome 1, iters 1), (outcome 2, iters 2) or None)} of a written map."""
    rows = {}
    with open(path) as fh:
        for line in fh:
            cols = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cols) < 13 or cols[0] not in ("LINEAR", "RING"):
                continue
            cell = (cols[0], float(cols[1]), int(cols[2]), int(cols[3]), float(cols[4]),
                    int(cols[5]), int(cols[6]))
            rows[cell] = tuple((cols[k], int(cols[k + 1])) if cols[k + 1] else None
                               for k in (7, 10))
    return rows


def fmt(value) -> str:
    return "" if value is None else f"{value:.1e}"


def cut_outcome(row, k: int):
    """The outcome of cut ``k`` of a row, None when it was not run."""
    return row["cuts"][k][0] if k < len(row["cuts"]) else None


def summary(rows, baseline) -> list:
    stages = [cut for r in rows for cut in r["cuts"]]
    converged = [it for o, it in stages if o == "converged"]
    failed = sorted({o for o, _ in stages} - {"converged"})
    plain = [c for r in rows for c in r["plain"]]
    lines = [
        f"- cells: {len(rows)}, of which {sum('base' in r for r in rows)} on a base that "
        f"failed; cut 1 converged in {sum(cut_outcome(r, 0) == 'converged' for r in rows)}, "
        f"cut 2 in {sum(cut_outcome(r, 1) == 'converged' for r in rows)}",
        f"- converged cuts: {len(converged)} of {len(stages)} run, "
        f"{sum(converged)} outer iterations",
        "- failed cuts: " + (", ".join(
            f"{kind} {sum(o == kind for o, _ in stages)}" for kind in failed) or "none"),
        f"- one more plain iteration: largest change {fmt(max(plain, default=None))}, "
        f"{sum(c >= TOL for c in plain)} of {len(plain)} at or above tol {TOL:g}",
    ]
    if baseline is None:
        return lines
    pairs = [(cut, old) for r in rows
             for cut, old in zip(r["cuts"], baseline.get(r["cell"], (None, None)))
             if old is not None]
    both = [(cut[1], old[1]) for cut, old in pairs
            if cut[0] == "converged" and old[0] == "converged"]
    old_stages = [old for olds in baseline.values() for old in olds if old is not None]
    lines += [
        f"- baseline: {sum(o == 'converged' for o, _ in old_stages)} of {len(old_stages)} "
        f"cuts converged; converged here but not in the baseline "
        f"{sum(c[0] == 'converged' and o[0] != 'converged' for c, o in pairs)}, in the "
        f"baseline but not here {sum(c[0] != 'converged' and o[0] == 'converged' for c, o in pairs)}",
        f"- outer iterations on the {len(both)} cuts that converge both ways: baseline "
        f"{sum(o for _, o in both)}, here {sum(n for n, _ in both)}; fewer in "
        f"{sum(n < o for n, o in both)}, more in {sum(n > o for n, o in both)}",
    ]
    return lines


def report(rows, baseline) -> str:
    lines = [
        "# Surgery map",
        "",
        "Written by `demos/06_surgery_map.py`: each base surface (automatic schedule,",
        "tol 1e-4, at most 100 iterations per stage) is cut at sector 0 with",
        "(b, m), then with an m = 3 cut at b = (I - b) / 2 into the middle fan of",
        "that cut. Outer iterations count the distance marches of a cut; `plain`",
        "is the change of one more plain iteration from a converged cut.",
    ]
    if baseline is not None:
        lines += ["The `baseline` columns come from the same script run at another commit."]
    lines += ["", *summary(rows, baseline), ""]
    head = ("| family | eps | n | grid | extent | b | m | cut 1 | iters 1 | plain 1 "
            "| cut 2 | iters 2 | plain 2 | cut 2 at (sector, b) |")
    lines += [head + (" baseline 1 | baseline 2 |" if baseline is not None else ""),
              "|---" * (head.count("|") - 1 + (2 if baseline is not None else 0)) + "|"]
    for r in rows:
        family, eps, n, grid, extent, b, m = r["cell"]
        cols = [family, f"{eps:g}", n, grid, f"{extent:g}", b, m]
        for k in range(2):
            outcome, iters = r["cuts"][k] if k < len(r["cuts"]) else ("", "")
            if "base" in r and k == 0:
                outcome = f"base {r['base']}"
            cols += [outcome, iters, fmt(r["plain"][k] if k < len(r["plain"]) else None)]
        cols.append(r["second"] if len(r["cuts"]) > 1 else "")
        if baseline is not None:
            old = baseline.get(r["cell"], (None, None))
            cols += ["" if o is None else f"{o[0]} {o[1]}" for o in old]
        lines.append("| " + " | ".join(str(c) for c in cols) + " |")
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--cells", type=int, default=None, help="run only the first N cells")
    ap.add_argument("--out", default=OUT, help="output file (default: demos/surgery_map.md)")
    ap.add_argument("--baseline", default=None,
                    help="a map written by this script at another commit, to compare with")
    args = ap.parse_args()
    logging.getLogger("ksurf").setLevel(logging.WARNING)
    baseline = read_map(args.baseline) if args.baseline else None

    cells = [(*base, b, m) for base in BASES for b, m in cuts(base[3])][:args.cells]
    bases, rows = {}, []
    for k, cell in enumerate(cells, 1):
        key = cell[:5]
        if key not in bases:
            bases[key] = base_surface(*key)
        base, outcome, _ = bases[key]
        if base is None:
            print(f"[{k}/{len(cells)}] {cell}: base {outcome}", flush=True)
            rows.append({"cell": cell, "base": outcome, "cuts": [], "plain": []})
            continue
        rows.append(map_cell(base, cell))
        print(f"[{k}/{len(cells)}] {cell}: {rows[-1]['cuts']}", flush=True)
    text = report(rows, baseline)
    with open(args.out, "w", newline="\n") as fh:
        fh.write(text)
    print(text.split("\n\n")[2])
    print("wrote", args.out)


if __name__ == "__main__":
    main()
