#!/usr/bin/env python3
"""Convergence map: the automatic schedule against the doubling schedule.

Every cell (family, eps, n, grid, extent) is generated three ways with
tol 1e-4 and at most 100 iterations per stage:

- automatic: ``epsilon_schedule=None``, which first tries the target
  epsilon alone and walks the doubling schedule only when that fails;
- doubling: the explicit ``auto_schedule(eps)``, walked stage by stage;
- sqrt2: a schedule with ratio sqrt(2), the baseline of how much the
  converged surface depends on the path taken to it.

Outer iterations are counted as distance marches (a counting wrapper
stands in for ``ksurf.amsler.geodesic_provider`` during each generation),
so an abandoned direct attempt counts too. A cell falls back when the INFO
line of an abandoned attempt is logged; its result must then be bitwise the
doubling one (or the same error). The deviation of a path is the largest
vertex distance between its surface and the doubling one.
Writes ``demos/convergence_map.md``; ``--map second`` runs the second grid
of cells instead and writes ``demos/convergence_map_second.md``, and
``--cells N`` runs only the first N cells. ``--out`` names another file.
``--baseline FILE`` reads a map that this script wrote at another commit and
adds its automatic and doubling outcomes and iterations, cell by cell, with a
comparison in the summary.
"""
import argparse
import itertools
import logging
import os

import numpy as np

from ksurf import amsler
from ksurf import (
    CurvatureFamily,
    CurvatureSpec,
    GridTooCoarseError,
    IterationConfig,
    NonConvergenceError,
    QuadError,
    SectorSpec,
    auto_schedule,
    geodesic_provider,
    patch_sectors,
    symmetric_angles,
)

HERE = os.path.dirname(os.path.abspath(__file__))
DEVIATION = 3e-4  # a surface further than this from the doubling one counts as moved

MAPS = {
    "first": ({"LINEAR": (2.5, 5.0, 10.0, 20.0, 50.0), "RING": (2.0, 4.0, 8.0)},
              (2, 3, 4), (6, 8, 12, 16), (0.5, 1.0)),
    "second": ({"LINEAR": (2.9, 8.9, 26.0), "RING": (2.9, 3.0, 8.9)},
               (2, 3, 4), (8, 12, 16, 24), (0.5, 0.625, 0.75)),
}
OUT = {"first": "convergence_map.md", "second": "convergence_map_second.md"}


def sqrt2_schedule(target: float) -> list:
    """Ratio sqrt(2) from the first doubling stage up to the target."""
    halvings = len(auto_schedule(target)) - 1
    return [target / 2.0 ** (e / 2.0) for e in range(2 * halvings, -1, -1)]


class AbandonedAttempts(logging.Handler):
    """Counts the INFO lines of abandoned direct attempts."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        self.count += record.getMessage().startswith("direct attempt")


ATTEMPTS = AbandonedAttempts()


def run(family, eps, n, grid, extent, schedule):
    """(complex or None, outcome, outer iterations) of one generation."""
    marches = 0

    def counted(cx):
        nonlocal marches
        marches += 1
        return geodesic_provider(cx)

    amsler.geodesic_provider = counted
    try:
        cx = patch_sectors(symmetric_angles(n),
                           SectorSpec(u_max=extent, v_max=extent, I=grid, J=grid),
                           CurvatureSpec(CurvatureFamily[family], eps),
                           IterationConfig(epsilon_schedule=schedule))
    except NonConvergenceError as exc:
        return None, f"{exc.kind} at {exc.epsilon:g}: {exc}", marches
    except (QuadError, GridTooCoarseError) as exc:
        return None, f"{type(exc).__name__}: {exc}", marches
    finally:
        amsler.geodesic_provider = geodesic_provider
    return cx, "converged", marches


def deviation(a, b) -> float:
    return max(float(np.linalg.norm(sa.positions[sa.valid] - sb.positions[sb.valid],
                                    axis=-1).max(initial=0.0))
               for sa, sb in zip(a.sectors, b.sectors))


def bitwise_equal(a, b) -> bool:
    return a.history == b.history and all(
        getattr(sa, f).tobytes() == getattr(sb, f).tobytes()
        for sa, sb in zip(a.sectors, b.sectors)
        for f in ("positions", "normals", "rho", "geo_dist", "valid"))


def map_cell(family, eps, n, grid, extent) -> dict:
    before = ATTEMPTS.count
    auto, auto_out, auto_it = run(family, eps, n, grid, extent, None)
    fell_back = ATTEMPTS.count > before
    dbl, dbl_out, dbl_it = run(family, eps, n, grid, extent, auto_schedule(eps))
    sq, sq_out, sq_it = run(family, eps, n, grid, extent, sqrt2_schedule(eps))
    if auto is not None and dbl is not None:
        same = bitwise_equal(auto, dbl)
    else:
        same = auto is None and dbl is None and auto_out == dbl_out
    return {
        "cell": (family, eps, n, grid, extent),
        "outcomes": (auto_out, dbl_out, sq_out),
        "iters": (auto_it, dbl_it, sq_it),
        "fallback_same": fell_back and same,
        "fell_back": fell_back,
        "dev_auto": deviation(auto, dbl) if auto is not None and dbl is not None else None,
        "dev_sqrt2": deviation(sq, dbl) if sq is not None and dbl is not None else None,
    }


def short(outcome: str) -> str:
    return outcome if outcome == "converged" else outcome.split(":")[0]


def fmt_dev(dev) -> str:
    return "" if dev is None else f"{dev:.1e}"


def read_map(path) -> dict:
    """{cell: ((automatic outcome, iters), (doubling outcome, iters))} of a written map."""
    rows = {}
    with open(path) as fh:
        for line in fh:
            cols = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cols) < 13 or cols[0] not in ("LINEAR", "RING"):
                continue
            cell = (cols[0], float(cols[1]), int(cols[2]), int(cols[3]), float(cols[4]))
            rows[cell] = ((cols[5].removesuffix(" (fallback)"), int(cols[8])),
                          (cols[6], int(cols[9])))
    return rows


def compare(rows, baseline) -> list:
    """Summary lines comparing the automatic and doubling runs with the baseline's."""
    pairs = [(r, baseline[r["cell"]]) for r in rows if r["cell"] in baseline]
    lines = []
    for k, name in enumerate(("automatic", "doubling")):
        runs = [(short(r["outcomes"][k]), r["iters"][k], old[k]) for r, old in pairs]
        both = [(it, old_it) for out, it, (old_out, old_it) in runs
                if out == old_out == "converged"]
        lines += [
            f"- baseline {name}: {sum(old[0] == 'converged' for _, _, old in runs)} of "
            f"{len(runs)} cells converged; converged here but not in the baseline "
            f"{sum(out == 'converged' != old[0] for out, _, old in runs)}, in the baseline "
            f"but not here {sum(old[0] == 'converged' != out for out, _, old in runs)}",
            f"- {name} outer iterations on the {len(both)} cells that converge both ways: "
            f"baseline {sum(o for _, o in both)}, here {sum(n for n, _ in both)}; fewer in "
            f"{sum(n < o for n, o in both)}, more in {sum(n > o for n, o in both)}",
        ]
    return lines


def report(rows, name, baseline=None) -> str:
    conv = [[r["outcomes"][k] == "converged" for r in rows] for k in range(3)]
    both = [r for r, a, d in zip(rows, conv[0], conv[1]) if a and d]
    fell = [r for r in rows if r["fell_back"]]
    dev_auto = [r["dev_auto"] for r in rows if r["dev_auto"] is not None]
    dev_sq = [r["dev_sqrt2"] for r in rows if r["dev_sqrt2"] is not None]
    lines = [
        f"# Convergence map ({name} grid of cells)",
        "",
        "Written by `demos/05_convergence_map.py`: each cell is generated with the",
        "automatic schedule (the target epsilon first, the doubling schedule only",
        "when that attempt fails), with the explicit doubling schedule",
        "`auto_schedule(eps)` and with a sqrt(2) schedule; tol 1e-4, at most 100",
        "iterations per stage. Outer iterations count every distance march,",
        "abandoned attempts included. Deviations are the largest vertex distance",
        "from the doubling surface.",
    ]
    if baseline is not None:
        lines += ["The `baseline` columns come from the same script run at another commit."]
    lines += [
        "",
        f"- cells: {len(rows)}; converged: doubling {sum(conv[1])}, automatic "
        f"{sum(conv[0])}, sqrt2 {sum(conv[2])}",
        f"- converged with doubling but not automatic: "
        f"{sum(d and not a for a, d in zip(conv[0], conv[1]))}; with automatic but not "
        f"doubling: {sum(a and not d for a, d in zip(conv[0], conv[1]))}",
        f"- outer iterations on the {len(both)} cells that converge both ways: doubling "
        f"{sum(r['iters'][1] for r in both)}, automatic {sum(r['iters'][0] for r in both)}",
        f"- fallback cells (direct attempt abandoned): {len(fell)}, of which bitwise "
        f"equal to the doubling result (or the same error): "
        f"{sum(r['fallback_same'] for r in fell)}",
        f"- deviation above {DEVIATION:g}: automatic {sum(d > DEVIATION for d in dev_auto)} "
        f"of {len(dev_auto)} common cells; sqrt2 (path-dependence baseline) "
        f"{sum(d > DEVIATION for d in dev_sq)} of {len(dev_sq)}",
        *(compare(rows, baseline) if baseline is not None else []),
        "",
    ]
    head = ("| family | eps | n | grid | extent | automatic | doubling | sqrt2 "
            "| iters auto | iters doubling | iters sqrt2 | dev auto | dev sqrt2 |")
    lines += [head + (" baseline auto | baseline doubling |" if baseline is not None else ""),
              "|---" * (head.count("|") - 1 + (2 if baseline is not None else 0)) + "|"]
    for r in rows:
        family, eps, n, grid, extent = r["cell"]
        auto = short(r["outcomes"][0]) + (" (fallback)" if r["fell_back"] else "")
        line = (f"| {family} | {eps:g} | {n} | {grid} | {extent:g} | {auto} | "
                f"{short(r['outcomes'][1])} | {short(r['outcomes'][2])} | "
                + " | ".join(str(i) for i in r["iters"])
                + f" | {fmt_dev(r['dev_auto'])} | {fmt_dev(r['dev_sqrt2'])} |")
        if baseline is not None:
            old = baseline.get(r["cell"])
            line += " | |" if old is None else "".join(f" {o} {i} |" for o, i in old)
        lines.append(line)
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--map", choices=sorted(MAPS), default="first")
    ap.add_argument("--cells", type=int, default=None, help="run only the first N cells")
    ap.add_argument("--out", default=None,
                    help="output file (default: the map's file in demos/)")
    ap.add_argument("--baseline", default=None,
                    help="a map written by this script at another commit, to compare with")
    args = ap.parse_args()
    out = args.out or os.path.join(HERE, OUT[args.map])
    baseline = read_map(args.baseline) if args.baseline else None

    amsler_log = logging.getLogger("ksurf.amsler")
    amsler_log.setLevel(logging.INFO)
    amsler_log.addHandler(ATTEMPTS)
    amsler_log.propagate = False
    eps_by_family, ns, grids, extents = MAPS[args.map]
    cells = [(fam, eps, n, grid, ext)
             for fam, eps_list in eps_by_family.items()
             for eps, n, grid, ext in itertools.product(eps_list, ns, grids, extents)]
    cells = cells[:args.cells]
    rows = []
    for k, cell in enumerate(cells, 1):
        rows.append(map_cell(*cell))
        r = rows[-1]
        print(f"[{k}/{len(cells)}] {cell}: {[short(o) for o in r['outcomes']]} "
              f"iters {r['iters']}", flush=True)
    text = report(rows, args.map, baseline)
    with open(out, "w", newline="\n") as fh:
        fh.write(text)
    print(text.split("\n\n")[2])
    print("wrote", out)


if __name__ == "__main__":
    main()
