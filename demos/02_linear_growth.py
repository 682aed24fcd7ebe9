#!/usr/bin/env python3
"""Curvature growing linearly with distance from the center.

K(D) = -(1 + eps * D) makes the surface wrinkle more tightly the further
it gets from the origin. By default the solver first converges cold at the
target eps, and only if that fails walks a doubling schedule of
intermediate eps values, reusing each converged surface as the next
starting guess. With --doubling it walks that schedule directly. The
script reports the iteration count per stage so the two can be compared.
"""
import argparse
import logging
import os

from ksurf import (
    CurvatureFamily,
    CurvatureSpec,
    IterationConfig,
    SectorSpec,
    auto_schedule,
    export_mesh,
    patch_sectors,
    symmetric_angles,
)

OUT = os.path.join(os.path.dirname(__file__), "out")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=10.0)
    ap.add_argument("--grid", type=int, default=16)
    ap.add_argument("--extent", type=float, default=0.75)
    ap.add_argument("--sectors", type=int, default=2,
                    help="half the number of sectors around the center")
    ap.add_argument("--doubling", action="store_true",
                    help="walk the doubling schedule instead of trying eps directly")
    args = ap.parse_args()

    logging.basicConfig(level=logging.WARNING)
    schedule = auto_schedule(args.epsilon) if args.doubling else None
    if schedule:
        print("continuation schedule:", [round(e, 4) for e in schedule])

    cx = patch_sectors(
        symmetric_angles(args.sectors),
        SectorSpec(u_max=args.extent, v_max=args.extent,
                   I=args.grid, J=args.grid),
        CurvatureSpec(CurvatureFamily.LINEAR, args.epsilon),
        IterationConfig(tol=1e-5, max_iters=200, epsilon_schedule=schedule),
    )
    total = 0
    for rec in cx.history:
        total += rec.iterations
        print(f"  eps={rec.epsilon:<8g} {rec.iterations:2d} iterations, "
              f"final change {rec.changes[-1]:.2e}")
    print(f"{total} iterations across {len(cx.history)} stages")
    if schedule is None and len(cx.history) > 1:
        print("the direct attempt at the target eps failed, so the doubling schedule ran")

    os.makedirs(OUT, exist_ok=True)
    obj = os.path.join(OUT, f"linear_eps{args.epsilon:g}.obj")
    export_mesh(cx, obj)
    print("wrote", obj)


if __name__ == "__main__":
    main()
