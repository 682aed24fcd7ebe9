#!/usr/bin/env python3
"""Cut a corner square out of a sector and patch in a branch point.

Replacing the excised square with an odd number m of fresh sectors puts
a vertex of quad incidence m + 3 on the surface. That concentrates
wrinkling near the branch point instead of forcing curvature to blow up,
which is the trick that lets these surfaces keep growing. Run with
--recurse to apply a second cut inside one of the new fan sectors.
"""
import argparse
import os

from ksurf import (
    CurvatureFamily,
    CurvatureSpec,
    IterationConfig,
    SectorSpec,
    SurgerySpec,
    export_mesh,
    insert_branch_point,
    patch_sectors,
    symmetric_angles,
    validate_complex,
)
from ksurf.mesh import global_vertex_ids, quad_table

OUT = os.path.join(os.path.dirname(__file__), "out")


def describe(cx):
    ids, _ = global_vertex_ids(cx)
    corners = quad_table(cx, ids).corners
    for bp in cx.branch_points:
        count = int((corners == ids[bp.sector][bp.i, bp.j]).any(axis=1).sum())
        print(f"  branch point in sector {bp.sector} at ({bp.i},{bp.j}): "
              f"{count} incident quads, {bp.incident_sectors} sectors")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=3, help="fan size, must be odd")
    ap.add_argument("--recurse", action="store_true")
    args = ap.parse_args()

    curv = CurvatureSpec(CurvatureFamily.CONSTANT)
    cfg = IterationConfig(tol=1e-8, max_iters=100)
    base = patch_sectors(
        symmetric_angles(2),
        SectorSpec(u_max=1.0, v_max=1.0, I=8, J=8), curv, cfg)
    print(f"base complex: {len(base.sectors)} sectors")

    cx = insert_branch_point(base, SurgerySpec(sector=0, b=4, m=args.m),
                             curv, cfg)
    print(f"after surgery: {len(cx.sectors)} sectors")
    describe(cx)

    if args.recurse:
        fan = len(base.sectors) + 1  # a fan sector from the first cut
        cx = insert_branch_point(cx, SurgerySpec(sector=fan, b=2, m=3),
                                 curv, cfg)
        print(f"after recursion: {len(cx.sectors)} sectors")
        describe(cx)

    report = validate_complex(cx)
    print("validation:", "ok" if report.passed else "FAILED")
    os.makedirs(OUT, exist_ok=True)
    obj = os.path.join(OUT, "branch_surgery.obj")
    export_mesh(cx, obj, os.path.join(OUT, "branch_surgery.csv"))
    print("wrote", obj)


if __name__ == "__main__":
    main()
