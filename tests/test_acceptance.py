"""End-to-end acceptance checks, one test per shipped guarantee.

Every test asserts the guarantee at its stated tolerance and prints the
measured number next to the threshold, so a verbose run doubles as a
numbers report. Golden meshes live in tests/golden; regenerate them with
KSURF_UPDATE_GOLDEN=1 after an intentional change.
"""
import functools
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from ksurf import (
    CurvatureFamily,
    CurvatureSpec,
    IterationConfig,
    NonConvergenceError,
    SectorSpec,
    SurgerySpec,
    auto_schedule,
    build_report,
    continuation_on_complex,
    export_mesh,
    fast_march,
    insert_branch_point,
    patch_sectors,
    run_stage,
    single_sector_complex,
    symmetric_angles,
    triangulate_complex,
    trimesh_from_quads,
    validate_complex,
)
from ksurf.lelieuvre import quad_residual_arrays
from ksurf.mesh import quad_corner_arrays, quad_corner_values

import geodesic_oracle
import mesh_oracle
from conftest import WORKLOADS, build_branch_chain, build_patched, build_surgery_m3, build_workload

GOLDEN_DIR = Path(__file__).parent / "golden"


def _sector_residuals(grid_or_cx):
    """Max residuals over every quad of a sector grid or a complex."""
    worst = np.zeros(3)
    for s in getattr(grid_or_cx, "sectors", [grid_or_cx]):
        compat, tan, edge, _ = quad_residual_arrays(*quad_corner_arrays(s))
        worst = np.maximum(worst, [r.max(initial=0.0) for r in (compat, tan, edge)])
    return tuple(worst.tolist())


def test_constant_curvature_converges_in_one_pass():
    spec = SectorSpec(u_max=1.0, v_max=1.0, I=40, J=40)
    curv = CurvatureSpec(CurvatureFamily.CONSTANT)
    cx = continuation_on_complex(single_sector_complex(spec, curv), curv, IterationConfig(
        tol=1e-4, max_iters=50, epsilon_schedule=[curv.epsilon]))
    rec = cx.history[-1]
    compat, tan, edge = _sector_residuals(cx)
    print(f"iterations={rec.iterations} changes={rec.changes} "
          f"residuals=({compat:.3e}, {tan:.3e}, {edge:.3e}) vs 1e-10")
    assert rec.iterations == 1
    assert rec.changes == [0.0]
    assert max(compat, tan, edge) < 1e-10


def test_linear_growth_converges_in_about_ten_iterations():
    cx = build_patched("LINEAR", 1.0, 2, 2.0, 30)
    iters = cx.history[-1].iterations
    print(f"outer iterations={iters}, bound 20, informal target ~10")
    assert iters <= 20


def test_continuation_no_slower_than_cold_start():
    warm = build_patched("LINEAR", 10.0, 2, 1.0, 8)
    warm_iters = warm.history[-1].iterations
    assert [rec.epsilon for rec in warm.history] == auto_schedule(10.0)

    cold = patch_sectors(
        symmetric_angles(2),
        SectorSpec(u_max=1.0, v_max=1.0, I=8, J=8),
        CurvatureSpec(CurvatureFamily.LINEAR, 10.0),
        IterationConfig(tol=1e-4, max_iters=200, epsilon_schedule=[10.0]))
    cold_iters = cold.history[-1].iterations
    print(f"final-stage iterations: warm={warm_iters} cold={cold_iters}")
    assert warm_iters <= cold_iters


def test_quad_invariants_across_the_matrix():
    # extent 0.75 keeps the eps=10, n=3 build away from the fold locus,
    # where the outer loop has no fixed point to find
    worst_norm = worst_route = worst_tan = 0.0
    for eps, n in itertools.product((0.0, 1.0, 10.0), (2, 3)):
        cx = build_patched("LINEAR", eps, n, 0.75, 12)
        for s in cx.sectors:
            n0, n1, n2, n12 = quad_corner_values(s, s.normals * np.sqrt(s.rho)[..., None])
            rho12 = quad_corner_values(s, s.rho)[3]
            worst_norm = max(worst_norm, np.abs(np.vecdot(n12, n12) - rho12).max())
            via_1 = np.cross(n1, n0) - np.cross(n12, n1)
            via_2 = -np.cross(n2, n0) + np.cross(n12, n2)
            worst_route = max(worst_route, np.linalg.norm(via_1 - via_2, axis=-1).max())
            worst_tan = max(worst_tan, quad_residual_arrays(*quad_corner_arrays(s))[1].max())
    print(f"norm={worst_norm:.3e} route={worst_route:.3e} tangency={worst_tan:.3e} "
          f"vs 1e-10")
    assert max(worst_norm, worst_route, worst_tan) < 1e-10


def _flat_grid(n, h):
    verts = np.array([[i * h, j * h, 0.0]
                      for i in range(n + 1) for j in range(n + 1)])
    vid = lambda i, j: i * (n + 1) + j
    quads = [(vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1))
             for i in range(n) for j in range(n)]
    return trimesh_from_quads(verts, quads), verts


def test_flat_march_reproduces_euclidean_distance():
    n = 16
    m, verts = _flat_grid(n, 1.0 / n)
    exact = np.linalg.norm(verts, axis=1)
    res = fast_march(m, [(0, 0.0)])
    single_err = float(np.abs(res.d - exact).max())

    last = m.n_vertices - 1
    multi = fast_march(m, [(0, 0.0), (last, 0.0)])
    exact2 = np.minimum(exact, np.linalg.norm(verts - verts[last], axis=1))
    center = (n + 1) * (n // 2) + n // 2
    center_err = abs(float(multi.d[center]) - math.sqrt(2.0) / 2.0)
    # Stencils straddling the two-front collision ridge mix distances to
    # different sources and land short there; away from the one-cell band
    # around the diagonal the field is exact. The pinned value is the center.
    ij = np.array([(i, j) for i in range(n + 1) for j in range(n + 1)])
    off_ridge = np.abs(ij.sum(axis=1) - n) >= 2
    multi_err = float(np.abs(multi.d - exact2)[off_ridge].max())
    ridge_err = float(np.abs(multi.d - exact2).max())
    print(f"single-source max err={single_err:.3e}, multi-source center "
          f"err={center_err:.3e}, off-ridge err={multi_err:.3e} vs 1e-9 "
          f"(collision band err={ridge_err:.3e})")
    assert single_err < 1e-9
    assert center_err < 1e-9
    assert multi_err < 1e-9


def test_march_stays_below_edge_graph_distance():
    rng = np.random.default_rng(20260815)
    worst = -math.inf
    for trial in range(20):
        eps = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        ext = float(rng.uniform(0.3, 0.6))
        I = int(rng.integers(6, 13))
        J = int(rng.integers(6, 13))
        cx = single_sector_complex(SectorSpec(u_max=ext, v_max=ext, I=I, J=J),
                                   CurvatureSpec(CurvatureFamily.LINEAR, eps))
        cfg = IterationConfig(tol=1e-4, max_iters=200)
        for stage_eps in auto_schedule(eps):
            run_stage(cx, CurvatureSpec(CurvatureFamily.LINEAR, stage_eps), cfg)
        m = triangulate_complex(cx)
        res = fast_march(m, [(0, 0.0)])
        upper = geodesic_oracle.steiner_bound(m, [(0, 0.0)], 1)
        worst = max(worst, float((res.d - upper).max()))
        accepted = res.d[np.array(res.order)]
        assert (np.diff(accepted) >= -1e-12).all()
    print(f"max (march - dijkstra) over 20 meshes = {worst:.3e} vs 1e-12")
    assert worst <= 1e-12


def test_boundary_rays_carry_arc_length_distance():
    cases = [("CONSTANT", 0.0, 0.5, 1e-4), ("LINEAR", 1.0, 0.5, 1e-4),
             ("RING", 1.0, 0.625, 1e-6)]
    for family, eps, ext, tol in cases:
        cx = build_patched(family, eps, 2, ext, 16, tol=tol)
        err = build_report(cx).boundary_arc_err
        print(f"{family} eps={eps}: boundary arc err={err:.3e} vs 1e-6")
        assert err < 1e-6


def test_ring_interior_is_shared_across_epsilon():
    builds = {eps: build_patched("RING", eps, 2, 0.625, 16, tol=1e-6)
              for eps in (1.0, 2.0, 3.0)}
    in_ring = {}
    for eps, cx in builds.items():
        masks = [s.geo_dist <= 0.5 for s in cx.sectors]
        assert any(m.any() for m in masks)
        rho_err = max(float(np.abs(s.rho[m] - 1.0).max())
                      for s, m in zip(cx.sectors, masks) if m.any())
        print(f"eps={eps}: in-ring |rho - 1| max={rho_err:.3e} vs 1e-6")
        assert rho_err < 1e-6
        in_ring[eps] = masks

    base = builds[1.0]
    for eps in (2.0, 3.0):
        other = builds[eps]
        gap = 0.0
        for k, s in enumerate(base.sectors):
            common = in_ring[1.0][k] & in_ring[eps][k]
            if common.any():
                diff = s.positions[common] - other.sectors[k].positions[common]
                gap = max(gap, float(np.linalg.norm(diff, axis=-1).max()))
        print(f"eps=1 vs eps={eps}: in-ring position gap={gap:.3e} vs 1e-4")
        assert gap < 1e-4


def test_gluing_keeps_normals_continuous():
    for n in (2, 3, 4):
        cx = build_patched("LINEAR", 1.0, n, 0.5, 8)
        rep = build_report(cx)
        print(f"n={n}: gluing normal gap={rep.gluing_normal_max:.3e} vs 1e-10")
        assert rep.gluing_normal_max < 1e-10
        assert rep.gluing_pos_max < 1e-10


def test_branch_point_surgery_structure():
    const = CurvatureSpec(CurvatureFamily.CONSTANT)
    cfg8 = IterationConfig(tol=1e-8, max_iters=100, epsilon_schedule=[0.0])
    base = build_patched("CONSTANT", 0.0, 2, 1.0, 8, tol=1e-8)

    with pytest.raises(ValueError, match="even"):
        insert_branch_point(base, SurgerySpec(sector=0, b=4, m=4), const, cfg8)

    m3 = insert_branch_point(base, SurgerySpec(sector=0, b=4, m=3), const, cfg8)
    rep3 = validate_complex(m3)
    assert rep3.passed, [c.name for c in rep3.checks if not c.passed]
    bp = m3.branch_points[0]
    count3 = mesh_oracle.incident_quad_count(m3, bp.sector, bp.i, bp.j)
    assert count3 == bp.expected_quads == 6

    lin = CurvatureSpec(CurvatureFamily.LINEAR, 1.0)
    cfg6 = IterationConfig(tol=1e-6, max_iters=200, epsilon_schedule=[1.0])
    base5 = build_patched("LINEAR", 1.0, 2, 0.5, 8, tol=1e-6)
    m5 = insert_branch_point(base5, SurgerySpec(sector=1, b=4, m=5), lin, cfg6)
    rep5 = validate_complex(m5)
    assert rep5.passed, [c.name for c in rep5.checks if not c.passed]
    bp5 = m5.branch_points[0]
    count5 = mesh_oracle.incident_quad_count(m5, bp5.sector, bp5.i, bp5.j)
    assert count5 == bp5.expected_quads == 8

    new5 = range(len(base5.sectors), len(m5.sectors))
    compat = max(_sector_residuals(m5.sectors[k])[0] for k in new5)
    tan = max(_sector_residuals(m5.sectors[k])[1] for k in new5)
    assert max(compat, tan) < 1e-10

    twice = insert_branch_point(m3, SurgerySpec(sector=4, b=2, m=3), const, cfg8)
    rep_r = validate_complex(twice)
    assert rep_r.passed, [c.name for c in rep_r.checks if not c.passed]
    assert len(twice.branch_points) == 2
    print(f"m=3 branch quads={count3}, m=5 branch quads={count5}, "
          f"recursive complex sectors={len(twice.sectors)}")


GOLDEN_MATRIX = [(n, eps) for n in (2, 3, 4) for eps in (1.0, 10.0, 50.0)]
GOLDEN_BUILDERS = {f"n{n}_eps{int(eps)}": functools.partial(build_patched, "LINEAR", eps, n, 0.5, 8)
                   for n, eps in GOLDEN_MATRIX}
GOLDEN_BUILDERS["surgery_m3"] = build_surgery_m3
GOLDEN_BUILDERS["branch_chain"] = lambda: build_branch_chain()[-1]


@pytest.mark.parametrize("name", list(GOLDEN_BUILDERS))
def test_golden_meshes_reproduce_bitwise(name, tmp_path):
    cx = GOLDEN_BUILDERS[name]()
    fresh = tmp_path / "golden.obj"
    export_mesh(cx, fresh)
    golden = GOLDEN_DIR / f"{name}.obj"
    if os.environ.get("KSURF_UPDATE_GOLDEN") == "1":
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_bytes(fresh.read_bytes())
    assert golden.exists(), "golden mesh missing; run with KSURF_UPDATE_GOLDEN=1"
    same = fresh.read_bytes() == golden.read_bytes()
    detail = "bitwise identical"
    if not same:
        detail = f"DIFFERS, max vertex deviation {_max_vertex_deviation(fresh, golden):.3e}"
    print(f"{name}: {detail}")
    assert same, detail


# builder, curvature family and tol of every golden complex and workload; the
# epsilon of the last stage is the one its history records
PLAIN_STEP_CASES = {name: (builder, "LINEAR", 1e-4) for name, builder in GOLDEN_BUILDERS.items()}
PLAIN_STEP_CASES["surgery_m3"] = (build_surgery_m3, "LINEAR", 1e-6)
PLAIN_STEP_CASES["branch_chain"] = (GOLDEN_BUILDERS["branch_chain"], "RING", 1e-4)
for _name, (_family, *_) in WORKLOADS.items():
    PLAIN_STEP_CASES[_name] = (functools.partial(build_workload, _name), _family, 1e-4)


@pytest.mark.parametrize("name", list(PLAIN_STEP_CASES))
def test_one_more_plain_iteration_moves_the_result_by_less_than_tol(name):
    # a stage ends on an iteration whose change is below tol, so its result
    # is a fixed point of the march-and-sweep map to within tol
    builder, family, tol = PLAIN_STEP_CASES[name]
    cx = builder().copy()
    curv = CurvatureSpec(CurvatureFamily[family], cx.history[-1].epsilon)
    try:
        # every sector stores rho of its D at this epsilon, so the stage makes
        # no upwind pass: its one iteration is one march and one sweep
        change = run_stage(cx, curv, IterationConfig(tol=tol, max_iters=1)).changes[0]
    except NonConvergenceError as exc:
        change = exc.changes[0]
    print(f"{name}: one more plain iteration moves it by {change:.3e} vs tol {tol:g}")
    assert change < tol


def _obj_vertices(path):
    return np.array([[float(x) for x in line.split()[1:4]]
                     for line in path.read_text().splitlines() if line.startswith("v ")])


def _max_vertex_deviation(fresh, golden):
    """Largest |x - x_golden| over vertices, inf when the vertex counts differ."""
    a, b = _obj_vertices(fresh), _obj_vertices(golden)
    return float(np.abs(a - b).max()) if a.shape == b.shape else math.inf
