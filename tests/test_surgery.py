"""Branch-point surgery: corner cut, fan construction, re-convergence."""
import math

import numpy as np
import pytest

from ksurf import (
    CurvatureFamily,
    CurvatureSpec,
    InheritLink,
    IterationConfig,
    SectorSpec,
    SurgerySpec,
    insert_branch_point,
    run_stage,
    single_sector_complex,
    split_angle_axes,
    validate_complex,
)
from ksurf.mesh import incident_quad_count

from conftest import build_patched

CONSTANT = CurvatureSpec(CurvatureFamily.CONSTANT)
CFG0 = IterationConfig(tol=1e-8, max_iters=100, epsilon_schedule=[0.0])
LINEAR1 = CurvatureSpec(CurvatureFamily.LINEAR, 1.0)
CFG1 = IterationConfig(tol=1e-6, max_iters=200, epsilon_schedule=[1.0])


def _base_constant():
    return build_patched("CONSTANT", 0.0, 2, 1.0, 8, tol=1e-8)


def _base_linear():
    return build_patched("LINEAR", 1.0, 2, 0.5, 8, tol=1e-6)


def _angle(a, b):
    c = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return math.acos(min(1.0, max(-1.0, c)))


def test_split_axes_geometry():
    s = _base_constant().sectors[0]
    b, m = 4, 5
    axes = split_angle_axes(s, b, m)
    assert len(axes) == m - 1
    N = s.normals[b, b]
    e_row = s.positions[b + 1, b] - s.positions[b, b]
    e_col = s.positions[b, b + 1] - s.positions[b, b]
    theta = _angle(e_row, e_col)
    for k, axis in enumerate(axes, start=1):
        assert float(np.linalg.norm(axis)) == pytest.approx(1.0, abs=1e-13)
        assert abs(float(axis @ N)) < 1e-12
        assert _angle(e_row, axis) == pytest.approx(k * theta / m, abs=1e-12)
        assert _angle(axis, e_col) == pytest.approx((m - k) * theta / m, abs=1e-12)


def test_split_axes_range_check():
    s = _base_constant().sectors[0]
    for bad in (0, s.I):
        with pytest.raises(ValueError):
            split_angle_axes(s, bad, 3)


def test_even_m_rejected():
    with pytest.raises(ValueError, match="even"):
        insert_branch_point(_base_constant(), SurgerySpec(sector=0, b=4, m=4),
                            CONSTANT, CFG0)


def test_even_m_forced_breaks_labeling():
    # skipping the parity guard produces a complex whose edges cannot be
    # labeled consistently, which is why even m is rejected up front
    cx = insert_branch_point(_base_constant(), SurgerySpec(sector=0, b=4, m=4),
                             CONSTANT, CFG0, _skip_checks=True)
    rep = validate_complex(cx)
    assert not rep.check("edge_labels").passed
    assert not rep.check("two_coloring").passed
    # the edge key prints as plain ints, not numpy scalars
    assert rep.check("edge_labels").detail == \
        "edge (40, 41) labeled both v and u (sector 7 quad (0,0))"


def _snapshot(cx):
    """Bytes of every sector array and the records of a complex."""
    sectors = [([a.tobytes() for a in (s.positions, s.normals, s.rho, s.geo_dist, s.valid)],
                s.parity, s.sector_id) for s in cx.sectors]
    gluings = [(g.sector_a, g.sector_b, list(g.nodes_a), list(g.nodes_b)) for g in cx.gluings]
    return (sectors, gluings, list(cx.branch_points), list(cx.boundaries),
            list(cx.history), cx.origin)


def test_m3_insertion_structure():
    base = _base_constant()
    before = _snapshot(base)
    cx = insert_branch_point(base, SurgerySpec(sector=0, b=4, m=3), CONSTANT, CFG0)
    assert len(cx.sectors) == len(base.sectors) + 3
    assert validate_complex(cx).passed

    bp = cx.branch_points[-1]
    assert (bp.sector, bp.i, bp.j) == (0, 4, 4)
    assert bp.incident_sectors == 4
    assert bp.expected_quads == 6
    assert incident_quad_count(cx, bp.sector, bp.i, bp.j) == 6

    # the far corner square of the target is cut away
    target = cx.sectors[0]
    assert not target.valid[5:, 5:].any()
    assert target.valid[:5, :].all() and target.valid[:, :5].all()
    # base complex untouched
    assert _snapshot(base) == before


def test_m3_inherits_are_bitwise():
    cx = insert_branch_point(_base_constant(), SurgerySpec(sector=0, b=4, m=3),
                             CONSTANT, CFG0)
    links = [r for r in cx.boundaries if isinstance(r, InheritLink)]
    assert len(links) == 2
    for link in links:
        src = cx.sectors[link.src_sector]
        dst = cx.sectors[link.dst_sector]
        for (si, sj), (di, dj) in zip(link.src_nodes, link.dst_nodes):
            assert np.array_equal(src.positions[si, sj], dst.positions[di, dj])
            assert np.array_equal(src.normals[si, sj], dst.normals[di, dj])


def test_fan_axis_distances_offset_from_corner():
    b = 4
    base = _base_constant()
    cx = insert_branch_point(base, SurgerySpec(sector=0, b=b, m=3), CONSTANT, CFG0)
    target = cx.sectors[0]
    d_bb = float(target.geo_dist[b, b])
    spacing = float(np.linalg.norm(
        base.sectors[0].positions[b + 1, b] - base.sectors[0].positions[b, b]))
    middle = cx.sectors[len(base.sectors) + 1]
    for t in range(middle.rho.shape[0]):
        assert middle.geo_dist[t, 0] == pytest.approx(d_bb + t * spacing, abs=1e-9)
        assert middle.geo_dist[0, t] == pytest.approx(d_bb + t * spacing, abs=1e-9)
    # the branch vertex sits at geodesic distance d_bb in every fan
    for sid in range(len(base.sectors), len(cx.sectors)):
        assert cx.sectors[sid].geo_dist[0, 0] == pytest.approx(d_bb, abs=1e-9)


def test_m5_insertion_on_varying_curvature():
    base = _base_linear()
    cx = insert_branch_point(base, SurgerySpec(sector=1, b=4, m=5), LINEAR1, CFG1)
    assert len(cx.sectors) == len(base.sectors) + 5
    rep = validate_complex(cx)
    assert rep.passed, [c.detail for c in rep.checks if not c.passed]
    bp = cx.branch_points[-1]
    assert bp.expected_quads == 8
    assert incident_quad_count(cx, bp.sector, bp.i, bp.j) == 8


def test_recursive_insertion():
    cx = insert_branch_point(_base_constant(), SurgerySpec(sector=0, b=4, m=3),
                             CONSTANT, CFG0)
    fan_id = 4  # first sector added by the cut above
    cx2 = insert_branch_point(cx, SurgerySpec(sector=fan_id, b=2, m=3),
                              CONSTANT, CFG0)
    assert len(cx2.branch_points) == 2
    assert len(cx2.sectors) == len(cx.sectors) + 3
    assert validate_complex(cx2).passed


def test_target_checks():
    curv = CONSTANT
    # not fully generated
    cx = single_sector_complex(SectorSpec(u_max=0.5, v_max=0.5, I=6, J=6), curv)
    with pytest.raises(ValueError, match="generated|unset"):
        insert_branch_point(cx, SurgerySpec(sector=0, b=2, m=3), curv, CFG0)
    # not square
    rect = single_sector_complex(SectorSpec(u_max=0.5, v_max=0.4, I=6, J=5), curv)
    run_stage(rect, curv, CFG0)
    with pytest.raises(ValueError, match="square"):
        insert_branch_point(rect, SurgerySpec(sector=0, b=2, m=3), curv, CFG0)
    # cut index out of range
    base = _base_constant()
    for bad in (0, 8, 9):
        with pytest.raises(ValueError):
            insert_branch_point(base, SurgerySpec(sector=0, b=bad, m=3), curv, CFG0)


def test_truncated_sector_rejected_as_target():
    cx = insert_branch_point(_base_constant(), SurgerySpec(sector=0, b=4, m=3),
                             CONSTANT, CFG0)
    with pytest.raises(ValueError, match="truncated|generated|unset"):
        insert_branch_point(cx, SurgerySpec(sector=0, b=2, m=3), CONSTANT, CFG0)
