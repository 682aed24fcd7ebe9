"""Grid containers, parity bookkeeping, vertex dedup and structural checks."""
import copy
import dataclasses
import logging
import math
import re

import numpy as np
import pytest

from ksurf import (
    BranchPoint,
    GluingMap,
    Parity,
    SectorGrid,
    SurfaceComplex,
    SurgerySpec,
    export_mesh,
    global_vertex_ids,
    import_mesh,
    insert_branch_point,
    single_sector_complex,
    validate_complex,
)
from ksurf.io import build_report
from ksurf.mesh import gluing_gaps, incident_quad_count, quad_corner_values, quad_table
from ksurf import CurvatureFamily, CurvatureSpec, IterationConfig, SectorSpec, run_stage

import lelieuvre_oracle
import mesh_oracle
from conftest import build_branch_chain, build_patched, build_surgery_m3


def test_parity_flip_roundtrip():
    assert Parity.ODD.flipped() is Parity.EVEN
    assert Parity.EVEN.flipped() is Parity.ODD


def test_quad_corner_indices_by_parity():
    # f1 is the u-neighbor. In an odd sector u runs along the first index,
    # in an even sector along the second.
    corners = lelieuvre_oracle.quad_corner_indices
    assert corners(Parity.ODD, 3, 5) == ((3, 5), (4, 5), (3, 6), (4, 6))
    assert corners(Parity.EVEN, 3, 5) == ((3, 5), (3, 6), (4, 5), (4, 6))
    # the library's corner gather orders every quad the same way
    for parity in Parity:
        s = SectorGrid.empty(4, 6, parity)
        flat = np.arange(s.rho.size).reshape(s.rho.shape)
        want = [[flat[f] for f in corners(parity, i, j)]
                for i, j in lelieuvre_oracle.quads(s)]
        assert quad_corner_values(s, flat).T.tolist() == want


def test_empty_grid_shapes_and_boundary():
    s = SectorGrid.empty(4, 6, Parity.ODD, sector_id=2)
    assert s.positions.shape == (5, 7, 3)
    assert s.normals.shape == (5, 7, 3)
    assert s.rho.shape == (5, 7)
    assert np.isnan(s.positions).all()
    assert s.valid.all()
    b = s.boundary_mask()
    assert b[0, :].all() and b[:, 0].all()
    assert b.sum() == 5 + 7 - 1
    with pytest.raises(ValueError):
        SectorGrid.empty(0, 3, Parity.ODD)


def test_quad_corners_range_check():
    # a 3 x 3 grid has the quads (0..2, 0..2): none has its lower corner on row 3
    s = SectorGrid.empty(3, 3, Parity.ODD)
    i, j = divmod(quad_corner_values(s, np.arange(16).reshape(4, 4))[0], 4)
    assert list(zip(i.tolist(), j.tolist())) == [(a, b) for a in range(3) for b in range(3)]


def test_single_sector_vertex_ids_are_dense():
    spec = SectorSpec(u_max=0.5, v_max=0.5, I=4, J=5)
    curv = CurvatureSpec(CurvatureFamily.CONSTANT)
    cx = single_sector_complex(spec, curv)
    ids, first = global_vertex_ids(cx)
    assert len(first) == 5 * 6
    assert sorted(ids[0].ravel().tolist()) == list(range(len(first)))
    # every vertex's first node carries its id
    assert ids[0].ravel()[first].tolist() == list(range(len(first)))


@pytest.mark.parametrize("n,grid", [(2, 6), (3, 5)])
def test_patched_vertex_count_after_dedup(n, grid):
    # 2n sector interiors of I*J nodes, 2n shared rays of I nodes, one origin
    cx = build_patched("CONSTANT", 0.0, n, 1.0, grid)
    _, first = global_vertex_ids(cx)
    I = J = grid
    assert len(first) == 2 * n * I * J + n * (I + J) + 1


def test_incidence_counts_on_patched_complex(pseudosphere_n2):
    cx = pseudosphere_n2
    I = cx.sectors[0].I
    assert incident_quad_count(cx, 0, 0, 0) == len(cx.sectors)  # one quad per sector at the origin
    assert incident_quad_count(cx, 0, 2, 3) == 4       # interior vertex
    assert incident_quad_count(cx, 0, 2, 0) == 4       # glued ray vertex
    assert incident_quad_count(cx, 0, I, 3) == 2       # outer edge
    assert incident_quad_count(cx, 0, I, I) == 1       # outer corner


def test_validate_passes_on_converged_complex(pseudosphere_n2):
    rep = validate_complex(pseudosphere_n2)
    assert rep.passed, [c.detail for c in rep.checks if not c.passed]


def test_validate_detects_gluing_break(pseudosphere_n2):
    cx = copy.deepcopy(pseudosphere_n2)
    cx.sectors[1].positions[3, 0] += np.array([1e-3, 0.0, 0.0])
    rep = validate_complex(cx)
    assert not rep.passed
    assert not rep.check("gluing_coincidence").passed
    assert rep.check("gluing_coincidence").value >= 1e-3 - 1e-12


def test_validate_detects_broken_normal(pseudosphere_n2):
    cx = copy.deepcopy(pseudosphere_n2)
    cx.sectors[0].normals[4, 4] *= 1.5
    rep = validate_complex(cx)
    assert not rep.check("vertex_states").passed


@pytest.mark.parametrize("field,value,detail", [
    ("normals", np.nan, "sector 0 has unset normals"),
    ("rho", 0.0, "sector 0 has nonpositive rho"),
    ("rho", -1.0, "sector 0 has nonpositive rho"),
])
def test_validate_names_a_bad_vertex_state(pseudosphere_n2, field, value, detail):
    cx = pseudosphere_n2.copy()
    getattr(cx.sectors[0], field)[4, 4] = value
    rep = validate_complex(cx)
    assert [c.name for c in rep.checks if not c.passed] == ["vertex_states"]
    assert rep.check("vertex_states").detail == detail


def test_validate_detects_non_finite_position():
    # node (0, 4) of sector 2 is glued to node (4, 0) of sector 3, so the
    # NaN is also a gluing gap
    cx = build_patched("LINEAR", 1.0, 2, 0.5, 8).copy()
    cx.sectors[2].positions[0, 4] = np.nan
    rep = validate_complex(cx)
    assert not rep.passed
    assert not rep.check("vertex_states").passed
    assert "non-finite positions" in rep.check("vertex_states").detail
    assert math.isnan(gluing_gaps(cx)[0])
    assert not rep.check("gluing_coincidence").passed
    assert "max position gap nan" in rep.check("gluing_coincidence").detail
    assert math.isnan(build_report(cx).gluing_pos_max)


def test_single_sector_quads_are_two_colorable():
    spec = SectorSpec(u_max=0.5, v_max=0.5, I=3, J=3)
    curv = CurvatureSpec(CurvatureFamily.CONSTANT)
    cx = single_sector_complex(spec, curv)
    run_stage(cx, curv, IterationConfig(tol=1e-8, max_iters=50, epsilon_schedule=[0.0]))
    rep = validate_complex(cx)
    assert rep.check("two_coloring").passed
    assert rep.check("edge_labels").passed
    # the origin is the corner (0, 0) of the only sector: on the boundary, and exempt
    assert cx.origin == (0, 0, 0) and rep.check("disk_topology").passed


def _oracle_first(cx, refs):
    """Flat index of each vertex's first node, from the oracle's (sector, i, j) lists."""
    offsets = np.cumsum([0] + [s.valid.size for s in cx.sectors])
    return [int(offsets[sid]) + i * (cx.sectors[sid].J + 1) + j
            for sid, i, j in (r[0] for r in refs)]


def _assert_ids_match_oracle(cx):
    ids, first = global_vertex_ids(cx)
    want_ids, want_count, want_refs = mesh_oracle.global_vertex_ids(cx)
    assert len(first) == want_count
    assert first.tolist() == _oracle_first(cx, want_refs)
    assert len(ids) == len(want_ids)
    for got, want in zip(ids, want_ids):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    return ids


def test_vertex_ids_match_scalar_oracle():
    for cx in (build_patched("LINEAR", 1.0, 3, 0.5, 8), build_surgery_m3(),
               *build_branch_chain()):
        _assert_ids_match_oracle(cx)


def test_vertex_ids_follow_in_place_topology_edits():
    cx = build_surgery_m3().copy()
    cx.gluings = [GluingMap(g.sector_a, g.sector_b, list(g.nodes_a), list(g.nodes_b))
                  for g in cx.gluings]
    before = _assert_ids_match_oracle(cx)
    _assert_ids_match_oracle(cx)

    cx.gluings[1].nodes_a.reverse()  # in place: same objects, other glued pairs
    edited = _assert_ids_match_oracle(cx)
    assert not all(np.array_equal(a, b) for a, b in zip(before, edited))

    cx.sectors[1].valid[3, 3] = False  # one node flipped, same shapes
    flipped = _assert_ids_match_oracle(cx)
    assert flipped[1][3, 3] == -1 != edited[1][3, 3]

    base = build_patched("LINEAR", 1.0, 2, 0.5, 8, tol=1e-6)
    _assert_ids_match_oracle(base)
    cut = insert_branch_point(base, SurgerySpec(sector=0, b=4, m=3),
                              CurvatureSpec(CurvatureFamily.LINEAR, 1.0),
                              IterationConfig(tol=1e-6, max_iters=200, epsilon_schedule=[1.0]))
    _assert_ids_match_oracle(cut)
    _assert_ids_match_oracle(base)


def _oracle_cases(tmp_path):
    """Complexes whose checks pass and fail in every way the quad table can."""
    forced = insert_branch_point(
        build_patched("CONSTANT", 0.0, 2, 1.0, 8, tol=1e-8), SurgerySpec(sector=0, b=4, m=4),
        CurvatureSpec(CurvatureFamily.CONSTANT),
        IterationConfig(tol=1e-8, max_iters=100, epsilon_schedule=[0.0]), _skip_checks=True)
    m3 = build_surgery_m3()
    wrong_count = m3.copy()
    wrong_count.branch_points[-1] = dataclasses.replace(m3.branch_points[-1], expected_quads=7)
    hole = m3.copy()
    hole.sectors[1].valid[3, 3] = False
    unglued = m3.copy()
    del unglued.gluings[1]
    overglued = m3.copy()  # one interior vertex shared by two sectors: 8 quads
    overglued.gluings.append(GluingMap(sector_a=1, sector_b=2, nodes_a=[(3, 3)], nodes_b=[(3, 3)]))
    export_mesh(m3, tmp_path / "m3.obj", tmp_path / "m3.csv")
    imported = import_mesh(tmp_path / "m3.obj", tmp_path / "m3.csv")
    return {"forced_m4": forced, "surgery_m3": m3, "wrong_expected_quads": wrong_count,
            "invalid_interior_node": hole, "gluing_dropped": unglued,
            "interior_node_glued": overglued,
            **{f"branch_chain_{k}": cx for k, cx in enumerate(build_branch_chain())},
            "imported_m3": imported}


def test_validate_matches_loop_oracle(tmp_path):
    outcomes = set()
    for name, cx in _oracle_cases(tmp_path).items():
        got, want = validate_complex(cx), mesh_oracle.validate_complex(cx)
        assert [c.name for c in got.checks] == [c.name for c in want.checks], name
        for g, w in zip(got.checks, want.checks):
            # the loop prints the edge key as numpy scalars, the table as ints
            detail = re.sub(r"np\.int64\((-?\d+)\)", r"\1", w.detail)
            assert (g.passed, g.value, g.detail) == (w.passed, w.value, detail), (name, g.name)
            outcomes.add((g.name, g.passed))
    # every structural check is seen both passing and failing
    for check in ("edge_labels", "two_coloring", "quad_incidence", "disk_topology"):
        assert {(check, True), (check, False)} <= outcomes


@pytest.mark.parametrize("case,detail", [
    ("gluing_dropped", "chi = 1, 1 boundary loop(s), origin (0, 0, 0) on the boundary"),
    ("invalid_interior_node", "chi = 0, 2 boundary loop(s)"),
], ids=["torn_seam", "hole"])
def test_validate_detects_torn_seam_and_hole(tmp_path, case, detail):
    # a torn seam or a hole reads as outer boundary to the other checks
    rep = validate_complex(_oracle_cases(tmp_path)[case])
    assert [c.name for c in rep.checks if not c.passed] == ["disk_topology"]
    assert rep.check("disk_topology").detail == detail


def test_disk_topology_flags_a_branch_point_on_the_boundary(pseudosphere_n2):
    cx = pseudosphere_n2.copy()
    I, J = cx.sectors[0].I, cx.sectors[0].J
    cx.branch_points.append(BranchPoint(0, I, J, incident_sectors=1, expected_quads=1))
    rep = validate_complex(cx)
    assert [c.name for c in rep.checks if not c.passed] == ["disk_topology"]
    assert rep.check("disk_topology").detail == \
        f"chi = 1, 1 boundary loop(s), branch point (0, {I}, {J}) on the boundary"


def test_incident_quad_count_matches_loop_oracle():
    cx = build_surgery_m3()
    for sid, s in enumerate(cx.sectors):
        for i, j in np.argwhere(s.valid).tolist():
            assert incident_quad_count(cx, sid, i, j) == \
                mesh_oracle.incident_quad_count(cx, sid, i, j), (sid, i, j)


def test_quads_follow_the_valid_nodes():
    s = SectorGrid.empty(3, 2, Parity.ODD)
    s.valid[3, 2] = False
    cx = SurfaceComplex([s])
    quads = quad_table(cx, global_vertex_ids(cx)[0])
    corners = list(zip(quads.i.tolist(), quads.j.tolist()))
    assert corners == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]  # i-major lower corners
    assert s.quad_mask().tolist() == [[True, True], [True, True], [True, False]]


def test_failing_validation_logs_no_warning(pseudosphere_n2, caplog):
    # the report is the result: callers print it or raise with it
    cx = pseudosphere_n2.copy()
    cx.sectors[0].normals[4, 4] *= 1.5
    with caplog.at_level(logging.DEBUG, logger="ksurf"):
        assert not validate_complex(cx).passed
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
