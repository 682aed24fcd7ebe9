"""Curvature families, boundary rays, the outer iteration and patching."""
import logging
import math

import numpy as np
import pytest

from ksurf import (
    CurvatureFamily,
    CurvatureSpec,
    GridTooCoarseError,
    IterationConfig,
    NonConvergenceError,
    SectorSpec,
    SurgerySpec,
    auto_schedule,
    continuation_on_complex,
    eval_curvature,
    eval_rho,
    export_mesh,
    geodesic_provider,
    import_mesh,
    insert_branch_point,
    patch_sectors,
    ray_boundary_data,
    run_stage,
    single_sector_complex,
    symmetric_angles,
    validate_complex,
)

from ksurf.amsler import (
    RaySpec,
    _chord_distance,
    _rho_field,
    _seed_distance,
    build_patched_complex,
    origin_vertex,
    refresh_boundaries,
    sweep_runs,
)
from ksurf.geodesic import fast_march, triangulate_complex
from ksurf.lelieuvre import UnsolvableQuadError, sweep_sector, sweep_sectors
from ksurf.surgery import FanAxes

from conftest import (
    WORKLOADS,
    build_branch_chain,
    build_patched,
    build_surgery_m3,
    build_workload,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def test_eval_curvature_families():
    const = CurvatureSpec(CurvatureFamily.CONSTANT)
    assert eval_curvature(const, 0.0) == -1.0
    assert eval_curvature(const, 7.3) == -1.0

    lin = CurvatureSpec(CurvatureFamily.LINEAR, epsilon=1.0)
    assert eval_curvature(lin, 0.7) == pytest.approx(-1.7, abs=1e-15)

    ring = CurvatureSpec(CurvatureFamily.RING, epsilon=3.0)
    assert eval_curvature(ring, 0.2) == -1.0
    assert eval_curvature(ring, 0.5) == -1.0
    # beyond the ring the deviation grows quadratically: 20 * 0.1 = 2,
    # so K = -(1 + 3 * 4) = -13
    assert eval_curvature(ring, 0.6) == pytest.approx(-13.0, abs=1e-12)
    assert eval_rho(ring, 0.6) == pytest.approx(13.0 ** -0.5, abs=1e-15)


def test_eval_curvature_vectorized_and_monotone():
    D = np.linspace(0.0, 2.0, 101)
    for fam, eps in ((CurvatureFamily.LINEAR, 2.0), (CurvatureFamily.RING, 1.0)):
        K = eval_curvature(CurvatureSpec(fam, eps), D)
        assert K.shape == D.shape
        assert (K < 0).all()
        assert (np.diff(K) <= 0).all()
        rho = eval_rho(CurvatureSpec(fam, eps), D)
        np.testing.assert_allclose(rho, (-K) ** -0.5, atol=1e-15)


def test_auto_schedule():
    assert auto_schedule(0.0) == [0.0]
    assert auto_schedule(1.0) == [1.0]
    assert auto_schedule(10.0) == [1.25, 2.5, 5.0, 10.0]
    sched = auto_schedule(50.0)
    assert sched[-1] == 50.0
    assert all(b / a <= 2.0 + 1e-15 for a, b in zip(sched, sched[1:]))


def test_ray_positions_are_straight_chords():
    curv = CurvatureSpec(CurvatureFamily.LINEAR, 1.0)
    ray = ray_boundary_data(np.zeros(3), X, Z, 0.1, 6, curv, 0.0, "u")
    for l in range(7):
        np.testing.assert_array_equal(ray.positions[l], l * 0.1 * X)
        assert ray.D[l] == pytest.approx(0.1 * l, abs=1e-15)
        assert ray.rho[l] == eval_rho(curv, ray.D[l])


def test_ray_normals_rotate_by_edge_condition():
    """Consecutive normals open by arcsin(h / sqrt(rho_a rho_b)) about the
    ray, with opposite sense for u- and v-rays."""
    curv = CurvatureSpec(CurvatureFamily.LINEAR, 1.0)
    h = 0.1
    for kind, sense in (("u", 1.0), ("v", -1.0)):
        ray = ray_boundary_data(np.zeros(3), X, Z, h, 6, curv, 0.0, kind)
        for l in range(6):
            a, b = ray.normals[l], ray.normals[l + 1]
            assert abs(float(a @ X)) < 1e-14
            assert float(np.linalg.norm(b)) == pytest.approx(1.0, abs=1e-14)
            expected = math.asin(h / math.sqrt(ray.rho[l] * ray.rho[l + 1]))
            got = math.acos(min(1.0, max(-1.0, float(a @ b))))
            assert got == pytest.approx(expected, abs=1e-13)
            assert sense * float(np.cross(b, a) @ X) > 0.0


def test_ray_offset_start():
    curv = CurvatureSpec(CurvatureFamily.LINEAR, 0.5)
    ray = ray_boundary_data(np.ones(3), X, Z, 0.05, 4, curv, d0=0.3, kind="v")
    assert ray.D[0] == 0.3
    assert ray.rho[0] == eval_rho(curv, 0.3)
    np.testing.assert_array_equal(ray.positions[0], np.ones(3))


def test_grid_too_coarse():
    # spacing larger than the unit rho bound cannot satisfy the edge
    # condition sin(theta) = h / sqrt(rho_a rho_b)
    with pytest.raises(GridTooCoarseError):
        ray_boundary_data(np.zeros(3), X, Z, 1.5, 2,
                          CurvatureSpec(CurvatureFamily.CONSTANT), 0.0, "u")
    with pytest.raises(GridTooCoarseError):
        single_sector_complex(SectorSpec(u_max=3.0, v_max=0.5, I=2, J=2),
                              CurvatureSpec(CurvatureFamily.CONSTANT))


def test_init_boundary_layout():
    spec = SectorSpec(phi1=math.pi / 3, u_max=0.4, v_max=0.6, I=4, J=6)
    curv = CurvatureSpec(CurvatureFamily.CONSTANT)
    g = single_sector_complex(spec, curv).sectors[0]
    s_a, s_b = spec.directions()
    assert float(s_a @ s_b) == pytest.approx(math.cos(math.pi / 3), abs=1e-15)
    for i in range(5):
        np.testing.assert_allclose(g.positions[i, 0], i * 0.1 * s_a, atol=1e-16)
        assert g.geo_dist[i, 0] == pytest.approx(i * 0.1, abs=1e-15)
    for j in range(7):
        np.testing.assert_allclose(g.positions[0, j], j * 0.1 * s_b, atol=1e-16)
    assert np.isnan(g.positions[1:, 1:]).all()


def test_constant_curvature_stage_is_exact():
    spec = SectorSpec(u_max=1.0, v_max=1.0, I=10, J=10)
    curv = CurvatureSpec(CurvatureFamily.CONSTANT)
    cfg = IterationConfig(tol=1e-8, max_iters=20, epsilon_schedule=[curv.epsilon])
    cx = continuation_on_complex(single_sector_complex(spec, curv), curv, cfg)
    rec = cx.history[-1]
    assert rec.iterations == 1
    assert rec.changes == [0.0]
    assert np.isfinite(cx.sectors[0].positions).all()


def _straight_sides(cx):
    """(sector, "row" | "col") of every side written by a base ray or a fan axis."""
    for record in cx.boundaries:
        if isinstance(record, RaySpec):
            yield from record.sides
        elif isinstance(record, FanAxes):
            for left, right in zip(record.fans, record.fans[1:]):
                yield left, "col"
                yield right, "row"


def test_chord_distance_is_the_stored_distance_on_straight_sides():
    # on a straight ray the chord from its anchor is the arc length
    cx = build_workload("branch")
    sides = set(_straight_sides(cx))
    for sid, side in sides:
        s = cx.sectors[sid]
        at = (slice(None), 0) if side == "row" else (0, slice(None))
        np.testing.assert_allclose(_chord_distance(s)[at], s.geo_dist[at], rtol=0, atol=1e-12)
    # both sides of the six base sectors and of the middle fan of each cut
    rows = {sid for sid, side in sides if side == "row"}
    assert rows & {sid for sid, side in sides if side == "col"} == {0, 1, 2, 3, 4, 5, 7, 10}
    # the fans start at their branch vertex, away from the origin
    assert min(cx.sectors[sid].geo_dist[0, 0] for sid in (7, 10)) > 0.0


def test_chord_seed_is_rho_one_for_constant_curvature():
    curv = CurvatureSpec(CurvatureFamily.CONSTANT)
    cx = build_patched_complex(symmetric_angles(3), SectorSpec(u_max=1.0, v_max=1.0, I=6, J=6),
                               curv)
    for s in cx.sectors:
        D = _chord_distance(s)
        assert np.isfinite(D).all()
        rho = _rho_field(s, curv, D)
        assert (rho == 1.0).all()
        assert sweep_sector(s, rho).positions.tobytes() == \
            sweep_sector(s, np.ones_like(s.rho)).positions.tobytes()


# (family, epsilon, n, grid, extent) of the benchmark's workloads and of the
# nine base goldens
BASE_CASES = [case[:5] for case in WORKLOADS.values()] + [
    ("LINEAR", eps, n, 8, 0.5) for n in (2, 3, 4) for eps in (1.0, 10.0, 50.0)]


@pytest.mark.parametrize("family,eps,n,grid,extent", BASE_CASES)
def test_seed_is_the_chord_bitwise_on_base_sectors(family, eps, n, grid, extent):
    # straight rays from the corner offer no shortcut, at any stage's epsilon
    spec = SectorSpec(u_max=extent, v_max=extent, I=grid, J=grid)
    for stage_eps in auto_schedule(eps):
        curv = CurvatureSpec(CurvatureFamily[family], stage_eps)
        for s in build_patched_complex(symmetric_angles(n), spec, curv).sectors:
            assert _seed_distance(s).tobytes() == _chord_distance(s).tobytes()


def test_seed_lowers_the_chord_only_on_the_side_fans_of_a_cut(monkeypatch):
    seeded = {}

    def recording(s):
        seeded[s.sector_id] = (s.valid & ~s.boundary_mask(), _seed_distance(s),
                               _chord_distance(s))
        return seeded[s.sector_id][1]

    monkeypatch.setattr("ksurf.amsler._seed_distance", recording)
    # the branch workload, seeded afresh: six base sectors, then fans 6-8 of
    # the cut into sector 0 and fans 9-11 of the cut into fan 6
    build_workload.__wrapped__("branch")
    assert sorted(seeded) == list(range(12))
    for sid, (interior, seed, chord) in seeded.items():
        if sid in (6, 8, 9, 11):
            # a side fan: one side is the target's marched row or column
            assert (seed <= chord).all(), sid
            assert (seed[interior] < chord[interior]).any(), sid
        else:
            # base sectors and the middle fan of each cut: straight sides only
            assert seed.tobytes() == chord.tobytes(), sid


def test_cut_whose_chord_seed_met_an_unsolvable_quad_converges():
    # seeded at the chord, which reaches side fan 4's inherited row only
    # through the branch vertex, the seed sweep meets 1 + alpha = -2.0e-3 at
    # sector 4 quad (5, 0)
    curv = CurvatureSpec(CurvatureFamily.RING, 2.0)
    cfg = IterationConfig(tol=1e-4, max_iters=100)
    base = patch_sectors(symmetric_angles(2), SectorSpec(u_max=0.75, v_max=0.75, I=12, J=12),
                         curv, cfg)
    cx = insert_branch_point(base, SurgerySpec(sector=0, b=6, m=3), curv, cfg)
    assert cx.history[-1].changes[-1] < cfg.tol


# (epsilon, upwind passes, outer iterations) of each stage: generation, then
# one per cut
WORKLOAD_STAGES = {
    "grow": [(10.0, 4, 1)],
    "fine": [(1.0, 3, 1)],
    "branch": [(2.0, 8, 3), (2.0, 6, 4), (2.0, 3, 3)],
}


@pytest.mark.parametrize("name", list(WORKLOAD_STAGES))
def test_workload_stage_iterations(name):
    history = build_workload(name).history
    assert [(rec.epsilon, len(rec.upwind_changes), rec.iterations) for rec in history] == \
        WORKLOAD_STAGES[name]


def test_continuation_walks_the_schedule():
    spec = SectorSpec(u_max=0.5, v_max=0.5, I=5, J=5)
    curv = CurvatureSpec(CurvatureFamily.LINEAR, 4.0)
    cfg = IterationConfig(tol=1e-4, max_iters=100, epsilon_schedule=auto_schedule(4.0))
    cx = continuation_on_complex(single_sector_complex(spec, curv), curv, cfg)
    assert [r.epsilon for r in cx.history] == [1.0, 2.0, 4.0]
    assert all(r.changes[-1] < 1e-4 for r in cx.history)



def _patched(family, eps, grid, extent, schedule=None, n=2):
    return patch_sectors(symmetric_angles(n),
                         SectorSpec(u_max=extent, v_max=extent, I=grid, J=grid),
                         CurvatureSpec(CurvatureFamily[family], eps),
                         IterationConfig(epsilon_schedule=schedule))


def _assert_same_result(a, b, tmp_path):
    """Bitwise equal sector arrays, history and OBJ export."""
    for sa, sb in zip(a.sectors, b.sectors, strict=True):
        for field in ("positions", "normals", "rho", "geo_dist", "valid"):
            assert getattr(sa, field).tobytes() == getattr(sb, field).tobytes(), field
    assert a.history == b.history
    export_mesh(a, tmp_path / "a.obj")
    export_mesh(b, tmp_path / "b.obj")
    assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()


def test_automatic_schedule_converges_at_the_target_directly(tmp_path):
    auto = _patched("LINEAR", 10.0, 8, 0.5)
    assert [(rec.epsilon, rec.iterations) for rec in auto.history] == [(10.0, 1)]
    walked = _patched("LINEAR", 10.0, 8, 0.5, auto_schedule(10.0))
    assert [rec.epsilon for rec in walked.history] == auto_schedule(10.0)
    assert sum(rec.iterations for rec in walked.history) == 4
    # the direct attempt is the one-stage schedule at the target, run on a copy
    _assert_same_result(auto, _patched("LINEAR", 10.0, 8, 0.5, [10.0]), tmp_path)


def _outcome(*args, **kwargs):
    """The complex ``_patched`` builds, or the NonConvergenceError it raises."""
    try:
        return _patched(*args, **kwargs)
    except NonConvergenceError as exc:
        return exc


@pytest.mark.parametrize("family,eps,n,grid,extent,iterations,kind", [
    # the seed sweep meets an unsolvable quad; the walk converges
    pytest.param("RING", 2.9, 2, 8, 0.625, 0, "UnsolvableQuadError",
                 id="2.9-8-0-UnsolvableQuadError"),
    # the upwind passes reach the change of 3.1e-4 that the marches then
    # repeat: no new minimum in the iterations 2-4; the walk then ends
    # in a cycle at eps 26, the same error as the doubling schedule's
    pytest.param("LINEAR", 26.0, 4, 8, 0.75, 4, "stall", id="26.0-8-4-stall"),
])
def test_failed_direct_attempt_walks_the_schedule_bitwise(tmp_path, caplog, family, eps, n,
                                                          grid, extent, iterations, kind):
    caplog.set_level(logging.INFO, logger="ksurf.amsler")
    auto = _outcome(family, eps, grid, extent, n=n)
    attempts = [r.getMessage() for r in caplog.records if "direct attempt" in r.getMessage()]
    assert attempts == [f"direct attempt at epsilon {eps:g} abandoned after {iterations} "
                        f"iterations ({kind}); walking the schedule"]
    walked = _outcome(family, eps, grid, extent, auto_schedule(eps), n=n)
    if isinstance(auto, NonConvergenceError):
        assert isinstance(walked, NonConvergenceError)
        assert (str(auto), auto.kind, auto.epsilon, auto.changes) == \
            (str(walked), walked.kind, walked.epsilon, walked.changes)
        return
    assert [rec.epsilon for rec in auto.history] == auto_schedule(eps)
    _assert_same_result(auto, walked, tmp_path)


def test_run_stage_seeds_the_sectors_never_swept():
    curv = CurvatureSpec(CurvatureFamily.LINEAR, 1.0)
    cx = single_sector_complex(SectorSpec(u_max=0.5, v_max=0.5, I=6, J=6), curv)
    rec = run_stage(cx, curv, IterationConfig(tol=1e-4))
    assert (len(rec.upwind_changes), rec.iterations) == (3, 1)
    assert np.isfinite(cx.sectors[0].positions).all()


def test_continuation_warm_starts_a_converged_complex():
    cx = _patched("LINEAR", 1.0, 8, 0.5, [1.0])
    assert [(rec.epsilon, len(rec.upwind_changes), rec.iterations) for rec in cx.history] == \
        [(1.0, 3, 1)]
    # every sector was swept from rho of its stored D at this epsilon, so none
    # is seeded or makes an upwind pass: one iteration confirms the fixed point
    continuation_on_complex(cx, CurvatureSpec(CurvatureFamily.LINEAR, 1.0),
                            IterationConfig(epsilon_schedule=[1.0]))
    assert [(rec.epsilon, len(rec.upwind_changes), rec.iterations) for rec in cx.history] == \
        [(1.0, 3, 1), (1.0, 0, 1)]


def test_run_stage_raises_on_stall():
    curv = CurvatureSpec(CurvatureFamily.LINEAR, 1.0)
    cx = single_sector_complex(SectorSpec(u_max=0.5, v_max=0.5, I=5, J=5), curv)
    with pytest.raises(NonConvergenceError, match="^stall: ") as err:
        run_stage(cx, curv, IterationConfig(tol=1e-15, max_iters=2))
    assert err.value.kind == "stall"


def test_two_cycle_is_reported_as_cycle():
    # The middle stage of the last three entries of a sqrt(2) schedule settles
    # into a period-2 orbit: every step moves the surface by 1.1e-3, while
    # x_k and x_{k-2} agree exactly. (The doubling schedule and the automatic
    # one both converge.)
    schedule = [25.0, 50.0 / math.sqrt(2.0), 50.0]
    with pytest.raises(NonConvergenceError, match="^cycle: .*two-step change") as err:
        patch_sectors(symmetric_angles(4), SectorSpec(u_max=1.0, v_max=1.0, I=8, J=8),
                      CurvatureSpec(CurvatureFamily.LINEAR, 50.0),
                      IterationConfig(epsilon_schedule=schedule))
    assert err.value.kind == "cycle"
    assert err.value.epsilon == schedule[1]
    assert min(err.value.changes[-10:]) > 4e-4


def test_growing_change_is_reported_as_divergence():
    # the stored D plus an offset that grows by half with each march, so the
    # swept D runs away and every change is larger than the one before;
    # iterations 4-6 make up the growing tail
    calls = []

    def drifting(cx):
        calls.append(None)
        offset = 0.01 * 1.5 ** len(calls)
        return [np.where(np.isfinite(s.geo_dist), s.geo_dist, d) + offset
                for s, d in zip(cx.sectors, geodesic_provider(cx))]

    curv = CurvatureSpec(CurvatureFamily.LINEAR, 1.0)
    cx = single_sector_complex(SectorSpec(u_max=0.5, v_max=0.5, I=5, J=5), curv)
    with pytest.raises(NonConvergenceError, match="^divergence: ") as err:
        run_stage(cx, curv, IterationConfig(tol=1e-4, max_iters=6), drifting)
    assert err.value.kind == "divergence"
    tail = err.value.changes[-3:]
    assert tail == sorted(tail)


def test_non_finite_distance_is_not_converged(monkeypatch):
    def nan_at_4_4(cx):
        per_sector = geodesic_provider(cx)
        per_sector[0][4, 4] = math.nan
        return per_sector

    monkeypatch.setattr("ksurf.amsler.geodesic_provider", nan_at_4_4)
    with pytest.raises(NonConvergenceError, match=r"sector 0 node \(4, 4\)") as err:
        patch_sectors(symmetric_angles(2), SectorSpec(u_max=1.0, v_max=1.0, I=8, J=8),
                      CurvatureSpec(CurvatureFamily.LINEAR, 1.0),
                      IterationConfig(tol=1e-4, max_iters=100))
    assert err.value.changes == []
    assert err.value.kind == "divergence"


def test_angle_list_validation():
    spec = SectorSpec(u_max=0.5, v_max=0.5, I=4, J=4)
    curv = CurvatureSpec(CurvatureFamily.CONSTANT)
    cfg = IterationConfig(tol=1e-6, max_iters=50)
    with pytest.raises(ValueError, match="even number"):
        patch_sectors([math.pi, math.pi, math.pi], spec, curv, cfg)
    bad_sum = [math.pi / 2 + 1e-6] + [math.pi / 2] * 3
    with pytest.raises(ValueError, match="2 pi|sum"):
        patch_sectors(bad_sum, spec, curv, cfg)
    with pytest.raises(ValueError):
        patch_sectors([-1.0, 1.0, math.pi, math.pi + 1.0 - math.pi], spec, curv, cfg)
    with pytest.raises(ValueError):
        symmetric_angles(1)
    assert symmetric_angles(3) == [math.pi / 3] * 6


def test_patched_parities_alternate(pseudosphere_n2):
    from ksurf import Parity
    for k, s in enumerate(pseudosphere_n2.sectors):
        assert s.parity is (Parity.ODD if k % 2 == 0 else Parity.EVEN)


def test_patched_rays_are_shared_bitwise(pseudosphere_n2):
    cx = pseudosphere_n2
    m = len(cx.sectors)
    for k, s in enumerate(cx.sectors):
        prev = cx.sectors[(k - 1) % m]
        np.testing.assert_array_equal(s.positions[:, 0], prev.positions[0, :])
        np.testing.assert_array_equal(s.normals[:, 0], prev.normals[0, :])


def test_converged_rho_matches_distance_field():
    """After convergence each stored rho is exactly eval_rho of the stored
    distance, because both were written in the same final iteration."""
    curv = CurvatureSpec(CurvatureFamily.LINEAR, 1.0)
    cx = build_patched("LINEAR", 1.0, 2, 0.5, 6)
    for s in cx.sectors:
        np.testing.assert_array_equal(s.rho, eval_rho(curv, s.geo_dist))


def test_geodesic_provider_shapes(linear_n2):
    per_sector = geodesic_provider(linear_n2)
    assert len(per_sector) == len(linear_n2.sectors)
    for s, d in zip(linear_n2.sectors, per_sector):
        assert d.shape == s.rho.shape
        assert (d[s.valid] >= 0.0).all()
    # the origin node carries distance zero
    assert per_sector[0][0, 0] == 0.0
    mesh = triangulate_complex(linear_n2)
    assert fast_march(mesh, [(origin_vertex(linear_n2, mesh), 0.0)]).unreachable == []


def test_validate_patched_n3():
    cx = build_patched("CONSTANT", 0.0, 3, 1.0, 6)
    rep = validate_complex(cx)
    assert rep.passed, [c.detail for c in rep.checks if not c.passed]



def test_sweep_runs_start_at_the_sectors_records_write_into():
    assert sweep_runs(build_patched("LINEAR", 1.0, 2, 0.5, 8)) == [[0, 1, 2, 3]]
    assert sweep_runs(build_surgery_m3()) == [[0, 1, 2, 3], [4, 5, 6]]
    base = [0, 1, 2, 3, 4, 5]
    assert [sweep_runs(cx) for cx in build_branch_chain()] == [
        [base], [base, [6, 7, 8]], [base, [6, 7, 8], [9, 10, 11]]]


def test_continuation_rejects_complex_without_base_rays(tmp_path):
    # an imported complex carries no boundary records, so nothing would
    # rewrite its base rays for a new epsilon
    export_mesh(build_patched("LINEAR", 1.0, 2, 0.5, 6), tmp_path / "c.obj", tmp_path / "c.csv")
    back = import_mesh(tmp_path / "c.obj", tmp_path / "c.csv")
    with pytest.raises(ValueError, match="no base-ray boundary records"):
        continuation_on_complex(back, CurvatureSpec(CurvatureFamily.LINEAR, 2.0),
                                IterationConfig(epsilon_schedule=[2.0]))


def test_every_iteration_is_the_plain_map():
    # the eps 2.9 stage of RING n=2, 8x8, 0.625 from its converged eps 1.45
    # surface takes several iterations with large changes; each of them must
    # be one march and one sweep of the iterate before it, bit for bit
    curv = CurvatureSpec(CurvatureFamily.RING, 2.9)
    cx = build_patched("RING", 1.45, 2, 0.625, 8).copy()
    refresh_boundaries(cx, curv)
    states = []

    def snapshot(cx):
        states.append(cx.copy())
        return geodesic_provider(cx)

    run_stage(cx, curv, IterationConfig(), snapshot)
    iterates = states[1:] + [cx]
    assert len(states) > 2
    for before, after in zip(states, iterates, strict=True):
        step = before.copy()
        try:
            run_stage(step, curv, IterationConfig(max_iters=1))
        except NonConvergenceError:
            pass
        for sa, sb in zip(step.sectors, after.sectors, strict=True):
            for field in ("positions", "normals", "rho", "geo_dist", "valid"):
                assert getattr(sa, field).tobytes() == getattr(sb, field).tobytes(), field


def test_failed_upwind_pass_is_undone_and_the_stage_converges(monkeypatch, caplog):
    # a stage at a new epsilon re-curves every sector of the surgery complex,
    # whose sweep runs are [[0, 1, 2, 3], [4, 5, 6]]. Upwind pass 2 fails at
    # its first run, before it writes anything, or at its second, after the
    # first run's records were written into sectors 4-6 in place; either way
    # the march loop starts from the sectors of pass 1
    curv = CurvatureSpec(CurvatureFamily.LINEAR, 3.0)
    caplog.set_level(logging.INFO, logger="ksurf.amsler")

    def stage(failing_run):
        cx = build_surgery_m3().copy()
        refresh_boundaries(cx, curv)
        firsts, states = [], []

        def failing(grids, rho_fields):
            firsts.append(grids[0].sector_id)
            if firsts.count(0) == 2 and firsts[-1] == failing_run:
                raise UnsolvableQuadError("forced", (failing_run, 0, 0))
            return sweep_sectors(grids, rho_fields)

        def snapshot(cx):
            states.append(cx.copy())
            return geodesic_provider(cx)

        monkeypatch.setattr("ksurf.amsler.sweep_sectors", failing)
        rec = run_stage(cx, curv, IterationConfig(tol=1e-4), snapshot)
        monkeypatch.undo()
        return rec, states[0]

    (rec_a, start_a), (rec_b, start_b) = stage(0), stage(4)
    assert [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("epsilon 3 upwind pass 2")] == [
        f"epsilon 3 upwind pass 2 failed (forced at sector {sid} quad (0,0)); undone"
        for sid in (0, 4)]
    for sa, sb in zip(start_a.sectors, start_b.sectors, strict=True):
        for field in ("positions", "normals", "rho", "geo_dist", "valid"):
            assert getattr(sa, field).tobytes() == getattr(sb, field).tobytes(), field
    assert rec_a == rec_b
    assert len(rec_a.upwind_changes) == 1
    assert rec_a.changes[-1] < 1e-4
