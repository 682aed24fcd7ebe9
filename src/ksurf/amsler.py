"""Surface generation with prescribed curvature as a function of distance.

The curvature law K(p) = K_eps(D(p)) couples the surface to the geodesic
distance D from its center, so generation iterates: sweep the sectors for
fixed per-node rho, fast-march D on the result, re-evaluate rho, repeat
until the maximum vertex displacement between sweeps drops below the
tolerance. A sector that was never swept (an interior position is not
finite: a new complex, or the new fans of a cut) is seeded by the sweep for
rho at a distance estimate that needs no march: D at the sector's corner
plus the chord across the flat parallelogram of its first row and column,
which is the arc length along straight rays, lowered where a node of that
row or column stores a smaller D (the marched row or column that a side fan
of a cut inherits) to that D plus the straight distance from the node.
Before the first march, the seeded sectors and those whose rho is not rho
of their stored D at the stage's epsilon converge on a distance that needs
no heap either: one upwind pass over the anti-diagonals of the swept
surface (``upwind_distance``), then a sweep at its rho, repeated while the
change falls. Any other swept sector is the starting iterate as it stands.
A march that moves the surface by tol or more resumes these passes with
the march's correction added to the upwind distance; the next march keeps
them only when its change is below that of the march before, and otherwise
the stage goes back and marches plainly.
Large epsilon targets are reached by continuation: each stage
re-initializes the boundary normals for its epsilon and reuses the previous
stage's surface as the starting iterate. An automatic schedule first tries
the target epsilon alone, on a copy of the complex, and walks its doubling
stages only when that attempt fails (an unsolvable quad, a failed stage, or
a change that stops reaching new minima in 3 iterations); an explicit
schedule is walked exactly as given.

Boundary data along a straight ray with direction s and spacing h:
positions march evenly, D is exact arc length, and normals follow

    N_{l+1} = Rot(delta_l; a) N_l,  delta_l = arcsin(h / sqrt(rho_l rho_{l+1})),

with rotation axis a = -s for u-rays and a = +s for v-rays, which makes the
signed Lelieuvre edge relations hold exactly along the boundary.
"""
from __future__ import annotations

import collections
import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .geodesic import TriMesh, fast_march, triangulate_complex, upwind_distance
from .lelieuvre import QuadError, sweep_sector, sweep_sectors
from .mesh import (
    BranchPoint,
    GluingMap,
    Parity,
    SectorGrid,
    SurfaceComplex,
)
from .vectors import Vec3, rotate_about, unit, vec

logger = logging.getLogger(__name__)

Z_AXIS = vec(0.0, 0.0, 1.0)


class GridTooCoarseError(Exception):
    """Grid spacing exceeds what the prescribed curvature admits."""


class NonConvergenceError(Exception):
    """The fixed point was not reached; ``kind`` says how it failed.

    "cycle": the iterate returns to where it was two iterations back
    (max |x_k - x_{k-2}| < tol) while each step still moves it by tol or
    more. "divergence": the change grew over the last iterations, or the
    iterate is no longer finite. "stall": any other failure to converge.
    """

    def __init__(self, message: str, epsilon: float, changes: list, kind: str = "stall"):
        super().__init__(message)
        self.epsilon = epsilon
        self.changes = changes
        self.kind = kind


class CurvatureFamily(Enum):
    CONSTANT = "CONSTANT"
    LINEAR = "LINEAR"
    RING = "RING"


@dataclass(frozen=True)
class CurvatureSpec:
    """Negative curvature as a function of geodesic distance.

    CONSTANT: K = -1 everywhere (epsilon is ignored).
    LINEAR:   K = -(1 + eps * D).
    RING:     K = -1 for D <= ring_radius, else
              K = -(1 + eps * (ring_gain * (D - ring_radius))^2).
    """

    family: CurvatureFamily
    epsilon: float = 0.0
    ring_radius: float = 0.5
    ring_gain: float = 20.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon!r}")
        if not (0.0 < self.ring_radius < math.inf and 0.0 < self.ring_gain < math.inf):
            raise ValueError("ring parameters must be positive and finite, got "
                             f"ring_radius={self.ring_radius!r}, ring_gain={self.ring_gain!r}")

    def with_epsilon(self, eps: float) -> "CurvatureSpec":
        return replace(self, epsilon=eps)


def eval_curvature(spec: CurvatureSpec, D):
    """K at distance D; accepts scalars or arrays."""
    D = np.asarray(D, dtype=float)
    if spec.family is CurvatureFamily.CONSTANT:
        K = np.full_like(D, -1.0)
    elif spec.family is CurvatureFamily.LINEAR:
        K = -(1.0 + spec.epsilon * D)
    else:
        bump = spec.ring_gain * (D - spec.ring_radius)
        K = np.where(D <= spec.ring_radius, -1.0, -(1.0 + spec.epsilon * bump * bump))
    return float(K) if K.ndim == 0 else K


def eval_rho(spec: CurvatureSpec, D):
    """rho = (-K)^(-1/2) at distance D."""
    K = eval_curvature(spec, D)
    return np.asarray(-K, dtype=float) ** -0.5 if np.ndim(K) else float((-K) ** -0.5)


def auto_schedule(target: float) -> list:
    """Geometric continuation schedule with ratio <= 2 ending at target."""
    if target <= 1.0:
        return [target]
    halvings = max(0, math.floor(math.log2(target)))
    return [target / 2.0 ** e for e in range(halvings, -1, -1)]


@dataclass(frozen=True)
class SectorSpec:
    """Geometry of one principal sector: two rays in the z = 0 plane."""

    phi1: float = math.pi / 2.0
    u_max: float = 1.0
    v_max: float = 1.0
    I: int = 20
    J: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.phi1 < math.pi:
            raise ValueError(f"phi1 must lie in (0, pi), got {self.phi1!r}")
        if not (0.0 < self.u_max < math.inf and 0.0 < self.v_max < math.inf):
            raise ValueError("ray extents must be positive and finite, got "
                             f"u_max={self.u_max!r}, v_max={self.v_max!r}")
        if self.I < 1 or self.J < 1:
            raise ValueError(f"grid sizes must be at least 1, got I={self.I}, J={self.J}")

    def directions(self) -> tuple:
        s_a = vec(1.0, 0.0, 0.0)
        s_b = vec(math.cos(self.phi1), math.sin(self.phi1), 0.0)
        return s_a, s_b


@dataclass(frozen=True)
class IterationConfig:
    tol: float = 1e-4
    max_iters: int = 100
    epsilon_schedule: tuple | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.epsilon_schedule is not None:
            sched = tuple(self.epsilon_schedule)
            if not sched:
                raise ValueError("epsilon schedule must be nonempty")
            for eps in sched:
                if not 0.0 <= eps < math.inf:
                    raise ValueError(
                        f"epsilon schedule entries must be nonnegative and finite, got {eps!r}")
            if any(b < a for a, b in zip(sched, sched[1:])):
                raise ValueError("epsilon schedule must be nondecreasing")
            object.__setattr__(self, "epsilon_schedule", sched)


@dataclass
class StageRecord:
    """One stage: its epsilon, the change of each outer iteration and of
    each upwind pass, the anchored passes after the marches included, in
    the order they ran."""

    epsilon: float
    iterations: int
    changes: list
    upwind_changes: list = field(default_factory=list)


@dataclass
class RayData:
    positions: np.ndarray
    normals: np.ndarray
    rho: np.ndarray
    D: np.ndarray


def ray_boundary_data(start: Vec3, direction: Vec3, normal0: Vec3, spacing: float,
                      count: int, curv: CurvatureSpec, d0: float = 0.0,
                      kind: str = "u") -> RayData:
    """Boundary data along a straight ray of ``count`` intervals.

    ``kind`` selects the asymptotic label of the ray, which fixes the
    rotation axis sign (-direction for u, +direction for v). The start
    normal must be perpendicular to the ray.
    """
    if kind not in ("u", "v"):
        raise ValueError(f"ray kind must be 'u' or 'v', got {kind!r}")
    if spacing <= 0.0:
        raise ValueError("ray spacing must be positive")
    direction = unit(direction)
    if abs(float(direction @ normal0)) > 1e-8:
        raise ValueError("start normal must be perpendicular to the ray direction")

    D = d0 + spacing * np.arange(count + 1)
    rho = eval_rho(curv, D)
    args = spacing / np.sqrt(rho[:-1] * rho[1:])
    if np.any(args > 1.0):
        worst = float(args.max())
        raise GridTooCoarseError(
            f"grid too coarse for prescribed curvature: spacing {spacing:g} needs "
            f"arcsin({worst:g})"
        )
    deltas = np.arcsin(args)

    positions = start[None, :] + spacing * np.arange(count + 1)[:, None] * direction[None, :]
    axis = -direction if kind == "u" else direction
    normals = np.zeros((count + 1, 3))
    normals[0] = normal0
    for l in range(count):
        normals[l + 1] = rotate_about(normals[l], axis, float(deltas[l]))
    return RayData(positions=positions, normals=normals, rho=np.asarray(rho), D=np.asarray(D))


@dataclass(frozen=True)
class RaySpec:
    """Boundary record: a straight ray from the origin with normal (0, 0, 1).

    ``count`` intervals of ``spacing`` along ``direction``, labeled ``kind``
    ("u" or "v"), written into every ``(sector, "row" | "col")`` side of
    ``sides``. It depends on the curvature alone, so ``source`` is None.
    """

    direction: tuple
    spacing: float
    count: int
    kind: str
    sides: tuple

    source = None

    @property
    def dst_sectors(self) -> tuple:
        return tuple(sid for sid, _ in self.sides)

    def write(self, cx: SurfaceComplex, curv: CurvatureSpec) -> None:
        data = ray_boundary_data(vec(0, 0, 0), vec(*self.direction), Z_AXIS, self.spacing,
                                 self.count, curv, 0.0, self.kind)
        for sid, side in self.sides:
            cx.sectors[sid].write_side(side, data)


def refresh_boundaries(cx: SurfaceComplex, curv: CurvatureSpec, swept: int | None = None) -> None:
    """Write the boundary records of ``cx`` whose source is ``swept``, in order.

    With ``swept=None`` these are the records that depend on the curvature
    alone (the base rays); with a sector id, the records that sector's sweep
    has made stale.
    """
    for record in cx.boundaries:
        if record.source == swept:
            record.write(cx, curv)


def sweep_runs(cx: SurfaceComplex) -> list:
    """Sector ids in index order, split into runs that are swept as one group.

    A new run starts at any sector that a boundary record of an earlier
    sector of the current run writes into, so within a run no sweep makes
    the input of another stale. A complex without surgery is one run; each
    cut starts a run at its first fan.
    """
    runs, stale = [], set()
    for sid in range(len(cx.sectors)):
        if not runs or sid in stale:
            runs.append([])
            stale = set()
        runs[-1].append(sid)
        for record in cx.boundaries:
            if record.source == sid:
                stale.update(record.dst_sectors)
    return runs


def _chord_distance(s: SectorGrid) -> np.ndarray:
    """D(0, 0) + |(x(i, 0) - x(0, 0)) + (x(0, j) - x(0, 0))| at every node.

    The distance across the flat parallelogram spanned by the first row and
    column; on a straight boundary ray it is the arc length.
    """
    x = s.positions
    span = (x[:, :1] - x[0, 0]) + (x[:1, :] - x[0, 0])
    return s.geo_dist[0, 0] + np.linalg.norm(span, axis=-1)


def _seed_distance(s: SectorGrid) -> np.ndarray:
    """The chord, lowered through the shortcuts of the first row and column.

    With x̂(i, j) = x(0, 0) + span(i, j), the parallelogram point of the
    chord, every node off the first row and column gets
    D̂(i, j) = min(chord(i, j), min_b D_b + |x̂(i, j) - x_b|) over the nodes b
    of the first row and column whose stored D_b lies below the chord; by the
    triangle inequality no other node can lower it. The first row and column
    keep the chord, since a sweep reads their stored rho. Straight sides
    from the corner offer no shortcut, so on base sectors and middle fans
    this is the chord, bit for bit; a side fan reaches its inherited, marched
    row or column directly instead of through the branch vertex.
    """
    D = _chord_distance(s)
    x = s.positions
    span = (x[1:, :1] - x[0, 0]) + (x[:1, 1:] - x[0, 0])
    for side in (np.s_[1:, 0], np.s_[0, 1:]):
        shortcut = s.geo_dist[side] < D[side]
        for d_b, x_b in zip(s.geo_dist[side][shortcut], x[side][shortcut]):
            np.minimum(D[1:, 1:], d_b + np.linalg.norm(span - (x_b - x[0, 0]), axis=-1),
                       out=D[1:, 1:])
    return D


def _rho_field(s: SectorGrid, curv: CurvatureSpec, D: np.ndarray) -> np.ndarray:
    """rho of ``D`` at every valid node, the stored rho on the boundary."""
    rho_field = np.full_like(s.rho, np.nan)
    rho_field[s.valid] = eval_rho(curv, D[s.valid])
    boundary = s.boundary_mask()
    rho_field[boundary] = s.rho[boundary]
    return rho_field


def origin_vertex(cx: SurfaceComplex, mesh: TriMesh) -> int:
    """Vertex id of the origin node in a mesh triangulated from ``cx``."""
    ids = mesh.node_ids or []
    sid, i, j = cx.origin
    if 0 <= sid < len(ids) and 0 <= i < ids[sid].shape[0] and 0 <= j < ids[sid].shape[1] \
            and ids[sid][i, j] >= 0:
        return int(ids[sid][i, j])
    raise ValueError(f"origin node {cx.origin} not found in the triangulation")


def geodesic_provider(cx: SurfaceComplex) -> list:
    """Fast-march D from the complex origin on the current geometry, per sector."""
    mesh = triangulate_complex(cx)
    src = origin_vertex(cx, mesh)
    march = fast_march(mesh, [(src, 0.0)])
    return mesh.node_values(march.d, math.inf)


def _require_finite(values: np.ndarray, mask: np.ndarray, what: str, sid: int,
                    curv: CurvatureSpec, changes: list) -> None:
    """Raise NonConvergenceError naming the first masked node that is not finite."""
    finite = np.isfinite(values).reshape(mask.shape + (-1,)).all(axis=-1)
    bad = np.argwhere(mask & ~finite)
    if len(bad):
        i, j = (int(x) for x in bad[0])
        raise NonConvergenceError(
            f"divergence: non-finite {what} at sector {sid} node ({i}, {j}) in iteration "
            f"{len(changes) + 1} at epsilon {curv.epsilon:g}",
            epsilon=curv.epsilon,
            changes=changes,
            kind="divergence",
        )


def run_stage(cx: SurfaceComplex, curv: CurvatureSpec, cfg: IterationConfig,
              provider=None, *, _stall_window=None) -> StageRecord:
    """One outer iteration stage at fixed epsilon.

    First seeds, in index order, every sector that was never swept (an
    interior position is not finite) with a sweep at ``_seed_distance``, the
    chord lowered through the stored D of the first row and column. The
    seeded sectors and every sector whose interior rho is not ``eval_rho``
    of its stored D (a stage at a new epsilon) then make the upwind passes
    of ``_upwind_passes``; a sector swept at this epsilon before is
    warm-started as it stands. Then the stage alternates fast-marched
    distance fields with re-sweeps until the maximum vertex displacement
    drops below cfg.tol. Every sweep, seeding included, is followed by the
    boundary records it made stale. The passes and the re-sweeps go by
    ``sweep_runs``: each run's rho fields are built after the records of the
    runs before it were written, its sectors are swept as one group, and
    then its records are written in sector order, which gives the bits of
    sweeping and refreshing one sector at a time. A non-finite interior
    distance or swept position raises NonConvergenceError, since NaN would
    otherwise drop out of the displacement maximum and read as converged.

    A march that moves the surface by tol or more resumes the passes over
    the same sectors, anchored to it: their D is the upwind D plus the
    march's D minus the upwind D of the last pass before the march, a
    defect correction with the march as the accurate operator. The next
    march certifies them: when its change is not below that of the last
    kept march, or its march or sweep raises, the stage goes back to the
    iterate of the last kept march (the sectors are put back and every
    record written again) and makes plain marches, each one march and one
    sweep at the marched D, for the rest of the stage. Every march counts
    as an iteration; one that raised records the change of the last kept
    march, the iterate it returns to. The stage ends only on a march whose
    change is below tol, so a converged stage is a fixed point of the plain
    map to within tol. With ``_stall_window`` set, a change that reaches no
    new minimum for that many iterations in a row ends the stage as a
    stall. A stage that uses up its iterations is classified from its
    changes.
    """
    provider = provider or geodesic_provider
    interiors = [s.valid & ~s.boundary_mask() for s in cx.sectors]
    seeded = [sid for sid, (s, interior) in enumerate(zip(cx.sectors, interiors))
              if not np.isfinite(s.positions[interior]).all()]
    for sid in seeded:
        s = cx.sectors[sid]
        cx.sectors[sid] = sweep_sector(s, _rho_field(s, curv, _seed_distance(s)))
        refresh_boundaries(cx, curv, sid)
    stale = [sid for sid, (s, interior) in enumerate(zip(cx.sectors, interiors))
             if sid in seeded
             or not np.array_equal(s.rho[interior], eval_rho(curv, s.geo_dist[interior]))]

    runs = sweep_runs(cx)
    stale_runs = [r for r in ([sid for sid in run if sid in stale] for run in runs) if r]
    upwind_changes = []
    upwind = _upwind_passes(cx, curv, cfg, stale_runs, interiors, upwind_changes)
    changes = []
    # interior positions of the last three iterates, to tell a cycle
    recent = collections.deque(maxlen=3)
    best, since_best = math.inf, 0
    # (sectors, change) of the last kept march while anchored passes await
    # the next march's certificate
    kept = None
    for iteration in range(1, cfg.max_iters + 1):
        failure = None
        try:
            per_sector = provider(cx)
            for sid, interior in enumerate(interiors):
                _require_finite(per_sector[sid], interior, "distance", sid, curv, changes)
            marched = [d[interior] for d, interior in zip(per_sector, interiors)]
            change = _sweep_runs(cx, curv, runs, interiors,
                                 lambda run: [marched[sid] for sid in run], changes)
        except (QuadError, GridTooCoarseError, NonConvergenceError) as exc:
            if kept is None:
                raise
            change, failure = kept[1], exc
        if kept is not None and (failure or not change < kept[1]):
            logger.info("epsilon %g iteration %d: %s against %.3e of the last kept march; "
                        "back to its iterate, plain marches from here", curv.epsilon, iteration,
                        f"failed ({failure})" if failure else f"change {change:.3e}", kept[1])
            cx.sectors[:] = kept[0]
            for sid in range(len(cx.sectors)):
                refresh_boundaries(cx, curv, sid)
            kept = upwind = None
        else:
            logger.info("epsilon %g iteration %d: change %.3e", curv.epsilon, iteration, change)
        recent.append([s.positions[interior] for s, interior in zip(cx.sectors, interiors)])
        changes.append(change)
        if change < cfg.tol:
            return StageRecord(epsilon=curv.epsilon, iterations=iteration, changes=changes,
                               upwind_changes=upwind_changes)
        if change < best:
            best, since_best = change, 0
        else:
            since_best += 1
        if since_best == _stall_window:
            raise NonConvergenceError(
                f"stall: no new minimum of the change in {since_best} iterations at "
                f"epsilon {curv.epsilon:g} (last change {change:.3e}, best {best:.3e})",
                epsilon=curv.epsilon,
                changes=changes,
                kind="stall",
            )
        if upwind is not None:
            before = list(cx.sectors)
            offset = {sid: marched[sid] - d for sid, d in upwind.items()}
            upwind = _upwind_passes(cx, curv, cfg, stale_runs, interiors, upwind_changes,
                                    offset)
            kept = (before, change) if upwind is not None else None
    kind, detail = _classify_failure(changes, recent, cfg.tol)
    raise NonConvergenceError(
        f"{kind}: no convergence after {cfg.max_iters} iterations at epsilon "
        f"{curv.epsilon:g} (last change {changes[-1]:.3e}{detail})",
        epsilon=curv.epsilon,
        changes=changes,
        kind=kind,
    )


def _sweep_runs(cx: SurfaceComplex, curv: CurvatureSpec, runs: list, interiors: list,
                distance, changes: list) -> float:
    """Sweep the runs in order; the max displacement.

    Each run's sectors are swept at the interior D that ``distance(run)``
    returns once the records of the runs before it are written, and the
    swept sectors store it. The sectors they replace are not modified.
    """
    change = 0.0
    for run in runs:
        before = [cx.sectors[sid] for sid in run]
        fields = [s.geo_dist.copy() for s in before]
        for sid, D, d in zip(run, fields, distance(run)):
            D[interiors[sid]] = d
        swept = sweep_sectors(before, [_rho_field(s, curv, D) for s, D in zip(before, fields)])
        for sid, s, new, D in zip(run, before, swept, fields):
            interior = interiors[sid]
            new.geo_dist = D
            _require_finite(new.positions, interior, "position", sid, curv, changes)
            if interior.any():
                disp = np.linalg.norm(new.positions[interior] - s.positions[interior], axis=-1)
                change = max(change, float(disp.max()))
            cx.sectors[sid] = new
        for sid in run:
            refresh_boundaries(cx, curv, sid)
    return change


def _upwind_passes(cx: SurfaceComplex, curv: CurvatureSpec, cfg: IterationConfig, runs: list,
                   interiors: list, changes: list, offset: dict | None = None) -> dict | None:
    """Sweep the sectors of ``runs`` at the upwind distance until it settles.

    A pass sweeps each run at ``upwind_distance`` over it, taken once the
    records of the runs before it are written, plus ``offset``: per sector,
    the interior D to add (an anchored pass), or None. Each pass appends its
    change to ``changes``. Passes stop on a change below cfg.tol, on a
    change that is not below the one before it in this call, or after
    cfg.max_iters passes. A pass that meets a QuadError, a grid too coarse
    or a non-finite position is undone: the sectors from before it are put
    back and their records written again, since a run's records write into
    the sectors of later runs in place. Returns the interior upwind D of the
    last kept pass, without the offset, per sector; None when no pass was
    kept.
    """
    kind = "upwind" if offset is None else "anchored"
    start, last = len(changes), None
    while runs and len(changes) - start < cfg.max_iters:
        upwind = {}

        def distance(run):
            grids = [cx.sectors[sid] for sid in run]
            for sid, d in zip(run, upwind_distance(grids)):
                upwind[sid] = d[interiors[sid]]
            return [upwind[sid] if offset is None else upwind[sid] + offset[sid] for sid in run]

        before = list(cx.sectors)
        try:
            with np.errstate(invalid="ignore", divide="ignore"):
                change = _sweep_runs(cx, curv, runs, interiors, distance, changes)
        except (QuadError, GridTooCoarseError, NonConvergenceError) as exc:
            logger.info("epsilon %g %s pass %d failed (%s); undone", curv.epsilon, kind,
                        len(changes) + 1, exc)
            cx.sectors[:] = before
            for sid in (sid for run in runs for sid in run):
                refresh_boundaries(cx, curv, sid)
            break
        changes.append(change)
        last = upwind
        logger.info("epsilon %g %s pass %d: change %.3e", curv.epsilon, kind, len(changes), change)
        if change < cfg.tol or len(changes) - start > 1 and not change < changes[-2]:
            break
    return last


# changes that must grow in a row to call it divergence, and iterations
# without a new minimum of the change that end a direct attempt at the target
# epsilon
DIVERGENCE_WINDOW = 3


def _classify_failure(changes: list, recent, tol: float) -> tuple:
    """(kind, message detail) of a stage that used up its iterations."""
    if len(recent) == 3:
        gap = max((float(np.linalg.norm(a - b, axis=-1).max(initial=0.0))
                   for a, b in zip(recent[-1], recent[0])), default=0.0)
        if gap < tol:
            return "cycle", f", two-step change {gap:.3e}"
    tail = changes[-DIVERGENCE_WINDOW:]
    if len(tail) == DIVERGENCE_WINDOW and all(a < b for a, b in zip(tail, tail[1:])):
        return "divergence", ""
    return "stall", ""


def _resolve_schedule(curv: CurvatureSpec, cfg: IterationConfig) -> list:
    if cfg.epsilon_schedule is not None:
        sched = list(cfg.epsilon_schedule)
        if sched[-1] != curv.epsilon:
            raise ValueError(
                f"epsilon schedule must end at epsilon ({curv.epsilon!r}), got {sched[-1]!r}")
        return sched
    return auto_schedule(curv.epsilon)


def _walk(cx: SurfaceComplex, curv: CurvatureSpec, cfg: IterationConfig, schedule: list,
          provider=None, stall_window=None) -> SurfaceComplex:
    """Run one stage per schedule entry on ``cx``, each warm-starting the next."""
    for eps in schedule:
        curv_s = curv.with_epsilon(eps)
        refresh_boundaries(cx, curv_s)
        rec = run_stage(cx, curv_s, cfg, provider, _stall_window=stall_window)
        cx.history.append(rec)
        logger.info("stage epsilon %g converged in %d iterations", eps, rec.iterations)
    return cx


def continuation_on_complex(cx: SurfaceComplex, curv: CurvatureSpec,
                            cfg: IterationConfig) -> SurfaceComplex:
    """Run the epsilon schedule on an initialized complex, warm-starting stages.

    Each stage starts by rewriting the base rays for its epsilon, so the
    complex must carry their records (an imported complex has none). The
    first stage seeds only the sectors that were never swept, so a complex
    that has converged before is warm-started too. An automatic schedule
    (``cfg.epsilon_schedule`` None) of several stages is first tried as the
    one-stage schedule at the target, on a copy of ``cx``; it is abandoned
    with one INFO line when the stage fails or its change stops reaching
    new minima for DIVERGENCE_WINDOW iterations. Only then are the
    stages walked, on the untouched complex, so the result is that of the
    schedule alone. An abandoned attempt leaves no StageRecord.
    """
    if not any(record.source is None for record in cx.boundaries):
        raise ValueError("the complex has no base-ray boundary records to rewrite "
                         "for each epsilon (an imported complex carries none)")
    schedule = _resolve_schedule(curv, cfg)
    if cfg.epsilon_schedule is None and len(schedule) > 1:
        trial, marches = cx.copy(), 0

        def counted(c):
            nonlocal marches
            marches += 1
            return geodesic_provider(c)

        try:
            _walk(trial, curv, cfg, [curv.epsilon], counted, DIVERGENCE_WINDOW)
        except (QuadError, NonConvergenceError) as exc:
            logger.info("direct attempt at epsilon %g abandoned after %d iterations (%s); "
                        "walking the schedule", curv.epsilon, marches,
                        getattr(exc, "kind", type(exc).__name__))
        else:
            cx.sectors[:] = trial.sectors
            cx.history[:] = trial.history
            return cx
    return _walk(cx, curv, cfg, schedule)


def single_sector_complex(spec: SectorSpec, curv: CurvatureSpec) -> SurfaceComplex:
    """One ODD sector whose row and column are the rays s_a (u) and s_b (v).

    Both rays start at the origin with normal (0, 0, 1) and carry exact arc
    length as D; interior nodes are left unset.
    """
    s_a, s_b = spec.directions()
    cx = SurfaceComplex(
        sectors=[SectorGrid.empty(spec.I, spec.J, Parity.ODD, 0)],
        boundaries=[RaySpec(tuple(s_a), spec.u_max / spec.I, spec.I, "u", ((0, "row"),)),
                    RaySpec(tuple(s_b), spec.v_max / spec.J, spec.J, "v", ((0, "col"),))],
    )
    refresh_boundaries(cx, curv)
    return cx


def symmetric_angles(n: int) -> list:
    """2n equal sector angles pi / n."""
    if n < 2:
        raise ValueError(f"n must be at least 2 (4 sectors), got {n}")
    return [math.pi / n] * (2 * n)


def _validate_angles(angles) -> list:
    angles = [float(a) for a in angles]
    if len(angles) < 4 or len(angles) % 2 != 0:
        raise ValueError(
            f"need an even number of at least 4 sector angles, got {len(angles)}"
        )
    for a in angles:
        if not 0.0 < a < math.pi:
            raise ValueError(f"sector angles must lie in (0, pi), got {a!r}")
    total = sum(angles)
    if abs(total - 2.0 * math.pi) > 1e-12:
        raise ValueError(f"sector angles must sum to 2*pi, got {total!r}")
    return angles


def build_patched_complex(angles, spec: SectorSpec, curv: CurvatureSpec) -> SurfaceComplex:
    """2n sectors sharing boundary rays around a common center.

    Ray k sits at the cumulative angle of the preceding sectors; rays with
    even index (0-based) carry u, odd rays carry v, and sector parities
    alternate starting from ODD. Each ray's boundary data is computed once
    and written into both adjacent sectors (the row of sector k and the
    column of sector k - 1), so gluing coincidence is exact.
    """
    angles = _validate_angles(angles)
    m = len(angles)

    sectors = []
    rays = []
    for k in range(m):
        if k % 2 == 0:
            sectors.append(SectorGrid.empty(spec.I, spec.J, Parity.ODD, k))
            spacing, count, kind = spec.u_max / spec.I, spec.I, "u"
        else:
            sectors.append(SectorGrid.empty(spec.J, spec.I, Parity.EVEN, k))
            spacing, count, kind = spec.v_max / spec.J, spec.J, "v"
        phi = sum(angles[:k])
        rays.append(RaySpec((math.cos(phi), math.sin(phi), 0.0), spacing, count, kind,
                            ((k, "row"), ((k - 1) % m, "col"))))

    cx = SurfaceComplex(sectors=sectors, origin=(0, 0, 0), boundaries=rays)
    refresh_boundaries(cx, curv)

    for k in range(m):
        prev = (k - 1) % m
        count = (spec.I if k % 2 == 0 else spec.J) + 1
        cx.gluings.append(GluingMap(
            sector_a=prev,
            sector_b=k,
            nodes_a=[(0, t) for t in range(count)],
            nodes_b=[(t, 0) for t in range(count)],
        ))

    if m != 4:
        cx.branch_points.append(BranchPoint(
            sector=0, i=0, j=0, incident_sectors=m, expected_quads=m,
        ))
    return cx


def patch_sectors(angles, spec: SectorSpec, curv: CurvatureSpec,
                  cfg: IterationConfig | None = None) -> SurfaceComplex:
    """Generate a full 2n-sector complex through the epsilon schedule."""
    cfg = cfg or IterationConfig()
    cx = build_patched_complex(angles, spec, curv)
    return continuation_on_complex(cx, curv, cfg)
