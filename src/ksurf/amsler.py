"""Surface generation with prescribed curvature as a function of distance.

The curvature law K(p) = K_eps(D(p)) couples the surface to the geodesic
distance D from its center, so generation iterates: sweep the sectors for
fixed per-node rho, fast-march D on the result, re-evaluate rho, repeat
until the maximum vertex displacement between sweeps drops below the
tolerance. The seed surface is the sweep for rho at a distance estimate
that needs no march: D at the sector's corner plus the chord across the
flat parallelogram of its first row and column, which is the arc length
along straight rays. Large epsilon targets are reached by continuation:
each stage re-initializes the boundary normals for its epsilon and reuses
the previous stage's surface as the starting iterate.
An automatic schedule first tries the target epsilon alone, on a copy of
the complex, and walks its doubling stages only when that attempt fails
(an unsolvable quad, a failed stage, or a change that stops reaching new
minima in 3 plain iterations); an explicit schedule is walked exactly as
given.

Inside a stage, while the change is large, the distance field that is swept
is the Anderson mix (Walker & Ni 2011) of the stage's last few (D swept,
D marched) pairs rather than the marched D; on the slowly contracting first
stage of a branched RING surface this saves one iteration in eight. A stage
ends only on a plain iteration, the sweep of the marched D, whose change is
below tol, so a converged surface is a fixed point of the unmixed map.

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
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .geodesic import TriMesh, fast_march, triangulate_complex
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
    epsilon: float
    iterations: int
    changes: list


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


def _rho_field(s: SectorGrid, curv: CurvatureSpec, D: np.ndarray) -> np.ndarray:
    """rho of ``D`` at every valid node, the stored rho on the boundary."""
    rho_field = np.full_like(s.rho, np.nan)
    rho_field[s.valid] = eval_rho(curv, D[s.valid])
    boundary = s.boundary_mask()
    rho_field[boundary] = s.rho[boundary]
    return rho_field


@dataclass
class ProviderResult:
    per_sector: list


# Anderson mixing of the interior D in run_stage. MIX_DEPTH: differences of
# the last MIX_DEPTH + 1 iterates. MIX_FLOOR: mixing stops once the previous
# change falls below MIX_FLOOR * tol; mixing down to 10 tol saves one more
# iteration on the branch benchmark (16 -> 15) but makes the warm final stage
# of LINEAR eps 10, n=2, 8x8 slower than a cold start (5 > 4 iterations).
# RANK_TOL: a residual difference whose part outside the span of the earlier
# ones is smaller than this, relative to its norm, is left out of the mix.
MIX_DEPTH = 3
MIX_FLOOR = 30.0
RANK_TOL = 1e-10


def origin_vertex(cx: SurfaceComplex, mesh: TriMesh) -> int:
    """Vertex id of the origin node in a mesh triangulated from ``cx``."""
    ids = mesh.node_ids or []
    sid, i, j = cx.origin
    if 0 <= sid < len(ids) and 0 <= i < ids[sid].shape[0] and 0 <= j < ids[sid].shape[1] \
            and ids[sid][i, j] >= 0:
        return int(ids[sid][i, j])
    raise ValueError(f"origin node {cx.origin} not found in the triangulation")


def geodesic_provider(cx: SurfaceComplex) -> ProviderResult:
    """Fast-march D from the complex origin on the current geometry."""
    mesh = triangulate_complex(cx)
    src = origin_vertex(cx, mesh)
    march = fast_march(mesh, [(src, 0.0)])
    return ProviderResult(per_sector=mesh.node_values(march.d, math.inf))


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
              provider=None, seed_sectors=None, *, _stall_window=None) -> StageRecord:
    """One outer iteration stage at fixed epsilon.

    Optionally seeds the listed sectors with a sweep at the chord distance,
    then alternates fast-marched distance fields with re-sweeps until the
    maximum vertex displacement drops below cfg.tol. Every sweep, seeding
    included, is followed by the boundary records it made stale. The
    re-sweeps go by ``sweep_runs``: each run's rho fields are built after
    the records of the runs before it were written, its sectors are swept
    as one group, and then its records are written in sector order, which
    gives the bits of sweeping and refreshing one sector at a time. A
    non-finite interior distance or swept position raises
    NonConvergenceError, since NaN would otherwise drop out of the
    displacement maximum and read as converged.

    From the third iteration on, and while the previous change is at least
    MIX_FLOOR * tol, the interior D that is swept is the Anderson mix of the
    stage's last MIX_DEPTH + 1 (D swept, D marched) pairs instead of the
    marched D. A mixed sweep that meets a QuadError, a grid too coarse or a
    non-finite position is redone with the marched D, and the pairs are
    dropped. Only a plain iteration, the sweep of the marched D, may end the
    stage, so a converged stage is a fixed point of the plain map to within
    tol. With ``_stall_window`` set, a change that reaches no new minimum
    for that many plain iterations in a row ends the stage as a stall;
    mixed changes neither set nor miss the minimum. A stage that uses up its
    iterations is classified from all its changes, mixed ones included.
    """
    provider = provider or geodesic_provider
    if seed_sectors:
        for sid in seed_sectors:
            s = cx.sectors[sid]
            cx.sectors[sid] = sweep_sector(s, _rho_field(s, curv, _chord_distance(s)))
            refresh_boundaries(cx, curv, sid)

    runs = sweep_runs(cx)
    interiors = [s.valid & ~s.boundary_mask() for s in cx.sectors]
    changes = []
    # (D swept, D marched) of the last iterations, flattened over the interiors
    pairs = collections.deque(maxlen=MIX_DEPTH + 1)
    # interior positions of the last three iterates, to tell a cycle
    recent = collections.deque(maxlen=3)
    best, since_best = math.inf, 0
    for iteration in range(1, cfg.max_iters + 1):
        prov = provider(cx)
        for sid, interior in enumerate(interiors):
            _require_finite(prov.per_sector[sid], interior, "distance", sid, curv, changes)
        marched = [d[interior] for d, interior in zip(prov.per_sector, interiors)]
        if iteration > 1:
            pairs.append(tuple(np.concatenate(fields) for fields in (
                [s.geo_dist[interior] for s, interior in zip(cx.sectors, interiors)], marched)))
        mixed = None
        if len(pairs) > 1 and changes[-1] >= MIX_FLOOR * cfg.tol:
            mixed = _anderson(pairs)
        if mixed is not None:
            before = list(cx.sectors)
            cuts = np.cumsum([len(d) for d in marched])[:-1]
            try:
                with np.errstate(invalid="ignore", divide="ignore"):
                    change = _sweep_runs(cx, curv, runs, interiors, np.split(mixed, cuts),
                                         changes)
            except (QuadError, GridTooCoarseError, NonConvergenceError) as exc:
                logger.info("epsilon %g iteration %d: mixed sweep failed (%s); redone plain",
                            curv.epsilon, iteration, exc)
                # The sides that the mixed runs wrote into the sectors of later
                # runs are written again by the plain sweep before any run reads them.
                cx.sectors[:] = before
                pairs.clear()
                mixed = None
        if mixed is None:
            change = _sweep_runs(cx, curv, runs, interiors, marched, changes)
        recent.append([s.positions[interior] for s, interior in zip(cx.sectors, interiors)])
        changes.append(change)
        logger.info("epsilon %g iteration %d: change %.3e (%s)", curv.epsilon, iteration,
                    change, "plain" if mixed is None else "mixed")
        if mixed is not None:
            # A mixed change below tol says nothing about the plain map: ending
            # on one passed the sqrt(2) schedule of RING eps 8.9, n=4, 12x12,
            # 0.625, whose next plain step still moved 1.1e-3 (tol 1e-4). Nor
            # does it enter the stall window: RING eps 8, n=2, 8x8, 0.5 then
            # falls back, 9 -> 30 iterations.
            continue
        if change < cfg.tol:
            return StageRecord(epsilon=curv.epsilon, iterations=iteration, changes=changes)
        if change < best:
            best, since_best = change, 0
        else:
            since_best += 1
        if since_best == _stall_window:
            raise NonConvergenceError(
                f"stall: no new minimum of the change in {since_best} plain iterations at "
                f"epsilon {curv.epsilon:g} (last change {change:.3e}, best {best:.3e})",
                epsilon=curv.epsilon,
                changes=changes,
                kind="stall",
            )
    kind, detail = _classify_failure(changes, recent, cfg.tol)
    raise NonConvergenceError(
        f"{kind}: no convergence after {cfg.max_iters} iterations at epsilon "
        f"{curv.epsilon:g} (last change {changes[-1]:.3e}{detail})",
        epsilon=curv.epsilon,
        changes=changes,
        kind=kind,
    )


def _sweep_runs(cx: SurfaceComplex, curv: CurvatureSpec, runs: list, interiors: list,
                D: list, changes: list) -> float:
    """Write ``D`` into the interiors, sweep the runs in order; the max displacement."""
    for s, interior, d in zip(cx.sectors, interiors, D):
        s.geo_dist[interior] = d
    change = 0.0
    for run in runs:
        before = [cx.sectors[sid] for sid in run]
        swept = sweep_sectors(before, [_rho_field(s, curv, s.geo_dist) for s in before])
        for sid, s, new in zip(run, before, swept):
            interior = interiors[sid]
            _require_finite(new.positions, interior, "position", sid, curv, changes)
            if interior.any():
                disp = np.linalg.norm(new.positions[interior] - s.positions[interior], axis=-1)
                change = max(change, float(disp.max()))
            cx.sectors[sid] = new
        for sid in run:
            refresh_boundaries(cx, curv, sid)
    return change


def _anderson(pairs) -> np.ndarray | None:
    """The Anderson type-II mix of the (x, g) pairs, oldest first, or None.

    With residuals f = g - x, finds gamma minimizing |f_k - dF gamma| over
    the differences dF of consecutive residuals and returns g_k - dG gamma
    (Walker & Ni 2011, mixing parameter 1). The least-squares problem is
    solved by modified Gram-Schmidt, which skips a difference that lies in
    the span of the earlier ones; None when every difference is skipped.
    """
    xs, gs = zip(*pairs)
    fs = [g - x for x, g in zip(xs, gs)]
    q, kept = [], []
    r = np.zeros((len(fs) - 1,) * 2)
    for k, (a, b) in enumerate(zip(fs, fs[1:])):
        v, j = b - a, len(q)
        scale = math.sqrt(np.vecdot(v, v))
        for p, qp in enumerate(q):
            r[p, j] = np.vecdot(qp, v)
            v = v - r[p, j] * qp
        norm = math.sqrt(np.vecdot(v, v))
        if norm <= RANK_TOL * scale:
            continue
        r[j, j] = norm
        q.append(v / norm)
        kept.append(k)
    if not q:
        return None
    gamma = [float(np.vecdot(qp, fs[-1])) for qp in q]
    for p in range(len(q) - 1, -1, -1):
        gamma[p] = (gamma[p] - sum(r[p, t] * gamma[t] for t in range(p + 1, len(q)))) / r[p, p]
    return gs[-1] - sum(c * (gs[k + 1] - gs[k]) for c, k in zip(gamma, kept))


# changes that must grow in a row to call it divergence, and plain iterations
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


def _direct_attempt(cx: SurfaceComplex, curv: CurvatureSpec, cfg: IterationConfig,
                    provider):
    """Converge a copy of ``cx`` cold at the target epsilon, as a one-entry schedule.

    Returns the converged copy and its StageRecord, or None after one INFO
    line when the stage fails or its change stops reaching new minima for
    DIVERGENCE_WINDOW iterations; ``cx`` itself is never written.
    """
    provider = provider or geodesic_provider
    trial = cx.copy()
    marches = 0

    def counted(c):
        nonlocal marches
        marches += 1
        return provider(c)

    try:
        refresh_boundaries(trial, curv)
        rec = run_stage(trial, curv, cfg, counted, seed_sectors=list(range(len(trial.sectors))),
                        _stall_window=DIVERGENCE_WINDOW)
    except (QuadError, NonConvergenceError) as exc:
        logger.info("direct attempt at epsilon %g abandoned after %d iterations (%s); "
                    "walking the schedule", curv.epsilon, marches,
                    getattr(exc, "kind", type(exc).__name__))
        return None
    return trial, rec


def continuation_on_complex(cx: SurfaceComplex, curv: CurvatureSpec,
                            cfg: IterationConfig, provider=None) -> SurfaceComplex:
    """Run the epsilon schedule on an initialized complex, warm-starting stages.

    Each stage starts by rewriting the base rays for its epsilon, so the
    complex must carry their records (an imported complex has none). An
    automatic schedule (``cfg.epsilon_schedule`` None) of several stages is
    tried as one stage at the target first; only when that attempt fails
    are the stages walked, on the untouched complex, so the result is then
    that of the schedule alone. An abandoned attempt leaves no StageRecord.
    """
    if not any(record.source is None for record in cx.boundaries):
        raise ValueError("the complex has no base-ray boundary records to rewrite "
                         "for each epsilon (an imported complex carries none)")
    schedule = _resolve_schedule(curv, cfg)
    if cfg.epsilon_schedule is None and len(schedule) > 1:
        attempt = _direct_attempt(cx, curv, cfg, provider)
        if attempt is not None:
            trial, rec = attempt
            cx.sectors[:] = trial.sectors
            cx.history.append(rec)
            logger.info("stage epsilon %g converged in %d iterations", curv.epsilon,
                        rec.iterations)
            return cx
    for si, eps in enumerate(schedule):
        curv_s = curv.with_epsilon(eps)
        refresh_boundaries(cx, curv_s)
        seed = list(range(len(cx.sectors))) if si == 0 else None
        rec = run_stage(cx, curv_s, cfg, provider, seed_sectors=seed)
        cx.history.append(rec)
        logger.info("stage epsilon %g converged in %d iterations", eps, rec.iterations)
    return cx


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
                  cfg: IterationConfig | None = None,
                  distance_provider=None) -> SurfaceComplex:
    """Generate a full 2n-sector complex through the epsilon schedule."""
    cfg = cfg or IterationConfig()
    cx = build_patched_complex(angles, spec, curv)
    return continuation_on_complex(cx, curv, cfg, distance_provider)
