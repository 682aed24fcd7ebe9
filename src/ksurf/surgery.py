"""Branch-point surgery: replace a sector corner by a fan of new sectors.

Cutting the square {b <= i, j <= I} out of a converged square sector and
gluing m new sectors into the opened corner turns the node (b, b) into a
branch vertex with m + 3 incident quads (the three surviving target quads
plus one corner quad per new sector). m must be odd: sector parities
alternate around the branch vertex, and an even m leaves no consistent
u/v labeling (equivalently, the quad graph loses 2-colorability).

The fan axes are straight rays from r_bb in the cut-corner tangent plane,
splitting the angle theta_b between the two cut boundary curves into m
equal parts. Sector 1 inherits the remaining row (b+a, b) of the target as
its first boundary curve, sector m inherits the column (b, b+c); interior
sectors run between consecutive straight axes. The axes and the inherited
curves are boundary records of the complex whose source is the target (one
``FanAxes``, two ``InheritLink``), so while the enlarged complex
re-converges each sweep of the target rewrites the axes from its current
corner and then re-copies the inherited curves. The input complex is
copied, never modified.
"""
from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .amsler import (
    CurvatureSpec,
    IterationConfig,
    ray_boundary_data,
    refresh_boundaries,
    run_stage,
)
from .mesh import (
    BranchPoint,
    GluingMap,
    InheritLink,
    Parity,
    SectorGrid,
    SurfaceComplex,
    validate_complex,
)
from .vectors import angle_between, rotate_about, unit

logger = logging.getLogger(__name__)

SINGULAR_ANGLE_TOL = 1e-6


@dataclass(frozen=True)
class SurgerySpec:
    """Cut parameters: target sector, cut index b, new sector count m.

    ``spacing`` is the grid step along the new straight axes (defaults to
    the target's local edge length at the cut corner) and ``size`` the
    number of intervals along them (defaults to I - b, matching the excised
    square).
    """

    sector: int
    b: int
    m: int
    spacing: float | None = None
    size: int | None = None

    def __post_init__(self) -> None:
        if self.sector < 0:
            raise ValueError("target sector id must be nonnegative")
        if self.b < 1:
            raise ValueError("cut index b must be at least 1")
        if self.m < 3:
            raise ValueError(f"need at least 3 new sectors, got m={self.m}")
        if self.spacing is not None and not 0.0 < self.spacing < math.inf:
            raise ValueError(f"axis spacing must be positive and finite, got {self.spacing!r}")
        if self.size is not None and self.size < 1:
            raise ValueError("axis grid size must be at least 1")

    def fan_shapes(self, I: int) -> list:
        """(I, J) of the m new sectors, in order, of a cut into an I x I target.

        The first fan is (I - b) x size, the last size x (I - b) and every
        other size x size, where size defaults to I - b.
        """
        side = I - self.b
        size = side if self.size is None else self.size
        return [(side, size)] + [(size, size)] * (self.m - 2) + [(size, side)]


def _corner_frame(s: SectorGrid, b: int):
    r_bb = s.positions[b, b]
    e_row = s.positions[b + 1, b] - r_bb
    e_col = s.positions[b, b + 1] - r_bb
    if float(e_row @ e_row) == 0.0 or float(e_col @ e_col) == 0.0:
        raise ValueError(f"zero-length edge at the cut corner ({b},{b})")
    theta = angle_between(e_row, e_col)
    return r_bb, unit(e_row), unit(e_col), theta


def split_angle_axes(s: SectorGrid, b: int, m: int) -> list:
    """m - 1 unit directions splitting the cut-corner angle into m parts.

    The directions lie in the tangent plane at (b, b), rotated from the
    outgoing row edge toward the outgoing column edge about the vertex
    normal. Warns when the corner angle is within 1e-6 of pi (the cut
    touches a singular edge).
    """
    if not (1 <= b < min(s.I, s.J)):
        raise ValueError(f"cut index b={b} outside 1 <= b < {min(s.I, s.J)}")
    r_bb, e_row, e_col, theta = _corner_frame(s, b)
    if theta >= math.pi - SINGULAR_ANGLE_TOL:
        warnings.warn(
            f"cut corner angle {theta:.6f} is within {SINGULAR_ANGLE_TOL:g} of pi",
            RuntimeWarning, stacklevel=2,
        )
    N = s.normals[b, b]
    sign = 1.0 if float(N @ np.cross(e_row, e_col)) >= 0.0 else -1.0
    return [rotate_about(e_row, sign * N, k * theta / m) for k in range(1, m)]


@dataclass(frozen=True)
class FanAxes:
    """Boundary record: the m - 1 straight split axes of one cut.

    Axis k runs from the target's corner (b, b) with its normal and
    distance, ``size`` intervals of ``spacing``; it is the column of fan k
    and the row of fan k + 1 (1-based), labeled by fan k's parity. The
    target's sweep moves the corner, so ``source`` is the target.
    """

    target: int
    b: int
    fans: tuple
    spacing: float
    size: int

    @property
    def source(self) -> int:
        return self.target

    @property
    def dst_sectors(self) -> tuple:
        return self.fans

    def write(self, cx: SurfaceComplex, curv: CurvatureSpec) -> None:
        t, b = cx.sectors[self.target], self.b
        axes = split_angle_axes(t, b, len(self.fans))
        r_bb, n_bb, d_bb = t.positions[b, b], t.normals[b, b], float(t.geo_dist[b, b])
        for axis, left, right in zip(axes, self.fans, self.fans[1:]):
            label = "v" if cx.sectors[left].parity is Parity.ODD else "u"
            data = ray_boundary_data(r_bb, axis, n_bb, self.spacing, self.size, curv,
                                     d0=d_bb, kind=label)
            cx.sectors[left].write_side("col", data)
            cx.sectors[right].write_side("row", data)


def insert_branch_point(cx: SurfaceComplex, spec: SurgerySpec, curv: CurvatureSpec,
                        cfg: IterationConfig | None = None,
                        _skip_checks: bool = False) -> SurfaceComplex:
    """Insert a branch point into a converged complex and re-converge.

    Returns a new complex; the input is not modified. Raises ValueError for
    even m (no consistent edge labeling exists), QuadError subclasses or
    NonConvergenceError on numerical failure, and GridTooCoarseError when
    the axis spacing is too coarse for the curvature along a fan axis.
    """
    cfg = cfg or IterationConfig()
    if not _skip_checks and spec.m % 2 == 0:
        raise ValueError(
            f"m={spec.m} is even: sector parities around the branch vertex cannot "
            "be labeled consistently (m must be odd)"
        )
    if spec.sector >= len(cx.sectors):
        raise ValueError(f"no sector {spec.sector} in the complex")

    cx = cx.copy()
    target = cx.sectors[spec.sector]
    if target.I != target.J:
        raise ValueError("surgery requires a square target sector")
    if not target.valid.all():
        raise ValueError("surgery target was already truncated")
    if not np.all(np.isfinite(target.positions)):
        raise ValueError("surgery target must be fully generated")

    b = spec.b
    I = target.I
    if not 1 <= b < I:
        raise ValueError(f"cut index b={b} outside 1 <= b < {I}")
    m = spec.m
    shapes = spec.fan_shapes(I)
    m_u, m_ax = shapes[0]

    spacing = spec.spacing
    if spacing is None:
        spacing = float(np.linalg.norm(
            target.positions[b + 1, b] - target.positions[b, b]))
    parities = [target.parity if k % 2 == 1 else target.parity.flipped()
                for k in range(m + 1)]  # parities[k] for new sector k, 1-based

    # Truncate the target. Poison the excised square so stale data cannot leak.
    target.valid[b + 1:, b + 1:] = False
    target.positions[b + 1:, b + 1:] = np.nan
    target.normals[b + 1:, b + 1:] = np.nan
    target.rho[b + 1:, b + 1:] = np.nan
    target.geo_dist[b + 1:, b + 1:] = math.inf

    row_nodes = tuple((b + a, b) for a in range(m_u + 1))
    col_nodes = tuple((b, b + c) for c in range(m_u + 1))
    fan_row = tuple((a, 0) for a in range(m_u + 1))
    fan_col = tuple((0, c) for c in range(m_u + 1))

    new_ids = []
    for k, shape in enumerate(shapes, start=1):
        grid = SectorGrid.empty(*shape, parities[k], len(cx.sectors))
        cx.sectors.append(grid)
        new_ids.append(grid.sector_id)

    # Axes first: node (0, 0) of the first and last fan is also inherited.
    fan_first, fan_last = new_ids[0], new_ids[-1]
    cx.boundaries += [
        FanAxes(spec.sector, b, tuple(new_ids), spacing, m_ax),
        InheritLink(spec.sector, row_nodes, fan_first, "row"),
        InheritLink(spec.sector, col_nodes, fan_last, "col"),
    ]
    cx.gluings.append(GluingMap(
        sector_a=spec.sector, sector_b=fan_first, nodes_a=row_nodes, nodes_b=fan_row))
    cx.gluings.append(GluingMap(
        sector_a=spec.sector, sector_b=fan_last, nodes_a=col_nodes, nodes_b=fan_col))
    for k in range(1, m):
        cx.gluings.append(GluingMap(
            sector_a=new_ids[k - 1], sector_b=new_ids[k],
            nodes_a=[(0, t) for t in range(m_ax + 1)],
            nodes_b=[(t, 0) for t in range(m_ax + 1)],
        ))

    cx.branch_points.append(BranchPoint(
        sector=spec.sector, i=b, j=b,
        incident_sectors=m + 1, expected_quads=m + 3,
    ))

    refresh_boundaries(cx, curv, spec.sector)
    rec = run_stage(cx, curv, cfg)
    cx.history.append(rec)

    if not _skip_checks:
        report = validate_complex(cx)
        if not report.passed:
            raise RuntimeError(f"surgery produced an invalid complex:\n{report}")
    logger.info("inserted branch point at sector %d (%d,%d) with m=%d",
                spec.sector, b, b, m)
    return cx
