"""Discrete Lelieuvre quad updates and sector sweeps.

Every vertex carries a unit normal N and a rescaled curvature value
rho = (-K)^(-1/2) > 0. The scaled normal nu = sqrt(rho) N satisfies the
discrete Lelieuvre relations along grid edges:

    r_u-next - r = + nu_u-next x nu      (edges along the u direction)
    r_v-next - r = - nu_v-next x nu      (edges along the v direction)

Given three corners of a quad and the target rho at the fourth, the closure
condition (nu12 + nu0) x (nu1 + nu2) = 0 together with |nu12|^2 = rho12
determines nu12 = C w - nu0 with w = nu1 + nu2 and

    C = (1 + sqrt(1 + alpha)) <w, nu0> / |w|^2,
    alpha = |w|^2 (rho12 - rho0) / <w, nu0>^2.

The branch with "+" keeps continuity with the constant-curvature update
(a Householder reflection of N0 across span(N1 + N2)), which is the
rho == const specialization of the same formula.

One array kernel, ``closure``, solves many quads at once, and the sweeps
are its only callers; a single quad is a one-row call, or the sweep of a
1 x 1 sector. Only the normals are implicit, so a sweep walks the
anti-diagonals i + j = d of ``mesh.diagonal_layout`` in increasing d for
the normals alone and solves every node of a diagonal, in all the sectors
it was given, in one call: a node reads only the three normals of its
quad, which lie on diagonals d - 1 and d - 2 of its own sector. The
positions are then explicit: running sums of the Lelieuvre edges
nu12 x nu2 along one grid direction (Bobenko & Pinkall 1996). Norms and
dots are ``np.vecdot`` (the BLAS ``ddot`` of a scalar form, where
``(a * b).sum(-1)`` rounds differently), and ``np.cumsum`` adds in the
order of the sweep, so each node gets the same bits as a node-by-node
sweep would give it.

Residuals of finished quads (``quad_residual_arrays``) are the second array
kernel; the diagnostics report folds them over every quad of a complex.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .mesh import Parity, SectorGrid, diagonal_layout
from .vectors import cross

DEGENERATE_TOL = 1e-12

# closure status per row: solved, or why the quad has no solution
SOLVED, DEGENERATE, STEEP, PERPENDICULAR = 0, 1, 2, 3


class QuadError(Exception):
    """Base class for per-quad solve failures. Carries an optional location."""

    def __init__(self, message: str, location: tuple | None = None):
        self.location = location
        if location is not None:
            message = f"{message} at sector {location[0]} quad ({location[1]},{location[2]})"
        super().__init__(message)


class DegenerateQuadError(QuadError):
    pass


class UnsolvableQuadError(QuadError):
    pass


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(v, v))


def scaled_normals(N: np.ndarray, rho) -> np.ndarray:
    """Lelieuvre normals nu = sqrt(rho) N, row by row."""
    return np.sqrt(rho)[..., None] * N


def closure(nu0: np.ndarray, nu1: np.ndarray, nu2: np.ndarray,
            rho0: np.ndarray, rho12: np.ndarray):
    """Solve nu12 = C (nu1 + nu2) - nu0 with |nu12|^2 = rho12, row by row.

    Takes (n, 3) normals and (n,) rho values; returns (nu12, C, alpha,
    status). alpha is NaN on the branch where <w, nu0> vanishes and the
    quadratic collapses to C^2 |w|^2 = rho12 - rho0. Rows that have no
    solution get a nonzero status (DEGENERATE, STEEP or PERPENDICULAR) and
    NaN in nu12. A NaN input propagates to nu12 and never sets a status by
    itself, as in a scalar solve, where every comparison with NaN fails.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        w = nu1 + nu2
        w2 = np.vecdot(w, w)
        scale = _norm(nu1) + _norm(nu2)
        degenerate = w2 <= (DEGENERATE_TOL * scale) ** 2
        d = np.vecdot(w, nu0)
        generic = np.abs(d) > DEGENERATE_TOL * np.sqrt(w2) * _norm(nu0)
        alpha = w2 * (rho12 - rho0) / (d * d)
        radicand = 1.0 + alpha
        C = (1.0 + np.sqrt(radicand)) * d / w2
        # every row solved on the generic branch: the where-chains below
        # would select exactly these values
        if generic.all() and not degenerate.any() and (radicand >= 0.0).all():
            return C[:, None] * w - nu0, C, alpha, np.zeros(len(C), dtype=int)
        alpha = np.where(generic, alpha, np.nan)
        t = (rho12 - rho0) / w2
        C = np.where(generic, C, np.sqrt(t))
    status = np.where(degenerate, DEGENERATE, np.where(
        generic, np.where(radicand < 0.0, STEEP, SOLVED),
        np.where(t < 0.0, PERPENDICULAR, SOLVED)))
    nu12 = C[:, None] * w - nu0
    nu12[status != SOLVED] = np.nan
    return nu12, C, alpha, status


def _quad_error(status: int, alpha: float, location: tuple) -> QuadError:
    if status == DEGENERATE:
        return DegenerateQuadError("degenerate quad: nu1 + nu2 vanishes", location)
    if status == STEEP:
        return UnsolvableQuadError(
            f"quad unsolvable: curvature variation too large (1 + alpha = {1.0 + alpha:.3e})",
            location,
        )
    return UnsolvableQuadError(
        "quad unsolvable: rho decreases across a quad with <nu1 + nu2, nu0> = 0",
        location,
    )


# corner pairs (a, b) of the four quad edges, corners ordered (f0, f1, f2, f12)
EDGE_A = (0, 0, 1, 2)
EDGE_B = (1, 2, 3, 3)


def quad_residual_arrays(pos: np.ndarray, nrm: np.ndarray, rho: np.ndarray):
    """Residuals of n quads from corner arrays ordered (f0, f1, f2, f12).

    ``pos`` and ``nrm`` have shape (4, n, 3), ``rho`` shape (4, n). Returns,
    each of shape (n,):

    compatibility: | (nu12 + nu0) x (nu1 + nu2) | with nu = sqrt(rho) N;
    tangency: max |<edge, N_endpoint>| over the four edges and both endpoints;
    edge_length: max | |edge| - sqrt(rho_a rho_b) |Na x Nb| | over the edges;
    unit_norm: max | |N| - 1 | over the corners.

    The maxima over a quad's edges and corners skip NaN, as Python's ``max``
    fold from 0.0 does (``np.fmax``); unit_norm is NaN when corner f0's is,
    as a fold that starts from f0 gives.
    """
    nu = scaled_normals(nrm, rho)
    compatibility = _norm(cross(nu[3] + nu[0], nu[1] + nu[2]))
    e = pos[EDGE_B, :] - pos[EDGE_A, :]
    na, nb = nrm[EDGE_A, :], nrm[EDGE_B, :]
    tangency = np.fmax.reduce(np.fmax(np.abs(np.vecdot(e, na)), np.abs(np.vecdot(e, nb))),
                              axis=0, initial=0.0)
    target = np.sqrt(rho[EDGE_A, :] * rho[EDGE_B, :]) * _norm(cross(na, nb))
    edge_length = np.fmax.reduce(np.abs(_norm(e) - target), axis=0, initial=0.0)
    unit = np.abs(_norm(nrm) - 1.0)
    unit_norm = np.where(np.isnan(unit[0]), np.nan, np.fmax.reduce(unit, axis=0))
    return compatibility, tangency, edge_length, unit_norm


def sweep_sector(s: SectorGrid, rho_field: np.ndarray) -> SectorGrid:
    """Fill the sector interior from its first row and column.

    The one-sector case of ``sweep_sectors``, which documents the sweep.
    """
    return sweep_sectors([s], [rho_field])[0]


def sweep_sectors(grids: list, rho_fields: list) -> list:
    """Fill the interiors of independent sectors from their first rows and columns.

    ``rho_fields[k]`` prescribes rho per node of ``grids[k]`` for this
    sweep; all four corner rho values of a quad are read from it, so the
    field must agree with the stored boundary rho on the first row/column.
    Returns new grids; boundary nodes are left untouched. The sectors may
    differ in shape, parity and truncation, and none may read another's
    nodes.

    The normals of the interior nodes with i + j = d of
    ``diagonal_layout(grids)``, over all sectors, are solved in one
    ``closure`` call, in increasing d. A node reads only the three normals
    of its quad, which lie on diagonals d - 1 and d - 2 of its own sector,
    and the kernel works row by row. Then each valid interior node gets
    r12 = r2 + nu12 x nu2 as a running sum from the stored first row (ODD
    sectors, whose f2 is (i - 1, j): along i) or first column (EVEN: along
    j), which ``np.cumsum`` adds in the order of a node-by-node sweep. So
    each node gets the bits a sweep of its sector alone, node by node,
    would give it. The valid nodes of a sector must hold every corner of
    their quads, as a truncation to an excised far corner does; then the
    nodes of a running sum up to a valid node are valid too. Inputs of
    every sector are checked before any is swept.

    A quad without a solution leaves NaN at its node and the sweep goes on;
    then the failure of the first failing sector in list order, at its
    lexicographically first failing quad, is raised, annotated with the
    sector id and quad indices. Every node a quad reads is lexicographically
    smaller than its own, so that is the quad sector-by-sector sweeps in
    i-major order would have stopped at.
    """
    for s, rho_field in zip(grids, rho_fields, strict=True):
        if rho_field.shape != s.rho.shape:
            raise ValueError("rho_field shape does not match the sector grid")
        if not np.all(np.isfinite(s.positions[s.boundary_mask()])):
            raise ValueError(f"sector {s.sector_id} boundary is not initialized")
        if np.any(rho_field[s.valid] < 0.0):
            raise ValueError(f"sector {s.sector_id}: rho_field must be nonnegative")
        if not np.array_equal(s.valid[1:, 1:], s.quad_mask()):
            raise ValueError(f"sector {s.sector_id}: a valid node's quad lacks a corner")

    offsets, quad, odd, cuts = diagonal_layout(grids)
    n12 = quad[3]
    # the read corners f0, f1, f2; ODD sectors step u along i: f1 is
    # corner 10, as in quad_corner_values
    read = np.stack([quad[0], np.where(odd, quad[1], quad[2]), np.where(odd, quad[2], quad[1])])

    # normals of earlier diagonals are read back from nrm
    nrm = np.concatenate([s.normals.reshape(-1, 3) for s in grids])
    rho = np.concatenate([f.ravel() for f in rho_fields])
    root = np.sqrt(rho)
    root_read, r12 = root[read][..., None], root[n12, None]
    rho0, rho12 = rho[read[0]], rho[n12]
    nu12 = np.empty((len(n12), 3))
    failures = []
    for a, b in zip([0, *cuts], [*cuts, len(n12)]):
        nu = root_read[:, a:b] * nrm[read[:, a:b]]
        nu12[a:b], _, alpha, status = closure(nu[0], nu[1], nu[2], rho0[a:b], rho12[a:b])
        nrm[n12[a:b]] = nu12[a:b] / r12[a:b]
        if status.any():
            failures.extend((int(n12[a + k]), int(status[k]), float(alpha[k]))
                            for k in np.flatnonzero(status))
    if failures:
        # flat indices grow with the sector, then i-major inside it
        node, status, alpha = min(failures)
        k = int(np.searchsorted(offsets, node, side="right")) - 1
        i, j = divmod(node - int(offsets[k]), grids[k].J + 1)
        raise _quad_error(status, alpha, (grids[k].sector_id, i - 1, j - 1))

    # r12 - r2 = nu12 x nu2, summed from the first row (ODD, along i) or
    # column (EVEN, along j) in the order the node-by-node sweep adds it
    pos = np.concatenate([s.positions.reshape(-1, 3) for s in grids])
    steps = pos.copy()
    steps[n12] = cross(nu12, root_read[2] * nrm[read[2]])
    for s, a, b in zip(grids, offsets[:-1].tolist(), offsets[1:].tolist()):
        steps[a:b] = np.cumsum(steps[a:b].reshape(s.positions.shape),
                               axis=0 if s.parity is Parity.ODD else 1).reshape(-1, 3)
    pos[n12] = steps[n12]

    rho_out = np.concatenate([s.rho.ravel() for s in grids])
    rho_out[n12] = rho12
    return [replace(s, positions=pos[a:b].reshape(s.positions.shape),
                    normals=nrm[a:b].reshape(s.normals.shape),
                    rho=rho_out[a:b].reshape(s.rho.shape), geo_dist=s.geo_dist.copy(),
                    valid=s.valid.copy())
            for s, a, b in zip(grids, offsets[:-1].tolist(), offsets[1:].tolist())]
