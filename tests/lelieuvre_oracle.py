"""Scalar reference implementations of the quad closure and the report,
and the smooth surface that the K = -1 nets converge to.

The per-node sweep and the per-quad diagnostics loop are what
``ksurf.lelieuvre`` and ``ksurf.io.build_report`` replaced with array
kernels. They are kept only as oracles: the library must reproduce their
output bit for bit, and raise the same error for the same quad. They read
a quad through its corner indices (``quad_corner_indices``), which
``ksurf.mesh.quad_corner_values`` gathers for all quads at once.
``amsler_angle`` is the Chebyshev angle of the smooth K = -1 surface
through two straight asymptotic lines (Amsler 1955), which no kernel of
the library computes.
"""
import math
from typing import NamedTuple

import numpy as np

from ksurf.amsler import origin_vertex
from ksurf.geodesic import fast_march, triangulate_complex
from ksurf.io import DiagnosticsReport
from ksurf.lelieuvre import DEGENERATE_TOL, DegenerateQuadError, UnsolvableQuadError
from ksurf.mesh import Parity
from ksurf.vectors import angle_between


class Corner(NamedTuple):
    """Copies of one node's data."""

    position: np.ndarray
    normal: np.ndarray
    rho: float


class Residuals(NamedTuple):
    tangency: float
    edge_length: float
    unit_norm: float


def quad_corner_indices(parity, i, j):
    """Grid indices (f0, f1, f2, f12) of the quad with lower corner (i, j).

    f1 is the u-neighbor of f0 and f2 the v-neighbor, so the roles of the
    two adjacent corners swap with sector parity. f12 is always (i+1, j+1).
    """
    f0 = (i, j)
    f12 = (i + 1, j + 1)
    if parity is Parity.ODD:
        f1, f2 = (i + 1, j), (i, j + 1)
    else:
        f1, f2 = (i, j + 1), (i + 1, j)
    return f0, f1, f2, f12


def quad_corners(s, i, j):
    """Corners (f0, f1, f2, f12) of quad (i, j) of sector grid ``s``."""
    return tuple(Corner(s.positions[f].copy(), s.normals[f].copy(), float(s.rho[f]))
                 for f in quad_corner_indices(s.parity, i, j))


def quads(s):
    """(i, j) lower corners of the valid quads of ``s``, in i-major order."""
    return [tuple(q) for q in np.argwhere(s.quad_mask()).tolist()]


def closure(nu0, nu1, nu2, rho0, rho12, location=None):
    """Solve for nu12 = C (nu1 + nu2) - nu0 with |nu12|^2 = rho12; (nu12, C, alpha)."""
    w = nu1 + nu2
    w2 = float(w @ w)
    scale = math.sqrt(float(nu1 @ nu1)) + math.sqrt(float(nu2 @ nu2))
    if w2 <= (DEGENERATE_TOL * scale) ** 2:
        raise DegenerateQuadError("degenerate quad: nu1 + nu2 vanishes", location)
    d = float(w @ nu0)
    norm0 = math.sqrt(float(nu0 @ nu0))
    if abs(d) > DEGENERATE_TOL * math.sqrt(w2) * norm0:
        alpha = w2 * (rho12 - rho0) / (d * d)
        radicand = 1.0 + alpha
        if radicand < 0.0:
            raise UnsolvableQuadError(
                f"quad unsolvable: curvature variation too large (1 + alpha = {radicand:.3e})",
                location,
            )
        C = (1.0 + math.sqrt(radicand)) * d / w2
    else:
        t = (rho12 - rho0) / w2
        if t < 0.0:
            raise UnsolvableQuadError(
                "quad unsolvable: rho decreases across a quad with <nu1 + nu2, nu0> = 0",
                location,
            )
        C = math.sqrt(t)
        alpha = math.nan
    return C * w - nu0, C, alpha


def sweep_sector(s, rho_field):
    """Node-by-node sweep in i-major order; raises at the first failing quad."""
    out = s.copy()
    pos = out.positions
    nrm = out.normals
    for i in range(1, s.I + 1):
        for j in range(1, s.J + 1):
            if not s.valid[i, j]:
                continue
            f0, f1, f2, _ = quad_corner_indices(s.parity, i - 1, j - 1)
            rho0 = float(rho_field[f0])
            rho12 = float(rho_field[i, j])
            nu0 = math.sqrt(rho0) * nrm[f0]
            nu1 = math.sqrt(float(rho_field[f1])) * nrm[f1]
            nu2 = math.sqrt(float(rho_field[f2])) * nrm[f2]
            nu12, _, _ = closure(nu0, nu1, nu2, rho0, rho12,
                                 location=(s.sector_id, i - 1, j - 1))
            pos[i, j] = pos[f2] + np.cross(nu12, nu2)
            nrm[i, j] = nu12 / math.sqrt(rho12)
            out.rho[i, j] = rho12
    return out


def compatibility_residual(quad):
    nu0, nu1, nu2, nu12 = [math.sqrt(v.rho) * v.normal for v in quad]
    return float(np.linalg.norm(np.cross(nu12 + nu0, nu1 + nu2)))


def quad_residuals(quad):
    f0, f1, f2, f12 = quad
    tangency = 0.0
    edge_length = 0.0
    for a, b in [(f0, f1), (f0, f2), (f1, f12), (f2, f12)]:
        e = b.position - a.position
        tangency = max(tangency, abs(float(e @ a.normal)), abs(float(e @ b.normal)))
        target = math.sqrt(a.rho * b.rho) * float(np.linalg.norm(np.cross(a.normal, b.normal)))
        edge_length = max(edge_length, abs(float(np.linalg.norm(e)) - target))
    unit_norm = max(abs(float(np.linalg.norm(v.normal)) - 1.0) for v in quad)
    return Residuals(tangency=tangency, edge_length=edge_length, unit_norm=unit_norm)


def build_report(cx):
    """The diagnostics report folded quad by quad and node by node."""
    max_compat = max_tan = max_edge = max_unit = 0.0
    margin = math.inf
    n_quads = 0
    for s in cx.sectors:
        for (qi, qj) in quads(s):
            n_quads += 1
            quad = quad_corners(s, qi, qj)
            max_compat = max(max_compat, compatibility_residual(quad))
            res = quad_residuals(quad)
            max_tan = max(max_tan, res.tangency)
            max_edge = max(max_edge, res.edge_length)
            max_unit = max(max_unit, res.unit_norm)
            f0, f1, f2, f12 = quad
            for center, a, b in ((f0, f1, f2), (f12, f1, f2), (f1, f0, f12), (f2, f0, f12)):
                ang = angle_between(a.position - center.position,
                                    b.position - center.position)
                margin = min(margin, math.pi - ang)

    # a NaN gap stays NaN: a non-finite glued node is not coincident
    pos_max = nrm_max = 0.0
    for g in cx.gluings:
        sa, sb = cx.sectors[g.sector_a], cx.sectors[g.sector_b]
        for (ia, ja), (ib, jb) in zip(g.nodes_a, g.nodes_b):
            pos_max = float(np.maximum(pos_max, np.linalg.norm(
                sa.positions[ia, ja] - sb.positions[ib, jb])))
            nrm_max = float(np.maximum(nrm_max, np.linalg.norm(
                sa.normals[ia, ja] - sb.normals[ib, jb])))

    mesh = triangulate_complex(cx)
    ids = mesh.node_values(np.arange(mesh.n_vertices), -1)
    try:
        origin_vid = origin_vertex(cx, mesh)
    except ValueError:
        origin_vid = None
    arc_err = math.nan
    if origin_vid is not None:
        march = fast_march(mesh, [(origin_vid, 0.0)])
        arc_err = 0.0
        for sid, s in enumerate(cx.sectors):
            for side in ("row", "col"):
                if ids[sid][0, 0] != origin_vid:
                    continue
                arc = 0.0
                count = s.I if side == "row" else s.J
                for t in range(1, count + 1):
                    a = (t - 1, 0) if side == "row" else (0, t - 1)
                    b = (t, 0) if side == "row" else (0, t)
                    arc += float(np.linalg.norm(s.positions[b] - s.positions[a]))
                    arc_err = max(arc_err, abs(float(march.d[ids[sid][b]]) - arc))

    history = [{"epsilon": rec.epsilon, "iterations": rec.iterations,
                "changes": list(rec.changes), "upwind_changes": list(rec.upwind_changes)}
               for rec in cx.history]
    return DiagnosticsReport(
        max_compatibility=max_compat, max_tangency=max_tan, max_edge_length=max_edge,
        max_unit_norm=max_unit, gluing_pos_max=pos_max, gluing_normal_max=nrm_max,
        boundary_arc_err=arc_err, obtuse_count=mesh.obtuse_count,
        singular_margin=margin if margin < math.inf else math.nan,
        change_history=history, n_vertices=mesh.n_vertices, n_quads=n_quads,
    )


def amsler_angle(omega0, s_values, ds=1e-3):
    """f(s) of the Amsler surface at each of ``s_values`` (all >= 0), by RK4.

    Two straight asymptotic lines at angle ``omega0`` carry a unique K = -1
    surface, whose Chebyshev angle is omega(u, v) = f(uv) with
    s f'' + f' = sin f, f(0) = omega0 and f'(0) = sin omega0: the
    sine-Gordon equation omega_uv = sin omega in s = uv. At s = 0 the
    equation gives f'' = cos(f) f' / 2. Steps of at most ``ds`` walk the
    sorted values, so each is reached by RK4 itself, not by interpolation.
    """
    def slope(s, f, g):
        return g, ((math.sin(f) - g) / s if s > 0.0 else 0.5 * math.cos(f) * g)

    s_values = np.asarray(s_values, dtype=float)
    out = np.empty(s_values.shape)
    s, f, g = 0.0, omega0, math.sin(omega0)
    for k in np.argsort(s_values, axis=None).tolist():
        target = float(s_values.flat[k])
        steps = max(1, math.ceil((target - s) / ds))
        h = (target - s) / steps
        for _ in range(steps):
            f1, g1 = slope(s, f, g)
            f2, g2 = slope(s + h / 2, f + h / 2 * f1, g + h / 2 * g1)
            f3, g3 = slope(s + h / 2, f + h / 2 * f2, g + h / 2 * g2)
            f4, g4 = slope(s + h, f + h * f3, g + h * g3)
            f += h / 6 * (f1 + 2 * f2 + 2 * f3 + f4)
            g += h / 6 * (g1 + 2 * g2 + 2 * g3 + g4)
            s += h
        out.flat[k] = f
    return out
