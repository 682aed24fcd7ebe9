"""Quad closure solver: frozen root oracles, sign conventions, failure modes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksurf import (
    CurvatureFamily,
    CurvatureSpec,
    DegenerateQuadError,
    Parity,
    SectorGrid,
    SectorSpec,
    UnsolvableQuadError,
    single_sector_complex,
    sweep_sector,
    sweep_sectors,
)
from ksurf.lelieuvre import (
    DEGENERATE,
    PERPENDICULAR,
    SOLVED,
    STEEP,
    closure,
    quad_residual_arrays,
    scaled_normals,
)
from ksurf.mesh import quad_corner_arrays, quad_corner_values

import lelieuvre_oracle as oracle
from conftest import build_patched, build_surgery_m3

Z = np.array([0.0, 0.0, 1.0])
O = np.zeros(3)


def unit(x, y, z):
    v = np.array([float(x), float(y), float(z)])
    return v / np.linalg.norm(v)


def _close(N0, N1, N2, rho0=1.0, rho1=1.0, rho2=1.0, rho12=1.0):
    """(nu12, C, alpha, status) of one quad, from a one-row ``closure`` call."""
    nu = scaled_normals(np.array([N0, N1, N2]), np.array([rho0, rho1, rho2]))
    nu12, C, alpha, status = closure(nu[:1], nu[1:2], nu[2:], np.array([rho0]),
                                     np.array([rho12]))
    return nu12[0], float(C[0]), float(alpha[0]), int(status[0])


def _sweep_quad(r0, r1, r2, N0, N1, N2, rho0=1.0, rho1=1.0, rho2=1.0, rho12=1.0):
    """The sweep of a 1 x 1 ODD sector: f1 = (1, 0) is the u-neighbor, f2 = (0, 1)."""
    s = SectorGrid.empty(1, 1, Parity.ODD)
    rho = np.array([[rho0, rho2], [rho1, rho12]])
    for f, r, N in (((0, 0), r0, N0), ((1, 0), r1, N1), ((0, 1), r2, N2)):
        s.positions[f], s.normals[f], s.rho[f] = r, N, rho[f]
    return sweep_sector(s, rho)


def _constant_sector(spec, sector_id=0):
    """A K = -1 sector with its two boundary rays written and its interior unset."""
    g = single_sector_complex(spec, CurvatureSpec(CurvatureFamily.CONSTANT)).sectors[0]
    g.sector_id = sector_id
    return g


# The closure normal is nu12 = t (nu1 + nu2) - nu0 where t is the root of
# |t w - nu0|^2 = rho12 lying above the parabola vertex <w, nu0>/|w|^2.
# The frozen values below come from a separate bisection root-finder
# (200 halvings on that bracket), not from the closed-form solve under test.
BISECTION_CASES = [
    (
        Z, unit(math.sin(0.2), 0.0, math.cos(0.2)), unit(0.0, math.sin(0.2), math.cos(0.2)),
        1.0, 1.0, 1.0, 1.0,
        0.99979732969236279,
        (0.19862906642067091, 0.19862906642067091, 0.95973589489281119),
    ),
    (
        Z, unit(0.3, 0.1, 0.95), unit(-0.1, 0.25, 0.96),
        1.0, 0.9, 0.8, 0.7,
        0.99346005980682728,
        (0.19326985635160984, 0.31693297002742843, 0.74980014346185686),
    ),
    (
        unit(0.1, -0.2, 0.97), unit(0.4, 0.1, 0.91), unit(-0.2, 0.3, 0.93),
        2.0, 1.5, 1.8, 1.2,
        0.9129111332026334,
        (0.060002711736513115, 0.76443340316569564, 0.78233065049809825),
    ),
]


@pytest.mark.parametrize("N0,N1,N2,rho0,rho1,rho2,rho12,t,nu12", BISECTION_CASES)
def test_closure_matches_bisection_root(N0, N1, N2, rho0, rho1, rho2, rho12, t, nu12):
    nu0 = math.sqrt(rho0) * N0
    nu1 = math.sqrt(rho1) * N1
    nu2 = math.sqrt(rho2) * N2
    rhos = dict(rho0=rho0, rho1=rho1, rho2=rho2, rho12=rho12)
    _, C, _, _ = _close(N0, N1, N2, **rhos)
    out = _sweep_quad(np.zeros(3), np.cross(nu1, nu0), -np.cross(nu2, nu0), N0, N1, N2, **rhos)
    N12 = out.normals[1, 1]
    assert C == pytest.approx(t, rel=1e-12)
    np.testing.assert_allclose(N12 * math.sqrt(rho12), np.array(nu12), atol=2e-14)
    assert float(N12 @ N12) == pytest.approx(1.0, abs=1e-12)


def test_symmetric_tilt_closed_form():
    # Two normals tilted by the same angle a toward x and y: the update has
    # the closed form N12 = (2cs, 2cs, 3c^2 - 1) / (1 + c^2).
    a = 0.2
    c, s = math.cos(a), math.sin(a)
    out = _sweep_quad(O, O, O, Z, unit(s, 0, c), unit(0, s, c))
    expected = np.array([2 * c * s, 2 * c * s, 3 * c * c - 1.0]) / (1.0 + c * c)
    np.testing.assert_allclose(out.normals[1, 1], expected, atol=1e-15)


def test_constant_update_is_householder_reflection():
    N0, N1, N2 = Z, unit(0.2, -0.1, 1.0), unit(-0.15, 0.3, 1.0)
    out = _sweep_quad(O, O, O, N0, N1, N2)
    N12, r12 = out.normals[1, 1], out.positions[1, 1]
    w = N1 + N2
    reflected = 2.0 * float(w @ N0) / float(w @ w) * w - N0
    np.testing.assert_allclose(N12, reflected, atol=1e-15)
    # the one-row closure gives the sweep's normal when rho == 1, and
    # r12 = r2 + N12 x N2
    nu12, _, _, _ = _close(N0, N1, N2)
    np.testing.assert_allclose(nu12, N12, atol=1e-15)
    np.testing.assert_allclose(np.cross(nu12, N2), r12, atol=1e-15)


@given(
    x1=st.floats(-0.35, 0.35), y1=st.floats(-0.35, 0.35),
    x2=st.floats(-0.35, 0.35), y2=st.floats(-0.35, 0.35),
    rho0=st.floats(0.7, 1.4), rho1=st.floats(0.7, 1.4),
    rho2=st.floats(0.7, 1.4), factor=st.floats(0.85, 1.15),
)
@settings(max_examples=60, deadline=None)
def test_route_independence_random(x1, y1, x2, y2, rho0, rho1, rho2, factor):
    """r12 must come out the same along u-then-v and v-then-u."""
    N1, N2 = unit(x1, y1, 1.0), unit(x2, y2, 1.0)
    rho12 = factor * rho0
    nu0 = math.sqrt(rho0) * Z
    nu1 = math.sqrt(rho1) * N1
    nu2 = math.sqrt(rho2) * N2
    r1, r2 = np.cross(nu1, nu0), -np.cross(nu2, nu0)
    out = _sweep_quad(O, r1, r2, Z, N1, N2, rho0=rho0, rho1=rho1, rho2=rho2, rho12=rho12)
    nu12 = math.sqrt(rho12) * out.normals[1, 1]
    via_u_then_v = r1 - np.cross(nu12, nu1)
    via_v_then_u = r2 + np.cross(nu12, nu2)
    np.testing.assert_allclose(via_u_then_v, via_v_then_u, atol=1e-13)
    np.testing.assert_allclose(out.positions[1, 1], via_v_then_u, atol=1e-13)
    assert abs(float(nu12 @ nu12) - rho12) < 1e-12
    assert float(np.linalg.norm(np.cross(nu12 + nu0, nu1 + nu2))) < 1e-12


def test_solved_quad_has_tiny_residuals():
    N0, N1, N2 = Z, unit(0.25, 0.05, 1.0), unit(-0.1, 0.2, 1.0)
    rho0, rho1, rho2, rho12 = 1.0, 1.1, 0.95, 1.05
    nu0 = math.sqrt(rho0) * N0
    nu1 = math.sqrt(rho1) * N1
    nu2 = math.sqrt(rho2) * N2
    out = _sweep_quad(O, np.cross(nu1, nu0), -np.cross(nu2, nu0), N0, N1, N2,
                      rho0=rho0, rho1=rho1, rho2=rho2, rho12=rho12)
    compat, tangency, edge_length, unit_norm = quad_residual_arrays(*quad_corner_arrays(out))
    assert max(tangency[0], edge_length[0], unit_norm[0]) < 1e-13
    assert compat[0] < 1e-13


def test_perpendicular_branch_solves_and_rejects():
    # w = nu1 + nu2 perpendicular to nu0: the quadratic loses its linear
    # term, so rho12 >= rho0 is required.
    s, c = math.sin(0.3), math.cos(0.3)
    N0 = np.array([1.0, 0.0, 0.0])
    N1, N2 = unit(0.0, s, c), unit(0.0, -s, c)
    _, _, alpha, status = _close(N0, N1, N2, rho12=1.2)
    assert math.isnan(alpha) and status == SOLVED
    N12 = _sweep_quad(O, O, O, N0, N1, N2, rho12=1.2).normals[1, 1]
    assert abs(float(N12 @ N12) - 1.0) < 1e-12
    nu12 = math.sqrt(1.2) * N12
    assert abs(float(nu12 @ nu12) - 1.2) < 1e-12
    assert _close(N0, N1, N2, rho12=0.8)[3] == PERPENDICULAR
    with pytest.raises(UnsolvableQuadError):
        _sweep_quad(O, O, O, N0, N1, N2, rho12=0.8)


def test_opposite_normals_are_degenerate():
    s, c = math.sin(0.4), math.cos(0.4)
    normals = (Z, unit(s, 0, c), unit(-s, 0, -c))
    assert _close(*normals)[3] == DEGENERATE
    with pytest.raises(DegenerateQuadError):
        _sweep_quad(O, O, O, *normals)


def test_large_curvature_drop_is_unsolvable():
    a = math.radians(85.0)
    normals = (Z, unit(math.sin(a), 0, math.cos(a)), unit(0, math.sin(a), math.cos(a)))
    assert _close(*normals, rho12=0.1)[3] == STEEP
    with pytest.raises(UnsolvableQuadError, match="curvature variation"):
        _sweep_quad(O, O, O, *normals, rho12=0.1)


def test_input_validation():
    # unit normals and positive rho of finished complexes are checked by
    # validate_complex; the sweep itself rejects a negative rho
    with pytest.raises(ValueError, match="rho_field must be nonnegative"):
        _sweep_quad(O, O, O, Z, unit(0.1, 0, 1), unit(0, 0.1, 1), rho12=-1.0)


def test_scale_normal():
    # nu = sqrt(rho) N with rho = (-K)^(-1/2): K = -1 keeps N, K = -4 halves rho
    N = unit(0.3, -0.2, 1.0)
    for K, want, atol in ((-1.0, N, 0), (-4.0, N / math.sqrt(2.0), 1e-16)):
        rho = np.array([np.float64(-K) ** -0.5])
        np.testing.assert_allclose(scaled_normals(N[None], rho)[0], want, atol=atol)


def test_flat_quad_warns():
    # coincident normals close to N12 = N0 (and zero edge vectors)
    out = _sweep_quad(O, O, O, Z, Z.copy(), Z.copy())
    np.testing.assert_allclose(out.normals[1, 1], Z, atol=0)


def test_sweep_fills_interior_and_keeps_boundary():
    spec = SectorSpec(u_max=0.5, v_max=0.5, I=5, J=4)
    g = _constant_sector(spec)
    before_row = g.positions[0, :].copy()
    before_col = g.positions[:, 0].copy()
    out = sweep_sector(g, np.ones_like(g.rho))
    assert np.isfinite(out.positions).all()
    assert np.array_equal(out.positions[0, :], before_row)
    assert np.array_equal(out.positions[:, 0], before_col)
    _, tangency, edge_length, unit_norm = quad_residual_arrays(*quad_corner_arrays(out))
    assert len(tangency) == out.I * out.J
    worst = max(tangency.max(), edge_length.max(), unit_norm.max())
    assert worst < 1e-12
    # input grid is untouched
    assert np.isnan(g.positions[1:, 1:]).all()


def test_sweep_rejects_bad_inputs():
    spec = SectorSpec(u_max=0.5, v_max=0.5, I=3, J=3)
    g = _constant_sector(spec)
    with pytest.raises(ValueError, match="shape"):
        sweep_sector(g, np.ones((2, 2)))
    empty = SectorGrid.empty(3, 3, Parity.ODD)
    with pytest.raises(ValueError, match="boundary"):
        sweep_sector(empty, np.ones_like(empty.rho))


def test_sweep_annotates_failure_location():
    spec = SectorSpec(u_max=0.25, v_max=0.25, I=2, J=2)
    g = _constant_sector(spec, sector_id=7)
    rho = np.ones_like(g.rho)
    rho[1, 1] = 1e-9
    with pytest.raises(UnsolvableQuadError) as exc:
        sweep_sector(g, rho)
    assert exc.value.location == (7, 0, 0)


@pytest.mark.parametrize("sector_id", [0, 1])
def test_edge_signs_on_converged_sectors(sector_id):
    """u-edges are +nu_next x nu, v-edges -nu_next x nu, in both parities."""
    cx = build_patched("LINEAR", 1.0, 2, 0.5, 6)
    s = cx.sectors[sector_id]
    assert s.valid.all()
    pos = quad_corner_values(s, s.positions)
    nu = quad_corner_values(s, np.sqrt(s.rho)[..., None] * s.normals)
    worst = 0.0
    for a, b, sign in ((0, 1, 1.0), (0, 2, -1.0), (2, 3, 1.0), (1, 3, -1.0)):
        e = pos[b] - pos[a]
        worst = max(worst, float(np.linalg.norm(e - sign * np.cross(nu[b], nu[a]),
                                                axis=-1).max()))
    assert worst < 1e-12


def _sweep_or_error(sweep, s, rho):
    try:
        return sweep(s, rho)
    except (DegenerateQuadError, UnsolvableQuadError) as exc:
        return exc


def _assert_sweep_matches_oracle(s, rho):
    """The array sweep gives the scalar sweep's bits, or its error."""
    got = _sweep_or_error(sweep_sector, s, rho)
    want = _sweep_or_error(oracle.sweep_sector, s, rho)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert (str(got), got.location) == (str(want), want.location)
    else:
        for name in ("positions", "normals", "rho", "geo_dist", "valid"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    return got


def _perturbed_sector(seed, parity, I=7, J=5):
    """Random boundary data: tilted unit normals near z, rho in [0.8, 1.25]."""
    rng = np.random.default_rng(seed)
    s = SectorGrid.empty(I, J, parity, sector_id=seed)
    boundary = s.boundary_mask()
    n = int(boundary.sum())
    s.positions[boundary] = rng.uniform(-1.0, 1.0, (n, 3))
    tilt = np.column_stack([rng.uniform(-0.3, 0.3, (n, 2)), np.ones(n)])
    s.normals[boundary] = tilt / np.linalg.norm(tilt, axis=1)[:, None]
    rho = rng.uniform(0.8, 1.25, s.rho.shape)
    s.rho[boundary] = rho[boundary]
    return s, rho


@pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
def test_sweep_matches_scalar_oracle_on_perturbed_grids(parity):
    solved = 0
    for seed in range(6):
        s, rho = _perturbed_sector(seed, parity)
        solved += not isinstance(_assert_sweep_matches_oracle(s, rho), Exception)
    assert solved == 6


def test_sweep_matches_scalar_oracle_on_truncated_sector():
    cx = build_surgery_m3()
    for s in cx.sectors:
        rho = np.where(s.valid, s.rho, np.nan)
        _assert_sweep_matches_oracle(s, rho)
    assert not cx.sectors[0].valid.all()


def _perpendicular_sector(rho11):
    """Node (1, 1) of this sector has <nu1 + nu2, nu0> = 0 exactly."""
    s, rho = _perturbed_sector(0, Parity.ODD, I=4, J=4)
    a = 0.3
    s.normals[0, 0] = [1.0, 0.0, 0.0]
    s.normals[1, 0] = [0.0, math.sin(a), math.cos(a)]
    s.normals[0, 1] = [0.0, -math.sin(a), math.cos(a)]
    rho[:2, :2] = 1.0
    s.rho[:2, :2] = 1.0
    rho[1, 1] = rho11
    return s, rho


def test_sweep_matches_scalar_oracle_on_the_perpendicular_branch():
    s, rho = _perpendicular_sector(1.2)
    out = _assert_sweep_matches_oracle(s, rho)
    assert np.isfinite(out.positions).all()
    nu0, nu1, nu2 = (math.sqrt(rho[f]) * s.normals[f] for f in ((0, 0), (1, 0), (0, 1)))
    assert float((nu1 + nu2) @ nu0) == 0.0
    # rho may not drop across such a quad: same error, same quad
    s, rho = _perpendicular_sector(0.8)
    err = _assert_sweep_matches_oracle(s, rho)
    assert isinstance(err, UnsolvableQuadError) and err.location == (0, 0, 0)


def test_sweep_reports_lexicographically_first_failure():
    # Quad (1, 0) lies on diagonal 1 + 0, quad (0, 4) on diagonal 0 + 4: a
    # diagonal sweep meets (1, 0) first, an i-major sweep meets (0, 4) first.
    spec = SectorSpec(u_max=0.75, v_max=0.75, I=6, J=6)
    g = _constant_sector(spec, sector_id=3)
    rho = np.ones_like(g.rho)
    for i, j in ((1, 5), (2, 1)):
        one = np.ones_like(g.rho)
        one[i, j] = 1e-9
        with pytest.raises(UnsolvableQuadError) as alone:
            sweep_sector(g, one)
        assert alone.value.location == (3, i - 1, j - 1)
        rho[i, j] = 1e-9
    with pytest.raises(UnsolvableQuadError) as both:
        sweep_sector(g, rho)
    assert both.value.location == (3, 0, 4)
    err = _assert_sweep_matches_oracle(g, rho)
    assert str(err) == str(both.value)


def _surgery_group():
    """The truncated target of ``build_surgery_m3`` and its three fans, with rho fields."""
    cx = build_surgery_m3()
    group = [cx.sectors[sid] for sid in (0, 4, 5, 6)]
    return group, [np.where(s.valid, s.rho, np.nan) for s in group]


def test_group_sweep_matches_scalar_oracle_per_sector():
    group, fields = _surgery_group()
    odd, even = (_perturbed_sector(seed, parity, I=3 + seed, J=8 - seed)
                 for seed, parity in ((1, Parity.ODD), (2, Parity.EVEN)))
    group, fields = group + [odd[0], even[0]], fields + [odd[1], even[1]]
    assert {s.parity for s in group} == {Parity.ODD, Parity.EVEN}
    assert len({s.rho.shape for s in group}) == 4 and not group[0].valid.all()
    for got, s, rho in zip(sweep_sectors(group, fields), group, fields, strict=True):
        want = oracle.sweep_sector(s, rho)
        for name in ("positions", "normals", "rho", "geo_dist", "valid"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert (got.parity, got.sector_id) == (want.parity, want.sector_id)


def test_group_sweep_raises_the_error_of_the_sequential_loop():
    # fan 4 fails at quads (0, 3) and (1, 0), fan 6 at quad (0, 0), which
    # a diagonal order over the whole group would meet first
    group, fields = _surgery_group()
    for k, nodes in ((1, ((1, 4), (2, 1))), (3, ((1, 1),))):
        for node in nodes:
            fields[k][node] = 1e-9
    with pytest.raises(UnsolvableQuadError) as grouped:
        sweep_sectors(group, fields)
    with pytest.raises(UnsolvableQuadError) as sequential:
        for s, rho in zip(group, fields):
            oracle.sweep_sector(s, rho)
    assert grouped.value.location == sequential.value.location == (4, 0, 3)
    assert str(grouped.value) == str(sequential.value)


def test_report_residuals_match_per_quad_oracle():
    cx = build_surgery_m3()
    for s in cx.sectors:
        compat, tangency, edge_length, unit_norm = quad_residual_arrays(*quad_corner_arrays(s))
        corners = oracle.quads(s)
        assert len(corners) == len(compat)
        for k, (i, j) in enumerate(corners):
            quad = oracle.quad_corners(s, i, j)
            assert compat[k] == oracle.compatibility_residual(quad)
            assert (tangency[k], edge_length[k], unit_norm[k]) == oracle.quad_residuals(quad)
