"""Shared fixtures and cached builders for the test suite.

Converged complexes are expensive relative to the assertions run against
them, so they are built once per session and shared. Tests must treat the
cached objects as read-only; anything that rewrites sector data has to work
on a copy (``SurfaceComplex.copy``; surgery copies its input itself).
"""
import functools
import logging

import pytest

from ksurf import (
    CurvatureFamily,
    CurvatureSpec,
    IterationConfig,
    SectorSpec,
    SurgerySpec,
    auto_schedule,
    insert_branch_point,
    patch_sectors,
    symmetric_angles,
)

logging.getLogger("ksurf").setLevel(logging.WARNING)


@functools.lru_cache(maxsize=None)
def build_patched(family: str, epsilon: float, n: int, extent: float, grid: int,
                  tol: float = 1e-4, max_iters: int = 200):
    """Converged 2n-sector complex, cached for the whole session."""
    curv = CurvatureSpec(family=CurvatureFamily[family], epsilon=epsilon)
    spec = SectorSpec(u_max=extent, v_max=extent, I=grid, J=grid)
    cfg = IterationConfig(tol=tol, max_iters=max_iters,
                          epsilon_schedule=auto_schedule(epsilon))
    return patch_sectors(symmetric_angles(n), spec, curv, cfg)


@functools.lru_cache(maxsize=None)
def build_surgery_m3():
    """LINEAR eps 1, 4 sectors of 8x8, with an m=3 cut of sector 0 at b=4."""
    base = build_patched("LINEAR", 1.0, 2, 0.5, 8, tol=1e-6)
    return insert_branch_point(
        base, SurgerySpec(sector=0, b=4, m=3), CurvatureSpec(CurvatureFamily.LINEAR, 1.0),
        IterationConfig(tol=1e-6, max_iters=200, epsilon_schedule=[1.0]))


@functools.lru_cache(maxsize=None)
def build_branch_chain():
    """RING eps 2 on six 12x12 sectors, then two m=3 cuts as in the benchmark's
    branch workload: one at the corner of sector 0, one into its first fan.

    Returns the complex before, between and after the cuts.
    """
    curv = CurvatureSpec(CurvatureFamily.RING, 2.0)
    cfg = IterationConfig(tol=1e-4, max_iters=100, epsilon_schedule=auto_schedule(2.0))
    spec = SectorSpec(u_max=0.625, v_max=0.625, I=12, J=12)
    chain = [patch_sectors(symmetric_angles(3), spec, curv, cfg)]
    for cut in (SurgerySpec(sector=0, b=6, m=3), SurgerySpec(sector=6, b=3, m=3)):
        chain.append(insert_branch_point(chain[-1], cut, curv, cfg))
    return tuple(chain)


# (family, epsilon, n, grid, extent, surgery cuts (sector, b), all m = 3) of
# the benchmark's three workloads
WORKLOADS = {
    "grow": ("LINEAR", 10.0, 2, 28, 1.0, ()),
    "fine": ("LINEAR", 1.0, 2, 32, 1.0, ()),
    "branch": ("RING", 2.0, 3, 18, 0.625, ((0, 9), (6, 4))),
}


@functools.lru_cache(maxsize=None)
def build_workload(name: str):
    """The final complex of a benchmark workload: automatic schedule, tol 1e-4."""
    family, eps, n, grid, extent, cuts = WORKLOADS[name]
    curv = CurvatureSpec(CurvatureFamily[family], eps)
    cfg = IterationConfig(tol=1e-4, max_iters=100)
    cx = patch_sectors(symmetric_angles(n), SectorSpec(u_max=extent, v_max=extent, I=grid, J=grid),
                       curv, cfg)
    for sector, b in cuts:
        cx = insert_branch_point(cx, SurgerySpec(sector=sector, b=b, m=3), curv, cfg)
    return cx


@pytest.fixture(scope="session")
def pseudosphere_n2():
    """Constant-curvature 4-sector complex, 12x12 per sector."""
    return build_patched("CONSTANT", 0.0, 2, 1.0, 12)


@pytest.fixture(scope="session")
def linear_n2():
    """Linearly growing curvature, epsilon 1, 4 sectors, 12x12."""
    return build_patched("LINEAR", 1.0, 2, 1.0, 12)
