"""Discrete surfaces of prescribed negative Gaussian curvature.

The package builds immersions quad by quad from Lelieuvre normals, marches
geodesic distance over the triangulated result, and couples the two in a
fixed-point loop so the curvature can be prescribed as a function of
distance from a center vertex. Sectors patch into closed fans around the
center and branch points of higher valence can be cut in afterwards.
"""
from .amsler import (
    CurvatureFamily,
    CurvatureSpec,
    GridTooCoarseError,
    IterationConfig,
    NonConvergenceError,
    SectorSpec,
    StageRecord,
    auto_schedule,
    continuation_on_complex,
    eval_curvature,
    eval_rho,
    geodesic_provider,
    origin_vertex,
    patch_sectors,
    ray_boundary_data,
    run_stage,
    single_sector_complex,
    symmetric_angles,
)
from .geodesic import (
    MarchResult,
    TriMesh,
    dijkstra_bound,
    fast_march,
    triangulate_complex,
    trimesh_from_quads,
    unfold_candidate,
)
from .io import (
    ConfigError,
    DiagnosticsReport,
    RunConfig,
    build_report,
    export_mesh,
    import_mesh,
    parse_config,
    trimesh_from_obj,
    write_report,
)
from .lelieuvre import (
    DegenerateQuadError,
    QuadError,
    UnsolvableQuadError,
    sweep_sector,
    sweep_sectors,
)
from .mesh import (
    BranchPoint,
    GluingMap,
    InheritLink,
    Parity,
    SectorGrid,
    SurfaceComplex,
    ValidationReport,
    global_vertex_ids,
    validate_complex,
)
from .surgery import SurgerySpec, insert_branch_point, split_angle_axes

__version__ = "0.1.0"

__all__ = [
    "BranchPoint",
    "ConfigError",
    "CurvatureFamily",
    "CurvatureSpec",
    "DegenerateQuadError",
    "DiagnosticsReport",
    "GluingMap",
    "GridTooCoarseError",
    "InheritLink",
    "IterationConfig",
    "MarchResult",
    "NonConvergenceError",
    "Parity",
    "QuadError",
    "RunConfig",
    "SectorGrid",
    "SectorSpec",
    "StageRecord",
    "SurfaceComplex",
    "SurgerySpec",
    "TriMesh",
    "UnsolvableQuadError",
    "ValidationReport",
    "auto_schedule",
    "build_report",
    "continuation_on_complex",
    "dijkstra_bound",
    "eval_curvature",
    "eval_rho",
    "export_mesh",
    "fast_march",
    "geodesic_provider",
    "global_vertex_ids",
    "import_mesh",
    "insert_branch_point",
    "origin_vertex",
    "parse_config",
    "patch_sectors",
    "ray_boundary_data",
    "run_stage",
    "single_sector_complex",
    "split_angle_axes",
    "sweep_sector",
    "sweep_sectors",
    "symmetric_angles",
    "triangulate_complex",
    "trimesh_from_obj",
    "trimesh_from_quads",
    "unfold_candidate",
    "validate_complex",
    "write_report",
]
