"""The package's public names and the layer functions the benchmark tracer wraps."""
import importlib
import importlib.util
from pathlib import Path

import ksurf

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    """``perfbench/tracer.py`` loaded as a module of its own, without touching sys.path."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_resolves():
    assert Path(ksurf.__file__).resolve().parents[1] == ROOT / "src"
    wraps = {(module, attr) for module, attr, *_ in _tracer().WRAPS}
    assert {("ksurf.amsler", "sweep_sector"), ("ksurf.amsler", "geodesic_provider")} <= wraps
    missing = [f"{module}.{attr}" for module, attr in sorted(wraps)
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ksurf import *", namespace)
    assert [name for name in ksurf.__all__ if name not in namespace] == []
    assert len(set(ksurf.__all__)) == len(ksurf.__all__)


def test_vertex_numbering_is_one_function_under_three_names():
    # the tracer wraps each module's attribute as one layer, ``mesh.dedup``
    assert ksurf.geodesic.global_vertex_ids is ksurf.mesh.global_vertex_ids
    assert ksurf.io.global_vertex_ids is ksurf.mesh.global_vertex_ids
