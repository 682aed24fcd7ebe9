"""The package's public names and the layer functions the benchmark tracer wraps."""
import ast
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


def test_every_module_uses_the_names_it_imports():
    # a name bound by an import and never read; __init__ re-exports __all__
    unused = []
    for path in sorted(Path(ksurf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(ksurf.__all__)
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    assert unused == []


def _defs_and_reads() -> tuple:
    """The module-level functions and classes of the package, as (module, name),
    and every name that some module of the package reads."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(ksurf.__file__).parent.glob("*.py"))}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    defs = [(stem, node.name) for stem, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return defs, read


def test_every_private_helper_has_a_caller():
    # a module-level _function or _Class that no module of the package reads
    defs, read = _defs_and_reads()
    dead = [f"{stem}.{name}" for stem, name in defs
            if name.startswith("_") and name not in read]
    assert dead == []


def test_every_public_definition_is_read_or_exported():
    # library code that only tests and oracles call belongs with them
    defs, read = _defs_and_reads()
    unused = [f"{stem}.{name}" for stem, name in defs
              if not name.startswith("_") and name not in read and name not in ksurf.__all__]
    assert unused == []


def test_no_module_rebinds_a_module_global():
    # state of a mesh or a run lives on its object, not in module globals
    rebound = [f"{path.stem}:{node.lineno} {', '.join(node.names)}"
               for path in sorted(Path(ksurf.__file__).parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Global)]
    assert rebound == []
