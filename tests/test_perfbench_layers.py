"""The benchmark reaches the library by name; each name must still exist.

The traced run wraps layers by module and path, and the operations call
the package's public names as attributes of the imported module F.  A
name that no longer resolves would not fail the benchmark loudly: the
reference checks swallow every exception, so it would silently drop
checks and move the agreement share.
"""

import ast
import importlib
from pathlib import Path

import foliar

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _layers():
    # compiled from source so nothing is written beside the benchmark
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["LAYERS"]


def test_traced_layers_resolve():
    layers = _layers()
    assert layers
    for module, path in layers:
        obj = importlib.import_module(f"foliar.{module}")
        for part in path.split("."):
            assert hasattr(obj, part), f"foliar.{module}.{path}"
            obj = getattr(obj, part)


def _package_names(path):
    """Every name read as F.<name> in a benchmark file."""
    tree = ast.parse(path.read_text(), str(path))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "F"
    }


def test_benchmark_package_names_resolve():
    names = set()
    for file in ("ops.py", "run.py"):
        names |= _package_names(PERFBENCH / file)
    assert {"check_main", "check_tait", "normalize_assumption2"} <= names
    missing = sorted(n for n in names if not hasattr(foliar, n))
    assert not missing, f"foliar lacks {missing}"
