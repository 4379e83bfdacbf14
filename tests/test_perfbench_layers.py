"""The traced benchmark run wraps layers by name; each must still exist."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
