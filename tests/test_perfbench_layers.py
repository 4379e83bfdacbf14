"""The benchmark reaches the library by name; each name must still exist.

The traced run wraps layers by module and path, and the operations call
the package's public names as attributes of the imported module F.  A
name that no longer resolves would not fail the benchmark loudly: the
reference checks swallow every exception, so it would silently drop
checks and move the agreement share.  A layer that resolves can still
count nothing, when no call passes through it; the construction layer
is pinned below.
"""

import ast
import importlib
from pathlib import Path

import foliar
from foliar import (
    LinkDiagram,
    braid_to_diagram,
    generate_diagram,
    make_pretzel_pd,
    parse_braid,
    parse_pd,
    parse_tree,
    reduce_assumption1,
)

from conftest import FIG8

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


def test_diagram_construction_is_its_own_init():
    # the traced run wraps LinkDiagram.__init__ on the class; one
    # inherited from object would be called by no way in
    assert "__init__" in vars(LinkDiagram)


def test_every_way_in_builds_once_through_init(monkeypatch):
    """Each way in calls LinkDiagram.__init__ once per diagram it builds,
    so the traced run's diagram.LinkDiagram.calls, crossings_built and
    builds_per_op count every build.

    twists.detect_per_cancellation reads 0 until the traced run wraps
    twists.flat_regions, which is a change to the benchmark, so it is
    not asserted here.
    """
    fig8 = parse_pd(FIG8)
    mixed = braid_to_diagram(parse_braid("s1^4 s1^-1"))
    built = []
    init = LinkDiagram.__init__

    def counting(self, *args):  # wrapped on the class, as Tracer.install does
        init(self, *args)
        built.append(len(self))

    monkeypatch.setattr(LinkDiagram, "__init__", counting)
    ways_in = {
        "parse_pd": lambda: parse_pd(FIG8),
        "from_json": lambda: LinkDiagram.from_json(fig8.to_json()),
        "from_darts": lambda: LinkDiagram.from_darts(
            list(fig8.alpha), list(fig8.axes)
        ),
        "mirror": fig8.mirror,
        "braid_to_diagram": lambda: braid_to_diagram(parse_braid("s1^3")),
        "generate_diagram": lambda: generate_diagram(parse_tree("(2 (3))")),
        "make_pretzel_pd": lambda: make_pretzel_pd([3, -3, 3]),
        # one round cancels a pair of s1^4 s1^-1 and builds once
        "reduce_assumption1": lambda: reduce_assumption1(mixed),
    }
    for name, build in ways_in.items():
        built.clear()
        d = build()
        assert built == [len(d)], name
