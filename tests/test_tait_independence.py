"""The checkerboard route reads no twist region.

tait.py starts from the type II cancellation of the twists module and
keeps its merged graphs in the face-graph type of the sidegraphs
module, whose face_graphs lists the edges of build_tait's view, and
reads nothing else of either: were it to read the regions, the
collapsed graph or the merged normal form, the two routes would agree
by construction and the cross-check would mean nothing.
"""

import ast
import pathlib

TAIT = pathlib.Path(__file__).parent.parent / "src" / "foliar" / "tait.py"

# what tait.py may import from each module of the main route
ALLOWED = {
    "twists": {"reduce_assumption1"},
    "sidegraphs": {"FaceGraph", "face_graphs"},
}
FORBIDDEN = {
    "normalize_assumption2",
    "build_side_graphs",
    "connectivity_report",
    "collapse",
    "flat_regions",
    "detect_twist_regions",
    "normal_form",  # the criterion's memo of the merged normal form
}


def route_leaks(source):
    """(line, name) of each import of the main route's modules beyond
    ALLOWED, and of each use of a FORBIDDEN name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if module in ALLOWED:
                    if alias.name not in ALLOWED[module]:
                        found.append((node.lineno, alias.name))
                elif alias.name in ALLOWED or alias.name in FORBIDDEN:
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.rpartition(".")[2] in ALLOWED:
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_guard_sees_leaks():
    source = '''
from .twists import reduce_assumption1, collapse
from .sidegraphs import FaceGraph, build_side_graphs
from . import twists
import foliar.sidegraphs
from .criterion import normal_form
def route(d):
    g = twists.flat_regions(d)
    return normalize_assumption2(g)
'''
    assert route_leaks(source) == [
        (2, "collapse"),
        (3, "build_side_graphs"),
        (4, "twists"),
        (5, "foliar.sidegraphs"),
        (6, "normal_form"),
        (8, "flat_regions"),
        (9, "normalize_assumption2"),
    ]


def test_tait_reads_no_region():
    assert route_leaks(TAIT.read_text()) == []
