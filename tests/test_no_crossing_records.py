"""No module reads a crossings attribute off a diagram.

A diagram is its flat alpha and axes lists and keeps no record per
crossing; its arc labels are read back through to_pd or to_json.  A
twist region keeps its own crossings field, a tuple of crossing
indices, and the package reads it through the names r and region only,
so those two receivers are allowed.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "foliar"
REGION_NAMES = {"r", "region"}


def crossing_reads(source):
    """Line numbers of .crossings reads on anything but a region name."""
    return sorted(
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute)
        and n.attr == "crossings"
        and isinstance(n.ctx, ast.Load)
        and not (isinstance(n.value, ast.Name) and n.value.id in REGION_NAMES)
    )


def test_guard_sees_crossing_reads():
    source = '''
axes = [c.under_axis for c in d.crossings]
n = len(self.d.crossings)
first = r.crossings[0]
for c in region.crossings:
    pass
def f(diagram):
    return getattr(diagram, "axes"), diagram.crossings[0].slots
rows = [x.crossings for x in regions]
'''
    assert crossing_reads(source) == [2, 3, 8, 9]


def test_no_crossings_read_in_the_package():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := crossing_reads(path.read_text()))
    }
    assert found == {}
