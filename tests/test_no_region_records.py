"""No module of the package builds region or face-edge records.

A diagram keeps its twist regions as flat lists and a side graph its
edges as flat lists; the main route, augment and tree validation read
those.  detect_twist_regions and the edges views build TwistRegion and
FaceEdge records on every call, for tests, demos and printing, so the
package calls detect_twist_regions nowhere and builds a record only
inside the view that returns it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "foliar"

# the function a record may be built in: the view that returns it
VIEWS = {"TwistRegion": "detect_twist_regions", "FaceEdge": "edges"}


def record_calls(source):
    """(line, name) of each call of detect_twist_regions, and of each
    TwistRegion or FaceEdge built outside its view."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None
                )
                if name == "detect_twist_regions" or (
                    name in VIEWS and VIEWS[name] != scope
                ):
                    found.append((child.lineno, name))
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_guard_sees_record_calls():
    source = '''
def detect_twist_regions(d):
    return tuple([TwistRegion(i) for i in range(3)])
class Graph:
    @property
    def edges(self):
        return [FaceEdge(*e) for e in self.rows]
    def weights(self):
        return [e.signed for e in self.edges]
def count(d):
    return len(twists.detect_twist_regions(d))
def main(d):
    r = TwistRegion(0)
    def edges():
        return FaceEdge(1, 2, 3, 4)
    return sidegraphs.FaceEdge(0, 1, 2, 3), edges
x = detect_twist_regions
'''
    assert record_calls(source) == [
        (11, "detect_twist_regions"),
        (13, "TwistRegion"),
        (16, "FaceEdge"),
    ]


def test_no_region_records_in_the_package():
    found = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := record_calls(path.read_text()))
    }
    assert found == {}
