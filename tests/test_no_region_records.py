"""No module of the package builds region or face-edge records.

A diagram keeps its twist regions as flat lists and a face graph its
edges as flat lists; the main route, augment and tree validation read
those.  detect_twist_regions builds TwistRegion records on every call,
for tests, demos and the benchmark, so the package calls it nowhere and
builds a TwistRegion only inside it.  Face-edge records exist only as
the tests' reference, so the package names no FaceEdge at all.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "foliar"


def record_calls(source):
    """(line, name) of each call of detect_twist_regions, of each
    TwistRegion built outside it, and of each FaceEdge named at all."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if "FaceEdge" in (
                getattr(child, "id", None),
                getattr(child, "attr", None),
                getattr(child, "name", None),
            ):
                found.append((child.lineno, "FaceEdge"))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None
                )
                if name == "detect_twist_regions" or (
                    name == "TwistRegion" and scope != "detect_twist_regions"
                ):
                    found.append((child.lineno, name))
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_guard_sees_record_calls():
    source = '''
def detect_twist_regions(d):
    return tuple([TwistRegion(i) for i in range(3)])
class FaceEdge(tuple):
    pass
def count(d):
    return len(twists.detect_twist_regions(d))
def main(d):
    r = TwistRegion(0)
    def FaceEdge():
        return FaceEdge
    return sidegraphs.FaceEdge(0, 1, 2, 3), r
x = detect_twist_regions
'''
    assert record_calls(source) == [
        (4, "FaceEdge"),
        (7, "detect_twist_regions"),
        (9, "TwistRegion"),
        (10, "FaceEdge"),
        (11, "FaceEdge"),
        (12, "FaceEdge"),
    ]


def test_no_region_records_in_the_package():
    found = {
        path.name: calls
        for path in sorted(SRC.glob("*.py"))
        if (calls := record_calls(path.read_text()))
    }
    assert found == {}
