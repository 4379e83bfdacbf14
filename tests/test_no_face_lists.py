"""No module of the package reads a map's faces view.

A traced map keeps its faces as the flat corners, start and face_at
lists, and a face's degree is a difference of offsets.  The faces
property of diagrams and collapsed graphs builds one list per face on
every read; it is there for tests and demos, so the package itself
must not read it on the way to a verdict.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "foliar"


def face_reads(source):
    """Line numbers of .faces reads."""
    return sorted(
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute)
        and n.attr == "faces"
        and isinstance(n.ctx, ast.Load)
    )


def test_guard_sees_face_reads():
    source = '''
class Plane:
    faces = property(face_lists)
bigons = [f for f in d.faces if len(f) == 2]
n = len(self.cg.faces)
degree = d.start[1] - d.start[0]
def f(plane):
    return plane.faces[0], getattr(plane, "start")
plane.faces = None
'''
    assert face_reads(source) == [4, 5, 8]


def test_no_faces_view_read_in_the_package():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := face_reads(path.read_text()))
    }
    assert found == {}
