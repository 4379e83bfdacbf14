"""errors.read_int is the one place that turns input text into an int.

Every reader of PD codes, braid words, trees, slopes and --strands
takes an integer as decimal digits, with a leading - where a sign is
allowed, and names one beyond the interpreter's digit limit by its
head and length.  Where
text reaches int() directly the rule drifts: int() also takes +, _
and spaces.  Only the bulk label decoders of diagram.py, which read
every label in one call, catch the digit limit themselves.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "foliar"

# the functions allowed to use _overlong outside errors.py
BULK_CATCHES = {("diagram.py", "parse_pd"), ("diagram.py", "from_json")}


def int_readers(source):
    """(what, function, line) of each int(...) call and each use of
    _overlong, by the innermost function holding it (None at module
    level)."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "int"
        ):
            found.append(("int", fn, node.lineno))
        if (
            isinstance(node, ast.Name) and node.id == "_overlong"
            or isinstance(node, ast.Attribute) and node.attr == "_overlong"
        ):
            found.append(("_overlong", fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), None)
    return found


def test_guard_sees_int_calls_and_overlong():
    source = '''
from .errors import _overlong
a = int("3")
b = isinstance(a, int)
def f(text):
    try:
        return [int(t) for t in text.split()]
    except ValueError:
        raise MalformedToken._overlong(text)
def g(text):
    raise _overlong(MalformedToken, text)
'''
    assert int_readers(source) == [
        ("int", None, 3), ("int", "f", 7), ("_overlong", "f", 9),
        ("_overlong", "g", 11),
    ]


def test_only_errors_reads_an_int():
    found = [
        (what, (path.name, fn), line)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "errors.py"
        for what, fn, line in int_readers(path.read_text())
    ]
    assert [
        f for f in found if f[0] == "int" or f[1] not in BULK_CATCHES
    ] == []
    # both bulk catches still use _overlong: the allowance is not stale
    assert {where for _, where, _ in found} == BULK_CATCHES
