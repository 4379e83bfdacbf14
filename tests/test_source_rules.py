"""The design rules of the package's source, as one table.

Each rule is a row of ROWS: a finder, run on every module of
src/foliar, a snippet, and per module name the snippet is read as the
exact hits the finder reports on it.  A finder takes a module name and
its parsed tree and returns (line, ...) hits; the package keeps a rule
when no module has a hit.  Each module is read and parsed once.  A new
rule is a finder and a row; a new ban on a name is an entry of BANNED,
under the row that pins it.

The rules, by row:

- crossings, faces, region_records, tait_names (banned_names): no record
  per crossing, face or region on the verdict path.  A diagram keeps
  flat lists and no crossing records; the faces view builds a list per
  face on every read, for tests and demos.  detect_twist_regions builds
  a TwistRegion per region on every call, for tests, demos and the
  benchmark, so the package calls it nowhere and builds a TwistRegion
  only inside it; face-edge records are the tests' own reference.  The
  checkerboard route (tait.py) reads no twist region, collapsed graph
  or merged normal form: were it to, the two routes would agree by
  construction and the cross-check would mean nothing.
- tait_imports (route_imports): tait.py imports of the main route only
  the type II cancellation, the face-graph type and face_graphs.
- resized_tuples: tuple() of a generator guesses its length and resizes
  the result, which then goes to the CPython free list of its final
  size and raises a hot path's peak memory; a list sizes it once.
- recursion: no function calls itself, so input depth cannot exhaust
  the interpreter's stack.  A method calling the module function of its
  own name does not count.
- int_reader: errors.read_int is the one place that turns input text
  into an int, as decimal digits with a leading - where a sign is
  allowed, naming one beyond the digit limit by its head and length;
  int() also takes +, _ and spaces.  Only the bulk label decoders of
  diagram.py catch the digit limit themselves, through _overlong, and
  both still do, so the allowance is not stale.
- kept_slots: what a diagram keeps is read only by the module that
  fills it: its twist regions and reduction by twists, its normal form
  by criterion.  diagram.py declares the slots and may assign them.
"""

import ast
import pathlib
from functools import partial

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "foliar"
PACKAGE = {
    path.stem: ast.parse(path.read_text(), path.name)
    for path in sorted(SRC.glob("*.py"))
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scoped(tree):
    """Each node of tree with the name of the innermost function around
    it, "<module>" outside every function."""
    stack = [(tree, "<module>")]
    while stack:
        node, fn = stack.pop()
        yield node, fn
        if isinstance(node, FUNCTIONS):
            fn = node.name
        stack.extend((child, fn) for child in ast.iter_child_nodes(node))


def mentioned(node):
    """The name a node mentions: a name, an attribute, or what a def,
    class, import alias or handler is named."""
    for key in ("id", "attr", "name"):
        name = getattr(node, key, None)
        if isinstance(name, str):
            return name
    return None


# row -> module ("*" for every module) -> name -> the use of it banned
# there: "read" (an attribute loaded), "call", or "use" (any mention)
BANNED = {
    "crossings": {"*": {"crossings": "read"}},
    "faces": {"*": {"faces": "read"}},
    "region_records": {"*": {
        "detect_twist_regions": "call",
        "TwistRegion": "call",
        "FaceEdge": "use",
    }},
    "tait_names": {"tait": dict.fromkeys([
        "normalize_assumption2",
        "build_side_graphs",
        "connectivity_report",
        "collapse",
        "flat_regions",
        "detect_twist_regions",
        "normal_form",  # the criterion's memo of the merged normal form
    ], "use")},
}
# the one function a banned name may be used inside
BUILDER = {"TwistRegion": "detect_twist_regions"}


def banned_names(table, module, tree):
    """(line, name) of each use of a name that table, an entry of
    BANNED, bans in module."""
    bans = {**table.get("*", {}), **table.get(module, {})}
    found = []
    for node, fn in scoped(tree):
        if isinstance(node, ast.Call):
            name, uses = mentioned(node.func), ("call",)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            name, uses = node.attr, ("read", "use")
        else:
            name, uses = mentioned(node), ("use",)
        if bans.get(name) in uses and BUILDER.get(name) != fn:
            found.append((node.lineno, name))
    return found


# what a module may import from each module of the main route
IMPORTS = {
    "tait": {
        "twists": {"reduce_assumption1"},
        "sidegraphs": {"FaceGraph", "face_graphs"},
    },
}


def route_imports(module, tree):
    """(line, name) of each import by module of a main-route module, or
    of a name from one, that IMPORTS does not allow it."""
    allowed = IMPORTS.get(module, {})
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            found += [
                (node.lineno, a.name) for a in node.names
                if (a.name not in allowed[source] if source in allowed
                    else a.name in allowed)
            ]
        elif isinstance(node, ast.Import):
            found += [
                (node.lineno, a.name) for a in node.names
                if a.name.rpartition(".")[2] in allowed
            ]
    return found


def tuples_from_generators(module, tree):
    """(line, "tuple") of each tuple(<generator expression>) call."""
    return [
        (n.lineno, "tuple")
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "tuple"
        and n.args
        and isinstance(n.args[0], ast.GeneratorExp)
    ]


def self_calls(module, tree):
    """(line, name) of each module-level function or closure that calls
    its own name; a method is reached through its class."""
    return [
        (fn.lineno, fn.name)
        for parent in ast.walk(tree)
        if not isinstance(parent, ast.ClassDef)
        for fn in ast.iter_child_nodes(parent)
        if isinstance(fn, FUNCTIONS) and any(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == fn.name
            for n in ast.walk(fn)
        )
    ]


# the functions allowed to use _overlong outside errors.py
BULK_CATCHES = {"diagram": {"parse_pd", "from_json"}}


def int_readers(module, tree):
    """(line, what, function) of each int(...) call and each use of
    _overlong outside errors.py and BULK_CATCHES, and of each bulk catch
    no longer using _overlong, at its def (line 0 when it is gone)."""
    if module == "errors":
        return []
    catches = BULK_CATCHES.get(module, set())
    found, defs, users = [], {}, set()
    for node, fn in scoped(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "int":
                found.append((node.lineno, "int", fn))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            if mentioned(node) != "_overlong":
                continue
            if fn in catches:
                users.add(fn)
            else:
                found.append((node.lineno, "_overlong", fn))
        elif isinstance(node, FUNCTIONS):
            defs[node.name] = node.lineno
    return found + [
        (defs.get(fn, 0), "no _overlong", fn) for fn in catches - users
    ]


OWNER = {"_regions": "twists", "_reduced": "twists", "_normal": "criterion"}


def foreign_slot_uses(module, tree):
    """(line, slot) of each kept slot that module names, as an attribute
    or a string, outside its owner; diagram's assignments excepted."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
            if module == "diagram" and isinstance(node.ctx, ast.Store):
                continue
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if isinstance(name, str) and OWNER.get(name, module) != module:
            found.append((node.lineno, name))
    return found


TAIT_SNIPPET = '''
from .twists import reduce_assumption1, collapse
from .sidegraphs import FaceGraph, build_side_graphs
from . import twists
import foliar.sidegraphs
from .criterion import normal_form
def route(d):
    g = twists.flat_regions(d)
    return normalize_assumption2(g)
'''

# rule -> (finder, snippet, {module the snippet is read as: its hits})
ROWS = {
    "crossings": (partial(banned_names, BANNED["crossings"]), '''
axes = [c.under_axis for c in d.crossings]
n = len(self.d.crossings)
first = r.crossings[0]
for c in region.crossings:
    pass
def f(diagram):
    return getattr(diagram, "axes"), diagram.crossings[0].slots
rows = [x.crossings for x in regions]
''', {"criterion": [(2, "crossings"), (3, "crossings"), (4, "crossings"),
                   (5, "crossings"), (8, "crossings"), (9, "crossings")]}),
    "faces": (partial(banned_names, BANNED["faces"]), '''
class Plane:
    faces = property(face_lists)
bigons = [f for f in d.faces if len(f) == 2]
n = len(self.cg.faces)
degree = d.start[1] - d.start[0]
def f(plane):
    return plane.faces[0], getattr(plane, "start")
plane.faces = None
''', {"twists": [(4, "faces"), (5, "faces"), (8, "faces")]}),
    "region_records": (partial(banned_names, BANNED["region_records"]), '''
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
''', {"criterion": [(4, "FaceEdge"), (7, "detect_twist_regions"),
                   (9, "TwistRegion"), (10, "FaceEdge"), (11, "FaceEdge"),
                   (12, "FaceEdge")]}),
    "tait_names": (partial(banned_names, BANNED["tait_names"]), TAIT_SNIPPET, {"tait": [
        (2, "collapse"), (3, "build_side_graphs"), (6, "normal_form"),
        (8, "flat_regions"), (9, "normalize_assumption2")]}),
    "tait_imports": (route_imports, TAIT_SNIPPET, {"tait": [
        (2, "collapse"), (3, "build_side_graphs"), (4, "twists"),
        (5, "foliar.sidegraphs")]}),
    "resized_tuples": (tuples_from_generators, '''
a = tuple(x for x in range(3))
b = tuple([x for x in range(3)])
c = tuple(range(3))
def f(xs):
    return tuple(
        x + 1
        for x in xs
    )
''', {"braids": [(2, "tuple"), (6, "tuple")]}),
    "recursion": (self_calls, '''
def outer(x):
    def inner(y):
        return inner(y - 1) if y else 0
    return outer(inner(x))

class C:
    def is_tree(self):
        return is_tree(self)
    def walk(self):
        def step(n):
            return step(n - 1)
        return step(3)
''', {"arborescent": [(2, "outer"), (3, "inner"), (11, "step")]}),
    "int_reader": (int_readers, '''
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
''', {"braids": [(3, "int", "<module>"), (7, "int", "f"),
                (9, "_overlong", "f"), (11, "_overlong", "g")]}),
    "kept_slots": (foreign_slot_uses, '''
d._regions = d._normal = None
r = d if d._reduced is None else d._reduced
k = getattr(d, "_normal")
''', {
        "twists": [(2, "_normal"), (4, "_normal")],
        "criterion": [(2, "_regions"), (3, "_reduced"), (3, "_reduced")],
        "diagram": [(3, "_reduced"), (3, "_reduced"), (4, "_normal")],
    }),
}

@pytest.mark.parametrize("rule", ROWS)
def test_rule_sees_its_snippet(rule):
    find, snippet, hits = ROWS[rule]
    tree = ast.parse(snippet)
    assert {m: sorted(find(m, tree)) for m in hits} == hits


@pytest.mark.parametrize("rule", ROWS)
def test_package_keeps_rule(rule):
    find = ROWS[rule][0]
    found = {
        module: sorted(hits)
        for module, tree in PACKAGE.items()
        if (hits := find(module, tree))
    }
    assert found == {}
