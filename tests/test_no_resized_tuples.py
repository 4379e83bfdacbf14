"""No tuple in the package is built from a generator.

tuple() cannot know a generator's length, so it allocates a guess and
resizes the result; when that tuple is freed it goes to the CPython
free list of its final size, which was not where it came from.  Those
lists empty only on a full collection, so in a hot path they raise the
peak memory of a run.  Building the tuple from a list sizes it once.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "foliar"


def tuples_from_generators(source):
    """Line numbers of tuple(<generator expression>) calls."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "tuple"
        and n.args
        and isinstance(n.args[0], ast.GeneratorExp)
    ]


def test_guard_sees_generators():
    source = '''
a = tuple(x for x in range(3))
b = tuple([x for x in range(3)])
c = tuple(range(3))
def f(xs):
    return tuple(
        x + 1
        for x in xs
    )
'''
    assert tuples_from_generators(source) == [2, 6]


def test_no_tuple_is_built_from_a_generator():
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := tuples_from_generators(path.read_text()))
    }
    assert found == {}
