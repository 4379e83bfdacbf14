"""No function in the package calls itself, so input depth cannot
exhaust the interpreter's stack."""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "foliar"


def self_calling_functions(source):
    """Module-level functions and closures that call their own name.

    A method is reached through its class, so a method calling the
    module function of the same name does not count.
    """
    found = []
    for parent in ast.walk(ast.parse(source)):
        if isinstance(parent, ast.ClassDef):
            continue
        for fn in ast.iter_child_nodes(parent):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == fn.name
                for n in ast.walk(fn)
            ):
                found.append(fn.name)
    return found


def test_guard_sees_recursion():
    source = '''
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
'''
    assert self_calling_functions(source) == ["outer", "inner", "step"]


def test_no_function_calls_itself():
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := self_calling_functions(path.read_text()))
    }
    assert found == {}
