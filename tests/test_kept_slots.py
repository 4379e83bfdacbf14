"""What a diagram keeps is read only by the module that fills it.

A diagram keeps its twist regions and its reduction for twists, and
its normal form for criterion.  Every other module asks flat_regions,
reduce_assumption1 or normal_form, so each slot has one reader.
diagram.py declares the slots and may assign them.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "foliar"

OWNER = {"_regions": "twists", "_reduced": "twists", "_normal": "criterion"}


def foreign_uses(module, source):
    """(line, slot) of each kept slot that module names, as an attribute
    or a string, outside its owner; diagram's assignments excepted."""
    found = []
    for node in ast.walk(ast.parse(source)):
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


def test_guard_sees_foreign_uses():
    source = '''
d._regions = d._normal = None
r = d if d._reduced is None else d._reduced
k = getattr(d, "_normal")
'''
    assert sorted(foreign_uses("twists", source)) == [
        (2, "_normal"), (4, "_normal")
    ]
    assert sorted(foreign_uses("criterion", source)) == [
        (2, "_regions"), (3, "_reduced"), (3, "_reduced")
    ]
    assert sorted(foreign_uses("diagram", source)) == [
        (3, "_reduced"), (3, "_reduced"), (4, "_normal")
    ]


def test_each_kept_slot_has_one_reader():
    found = {
        path.stem: uses
        for path in sorted(SRC.glob("*.py"))
        if (uses := foreign_uses(path.stem, path.read_text()))
    }
    assert found == {}
