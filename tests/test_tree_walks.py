"""Weighted trees of any size: frozen outputs, deep paths and properties."""

import hashlib
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from foliar import Status, check_arborescent, generate_diagram, parse_tree
from foliar.cli import main

from conftest import random_tree_text, seeded

# sha256 over the four outputs below for every tree of _digest_trees(),
# recorded before the tree walks were made iterative;
# `python tests/test_tree_walks.py` prints the current value
TREE_DIGEST = "dbab6d2a15ae50b5d3fa72a5003efdc9288528175cc0f24e1fed2bb23d4ca055"


def _digest_trees():
    rng = seeded(2024)
    trees = [
        parse_tree(random_tree_text(rng, max_nodes=12, lo=1, hi=4))
        for _ in range(500)
    ]
    for t in trees[:50]:
        trees += t.rerootings()
    return trees


def tree_digest():
    h = hashlib.sha256()
    for t in _digest_trees():
        h.update(t.to_text().encode())
        h.update(repr(t.weights()).encode())
        h.update(generate_diagram(t).to_pd().encode())
        h.update(check_arborescent(t).to_json().encode())
    return h.hexdigest()


def test_frozen_tree_digest():
    assert tree_digest() == TREE_DIGEST


def test_deep_path_needs_no_recursion(capsys):
    depth = 3000
    assert sys.getrecursionlimit() < depth
    text = "(2 " * (depth - 1) + "(3" + ")" * depth
    t = parse_tree(text)
    assert len(t) == depth
    assert t.to_text() == text
    leaf = t.reroot(depth - 1)
    assert leaf.to_text() == "(3 " + "(2 " * (depth - 2) + "(2" + ")" * depth
    assert check_arborescent(leaf).status == Status.CERTIFIED
    assert check_arborescent(t).status == Status.CERTIFIED
    assert len(generate_diagram(t)) == 2 * (depth - 1) + 3

    assert main(["tree", text, "--crosscheck"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == out["diagram_status"] == "certified"


_WEIGHTS = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])


@st.composite
def trees(draw):
    """Any weighted planar tree with up to 8 vertices, built as text."""
    text, open_ = f"({draw(_WEIGHTS)}", 1
    steps = st.lists(st.tuples(st.integers(0, 7), _WEIGHTS), max_size=7)
    for up, w in draw(steps):
        close = up % open_  # vertices to close; the root stays open
        text += ")" * close + f" ({w}"
        open_ += 1 - close
    return parse_tree(text + ")" * open_)


@settings(derandomize=True, database=None, deadline=None)
@given(trees())
def test_tree_properties(t):
    text = t.to_text()
    again = parse_tree(text)
    assert (again.to_text(), again.weights()) == (text, t.weights())
    status = check_arborescent(t).status
    for rt in t.rerootings():
        assert sorted(rt.weights()) == sorted(t.weights())
        assert check_arborescent(rt).status == status


if __name__ == "__main__":
    print(tree_digest())
