"""Weighted planar trees and the twist-chain diagrams they generate.

A tree vertex of weight w becomes a chain of |w| crossings; the chain
runs horizontally at even depth and vertically at odd depth, and the
chains of the children are boxed into the parent's chain in planar
order.  Closing the root chain gives the diagram.  Positive weight
means the strand from the lower left passes over, read with the chain
axis horizontal.  The chains are written and boxed by the chain writer
that pretzels and braid closures share, diagram._twist_chain and
diagram._compose, into a diagram._Builder.

For trees with every |w| >= 2 the generated diagram's twist regions
reproduce the vertices, and its normal form merges nothing and has tree
side graphs; generation checks this and raises on any mismatch.  The
chains are numbered vertex by vertex in index order and regions come in
crossing order, so region v must be vertex v's block of crossings: it
is exactly when it has |w_v| crossings, all below its end, as by
induction on v the crossings below its start are the earlier regions'.
"""

import re
from itertools import chain, count, repeat
from operator import lt, sub

from .criterion import judge, normal_form, weight_reasons
from .diagram import _Builder, _compose, _twist_chain, within_budget
from .errors import (
    ConstructionMismatch,
    MalformedTree,
    ZeroWeight,
    integer,
    read_int,
)
from .twists import flat_regions


class WeightedPlanarTree:
    """Parent arrays: parent[0] is None and parent[i] < i otherwise, so
    children[i] lists the children of i in planar order.  parse_tree
    numbers the vertices in preorder; other parent lists are trees too,
    and to_text prints them as parse_tree reads them back, renumbered."""

    def __init__(self, weight, parent):
        self.weight = tuple([integer(w, "weight") for w in weight])
        if 0 in self.weight:
            raise ZeroWeight(f"vertex {self.weight.index(0)} has weight 0")
        self.parent = tuple(parent)
        if len(self.parent) != len(self.weight) or self.parent[:1] != (None,):
            raise MalformedTree(
                f"parent {parent!r} needs None first and one entry per weight"
            )
        self.children = [[] for _ in self.weight]
        self.depth = [0] * len(self.weight)
        for i in range(1, len(self.weight)):
            p = self.parent[i]
            if not isinstance(p, int) or not 0 <= p < i:
                raise MalformedTree(
                    f"vertex {i} has parent {p!r}, not in 0..{i - 1}"
                )
            self.children[p].append(i)
            self.depth[i] = self.depth[p] + 1
        self._diagram = None  # kept by generate_diagram

    def __len__(self):
        return len(self.weight)

    def weights(self):
        return self.weight

    def to_text(self):
        """Tree text, children in planar order, which parse_tree reads
        back as this tree renumbered in preorder."""
        out, todo = [], [0]  # vertices to open, and -1 to close one
        while todo:
            i = todo.pop()
            if i < 0:
                out.append(")")
                continue
            out.append(f" ({self.weight[i]}" if out else f"({self.weight[i]}")
            todo.append(-1)
            todo += reversed(self.children[i])
        return "".join(out)

    def reroot(self, new_root):
        """Same planar tree rooted elsewhere; cyclic orders are kept."""
        weight, parent = [], []
        stack = [(new_root, None, None)]  # (old vertex, came from, new parent)
        while stack:
            i, came_from, up = stack.pop()
            kids = self.children[i]
            if i:
                kids = [self.parent[i], *kids]
            if came_from is not None:
                at = kids.index(came_from)
                kids = kids[at + 1:] + kids[:at]
            here = len(weight)
            weight.append(self.weight[i])
            parent.append(up)
            stack.extend((k, i, here) for k in reversed(kids))
        return WeightedPlanarTree(weight, parent)

    def rerootings(self):
        return [self.reroot(i) for i in range(len(self))]


_TOKEN = re.compile(r"\(|\)|-?\d+|[^\s()]+")


def parse_tree(text):
    toks = _TOKEN.findall(text)[::-1]  # read by popping off the end
    if toks[-1:] != ["("]:
        raise MalformedTree("expected '('" if toks else "empty input")
    weight, parent = [], []
    open_ = []  # vertices whose ')' is still to come
    while not weight or open_:
        tok = toks.pop() if toks else None
        if tok == "(":
            w = toks.pop() if toks else None
            n = None if w is None else read_int(w, MalformedTree)
            if n is None:
                raise MalformedTree(f"expected a weight, got {w!r}")
            parent.append(open_[-1] if open_ else None)
            open_.append(len(weight))
            weight.append(n)
        elif tok == ")":
            open_.pop()
        else:
            raise MalformedTree("expected ')'")
    if toks:
        raise MalformedTree(f"trailing input {toks[::-1]!r}")
    return WeightedPlanarTree(weight, parent)


def family_tree(kind, params):
    """Named tree shapes for the standard families.

    two_bridge [a1..an]: a path, a1 nearest the root.
    pretzel [q1..qn]: the star tree, q1 with the remaining weights as
    leaves; not the pretzel P(q1, .., qn) that make_pretzel_pd draws.
    montesinos [c, [a1, ..], ..]: c with one arm per list of one or
    more weights, a path whose first weight hangs off c.
    """
    if kind == "two_bridge":
        if not params:
            raise MalformedTree("two_bridge needs at least one weight")
        return WeightedPlanarTree(params, [None, *range(len(params) - 1)])
    if kind == "pretzel":
        if len(params) < 1:
            raise MalformedTree("pretzel needs at least one strip")
        return WeightedPlanarTree(params, [None] + [0] * (len(params) - 1))
    if kind == "montesinos":
        if len(params) < 2:
            raise MalformedTree("montesinos needs a centre and arms")
        weight, parent = [params[0]], [None]
        for arm in params[1:]:
            if not isinstance(arm, (list, tuple)) or not arm:
                raise MalformedTree(f"montesinos arm {arm!r} is not a path")
            weight += arm
            parent += [0, *range(len(parent), len(parent) + len(arm) - 1)]
        return WeightedPlanarTree(weight, parent)
    raise MalformedTree(f"unknown family {kind!r}")


# -- tangle assembly --------------------------------------------------------

def _assemble(b, tree):
    """Chains in index order, so crossings are numbered vertex by vertex;
    then each vertex boxes its children's finished tangles in, last
    vertex first."""
    axes, tangles = [], []
    for i, w in enumerate(tree.weight):
        axes.append("hv"[tree.depth[i] % 2])
        tangles.append(_twist_chain(b, axes[i], w))
    for i in reversed(range(len(tangles))):
        for c in tree.children[i]:
            tangles[i] = _compose(b, axes[i], tangles[i], tangles[c])
    return tangles[0]


def generate_diagram(tree):
    if tree._diagram is None:
        within_budget(sum(map(abs, tree.weight)))
        b = _Builder()
        d = b.finish(_assemble(b, tree))
        if min(map(abs, tree.weight)) >= 2:
            _validate(tree, d)
        tree._diagram = d
    return tree._diagram


def _validate(tree, d):
    signed, order, start, _ = flat_regions(d)
    if len(signed) != len(tree):
        raise ConstructionMismatch(
            f"{len(signed)} twist regions for {len(tree)} vertices"
        )
    # one pass: is every crossing below its region's end?
    ends = start[1:]
    below = all(map(lt, order, chain.from_iterable(
        map(repeat, ends, map(sub, ends, start))
    )))
    weight, depth = tree.weight, tree.depth
    closed = len(tree) == 1  # a closed 2-chain reads either axis equally well
    for v, s, w, a, e in zip(count(), signed, weight, start, ends):
        k = s if s > 0 else -s
        if k != e - a or (k != w and k != -w) or not (
            below or max(order[a:e]) < e
        ):
            raise ConstructionMismatch(
                f"region {v} does not match a single vertex"
            )
        # a chain at odd depth is written with the opposite sign
        if s != (-w if depth[v] & 1 else w) and not (closed and k == 2):
            raise ConstructionMismatch(
                f"vertex {v}: handedness {1 if s > 0 else -1}, expected "
                f"{1 if (w > 0) != depth[v] & 1 else -1}"
            )
    cg, green, red = normal_form(d)
    if len(cg) != len(tree) or not (green.is_tree() and red.is_tree()):
        raise ConstructionMismatch("side graphs of a tree diagram must be trees")


def make_pretzel_pd(qs):
    """Flat strip-by-strip diagram: |q_i| vertical twists per strip."""
    qs = [integer(q, "weight") for q in qs]
    if not qs or any(q == 0 for q in qs):
        raise ZeroWeight("strips need nonzero twist counts")
    within_budget(sum(map(abs, qs)))
    b = _Builder()
    strips = [_twist_chain(b, "v", q) for q in qs]
    cur = strips[0]
    for s in strips[1:]:
        cur = _compose(b, "h", cur, s)
    return b.finish(cur)


# -- tree level verdict -----------------------------------------------------

def check_arborescent(tree):
    if isinstance(tree, str):
        tree = parse_tree(tree)
    weights = tree.weights()
    reasons = []
    if len(tree) == 1:
        reasons.append("SingleVertex")
    reasons += weight_reasons(weights, lambda i, w: f"vertex={i},weight={w}")
    d = generate_diagram(tree)
    comps = d.component_count()
    if comps != 1:
        reasons.append(f"NotAKnot({comps})")
    return judge(reasons, tuple(sorted(map(abs, weights))), (), len(tree))
