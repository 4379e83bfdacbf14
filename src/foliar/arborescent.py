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
side graphs; generation checks this and raises on any mismatch.
"""

import re
from collections import Counter
from itertools import chain, count, repeat

from .criterion import judge, normal_form, weight_reasons
from .diagram import _Builder, _compose, _twist_chain
from .errors import (
    ConstructionMismatch,
    MalformedTree,
    ZeroWeight,
    integer,
    read_int,
)
from .twists import flat_regions


class WeightedPlanarTree:
    """Preorder arrays: parent[0] is None and parent[i] < i otherwise,
    so children[i] lists the children of i in planar order."""

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
        out, open_ = [], []  # open_: the path from the root to the last vertex
        for i, w in enumerate(self.weight):
            while open_ and open_[-1] != self.parent[i]:
                open_.pop()
                out.append(")")
            out.append(f" ({w}" if open_ else f"({w}")
            open_.append(i)
        return "".join(out) + ")" * len(open_)

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
    pretzel [q1..qn]: q1 with the remaining strips as leaves.
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
    """Chains in preorder, so crossings are numbered by vertex; then each
    vertex boxes its children's finished tangles in, last vertex first."""
    axes, tangles = [], []
    for i, w in enumerate(tree.weight):
        axes.append("hv"[tree.depth[i] % 2])
        tangles.append(_twist_chain(b, axes[i], w, i))
    for i in reversed(range(len(tangles))):
        for c in tree.children[i]:
            tangles[i] = _compose(b, axes[i], tangles[i], tangles[c])
    return tangles[0]


def generate_diagram(tree):
    if tree._diagram is None:
        b = _Builder()
        d = b.finish(_assemble(b, tree))
        if min(map(abs, tree.weight)) >= 2:
            _validate(tree, d, b.owner)
        tree._diagram = d
    return tree._diagram


def _validate(tree, d, owner):
    signed, _, order, start, _ = flat_regions(d)
    if len(signed) != len(tree):
        raise ConstructionMismatch(
            f"{len(signed)} twist regions for {len(tree)} vertices"
        )
    size = Counter(owner)  # crossings per vertex
    owned = [owner[c] for c in order]  # the owners region after region
    # only the first crossing's owner can match; the region is that
    # vertex's crossings when it has as many and each is owned by it
    heads = [owned[a] for a in start[:-1]]
    whole = owned == list(
        chain.from_iterable(map(repeat, heads, map(abs, signed)))
    )
    weight, depth = tree.weight, tree.depth
    closed = len(tree) == 1  # a closed 2-chain reads either axis equally well
    for i, v, s in zip(count(), heads, signed):
        k = s if s > 0 else -s
        if k != size[v] or not (
            whole or owned[start[i]:start[i + 1]] == [v] * k
        ):
            raise ConstructionMismatch(
                f"region {i} does not match a single vertex"
            )
        w = weight[v]
        if k != w and k != -w:
            raise ConstructionMismatch(
                f"vertex {v}: weight {w} became count {k}"
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
    b = _Builder()
    strips = [_twist_chain(b, "v", q, i) for i, q in enumerate(qs)]
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
