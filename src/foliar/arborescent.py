"""Weighted planar trees and the twist-chain diagrams they generate.

A tree vertex of weight w becomes a chain of |w| crossings; the chain
runs horizontally at even depth and vertically at odd depth, and the
chains of the children are boxed into the parent's chain in planar
order.  Closing the root chain gives the diagram.  Positive weight
means the strand from the lower left passes over, read with the chain
axis horizontal.

For trees with every |w| >= 2 the twist regions of the generated
diagram reproduce the vertices exactly; generation checks this, along
with the tree shape of both side graphs, and raises on any mismatch.
"""

import re
from dataclasses import dataclass

from ._planar import DisjointSets
from .criterion import Status, Verdict, weight_reasons
from .diagram import relabel
from .errors import ConstructionMismatch, MalformedTree, ZeroWeight
from .sidegraphs import build_side_graphs
from .twists import collapse, detect_twist_regions


@dataclass(frozen=True)
class Node:
    weight: int
    children: tuple = ()


class WeightedPlanarTree:
    def __init__(self, root):
        self.root = root
        self.nodes = []
        self.parent = {}
        self.order = {}
        # preorder with an explicit stack: a recursive closure over self
        # would make every tree cyclic garbage
        stack = [(root, None)]
        while stack:
            n, parent = stack.pop()
            idx = len(self.nodes)
            self.nodes.append(n)
            self.parent[idx] = parent
            self.order[idx] = []
            if parent is not None:
                self.order[parent].append(idx)
            stack.extend((c, idx) for c in reversed(n.children))

    def __len__(self):
        return len(self.nodes)

    def weights(self):
        return tuple(n.weight for n in self.nodes)

    def to_text(self):
        def fmt(n):
            inner = " ".join([str(n.weight)] + [fmt(c) for c in n.children])
            return f"({inner})"

        return fmt(self.root)

    def reroot(self, new_root):
        """Same planar tree rooted elsewhere; cyclic orders are kept."""
        neighbors = {}
        for idx in range(len(self.nodes)):
            p = self.parent[idx]
            neighbors[idx] = ([p] if p is not None else []) + self.order[idx]

        def build(idx, come_from):
            ns = neighbors[idx]
            if come_from is None:
                kids = ns
            else:
                at = ns.index(come_from)
                kids = ns[at + 1:] + ns[:at]
            return Node(
                self.nodes[idx].weight,
                tuple(build(k, idx) for k in kids),
            )

        return WeightedPlanarTree(build(new_root, None))

    def rerootings(self):
        return [self.reroot(i) for i in range(len(self.nodes))]


def parse_tree(text):
    toks = re.findall(r"\(|\)|-?\d+|[^\s()]+", text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = peek()
        pos += 1
        return t

    def node():
        if take() != "(":
            raise MalformedTree("expected '('")
        w = peek()
        if w is None or not re.fullmatch(r"-?\d+", w):
            raise MalformedTree(f"expected a weight, got {w!r}")
        take()
        w = int(w)
        if w == 0:
            raise ZeroWeight("vertex weight 0")
        kids = []
        while peek() == "(":
            kids.append(node())
        if take() != ")":
            raise MalformedTree("expected ')'")
        return Node(w, tuple(kids))

    if not toks:
        raise MalformedTree("empty input")
    root = node()
    if pos != len(toks):
        raise MalformedTree(f"trailing input {toks[pos:]!r}")
    return WeightedPlanarTree(root)


def family_tree(kind, params):
    """Named tree shapes for the standard families.

    two_bridge [a1..an]: a path, a1 nearest the root.
    pretzel [q1..qn]: q1 with the remaining strips as leaves.
    montesinos [c, [a1,b1], ..]: c with a length-2 arm per pair.
    """
    if kind == "two_bridge":
        if not params:
            raise MalformedTree("two_bridge needs at least one weight")
        node = None
        for w in reversed(params):
            node = Node(int(w), (node,) if node else ())
        return WeightedPlanarTree(node)
    if kind == "pretzel":
        if len(params) < 1:
            raise MalformedTree("pretzel needs at least one strip")
        q = [int(x) for x in params]
        return WeightedPlanarTree(
            Node(q[0], tuple(Node(x) for x in q[1:]))
        )
    if kind == "montesinos":
        if len(params) < 2:
            raise MalformedTree("montesinos needs a centre and arms")
        c = int(params[0])
        arms = []
        for pair in params[1:]:
            a, b = (int(x) for x in pair)
            arms.append(Node(a, (Node(b),)))
        return WeightedPlanarTree(Node(c, tuple(arms)))
    raise MalformedTree(f"unknown family {kind!r}")


# -- tangle assembly --------------------------------------------------------

_PORTS = ("NW", "NE", "SW", "SE")


class _Builder:
    def __init__(self):
        self.ds = DisjointSets()
        self.n_wires = 0
        self.crossings = []
        self.owner = []  # tree vertex index per crossing

    def wire(self):
        self.n_wires += 1
        return self.n_wires - 1

    def crossing(self, over_diag, owner):
        w = {p: self.wire() for p in _PORTS}
        if over_diag == "NE-SW":
            slots = (w["NW"], w["SW"], w["SE"], w["NE"])
        else:
            slots = (w["NE"], w["NW"], w["SW"], w["SE"])
        self.crossings.append(slots)
        self.owner.append(owner)
        return w

    def join(self, a, b):
        self.ds.union(a, b)

    def finish(self):
        lists = [
            tuple(self.ds.find(w) for w in slots) for slots in self.crossings
        ]
        return relabel(lists, [0] * len(lists))


@dataclass
class _Tangle:
    NW: int
    NE: int
    SW: int
    SE: int


def _twist_chain(b, axis, weight, owner):
    over = "NE-SW" if weight > 0 else "NW-SE"
    ws = [b.crossing(over, owner) for _ in range(abs(weight))]
    for prev, nxt in zip(ws, ws[1:]):
        if axis == "h":
            b.join(prev["NE"], nxt["NW"])
            b.join(prev["SE"], nxt["SW"])
        else:
            b.join(prev["SW"], nxt["NW"])
            b.join(prev["SE"], nxt["NE"])
    first, last = ws[0], ws[-1]
    if axis == "h":
        return _Tangle(first["NW"], last["NE"], first["SW"], last["SE"])
    return _Tangle(first["NW"], first["NE"], last["SW"], last["SE"])


def _compose(b, axis, a, t):
    if axis == "h":
        b.join(a.NE, t.NW)
        b.join(a.SE, t.SW)
        return _Tangle(a.NW, t.NE, a.SW, t.SE)
    b.join(a.SW, t.NW)
    b.join(a.SE, t.NE)
    return _Tangle(a.NW, a.NE, t.SW, t.SE)


def _assemble(b, tree, idx, axis):
    node = tree.nodes[idx]
    if node.weight == 0:
        raise ZeroWeight(f"vertex {idx} has weight 0")
    cur = _twist_chain(b, axis, node.weight, idx)
    other = "v" if axis == "h" else "h"
    for child in tree.order[idx]:
        cur = _compose(b, axis, cur, _assemble(b, tree, child, other))
    return cur


def generate_diagram(tree, validate=True):
    b = _Builder()
    t = _assemble(b, tree, 0, "h")
    b.join(t.NW, t.NE)
    b.join(t.SW, t.SE)
    d = b.finish()
    if validate and all(abs(w) >= 2 for w in tree.weights()):
        _validate(tree, d, b.owner)
    return d


def _validate(tree, d, owner):
    dec = detect_twist_regions(d)
    by_vertex = {}
    for ci, v in enumerate(owner):
        by_vertex.setdefault(v, set()).add(ci)
    if len(dec) != len(tree):
        raise ConstructionMismatch(
            f"{len(dec)} twist regions for {len(tree)} vertices"
        )
    depth = [0] * len(tree)
    for i in range(1, len(tree)):  # preorder: parent[i] < i
        depth[i] = depth[tree.parent[i]] + 1
    for r in dec:
        # owner sets are disjoint, so only the first crossing's owner can match
        v = owner[r.crossings[0]]
        if by_vertex[v] != set(r.crossings):
            raise ConstructionMismatch(
                f"region {r.index} does not match a single vertex"
            )
        w = tree.nodes[v].weight
        if r.count != abs(w):
            raise ConstructionMismatch(
                f"vertex {v}: weight {w} became count {r.count}"
            )
        if len(tree) == 1 and abs(w) == 2:
            continue  # a closed 2-chain reads either axis equally well
        want = (1 if w > 0 else -1) * (1 if depth[v] % 2 == 0 else -1)
        if r.handedness != want:
            raise ConstructionMismatch(
                f"vertex {v}: handedness {r.handedness}, expected {want}"
            )
    cg = collapse(d, dec)
    green, red = build_side_graphs(cg)
    if not (green.is_tree() and red.is_tree()):
        raise ConstructionMismatch("side graphs of a tree diagram must be trees")


def make_pretzel_pd(qs):
    """Flat strip-by-strip diagram: |q_i| vertical twists per strip."""
    qs = [int(q) for q in qs]
    if not qs or any(q == 0 for q in qs):
        raise ZeroWeight("strips need nonzero twist counts")
    b = _Builder()
    strips = [_twist_chain(b, "v", q, i) for i, q in enumerate(qs)]
    cur = strips[0]
    for s in strips[1:]:
        cur = _compose(b, "h", cur, s)
    b.join(cur.NW, cur.NE)
    b.join(cur.SW, cur.SE)
    return b.finish()


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
    status = Status.CERTIFIED if not reasons else Status.HYPOTHESES_FAIL
    return Verdict(
        status,
        tuple(reasons),
        tuple(sorted(abs(w) for w in weights)),
        (),
        len(tree),
    )
