"""Checkerboard graph route to the same certificate.

Each crossing contributes one edge to the graph of either face colour,
joining the two same-coloured faces across it.  The label is +1 when
sweeping the over strand counterclockwise onto the under strand crosses
the gaps holding that graph's faces, so a twist region shows up as
equal-labelled parallel edges in the graph of its side colour and as a
path through bivalent vertices in the other.

Evaluating a graph: maximal runs of bivalent vertices are removed,
each run of j vertices recording a twist weight j + 1; the surviving
parallel families merge to |sum of labels|.  The graph certifies when
every recorded weight is at least 2, some weight is at least 3, and
what remains after removal and merging is a tree.  On a reduced
one-component diagram the two graphs always agree with each other and
with the collapsed-graph route.
"""

from dataclasses import dataclass, field

from ._planar import DisjointSets, is_tree, to_dot
from .criterion import Status, Verdict, weight_reasons
from .errors import InternalError
from .sidegraphs import GREEN, color_faces, color_name
from .twists import reduce_assumption1


@dataclass(frozen=True)
class TaitEdge:
    u: int
    v: int
    label: int
    crossing: int


class TaitGraph:
    def __init__(self, color, vertices, edges):
        self.color = color
        self.vertices = tuple(sorted(vertices))
        self.edges = tuple(edges)

    def degrees(self):
        deg = {v: 0 for v in self.vertices}
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return deg

    def all_bivalent(self):
        return all(d == 2 for d in self.degrees().values())

    def label_sum(self):
        return sum(e.label for e in self.edges)

    def to_dot(self):
        return to_dot(
            f"tait_{color_name(self.color)}",
            [(f"f{v}", None) for v in self.vertices],
            [(f"f{e.u}", f"f{e.v}", f"{e.label:+d}") for e in self.edges],
        )


def build_tait(d):
    coloring = color_faces(d)
    verts = {0: set(), 1: set()}
    for f in d.faces:
        verts[coloring[f.index]].add(f.index)
    edges = {0: [], 1: []}
    for ci, c in enumerate(d.crossings):
        fs = [d.face_at[(ci, g)] for g in range(4)]
        pair_even = (fs[0], fs[2])
        pair_odd = (fs[1], fs[3])
        for gaps_parity, (a, b) in ((0, pair_even), (1, pair_odd)):
            col = coloring[a]
            if coloring[b] != col:
                raise InternalError(
                    f"opposite faces {a}, {b} at crossing {ci} differ in colour"
                )
            label = 1 if gaps_parity != c.under_axis else -1
            edges[col].append(
                TaitEdge(min(a, b), max(a, b), label, ci)
            )
    return (
        TaitGraph(GREEN, verts[0], edges[0]),
        TaitGraph(1 - GREEN, verts[1], edges[1]),
    )


@dataclass
class ContractedTait:
    chain_weights: tuple
    merged_weights: tuple
    dropped_families: int
    vertices: tuple
    edge_pairs: tuple  # (u, v) per surviving structural edge
    weights: tuple = field(init=False)

    def __post_init__(self):
        self.weights = tuple(sorted(self.chain_weights + self.merged_weights))

    def is_tree(self):
        return is_tree(self.vertices, self.edge_pairs)


def contract(tg):
    """Remove bivalent runs and merge parallel survivors."""
    deg = tg.degrees()
    bivalent = {v for v, k in deg.items() if k == 2}
    if len(bivalent) == len(tg.vertices):
        raise InternalError("contract called on an all-bivalent graph")
    ds = DisjointSets()
    for e in tg.edges:
        if e.u in bivalent and e.v in bivalent:
            ds.union(e.u, e.v)
    runs = {}
    for v in bivalent:
        runs.setdefault(ds.find(v), []).append(v)
    chain_weights = tuple(sorted(len(r) + 1 for r in runs.values()))
    survivors = [v for v in tg.vertices if v not in bivalent]
    families = {}
    for e in tg.edges:
        if e.u in bivalent or e.v in bivalent:
            continue  # consumed by the run it belongs to
        families.setdefault((e.u, e.v), []).append(e.label)
    merged = []
    pairs = []
    dropped = 0
    for (u, v), labels in sorted(families.items()):
        s = abs(sum(labels))
        if s == 0:
            dropped += 1
            continue
        merged.append(s)
        pairs.append((u, v))
    return ContractedTait(
        chain_weights, tuple(merged), dropped, tuple(survivors), tuple(pairs)
    )


def _dk_value(green, red):
    gb, rb = green.all_bivalent(), red.all_bivalent()
    if not (gb or rb):
        return None
    # a single looped vertex is the parallel side of a one-crossing curl;
    # otherwise the all-bivalent graph is the cycle side and the twist
    # count is read off the other graph
    if gb and len(green.vertices) == 1:
        return green.label_sum()
    if rb and len(red.vertices) == 1:
        return red.label_sum()
    if gb:
        return red.label_sum()
    return green.label_sum()


def check_tait(d):
    comps = d.component_count()
    if comps != 1:
        return Verdict(Status.HYPOTHESES_FAIL, (f"NotAKnot({comps})",))
    d = reduce_assumption1(d)
    green, red = build_tait(d)
    k = _dk_value(green, red)
    if k is not None:
        return Verdict(
            Status.EXCLUDED,
            (f"DkDiagram({k})",),
            (abs(k),),
            (),
            1,
        )
    results = {}
    for g in (green, red):
        cg = contract(g)
        name = color_name(g.color)
        reasons = weight_reasons(cg.weights, lambda i, w: f"{name},weight={w}")
        if not cg.is_tree():
            reasons.append(f"NotContractible({name})")
        results[g.color] = (cg, tuple(reasons))
    cg_green, reasons_green = results[GREEN]
    cg_red, reasons_red = results[1 - GREEN]
    certified = not reasons_green or not reasons_red
    return Verdict(
        Status.CERTIFIED if certified else Status.HYPOTHESES_FAIL,
        () if certified else reasons_green,
        cg_green.weights,
        cg_red.weights,
        len(cg_green.weights),
    )
