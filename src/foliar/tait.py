"""Checkerboard graph route to the same certificate.

Each crossing contributes one edge to the graph of either face colour,
joining the two same-coloured faces across it.  Its signed weight is +1
when sweeping the over strand counterclockwise onto the under strand
crosses the gaps holding that graph's faces, so a twist region shows up
as equal-signed parallel edges in the graph of its side colour and as a
path through bivalent vertices in the other.  The graphs are the
FaceGraph of the sidegraphs module, built by the same face_graphs
colour split from two rows per crossing; what this route does with them
is its own, so it stays an independent check of the main route.

Evaluating a graph: maximal runs of bivalent vertices are removed,
each run of j vertices recording a twist weight j + 1; the surviving
parallel families merge to |sum of signed weights|.  The graph
certifies when every recorded weight is at least 2, some weight is at
least 3, and what remains after removal and merging is a tree.  On a
reduced one-component diagram the two graphs always agree with each
other and with the collapsed-graph route.
"""

from collections import Counter
from dataclasses import dataclass

from ._planar import DisjointSets, is_tree
from .criterion import Status, Verdict, weight_reasons
from .errors import InternalError
from .sidegraphs import face_graphs
from .twists import reduce_assumption1


def build_tait(d):
    rows = []
    for ci, c in enumerate(d.crossings):
        # +1 on the gap pair whose parity differs from under_axis
        s = 1 if c.under_axis else -1
        rows.append(((ci, 0), (ci, 2), s, ci))
        rows.append(((ci, 1), (ci, 3), -s, ci))
    return face_graphs("tait", d, rows)


@dataclass
class ContractedTait:
    chain_weights: tuple
    merged_weights: tuple
    dropped_families: int
    vertices: tuple
    edge_pairs: tuple  # (u, v) per surviving structural edge

    @property
    def weights(self):
        return tuple(sorted(self.chain_weights + self.merged_weights))

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
    runs = Counter([ds.find(v) for v in bivalent])
    chain_weights = tuple(sorted([n + 1 for n in runs.values()]))
    survivors = [v for v in tg.vertices if v not in bivalent]
    families = {}  # signed sum per pair of surviving faces
    for e in tg.edges:
        if e.u in bivalent or e.v in bivalent:
            continue  # consumed by the run it belongs to
        families[e.u, e.v] = families.get((e.u, e.v), 0) + e.signed
    kept = [(pair, abs(s)) for pair, s in sorted(families.items()) if s]
    return ContractedTait(
        chain_weights,
        tuple([w for _, w in kept]),
        len(families) - len(kept),
        tuple(survivors),
        tuple([pair for pair, _ in kept]),
    )


def _dk_value(green, red):
    gb, rb = green.all_bivalent(), red.all_bivalent()
    if not (gb or rb):
        return None
    # a single looped vertex is the parallel side of a one-crossing curl;
    # otherwise the all-bivalent graph is the cycle side and the twist
    # count is read off the other graph
    if gb and len(green.vertices) == 1:
        return green.signed_sum()
    if rb and len(red.vertices) == 1:
        return red.signed_sum()
    if gb:
        return red.signed_sum()
    return green.signed_sum()


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
    results = []
    for g in (green, red):
        cg = contract(g)
        name = g.color_name
        reasons = weight_reasons(cg.weights, lambda i, w: f"{name},weight={w}")
        if not cg.is_tree():
            reasons.append(f"NotContractible({name})")
        results.append((cg, tuple(reasons)))
    (cg_green, reasons_green), (cg_red, reasons_red) = results
    certified = not reasons_green or not reasons_red
    return Verdict(
        Status.CERTIFIED if certified else Status.HYPOTHESES_FAIL,
        () if certified else reasons_green,
        cg_green.weights,
        cg_red.weights,
        len(cg_green.weights),
    )
