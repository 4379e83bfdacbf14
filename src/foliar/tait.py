"""Checkerboard graph route to the same certificate.

Each crossing contributes one edge to the graph of either face colour,
joining the two same-coloured faces across it.  Its signed weight is +1
when sweeping the over strand counterclockwise onto the under strand
crosses the gaps holding that graph's faces, so a twist region shows up
as equal-signed parallel edges in the graph of its side colour and as a
path through bivalent vertices in the other.  A graph is a TaitGraph, a
view of the diagram under one two-colouring of its faces: its edges are
read off the corners of each crossing and a face's degree is its corner
count, so no record is made per crossing.  Apart from the type II
cancellation it starts from, the route reads no twist region, so it
stays an independent check of the main route.

Evaluating a graph: maximal runs of bivalent vertices are removed,
each run of j vertices recording a twist weight j + 1; the surviving
parallel families merge to |sum of signed weights|.  The graph
certifies when every recorded weight is at least 2, some weight is at
least 3, and what remains after removal and merging is a tree.  The
diagram certifies only when both graphs do, as the paper asks every
twist region to have at least two crossings: a one-crossing region
records weight 1 in one graph only, as the other counts its crossing
into a longer run, and the collapsed-graph route fails the same region
as WeightTooSmall(count=1).  A failing verdict gives the green graph's
reasons, or the red graph's when the green graph certifies.
"""

from collections import Counter
from dataclasses import dataclass

from ._planar import find, is_tree, two_color
from .criterion import Status, Verdict, weight_reasons
from .errors import InternalError
from .sidegraphs import GREEN, RED, FaceEdge, face_dot
from .twists import reduce_assumption1


class TaitGraph:
    """The checkerboard graph of one colour, as a view of a diagram.

    Its vertices are the faces of d that coloring gives the colour, and
    its edges the crossings: crossing ci joins the faces at its gaps g
    and g + 2 for the g in {0, 1} whose faces have the colour.  A face
    meets one edge per corner, so its degree is its corner count and
    the bivalent vertices are the bigons.
    """

    def __init__(self, d, coloring, color):
        self.d = d
        self.coloring = coloring
        self.color = color
        self.vertices = tuple([f for f, k in enumerate(coloring) if k == color])

    @property
    def color_name(self):
        return "green" if self.color == GREEN else "red"

    def ends(self):
        """(us, vs, signs): the faces each crossing joins and its signed
        weight, three lists in crossing order."""
        coloring, color, face_at = self.coloring, self.color, self.d.face_at
        us, vs, signs = [], [], []
        for ci, axis in enumerate(self.d.axes):
            k = 4 * ci
            if coloring[face_at[k]] != color:
                k += 1  # this colour's faces sit at gaps 1 and 3
            u, v = face_at[k], face_at[k + 2]
            if coloring[u] != coloring[v]:
                raise InternalError(
                    f"tait edge of {ci} joins faces {u}, {v} of two colours"
                )
            us.append(u)
            vs.append(v)
            # +1 on the gap pair whose parity differs from under_axis
            signs.append(1 if axis != k & 1 else -1)
        return us, vs, signs

    @property
    def edges(self):
        return tuple([
            FaceEdge(min(u, v), max(u, v), s, ci)
            for ci, (u, v, s) in enumerate(zip(*self.ends()))
        ])

    def all_bivalent(self):
        start = self.d.start
        return all(start[f + 1] - start[f] == 2 for f in self.vertices)

    def signed_sum(self):
        return sum(self.ends()[2])

    def to_dot(self):
        return face_dot(f"tait_{self.color_name}", self.vertices, self.edges)


def build_tait(d):
    """The (green, red) checkerboard graphs of d under one colouring."""
    coloring = two_color(d)
    return TaitGraph(d, coloring, GREEN), TaitGraph(d, coloring, RED)


@dataclass
class ContractedTait:
    chain_weights: tuple
    merged_weights: tuple
    vertices: tuple
    edge_pairs: tuple  # (u, v) per surviving structural edge

    @property
    def weights(self):
        return tuple(sorted(self.chain_weights + self.merged_weights))

    def is_tree(self):
        return is_tree(self.vertices, self.edge_pairs)


def contract(tg):
    """Remove bivalent runs and merge parallel survivors."""
    start = tg.d.start
    bigon = [b - a == 2 for a, b in zip(start, start[1:])]
    vertices = tg.vertices
    bivalent = [v for v in vertices if bigon[v]]
    if len(bivalent) == len(vertices):
        raise InternalError("contract called on an all-bivalent graph")
    parent = list(range(len(bigon)))  # runs of bivalent faces
    families = {}  # signed sum per pair of surviving faces
    for u, v, s in zip(*tg.ends()):
        if bigon[u]:
            if bigon[v]:
                ru, rv = find(parent, u), find(parent, v)
                parent[rv] = ru
        elif not bigon[v]:
            pair = (u, v) if u < v else (v, u)
            families[pair] = families.get(pair, 0) + s
        # an edge with one bivalent end is consumed by that end's run
    runs = Counter([find(parent, v) for v in bivalent])
    chain_weights = tuple(sorted([n + 1 for n in runs.values()]))
    kept = [(pair, abs(s)) for pair, s in sorted(families.items()) if s]
    return ContractedTait(
        chain_weights,
        tuple([w for _, w in kept]),
        tuple([v for v in vertices if not bigon[v]]),
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
    reasons = reasons_green or reasons_red
    return Verdict(
        Status.HYPOTHESES_FAIL if reasons else Status.CERTIFIED,
        reasons,
        cg_green.weights,
        cg_red.weights,
        len(cg_green.weights),
    )
