"""The two side graphs of a collapsed graph, and parallel edge merging.

Faces of a diagram on the sphere two-colour like a checkerboard.  The
side graphs are FaceGraphs, one per colour, whose vertices are the
faces of that colour.  The checkerboard graphs of the tait module use
the same colouring and FaceEdge but read their edges off the diagram
itself.

Side graphs: each twist region contributes one edge to the graph of its
own side colour, joining the two faces its bigons separated, which sit
at the region vertex's gaps 1 and 3.  The signed weight is the crossing
count times the handedness.

Two regions joining the same pair of faces in the same graph can be
slid into each other, so parallel side edges merge: the signed weights
add, the surviving region keeps |sum| crossings, and the others, or all
of them when the sum is zero, are smoothed out of the collapsed graph:
the region becomes its 0-tangle, joining slots 1 to 2 and 3 to 0, so
the strands on either side close up and none crosses the other.
(Carrying the two strands through an odd region would make them cross
at no vertex, and the map would no longer be planar.)  Merging works
in rounds: each round builds the side graphs once, merges every
parallel family of both colours and builds one collapsed graph.  A
smoothing can join faces and so make new parallel edges; rounds repeat
until none remain, which is the normal form the certification
criterion inspects.
"""

from dataclasses import dataclass
from typing import NamedTuple

from ._planar import (
    compact,
    component_count,
    is_tree,
    splice_out,
    strands,
    to_dot,
    two_color,
)
from .errors import (
    DegenerateCollapse,
    EquivalenceViolation,
    InternalError,
    NonSphericalEmbedding,
)
from .twists import CollapsedGraph

GREEN, RED = 0, 1
color_faces = two_color  # checkerboard colouring of a map; face 0 is GREEN


class FaceEdge(NamedTuple):
    u: int
    v: int
    signed: int
    source: int  # collapsed vertex (side graphs) or crossing (tait graphs)


class FaceGraph:
    """Faces of one colour joined by the side edges of the regions."""

    def __init__(self, color, vertices, edges):
        self.color = color
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)

    @property
    def color_name(self):
        return "green" if self.color == GREEN else "red"

    def weights(self):
        return tuple(sorted([abs(e.signed) for e in self.edges]))

    def _pairs(self):
        return [(e.u, e.v) for e in self.edges]

    def is_connected(self):
        return component_count(self.vertices, self._pairs()) <= 1

    def is_tree(self):
        return is_tree(self.vertices, self._pairs())

    def to_dot(self):
        return face_dot(f"side_{self.color_name}", self.vertices, self.edges)


def face_dot(name, vertices, edges):
    """Graphviz text of a face graph: faces by id, edges by FaceEdge."""
    return to_dot(
        name,
        [(f"f{v}", None) for v in vertices],
        [(f"f{e.u}", f"f{e.v}", f"{e.signed:+d}") for e in edges],
    )


def build_side_graphs(cg):
    """The (green, red) side graphs of a collapsed graph: vertex i joins
    the faces at its gaps 1 and 3, which must share a colour."""
    coloring = two_color(cg)
    verts = ([], [])
    for fi, c in enumerate(coloring):
        verts[c].append(fi)
    edges = ([], [])
    g1, g3 = cg.ARC_GAPS
    for i, w in enumerate(cg.vertices):
        a, b = cg.face_at[4 * i + g1], cg.face_at[4 * i + g3]
        if coloring[a] != coloring[b]:
            raise InternalError(
                f"side edge of {i} joins faces {a}, {b} of two colours"
            )
        edges[coloring[a]].append(FaceEdge(min(a, b), max(a, b), w, i))
    return (
        FaceGraph(GREEN, verts[GREEN], edges[GREEN]),
        FaceGraph(RED, verts[RED], edges[RED]),
    )


@dataclass(frozen=True)
class ConnectivityReport:
    connected_green: bool
    connected_red: bool


def connectivity_report(green, red):
    rep = ConnectivityReport(green.is_connected(), red.is_connected())
    # dichotomy: on the sphere the side graphs are plane duals cut along
    # the regions, so both connected forces both to be trees
    if rep.connected_green and rep.connected_red:
        trees = (green.is_tree(), red.is_tree())
        if not all(trees):
            raise EquivalenceViolation(
                f"both side graphs connected but not both trees: {trees}"
            )
    return rep


# -- parallel edge merging --------------------------------------------------

def normalize_assumption2(cg):
    """Merge every parallel family in rounds until no parallel edges remain.

    Returns (collapsed graph, green, red) in normal form.
    """
    while True:
        green, red = build_side_graphs(cg)
        families = {}  # faces of both colours are faces of one map
        for e in green.edges + red.edges:
            families.setdefault((e.u, e.v), []).append(e)
        sums = {}  # survivor -> signed sum of its family
        removed = set()
        for edges in families.values():
            if len(edges) < 2:
                continue
            s = sum(e.signed for e in edges)
            regions = sorted(e.source for e in edges)
            if s:
                sums[regions.pop(0)] = s  # a zero sum cancels them all
            removed.update(regions)
        if not removed:
            return cg, green, red
        alpha = list(cg.alpha)
        kept, vertices = [], []
        for i, w in enumerate(cg.vertices):
            if i in removed:
                splice_out(alpha, i, ((1, 2), (3, 0)))
                continue
            kept.append(i)
            vertices.append(sums.get(i, w))
        if not vertices:
            raise DegenerateCollapse(
                "every twist region cancelled during edge merging"
            )
        alpha = compact(alpha, kept)
        n = strands(alpha)[1]
        if n > 1:  # smoothing can cut a link apart
            raise NonSphericalEmbedding(
                f"merging splits the link into {n} pieces"
            )
        cg = CollapsedGraph(vertices, alpha)
