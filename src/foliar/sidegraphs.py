"""Face graphs of a checkerboard-coloured map; the two side graphs.

Faces of a diagram on the sphere two-colour like a checkerboard.  Both
routes hold their graphs as FaceGraphs, one per colour, whose vertices
are the faces of that colour.  face_graphs colours a map once, splits
its faces by colour once and turns each row a route hands it into an
edge.  Which rows a route builds, and what it does with the graphs,
stays in its own module: side edges and their merging here, checkerboard
edges and their contraction in the tait module.

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

from dataclasses import dataclass, replace
from typing import NamedTuple

from ._planar import (
    compact,
    component_count,
    is_tree,
    splice_out,
    to_dot,
    two_color,
)
from .errors import DegenerateCollapse, EquivalenceViolation, InternalError
from .twists import CollapsedGraph

GREEN, RED = 0, 1
color_faces = two_color  # checkerboard colouring of a map; face 0 is GREEN


class FaceEdge(NamedTuple):
    u: int
    v: int
    signed: int
    source: int  # collapsed vertex (side graphs) or crossing (tait graphs)


class FaceGraph:
    """Faces of one colour joined by the edges of one route ("side"/"tait")."""

    def __init__(self, kind, color, vertices, edges):
        self.kind = kind
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

    def degrees(self):
        deg = dict.fromkeys(self.vertices, 0)
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return deg

    def all_bivalent(self):
        return all(k == 2 for k in self.degrees().values())

    def signed_sum(self):
        return sum(e.signed for e in self.edges)

    def to_dot(self):
        return to_dot(
            f"{self.kind}_{self.color_name}",
            [(f"f{v}", None) for v in self.vertices],
            [(f"f{e.u}", f"f{e.v}", f"{e.signed:+d}") for e in self.edges],
        )


def face_graphs(kind, plane, rows):
    """The (green, red) face graphs of a traced map.

    Each row (corner, corner, signed, source) becomes one edge joining
    the faces at its two corners, which must share a colour.
    """
    coloring = two_color(plane)
    verts = ([], [])
    for f in plane.faces:
        verts[coloring[f.index]].append(f.index)
    edges = ([], [])
    for c1, c2, signed, source in rows:
        a, b = plane.face_at[c1], plane.face_at[c2]
        if coloring[a] != coloring[b]:
            raise InternalError(
                f"{kind} edge of {source} joins faces {a}, {b} of two colours"
            )
        edges[coloring[a]].append(FaceEdge(min(a, b), max(a, b), signed, source))
    return (
        FaceGraph(kind, GREEN, verts[GREEN], edges[GREEN]),
        FaceGraph(kind, RED, verts[RED], edges[RED]),
    )


def build_side_graphs(cg):
    g1, g3 = cg.ARC_GAPS
    rows = [
        (4 * v.index + g1, 4 * v.index + g3, v.handedness * v.count, v.index)
        for v in cg.vertices
    ]
    return face_graphs("side", cg, rows)


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
        for vx in cg.vertices:
            if vx.index in removed:
                if vx.cyclic:
                    raise InternalError("cyclic vertex in a parallel family")
                splice_out(alpha, vx.index, ((1, 2), (3, 0)))
                continue
            kept.append(vx.index)
            if vx.index in sums:
                s = sums[vx.index]
                vx = replace(vx, count=abs(s), handedness=1 if s > 0 else -1)
            vertices.append(replace(vx, index=len(vertices)))
        if not vertices:
            raise DegenerateCollapse(
                "every twist region cancelled during edge merging"
            )
        cg = CollapsedGraph(vertices, compact(alpha, kept))
