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
add, the surviving region keeps |sum| crossings, and regions that
cancel outright are spliced out of the collapsed graph along their
through strands.  Repeating until no parallel edges remain is the
normal form the certification criterion inspects.
"""

from dataclasses import dataclass, replace

from ._planar import component_count, is_tree, to_dot, two_color
from .errors import DegenerateCollapse, EquivalenceViolation, InternalError
from .twists import CollapsedGraph

GREEN, RED = 0, 1
color_faces = two_color  # checkerboard colouring of a map; face 0 is GREEN


@dataclass(frozen=True)
class FaceEdge:
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
        ((vx.index, g1), (vx.index, g3), vx.handedness * vx.count, vx.index)
        for vx in cg.vertices
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

def _first_parallel_family(green, red):
    for g in (green, red):
        groups = {}
        for e in g.edges:
            groups.setdefault((e.u, e.v), []).append(e)
        for key in sorted(groups):
            if len(groups[key]) >= 2:
                return groups[key]
    return None


def _splice_out(alpha, vertex):
    for p, q in vertex.through:
        dp, dq = 4 * vertex.index + p, 4 * vertex.index + q
        a, b = alpha[dp], alpha[dq]
        del alpha[dp], alpha[dq]
        if a == dq:
            continue  # the strand closed on itself and drops out
        alpha[a] = b
        alpha[b] = a


def normalize_assumption2(cg):
    """Merge parallel side edges until none remain.

    Returns (collapsed graph, green, red) in normal form.
    """
    while True:
        green, red = build_side_graphs(cg)
        edges = _first_parallel_family(green, red)
        if edges is None:
            return cg, green, red
        s = sum(e.signed for e in edges)
        regions = sorted(e.source for e in edges)
        survivor = regions[0] if s else None  # a zero sum cancels them all
        removed = set(regions) - {survivor}
        alpha = dict(cg.alpha)
        for vx in cg.vertices:
            if vx.index in removed:
                if vx.cyclic:
                    raise InternalError("cyclic vertex in a parallel family")
                _splice_out(alpha, vx)
        new_vertices = []
        vmap = {}
        for vx in cg.vertices:
            if vx.index in removed:
                continue
            vmap[vx.index] = len(new_vertices)
            if vx.index == survivor:
                vx = replace(vx, count=abs(s), handedness=1 if s > 0 else -1)
            new_vertices.append(replace(vx, index=vmap[vx.index]))
        if not new_vertices:
            raise DegenerateCollapse(
                "every twist region cancelled during edge merging"
            )
        new_alpha = {
            4 * vmap[d >> 2] + (d & 3): 4 * vmap[e >> 2] + (e & 3)
            for d, e in alpha.items()
        }
        cg = CollapsedGraph(new_vertices, new_alpha)
