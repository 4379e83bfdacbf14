"""Face colouring of the collapsed graph and the two side graphs.

Faces of a diagram on the sphere two-colour like a checkerboard.  Each
twist region contributes one edge to the graph of its own side colour:
the edge joins the two faces its bigons separated, which sit at the
region vertex's gaps 1 and 3 and always share a colour.  Edge weight is
the crossing count; the signed weight carries handedness.

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
_NAME = {GREEN: "green", RED: "red"}


def color_name(color):
    return _NAME[color]


@dataclass(frozen=True)
class SideEdge:
    region: int
    u: int
    v: int
    weight: int
    signed: int


class SideGraph:
    def __init__(self, color, vertices, edges):
        self.color = color
        self.vertices = tuple(sorted(vertices))
        self.edges = tuple(edges)

    def weights(self):
        return tuple(sorted(e.weight for e in self.edges))

    def _pairs(self):
        return [(e.u, e.v) for e in self.edges]

    def is_connected(self):
        return component_count(self.vertices, self._pairs()) <= 1

    def is_tree(self):
        return is_tree(self.vertices, self._pairs())

    def to_dot(self):
        return to_dot(
            f"side_{color_name(self.color)}",
            [(f"f{v}", None) for v in self.vertices],
            [(f"f{e.u}", f"f{e.v}", f"{e.signed:+d}") for e in self.edges],
        )


def color_faces(plane):
    """Checkerboard colouring of any traced map; face 0 gets GREEN."""
    return two_color(
        len(plane.faces), len(plane.alpha), plane.alpha, plane.dart_face
    )


def build_side_graphs(cg):
    coloring = color_faces(cg)
    verts = {GREEN: set(), RED: set()}
    for f in cg.faces:
        verts[coloring[f.index]].add(f.index)
    edges = {GREEN: [], RED: []}
    for vx in cg.vertices:
        f1, f3 = cg.side_faces(vx.index)
        if coloring[f1] != coloring[f3]:
            raise InternalError(
                f"side faces {f1}, {f3} of region {vx.index} differ in colour"
            )
        edges[coloring[f1]].append(
            SideEdge(
                region=vx.index,
                u=min(f1, f3),
                v=max(f1, f3),
                weight=vx.count,
                signed=vx.handedness * vx.count,
            )
        )
    if len(verts[GREEN]) + len(verts[RED]) != len(cg.vertices) + 2:
        raise InternalError("side graph vertices miscount the faces")
    return (
        SideGraph(GREEN, verts[GREEN], edges[GREEN]),
        SideGraph(RED, verts[RED], edges[RED]),
    )


@dataclass(frozen=True)
class ConnectivityReport:
    connected_green: bool
    connected_red: bool
    tree_green: bool
    tree_red: bool


def connectivity_report(green, red):
    rep = ConnectivityReport(
        green.is_connected(),
        red.is_connected(),
        green.is_tree(),
        red.is_tree(),
    )
    # dichotomy: on the sphere the side graphs are plane duals cut along
    # the regions, so both connected forces both to be trees
    if rep.connected_green and rep.connected_red:
        if not (rep.tree_green and rep.tree_red):
            raise EquivalenceViolation(
                f"both side graphs connected but not both trees: {rep}"
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
        regions = sorted(e.region for e in edges)
        if s == 0:
            removed = set(regions)
            survivor = None
        else:
            removed = set(regions[1:])
            survivor = regions[0]
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
            ni = len(new_vertices)
            vmap[vx.index] = ni
            if vx.index == survivor:
                vx = replace(
                    vx,
                    index=ni,
                    count=abs(s),
                    handedness=1 if s > 0 else -1,
                    parity=abs(s) % 2,
                )
            else:
                vx = replace(vx, index=ni)
            new_vertices.append(vx)
        if not new_vertices:
            raise DegenerateCollapse(
                "every twist region cancelled during edge merging"
            )
        new_alpha = {
            4 * vmap[d >> 2] + (d & 3): 4 * vmap[e >> 2] + (e & 3)
            for d, e in alpha.items()
        }
        cg = CollapsedGraph(new_vertices, new_alpha)
