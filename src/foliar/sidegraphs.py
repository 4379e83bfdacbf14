"""The two side graphs of a collapsed graph, and parallel edge merging.

Faces of a diagram on the sphere two-colour like a checkerboard.  The
side graphs are FaceGraphs, one per colour, whose vertices are the
faces of that colour.  Each twist region contributes one edge to the
graph of its own side colour, joining the two faces its bigons
separated, which sit at the region vertex's gaps 1 and 3, with the
region's signed count as its weight.  A FaceGraph keeps its edges as
the flat lists u, v and signed.  The checkerboard graphs of the tait
module are the same construction one scale down, a crossing for a
region, so face_graphs builds both from a traced map and its gaps.

Two regions joining the same pair of faces in the same graph can be
slid into each other, so parallel side edges merge by one rule: the
signed counts of each pair of faces add, the first region of the pair
keeps the sum, and the later ones, or all of them when the sum is
zero, are smoothed out of the collapsed graph:
the region becomes its 0-tangle, joining slots 1 to 2 and 3 to 0, so
the strands on either side close up and none crosses the other.
(Carrying the two strands through an odd region would make them cross
at no vertex, and the map would no longer be planar.)  Merging works
in rounds: each round merges every parallel family of both colours
and builds one collapsed graph, whose vertices keep their colour bits
and whose faces count its pieces.  A smoothing can join faces and so
make new parallel edges; rounds repeat until none remain, which is the
normal form the certification criterion inspects, and the side graphs
are built once, for it alone.  They are trees when both are connected,
so connectivity_report asks no more: its V vertices have V + 2 faces
(collapse and each merge round raise otherwise), G + R by colour, and
V side edges, Eg + Er; Eg >= G - 1 and Er >= R - 1 then add up to
V >= V, so both are equalities.
"""

from dataclasses import dataclass

from ._planar import (
    compact,
    component_count,
    splice_out,
    to_dot,
    two_color,
)
from .errors import (
    DegenerateCollapse,
    InternalError,
    NonSphericalEmbedding,
)
from .twists import CollapsedGraph

GREEN, RED = 0, 1  # the colours two_color gives; face 0 is GREEN


class FaceGraph:
    """Faces of one colour; edge j joins faces u[j] <= v[j] and has
    weight signed[j]."""

    def __init__(self, kind, color, vertices, u, v, signed):
        self.kind = kind  # "side" or "tait", the prefix of its dot name
        self.color = color
        self.vertices = tuple(vertices)
        self.u, self.v, self.signed = u, v, signed
        self._components = None  # counted on first use

    @property
    def color_name(self):
        return "green" if self.color == GREEN else "red"

    def weights(self):
        return tuple(sorted(map(abs, self.signed)))

    def is_connected(self):
        if self._components is None:
            pairs = zip(self.u, self.v)
            self._components = component_count(self.vertices, pairs)
        return self._components <= 1

    def is_tree(self):
        return len(self.u) == len(self.vertices) - 1 and self.is_connected()

    def to_dot(self):
        edges = zip(self.u, self.v, self.signed)
        return to_dot(
            f"{self.kind}_{self.color_name}",
            [(f"f{x}", None) for x in self.vertices],
            [(f"f{a}", f"f{b}", f"{s:+d}") for a, b, s in edges],
        )


def face_graphs(kind, plane, weights, gaps):
    """The (green, red) FaceGraphs of kind on the faces of a traced map.

    For each (g, sign) of gaps in turn, each vertex i in vertex order
    joins the faces at its gaps g and g + 2, which must share a colour,
    in the graph of that colour, with weight sign * weights[i].
    """
    coloring = two_color(plane)
    face_at = plane.face_at
    edges = ([], [], []), ([], [], [])  # u, v, signed by colour
    for g, sign in gaps:
        for a, b, w in zip(face_at[g::4], face_at[g + 2::4], weights):
            c = coloring[a]
            if coloring[b] != c:
                raise InternalError(
                    f"{kind} edge joins faces {a}, {b} of two colours"
                )
            u, v, signed = edges[c]
            u.append(a if a < b else b)
            v.append(b if a < b else a)
            signed.append(sign * w)
    return tuple([
        FaceGraph(kind, c, [f for f, k in enumerate(coloring) if k == c],
                  *edges[c])
        for c in (GREEN, RED)
    ])


def build_side_graphs(cg):
    """The (green, red) side graphs of a collapsed graph: vertex i joins
    the faces at its gaps 1 and 3 with its signed count."""
    return face_graphs("side", cg, cg.vertices, ((cg.ARC_GAPS[0], 1),))


@dataclass(frozen=True)
class ConnectivityReport:
    connected_green: bool
    connected_red: bool


def connectivity_report(green, red):
    return ConnectivityReport(green.is_connected(), red.is_connected())


# -- parallel edge merging --------------------------------------------------

def normalize_assumption2(cg):
    """Merge every parallel family in rounds until no parallel edges remain.

    Returns (normal form, green, red), its side graphs built once at the end.
    """
    while True:
        # each region's pair of side faces at its arc gaps as one int;
        # faces of both colours are faces of one map
        g1, g3 = cg.ARC_GAPS
        m = len(cg.start)  # more than any face index
        keys = [
            a * m + b if a < b else b * m + a
            for a, b in zip(cg.face_at[g1::4], cg.face_at[g3::4])
        ]
        if len(set(keys)) == len(keys):
            return (cg, *build_side_graphs(cg))
        sums = dict.fromkeys(keys, 0)  # the signed sum of each pair
        for key, w in zip(keys, cg.vertices):
            sums[key] += w
        alpha = list(cg.alpha)
        kept, vertices, closed = [], [], 0
        for i, key in enumerate(keys):
            # the first region of a pair takes its sum; the later ones,
            # and all of a zero-sum family, are smoothed out
            s = sums.pop(key, 0)
            if s:
                kept.append(i)
                vertices.append(s)
            else:
                closed += splice_out(alpha, i, ((1, 2), (3, 0)))
        if not vertices:
            raise DegenerateCollapse(
                "every twist region cancelled during edge merging"
            )
        # the faces a smoothing merges, at its gaps 0 and 2, share a
        # colour, so the kept vertices keep their colour bits
        alpha = compact(alpha, kept)
        cg = CollapsedGraph(vertices, alpha, [cg.bits[i] for i in kept])
        # smoothing can cut a link apart or close a strand; a plane piece
        # of V_i vertices has V_i + 2 faces
        n = (len(cg.start) - 1 - len(vertices)) // 2 + closed
        if n != 1:
            raise NonSphericalEmbedding(
                f"merging splits the link into {n} pieces"
            )
