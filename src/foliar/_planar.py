"""Graph helpers shared by diagrams, collapsed graphs and face graphs.

A map is given by darts 4*v + s for vertices v and slots s in 0..3, a
fixed rotation sigma (next slot counterclockwise) and an involution
alpha pairing the two ends of each edge.  Faces are the orbits of
sigma . alpha.  The corner recorded while traversing a face is the gap
index at the vertex the traversal passes through: gap g sits between
slots g and g+1.  A traced map keeps its faces and one index, face_at,
from each corner to its face; the faces at gaps g and g+1 of a vertex
meet along the edge at slot g+1, so face adjacency is read from it too.
"""

from dataclasses import dataclass

from .errors import NotBipartite


@dataclass(frozen=True)
class Face:
    index: int
    corners: tuple  # ((vertex, gap), ...) with gap g between slots g, g+1

    @property
    def size(self):
        return len(self.corners)


def sigma(d):
    return (d & ~3) | ((d + 1) & 3)


def trace_faces(n_darts, alpha):
    """Return the faces as corner lists [(vertex, gap), ...], in the
    order of the lowest dart each traversal consumes."""
    faces = []
    seen = bytearray(n_darts)
    for start in range(n_darts):
        if seen[start]:
            continue
        corners = []
        d = start
        while True:
            seen[d] = 1
            e = alpha[d]
            corners.append((e >> 2, e & 3))
            d = sigma(e)
            if d == start:
                break
        faces.append(corners)
    return faces


def faces_of(n_darts, alpha):
    """Return (faces, face_at) for a map.

    faces are Face records and face_at maps each corner (vertex, gap) to
    the index of its face.
    """
    raw = trace_faces(n_darts, alpha)
    # from a list, not a generator: tuple() sizes a generator's result by
    # resizing, so the tuple is later freed into a CPython free list it
    # was not taken from; those lists empty only on a full collection
    faces = tuple([Face(i, tuple(cs)) for i, cs in enumerate(raw)])
    face_at = {corner: f.index for f in faces for corner in f.corners}
    return faces, face_at


def splice_out(alpha, v, pairs):
    """Delete vertex v of a map, letting each strand (p, q) pass through.

    For each pair of slots the far ends of darts 4v+p and 4v+q are
    joined in alpha, which is changed in place.  Vertices spliced one
    after another compose.  Returns how many strands closed on
    themselves and dropped out of the map.
    """
    closed = 0
    for p, q in pairs:
        dp, dq = 4 * v + p, 4 * v + q
        a, b = alpha.pop(dp), alpha.pop(dq)
        if a == dq:
            closed += 1
            continue
        alpha[a] = b
        alpha[b] = a
    return closed


def two_color(plane):
    """Two-colour the faces of a traced map so edge-adjacent faces differ.

    plane has the faces and face_at of faces_of; colour 0 holds face 0.
    """
    face_at = plane.face_at
    adjacent = [set() for _ in plane.faces]
    for (v, gap), f in face_at.items():
        # the faces at gaps g and g+1 meet along the edge at slot g+1
        h = face_at[(v, (gap + 1) & 3)]
        adjacent[f].add(h)
        adjacent[h].add(f)
    color = {}
    for root in range(len(plane.faces)):
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            f = queue.pop()
            for g in adjacent[f]:
                if g not in color:
                    color[g] = 1 - color[f]
                    queue.append(g)
                elif color[g] == color[f]:
                    raise NotBipartite(f"faces {f} and {g} conflict")
    return color


class DisjointSets:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra


def component_count(vertices, pairs):
    """Connected components of the graph on vertices with edges pairs."""
    ds = DisjointSets()
    for u, v in pairs:
        ds.union(u, v)
    return len({ds.find(v) for v in vertices})


def is_tree(vertices, pairs):
    return (
        component_count(vertices, pairs) <= 1
        and len(pairs) == len(vertices) - 1
    )


def to_dot(name, nodes, edges):
    """Graphviz text: nodes are (id, label), edges (u, v, label).

    A label of None leaves that node or edge unlabelled.
    """
    lines = [f"graph {name} {{"]
    for v, label in nodes:
        lines.append(f"  {v}{_dot_label(label)};")
    for u, v, label in edges:
        lines.append(f"  {u} -- {v}{_dot_label(label)};")
    lines.append("}")
    return "\n".join(lines)


def _dot_label(label):
    return "" if label is None else f' [label="{label}"]'
