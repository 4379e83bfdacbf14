"""Graph helpers shared by diagrams, collapsed graphs and face graphs.

A map is given by darts 4*v + s for vertices v and slots s in 0..3, a
fixed rotation sigma (next slot counterclockwise) and an involution
alpha pairing the two ends of each edge.  Faces are the orbits of
sigma . alpha.  The corner recorded while traversing a face is the gap
index at the vertex the traversal passes through: gap g sits between
slots g and g+1.
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
    """Return (faces, dart_face).

    faces is a list of corner lists [(vertex, gap), ...]; dart_face maps
    each dart to the index of the face whose traversal consumes it.
    """
    faces = []
    dart_face = {}
    for start in range(n_darts):
        if start in dart_face:
            continue
        corners = []
        d = start
        while True:
            dart_face[d] = len(faces)
            e = alpha[d]
            corners.append((e >> 2, e & 3))
            d = sigma(e)
            if d == start:
                break
        faces.append(corners)
    return faces, dart_face


def faces_of(n_darts, alpha):
    """Return (faces, dart_face, face_at) for a map.

    faces are Face records, dart_face is as in trace_faces, and face_at
    maps each corner (vertex, gap) to the index of its face.
    """
    raw, dart_face = trace_faces(n_darts, alpha)
    # from a list, not a generator: tuple() sizes a generator's result by
    # resizing, so the tuple is later freed into a CPython free list it
    # was not taken from; those lists empty only on a full collection
    faces = tuple([Face(i, tuple(cs)) for i, cs in enumerate(raw)])
    face_at = {corner: f.index for f in faces for corner in f.corners}
    return faces, dart_face, face_at


def two_color(plane):
    """Two-colour the faces of a traced map so edge-adjacent faces differ.

    plane has the faces, alpha and dart_face of faces_of; colour 0
    holds face 0.
    """
    alpha, dart_face = plane.alpha, plane.dart_face
    adjacent = [set() for _ in plane.faces]
    for d in range(len(alpha)):
        f, g = dart_face[d], dart_face[alpha[d]]
        adjacent[f].add(g)
        adjacent[g].add(f)
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
