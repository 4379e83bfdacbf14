"""Graph helpers shared by diagrams, collapsed graphs and face graphs.

A map is given by darts 4*v + s for vertices v and slots s in 0..3, a
fixed rotation sigma (next slot counterclockwise) and an involution
alpha, a list over darts pairing the two ends of each edge.  Faces are
the orbits of sigma . alpha.  A face traversal arrives at a vertex on a
dart and leaves on the next slot, so the corner it records is that
dart: corner 4*v + g sits in gap g, between slots g and g+1.  A traced
map keeps its faces, each the list of its corners in traversal order
and addressed by position, and face_at, a list from each corner to its
face; the faces at corners 4*v + g and 4*v + g+1 meet along the edge at
slot g+1, so face adjacency is read from it too.
"""

from .errors import NotBipartite


def sigma(d):
    return (d & ~3) | ((d + 1) & 3)


def trace_faces(n_darts, alpha):
    """Return (faces, face_at): each face as its list of corners, in the
    order of the lowest dart each traversal consumes, and the index of
    the face at each corner."""
    faces = []
    face_at = [-1] * n_darts
    for start in range(n_darts):
        c = alpha[start]
        if face_at[c] >= 0:
            continue
        fi = len(faces)
        corners = []
        first = c
        while True:
            face_at[c] = fi
            corners.append(c)
            c = alpha[(c & ~3) | ((c + 1) & 3)]  # leave on the next slot
            if c == first:
                break
        faces.append(corners)
    return faces, face_at


def pieces(alpha):
    """Number of connected pieces of the map with dart map alpha."""
    seen = bytearray(len(alpha) >> 2)
    count = 0
    for root in range(len(seen)):
        if seen[root]:
            continue
        count += 1
        seen[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for e in alpha[4 * v:4 * v + 4]:
                if not seen[e >> 2]:
                    seen[e >> 2] = 1
                    stack.append(e >> 2)
    return count


def splice_out(alpha, v, pairs):
    """Delete vertex v of a map, letting each strand (p, q) pass through.

    For each pair of slots the far ends of darts 4v+p and 4v+q are
    joined in the list alpha, which is changed in place; the darts of v
    are marked -1.  Vertices spliced one after another compose.  Returns
    how many strands closed on themselves and dropped out of the map.
    """
    closed = 0
    for p, q in pairs:
        dp, dq = 4 * v + p, 4 * v + q
        a, b = alpha[dp], alpha[dq]
        alpha[dp] = alpha[dq] = -1
        if a == dq:
            closed += 1
            continue
        alpha[a] = b
        alpha[b] = a
    return closed


def compact(alpha, kept):
    """The dart map on the vertices kept, in increasing order, renumbered
    0, 1, ... in that order; no kept dart may lead to a removed vertex."""
    index = [-1] * (len(alpha) >> 2)
    for i, v in enumerate(kept):
        index[v] = i
    out = []
    for v in kept:
        for e in alpha[4 * v:4 * v + 4]:
            out.append(4 * index[e >> 2] + (e & 3))
    return out


def two_color(plane):
    """Two-colour the faces of a traced map so edge-adjacent faces differ.

    plane has the faces and face_at of trace_faces; returns a list of
    colours by face, and colour 0 holds face 0.
    """
    faces, face_at = plane.faces, plane.face_at
    color = [-1] * len(faces)
    for root in range(len(faces)):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            f = stack.pop()
            other = 1 - color[f]
            for c in faces[f]:
                # every edge of f is the one it leaves a corner by, and
                # the face at the next gap lies across it
                g = face_at[(c & ~3) | ((c + 1) & 3)]
                if color[g] < 0:
                    color[g] = other
                    stack.append(g)
                elif color[g] != other:
                    raise NotBipartite(f"faces {f} and {g} conflict")
    return color


def find(parent, x):
    """Root of x in the union-find list parent, halving the path to it."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def component_count(vertices, pairs):
    """Connected components of the graph on vertices, distinct
    non-negative ints, with edges pairs between them."""
    parent = list(range(max(vertices, default=-1) + 1))
    count = len(vertices)
    for u, v in pairs:
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[rv] = ru
            count -= 1
    return count


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
