"""Graph helpers shared by diagrams, collapsed graphs and face graphs.

A map is given by darts 4*v + s for vertices v and slots s in 0..3, a
fixed rotation sigma (next slot counterclockwise) and an involution
alpha, a list over darts pairing the two ends of each edge.  Faces are
the orbits of sigma . alpha.  A face traversal arrives at a vertex on a
dart and leaves on the next slot, so the corner it records is that
dart: corner 4*v + g sits in gap g, between slots g and g+1.

A traced map keeps its faces in three flat lists.  corners holds every
corner in traversal order, face after face.  start holds the offset of
each face in corners and then len(corners), so face i is the slice
from start[i] to start[i + 1] and its degree is their difference.
face_at maps each corner to its face.  The faces at corners 4*v + g and
4*v + g+1 meet along the edge at slot g+1, so face adjacency is read
from face_at too.  A map also keeps bits: None, or one colour bit per
vertex such that corner k has colour bits[k >> 2] ^ (k & 1).  A
diagram's strand walk finds them for a knot.
"""

from .errors import NotBipartite


def sigma(d):
    return (d & ~3) | ((d + 1) & 3)


def trace_faces(n_darts, alpha):
    """Return (corners, start, face_at): the corners of every face in
    traversal order, faces in the order of the lowest dart each
    traversal consumes; the offset of each face in corners, and
    n_darts; and the index of the face at each corner."""
    # the corner after c in its face: leave on the next slot, arrive on
    # the dart across that edge
    nxt = alpha[1:] + alpha[:1]
    nxt[3::4] = alpha[0::4]
    corners = []
    start = []
    face_at = [-1] * n_darts
    for d in range(n_darts):
        c = alpha[d]
        if face_at[c] >= 0:
            continue
        fi = len(start)
        start.append(len(corners))
        first = c
        while True:
            face_at[c] = fi
            corners.append(c)
            c = nxt[c]
            if c == first:
                break
    start.append(n_darts)
    return corners, start, face_at


def strands(alpha):
    """(count, pieces, bits) for the dart map alpha of a non-empty
    4-valent map whose strands run through opposite slots: the number
    of strands, the number of connected pieces of the map, and for a
    single strand the colour bits of its vertices if they two-colour
    the faces, else None.

    The walk d -> alpha[d] ^ 2 follows a strand and crosses each of its
    edges once.  The face that leaves a vertex on dart d, from the
    corner before d, arrives at corner e = alpha[d]; so a colouring in
    which corner k has colour bits[k >> 2] ^ (k & 1) has bits[e >> 2]
    == bits[d >> 2] ^ 1 ^ ((d ^ e) & 1).  One strand through every dart
    connects the map and checks that on every edge, so its bits
    two-colour the faces unless the walk finds a conflict.  Otherwise
    every strand is walked again to number it, and the pieces are those
    of the graph in which each vertex joins the two strands through it.
    """
    n = len(alpha)
    bits = [-1] * (n >> 2)
    bits[0] = b = 0
    ok = True
    steps = 0
    d = 0
    while True:
        e = alpha[d]
        b ^= ~(d ^ e) & 1  # the bit of e's vertex, as d's vertex has b
        x = bits[e >> 2]
        if x < 0:
            bits[e >> 2] = b
        elif x != b:
            ok = False
        steps += 1
        d = e ^ 2
        if not d:
            break
    if 2 * steps == n:  # a strand never runs back over itself
        return 1, 1, bits if ok else None
    strand = [-1] * n  # the strand of each dart
    count = 0
    for s in range(n):
        if strand[s] >= 0:
            continue
        d = s
        while strand[d] < 0:  # along the strand, back to s
            e = alpha[d]
            strand[d] = strand[e] = count
            d = e ^ 2
        count += 1
    # slots 0 and 1 of a vertex lie on its two strands
    meets = set(zip(strand[0::4], strand[1::4]))
    return count, component_count(range(count), meets), None


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

    plane has the corners, start, face_at and bits of a traced map;
    returns a list of colours by face, and colour 0 holds face 0.  A
    map with colour bits is read off them, at one corner per face;
    otherwise the faces are searched.
    """
    corners, start, face_at = plane.corners, plane.start, plane.face_at
    bits = plane.bits
    if bits is not None:
        k = corners[0]
        flip = bits[k >> 2] ^ (k & 1)  # face 0 holds corner corners[0]
        return [
            bits[k >> 2] ^ (k & 1) ^ flip
            for k in map(corners.__getitem__, start[:-1])
        ]
    n_faces = len(start) - 1
    color = [-1] * n_faces
    for root in range(n_faces):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            f = stack.pop()
            other = 1 - color[f]
            for i in range(start[f], start[f + 1]):
                # every edge of f is the one it leaves a corner by, and
                # the face at the next gap lies across it
                c = corners[i]
                g = face_at[(c & ~3) | ((c + 1) & 3)]
                if color[g] < 0:
                    color[g] = other
                    stack.append(g)
                elif color[g] != other:
                    raise NotBipartite(f"faces {f} and {g} conflict")
    return color


def face_lists(plane):
    """Each face of a traced map as a new list of its corners; the
    passes read corners and start, and this copy is for tests and
    printing."""
    corners, start = plane.corners, plane.start
    return [corners[a:b] for a, b in zip(start, start[1:])]


def find(parent, x):
    """Root of x in the union-find list or dict parent, halving the path
    to it."""
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
