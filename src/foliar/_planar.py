"""Graph helpers shared by diagrams, collapsed graphs and face graphs.

A map is given by darts 4*v + s for vertices v and slots s in 0..3, a
fixed rotation sigma (next slot counterclockwise) and an involution
alpha, a list over darts pairing the two ends of each edge.  Faces are
the orbits of sigma . alpha.  A face traversal arrives at a vertex on a
dart and leaves on the next slot, so the corner it records is that
dart: corner 4*v + g sits in gap g, between slots g and g+1.

A traced map keeps its faces in three flat sequences.  corners holds
every corner in traversal order, face after face; a diagram keeps it
as an array('i'), a collapsed graph as the list trace_faces returns.
start holds the offset of each face in corners and then len(corners),
so face i is the slice from start[i] to start[i + 1] and its degree is
their difference.
face_at maps each corner to its face.  The faces at corners 4*v + g and
4*v + g+1 meet along the edge at slot g+1, so face adjacency is read
from face_at too.  A map also keeps bits, one colour bit per vertex
such that corner k has colour bits[k >> 2] ^ (k & 1).  A diagram's
strand walk finds them, and a collapsed graph takes them from the
diagram it collapses.
"""


def sigma(d):
    return (d & ~3) | ((d + 1) & 3)


def trace_faces(alpha):
    """Return (corners, start, face_at): the corners of every face in
    traversal order, faces in the order of the lowest dart each
    traversal consumes; the offset of each face in corners, and
    len(alpha); and the index of the face at each corner."""
    # the corner after c in its face: leave on the next slot, arrive on
    # the dart across that edge
    nxt = alpha[1:] + alpha[:1]
    nxt[3::4] = alpha[0::4]
    corners = []
    start = []
    face_at = [-1] * len(alpha)
    for c in alpha:
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
    start.append(len(alpha))
    return corners, start, face_at


def strands(alpha):
    """(count, pieces, bits) for the dart map alpha of a non-empty
    4-valent map whose strands run through opposite slots: the number
    of strands, the number of connected pieces of the map, and the
    colour bits of its vertices if they two-colour the faces, else
    None.

    The walk d -> alpha[d] ^ 2 follows a strand and crosses each of its
    edges once.  The face that leaves a vertex on dart d, from the
    corner before d, arrives at corner e = alpha[d]; so a colouring in
    which corner k has colour bits[k >> 2] ^ (k & 1) has bits[e >> 2] ==
    bits[d >> 2] ^ 1 ^ ((d ^ e) & 1).  Every edge lies on one strand, so
    walking every strand checks that on every edge, and the bits
    two-colour the faces unless the walk finds a conflict.  One strand
    through every dart connects the map, with no seen list or stack; a
    link walks its first strand twice, but one walk for all took 1.6
    times as long on a 10^4-crossing knot (CPython 3.11, x86).
    Otherwise the strands are walked again from a stack of darts at
    vertices whose bits are set: a vertex reached first pushes its other
    strand, dart e ^ 1, so the walk covers a piece before it restarts at
    a vertex it has not reached, and the restarts count the pieces.
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
    bits = [-1] * (n >> 2)
    seen = [0] * n  # the darts each walk leaves by
    ok = True
    count = pieces = 0
    for v in range(n >> 2):
        if bits[v] >= 0:
            continue
        bits[v] = 0  # a new piece
        pieces += 1
        stack = [4 * v + 1, 4 * v]
        while stack:
            s = d = stack.pop()
            if seen[d] or seen[alpha[d]]:  # walked, one way or the other
                continue
            count += 1
            b = bits[d >> 2]
            while True:
                seen[d] = 1
                e = alpha[d]
                b ^= ~(d ^ e) & 1
                x = bits[e >> 2]
                if x < 0:
                    bits[e >> 2] = b
                    stack.append(e ^ 1)
                elif x != b:
                    ok = False
                d = e ^ 2
                if d == s:
                    break
    return count, pieces, bits if ok else None


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

    plane has the corners, start and bits of a traced map; returns a
    list of colours by face, read off the bits at one corner per face,
    and colour 0 holds face 0.
    """
    corners, bits = plane.corners, plane.bits
    k = corners[0]
    flip = bits[k >> 2] ^ (k & 1)  # face 0 holds corner corners[0]
    return [
        bits[k >> 2] ^ (k & 1) ^ flip
        for k in map(corners.__getitem__, plane.start[:-1])
    ]


def face_lists(plane):
    """Each face of a traced map as a new list of its corners; the
    passes read corners and start, and this copy is for tests and
    printing."""
    corners, start = list(plane.corners), plane.start
    return [corners[a:b] for a, b in zip(start, start[1:])]


def component_count(vertices, pairs):
    """Connected components of the graph on vertices, distinct
    non-negative ints, with edges pairs between them, by union-find
    halving the path to each end's root."""
    parent = list(range(max(vertices, default=-1) + 1))
    count = len(vertices)
    for u, v in pairs:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[v] = u
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
