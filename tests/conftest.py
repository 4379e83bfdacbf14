import json
import random
import sys
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import pytest

from foliar import (
    braid_to_diagram,
    generate_diagram,
    parse_braid,
    parse_pd,
    parse_tree,
)
from foliar._planar import two_color
from foliar.diagram import LinkDiagram
from foliar.errors import FoliarError

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8 = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
HOPF = "X[1,3,2,4] X[3,1,4,2]"
KINK = "X[1,1,2,2]"

# trefoil joined to its mirror image along one strand
SQUARE_KNOT = (
    "X[7,4,2,5] X[3,6,4,1] X[5,2,6,3] "
    "X[10,8,11,7] X[12,10,1,9] X[8,12,9,11]"
)

# three positive trefoils joined in a row; the middle one is cut by the
# joining strand into a one-crossing and a two-crossing region that sit
# between the same pair of faces, so edge merging fires on this input
GRANNY3 = (
    "X[7,4,2,5] X[3,6,4,1] X[5,2,6,3] "
    "X[1,10,13,11] X[9,12,10,7] X[11,8,12,9] "
    "X[8,16,14,17] X[15,18,16,13] X[17,14,18,15]"
)

# two opposite twist columns plus a curl on each closure arc; the curls
# break the closure bigons so the columns stay separate regions that
# cancel exactly during edge merging
CANCELLING_COLUMNS = (
    "X[1,2,3,4] X[2,5,6,3] X[9,4,7,8] X[8,7,6,11] "
    "X[1,10,10,9] X[5,12,12,11]"
)


@pytest.fixture
def trefoil():
    return parse_pd(TREFOIL)


@pytest.fixture
def fig8():
    return parse_pd(FIG8)


@pytest.fixture
def hopf():
    return parse_pd(HOPF)


@pytest.fixture
def kink():
    return parse_pd(KINK)


class DisjointSets:
    """Union-find over any hashable items, a dict with path halving;
    the reference the tests build their expected partitions with."""

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


class FaceEdge(NamedTuple):
    """One edge of a FaceGraph as a record, as the reference routes
    build their graphs; source is the crossing the reference read it
    off, which the graph under test does not keep."""

    u: int
    v: int
    signed: int
    source: int  # collapsed vertex (side graphs) or crossing (tait graphs)


def edges_of(g):
    """The edges of a FaceGraph's flat lists as (u, v, signed) triples,
    in the order the graph lists them."""
    return list(zip(g.u, g.v, g.signed))


def trace_faces(n_darts, alpha):
    """Return (faces, face_at): each face as its list of corners, in the
    order of the lowest dart each traversal consumes, and the index of
    the face at each corner; the reference the flat corner lists of a
    traced map are checked against."""
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


def ref_two_color(plane):
    """Face colours of a map, face 0 green, by a search over the faces
    across each edge; the reference for colours read off bits."""
    faces, face_at = trace_faces(len(plane.alpha), plane.alpha)
    color = {0: 0}
    todo = [0]
    while todo:
        f = todo.pop()
        for c in faces[f]:
            # the face across the edge at the next slot
            g = face_at[(c & ~3) | ((c + 1) & 3)]
            if g not in color:
                color[g] = 1 - color[f]
                todo.append(g)
            assert color[g] != color[f]
    return [color[f] for f in range(len(faces))]


def ref_is_ring(d, crossings):
    """Whether the chain with these crossings, in chain order, holds
    every crossing of d and a bigon joins its last crossing's free chain
    gap to its first's, read off d's faces alone.  An end's free chain
    gap is opposite its corner in a bigon to its chain neighbour."""
    if len(crossings) != len(d) or len(d) < 2:
        return False
    bigons = {frozenset(f) for f in d.faces if len(f) == 2}

    def free(c, neighbour):
        return {
            k ^ 2
            for f in bigons
            if {j >> 2 for j in f} == {c, neighbour}
            for k in f
            if k >> 2 == c
        }

    first, last = crossings[0], crossings[-1]
    return any(
        frozenset((a, b)) in bigons
        for a in free(first, crossings[1])
        for b in free(last, crossings[-2])
    )


def strand_count(alpha):
    """Number of strands of a dart map, each strand walked through
    opposite slots and marked dart by dart."""
    seen = bytearray(len(alpha))
    count = 0
    for start in range(len(seen)):
        count += not seen[start]
        d = start
        while not seen[d]:  # along the strand, back to start
            e = alpha[d]
            seen[d] = seen[e] = 1
            d = e ^ 2
    return count


def pieces(alpha):
    """Number of connected pieces of the map with dart map alpha, by a
    search over its vertices; the reference the strand graph's piece
    count is checked against."""
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


def bareiss(m):
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def fox_determinant(d):
    """|any (n-1)-minor| of the Fox colouring matrix: one row per
    crossing, 2 on the over arc and -1 on each under arc."""
    ds = DisjointSets()
    rows = []
    for s, ax in zip(*rows_of(d)):
        s = s[1:] + s[:1] if ax else s
        ds.union(s[1], s[3])  # the over strand is one arc
        rows.append((s[1], s[0], s[2]))
    col = {}
    for a in range(1, d.arc_count + 1):
        col.setdefault(ds.find(a), len(col))
    m = []
    for over, u1, u2 in rows:
        row = [0] * len(col)
        row[col[ds.find(over)]] += 2
        row[col[ds.find(u1)]] -= 1
        row[col[ds.find(u2)]] -= 1
        m.append(row[1:])
    return abs(bareiss(m[1:]))


def goeritz_determinant(plane, counts, color):
    """The determinant of a knot read off a 4-valent map of it through
    the Goeritz matrix of the faces of one colour.

    plane is a diagram or a collapsed graph and counts gives each
    vertex's signed count: a collapsed graph's vertices, or for a
    diagram each crossing's handedness as a one-crossing region,
    1 - 2 * under_axis.  A vertex of signed count w whose side faces,
    at gaps 1 and 3, have the colour joins them with conductance w: its
    crossings are parallel edges there.  Otherwise its crossings are a
    series chain between the faces at gaps 0 and 2, of conductance
    -sign(w) / |w|, and the chain's |w| multiplies the weighted count
    of spanning trees, |det| of the reduced Laplacian.
    """
    coloring, face_at = two_color(plane), plane.face_at
    index = {}
    for f, k in enumerate(coloring):
        if k == color:
            index[f] = len(index)
    edges = []  # (face, face, conductance) of each vertex
    scale = 1  # the product of the series chains' |w|
    for i, w in enumerate(counts):
        a, b = face_at[4 * i + 1], face_at[4 * i + 3]
        if coloring[a] == color:
            edges.append((a, b, Fraction(w)))
        else:
            a, b = face_at[4 * i], face_at[4 * i + 2]
            edges.append((a, b, Fraction(-1 if w > 0 else 1, abs(w))))
            scale *= abs(w)
    # the Laplacian times scale has integer entries
    lap = [[0] * len(index) for _ in index]
    for a, b, g in edges:
        a, b, g = index[a], index[b], int(g * scale)
        if a != b:
            lap[a][a] += g
            lap[b][b] += g
            lap[a][b] -= g
            lap[b][a] -= g
    m = [row[1:] for row in lap[1:]]
    det, rest = divmod(abs(bareiss(m)) * scale, scale ** len(m))
    assert not rest
    return det


def traced_memory(call, *args):
    """(kept, peak): the bytes call(*args) still holds when it returns,
    its result included, and the most it held at once, as tracemalloc
    counts them."""
    tracemalloc.start()
    try:
        result = call(*args)  # held until kept is read
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept, peak


def executed_opcodes(call, *args):
    """How many bytecodes call(*args) executed, counted by sys.settrace
    with f_trace_opcodes set on every frame it opens.  Work done in C,
    such as sorted, json.loads or list.index, counts as the one opcode
    that calls it, and counts differ between CPython versions."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        elif event == "call":
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return tracer

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        call(*args)
    finally:
        sys.settrace(outer)
    return count


def from_rows(rows, axes):
    """The diagram of label rows, four per crossing, and under_axis bits,
    read through JSON, which keeps slot order and axes as given and so
    keeps dart numbering."""
    return LinkDiagram.from_json(
        json.dumps({"crossings": rows, "under_axis": axes})
    )


def rows_of(d):
    """A diagram's label rows and under_axis bits, as to_json prints them."""
    data = json.loads(d.to_json())
    return data["crossings"], data["under_axis"]


def relabel(slot_lists, axes):
    """Build a LinkDiagram from arbitrary hashable arc ids.

    Helper for programmatic constructions; ids are renumbered 1..2n in
    first-seen order.
    """
    order = {}
    out = []
    for slots in slot_lists:
        row = []
        for a in slots:
            if a not in order:
                order[a] = len(order) + 1
            row.append(order[a])
        out.append(row)
    return from_rows(out, axes)


def random_tree_text(rng, max_nodes=6, lo=2, hi=4, signed=True):
    """Weighted planar tree with 1..max_nodes vertices as text."""
    n = rng.randint(1, max_nodes)

    def weight():
        w = rng.randint(lo, hi)
        return -w if signed and rng.random() < 0.5 else w

    def grow(budget):
        kids = []
        while budget[0] > 0 and rng.random() < 0.55:
            budget[0] -= 1
            kids.append(grow(budget))
        inner = "".join(" " + k for k in kids)
        return f"({weight()}{inner})"

    return grow([n - 1])


def random_braid_text(rng, max_syllables=4, exps=(-3, -2, 2, 3)):
    n = rng.randint(1, max_syllables)
    parts = []
    for _ in range(n):
        g = rng.choice([1, 2])
        e = rng.choice(exps)
        parts.append(f"s{g}^{e}")
    return " ".join(parts)


def seeded(seed):
    return random.Random(seed)


def connected_sum(rng, a, b):
    """Cut one arc of each diagram and join the four ends crosswise."""
    x = ("a", rng.randrange(1, 2 * len(a) + 1))
    y = ("b", rng.randrange(1, 2 * len(b) + 1))
    (rows_a, axes_a), (rows_b, axes_b) = rows_of(a), rows_of(b)
    rows = [[("a", s) for s in row] for row in rows_a]
    rows += [[("b", s) for s in row] for row in rows_b]
    ends = {x: [], y: []}
    for row in rows:
        for k, s in enumerate(row):
            if s in ends:
                ends[s].append((row, k))
    rng.shuffle(ends[y])
    (_, (r1, k1)), ((r2, k2), (r3, k3)) = ends[x], ends[y]
    r1[k1] = r3[k3] = "cut"
    r2[k2] = x
    return relabel(rows, axes_a + axes_b)


def unreduced_inputs(n):
    """Braid closures, trees with weights +-1..+-3, and connected sums
    of small trees, which is where parallel side edges mostly arise."""
    rng = seeded(11)

    def tree(max_nodes):
        text = random_tree_text(rng, max_nodes, lo=1, hi=3)
        return generate_diagram(parse_tree(text))

    for i in range(n):
        try:
            if i % 4 == 0:
                word = random_braid_text(rng, 6, exps=(-3, -2, -1, 1, 2, 3))
                yield braid_to_diagram(parse_braid(word))
            elif i % 4 == 1:
                yield tree(7)
            else:
                d = tree(4)
                for _ in range(rng.randint(1, 3)):
                    d = connected_sum(rng, d, tree(4))
                yield d
        except FoliarError:
            continue
