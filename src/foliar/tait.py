"""Checkerboard graph route to the same certificate.

Each crossing contributes one edge to the graph of either face colour,
joining the two same-coloured faces across it, at its gaps 0 and 2 or
at its gaps 1 and 3.  Its signed weight is +1 when sweeping the over
strand counterclockwise onto the under strand crosses the gaps holding
that graph's faces, so a twist region shows up as equal-signed parallel
edges in the graph of its side colour and as a path through bivalent
vertices in the other.  The route reads both graphs straight off the
reduced diagram's corners, start and face_at lists, with no list of
edges: a face's degree is its corner count, start[f + 1] - start[f],
so the bivalent vertices are the bigons.  build_tait lists the edges
as FaceGraphs, built by the sidegraphs module's face_graphs at gaps 0
and 1, only for printing and tests.  Apart from the type II
cancellation it starts from, the route reads no twist region, so it
stays an independent check of the main route.

Evaluating a graph: maximal runs of bivalent vertices are removed,
each run of j vertices recording a twist weight j + 1; the surviving
parallel families merge to |sum of signed weights|.  A run is walked
from bigon to bigon across the crossing at each corner k, to the face
at corner k ^ 2, and a family is summed under one int key for its two
faces.  The graph certifies when every recorded weight is at least 2,
some weight is at least 3, and what remains after removal and merging
is a tree.  The diagram certifies only when both graphs do, as the
paper asks every twist region to have at least two crossings: a
one-crossing region records weight 1 in one graph only, as the other
counts its crossing into a longer run, and the collapsed-graph route
fails the same region as WeightTooSmall(count=1).  A failing verdict
gives the green graph's reasons, or the red graph's when the green
graph certifies.  A graph with only bigons is the cycle side of a
D_k diagram, which is excluded with its signed twist count; its 2n
corners make n bigons, so it has one face just when n is 1.  contract
gives both answers as (k, graphs): that count and None for a D_k
diagram, else None and each graph's chain weights and merged graph.
"""

from itertools import compress
from operator import sub

from ._planar import two_color
from .criterion import Status, Verdict, judge, weight_reasons
from .sidegraphs import FaceGraph, face_graphs
from .twists import reduce_assumption1


def build_tait(d):
    """The (green, red) checkerboard graphs of d as FaceGraphs, for
    printing and tests: crossing i joins the faces at its gaps 0 and 2,
    weight +1 when its under_axis is 1, and those at 1 and 3, the
    opposite weight; the gap 0 edges come first."""
    return face_graphs("tait", d, [1 if a else -1 for a in d.axes],
                       ((0, 1), (1, -1)))


def contract(d):
    """(k, graphs) for the checkerboard graphs of a diagram d.

    When a graph has only bigons, k is the D_k diagram's signed twist
    count and graphs is None.  Otherwise k is None and graphs is, for
    the green and then the red graph, (chain_weights, merged): each run
    of j bigons joined across crossings records a weight j + 1, and the
    parallel families of the other faces merge into a FaceGraph with
    one edge per family of nonzero sum, of weight |sum|.
    """
    coloring = two_color(d)
    start, corners, face_at, axes = d.start, d.corners, d.face_at, d.axes
    n = len(axes)  # the edges of either graph: one per crossing
    m = len(coloring)
    bigon = bytearray(map((2).__eq__, map(sub, start[1:], start)))
    vertices = [], []  # the faces of each colour that are no bigons
    for f in compress(range(m), map((0).__eq__, bigon)):
        vertices[coloring[f]].append(f)
    for c in (0, 1):
        if not vertices[c]:  # the cycle side of a D_k diagram
            return _dk_value(d, coloring, c), None
    # the parallel families of both graphs, keyed a * m + b for faces
    # a < b that are no bigons; an edge with a bigon end is in a run
    sums = {}
    for g, sign in ((0, 1), (1, -1)):
        for a, b, x in zip(face_at[g::4], face_at[g + 2::4], axes):
            if bigon[a] or bigon[b]:
                continue
            key = a * m + b if a < b else b * m + a
            sums[key] = sums.get(key, 0) + (sign if x else -sign)
    edges = ([], [], []), ([], [], [])  # u, v, |sum| by colour
    for key in sorted(sums):
        s = sums[key]
        if s:
            a, b = divmod(key, m)
            u, v, w = edges[coloring[a]]
            u.append(a)
            v.append(b)
            w.append(abs(s))
    # each run is a path of bigons; the edge of the crossing at corner k
    # leads to the face at corner k ^ 2, and a bigon is left by its
    # other corner; bigon is cleared as its faces are walked
    chains = [], []
    f = bigon.find(1)
    while f >= 0:
        bigon[f] = 0
        run = 1
        i = start[f]
        for k in corners[i:i + 2]:
            while True:
                e = k ^ 2
                h = face_at[e]
                if not bigon[h]:
                    break
                bigon[h] = 0
                run += 1
                i = start[h]
                k = corners[i] ^ corners[i + 1] ^ e
        chains[coloring[f]].append(run + 1)
        f = bigon.find(1, f + 1)
    return None, tuple([
        (tuple(sorted(chains[c])),
         FaceGraph("tait", c, vertices[c], *edges[c]))
        for c in (0, 1)
    ])


def _dk_value(d, coloring, c):
    """The signed twist count when the graph of colour c has only bigons."""
    # a crossing's edge has opposite weights in the two graphs, and in
    # the green one +1 when its under_axis differs from its gap 0 colour
    green = 2 * sum(map(
        int.__ne__, d.axes, [coloring[a] for a in d.face_at[0::4]]
    )) - len(d.axes)
    # a one-crossing curl's looped vertex is its parallel side; otherwise
    # the all-bivalent graph is the cycle side, read off the other graph
    return green if (c == 0) == (len(d.axes) == 1) else -green


def check_tait(d):
    comps = d.component_count()
    if comps != 1:
        return judge([f"NotAKnot({comps})"])
    k, graphs = contract(reduce_assumption1(d))
    if k is not None:
        reasons = (f"DkDiagram({k})",)
        return Verdict(Status.EXCLUDED, reasons, (abs(k),), (), 1)
    results = []
    for chain_weights, merged in graphs:
        weights = tuple(sorted(chain_weights + merged.weights()))
        name = merged.color_name
        reasons = weight_reasons(weights, lambda i, w: f"{name},weight={w}")
        if not merged.is_tree():
            reasons.append(f"NotContractible({name})")
        results.append((weights, reasons))
    (weights_green, reasons_green), (weights_red, reasons_red) = results
    return judge(reasons_green or reasons_red, weights_green, weights_red,
                 len(weights_green))
