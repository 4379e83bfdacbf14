"""Checkerboard graph route to the same certificate.

Each crossing contributes one edge to the graph of either face colour,
joining the two same-coloured faces across it.  Its signed weight is +1
when sweeping the over strand counterclockwise onto the under strand
crosses the gaps holding that graph's faces, so a twist region shows up
as equal-signed parallel edges in the graph of its side colour and as a
path through bivalent vertices in the other.  Both graphs are FaceGraphs
of the sidegraphs module, listed in one pass over the crossings; a
face's degree, counted from the edge ends, is its corner count.  Apart
from the type II cancellation it starts from, the route reads no twist
region, so it stays an independent check of the main route.

Evaluating a graph: maximal runs of bivalent vertices are removed,
each run of j vertices recording a twist weight j + 1; the surviving
parallel families merge to |sum of signed weights|.  The graph
certifies when every recorded weight is at least 2, some weight is at
least 3, and what remains after removal and merging is a tree.  The
diagram certifies only when both graphs do, as the paper asks every
twist region to have at least two crossings: a one-crossing region
records weight 1 in one graph only, as the other counts its crossing
into a longer run, and the collapsed-graph route fails the same region
as WeightTooSmall(count=1).  A failing verdict gives the green graph's
reasons, or the red graph's when the green graph certifies.
"""

from collections import Counter

from ._planar import find, two_color
from .criterion import Status, Verdict, weight_reasons
from .errors import InternalError
from .sidegraphs import FaceGraph, face_graphs
from .twists import reduce_assumption1


def build_tait(d):
    """The (green, red) checkerboard graphs of d, edges in crossing order,
    so both graphs share range(len(d)) as their source.

    Crossing ci joins the faces at its gaps 0 and 2 in the graph of
    their colour, with weight +1 when its under_axis is 1, and the faces
    at its gaps 1 and 3 in the other graph, with the opposite weight.
    """
    coloring = two_color(d)
    face_at = d.face_at
    source = range(len(d))  # each crossing has an edge of each colour
    edges = [[], [], [], source], [[], [], [], source]  # u, v, signed, source
    rows = zip(face_at[0::4], face_at[1::4], face_at[2::4], face_at[3::4],
               d.axes)
    for ci, (a, b, c, e, axis) in enumerate(rows):
        x = coloring[a]
        if coloring[c] != x or coloring[b] == x or coloring[e] == x:
            raise InternalError(f"tait edges of {ci} join two colours")
        s = 1 if axis else -1
        u, v, signed, _ = edges[x]
        u.append(a if a < c else c)
        v.append(c if a < c else a)
        signed.append(s)
        u, v, signed, _ = edges[x ^ 1]
        u.append(b if b < e else e)
        v.append(e if b < e else b)
        signed.append(-s)
    return face_graphs("tait", coloring, edges)


def _degrees(g):
    """The number of edge ends at each face of g, in a list by face."""
    deg = [0] * (max(g.vertices) + 1)
    for f in g.u:
        deg[f] += 1
    for f in g.v:
        deg[f] += 1
    return deg


def _bivalent(g):
    """Whether every face of g has degree 2; only a graph with as many
    edges as faces has its degrees counted."""
    return len(g.u) == len(g.vertices) == _degrees(g).count(2)


def contract(g):
    """(chain_weights, merged): remove the bivalent runs of g, each run
    of j faces recording a weight j + 1, and merge the parallel families
    of the surviving faces into a FaceGraph with one edge per family of
    nonzero sum, of weight |sum| and source -1."""
    bigon = [k == 2 for k in _degrees(g)]
    vertices = g.vertices
    bivalent = [f for f in vertices if bigon[f]]
    if len(bivalent) == len(vertices):
        raise InternalError("contract called on an all-bivalent graph")
    parent = dict(zip(bivalent, bivalent))  # runs of bivalent faces
    families = {}  # signed sum per pair of surviving faces
    for u, v, s in zip(g.u, g.v, g.signed):
        if bigon[u]:
            if bigon[v]:
                ru, rv = find(parent, u), find(parent, v)
                parent[rv] = ru
        elif not bigon[v]:
            pair = u, v
            families[pair] = families.get(pair, 0) + s
        # an edge with one bivalent end is consumed by that end's run
    runs = Counter([find(parent, v) for v in bivalent])
    chain_weights = tuple(sorted([n + 1 for n in runs.values()]))
    pairs = sorted([pair for pair, s in families.items() if s])
    return chain_weights, FaceGraph(
        g.kind, g.color, [f for f in vertices if not bigon[f]],
        [u for u, _ in pairs], [v for _, v in pairs],
        [abs(families[pair]) for pair in pairs],
        [-1] * len(pairs),  # a family has no single crossing
    )


def _dk_value(green, red):
    gb, rb = _bivalent(green), _bivalent(red)
    if not (gb or rb):
        return None
    # a single looped vertex is the parallel side of a one-crossing curl;
    # otherwise the all-bivalent graph is the cycle side and the twist
    # count is read off the other graph
    if gb and len(green.vertices) == 1:
        return sum(green.signed)
    if rb and len(red.vertices) == 1:
        return sum(red.signed)
    if gb:
        return sum(red.signed)
    return sum(green.signed)


def check_tait(d):
    comps = d.component_count()
    if comps != 1:
        return Verdict(Status.HYPOTHESES_FAIL, (f"NotAKnot({comps})",))
    d = reduce_assumption1(d)
    green, red = build_tait(d)
    k = _dk_value(green, red)
    if k is not None:
        reasons = (f"DkDiagram({k})",)
        return Verdict(Status.EXCLUDED, reasons, (abs(k),), (), 1)
    results = []
    for g in (green, red):
        chain_weights, merged = contract(g)
        weights = tuple(sorted(chain_weights + merged.weights()))
        name = g.color_name
        reasons = weight_reasons(weights, lambda i, w: f"{name},weight={w}")
        if not merged.is_tree():
            reasons.append(f"NotContractible({name})")
        results.append((weights, tuple(reasons)))
    (weights_green, reasons_green), (weights_red, reasons_red) = results
    reasons = reasons_green or reasons_red
    return Verdict(
        Status.HYPOTHESES_FAIL if reasons else Status.CERTIFIED,
        reasons,
        weights_green,
        weights_red,
        len(weights_green),
    )
