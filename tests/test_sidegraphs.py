import pytest

from foliar import (
    GREEN,
    RED,
    build_side_graphs,
    collapse,
    color_faces,
    connectivity_report,
    normalize_assumption2,
    parse_pd,
    reduce_assumption1,
)
from foliar._planar import sigma
from foliar.twists import CollapsedGraph, CollapsedVertex
from foliar.errors import DegenerateCollapse, FoliarError

from conftest import CANCELLING_COLUMNS, GRANNY3, unreduced_inputs


def test_two_coloring_fig8(fig8):
    coloring = color_faces(fig8)
    assert coloring[0] == GREEN
    for face in fig8.faces:
        for c in face.corners:
            v, gap = c >> 2, c & 3
            opp = fig8.face_at[4 * v + (gap + 1) % 4]
            assert coloring[opp] != coloring[face.index]


def ref_two_color(plane):
    """Trace the faces again, recording the face that consumes each dart,
    and two-colour them so the faces on the two sides of a dart differ."""
    faces, dart_face = [], {}
    for start in range(4 * len(plane)):
        if start in dart_face:
            continue
        corners = []
        d = start
        while True:
            dart_face[d] = len(faces)
            e = plane.alpha[d]
            corners.append(e)  # the corner is the dart arrived on
            d = sigma(e)
            if d == start:
                break
        faces.append(tuple(corners))
    assert faces == [f.corners for f in plane.faces]
    adjacent = [set() for _ in faces]
    for d, e in enumerate(plane.alpha):
        adjacent[dart_face[d]].add(dart_face[e])
    color = {}
    for root in range(len(faces)):
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
                assert color[g] != color[f]
    return [color[f] for f in range(len(faces))]


def test_two_coloring_matches_the_dart_reference():
    maps = 0
    for d in unreduced_inputs(200):
        assert color_faces(d) == ref_two_color(d), d.to_pd()
        maps += 1
        try:
            cg = collapse(reduce_assumption1(d))
        except FoliarError:
            continue
        assert color_faces(cg) == ref_two_color(cg), d.to_pd()
        maps += 1
    assert maps >= 300


def test_side_graphs_fig8(fig8):
    cg = collapse(fig8)
    g, r = build_side_graphs(cg)
    assert g.color == GREEN and r.color == RED
    assert [(e.source, e.u, e.v, e.signed) for e in g.edges] == [(0, 0, 2, 2)]
    assert [(e.source, e.u, e.v, e.signed) for e in r.edges] == [(1, 1, 3, -2)]
    assert g.vertices == (0, 2)
    assert r.vertices == (1, 3)
    assert g.weights() == (2,)
    assert r.weights() == (2,)


def test_vertex_split_counts(fig8, trefoil):
    for d in (fig8, trefoil):
        cg = collapse(d)
        g, r = build_side_graphs(cg)
        assert len(g.vertices) + len(r.vertices) == len(cg.vertices) + 2


def test_connectivity_report_fig8(fig8):
    g, r = build_side_graphs(collapse(fig8))
    rep = connectivity_report(g, r)
    assert rep.connected_green and rep.connected_red
    assert g.is_tree() and r.is_tree()


def test_normalize_noop(fig8):
    cg = collapse(fig8)
    out, g, r = normalize_assumption2(cg)
    assert len(out.vertices) == 2
    assert g.weights() == (2,) and r.weights() == (2,)


def test_normalize_merges_parallel_family():
    cg = collapse(parse_pd(GRANNY3))
    assert len(cg.vertices) == 4
    out, g, r = normalize_assumption2(cg)
    assert len(out.vertices) == 3
    assert sorted(v.count for v in out.vertices) == [3, 3, 3]
    assert g.weights() == (3, 3, 3)
    assert r.weights() == ()


def test_normalize_drops_zero_sum_family():
    cg = collapse(parse_pd(CANCELLING_COLUMNS))
    assert len(cg.vertices) == 4
    out, g, r = normalize_assumption2(cg)
    assert sorted(v.count for v in out.vertices) == [1, 1]


def test_normalize_degenerate_raises():
    # two twist boxes in a cycle sharing both side faces; their signed
    # counts cancel so the merge empties the graph
    alpha = {0: 5, 5: 0, 1: 4, 4: 1, 2: 7, 7: 2, 3: 6, 6: 3}
    through = ((0, 3), (1, 2))
    cg = CollapsedGraph(
        [
            CollapsedVertex(0, 2, 1, False, through),
            CollapsedVertex(1, 2, -1, False, through),
        ],
        alpha,
    )
    g, r = build_side_graphs(cg)
    assert [(e.u, e.v, e.signed) for e in g.edges] == [(0, 2, 2), (0, 2, -2)]
    with pytest.raises(DegenerateCollapse):
        normalize_assumption2(cg)


def test_side_graph_dot_smoke(fig8):
    g, r = build_side_graphs(collapse(fig8))
    assert "--" in g.to_dot()
