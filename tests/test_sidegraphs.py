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
)
from foliar.twists import CollapsedGraph, CollapsedVertex
from foliar.errors import DegenerateCollapse

from conftest import CANCELLING_COLUMNS, GRANNY3


def test_two_coloring_fig8(fig8):
    coloring = color_faces(fig8)
    assert coloring[0] == GREEN
    for face in fig8.faces:
        for v, gap in face.corners:
            opp = fig8.face_at[(v, (gap + 1) % 4)]
            assert coloring[opp] != coloring[face.index]


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
