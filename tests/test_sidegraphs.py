import pytest

from foliar import (
    braid_to_diagram,
    build_side_graphs,
    check_main,
    check_tait,
    collapse,
    connectivity_report,
    normalize_assumption2,
    parse_braid,
    parse_pd,
    reduce_assumption1,
)
from foliar._planar import strands, two_color
from foliar.criterion import normal_form
from foliar.sidegraphs import GREEN, RED
from foliar.twists import CollapsedGraph
from foliar.errors import (
    DegenerateCollapse,
    FoliarError,
    NonSphericalEmbedding,
)

from conftest import (
    CANCELLING_COLUMNS,
    GRANNY3,
    ref_two_color,
    trace_faces,
    unreduced_inputs,
)


def test_two_coloring_fig8(fig8):
    coloring = two_color(fig8)
    assert coloring[0] == GREEN
    for fi, face in enumerate(fig8.faces):
        for c in face:
            v, gap = c >> 2, c & 3
            opp = fig8.face_at[4 * v + (gap + 1) % 4]
            assert coloring[opp] != coloring[fi]


def test_two_coloring_matches_the_dart_reference():
    maps = 0
    for d in unreduced_inputs(200):
        assert two_color(d) == ref_two_color(d), d.to_pd()
        maps += 1
        try:
            cg = collapse(reduce_assumption1(d))
        except FoliarError:
            continue
        assert two_color(cg) == ref_two_color(cg), d.to_pd()
        maps += 1
    assert maps >= 300


def test_side_graphs_fig8(fig8):
    cg = collapse(fig8)
    g, r = build_side_graphs(cg)
    assert g.color == GREEN and r.color == RED
    assert list(zip(g.u, g.v, g.signed)) == [(0, 2, 2)]
    assert list(zip(r.u, r.v, r.signed)) == [(1, 3, -2)]
    # the edges are regions 0 and 1: their side faces on a fresh trace
    _, face_at = trace_faces(4 * len(cg), cg.alpha)
    sides = [sorted((face_at[4 * i + 1], face_at[4 * i + 3])) for i in (0, 1)]
    assert sides == [[0, 2], [1, 3]]
    assert cg.vertices == [2, -2]
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
    assert sorted(abs(w) for w in out.vertices) == [3, 3, 3]
    assert g.weights() == (3, 3, 3)
    assert r.weights() == ()


# a braid closure knot whose first merging round smooths out the parallel
# pair -2, 2 whole, and whose second merges 3 and 2
ZERO_SUM_KNOT = (
    "X[1,2,3,4] X[2,5,6,3] X[7,6,8,9] X[9,8,10,11] X[11,10,12,13] "
    "X[5,14,15,12] X[13,15,16,17] X[17,16,18,7] X[18,14,19,20] "
    "X[20,19,21,22] X[22,21,23,24] X[24,23,25,26] X[25,27,28,26] "
    "X[27,29,4,28] X[30,30,1,29]"
)


def test_normalize_drops_zero_sum_family():
    cg = collapse(reduce_assumption1(parse_pd(ZERO_SUM_KNOT)))
    assert list(cg.vertices) == [-2, 3, 1, 2, 2, 1]
    out, g, r = normalize_assumption2(cg)
    assert list(out.vertices) == [5, 1, 1]


def test_merging_that_closes_a_strand_raises():
    # smoothing a zero-sum family of a link can leave a strand with no
    # crossings; it is a piece of its own, not a strand to drop
    for d in (
        parse_pd(CANCELLING_COLUMNS),
        braid_to_diagram(parse_braid(
            "s2^-2 s1^3 s2^-1 s1^-2 s1^-2 s1^1 s2^3 s3^3 s2^-1", 4
        )),
    ):
        assert d.component_count() == 2
        with pytest.raises(NonSphericalEmbedding) as exc:
            normal_form(d)
        assert str(exc.value) == "merging splits the link into 2 pieces"


def test_normalize_degenerate_raises():
    # two twist boxes in a cycle sharing both side faces; their signed
    # counts cancel so the merge empties the graph
    # darts 0-5, 1-4, 2-7 and 3-6 paired
    alpha = [5, 4, 7, 6, 1, 0, 3, 2]
    cg = CollapsedGraph([2, -2], alpha, strands(alpha)[2])
    g, r = build_side_graphs(cg)
    assert list(zip(g.u, g.v, g.signed)) == [(0, 2, 2), (0, 2, -2)]
    with pytest.raises(DegenerateCollapse):
        normalize_assumption2(cg)


# a four-component link whose merge smooths it into two pieces
SPLIT_BY_MERGING = (
    "X[1,2,3,3] X[4,5,6,2] X[5,7,8,6] X[7,9,10,8] X[11,12,13,14] "
    "X[12,11,15,13] X[9,15,16,17] X[17,16,14,18] X[10,18,19,20] "
    "X[20,19,21,22] X[22,21,4,1]"
)


def test_normalize_split_raises():
    d = parse_pd(SPLIT_BY_MERGING)
    with pytest.raises(NonSphericalEmbedding) as exc:
        normalize_assumption2(collapse(reduce_assumption1(d)))
    assert str(exc.value) == "merging splits the link into 2 pieces"
    assert check_main(d).reasons == ("NotAKnot(4)",)
    assert check_tait(d).reasons == ("NotAKnot(4)",)


def test_side_graph_dot_smoke(fig8):
    g, r = build_side_graphs(collapse(fig8))
    assert "--" in g.to_dot()
