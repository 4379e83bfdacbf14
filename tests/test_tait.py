from collections import Counter

from foliar import (
    Status,
    build_tait,
    check_main,
    check_tait,
    contract,
    generate_diagram,
    make_pretzel_pd,
    parse_pd,
    parse_tree,
)
from foliar.criterion import reshaped

from conftest import GRANNY3, SQUARE_KNOT, trace_faces


def test_build_trefoil(trefoil):
    g, r = build_tait(trefoil)
    assert list(zip(g.u, g.v, g.signed)) == [
        (0, 2, 1),
        (0, 2, 1),
        (0, 2, 1),
    ]
    assert sorted(zip(r.u, r.v, r.signed)) == [
        (1, 3, -1),
        (1, 4, -1),
        (3, 4, -1),
    ]
    # every red face meets two edge ends
    assert Counter(r.u + r.v) == dict.fromkeys(r.vertices, 2)
    assert sum(g.signed) == 3


def test_one_edge_per_crossing_per_color(fig8):
    g, r = build_tait(fig8)
    assert len(g.u) == len(fig8)
    assert len(r.u) == len(fig8)
    # every crossing's faces at gaps 0, 2, then every crossing's at 1, 3,
    # read off a fresh trace; each pair is an edge of the graph of its
    # colour, in that order
    _, face_at = trace_faces(4 * len(fig8), fig8.alpha)
    pairs = [
        tuple(sorted((face_at[4 * ci + k], face_at[4 * ci + k + 2])))
        for k in (0, 1)
        for ci in range(len(fig8))
    ]
    assert list(zip(g.u, g.v)) == [p for p in pairs if p[0] in g.vertices]
    assert list(zip(r.u, r.v)) == [p for p in pairs if p[0] in r.vertices]
    n = len(fig8)
    green = [p[0] in g.vertices for p in pairs]
    assert all(green[ci] != green[ci + n] for ci in range(n))


def test_contract_fig8(fig8):
    k, (green, red) = contract(fig8)
    assert k is None
    for chain_weights, merged in (green, red):
        assert chain_weights == (2,)
        assert merged.signed == [2]
        assert merged.is_tree()
    assert green[1].vertices == (0, 2)
    assert red[1].vertices == (1, 4)


def test_contract_reads_dk_off_an_all_bivalent_graph(trefoil):
    # the trefoil's red graph is a cycle of three bigons
    assert contract(trefoil) == (3, None)
    assert contract(trefoil.mirror()) == (-3, None)


def test_check_tait_trefoil(trefoil):
    v = check_tait(trefoil)
    assert v.status == Status.EXCLUDED
    assert v.reasons == ("DkDiagram(3)",)
    vm = check_tait(trefoil.mirror())
    assert vm.reasons == ("DkDiagram(-3)",)


def test_check_tait_kink(kink):
    v = check_tait(kink)
    assert v.status == Status.EXCLUDED
    assert v.reasons == ("DkDiagram(1)",)


def test_check_tait_fig8(fig8):
    v = check_tait(fig8)
    assert v.status == Status.HYPOTHESES_FAIL
    assert v.reasons == ("NoWeightAboveTwo",)
    assert v.weights_green == (2, 2)
    assert v.weights_red == (2, 2)


def test_check_tait_hopf(hopf):
    v = check_tait(hopf)
    assert v.reasons == ("NotAKnot(2)",)


def test_check_tait_pretzel():
    v = check_tait(make_pretzel_pd([-2, 3, 7]))
    assert v.status == Status.HYPOTHESES_FAIL
    assert v.reasons == ("NotContractible(green)",)
    assert v.weights_green == (2, 3, 7)
    assert v.weights_red == (2, 3, 7)


def test_check_tait_square_knot():
    assert check_tait(parse_pd(SQUARE_KNOT)).status == Status.CERTIFIED


def test_weight_multiset_preserved(fig8):
    # every twist region appears once in each color, either as a chain
    # or as a merged family
    for d, expected in ((fig8, [2, 2]), (parse_pd(SQUARE_KNOT), [3, 3])):
        for chain_weights, merged in contract(d)[1]:
            assert sorted(chain_weights + merged.weights()) == expected


def test_agreement_on_clean_inputs(trefoil, fig8, kink, hopf):
    diagrams = [
        trefoil,
        fig8,
        kink,
        hopf,
        parse_pd(SQUARE_KNOT),
        make_pretzel_pd([-2, 3, 7]),
        make_pretzel_pd([3, 5, 7]),
    ]
    for d in diagrams:
        mv = check_main(d)
        if reshaped(mv):
            continue
        assert check_tait(d).status == mv.status


def test_one_crossing_region_fails_both_routes():
    # the green graph records the one-crossing region as weight 1 while
    # the red graph certifies; both graphs must certify
    d = generate_diagram(parse_tree("(2 (2 (-3) (1)))"))
    mv = check_main(d)
    assert not reshaped(mv)
    assert (mv.status, mv.reasons) == (
        Status.HYPOTHESES_FAIL,
        ("WeightTooSmall(region=3,count=1)",),
    )
    tv = check_tait(d)
    assert (tv.status, tv.reasons) == (
        Status.HYPOTHESES_FAIL,
        ("WeightTooSmall(green,weight=1)",),
    )


def test_merged_input_can_disagree_gracefully():
    # edge merging reshapes this diagram, so the two routes may differ;
    # both must still return a verdict without raising
    d = parse_pd(GRANNY3)
    mv = check_main(d)
    tv = check_tait(d)
    assert reshaped(mv) and mv.detail["merged"]
    assert tv.status in (
        Status.CERTIFIED,
        Status.HYPOTHESES_FAIL,
        Status.EXCLUDED,
    )
