import pytest

from foliar import (
    Status,
    build_tait,
    check_main,
    check_tait,
    contract,
    make_pretzel_pd,
    parse_pd,
)
from foliar.criterion import reshaped
from foliar.errors import InternalError

from conftest import GRANNY3, SQUARE_KNOT


def test_build_trefoil(trefoil):
    g, r = build_tait(trefoil)
    assert [(e.u, e.v, e.signed) for e in g.edges] == [
        (0, 2, 1),
        (0, 2, 1),
        (0, 2, 1),
    ]
    assert sorted((e.u, e.v, e.signed) for e in r.edges) == [
        (1, 3, -1),
        (1, 4, -1),
        (3, 4, -1),
    ]
    assert r.all_bivalent()
    assert g.signed_sum() == 3


def test_one_edge_per_crossing_per_color(fig8):
    g, r = build_tait(fig8)
    assert len(g.edges) == len(fig8.crossings)
    assert len(r.edges) == len(fig8.crossings)
    assert sorted(e.source for e in g.edges) == [0, 1, 2, 3]


def test_contract_fig8(fig8):
    g, r = build_tait(fig8)
    for tg in (g, r):
        c = contract(tg)
        assert c.chain_weights == (2,)
        assert c.merged_weights == (2,)
        assert c.dropped_families == 0
        assert c.is_tree()
    assert contract(g).vertices == (0, 2)
    assert contract(r).vertices == (1, 4)


def test_contract_refuses_all_bivalent(trefoil):
    g, r = build_tait(trefoil)
    with pytest.raises(InternalError):
        contract(r)


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
        g, r = build_tait(d)
        for tg in (g, r):
            c = contract(tg)
            assert sorted(c.chain_weights + c.merged_weights) == expected


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
