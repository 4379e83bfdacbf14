import json

import pytest

from foliar import (
    Status,
    braid_to_diagram,
    check_main,
    check_tait,
    collapse,
    diagnose,
    generate_diagram,
    make_pretzel_pd,
    parse_braid,
    parse_pd,
    parse_tree,
)
from foliar.criterion import detect_dk, normal_form

from foliar.errors import FoliarError, InputError

from conftest import (
    CANCELLING_COLUMNS,
    FIG8,
    GRANNY3,
    HOPF,
    SQUARE_KNOT,
    TREFOIL,
    fox_determinant,
    goeritz_determinant,
    random_tree_text,
    seeded,
    unreduced_inputs,
)


def test_trefoil_excluded_as_closed_twist(trefoil):
    v = check_main(trefoil)
    assert v.status == Status.EXCLUDED
    assert v.reasons == ("DkDiagram(3)",)
    assert v.weights_green == (3,)
    assert v.weights_red == ()
    assert v.twist_regions == 1


def test_mirror_trefoil_sign(trefoil):
    v = check_main(trefoil.mirror())
    assert v.reasons == ("DkDiagram(-3)",)


def test_kink_excluded(kink):
    v = check_main(kink)
    assert v.status == Status.EXCLUDED
    assert v.reasons == ("DkDiagram(1)",)


def test_fig8_fails_weight(fig8):
    v = check_main(fig8)
    assert v.status == Status.HYPOTHESES_FAIL
    assert v.reasons == ("NoWeightAboveTwo",)
    assert v.weights_green == (2,)
    assert v.weights_red == (2,)
    assert v.twist_regions == 2


def test_hopf_not_a_knot(hopf):
    v = check_main(hopf)
    assert v.status == Status.HYPOTHESES_FAIL
    assert v.reasons == ("NotAKnot(2)",)


def test_link_verdict_runs_no_twist_detection(hopf):
    # a link fails before any region is read, with the same verdict on
    # both routes: no region count
    assert check_main(hopf) == check_tait(hopf)
    assert check_main(hopf).twist_regions == 0
    assert hopf._regions is None


def test_flat_pretzel_fails_connectivity():
    v = check_main(make_pretzel_pd([-2, 3, 7]))
    assert v.status == Status.HYPOTHESES_FAIL
    assert v.reasons == ("Disconnected(red)",)
    assert v.weights_green == (2, 3, 7)
    assert v.twist_regions == 3


def test_square_knot_certified():
    v = check_main(parse_pd(SQUARE_KNOT))
    assert v.status == Status.CERTIFIED
    assert v.weights_green == (3,)
    assert v.weights_red == (3,)
    assert not v.detail["reduced"] and not v.detail["merged"]


def test_three_sum_merges_and_certifies():
    v = check_main(parse_pd(GRANNY3))
    assert v.status == Status.CERTIFIED
    assert v.weights_green == (3, 3, 3)
    assert v.weights_red == ()
    assert v.detail["merged"] and not v.detail["reduced"]
    assert v.twist_regions == 3


def test_fox_determinant_of_small_knots(trefoil, fig8):
    assert (fox_determinant(trefoil), fox_determinant(fig8)) == (3, 5)


def test_goeritz_readings_equal_the_fox_determinant():
    # the determinant read through either colour's Goeritz matrix, off
    # the diagram under its strand-walk colour bits and off its normal
    # form, whose faces are searched: the colourings, the side faces and
    # the signs must all be right, and normalising must keep the knot
    texts = [TREFOIL, FIG8, SQUARE_KNOT, GRANNY3, CANCELLING_COLUMNS]
    knots = 0
    for d in [parse_pd(t) for t in texts] + list(unreduced_inputs(400)):
        if d.component_count() != 1:
            continue
        det = fox_determinant(d)
        hands = [1 - 2 * a for a in d.axes]
        assert goeritz_determinant(d, hands, 0) == det, d.to_pd()
        assert goeritz_determinant(d, hands, 1) == det, d.to_pd()
        try:
            cg = normal_form(d)[0]
        except FoliarError:
            continue
        assert goeritz_determinant(cg, cg.vertices, 0) == det, d.to_pd()
        assert goeritz_determinant(cg, cg.vertices, 1) == det, d.to_pd()
        knots += 1
    assert knots == 166


@pytest.mark.parametrize(
    "merged, summed, green, red, det",
    [
        ("(3 (2 (2 (-2) (1))))", "(3 (2 (3 (-2))))", (3, 3), (2, 2), 41),
        ("(-3 (-3 (-3 (-3) (1))))", "(-3 (-3 (-2 (-3))))", (2, 3), (3, 3), 79),
        ("(-3 (-3 (-3 (3) (1))))", "(-3 (-3 (-2 (3))))", (2, 3), (3, 3), 59),
    ],
)
def test_cancelled_family_leaves_the_merged_tree(
    merged, summed, green, red, det
):
    # the second tree folds the unit leaf into its parent; a removed
    # region is smoothed out, not spliced along its strands, so both
    # reach the same normal form
    want_d = generate_diagram(parse_tree(summed))
    want = check_main(want_d)
    assert (want.status, want.weights_green, want.weights_red) == (
        Status.CERTIFIED,
        green,
        red,
    )
    got_d = generate_diagram(parse_tree(merged))
    got = check_main(got_d)
    assert (got.status, got.weights_green, got.weights_red) == (
        want.status,
        want.weights_green,
        want.weights_red,
    )
    # both trees give the same knot
    assert fox_determinant(got_d) == fox_determinant(want_d) == det


def test_small_weight_reason():
    # three-summand join where the middle summand is mirrored; the joining
    # strand cuts it into regions of one and two crossings that are not
    # parallel, so the count-one region survives and fails the bound
    pd = (
        "X[7,4,2,5] X[3,6,4,1] X[5,2,6,3] "
        "X[10,8,11,7] X[12,10,1,9] X[13,12,9,11] "
        "X[8,16,14,17] X[15,18,16,13] X[17,14,18,15]"
    )
    v = check_main(parse_pd(pd))
    assert v.status == Status.HYPOTHESES_FAIL
    assert v.reasons == ("WeightTooSmall(region=1,count=1)",)
    assert v.weights_green == (1, 3, 3)
    assert v.weights_red == (2,)


def test_reduction_feeds_pipeline():
    d = braid_to_diagram(parse_braid("s1^4 s1^-1"))
    v = check_main(d)
    assert v.status == Status.EXCLUDED
    assert v.reasons == ("DkDiagram(3)",)
    assert v.detail["reduced"]


def test_detail_holds_only_the_reshaping_flags(fig8):
    reduced = braid_to_diagram(parse_braid("s1^4 s1^-1"))
    cases = [
        (fig8, {"reduced": False, "merged": False}),
        (reduced, {"reduced": True, "merged": False}),
        (parse_pd(GRANNY3), {"reduced": False, "merged": True}),
    ]
    for d, detail in cases:
        assert check_main(d).detail == detail
        assert normal_form(d)[0].vertices  # the graphs live on the diagram
    # a link is judged before cancellation, so nothing reshaped it
    assert check_main(parse_pd(HOPF)).detail == {
        "reduced": False, "merged": False
    }


def test_detect_dk(trefoil, fig8):
    assert detect_dk(collapse(trefoil)) == 3
    assert detect_dk(collapse(fig8)) is None


def test_verdict_json_shape(fig8):
    v = check_main(fig8)
    out = json.loads(v.to_json())
    assert set(out) == {
        "status",
        "reasons",
        "weights_g",
        "weights_r",
        "twist_regions",
    }
    assert out["status"] == "fail"
    assert out["weights_g"] == [2]


def test_diagnose_fig8(fig8):
    dg = diagnose(fig8)
    assert dg.branch == "two_crossing_circles"
    assert dg.surfaces == 4
    assert dg.twist_counts == (2, 2)
    assert dg.borromean_family


def test_diagnose_trefoil(trefoil):
    dg = diagnose(trefoil)
    assert dg.branch == "closed_twist"
    assert dg.surfaces == 3
    assert not dg.borromean_family


def test_diagnose_pretzel():
    dg = diagnose(make_pretzel_pd([-2, 3, 7]))
    assert dg.branch == "main_construction"
    assert dg.surfaces == 5
    assert dg.twist_counts == (2, 3, 7)


def test_diagnose_link_with_a_kept_normal_form_has_no_branch():
    # validating the tree normalises its diagram although it is a link
    d = generate_diagram(parse_tree("(2)"))
    assert d.component_count() == 2
    dg = diagnose(d)
    assert (dg.branch, dg.surfaces, dg.twist_counts) == ("none", 0, ())
    assert dg.verdict.reasons == ("NotAKnot(2)",)


def test_diagnose_json_round_trip(fig8):
    out = json.loads(diagnose(fig8).to_json())
    assert out["branch"] == "two_crossing_circles"
    assert out["verdict"]["status"] == "fail"


def test_route_agreement_preconditions():
    # a tree or braid must agree with its diagram unless one of its
    # reasons excuses it
    from foliar.cli import _certify

    def must_agree(kind, text):
        return _certify(kind, text)[2]

    assert must_agree("tree", "(2 (-3))")
    assert not must_agree("tree", "(5)")  # the closed twist chain
    assert not must_agree("tree", "(-1 (-4))")
    assert must_agree("braid", "s1^3 s2^-2")
    assert not must_agree("braid", "s1^3 s3^3 s1^-3 s3^-3 s4^2")
    assert not must_agree("braid", "s1^3 s2 s1^3 s2^-3")
    assert not must_agree("braid", "s1^3 s3^-3 s2^-3")  # four strands


def test_mirroring_keeps_each_routes_status():
    # mirroring flips every crossing, which negates every handedness and
    # twist count, and both routes treat a sign and its negation alike
    knots = []
    rng = seeded(3)
    for _ in range(1500):
        try:
            d = generate_diagram(parse_tree(
                random_tree_text(rng, max_nodes=7, lo=1, hi=4)
            ))
        except FoliarError:
            continue
        if d.component_count() == 1:
            knots.append(d)
    sample = list(unreduced_inputs(400)) + knots
    assert len(sample) == 1231

    def outcome(check, d):
        try:
            return check(d).status
        except InputError as exc:
            return type(exc)

    for d in sample:
        for check in (check_main, check_tait):
            assert outcome(check, d) == outcome(check, d.mirror()), d.to_pd()
