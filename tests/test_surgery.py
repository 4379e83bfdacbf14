import json
from fractions import Fraction

import pytest

from foliar import (
    Interval,
    Slope,
    augment,
    circles_from_counts,
    classify_borromean,
    generate_diagram,
    parse_pd,
    parse_tree,
    plan_configurations,
    realized_interval,
    verify_plan,
)
from foliar.errors import MalformedToken, Unsatisfiable, ZeroK

from conftest import FIG8, KINK


def test_slope_parse_and_normalize():
    assert Slope.parse("3/2") == Slope(3, 2)
    assert Slope.parse("6/4") == Slope(3, 2)
    assert Slope.parse("-7") == Slope(-7, 1)
    assert Slope.parse("0") == Slope(0, 1)
    for text in ("inf", "infty", "infinity"):
        assert Slope.parse(text) == Slope(1, 0)


def test_slope_fraction_and_str():
    assert Slope(3, 2).as_fraction() == Fraction(3, 2)
    assert str(Slope(1, 0)) == "inf"
    assert str(Slope(-7, 2)) == "-7/2"


def test_slope_equals_numbers_and_nothing_else():
    assert Slope(3, 2) == Fraction(3, 2)
    assert Slope(4, 1) == 4 and 4 == Slope(4, 1)
    assert Slope(1, 2) != None  # noqa: E711 -- the comparison under test
    assert Slope(1, 2) not in [None, "1/2", 0.5]
    # a tuple of equal hash is compared, not converted
    assert {Slope(1, 2): 1}.get((1, 2)) is None


@pytest.mark.parametrize("slope", ["1/2", 0.5, None])
def test_slopes_of_no_int_fraction_or_slope_are_malformed(slope):
    # Slope.parse is the way in for text; gcd once raised TypeError here
    with pytest.raises(MalformedToken) as exc:
        classify_borromean(slope, 1, 2)
    assert str(exc.value) == f"slope {slope!r} is no int, Fraction or Slope"
    with pytest.raises(MalformedToken) as exc:
        Slope(1, slope)
    assert str(exc.value) == f"slope denominator {slope!r} is no int"


def test_interval_membership():
    iv = Interval(-1, 1)
    assert iv.contains(Slope(0, 1))
    assert not iv.contains(Slope(1, 1))
    assert not iv.contains(Slope(1, 0))
    assert iv.contains(Slope(-1, 2))
    unbounded = Interval(None, None)
    assert unbounded.contains(Slope(100, 1))
    assert not unbounded.contains(Slope(1, 0))


def test_interval_mirroring():
    assert Interval(-1, None).mirrored() == Interval(None, 1)
    assert Interval(-1, 1).mirrored() == Interval(-1, 1)


def test_realized_intervals_frozen():
    assert realized_interval("a") == Interval(-1, 1)
    assert realized_interval("b") == Interval(None, None)
    assert realized_interval("c") == Interval(-1, None)
    assert realized_interval("d") == Interval(None, 1)
    assert realized_interval("odd", k=2) == Interval(-1, None)
    assert realized_interval("odd", k=-2) == Interval(None, 1)
    # flipping mirrors every interval; a and b are symmetric already
    assert realized_interval("c", flipped=True) == Interval(None, 1)
    assert realized_interval("a", flipped=True) == Interval(-1, 1)


def test_augment_fig8():
    circles = augment(parse_pd(FIG8))
    assert [(c.region, c.count, c.parity, c.k) for c in circles] == [
        (0, 2, 0, 1),
        (1, 2, 0, -1),
    ]
    assert [c.coefficient for c in circles] == [Fraction(1), Fraction(-1)]


def test_augment_coefficient_table():
    for count in range(2, 10):
        ks = {}
        for sign in (1, -1):
            tree = parse_tree(f"({sign * count})")
            circles = augment(generate_diagram(tree))
            assert len(circles) == 1
            c = circles[0]
            assert c.count == count
            assert c.parity == count % 2
            assert abs(c.k) == count // 2
            assert c.coefficient.as_fraction() == Fraction(1, c.k)
            ks[sign] = c.k
        if count == 2:
            # the two-crossing closed chain equals its mirror image up to
            # a quarter turn, so both inputs land on the same convention
            assert ks[1] == ks[-1] == -1
        else:
            # otherwise mirroring the chain negates the coefficient
            assert ks[1] == -ks[-1] == count // 2


def test_crossing_circles_are_tuples_sharing_one_slope_per_k():
    circles = circles_from_counts([3, 5, -4, 3, 4, -5])
    assert circles[0] == (0, 3, 1, 1, Slope(1, 1))
    assert repr(circles[1]) == (
        "CrossingCircle(region=1, count=5, parity=1, k=2, "
        "coefficient=Slope(1/2))"
    )
    assert len({id(c.coefficient) for c in circles}) == 3
    assert circles[1].coefficient is circles[4].coefficient


def test_augment_zero_k():
    with pytest.raises(ZeroK):
        augment(parse_pd(KINK))


def test_plan_anchor_4_4_6():
    circles = circles_from_counts([4, 4, 6])
    plan = plan_configurations(circles)
    assert plan.assignments == ("a", "b", "c")
    assert plan.distinguished == 0
    assert plan.secondary == 2
    assert plan.flipped is False
    assert verify_plan(circles, plan)


def test_plan_anchor_3_4():
    circles = circles_from_counts([3, 4])
    plan = plan_configurations(circles)
    assert plan.assignments == ("odd", "c")
    assert (plan.distinguished, plan.secondary) == (0, 1)
    assert verify_plan(circles, plan)


def test_plan_single_circle():
    circles = circles_from_counts([3])
    plan = plan_configurations(circles)
    assert plan.assignments == ("odd",)
    assert plan.distinguished == plan.secondary == 0
    assert verify_plan(circles, plan)


def test_plan_unsatisfiable():
    with pytest.raises(Unsatisfiable):
        plan_configurations(circles_from_counts([2]))
    with pytest.raises(Unsatisfiable):
        plan_configurations(circles_from_counts([2, 2, 2]))


def test_plan_json():
    plan = plan_configurations(circles_from_counts([4, 4, 6]))
    out = json.loads(plan.to_json())
    assert out == {
        "assignments": ["a", "b", "c"],
        "distinguished": 0,
        "secondary": 2,
        "flipped": False,
    }


def test_classify_borromean_anchors():
    cases = [
        (("1", "1", "1"), "lspace"),
        (("1/2", "3", "5"), "taut_foliation"),
        (("inf", "2", "-3"), "lspace"),
        (("0", "7", "-7"), "taut_foliation"),
        (("inf", "inf", "inf"), "lspace"),
        (("inf", "0", "5"), "out_of_scope"),
    ]
    for slopes, outcome in cases:
        v = classify_borromean(*(Slope.parse(s) for s in slopes))
        assert v.outcome == outcome, slopes


def test_classify_flags():
    v = classify_borromean(Slope(1, 0), Slope(0, 1), Slope(5, 1))
    assert v.has_infinity and v.has_zero
    out = json.loads(v.to_json())
    assert out == {
        "outcome": "out_of_scope",
        "has_infinity": True,
        "has_zero": True,
    }


def test_classify_all_large_negative():
    v = classify_borromean(Slope(-1, 1), Slope(-5, 2), Slope(-9, 1))
    assert v.outcome == "lspace"
