import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from foliar import (
    Slope,
    augment,
    circles_from_counts,
    classify_borromean,
    generate_diagram,
    parse_pd,
    parse_tree,
    plan_configurations,
    verify_plan,
)
from foliar.criterion import normal_form
from foliar.errors import InputError, MalformedToken, Unsatisfiable, ZeroK
from foliar.surgery import (
    CrossingCircle,
    Interval,
    Plan,
    _allowed,
    realized_interval,
)

from conftest import (
    CANCELLING_COLUMNS,
    FIG8,
    GRANNY3,
    HOPF,
    KINK,
    SQUARE_KNOT,
    TREFOIL,
)


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


def test_realized_intervals_frozen():
    assert realized_interval("a") == Interval(-1, 1)
    assert realized_interval("b") == Interval(None, None)
    assert realized_interval("c") == Interval(-1, None)
    assert realized_interval("d") == Interval(None, 1)
    assert realized_interval("odd", k=2) == Interval(-1, None)
    assert realized_interval("odd", k=-2) == Interval(None, 1)


def test_augment_fig8():
    circles = augment(parse_pd(FIG8))
    assert [(c.region, c.count, c.k) for c in circles] == [
        (0, 2, 1),
        (1, 2, -1),
    ]
    assert [c.coefficient for c in circles] == [Fraction(1), Fraction(-1)]


def test_augment_coefficient_table():
    for count in range(2, 10):
        ks = {}
        for sign in (1, -1):
            d = generate_diagram(parse_tree(f"({sign * count})"))
            if count % 2:
                circles = augment(d)
            else:  # an even closed chain is a link: read its normal form
                with pytest.raises(InputError, match=r"^NotAKnot\(2\)"):
                    augment(d)
                circles = circles_from_counts(normal_form(d)[0].vertices)
            assert len(circles) == 1
            c = circles[0]
            assert c.count == count
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
    assert circles[0] == (0, 3, 1, Slope(1, 1))
    assert repr(circles[1]) == (
        "CrossingCircle(region=1, count=5, k=2, coefficient=Slope(1/2))"
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


# the even interval table on the mirror image: each bound negated, so
# c and d swap; the odd intervals follow the sign of k and stay
MIRRORED_INTERVALS = {
    "a": Interval(-1, 1),
    "b": Interval(None, None),
    "c": Interval(None, 1),
    "d": Interval(-1, None),
}


def _interval(config, k, flipped):
    if flipped and config != "odd":
        return MIRRORED_INTERVALS[config]
    return realized_interval(config, k)


def ref_plan_configurations(circles):
    """The planner as a search: every strong distinguished circle, every
    other circle as secondary from the last one down, on the interval
    table and then on its mirror image, returning the first choice that
    fits every circle; a choice that fits only mirrored comes back as
    ("flipped", plan), which no planner result equals."""
    n = len(circles)
    if n == 0:
        raise Unsatisfiable("no crossing circles")
    strong = [
        i
        for i, c in enumerate(circles)
        if (c.count % 2 == 0 and abs(c.k) >= 2)
        or (c.count % 2 == 1 and c.count >= 3)
    ]
    if not strong:
        raise Unsatisfiable(
            "no circle has an even count >= 4 or an odd count >= 3"
        )
    failures = []
    for dist in strong:
        secondaries = [i for i in reversed(range(n)) if i != dist] or [dist]
        for sec in secondaries:
            for flipped in (False, True):
                assignment = []
                for i, c in enumerate(circles):
                    fits = [
                        config
                        for config in _allowed(i, c, dist, sec, n)
                        if _interval(config, c.k, flipped).contains(
                            c.coefficient
                        )
                    ]
                    if not fits:
                        failures.append(
                            f"circle {i} (k={c.k}) fits none of "
                            f"{_allowed(i, c, dist, sec, n)}"
                            f"{' flipped' if flipped else ''}"
                        )
                        break
                    assignment.append(fits[0])
                else:
                    plan = Plan(tuple(assignment), dist, sec)
                    return ("flipped", plan) if flipped else plan
    raise Unsatisfiable("; ".join(failures[:4]) or "no assignment found")


def _plan_or_refusal(planner, circles):
    try:
        return planner(circles)
    except Unsatisfiable as exc:
        return str(exc)


def _fixture_circle_lists():
    for text in (TREFOIL, FIG8, HOPF, SQUARE_KNOT, GRANNY3, CANCELLING_COLUMNS):
        for d in (parse_pd(text), parse_pd(text).mirror()):
            try:
                yield augment(d)
            except InputError:
                pass
    for counts in (
        [4, 4, 6], [3, 4], [3], [2], [2, 2, 2], [3, 5, -4, 3, 4, -5], [-2, 4],
    ):
        yield circles_from_counts(counts)
    for length in range(1, 6):
        for counts in itertools.combinations_with_replacement(
            range(2, 10), length
        ):
            yield circles_from_counts(list(counts))


def test_planner_equals_the_search_on_every_fixture():
    seen = 0
    for circles in _fixture_circle_lists():
        assert _plan_or_refusal(plan_configurations, circles) == (
            _plan_or_refusal(ref_plan_configurations, circles)
        ), circles
        seen += 1
    assert seen > 1286


def test_planner_equals_the_search_on_seeded_circle_lists():
    rng = random.Random(7)
    compared = planned = 0
    while compared < 20000:
        counts = [
            rng.choice((-1, 1)) * rng.randint(1, 11)
            for _ in range(rng.randint(1, 8))
        ]
        try:
            circles = circles_from_counts(counts)
        except ZeroK:  # a count of 1 has no full twist
            continue
        got = _plan_or_refusal(plan_configurations, circles)
        assert got == _plan_or_refusal(ref_plan_configurations, circles), (
            counts
        )
        if isinstance(got, Plan):
            assert verify_plan(circles, got), counts
            planned += 1
        compared += 1
    assert planned > 15000


def test_a_circle_whose_fields_disagree_is_unsatisfiable():
    # k = 2 makes circle 0 distinguished, allowed only a, but its
    # coefficient 1 lies outside (-1, 1)
    circles = [CrossingCircle(0, 4, 2, Slope(1)), *circles_from_counts([4])]
    with pytest.raises(Unsatisfiable) as exc:
        plan_configurations(circles)
    assert str(exc.value) == "circle 0 (k=2) fits none of ('a',)"
    # the search went on to distinguish circle 1 and put c on circle 0
    assert ref_plan_configurations(circles) == Plan(("c", "a"), 1, 0)


def _broken(counts, **change):
    """A plan for the circles of counts, with the fields in change
    replaced; the plan verifies before the change."""
    circles = circles_from_counts(counts)
    plan = plan_configurations(circles)
    assert verify_plan(circles, plan)
    return circles, dataclasses.replace(plan, **change)


@pytest.mark.parametrize(
    "circles, plan",
    [
        # one assignment too few
        _broken([4, 4, 6], assignments=("a", "b")),
        # distinguished, then secondary, out of range
        _broken([4, 4, 6], distinguished=3),
        _broken([4, 4, 6], secondary=-1),
        # both cusps on one circle while there are three
        _broken([4, 4, 6], secondary=0),
        # a ride-along circle may take only b
        _broken([4, 4, 6], assignments=("a", "a", "c")),
        # k = -1 on c: (-1, oo) misses -1 at its lower end
        _broken([4, 4, -2], assignments=("a", "b", "c")),
        # k = 1 on d: (-oo, 1) misses 1 at its upper end
        _broken([4, 4, 2], assignments=("a", "b", "d")),
        # an odd circle may take only odd
        _broken([3, 4], assignments=("a", "c")),
        # a lone even circle with |k| < 2 distinguished
        (circles_from_counts([2]), Plan(("c",), 0, 0)),
        # a lone odd circle of count 1 distinguished
        (
            [circles_from_counts([3])[0]._replace(count=1)],
            plan_configurations(circles_from_counts([3])),
        ),
        # no coefficient 1/k for k = 0
        ([CrossingCircle(0, 4, 0, Slope(1, 0))], Plan(("a",), 0, 0)),
    ],
)
def test_verify_plan_refuses_a_broken_plan(circles, plan):
    assert verify_plan(circles, plan) is False


def test_plan_json():
    plan = plan_configurations(circles_from_counts([4, 4, 6]))
    out = json.loads(plan.to_json())
    assert out == {
        "assignments": ["a", "b", "c"],
        "distinguished": 0,
        "secondary": 2,
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
