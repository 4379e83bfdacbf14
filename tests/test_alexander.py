"""The Alexander polynomial, an invariant computed outside the package,
checked against the Fox determinant and by hand, then pinned on the
diagrams the package builds and on its type II cancellation.

A link's polynomial depends on the orientation of its components,
which a diagram does not carry and cancellation renumbers, so the
cancellation pin is taken on knots; |polynomial(-1)|, the determinant,
does not depend on it.
"""

import pytest

from foliar import (
    braid_to_diagram,
    generate_diagram,
    make_pretzel_pd,
    parse_braid,
    parse_pd,
    parse_tree,
    reduce_assumption1,
)

from conftest import (
    CANCELLING_COLUMNS,
    FIG8,
    GRANNY3,
    HOPF,
    KINK,
    SQUARE_KNOT,
    TREFOIL,
    alexander,
    cascade,
    fox_determinant,
    unreduced_inputs,
)

SMALL = [d for d in unreduced_inputs(200) if len(d) <= 40]
FIXTURES = [TREFOIL, FIG8, HOPF, KINK, SQUARE_KNOT, GRANNY3,
            CANCELLING_COLUMNS]


def at_minus_one(poly):
    return abs(sum(c if i % 2 == 0 else -c for i, c in enumerate(poly)))


def test_alexander_at_minus_one_is_the_determinant():
    diagrams = [parse_pd(text) for text in FIXTURES] + SMALL
    assert len(SMALL) > 150
    for d in diagrams:
        assert at_minus_one(alexander(d)) == fox_determinant(d), d.to_pd()


@pytest.mark.parametrize("d, poly", [
    (parse_pd(TREFOIL), (1, -1, 1)),
    (parse_pd(FIG8), (1, -3, 1)),
    (braid_to_diagram(parse_braid("s1^5")), (1, -1, 1, -1, 1)),
    (generate_diagram(parse_tree("(3 (2))")), (2, -3, 2)),
    (parse_pd(SQUARE_KNOT), (1, -2, 3, -2, 1)),
    (parse_pd(KINK), (1,)),
], ids=["3_1", "4_1", "5_1", "5_2", "square", "kink"])
def test_alexander_by_hand(d, poly):
    assert alexander(d) == alexander(d.mirror()) == poly


@pytest.mark.parametrize("tree, qs, det", [
    ("(3 (-2) (7))", [-2, 7, 1, 1, 1], 37),
    ("(7 (-2) (3))", [-2, 3] + [1] * 7, 41),
])
def test_a_star_is_a_pretzel_with_its_centre_as_unit_strips(tree, qs, det):
    # the star (c (a2) ... (an)) is P(a2, ..., an, 1, ..., 1), with c
    # strips of 1, as their determinants suggested
    star = generate_diagram(parse_tree(tree))
    pretzel = make_pretzel_pd(qs)
    assert alexander(star) == alexander(pretzel)
    assert fox_determinant(star) == fox_determinant(pretzel) == det


def test_cancellation_keeps_the_alexander_polynomial():
    knots = [d for d in SMALL if d.component_count() == 1] + [cascade(8)]
    shrunk = 0
    for d in knots:
        r = reduce_assumption1(d)
        shrunk += len(r) < len(d)
        assert alexander(r) == alexander(d), d.to_pd()
    assert len(knots[-1]) == 38 and shrunk >= 20
