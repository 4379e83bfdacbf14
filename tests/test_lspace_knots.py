"""No L-space knot certifies.

A certified knot's non-trivial surgeries all contain a coorientable
taut foliation, and a closed 3-manifold with one is not an L-space (P.
Ozsváth and Z. Szabó, "Holomorphic disks and genus bounds", Geom.
Topol. 8, 2004, for C^2 foliations; J. Bowden, 2016, and W. Kazez and
R. Roberts, 2017, for C^0 ones).  So a knot with an L-space surgery
must not certify on any route, in any diagram.  Torus knots are
L-space knots, and so are the pretzels P(-2, 3, q) for odd q (T.
Lidman and A. Moore, "Pretzel knots with L-space surgeries", Michigan
Math. J. 65, 2016); both are built here with their mirror images.  A
knot that certifies here is a soundness defect of the criterion's
implementation, not of this test.
"""

import pytest

from foliar import (
    Status,
    braid_to_diagram,
    check_braid,
    check_main,
    check_tait,
    make_pretzel_pd,
    parse_braid,
)

from conftest import alexander

# T(p, q) as the closure of (s1 ... s_{p-1})^q on p strands
TORUS = [(2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (5, 6)]
PRETZELS = [[-2, 3, 5], [-2, 3, 7], [-2, 3, 9], [-2, 3, 11], [2, -3, -7]]


def _torus_words(p, q):
    """T(p, q)'s braid word and its mirror's, every exponent negated."""
    gens = range(1, p)
    return [" ".join(f"s{g}^{sign}" for _ in range(q) for g in gens)
            for sign in (1, -1)]


def _torus_alexander(p, q):
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), lowest power first, by
    long division of t^(pq+1) - t^pq - t + 1 by t^(p+q) - t^p - t^q + 1."""
    num = [0] * (p * q + 2)
    num[0], num[1], num[-2], num[-1] = 1, -1, -1, 1
    den = [0] * (p + q + 1)
    den[0], den[p], den[q], den[-1] = 1, -1, -1, 1
    quot = [0] * (len(num) - len(den) + 1)
    for i in reversed(range(len(quot))):
        quot[i] = c = num[i + p + q]
        for j, b in enumerate(den):
            num[i + j] -= c * b
    assert not any(num)
    return tuple(quot)


@pytest.mark.parametrize("p, q", TORUS, ids=[f"T({p},{q})" for p, q in TORUS])
def test_torus_knots_have_the_torus_alexander_polynomial(p, q):
    want = _torus_alexander(p, q)
    assert want[0] == want[-1] == 1 and len(want) == (p - 1) * (q - 1) + 1
    for word in _torus_words(p, q):
        assert alexander(braid_to_diagram(parse_braid(word))) == want, word


# an InternalError, or any other exception, fails these tests as well

@pytest.mark.parametrize("p, q", TORUS, ids=[f"T({p},{q})" for p, q in TORUS])
def test_no_torus_knot_certifies(p, q):
    for word in _torus_words(p, q):
        assert check_braid(word).status != Status.CERTIFIED, word
        d = braid_to_diagram(parse_braid(word))
        assert d.component_count() == 1
        for check in (check_main, check_tait):
            assert check(d).status != Status.CERTIFIED, (check, word)


@pytest.mark.parametrize("qs", PRETZELS,
                         ids=[f"P{tuple(q)}" for q in PRETZELS])
def test_no_lspace_pretzel_certifies(qs):
    d = make_pretzel_pd(qs)
    for e in (d, d.mirror()):
        assert e.component_count() == 1
        for check in (check_main, check_tait):
            assert check(e).status != Status.CERTIFIED, (check, e.to_pd())
