"""Crossing circles, realizable filling slopes, and exact classification.

All slope arithmetic is exact: slopes are fractions p/q in lowest terms
with 1/0 for infinity, never floats.

A twist region of count c and handedness h becomes a crossing circle
with k = h * (c // 2) full twists and surgery coefficient 1/k; count 1
leaves k = 0 and is rejected.  Each circle's cusp admits a small family
of smoothing configurations, and each configuration realizes an open
interval of slopes on that cusp:

    a: (-1, 1)    b: all finite    c: (-1, oo)    d: (-oo, 1)
    odd circles, k > 0: (-1, oo);  k < 0: (-oo, 1)

A plan picks one distinguished circle and one secondary circle and
assigns configurations so every coefficient 1/k sits inside its
interval.  No plan needs mirrored intervals: a mirror image negates
every k, and the configurations a plan picks follow the sign of k.
"""

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .criterion import normal_form
from .errors import (
    InputError,
    MalformedToken,
    Unsatisfiable,
    ZeroK,
    integer,
    read_int,
)


class Slope:
    """A fraction p/q in lowest terms; q = 0 is the slope at infinity.
    Nothing writes p or q after __init__, so circles may share a Slope."""

    __slots__ = ("p", "q")

    def __init__(self, p, q=1):
        if not isinstance(p, (int, Fraction, Slope)):
            raise MalformedToken(f"slope {p!r} is no int, Fraction or Slope")
        if not isinstance(q, int):
            raise MalformedToken(f"slope denominator {q!r} is no int")
        if isinstance(p, Slope):
            p, q = p.p, p.q * q
        if isinstance(p, Fraction):
            p, q = p.numerator, p.denominator * q
        if q == 0:
            if p == 0:
                raise MalformedToken("0/0 is not a slope")
            p = 1
        else:
            g = gcd(p, q)
            p, q = p // g, q // g
            if q < 0:
                p, q = -p, -q
        self.p, self.q = p, q

    @classmethod
    def parse(cls, text):
        t = text.strip()
        if t.lower() in ("inf", "infty", "infinity") or t == "∞":
            return cls(1, 0)
        a, slash, b = t.partition("/")
        p = read_int(a, MalformedToken)
        q = read_int(b, MalformedToken) if slash else 1
        if p is None or q is None:
            raise MalformedToken(f"bad slope {text!r}")
        return cls(p, q)

    @property
    def is_infinity(self):
        return self.q == 0

    def as_fraction(self):
        if self.is_infinity:
            raise InputError("infinity has no fraction value")
        return Fraction(self.p, self.q)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Slope(other)
        elif not isinstance(other, Slope):
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return "Slope(inf)" if self.is_infinity else f"Slope({self.p}/{self.q})"

    def __str__(self):
        return "inf" if self.is_infinity else (
            str(self.p) if self.q == 1 else f"{self.p}/{self.q}"
        )


# -- crossing circles -------------------------------------------------------

class CrossingCircle(NamedTuple):
    region: int
    count: int
    k: int
    coefficient: Slope  # 1/k, shared by the circles of equal k


def augment(d):
    """Crossing circles of a knot's normal form: circle i sits on vertex
    i of the collapsed graph that check_main certifies.

    A link raises InputError; a region of count 1 raises ZeroK.
    """
    comps = d.component_count()
    if comps != 1:
        raise InputError(f"NotAKnot({comps}): crossing circles need a knot")
    return circles_from_counts(normal_form(d)[0].vertices)


# -- configuration planning -------------------------------------------------

@dataclass(frozen=True)
class Plan:
    assignments: tuple  # configuration name per circle
    distinguished: int
    secondary: int

    def to_json(self):
        return json.dumps(asdict(self))


def _allowed(i, circle, dist, sec, n):
    if circle.count % 2 == 1:
        return ("odd",)
    if n == 1:
        return ("a", "c", "d")
    if i == dist:
        return ("a",)
    if i == sec:
        return ("c", "d")
    return ("b",)


def plan_configurations(circles):
    """Assign a configuration to every crossing circle in one pass.

    The distinguished circle needs its whole interval around 0, so it is
    the first strong one: even with |k| >= 2 or odd with count >= 3.
    The secondary circle carries the other cusp: the last other circle,
    or the circle itself when it is alone.  Each circle takes the first
    configuration of _allowed whose interval holds 1/k.  That always
    verifies: a holds 1/k once |k| >= 2, b holds every finite slope, c
    holds 1/k unless k = -1 and then d does, and each odd interval holds
    1/k of its own sign.  Only a hand-built circle whose fields disagree
    can fit none, and that raises Unsatisfiable.
    """
    n = len(circles)
    if n == 0:
        raise Unsatisfiable("no crossing circles")
    for dist, (_, size, k, _) in enumerate(circles):
        if size >= 3 if size % 2 else k >= 2 or k <= -2:
            break
    else:
        raise Unsatisfiable(
            "no circle has an even count >= 4 or an odd count >= 3"
        )
    sec = n - 1 if dist < n - 1 or n == 1 else n - 2
    assignment = []
    for i, circle in enumerate(circles):
        k, p, q = circle.k, circle.coefficient.p, circle.coefficient.q
        # the intervals of the module docstring, read off p/q with q > 0:
        # a finite slope is above -1 when p > -q and below 1 when p < q
        above = q and -q < p
        below = q and p < q
        allowed = _allowed(i, circle, dist, sec, n)
        for config in allowed:
            if config == "odd" and not k:
                raise InputError("odd configuration needs a nonzero k")
            if (above if k > 0 else below) if config == "odd" else (
                above and below if config == "a" else q if config == "b"
                else above if config == "c" else below
            ):
                assignment.append(config)
                break
        else:
            raise Unsatisfiable(f"circle {i} (k={k}) fits none of {allowed}")
    return Plan(tuple(assignment), dist, sec)


def circles_from_counts(signed_counts):
    """Crossing circles from signed twist counts, one per region.

    The sign carries handedness; |c| is the crossing count.  augment
    feeds it the normal form's vertices; on its own it drives the planner
    without building diagrams.  The first count that is no integer or
    has |c| < 2 raises.
    """
    circles = []
    slopes = {}  # one 1/k per distinct k
    for i, c in enumerate(signed_counts):
        c = integer(c, "count")
        if not c:
            raise ZeroK("count 0 has no crossings")
        if c == 1 or c == -1:
            raise ZeroK(f"region {i} has count 1; no full twist")
        k = c // 2 if c > 0 else -(-c // 2)
        if k not in slopes:
            slopes[k] = Slope(1, k)
        circles.append(CrossingCircle(i, abs(c), k, slopes[k]))
    return circles


# the open interval (lo, hi) of slopes each even configuration realizes;
# None is unbounded
_INTERVALS = {
    "a": (-1, 1),
    "b": (None, None),
    "c": (-1, None),
    "d": (None, 1),
}


def verify_plan(circles, plan):
    """Independent check that a plan satisfies every constraint."""
    n = len(circles)
    if len(plan.assignments) != n:
        return False
    if plan.distinguished not in range(n) or plan.secondary not in range(n):
        return False
    if n > 1 and plan.distinguished == plan.secondary:
        return False
    for i, (c, config) in enumerate(zip(circles, plan.assignments)):
        if config not in _allowed(i, c, plan.distinguished, plan.secondary, n):
            return False
        if c.count % 2 == 1:
            lo, hi = (-1, None) if c.k > 0 else (None, 1)
        else:
            lo, hi = _INTERVALS[config]
        if c.k == 0:  # no coefficient 1/k
            return False
        v = Fraction(1, c.k)
        if lo is not None and not v > lo:
            return False
        if hi is not None and not v < hi:
            return False
    dc = circles[plan.distinguished]
    if dc.count % 2 == 0 and abs(dc.k) < 2:
        return False
    if dc.count % 2 == 1 and dc.count < 3:
        return False
    return True


# -- exact classification for the three-circle chain ------------------------

@dataclass(frozen=True)
class BorromeanVerdict:
    outcome: str  # "lspace" | "taut_foliation" | "out_of_scope"
    has_infinity: bool
    has_zero: bool

    def to_json(self):
        return json.dumps(asdict(self))


def classify_borromean(r1, r2, r3):
    """Exact surgery classification on the three-component chain.

    Every finite triple either yields an L-space (all slopes >= 1 or
    all <= -1) or a taut foliation.  An infinite slope deletes that
    component; the leftover pair is covered only when no remaining
    slope is 0.
    """
    slopes = [s if isinstance(s, Slope) else Slope(s) for s in (r1, r2, r3)]
    finite = [s for s in slopes if not s.is_infinity]
    has_inf = len(finite) < 3
    has_zero = any(s.p == 0 for s in finite)
    if has_inf:
        if has_zero:
            return BorromeanVerdict("out_of_scope", True, True)
        return BorromeanVerdict("lspace", True, False)
    vals = [s.as_fraction() for s in slopes]
    if all(v >= 1 for v in vals) or all(v <= -1 for v in vals):
        return BorromeanVerdict("lspace", False, has_zero)
    return BorromeanVerdict("taut_foliation", False, has_zero)
