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

Mirroring the diagram negates the intervals, swapping c and d; the odd
intervals are unchanged.  A plan picks one distinguished circle and one
secondary circle and assigns configurations so every coefficient 1/k
sits inside its interval.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InputError, MalformedToken, Unsatisfiable, ZeroK
from .twists import flat_regions


class Slope:
    """A fraction p/q in lowest terms; q = 0 is the slope at infinity."""

    __slots__ = ("p", "q")

    def __init__(self, p, q=1):
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
        if "/" in t:
            a, b = t.split("/", 1)
            try:
                return cls(int(a), int(b))
            except ValueError:
                raise MalformedToken(f"bad slope {text!r}") from None
        try:
            return cls(int(t))
        except ValueError:
            raise MalformedToken(f"bad slope {text!r}") from None

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


@dataclass(frozen=True)
class Interval:
    """Open interval of finite slopes; None means unbounded on that side."""

    lo: object
    hi: object

    def contains(self, slope):
        if isinstance(slope, Slope):
            if slope.is_infinity:
                return False
            p, q = slope.p, slope.q
        else:
            v = Fraction(slope)
            p, q = v.numerator, v.denominator
        # with q and the bounds' denominators b positive, p/q > a/b
        # exactly when p*b > a*q
        lo, hi = self.lo, self.hi
        if lo is not None and not p * lo.denominator > lo.numerator * q:
            return False
        if hi is not None and not p * hi.denominator < hi.numerator * q:
            return False
        return True

    def mirrored(self):
        neg = lambda x: None if x is None else -x
        return Interval(neg(self.hi), neg(self.lo))

    def __str__(self):
        lo = "-oo" if self.lo is None else str(self.lo)
        hi = "oo" if self.hi is None else str(self.hi)
        return f"({lo}, {hi})"


_EVEN_INTERVALS = {
    "a": Interval(Fraction(-1), Fraction(1)),
    "b": Interval(None, None),
    "c": Interval(Fraction(-1), None),
    "d": Interval(None, Fraction(1)),
}
_MIRRORED_INTERVALS = {c: iv.mirrored() for c, iv in _EVEN_INTERVALS.items()}
_ODD_INTERVALS = {  # by whether k > 0
    True: Interval(Fraction(-1), None),
    False: Interval(None, Fraction(1)),
}


def realized_interval(config, k=None, flipped=False):
    """Slopes realizable on a crossing circle cusp in one configuration."""
    if config == "odd":
        if k is None or k == 0:
            raise InputError("odd configuration needs a nonzero k")
        # mirror-invariant: handedness flips with the diagram
        return _ODD_INTERVALS[k > 0]
    try:
        return (_MIRRORED_INTERVALS if flipped else _EVEN_INTERVALS)[config]
    except KeyError:
        raise InputError(f"unknown configuration {config!r}") from None


# -- crossing circles -------------------------------------------------------

@dataclass(frozen=True)
class CrossingCircle:
    region: int
    count: int
    parity: int  # count mod 2
    k: int
    coefficient: Slope


def augment(d):
    """Crossing circles of a diagram's coherent twist regions.

    A region of count 1 has no full twist to encircle and raises ZeroK.
    """
    return circles_from_counts(flat_regions(d)[0])


# -- configuration planning -------------------------------------------------

@dataclass(frozen=True)
class Plan:
    assignments: tuple  # configuration name per circle
    distinguished: int
    secondary: int
    flipped: bool

    def to_json(self):
        return json.dumps(
            {
                "assignments": list(self.assignments),
                "distinguished": self.distinguished,
                "secondary": self.secondary,
                "flipped": self.flipped,
            }
        )


def _allowed(i, circle, dist, sec, n):
    if circle.parity == 1:
        return ("odd",)
    if n == 1:
        return ("a", "c", "d")
    if i == dist:
        return ("a",)
    if i == sec:
        return ("c", "d")
    return ("b",)


def plan_configurations(circles):
    """Assign a configuration to every crossing circle.

    One distinguished circle needs its whole interval around 0, so it
    must be even with |k| >= 2 or odd with count >= 3; a second circle
    carries the remaining cusp.  With a single circle both cusps land
    on it and any configuration containing its coefficient will do.
    """
    n = len(circles)
    if n == 0:
        raise Unsatisfiable("no crossing circles")
    strong = [
        i
        for i, c in enumerate(circles)
        if (c.parity == 0 and abs(c.k) >= 2) or (c.parity == 1 and c.count >= 3)
    ]
    if not strong:
        raise Unsatisfiable(
            "no circle has an even count >= 4 or an odd count >= 3"
        )
    failures = []
    for dist in strong:
        # the secondary cusp sits on the last other circle by default
        secondaries = [i for i in reversed(range(n)) if i != dist] or [dist]
        for sec in secondaries:
            for flipped in (False, True):
                assignment = []
                ok = True
                for i, c in enumerate(circles):
                    choice = None
                    for config in _allowed(i, c, dist, sec, n):
                        iv = realized_interval(config, c.k, flipped)
                        if iv.contains(c.coefficient):
                            choice = config
                            break
                    if choice is None:
                        ok = False
                        failures.append(
                            f"circle {i} (k={c.k}) fits none of "
                            f"{_allowed(i, c, dist, sec, n)}"
                            f"{' flipped' if flipped else ''}"
                        )
                        break
                    assignment.append(choice)
                if ok:
                    return Plan(tuple(assignment), dist, sec, flipped)
    raise Unsatisfiable("; ".join(failures[:4]) or "no assignment found")


def circles_from_counts(signed_counts):
    """Crossing circles from signed twist counts, one per region.

    The sign carries handedness; |c| is the crossing count.  augment
    feeds it a diagram's regions; on its own it exercises the planner
    without building diagrams.
    """
    circles = []
    for i, sc in enumerate(signed_counts):
        c = abs(int(sc))
        if c == 0:
            raise ZeroK("count 0 has no crossings")
        h = 1 if sc > 0 else -1
        k = h * (c // 2)
        if k == 0:
            raise ZeroK(f"region {i} has count {c}; no full twist")
        circles.append(CrossingCircle(i, c, c % 2, k, Slope(1, k)))
    return circles


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
        if c.parity == 1:
            lo, hi = (Fraction(-1), None) if c.k > 0 else (None, Fraction(1))
        else:
            table = {
                "a": (Fraction(-1), Fraction(1)),
                "b": (None, None),
                "c": (Fraction(-1), None),
                "d": (None, Fraction(1)),
            }
            lo, hi = table[config]
            if plan.flipped:
                lo, hi = (
                    None if hi is None else -hi,
                    None if lo is None else -lo,
                )
        v = Fraction(1, c.k)
        if lo is not None and not v > lo:
            return False
        if hi is not None and not v < hi:
            return False
    dc = circles[plan.distinguished]
    if dc.parity == 0 and abs(dc.k) < 2:
        return False
    if dc.parity == 1 and dc.count < 3:
        return False
    return True


# -- exact classification for the three-circle chain ------------------------

@dataclass(frozen=True)
class BorromeanVerdict:
    outcome: str  # "lspace" | "taut_foliation" | "out_of_scope"
    has_infinity: bool
    has_zero: bool

    def to_json(self):
        return json.dumps(
            {
                "outcome": self.outcome,
                "has_infinity": self.has_infinity,
                "has_zero": self.has_zero,
            }
        )


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
