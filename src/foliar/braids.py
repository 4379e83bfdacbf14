"""Braid words, their closures, and the odd-strand interleaving test.

A word is a sequence of syllables s_i^a.  In the closure each syllable
becomes a vertical twist chain; syllables of one generator that follow
each other cyclically with nothing in between fuse into one chain, so
the syllable picture matches the twist regions exactly when every
return to a generator crosses the bridging generator first: after
sigma_h for odd h comes sigma_{h+1} before sigma_h again, and for even
h the bridge is sigma_{h-1}.  The test only applies to braids on an
odd number of strands.  The closure is written by the chain writer
that trees and pretzels share, diagram._twist_chain.
"""

import re
from dataclasses import dataclass
from itertools import islice

from .criterion import judge, weight_reasons
from .diagram import _Builder, _twist_chain, within_budget
from .errors import (
    BadGenerator,
    EmptyWord,
    EvenStrandCount,
    MalformedToken,
    NonSphericalEmbedding,
    read_int,
)

_SYLLABLE = re.compile(r"s(\d+)(?:\^(-?\d+))?")


@dataclass(frozen=True)
class Syllable:
    gen: int
    exp: int


@dataclass(frozen=True)
class BraidWord:
    n_strands: int
    syllables: tuple

    def __str__(self):
        return " ".join(f"s{s.gen}^{s.exp}" for s in self.syllables)


def parse_braid(text, n_strands=None):
    sylls = []
    top = 0
    for tok in text.split():
        m = _SYLLABLE.fullmatch(tok)
        if not m:
            raise MalformedToken(f"bad syllable {tok!r}")
        gen = read_int(m.group(1), MalformedToken)
        exp = read_int(m.group(2), MalformedToken) if m.group(2) else 1
        if gen < 1:
            raise BadGenerator(f"generator index {gen}")
        if n_strands is not None and gen > n_strands - 1:
            raise BadGenerator(
                f"s{gen} needs {gen + 1} strands, braid has {n_strands}"
            )
        top = max(top, gen)
        if exp:
            sylls.append(Syllable(gen, exp))
    if not sylls:
        raise EmptyWord("no syllables with nonzero exponent")
    return BraidWord(n_strands if n_strands else top + 1, tuple(sylls))


def reduce_braid(word):
    """Merge equal-generator neighbours, including around the cycle.

    One stack pass leaves no equal neighbours, and merging the two ends
    cannot make new ones.
    """
    out = []
    for s in word.syllables:
        if out and out[-1].gen == s.gen:
            merged = out.pop().exp + s.exp
            if merged:
                out.append(Syllable(s.gen, merged))
        else:
            out.append(s)
    # out[i:j] is what is left once the ends have met: a pair that
    # cancels is dropped, and one that merges becomes its last syllable
    i, j = 0, len(out)
    while j - i >= 2 and out[i].gen == out[j - 1].gen:
        merged = out[j - 1].exp + out[i].exp
        if merged:
            out[j - 1] = Syllable(out[i].gen, merged)
        else:
            j -= 1
        i += 1
    if i == j:
        raise EmptyWord("word reduced to the identity braid")
    return BraidWord(word.n_strands, tuple(out[i:j]))


def closure_components(word):
    """Components of the closure: one per cycle of the strands the odd
    syllables permute, and one per strand they leave in place."""
    perm = {}  # moved strand -> the strand it ends on
    for s in word.syllables:
        if s.exp % 2:
            i, j = s.gen - 1, s.gen
            perm[i], perm[j] = perm.get(j, j), perm.get(i, i)
    comps = word.n_strands - len(perm)
    while perm:
        comps += 1
        j = perm.popitem()[1]
        while j in perm:  # follow the cycle round, removing it
            j = perm.pop(j)
    return comps


def _violations(gens):
    """The generators h with two uses in a row, cyclically, once the list
    gens is cut down to h and its bridge: no bridge between them.  h and
    its bridge are the strand pair (h + 1) // 2, so one pass cuts gens
    into every pair's list."""
    cuts = {}
    for g in gens:
        cuts.setdefault((g + 1) // 2, []).append(g)
    return sorted({
        h for cut in cuts.values()
        for i, h in enumerate(cut) if h == cut[i - 1]
    })


def check_interleaving(word):
    """(violations, vacuous): the generators that break the return-bridge
    rule, and those of the braid group that never occur.  Raises
    EvenStrandCount unless the strand count is odd."""
    if word.n_strands % 2 == 0:
        raise EvenStrandCount(f"{word.n_strands} strands")
    gens = [s.gen for s in word.syllables]
    return _violations(gens), sorted(set(range(1, word.n_strands)) - set(gens))


# -- closure diagram --------------------------------------------------------

def _within_budget(word):
    """Refuse a word whose closure would be over the crossing budget: a
    verdict on the word stands for the closure, so check_braid refuses
    what braid_to_diagram would."""
    within_budget(sum([abs(s.exp) for s in word.syllables]))


def braid_to_diagram(word):
    """Diagram of the braid closure.

    Syllable s_i^e is a vertical chain of weight -e, so positive
    exponents give twist chains of positive handedness.  Its NW and NE
    ports join the open ends of strands i and i+1, and its SW and SE
    ports become their new open ends.  If a strand meets no crossing its
    closure is a crossing-free circle the PD model cannot carry, so that
    case raises.
    """
    n = word.n_strands
    for s in word.syllables:
        if s.gen > n - 1:
            raise BadGenerator(f"s{s.gen} in a {n}-strand braid")
    _within_budget(word)
    # the strands 1 to n some crossing meets, before any list per strand
    used = {j for s in word.syllables if s.exp for j in (s.gen, s.gen + 1)}
    if len(used) < n:
        idle = list(islice((j for j in range(1, n + 1) if j not in used), 8))
        more = n - len(used) - len(idle)
        idle = f"{idle} and {more} more" if more else idle
        raise NonSphericalEmbedding(
            f"closure of strands {idle} has no crossings"
        )
    b = _Builder()
    top = [None] * n  # each strand's first dart from the top
    cur = [None] * n  # each strand's open bottom dart so far
    for s in word.syllables:
        if not s.exp:
            continue
        i = s.gen - 1
        t = _twist_chain(b, "v", -s.exp)
        for j, dart in ((i, t.NW), (i + 1, t.NE)):
            if cur[j] is None:
                top[j] = dart
            else:
                b.join(cur[j], dart)
        cur[i], cur[i + 1] = t.SW, t.SE
    for a, e in zip(top, cur):
        b.join(a, e)
    return b.build()


def check_braid(word):
    if isinstance(word, str):
        word = parse_braid(word)
    word = reduce_braid(word)
    _within_budget(word)
    reasons = []
    if word.n_strands % 2 == 0:
        reasons.append("EvenStrandCount")
    elif _violations([s.gen for s in word.syllables]):
        reasons.append("Interleaving")
    comps = closure_components(word)
    if comps != 1:
        reasons.append(f"NotAKnot({comps})")
    exps = [s.exp for s in word.syllables]
    reasons += weight_reasons(exps, lambda i, w: f"syllable={i},exp={w}")
    return judge(reasons, tuple(sorted(map(abs, exps))), (), len(exps))
