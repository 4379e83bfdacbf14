"""Braid words, their closures, and the odd-strand interleaving test.

A word is a sequence of syllables s_i^a.  In the closure each syllable
becomes a vertical twist chain; syllables of one generator that follow
each other cyclically with nothing in between fuse into one chain, so
the syllable picture matches the twist regions exactly when every
return to a generator crosses the bridging generator first: after
sigma_h for odd h comes sigma_{h+1} before sigma_h again, and for even
h the bridge is sigma_{h-1}.  The test only applies to braids on an
odd number of strands.
"""

import re
from dataclasses import dataclass

from ._planar import component_count
from .criterion import Status, Verdict, weight_reasons
from .diagram import LinkDiagram
from .errors import (
    BadGenerator,
    EmptyWord,
    EvenStrandCount,
    MalformedToken,
    NonSphericalEmbedding,
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
        gen = int(m.group(1))
        exp = int(m.group(2)) if m.group(2) else 1
        if gen < 1:
            raise BadGenerator(f"generator index {gen}")
        if n_strands is not None and gen > n_strands - 1:
            raise BadGenerator(
                f"s{gen} needs {gen + 1} strands, braid has {n_strands}"
            )
        top = max(top, gen)
        if exp == 0:
            continue
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
    while len(out) >= 2 and out[0].gen == out[-1].gen:
        merged = out[-1].exp + out[0].exp
        out = out[1:-1] + ([Syllable(out[0].gen, merged)] if merged else [])
    if not out:
        raise EmptyWord("word reduced to the identity braid")
    return BraidWord(word.n_strands, tuple(out))


def closure_components(word):
    perm = list(range(word.n_strands))
    for s in word.syllables:
        if s.exp % 2:
            i = s.gen - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return component_count(range(word.n_strands), enumerate(perm))


def check_interleaving(word):
    """Violations of the return-bridge rule, plus generators never used.

    Returns (violations, vacuous): violations lists generators h whose
    cyclically consecutive uses miss the bridge generator in between;
    vacuous lists generators of the braid group that never occur.
    Raises EvenStrandCount unless the strand count is odd.
    """
    if word.n_strands % 2 == 0:
        raise EvenStrandCount(f"{word.n_strands} strands")
    gens = [s.gen for s in word.syllables]
    present = set(gens)
    vacuous = [
        h for h in range(1, word.n_strands) if h not in present
    ]
    violations = []
    m = len(gens)
    for h in sorted(present):
        bridge = h + 1 if h % 2 else h - 1
        spots = [i for i, g in enumerate(gens) if g == h]
        ok = True
        for a, b in zip(spots, spots[1:] + [spots[0] + m]):
            between = [gens[i % m] for i in range(a + 1, b)]
            if bridge not in between:
                ok = False
                break
        if not ok:
            violations.append(h)
    return violations, vacuous


# -- closure diagram --------------------------------------------------------

def braid_to_diagram(word):
    """Diagram of the braid closure.

    Positive exponents give twist chains of positive handedness.  If a
    strand meets no crossing its closure is a crossing-free circle the
    PD model cannot carry, so that case raises.
    """
    alpha = []
    top = [None] * word.n_strands  # each strand's first dart from the top
    cur = [None] * word.n_strands  # each strand's open bottom dart so far
    for s in word.syllables:
        i = s.gen - 1
        if s.gen > word.n_strands - 1:
            raise BadGenerator(f"s{s.gen} in a {word.n_strands}-strand braid")
        for _ in range(abs(s.exp)):
            k = len(alpha)
            alpha += [-1] * 4
            # slots counterclockwise: from NE when the over strand runs
            # NW-SE, from NW otherwise
            if s.exp > 0:
                nw, ne, sw, se = k + 1, k, k + 2, k + 3
            else:
                nw, ne, sw, se = k, k + 3, k + 1, k + 2
            for j, dart in ((i, nw), (i + 1, ne)):
                if cur[j] is None:
                    top[j] = dart
                else:
                    alpha[cur[j]] = dart
                    alpha[dart] = cur[j]
            cur[i], cur[i + 1] = sw, se
    if None in cur:
        idle = [i + 1 for i, b in enumerate(cur) if b is None]
        raise NonSphericalEmbedding(
            f"closure of strands {idle} has no crossings"
        )
    for t, b in zip(top, cur):
        alpha[t] = b
        alpha[b] = t
    return LinkDiagram.from_darts(alpha, [0] * (len(alpha) // 4))


def check_braid(word):
    if isinstance(word, str):
        word = parse_braid(word)
    word = reduce_braid(word)
    reasons = []
    try:
        violations, _ = check_interleaving(word)
        if violations:
            reasons.append("Interleaving")
    except EvenStrandCount:
        reasons.append("EvenStrandCount")
    comps = closure_components(word)
    if comps != 1:
        reasons.append(f"NotAKnot({comps})")
    reasons += weight_reasons(
        [s.exp for s in word.syllables],
        lambda i, w: f"syllable={i},exp={w}",
    )
    status = Status.CERTIFIED if not reasons else Status.HYPOTHESES_FAIL
    return Verdict(
        status,
        tuple(reasons),
        tuple(sorted(abs(s.exp) for s in word.syllables)),
        (),
        len(word.syllables),
    )
