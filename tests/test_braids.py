import itertools
import json

import pytest

from foliar import (
    Status,
    braid_to_diagram,
    check_braid,
    check_interleaving,
    check_main,
    closure_components,
    parse_braid,
    reduce_braid,
)
from foliar.braids import BraidWord, Syllable
from foliar.errors import (
    BadGenerator,
    EmptyWord,
    EvenStrandCount,
    NonSphericalEmbedding,
)

from conftest import DisjointSets, seeded
from test_cli import run


def test_parse_basic():
    w = parse_braid("s1^3 s2^-3")
    assert w.n_strands == 3
    assert [(s.gen, s.exp) for s in w.syllables] == [(1, 3), (2, -3)]


def test_parse_bare_and_zero():
    w = parse_braid("s1 s2^0 s2^-1")
    assert [(s.gen, s.exp) for s in w.syllables] == [(1, 1), (2, -1)]


def test_parse_errors():
    with pytest.raises(EmptyWord):
        parse_braid("")
    with pytest.raises(EmptyWord):
        parse_braid("s1^0")
    with pytest.raises(BadGenerator):
        parse_braid("s0^2")
    with pytest.raises(BadGenerator):
        parse_braid("s3^2", 3)


def test_str_round_trip():
    w = parse_braid("s1^3 s2^-3")
    assert parse_braid(str(w)).syllables == w.syllables


def test_reduce_merges_adjacent():
    w = reduce_braid(parse_braid("s1^2 s1^1 s2^3"))
    assert [(s.gen, s.exp) for s in w.syllables] == [(1, 3), (2, 3)]


def test_reduce_merges_cyclically():
    w = reduce_braid(parse_braid("s1^2 s2^3 s1^2"))
    assert [(s.gen, s.exp) for s in w.syllables] == [(2, 3), (1, 4)]


def test_reduce_identity_raises():
    with pytest.raises(EmptyWord):
        reduce_braid(parse_braid("s1^2 s1^-2"))


def _reduce_to_fixpoint(word):
    """The earlier reduce_braid: repeat the pass until nothing changes."""
    sylls = list(word.syllables)
    changed = True
    while changed:
        changed = False
        out = []
        for s in sylls:
            if out and out[-1].gen == s.gen:
                merged = out[-1].exp + s.exp
                out.pop()
                if merged:
                    out.append(Syllable(s.gen, merged))
                changed = True
            else:
                out.append(s)
        while len(out) >= 2 and out[0].gen == out[-1].gen:
            merged = out[-1].exp + out[0].exp
            out = out[1:-1] + (
                [Syllable(out[0].gen, merged)] if merged else []
            )
            changed = True
        sylls = out
    if not sylls:
        raise EmptyWord("word reduced to the identity braid")
    return BraidWord(word.n_strands, tuple(sylls))


def test_one_pass_reduce_matches_fixpoint():
    rng = seeded(31)
    emptied = merged = 0
    for _ in range(2000):
        word = BraidWord(4, tuple(
            Syllable(rng.randint(1, 3), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(1, 10))
        ))
        try:
            want = _reduce_to_fixpoint(word)
        except EmptyWord:
            with pytest.raises(EmptyWord):
                reduce_braid(word)
            emptied += 1
            continue
        assert reduce_braid(word) == want
        merged += len(want.syllables) < len(word.syllables)
    assert emptied >= 10 and merged >= 1000


def test_closure_components():
    assert closure_components(parse_braid("s1^3 s2^-3")) == 1
    assert closure_components(parse_braid("s1^2 s2^2")) == 3
    assert closure_components(parse_braid("s1^2 s2^3")) == 2


def test_interleaving_b3_vacuous():
    violations, vacuous = check_interleaving(parse_braid("s1^3 s2^-3"))
    assert violations == []
    assert vacuous == []


def test_interleaving_violation_b5():
    w = parse_braid("s1^2 s3^2 s1^2 s3^2", 5)
    violations, vacuous = check_interleaving(w)
    assert violations == [1, 3]
    assert vacuous == [2, 4]


def test_interleaving_needs_odd_strands():
    with pytest.raises(EvenStrandCount):
        check_interleaving(parse_braid("s1^2 s2^2 s3^2", 4))


def test_diagram_from_word(trefoil):
    d = braid_to_diagram(parse_braid("s1^3", 2))
    assert len(d) == 3
    assert check_main(d).reasons == check_main(trefoil).reasons


def test_diagram_rejects_idle_strand():
    with pytest.raises(NonSphericalEmbedding):
        braid_to_diagram(parse_braid("s1^3", 3))


def test_check_braid_certifies():
    v = check_braid(parse_braid("s1^3 s2^-3"))
    assert v.status == Status.CERTIFIED
    assert v.weights_green == (3, 3)


def test_check_braid_link_rejected():
    v = check_braid(parse_braid("s1^2 s2^2"))
    assert v.status == Status.HYPOTHESES_FAIL
    assert "NotAKnot(3)" in v.reasons


def test_check_braid_weights():
    v = check_braid(parse_braid("s1^2 s2^3 s1^3 s2^2"))
    assert v.status == Status.CERTIFIED
    assert v.weights_green == (2, 2, 3, 3)
    v = check_braid(parse_braid("s1^2 s2^-2 s1^2 s2^-2"))
    assert "NoWeightAboveTwo" in v.reasons


def test_check_braid_small_syllable():
    v = check_braid(parse_braid("s1^1 s2^-3"))
    assert v.status == Status.HYPOTHESES_FAIL
    assert "WeightTooSmall(syllable=0,exp=1)" in v.reasons


def test_check_braid_even_strands():
    v = check_braid(parse_braid("s1^3 s2^2 s3^3", 4))
    assert v.status == Status.HYPOTHESES_FAIL
    assert "EvenStrandCount" in v.reasons


def test_check_braid_interleaving():
    # between the two s1 syllables stands only s3, not their bridge s2
    v = check_braid(parse_braid("s1^3 s3^3 s1^3 s2^3 s4^3"))
    assert v.status == Status.HYPOTHESES_FAIL
    assert v.reasons == ("Interleaving", "NotAKnot(2)")


def test_check_braid_identity_propagates():
    with pytest.raises(EmptyWord):
        check_braid(parse_braid("s1^2 s1^-2"))


def test_braid_diagram_agreement_seeded():
    from conftest import random_braid_text, seeded
    from foliar.errors import FoliarError

    rng = seeded(3)
    compared = 0
    for _ in range(250):
        try:
            w = reduce_braid(parse_braid(random_braid_text(rng)))
            d = braid_to_diagram(w)
        except FoliarError:
            continue
        if d.component_count() != 1:
            continue
        bv = check_braid(w)
        mv = check_main(d)
        if mv.status == Status.EXCLUDED:
            continue
        assert (bv.status == Status.CERTIFIED) == (mv.status == Status.CERTIFIED)
        compared += 1
    assert compared >= 30


# -- the interleaving rule and the closure's components against loops --------

def ref_violations(gens):
    """The generators h some pair of cyclically consecutive uses of which
    has no bridge of h between them, found by scanning each gap."""
    violations = []
    m = len(gens)
    for h in sorted(set(gens)):
        bridge = h + 1 if h % 2 else h - 1
        spots = [i for i, g in enumerate(gens) if g == h]
        for a, b in zip(spots, spots[1:] + [spots[0] + m]):
            between = [gens[i % m] for i in range(a + 1, b)]
            if bridge not in between:
                violations.append(h)
                break
    return violations


def ref_closure_components(word):
    """Cycles of the strand permutation, over a list of every strand."""
    perm = list(range(word.n_strands))
    for s in word.syllables:
        if s.exp % 2:
            i = s.gen - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
    ds = DisjointSets()
    for i, j in enumerate(perm):
        ds.union(i, j)
    return len({ds.find(i) for i in range(word.n_strands)})


def _generator_sequences():
    """Every generator sequence on 3, 5 and 7 strands up to lengths 7, 7
    and 5."""
    for n, longest in ((3, 7), (5, 7), (7, 5)):
        for m in range(1, longest + 1):
            for gens in itertools.product(range(1, n), repeat=m):
                yield n, gens


def test_interleaving_and_components_match_the_loops():
    seen = violating = 0
    for n, gens in _generator_sequences():
        # exponents of both parities, so the permutation moves
        word = BraidWord(n, tuple(
            [Syllable(g, 2 + (i * g) % 2) for i, g in enumerate(gens)]
        ))
        violations, vacuous = check_interleaving(word)
        assert violations == ref_violations(list(gens)), gens
        assert vacuous == [h for h in range(1, n) if h not in gens]
        assert closure_components(word) == ref_closure_components(word)
        seen += 1
        violating += bool(violations)
    assert (seen, violating) == (31428, 31182)


# -- a strand count costs nothing per strand ---------------------------------

MANY = 10**20 + 1  # odd, and far more strands than any list could hold


def test_closure_components_counts_idle_strands():
    word = BraidWord(MANY, (Syllable(1, 3), Syllable(2, 2)))
    assert closure_components(word) == MANY - 1


def test_check_braid_on_many_strands():
    v = check_braid(parse_braid("s1^3 s2^3", MANY))
    assert v.reasons == (f"NotAKnot({MANY - 2})",)


def test_braid_to_diagram_refuses_many_strands_first():
    with pytest.raises(NonSphericalEmbedding) as exc:
        braid_to_diagram(parse_braid("s1^3 s4^3", MANY))
    assert str(exc.value) == (
        "closure of strands [3, 6, 7, 8, 9, 10, 11, 12] and "
        f"{MANY - 12} more has no crossings"
    )


def test_cli_braid_on_many_strands(capsys):
    code, out, err = run(
        capsys, "braid", "s1^3", "--strands", str(MANY - 1), "--crosscheck"
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["reasons"] == ["EvenStrandCount", f"NotAKnot({MANY - 2})"]
    assert payload["diagram_error"].startswith("closure of strands [3, 4,")
