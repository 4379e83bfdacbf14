import pytest

from foliar import (
    braid_to_diagram,
    collapse,
    detect_twist_regions,
    make_pretzel_pd,
    parse_braid,
    parse_pd,
    reduce_assumption1,
)
from foliar.errors import (
    FoliarError,
    InternalError,
    NonAlternatingChain,
    NonSphericalEmbedding,
    UnknotCollapse,
)

from types import SimpleNamespace

from foliar.twists import _detect

from conftest import CANCELLING_COLUMNS, unreduced_inputs


def test_trefoil_single_cyclic_region(trefoil):
    dec = detect_twist_regions(trefoil)
    assert len(dec) == 1
    r = dec[0]
    assert r.count == 3
    assert r.handedness == 1
    assert r.crossings == (1, 0, 2)
    # a ring is a chain: the bigon joining its last crossing's free chain
    # gap to its first's stays a plain face
    (e1, g1), (e2, g2) = r.end_gaps
    closing = sorted([4 * e1 + (g1 ^ 2), 4 * e2 + (g2 ^ 2)])
    assert closing in [sorted(f) for f in trefoil.faces]


def test_mirror_flips_handedness(trefoil):
    r = detect_twist_regions(trefoil.mirror())[0]
    assert r.handedness == -1


def test_fig8_two_clasps(fig8):
    dec = detect_twist_regions(fig8)
    assert tuple(r.count for r in dec) == (2, 2)
    r0, r1 = dec
    assert (r0.handedness, r1.handedness) == (1, -1)
    assert r0.crossings == (1, 0)
    assert r1.crossings == (3, 2)
    assert r0.end_gaps == ((1, 2), (0, 2))


def test_hopf_overlap_bigons(hopf):
    dec = detect_twist_regions(hopf)
    assert len(dec) == 1
    r = dec[0]
    assert (r.count, r.handedness) == (2, -1)
    assert r.crossings == (1, 0)


def test_kink_is_ambiguous_singleton(kink):
    r = detect_twist_regions(kink)[0]
    assert (r.count, r.handedness) == (1, 1)
    assert r.end_gaps == ((0, 0), (0, 2))


def test_mixed_chain_is_refused_by_collapse():
    d = make_pretzel_pd([2, -2])
    dec = detect_twist_regions(d)
    assert len(dec) == 1
    r = dec[0]
    assert (r.count, r.handedness) == (4, 0)
    assert r.crossing_handedness == (1, -1, -1, 1)
    message = (
        r"^region 0 through crossings \(2, 0, 1, 3\) mixes handedness "
        r"\(1, -1, -1, 1\); cancel first$"
    )
    with pytest.raises(NonAlternatingChain, match=message):
        collapse(d)


def test_regions_partition_crossings(fig8, trefoil):
    for d in (fig8, trefoil):
        dec = detect_twist_regions(d)
        seen = sorted(c for r in dec for c in r.crossings)
        assert seen == list(range(len(d)))


def test_reduce_noop_on_coherent(fig8):
    assert reduce_assumption1(fig8) is fig8


def test_reduce_collapses_unknot():
    with pytest.raises(UnknotCollapse):
        reduce_assumption1(make_pretzel_pd([2, -2]))


def test_reduce_rejects_split_strand():
    d = braid_to_diagram(parse_braid("s1^3 s2 s2^-1"))
    with pytest.raises(NonSphericalEmbedding):
        reduce_assumption1(d)


def test_reduce_shrinks_incoherent_chain():
    d = braid_to_diagram(parse_braid("s1^4 s1^-1"))
    assert len(d) == 5
    out = reduce_assumption1(d)
    assert len(out) == 3
    r = detect_twist_regions(out)[0]
    assert (r.count, r.handedness) == (3, 1)


def test_collapse_trefoil(trefoil):
    cg = collapse(trefoil)
    assert cg.vertices == [3]  # count 3, handedness +1
    assert cg.alpha == [3, 2, 1, 0]  # a ring: two nested loops
    assert len(cg.faces) == 3


def test_collapse_fig8(fig8):
    cg = collapse(fig8)
    assert len(cg.vertices) == 2
    assert len(cg.faces) == 4
    for r in detect_twist_regions(fig8):
        assert ref_through(fig8, r) == ((0, 3), (1, 2))
    assert sorted(cg.vertices) == [-2, 2]


def test_collapse_refuses_mixed_region_records():
    # region 0, the syllables s1^4 s1^-1, is one mixed chain; both paths
    # name it the same way, wherever it comes in the list given
    d = braid_to_diagram(parse_braid("s1^4 s1^-1 s2^3 s1^2 s2^2"))
    regions = detect_twist_regions(d)
    assert [r.handedness for r in regions] == [0, 1, 1, 1]
    message = (
        r"^region 0 through crossings \(4, 3, 2, 1, 0\) mixes handedness "
        r"\(-1, 1, 1, 1, 1\); cancel first$"
    )
    with pytest.raises(NonAlternatingChain, match=message):
        collapse(d, regions[::-1])
    with pytest.raises(NonAlternatingChain, match=message):
        collapse(d)


def test_collapse_face_invariant_random_braids():
    from conftest import random_braid_text, seeded
    from foliar.errors import FoliarError

    rng = seeded(7)
    hit = 0
    for _ in range(60):
        try:
            d = braid_to_diagram(parse_braid(random_braid_text(rng)))
            d = reduce_assumption1(d)
            cg = collapse(d)
        except FoliarError:
            continue
        assert len(cg.faces) == len(cg.vertices) + 2
        hit += 1
    assert hit >= 20


def test_collapse_side_faces_and_dot(fig8):
    cg = collapse(fig8)
    for i in range(len(cg)):
        a, b = cg.face_at[4 * i + 1], cg.face_at[4 * i + 3]
        assert a != b
    dot = cg.to_dot()
    assert dot.startswith("graph") and "v0" in dot


def test_separated_columns_fixture_regions():
    d = parse_pd(CANCELLING_COLUMNS)
    dec = detect_twist_regions(d)
    assert sorted((r.count, r.handedness) for r in dec) == [
        (1, 1),
        (1, 1),
        (2, -1),
        (2, 1),
    ]


def ref_stubs(region):
    """The (crossing, slot) stubs at a collapsed vertex's slots 0..3."""
    (e1, g1), (e2, g2) = region.end_gaps
    if region.count == 1:
        return [(e1, s) for s in range(4)]
    return [
        (e1, (g1 + 2) % 4),
        (e1, (g1 + 3) % 4),
        (e2, (g2 + 2) % 4),
        (e2, (g2 + 3) % 4),
    ]


def ref_through(d, region):
    """Pair a collapsed vertex's slots by walking each strand from its
    stub through the region's crossings to the stub where it leaves."""
    rot = ref_stubs(region)
    stub_of = {cs: local for local, cs in enumerate(rot)}
    pairs = []
    seen = set()
    for local, (c, s) in enumerate(rot):
        if local in seen:
            continue
        while (c, (s + 2) % 4) not in stub_of:
            e = d.alpha[4 * c + (s + 2) % 4]
            c, s = e >> 2, e & 3
            assert c in region.crossings, "strand left its region"
        other = stub_of[(c, (s + 2) % 4)]
        pairs.append((local, other))
        seen.update((local, other))
    return tuple(sorted(pairs))


def test_through_is_the_strand_walk():
    odd = even = rings = 0
    for d in unreduced_inputs(200):
        try:
            d = reduce_assumption1(d)
            cg = collapse(d)
        except FoliarError:
            continue
        dec = detect_twist_regions(d)
        assert cg.vertices == [r.handedness * r.count for r in dec]
        rings += len(dec) == 1 and len(d) > 1
        # collapse gives region i's stubs the darts 4i..4i+3 in this order
        local = {
            4 * c + s: 4 * i + k
            for i, r in enumerate(dec)
            for k, (c, s) in enumerate(ref_stubs(r))
        }
        stubs = sorted(local, key=local.get)
        assert cg.alpha == [local[d.alpha[x]] for x in stubs], d.to_pd()
        for r, w in zip(dec, cg.vertices):
            pairing = ((0, 2), (1, 3)) if w % 2 else ((0, 3), (1, 2))
            assert pairing == ref_through(d, r), d.to_pd()
            odd += r.count > 1 and r.count % 2
            even += r.count % 2 == 0
    assert odd >= 100 and even >= 100 and rings >= 5, (odd, even, rings)


def test_chain_growth_into_a_chain_raises():
    # No diagram reaches this: the chain guard in _detect never fired on
    # the inputs of test_reference_routes, the benchmark workloads at
    # seed 1, 20 000 random braid closures and 10 000 random trees and
    # mirrors.  So the face lists are made by hand, and only their
    # bigons matter: the first joins gap 0 of crossings 2 and 3 into a
    # chain, the second gap 0 of crossings 0 and 1, and the third leads
    # from gap 2 of crossing 1 to gap 1 of crossing 2, inside the first
    # chain.
    d = SimpleNamespace(
        corners=[8, 12, 0, 4, 6, 9], start=[0, 2, 4, 6], axes=[0] * 4
    )
    with pytest.raises(InternalError) as exc:
        _detect(d)
    assert str(exc.value) == (
        "twist chain reached crossing 2, already in a chain"
    )
