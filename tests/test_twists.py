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
    NonAlternatingChain,
    NonSphericalEmbedding,
    UnknotCollapse,
)

from conftest import CANCELLING_COLUMNS, unreduced_inputs


def test_trefoil_single_cyclic_region(trefoil):
    dec = detect_twist_regions(trefoil)
    assert len(dec) == 1
    r = dec[0]
    assert r.count == 3
    assert r.handedness == 1
    assert r.cyclic
    assert r.crossings == (1, 0, 2)


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
    assert not r0.cyclic and not r1.cyclic
    assert r0.end_gaps == ((1, 2), (0, 2))


def test_hopf_overlap_bigons(hopf):
    dec = detect_twist_regions(hopf)
    assert len(dec) == 1
    r = dec[0]
    assert (r.count, r.handedness, r.cyclic) == (2, -1, True)
    assert r.crossings == (1, 0)


def test_kink_is_ambiguous_singleton(kink):
    r = detect_twist_regions(kink)[0]
    assert (r.count, r.handedness, r.cyclic) == (1, 1, False)
    assert r.end_gaps == ((0, 0), (0, 2))


def test_mixed_chain_requires_flag():
    d = make_pretzel_pd([2, -2])
    with pytest.raises(NonAlternatingChain):
        detect_twist_regions(d)
    dec = detect_twist_regions(d, allow_mixed=True)
    assert len(dec) == 1
    r = dec[0]
    assert (r.count, r.handedness, r.cyclic) == (4, 0, True)
    assert sorted(r.crossing_handedness) == [-1, -1, 1, 1]


def test_regions_partition_crossings(fig8, trefoil):
    for d in (fig8, trefoil):
        dec = detect_twist_regions(d)
        seen = sorted(c for r in dec for c in r.crossings)
        assert seen == list(range(len(d.crossings)))


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
    assert len(d.crossings) == 5
    out = reduce_assumption1(d)
    assert len(out.crossings) == 3
    r = detect_twist_regions(out)[0]
    assert (r.count, r.handedness, r.cyclic) == (3, 1, True)


def test_collapse_trefoil(trefoil):
    cg = collapse(trefoil)
    assert cg.vertices == [3]  # count 3, handedness +1
    assert cg.alpha == [3, 2, 1, 0]  # cyclic: two nested loops
    assert len(cg.faces) == 3


def test_collapse_fig8(fig8):
    cg = collapse(fig8)
    assert len(cg.vertices) == 2
    assert len(cg.faces) == 4
    for r in detect_twist_regions(fig8):
        assert ref_through(fig8, r) == ((0, 3), (1, 2))
    assert sorted(cg.vertices) == [-2, 2]


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
        a, b = cg.side_faces(i)
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
    odd = even = 0
    for d in unreduced_inputs(200):
        try:
            d = reduce_assumption1(d)
            cg = collapse(d)
        except FoliarError:
            continue
        dec = detect_twist_regions(d)
        assert cg.vertices == [r.handedness * r.count for r in dec]
        if dec[0].cyclic:
            continue
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
    assert odd >= 100 and even >= 100
