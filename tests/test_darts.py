"""Diagrams built straight from dart maps.

Trees, braid closures and type II cancellation hold a dart map and
build through LinkDiagram.from_darts.  The references below are the
earlier route: name each arc, renumber the names through relabel and
validate the labels.  Both must give the same diagram.
"""

import pytest

from foliar import (
    LinkDiagram,
    braid_to_diagram,
    collapse,
    detect_twist_regions,
    generate_diagram,
    make_pretzel_pd,
    parse_braid,
    parse_tree,
)
from foliar._planar import compact, splice_out
from foliar.errors import (
    BadGenerator,
    FoliarError,
    InputError,
    InternalError,
    NonSphericalEmbedding,
)

from conftest import (
    DisjointSets,
    random_tree_text,
    relabel,
    rows_of,
    seeded,
    unreduced_inputs,
)


def _axes(d):
    return list(d.axes)


def ref_from_darts(alpha, axes):
    """Name each arc by its lower dart and build through the labels."""
    rows = [
        [min(e, alpha[e]) for e in range(4 * k, 4 * k + 4)]
        for k in range(len(axes))
    ]
    return relabel(rows, axes)


def ref_braid_to_diagram(word):
    """The closure with fresh wire ids joined in disjoint sets."""
    ds = DisjointSets()
    fresh = iter(range(10 ** 9)).__next__
    top = [fresh() for _ in range(word.n_strands)]
    cur = list(top)
    touched = [False] * word.n_strands
    crossings = []
    for s in word.syllables:
        i = s.gen - 1
        if s.gen > word.n_strands - 1:
            raise BadGenerator(f"s{s.gen} in a {word.n_strands}-strand braid")
        for _ in range(abs(s.exp)):
            nw, ne = cur[i], cur[i + 1]
            sw, se = fresh(), fresh()
            if s.exp > 0:
                crossings.append((ne, nw, sw, se))
            else:
                crossings.append((nw, sw, se, ne))
            cur[i], cur[i + 1] = sw, se
            touched[i] = touched[i + 1] = True
    if not all(touched):
        idle = [i + 1 for i, t in enumerate(touched) if not t]
        raise NonSphericalEmbedding(
            f"closure of strands {idle} has no crossings"
        )
    for t, b in zip(top, cur):
        ds.union(t, b)
    lists = [[ds.find(w) for w in c] for c in crossings]
    return relabel(lists, [0] * len(lists))


def _same_diagram(got, want):
    assert rows_of(got) == rows_of(want)
    assert got.arc_count == want.arc_count
    assert got.alpha == want.alpha
    assert got.faces == want.faces
    assert got.face_at == want.face_at
    assert got.component_count() == want.component_count()
    assert got.to_pd() == want.to_pd()


def test_from_darts_matches_relabel():
    seen = 0
    for d in unreduced_inputs(200):
        want = ref_from_darts(d.alpha, _axes(d))
        _same_diagram(LinkDiagram.from_darts(list(d.alpha), _axes(d)), want)
        seen += 1
    assert seen >= 150


def test_tree_diagrams_match_relabel():
    rng = seeded(5)
    trees = [
        parse_tree(random_tree_text(rng, 8, lo=1, hi=4)) for _ in range(300)
    ]
    assert sum(1 in map(abs, t.weights()) for t in trees) >= 100
    diagrams = [generate_diagram(t) for t in trees]
    diagrams += [make_pretzel_pd(qs) for qs in ([3, -3, 3], [2, 1, -4], [-1])]
    for d in diagrams:
        _same_diagram(d, ref_from_darts(d.alpha, _axes(d)))


def test_braid_closure_matches_the_disjoint_set_reference():
    # 2-5 strands, so the chain writer runs at every generator position,
    # the outermost strands included
    rng = seeded(9)
    exps = (-4, -3, -2, -1, 1, 2, 3, 4)
    seen = idle = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        word = parse_braid(
            " ".join(
                f"s{rng.randint(1, n - 1)}^{rng.choice(exps)}"
                for _ in range(rng.randint(1, 8))
            ),
            n,
        )
        try:
            want = ref_braid_to_diagram(word)
        except FoliarError as exc:
            with pytest.raises(type(exc)) as got:
                braid_to_diagram(word)
            assert str(got.value) == str(exc)
            idle += 1
            continue
        _same_diagram(braid_to_diagram(word), want)
        seen += 1
    assert seen >= 150 and idle >= 50


@pytest.mark.parametrize(
    "alpha",
    [
        [0, 2, 1, 3],  # darts 0 and 3 are their own partners
        [1, 2, 3, 0],  # a 4-cycle, not an involution
        [1, 0, 3, 4],  # a dart beyond the map
        [1, 0, 3],  # too few darts for one crossing
    ],
)
def test_from_darts_rejects_a_bad_dart_map(alpha):
    with pytest.raises(InternalError):
        LinkDiagram.from_darts(alpha, [0])


def test_from_darts_rejects_two_pieces():
    # two curls, each a crossing whose slots pair up among themselves
    with pytest.raises(NonSphericalEmbedding) as exc:
        LinkDiagram.from_darts([1, 0, 3, 2, 5, 4, 7, 6], [0, 0])
    assert str(exc.value) == "projection splits into 2 pieces"


def test_splice_and_compact_renumber_the_kept_vertices():
    # vertex 1 sits between vertices 0 and 2 on two strands
    alpha = [4, 5, 10, 11, 0, 1, 8, 9, 6, 7, 2, 3]
    assert splice_out(alpha, 1, ((0, 2), (1, 3))) == 0
    assert alpha == [8, 9, 10, 11, -1, -1, -1, -1, 0, 1, 2, 3]
    assert compact(alpha, [0, 2]) == [4, 5, 6, 7, 0, 1, 2, 3]
    # a strand that closes on itself drops out
    alpha = [1, 0, 3, 2]
    assert splice_out(alpha, 0, ((0, 1), (2, 3))) == 2
    assert alpha == [-1] * 4


def test_collapse_raises_on_a_stub_leading_into_a_region(fig8):
    # without its second region, the stubs of the first lead into the
    # crossings of the second: like a repeated record or one that is
    # not fig8's, a partial list is refused as bad input
    a, b = detect_twist_regions(fig8)
    message = "^collapse takes every region record once$"
    for regions in ([a], [a, a], [a, b, b], [a, b._replace(index=2)]):
        with pytest.raises(InputError, match=message):
            collapse(fig8, regions)


def test_collapse_of_the_records_in_any_order_is_collapse():
    d = braid_to_diagram(parse_braid("s1^4 s2^3 s1^-2 s2^2"))
    regions = detect_twist_regions(d)
    assert len(regions) == 4
    want = collapse(d)
    for order in (regions, regions[::-1], regions[2:] + regions[:2]):
        cg = collapse(d, order)
        assert (cg.vertices, cg.alpha, cg.bits) == (
            want.vertices, want.alpha, want.bits
        )
