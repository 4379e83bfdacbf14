"""What a diagram or a tree derives from itself is computed once.

A diagram keeps its component count, its twist regions, its
reduction and its normal form, so both routes and augment share one
cancellation and one detection per diagram, and a tree's validation and
the main route share one normal form; a tree keeps its validated
diagram.  Nothing it keeps may refer back to it, or every diagram would
need a cyclic collection to be freed.
"""

import gc
import sys
import weakref

import pytest

import foliar.sidegraphs
import foliar.twists
from foliar import (
    augment,
    braid_to_diagram,
    check_arborescent,
    check_main,
    check_tait,
    detect_twist_regions,
    generate_diagram,
    parse_braid,
    parse_pd,
    parse_tree,
    reduce_assumption1,
)
from foliar.criterion import normal_form
from foliar.twists import flat_regions
from foliar.errors import InputError, NonAlternatingChain, NonSphericalEmbedding

from conftest import (
    HOPF,
    DisjointSets,
    from_rows,
    random_braid_text,
    random_tree_text,
    rows_of,
    seeded,
)
from test_rounds import _count_builds

# ten mixed chains, all cancelled in one round
MIXED = " ".join(["s1^4 s1^-1 s2^4 s2^-1"] * 5)
MIXED_MESSAGE = (
    "chain through crossings (4, 3, 2, 1, 0) mixes handedness (-1, 1, 1, 1, 1)"
)
CLEAN = "s1^3 s2^-3 s1^3 s2^-3"


def _braid(text):
    return braid_to_diagram(parse_braid(text))


def _count_detections(monkeypatch):
    calls = []
    original = foliar.twists._detect

    def counting(d):
        calls.append(len(d))
        return original(d)

    monkeypatch.setattr(foliar.twists, "_detect", counting)
    return calls


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name through every foliar module binding it."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(name)
        return original(*args)

    for m in list(sys.modules.values()):
        if m.__name__.startswith("foliar") and vars(m).get(name) is original:
            monkeypatch.setattr(m, name, counting)
    return calls


# -- components and pieces walked over darts ---------------------------------

def _ref_components(d):
    ds = DisjointSets()
    for s in rows_of(d)[0]:
        ds.union(s[0], s[2])
        ds.union(s[1], s[3])
    return len({ds.find(a) for a in range(1, d.arc_count + 1)})


def _ref_pieces(rows):
    ds = DisjointSets()
    for ci, s in enumerate(rows):
        for a in s:
            ds.union(("c", ci), ("a", a))
    return len({ds.find(("c", ci)) for ci in range(len(rows))})


def _seeded_diagrams():
    rng = seeded(11)
    out = [parse_pd(HOPF)]
    for _ in range(60):
        try:
            out.append(_braid(random_braid_text(rng, 6, (-3, -2, -1, 1, 2, 3))))
        except InputError:
            pass  # an idle strand
        out.append(generate_diagram(parse_tree(random_tree_text(rng))))
    return out


def _disjoint_union(diagrams):
    rows, axes, shift = [], [], 0
    for d in diagrams:
        d_rows, d_axes = rows_of(d)
        rows += [[a + shift for a in s] for s in d_rows]
        axes += d_axes
        shift += d.arc_count
    return rows, axes


def test_dart_walks_match_disjoint_sets():
    diagrams = _seeded_diagrams()
    assert {_ref_components(d) for d in diagrams} >= {1, 2, 3}
    for d in diagrams:
        assert d.component_count() == _ref_components(d)
    rng = seeded(12)
    for _ in range(40):
        rows, axes = _disjoint_union(rng.sample(diagrams, rng.randint(2, 4)))
        with pytest.raises(NonSphericalEmbedding) as exc:
            from_rows(rows, axes)
        want = _ref_pieces(rows)
        assert str(exc.value) == f"projection splits into {want} pieces"


# -- one cancellation and one detection per diagram --------------------------

def test_routes_share_one_cancellation(monkeypatch):
    d = _braid(MIXED)
    builds = _count_builds(monkeypatch)
    check_main(d)
    assert builds == [30]
    check_tait(d)
    # augment reads the normal form kept on d: no build, no detection
    detections = _count_detections(monkeypatch)
    assert [c.count for c in augment(d)] == [3] * 10
    assert (builds, detections) == ([30], [])


def test_routes_share_one_detection(monkeypatch):
    d = _braid(MIXED)
    detections = _count_detections(monkeypatch)
    check_main(d)
    check_tait(d)
    r = reduce_assumption1(d)
    assert len(augment(r)) == 10
    # one detection of the input, one of its reduction
    assert detections == [50, 30]


def test_clean_diagram_is_detected_once_and_is_its_own_reduction(monkeypatch):
    d = _braid(CLEAN)
    detections = _count_detections(monkeypatch)
    builds = _count_builds(monkeypatch)
    check_main(d)
    check_tait(d)
    augment(d)
    assert reduce_assumption1(d) is d
    assert detections == [12]
    assert builds == []


def test_strict_detection_raises_from_stored_regions(monkeypatch):
    d = _braid(MIXED)
    mixed = detect_twist_regions(d, allow_mixed=True)
    assert sum(r.handedness == 0 for r in mixed) == 10
    detections = _count_detections(monkeypatch)
    for _ in range(2):  # exceptions are not stored; each call raises anew
        with pytest.raises(NonAlternatingChain) as exc:
            detect_twist_regions(d)
        assert str(exc.value) == MIXED_MESSAGE
    # the records are built anew from the kept lists on every call
    assert detect_twist_regions(d, allow_mixed=True) == mixed
    assert detections == []


class _Watched(list):
    """Kept signed counts that record each scan over them."""

    scans = 0

    def __iter__(self):
        type(self).scans += 1
        return super().__iter__()


def test_strict_detection_does_not_scan_the_regions(monkeypatch):
    # whether a diagram has a mixed chain is found with its regions and
    # kept beside them, so a strict call neither detects nor scans again
    monkeypatch.setattr(_Watched, "scans", 0)
    clean, mixed = _braid(CLEAN), _braid(MIXED)
    for d in (clean, mixed):
        signed, *rest = flat_regions(d, allow_mixed=True)
        d._regions = (_Watched(signed), *rest)
    detections = _count_detections(monkeypatch)
    assert flat_regions(clean) is clean._regions
    assert reduce_assumption1(clean) is clean
    with pytest.raises(NonAlternatingChain) as exc:
        detect_twist_regions(mixed)
    assert str(exc.value) == MIXED_MESSAGE
    assert (_Watched.scans, detections) == (0, [])


def test_tree_diagram_is_built_once(monkeypatch):
    t = parse_tree("(3 (-2) (2 (4)))")
    builds = _count_builds(monkeypatch)
    check_arborescent(t)
    d = generate_diagram(t)
    assert builds == [11]
    assert generate_diagram(t) is d
    fresh = generate_diagram(parse_tree("(3 (-2) (2 (4)))"))
    assert fresh is not d and fresh.to_pd() == d.to_pd()
    assert builds == [11, 11]


def test_tree_diagram_is_normalised_once(monkeypatch):
    collapses = _count_calls(monkeypatch, foliar.twists, "collapse")
    sides = _count_calls(monkeypatch, foliar.sidegraphs, "build_side_graphs")
    t = parse_tree("(3 (-2) (2 (4)))")
    check_arborescent(t)
    d = generate_diagram(t)
    assert check_main(d).status.value == "certified"
    assert (collapses, sides) == (["collapse"], ["build_side_graphs"])


# -- nothing kept refers back --------------------------------------------------

def _run_all(d):
    check_main(d)
    check_tait(d)
    augment(d)


@pytest.fixture
def no_gc():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_clean_diagram_dies_without_a_collection(no_gc):
    d = _braid(CLEAN)
    _run_all(d)
    assert reduce_assumption1(d) is d
    ref = weakref.ref(d)
    del d
    assert ref() is None


def test_reduced_diagram_dies_without_a_collection(no_gc):
    d = _braid(MIXED)
    _run_all(d)
    r = reduce_assumption1(d)
    _run_all(r)
    refs = [weakref.ref(d), weakref.ref(r)]
    del d, r
    assert [ref() for ref in refs] == [None, None]


def test_tree_and_its_diagram_die_without_a_collection(no_gc):
    t = parse_tree("(3 (-3) (3))")
    check_arborescent(t)
    d = generate_diagram(t)
    _run_all(d)
    refs = [weakref.ref(t), weakref.ref(d), *map(weakref.ref, normal_form(d))]
    del t, d
    assert [ref() for ref in refs] == [None] * 5
