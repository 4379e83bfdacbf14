"""The strand walk and the flat face lists against the references.

Building a diagram walks its strands, for the component count, for
connectivity and for the checkerboard colour bits of a knot or link,
and traces its faces once into the flat corners, start and face_at
lists.  The references are the way the package did it before: one list
per face, a strand walk that marks every dart, and a colouring that
traces the faces again from the darts.
"""

import hashlib
import random
from collections import Counter
from itertools import accumulate

import pytest

import foliar.diagram
from foliar import (
    check_main,
    check_tait,
    collapse,
    generate_diagram,
    parse_pd,
    parse_tree,
)
from foliar._planar import strands, two_color
from foliar.criterion import normal_form
from foliar.diagram import _pair
from foliar.errors import FoliarError, InternalError, NonSphericalEmbedding

from conftest import (
    CANCELLING_COLUMNS,
    FIG8,
    GRANNY3,
    HOPF,
    KINK,
    SQUARE_KNOT,
    TREFOIL,
    pieces,
    ref_two_color,
    strand_count,
    trace_faces,
    unreduced_inputs,
)


def _maps():
    """Diagrams, their mirror images and collapsed graphs, knots and
    links; the number of links among the diagrams."""
    texts = [TREFOIL, FIG8, HOPF, KINK, SQUARE_KNOT, GRANNY3]
    texts.append(CANCELLING_COLUMNS)
    diagrams = [parse_pd(t) for t in texts] + list(unreduced_inputs(200))
    # link trees, whose validation colours their normal forms
    diagrams += [generate_diagram(parse_tree(t)) for t in LINK_TREES]
    diagrams += [d.mirror() for d in diagrams]
    maps = list(diagrams)
    for d in diagrams:
        try:
            maps.append(collapse(d))
        except FoliarError:
            pass  # a mixed chain, which collapse refuses
        try:
            maps.append(normal_form(d)[0])
        except FoliarError:
            pass
    return maps, sum(d.component_count() != 1 for d in diagrams)


LINK_TREES = ("(3 (3))", "(3 (2) (2))")


def test_flat_faces_strands_and_colours_match_the_references():
    maps, links = _maps()
    assert links >= 200 and len(maps) >= 1000
    for m in maps:
        assert m.bits is not None
        faces, face_at = trace_faces(len(m.alpha), m.alpha)
        assert list(m.corners) == [c for f in faces for c in f]
        assert m.start == [0, *accumulate(map(len, faces))]
        assert m.face_at == face_at
        assert m.faces == faces
        assert two_color(m) == ref_two_color(m)
        if hasattr(m, "component_count"):
            assert m.component_count() == strand_count(m.alpha)


def _random_texts(count):
    """PD texts of 1 to 6 crossings, their labels paired at random."""
    rng = random.Random(43)
    for _ in range(count):
        n = rng.randint(1, 6)
        labels = [a for a in range(1, 2 * n + 1) for _ in (0, 1)]
        rng.shuffle(labels)
        yield " ".join(
            "X[%d,%d,%d,%d]" % tuple(labels[k:k + 4])
            for k in range(0, 4 * n, 4)
        )


def _corner_rule_holds(alpha):
    """Whether bits per vertex exist with bits[e >> 2] == bits[d >> 2] ^
    1 ^ ((d ^ e) & 1) on every edge d, e: a search over the vertices
    across each edge."""
    bits = {}
    for root in range(len(alpha) >> 2):
        if root in bits:
            continue
        bits[root] = 0
        todo = [root]
        while todo:
            v = todo.pop()
            for d in range(4 * v, 4 * v + 4):
                e = alpha[d]
                want = bits[v] ^ 1 ^ ((d ^ e) & 1)
                if e >> 2 not in bits:
                    bits[e >> 2] = want
                    todo.append(e >> 2)
                elif bits[e >> 2] != want:
                    return False
    return True


def test_strand_graph_counts_the_pieces_of_random_maps():
    # diagrams and collapsed graphs both count pieces on the strand
    # graph; these maps are one to four random label pairings side by
    # side, their crossings shuffled together, and are often not planar
    rng = random.Random(5)
    split = coloured = 0
    for _ in range(3000):
        rows, m = [], 0
        for _ in range(rng.randint(1, 4)):
            n = rng.randint(1, 4)
            labels = [a for a in range(m + 1, m + 2 * n + 1) for _ in (0, 1)]
            rng.shuffle(labels)
            rows += [labels[k:k + 4] for k in range(0, 4 * n, 4)]
            m += 2 * n
        rng.shuffle(rows)
        alpha = _pair([a for r in rows for a in r])
        count, k, bits = strands(alpha)
        assert (count, k) == (strand_count(alpha), pieces(alpha))
        assert (bits is None) == (not _corner_rule_holds(alpha))
        if bits is not None:
            coloured += 1
            for d, e in enumerate(alpha):
                assert bits[e >> 2] == bits[d >> 2] ^ 1 ^ ((d ^ e) & 1)
        split += k > 1
    assert split >= 2000 and 300 <= coloured <= 2700, (split, coloured)


def _outcome(check, d):
    try:
        v = check(d)
    except FoliarError as exc:
        return type(exc).__name__, str(exc)
    return v.status.value, v.reasons


# the digest the strand walk and flat faces must keep: at 62e058f, which
# counted components and pieces in walks of their own and traced one list
# per face, these texts gave it and the same tally
RANDOM_PAIRINGS_DIGEST = (
    "aa8d28db7f9382f7ebc044efea6f0971dcba6415db1990cc68dda5d221c6a126"
)


def test_random_pairings_keep_errors_and_verdicts():
    digest = hashlib.sha256()
    tally = Counter()
    for text in _random_texts(30000):
        try:
            d = parse_pd(text)
        except FoliarError as exc:
            row = type(exc).__name__, str(exc)
            tally[row[0]] += 1
        else:
            k = d.component_count()
            row = k, _outcome(check_main, d), _outcome(check_tait, d)
            tally["knot" if k == 1 else "link"] += 1
        digest.update(repr(row).encode())
    assert tally == {
        "NonSphericalEmbedding": 23633, "knot": 5823, "link": 544
    }
    assert digest.hexdigest() == RANDOM_PAIRINGS_DIGEST


def test_a_one_strand_torus_text_is_not_spherical():
    # one strand through both crossings, whose colour bits conflict; the
    # face count is checked first and names the embedding
    assert strands(_pair([1, 2, 3, 4, 1, 3, 2, 4])) == (1, 1, None)
    with pytest.raises(NonSphericalEmbedding) as exc:
        parse_pd("X[1,2,3,4] X[1,3,2,4]")
    assert str(exc.value) == "2 faces for 2 crossings"


def test_a_conflict_on_a_spherical_knot_is_an_internal_error(monkeypatch):
    # a knot or link that passes the face count lies on the sphere, whose
    # maps always two-colour, so a conflict there is a fault of the walk
    for text, count in ((TREFOIL, 1), (HOPF, 2)):
        monkeypatch.setattr(
            foliar.diagram, "strands", lambda alpha, k=count: (k, 1, None)
        )
        with pytest.raises(InternalError) as exc:
            parse_pd(text)
        assert str(exc.value) == "no checkerboard colouring along the strand"
