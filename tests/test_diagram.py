import pytest

from foliar import LinkDiagram, parse_pd
from foliar.errors import (
    ArcCountMismatch,
    EmptyDiagram,
    MalformedToken,
    NonSphericalEmbedding,
)

from conftest import FIG8, HOPF, KINK, TREFOIL


def test_trefoil_shape(trefoil):
    assert len(trefoil.crossings) == 3
    assert trefoil.arc_count == 6
    assert len(trefoil.faces) == 5
    assert trefoil.component_count() == 1


def test_face_count_is_crossings_plus_two(trefoil, fig8, hopf, kink):
    for d in (trefoil, fig8, hopf, kink):
        assert len(d.faces) == len(d.crossings) + 2


def test_face_corners_partition_gaps(fig8):
    # a corner is the dart 4 * crossing + gap a traversal arrives on
    corners = [c for f in fig8.faces for c in f.corners]
    assert len(corners) == 4 * len(fig8.crossings)
    assert len(set(corners)) == len(corners)
    for f in fig8.faces:
        for c in f.corners:
            assert fig8.face_at[c] == f.index


def test_kink_has_monogon(kink):
    sizes = sorted(f.size for f in kink.faces)
    assert sizes == [1, 1, 2]


def test_component_counts(hopf, fig8):
    assert hopf.component_count() == 2
    assert fig8.component_count() == 1


def test_mirror_is_involution(fig8):
    back = fig8.mirror().mirror()
    assert back.crossings == fig8.crossings


def test_mirror_flips_under_axis_only(trefoil):
    m = trefoil.mirror()
    for a, b in zip(trefoil.crossings, m.crossings):
        assert a.slots == b.slots
        assert a.under_axis != b.under_axis


def test_pd_round_trip(trefoil, fig8):
    for d in (trefoil, fig8):
        back = parse_pd(d.to_pd())
        assert len(back.faces) == len(d.faces)
        assert back.component_count() == d.component_count()


def test_json_round_trip(fig8):
    back = LinkDiagram.from_json(fig8.to_json())
    assert back.crossings == fig8.crossings


def test_mirror_to_pd_reparses(trefoil):
    m = parse_pd(trefoil.mirror().to_pd())
    assert len(m.crossings) == 3
    assert len(m.faces) == 5


def test_empty_input_rejected():
    with pytest.raises(EmptyDiagram):
        parse_pd("")
    with pytest.raises(EmptyDiagram):
        parse_pd("   \n ")


def test_malformed_tokens_rejected():
    with pytest.raises(MalformedToken):
        parse_pd("X[1,2,3]")
    with pytest.raises(MalformedToken):
        parse_pd("Y[1,2,3,4]")
    with pytest.raises(MalformedToken):
        parse_pd("X[1,2,3,4] garbage")


def test_arc_count_mismatch():
    with pytest.raises(ArcCountMismatch):
        parse_pd("X[1,4,2,5] X[3,6,4,1]")


@pytest.mark.parametrize(
    "text, offending",
    [
        ("X[1,4,2,5] X[3,6,4,1]", [2, 3, 5, 6]),
        ("X[1,2,3,4] X[1,2,3,9]", [4, 9]),
        ("X[1,1,2,2] X[3,3,5,5]", [1, 2, 3, 5]),
        ("X[1,2,3,4] X[5,6,7,8]", [1, 2, 3, 4, 5, 6, 7, 8]),
        # every label is used twice but they are not 1..4: all are shown
        ("X[1,2,3,6] X[1,2,3,6]", [1, 2, 3, 6]),
    ],
)
def test_arc_count_mismatch_names_the_offending_labels(text, offending):
    with pytest.raises(ArcCountMismatch) as exc:
        parse_pd(text)
    n = text.count("X")
    assert str(exc.value) == (
        f"expected arcs 1..{2 * n} twice each; offending labels {offending}"
    )


def test_disconnected_projection_rejected():
    with pytest.raises(NonSphericalEmbedding):
        parse_pd("X[1,1,2,2] X[3,3,4,4]")


def test_fixture_strings_parse():
    for text in (TREFOIL, FIG8, HOPF, KINK):
        parse_pd(text)
