import pytest

from foliar import (
    LinkDiagram,
    augment,
    braid_to_diagram,
    check_main,
    check_tait,
    generate_diagram,
    parse_braid,
    parse_pd,
    parse_tree,
    reduce_assumption1,
)
from foliar.errors import (
    ArcCountMismatch,
    EmptyDiagram,
    FoliarError,
    InputError,
    MalformedToken,
    NonSphericalEmbedding,
)

from conftest import (
    FIG8,
    HOPF,
    KINK,
    TREFOIL,
    from_rows,
    random_braid_text,
    random_tree_text,
    rows_of,
    seeded,
    unreduced_inputs,
)


def test_trefoil_shape(trefoil):
    assert len(trefoil) == 3
    assert trefoil.arc_count == 6
    assert len(trefoil.faces) == 5
    assert trefoil.component_count() == 1


def test_face_count_is_crossings_plus_two(trefoil, fig8, hopf, kink):
    for d in (trefoil, fig8, hopf, kink):
        assert len(d.faces) == len(d) + 2


def test_face_corners_partition_gaps(fig8):
    # a corner is the dart 4 * crossing + gap a traversal arrives on
    corners = [c for f in fig8.faces for c in f]
    assert len(corners) == 4 * len(fig8)
    assert len(set(corners)) == len(corners)
    for fi, f in enumerate(fig8.faces):
        for c in f:
            assert fig8.face_at[c] == fi


def test_kink_has_monogon(kink):
    sizes = sorted(len(f) for f in kink.faces)
    assert sizes == [1, 1, 2]


def test_component_counts(hopf, fig8):
    assert hopf.component_count() == 2
    assert fig8.component_count() == 1


def test_mirror_is_involution(fig8):
    back = fig8.mirror().mirror()
    assert rows_of(back) == rows_of(fig8)


def test_mirror_flips_under_axis_only(trefoil):
    rows, axes = rows_of(trefoil)
    m_rows, m_axes = rows_of(trefoil.mirror())
    assert rows == m_rows
    for a, b in zip(axes, m_axes):
        assert a != b


def _outcome(fn, d):
    try:
        return fn(d)
    except InputError as exc:
        return type(exc), str(exc)


def _routes(d):
    return [_outcome(f, d) for f in (check_main, check_tait, augment)]


def test_mirror_shares_alpha_and_matches_a_fresh_build(
    trefoil, fig8, hopf, kink
):
    for d in [trefoil, fig8, hopf, kink, *unreduced_inputs(120)]:
        alpha = list(d.alpha)
        _routes(d)  # what d keeps of its routes must not reach its mirror
        m = d.mirror()
        assert m.alpha is d.alpha
        assert (list(m.mirror().alpha), m.mirror().axes) == (alpha, d.axes)
        assert m.mirror().to_pd() == d.to_pd()
        assert parse_pd(m.to_pd()).to_pd() == m.to_pd()
        # PD text turns each under_axis 1 crossing by a slot, so its
        # darts are numbered differently; JSON keeps the numbering
        fresh = LinkDiagram.from_json(m.to_json())
        assert _routes(m) == _routes(fresh)
        # nothing writes into the dart map the two diagrams share
        assert list(d.alpha) == alpha


def test_pd_round_trip(trefoil, fig8):
    for d in (trefoil, fig8):
        back = parse_pd(d.to_pd())
        assert len(back.faces) == len(d.faces)
        assert back.component_count() == d.component_count()


def test_json_round_trip(fig8):
    back = LinkDiagram.from_json(fig8.to_json())
    assert rows_of(back) == rows_of(fig8)


def _built_diagrams():
    """Braid closures, tree diagrams and the reduced diagrams of
    unreduced_inputs: no source text, so printing numbers their arcs
    from the dart map."""
    rng = seeded(5)
    for _ in range(40):
        try:
            yield braid_to_diagram(parse_braid(random_braid_text(rng, 6)))
        except FoliarError:  # a closure that splits
            continue
    for _ in range(40):
        yield generate_diagram(parse_tree(random_tree_text(rng, 7)))
    for d in unreduced_inputs(120):
        try:
            yield reduce_assumption1(d)
        except FoliarError:  # cancellation splits off a closed strand
            continue


def test_built_diagrams_round_trip_through_pd_and_json():
    for d in _built_diagrams():
        want = (list(d.alpha), d.axes)
        for back in (parse_pd(d.to_pd()), LinkDiagram.from_json(d.to_json())):
            assert (list(back.alpha), back.axes) == want


def test_parsed_diagrams_round_trip_through_pd_and_json(
    trefoil, fig8, hopf, kink
):
    # diagrams read from text keep it, and print what they were read
    # from; JSON rows turned by a slot, under_axis 1, keep their slots
    rng = seeded(3)
    seen = turned = 0
    for d in [trefoil, fig8, hopf, kink, *unreduced_inputs(200)]:
        d = parse_pd(d.to_pd())
        want = (list(d.alpha), d.axes)
        for back in (parse_pd(d.to_pd()), LinkDiagram.from_json(d.to_json())):
            assert (list(back.alpha), back.axes) == want
        rows, axes = rows_of(d)
        for i, row in enumerate(rows):
            if rng.random() < 0.5:
                rows[i], axes[i] = row[1:] + row[:1], 1
        j = from_rows(rows, axes)
        back = LinkDiagram.from_json(j.to_json())
        assert (list(back.alpha), back.axes) == (list(j.alpha), j.axes)
        seen += 1
        turned += 1 in axes
    # PD text turns each under_axis 1 row back by a slot, which can change
    # the verdict (ROADMAP item 4), so JSON to PD is not pinned here
    assert seen == 198 and turned >= 150, (seen, turned)


def test_mirror_to_pd_reparses(trefoil):
    m = parse_pd(trefoil.mirror().to_pd())
    assert len(m) == 3
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
