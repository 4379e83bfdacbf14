import pytest

from foliar import (
    Status,
    check_arborescent,
    check_main,
    collapse,
    detect_twist_regions,
    family_tree,
    generate_diagram,
    make_pretzel_pd,
    parse_pd,
    parse_tree,
)
from foliar.arborescent import WeightedPlanarTree, _validate
from foliar.diagram import LinkDiagram
from foliar.errors import ConstructionMismatch, MalformedTree, ZeroWeight

from conftest import FIG8, random_tree_text, ref_is_ring, seeded
from test_reference_routes import big_planar_tree


def _preorder(t):
    """(weight, parent) of t renumbered in preorder, children in planar
    order."""
    weight, parent, todo = [], [], [(0, None)]
    while todo:
        i, up = todo.pop()
        parent.append(up)
        todo += [(c, len(weight)) for c in reversed(t.children[i])]
        weight.append(t.weight[i])
    return tuple(weight), tuple(parent)


def _reads_back(t):
    u = parse_tree(t.to_text())
    return (u.weight, u.parent) == _preorder(t)


def test_parse_and_text_round_trip():
    rng = seeded(43)
    texts = ["(3)", "(2 (3))", "(-2 (3) (7))", "(3 (2 (3)) (1 (4)))"]
    texts += [random_tree_text(rng, 12, lo=1, hi=9) for _ in range(300)]
    for text in texts:
        t = parse_tree(text)
        assert (t.weight, t.parent) == _preorder(t)
        assert t.to_text() == text


def test_sampled_trees_and_their_rerootings_round_trip_through_text():
    # reroot numbers its tree in preorder, so parse_tree reads each
    # rerooting's text back as the same parent list
    rng = seeded(5)
    rerooted = 0
    for _ in range(2000):
        text = random_tree_text(rng, max_nodes=8, lo=1, hi=5)
        t = parse_tree(text)
        assert t.to_text() == text
        for r in t.rerootings():
            u = parse_tree(r.to_text())
            assert (u.weight, u.parent) == (r.weight, r.parent)
            rerooted += 1
    assert rerooted > 4000


def test_text_of_a_parent_list_not_in_preorder_reads_back():
    t = WeightedPlanarTree([2, 3, 4, 5, 6], [None, 0, 1, 0, 1])
    assert t.to_text() == "(2 (3 (4) (6)) (5))"
    assert _reads_back(t)
    big = big_planar_tree()
    assert _preorder(big)[1] != big.parent and _reads_back(big)
    rng = seeded(41)
    for _ in range(500):
        n = rng.randint(1, 30)
        weight = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(n)]
        parent = [None] + [rng.randrange(i) for i in range(1, n)]
        assert _reads_back(WeightedPlanarTree(weight, parent)), parent


def test_parse_errors():
    with pytest.raises(ZeroWeight):
        parse_tree("(0)")
    with pytest.raises(ZeroWeight):
        parse_tree("(2 (0))")
    with pytest.raises(MalformedTree):
        parse_tree("(2 (3)")
    with pytest.raises(MalformedTree):
        parse_tree("")
    with pytest.raises(MalformedTree):
        parse_tree("(2 x)")


def test_trees_built_without_parsing_reject_a_zero_weight():
    # (0 (3)) would print as text that parse_tree rejects; parse_tree
    # leaves the check to the same constructor, so text names the vertex
    for build, message in [
        (lambda: family_tree("two_bridge", [0, 3]), "vertex 0 has weight 0"),
        (lambda: family_tree("pretzel", [2, 3, 0]), "vertex 2 has weight 0"),
        (lambda: family_tree("montesinos", [3, (2, 0)]),
         "vertex 2 has weight 0"),
        (lambda: parse_tree("(3 (2) (0))"), "vertex 2 has weight 0"),
    ]:
        with pytest.raises(ZeroWeight) as exc:
            build()
        assert str(exc.value) == message


def test_weights_and_len():
    t = parse_tree("(2 (3))")
    assert len(t) == 2
    assert t.weights() == (2, 3)


def test_rerootings():
    t = parse_tree("(2 (3))")
    assert [rt.to_text() for rt in t.rerootings()] == ["(2 (3))", "(3 (2))"]


def test_family_tree_shapes():
    assert family_tree("two_bridge", [2, 3, 4]).to_text() == "(2 (3 (4)))"
    assert family_tree("pretzel", [-2, 3, 7]).to_text() == "(-2 (3) (7))"
    assert (
        family_tree("montesinos", [3, (2, 3), (1, 4)]).to_text()
        == "(3 (2 (3)) (1 (4)))"
    )
    # an arm is a path of any length hanging off the centre
    assert (
        family_tree("montesinos", [3, [2], [2, 3, -4]]).to_text()
        == "(3 (2) (2 (3 (-4))))"
    )


def test_single_vertex_generates_closed_chain():
    d = generate_diagram(parse_tree("(3)"))
    (r,) = detect_twist_regions(d)
    assert (r.count, r.handedness) == (3, 1)
    assert ref_is_ring(d, r.crossings)
    d = generate_diagram(parse_tree("(-3)"))
    r = detect_twist_regions(d)[0]
    assert (r.count, r.handedness) == (3, -1)


def test_two_vertex_path_is_double_twist():
    d = generate_diagram(parse_tree("(2 (2))"))
    ref = parse_pd(FIG8)
    va, vb = check_main(d), check_main(ref)
    assert va.status == vb.status == Status.HYPOTHESES_FAIL
    assert va.weights_green == vb.weights_green == (2,)
    assert va.weights_red == vb.weights_red == (2,)


def test_generated_diagrams_are_validated():
    rng = seeded(11)
    for _ in range(40):
        t = parse_tree(random_tree_text(rng))
        d = generate_diagram(t)
        assert len(d.faces) == len(d) + 2


def test_root_choice_does_not_change_verdict():
    rng = seeded(5)
    done = 0
    for _ in range(30):
        t = parse_tree(random_tree_text(rng, max_nodes=4))
        verdicts = set()
        for rt in t.rerootings():
            v = check_arborescent(rt)
            verdicts.add((v.status, tuple(sorted(v.weights_green))))
        assert len(verdicts) == 1
        done += 1
    assert done == 30


def test_check_accepts_text():
    v = check_arborescent("(2 (3))")
    assert v.status == Status.CERTIFIED
    assert v.weights_green == (2, 3)
    assert v.weights_red == ()


def test_single_vertex_fails_at_tree_level():
    v = check_arborescent("(5)")
    assert v.status == Status.HYPOTHESES_FAIL
    assert v.reasons == ("SingleVertex",)
    assert v.weights_green == (5,)


def test_single_vertex_diagram_is_excluded():
    v = check_main(generate_diagram(parse_tree("(5)")))
    assert v.status == Status.EXCLUDED
    assert v.reasons == ("DkDiagram(5)",)


def test_small_weights_reported():
    v = check_arborescent("(2 (1 (3)))")
    assert v.status == Status.HYPOTHESES_FAIL
    assert "WeightTooSmall(vertex=1,weight=1)" in v.reasons


def test_no_weight_above_two():
    v = check_arborescent("(2 (2))")
    assert v.status == Status.HYPOTHESES_FAIL
    assert v.reasons == ("NoWeightAboveTwo",)


def test_link_trees_rejected_as_knots():
    v = check_arborescent("(2 (3) (7))")
    assert v.status == Status.HYPOTHESES_FAIL
    assert v.reasons == ("NotAKnot(2)",)


def test_flat_pretzel_pd_matches_counts():
    d = make_pretzel_pd([-2, 3, 7])
    assert d.component_count() == 1
    dec = detect_twist_regions(d)
    assert sorted(r.count for r in dec) == [2, 3, 7]
    # column chains sit crosswise to the closure, so the stored
    # handedness is opposite to the column sign
    assert sorted(r.handedness * r.count for r in dec) == [-7, -3, 2]


def test_tree_and_diagram_verdicts_agree():
    rng = seeded(23)
    compared = 0
    for _ in range(120):
        t = parse_tree(random_tree_text(rng, max_nodes=5))
        if len(t) < 2:
            continue
        tv = check_arborescent(t)
        dv = check_main(generate_diagram(t))
        if "NotAKnot(2)" in tv.reasons or dv.status == Status.EXCLUDED:
            continue
        assert tv.status == dv.status
        compared += 1
    assert compared >= 25


def _relabelled(d, p):
    """d with crossing c renumbered p[c]."""
    alpha = [0] * len(d.alpha)
    for x, y in enumerate(d.alpha):
        alpha[4 * p[x >> 2] + (x & 3)] = 4 * p[y >> 2] + (y & 3)
    axes = [0] * len(d)
    for c, a in enumerate(d.axes):
        axes[p[c]] = a
    return LinkDiagram.from_darts(alpha, axes)


def test_validate_mismatch_messages():
    # (2 (3)) assembles crossings 0-1 for the root and 2-4 for its child
    t = parse_tree("(2 (3))")
    d = generate_diagram(t)
    _validate(t, d)
    # (2 (3) (2)) assembles crossings 0-1, 2-4 and 5-6; swapping 4 and 5
    # keeps every count and sign but makes region 1 {2, 3, 5}, which
    # reaches into the next vertex's block
    fork = parse_tree("(2 (3) (2))")
    swapped = _relabelled(generate_diagram(fork), [0, 1, 2, 3, 5, 4, 6])
    cases = [
        (fork, swapped, "region 1 does not match a single vertex"),
        (t, d.mirror(), "vertex 0: handedness -1, expected 1"),
        (parse_tree("(3 (2))"), d, "region 0 does not match a single vertex"),
        (parse_tree("(2)"), d, "2 twist regions for 1 vertices"),
    ]
    for tree, diagram, message in cases:
        with pytest.raises(ConstructionMismatch) as exc:
            _validate(tree, diagram)
        assert str(exc.value) == message


def test_validate_reports_a_mixed_chain_as_a_construction_bug():
    # (3 (2)) assembles crossings 0-2 for the root and 3-4 for its child;
    # turning crossing 1 over mixes the root's chain, which only a bug in
    # the builder could do, so validation raises an InternalError and
    # not the NonAlternatingChain of bad input
    t = parse_tree("(3 (2))")
    d = generate_diagram(t)
    axes = list(d.axes)
    axes[1] ^= 1
    turned = LinkDiagram.from_darts(list(d.alpha), axes)
    with pytest.raises(ConstructionMismatch) as exc:
        _validate(t, turned)
    assert str(exc.value) == "region 0 does not match a single vertex"
