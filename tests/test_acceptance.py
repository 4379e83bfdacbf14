"""End-to-end acceptance checks.

Each test here pins one externally visible guarantee of the package:
the closed-chain table, the flat pretzel failure, the side-graph
dichotomy, face invariants, route agreement, the family sweeps, the
exact surgery classifier, the slope planner, and the theorem on every
small plane tree.  Seeds and bucket counts are frozen; a change in any
of them is a behaviour change.
"""

import itertools
from collections import Counter
from fractions import Fraction

from foliar import (
    Slope,
    Status,
    augment,
    braid_to_diagram,
    build_side_graphs,
    check_arborescent,
    check_braid,
    check_main,
    check_tait,
    circles_from_counts,
    classify_borromean,
    collapse,
    connectivity_report,
    diagnose,
    generate_diagram,
    make_pretzel_pd,
    parse_braid,
    parse_tree,
    plan_configurations,
    reduce_braid,
    reduce_assumption1,
    verify_plan,
)
from foliar.criterion import detect_dk, normal_form, reshaped
from foliar.errors import (
    EmptyWord,
    FoliarError,
    NonSphericalEmbedding,
    Unsatisfiable,
)

from conftest import random_braid_text, random_tree_text, seeded


# -- 1. closed twist chains are recognised with their signed count ----------

def test_closed_chain_table():
    for k in (3, 5, 7, 9):
        d = generate_diagram(parse_tree(f"({k})"))
        assert detect_dk(collapse(d)) == k
        v = check_main(d)
        assert v.status == Status.EXCLUDED
        assert v.reasons == (f"DkDiagram({k})",)

        m = d.mirror()
        assert detect_dk(collapse(m)) == -k
        vm = check_main(m)
        assert vm.status == Status.EXCLUDED
        assert vm.reasons == (f"DkDiagram(-{k})",)


# -- 2. the flat pretzel fails while a five-region tree certifies -----------

def test_flat_pretzel_fails_and_five_region_tree_certifies():
    v = check_main(make_pretzel_pd([-2, 3, 7]))
    assert v.status == Status.HYPOTHESES_FAIL
    assert v.reasons == ("Disconnected(red)",)
    assert v.weights_green == (2, 3, 7)

    # first five-vertex path with weights from {2, 3} that certifies
    found = None
    for ws in itertools.product((2, 3), repeat=5):
        text = "({} ({} ({} ({} ({})))))".format(*ws)
        if check_arborescent(text).status == Status.CERTIFIED:
            found = text
            break
    assert found == "(2 (2 (2 (2 (3)))))"
    d = generate_diagram(parse_tree(found))
    assert d.component_count() == 1
    dg = diagnose(d)
    assert dg.verdict.status == Status.CERTIFIED
    assert dg.branch == "main_construction"
    assert dg.surfaces == 7
    assert dg.twist_counts == (2, 2, 2, 2, 3)


# -- 3 & 4. side-graph dichotomy and face invariants over a mixed corpus ----

def _corpus_diagrams():
    rng = seeded(101)
    out = []
    for _ in range(160):
        try:
            out.append(generate_diagram(parse_tree(random_tree_text(rng))))
        except FoliarError:
            pass
    rng = seeded(202)
    for _ in range(160):
        try:
            w = reduce_braid(parse_braid(random_braid_text(rng)))
            out.append(braid_to_diagram(w))
        except FoliarError:
            pass
    return out


def test_dichotomy_and_vertex_split_suite():
    checked = 0
    for d in _corpus_diagrams():
        assert len(d.faces) == len(d) + 2
        try:
            r = reduce_assumption1(d)
            cg = collapse(r)
        except FoliarError:
            continue
        assert len(cg.faces) == len(cg.vertices) + 2
        green, red = build_side_graphs(cg)
        split = len(green.vertices) + len(red.vertices)
        assert split == len(cg.vertices) + 2
        # raises if both sides were connected without both being trees
        connectivity_report(green, red)
        if green.is_connected() and red.is_connected():
            assert green.is_tree() and red.is_tree()
        checked += 1
    assert checked >= 200


# -- 5. the direct route and the checkerboard route agree -------------------

def test_route_agreement_on_clean_corpus():
    compared = 0
    for d in _corpus_diagrams():
        try:
            mv = check_main(d)
        except FoliarError:
            continue
        if reshaped(mv):
            continue
        assert check_tait(d).status == mv.status
        compared += 1
    assert compared >= 100


# -- 6. tree family sweep ---------------------------------------------------

def _tree_shapes(n):
    """Ordered rooted tree shapes with n vertices as nested tuples."""
    if n == 1:
        return [()]
    shapes = []
    for first in range(1, n):
        for head in _tree_shapes(first):
            for rest in _forests(n - 1 - first):
                shapes.append((head,) + rest)
    return shapes


def _forests(n):
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for head in _tree_shapes(first):
            for rest in _forests(n - first):
                out.append((head,) + rest)
    return out


def _shape_to_text(shape, weights, idx):
    w = weights[idx[0]]
    idx[0] += 1
    inner = "".join(" " + _shape_to_text(s, weights, idx) for s in shape)
    return f"({w}{inner})"


def _tree_agrees(text):
    t = parse_tree(text)
    d = generate_diagram(t)
    assert len(d.faces) == len(d) + 2
    tv = check_arborescent(t)
    if len(t) == 1 or d.component_count() != 1:
        return
    dv = check_main(d)
    if dv.status == Status.EXCLUDED:
        return
    assert tv.status == dv.status, text


def test_tree_sweep_sampled():
    rng = seeded(404)
    for _ in range(80):
        _tree_agrees(random_tree_text(rng, max_nodes=6))


def test_tree_sweep_exhaustive():
    total = 0
    for n in range(1, 7):
        for shape in _tree_shapes(n):
            for ws in itertools.product((2, 3), repeat=n):
                _tree_agrees(_shape_to_text(shape, ws, [0]))
                total += 1
            for w in (-2, -3):
                _tree_agrees(_shape_to_text(shape, (w,) * n, [0]))
                total += 1
    assert total == 3368


# -- 7. exhaustive three-strand suite ---------------------------------------

def test_three_strand_suite_frozen_counts():
    choices = [(g, e) for g in (1, 2) for e in (-3, -2, 2, 3)]
    identity = split = diagrams = certified = mismatches = 0
    total = 0
    for length in range(1, 5):
        for sylls in itertools.product(choices, repeat=length):
            total += 1
            word = " ".join(f"s{g}^{e}" for g, e in sylls)
            try:
                w = reduce_braid(parse_braid(word, 3))
            except EmptyWord:
                identity += 1
                continue
            try:
                d = braid_to_diagram(w)
            except NonSphericalEmbedding:
                split += 1
                continue
            diagrams += 1
            bv = check_braid(w)
            mv = check_main(d)
            if bv.status == Status.CERTIFIED:
                certified += 1
            b_cert = bv.status == Status.CERTIFIED
            m_cert = mv.status == Status.CERTIFIED
            if b_cert != m_cert:
                mismatches += 1
    assert total == 4680
    assert identity == 144
    assert split == 1080
    assert diagrams == 3456
    assert certified == 696
    assert mismatches == 0


# -- 8. exact surgery classification with its symmetries --------------------

BORROMEAN_ANCHORS = [
    (("1", "1", "1"), "lspace"),
    (("1/2", "3", "5"), "taut_foliation"),
    (("inf", "2", "-3"), "lspace"),
    (("0", "7", "-7"), "taut_foliation"),
    (("inf", "inf", "inf"), "lspace"),
    (("inf", "0", "5"), "out_of_scope"),
]


def test_borromean_anchor_table():
    for slopes, outcome in BORROMEAN_ANCHORS:
        v = classify_borromean(*(Slope.parse(s) for s in slopes))
        assert v.outcome == outcome, slopes


def test_borromean_grid_symmetry():
    grid = [Slope(k, 2) for k in range(-10, 11)] + [Slope(1, 0)]
    assert len(grid) == 22

    def mirror(s):
        return Slope(-s.p, s.q) if s.q else s

    outcomes = {}
    for r1, r2, r3 in itertools.product(grid, repeat=3):
        v = classify_borromean(r1, r2, r3)
        outcomes[(r1, r2, r3)] = v.outcome
    for (r1, r2, r3), outcome in outcomes.items():
        assert outcomes[(r2, r3, r1)] == outcome
        assert outcomes[(r2, r1, r3)] == outcome
        m = classify_borromean(mirror(r1), mirror(r2), mirror(r3))
        assert m.outcome == outcome


def test_borromean_finite_sign_rule():
    # with all slopes finite, one verdict per side of the all-one cube
    v = classify_borromean(Slope(1, 1), Slope(3, 2), Slope(9, 1))
    assert v.outcome == "lspace"
    v = classify_borromean(Slope(1, 1), Slope(3, 2), Slope(1, 2))
    assert v.outcome == "taut_foliation"


# -- 9. the slope planner is total away from the all-two case ---------------

def test_planner_totality_with_witnesses():
    planned = refused = 0
    for length in range(1, 6):
        for counts in itertools.combinations_with_replacement(
            range(2, 10), length
        ):
            circles = circles_from_counts(list(counts))
            try:
                plan = plan_configurations(circles)
            except Unsatisfiable:
                assert set(counts) == {2}, counts
                refused += 1
                continue
            assert verify_plan(circles, plan), counts
            planned += 1
    assert planned + refused == 1286
    assert refused == 5  # (2,), (2,2), ... up to five twos


def test_planner_handles_mixed_handedness():
    rng = seeded(77)
    for _ in range(150):
        n = rng.randint(1, 5)
        counts = [rng.choice([-1, 1]) * rng.randint(2, 9) for _ in range(n)]
        circles = circles_from_counts(counts)
        try:
            plan = plan_configurations(circles)
        except Unsatisfiable:
            assert all(abs(c) == 2 for c in counts), counts
            continue
        assert verify_plan(circles, plan), counts


# -- 10. augmentation data for every chain length ---------------------------

def test_augmentation_coefficient_table():
    for count in range(2, 10):
        for sign in (1, -1):
            d = generate_diagram(parse_tree(f"({sign * count})"))
            circles = augment(d)
            assert len(circles) == 1
            c = circles[0]
            assert c.count == count
            assert abs(c.k) == count // 2
            assert c.coefficient.as_fraction() == Fraction(1, c.k)


# -- 11. the theorem on every plane tree of 2-4 vertices ---------------------

def _plane_tree_table(weights):
    """Every plane tree of 2-4 vertices with every vertex weighted from
    weights, as tree text."""
    for n in (2, 3, 4):
        for shape in _tree_shapes(n):
            for ws in itertools.product(weights, repeat=n):
                yield ws, _shape_to_text(shape, ws, [0])


def test_every_small_plane_tree_knot_is_certified_and_planned():
    # weights from +-2, +-3, +-4 with some |w| >= 3: the theorem's trees
    trees = knots = 0
    links = Counter()
    for ws, text in _plane_tree_table((2, -2, 3, -3, 4, -4)):
        if all(abs(w) == 2 for w in ws):
            continue
        trees += 1
        t = parse_tree(text)
        v = check_arborescent(t)
        if v.status != Status.CERTIFIED:
            links[v.reasons] += 1
            continue
        knots += 1
        d = generate_diagram(t)
        assert check_main(d).status == Status.CERTIFIED, text
        assert check_tait(d).status == Status.CERTIFIED, text
        for circles in (
            augment(d),
            circles_from_counts(normal_form(d)[0].vertices),
        ):
            assert verify_plan(circles, plan_configurations(circles)), text
    assert (trees, knots) == (6848, 3948)
    assert links == {("NotAKnot(2)",): 2164, ("NotAKnot(3)",): 736}


def test_every_small_all_two_tree_knot_fails_every_route():
    trees = knots = 0
    for _, text in _plane_tree_table((2, -2)):
        trees += 1
        t = parse_tree(text)
        d = generate_diagram(t)
        if d.component_count() != 1:
            continue
        knots += 1
        assert check_arborescent(t).reasons == ("NoWeightAboveTwo",), text
        assert check_main(d).status == Status.HYPOTHESES_FAIL, text
        assert check_tait(d).status == Status.HYPOTHESES_FAIL, text
    assert (trees, knots) == (100, 52)
