"""End-to-end acceptance checks.

Each test here pins one externally visible guarantee of the package:
the closed-chain table, the flat pretzel failure, the side-graph
dichotomy, face invariants, route agreement, the family sweeps, the
exact surgery classifier, the slope planner, the theorem on every
small plane tree, on the abstract's families (two-bridge, pretzel
and Montesinos trees) and on a sample of 5-7-vertex plane trees, and a
verified slope plan for every certified knot.
Seeds and bucket counts are frozen; a change in any of them is a
behaviour change.
"""

import itertools
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

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
    family_tree,
    generate_diagram,
    make_pretzel_pd,
    parse_braid,
    parse_pd,
    parse_tree,
    plan_configurations,
    reduce_braid,
    reduce_assumption1,
    verify_plan,
)
from foliar.arborescent import WeightedPlanarTree
from foliar.criterion import detect_dk, normal_form, reshaped
from foliar.errors import (
    EmptyWord,
    FoliarError,
    InputError,
    NonSphericalEmbedding,
    Unsatisfiable,
)

from conftest import (
    CANCELLING_COLUMNS,
    FIG8,
    GRANNY3,
    HOPF,
    KINK,
    SQUARE_KNOT,
    TREFOIL,
    random_braid_text,
    random_tree_text,
    seeded,
    unreduced_inputs,
)


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
        # the report reads connectivity alone; the lines below and the
        # test after this one check that connected here means trees
        connectivity_report(green, red)
        if green.is_connected() and red.is_connected():
            assert green.is_tree() and red.is_tree()
        checked += 1
    assert checked >= 200


def test_connected_side_graphs_of_a_normal_form_are_trees():
    # a normal form of V vertices has V + 2 faces and V side edges, so
    # two connected side graphs are two trees: connectivity_report
    # checks connectivity alone
    diagrams = [
        parse_pd(text)
        for text in (TREFOIL, FIG8, HOPF, KINK, SQUARE_KNOT, GRANNY3,
                     CANCELLING_COLUMNS)
    ]
    diagrams += unreduced_inputs(200)
    diagrams += [generate_diagram(t) for t in _random_plane_trees()]
    outcomes = Counter()
    for d in diagrams:
        if d.component_count() != 1:
            continue
        try:
            cg, green, red = normal_form(d)
        except FoliarError:
            continue
        assert len(green.u) + len(red.u) == len(cg)
        assert len(green.vertices) + len(red.vertices) == len(cg) + 2
        connected = green.is_connected() and red.is_connected()
        assert connected == (green.is_tree() and red.is_tree()), d.to_pd()
        outcomes[connected] += 1
    # both outcomes occur
    assert outcomes == {True: 172, False: 34}


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
            if count % 2:
                circles = augment(d)
            else:  # an even closed chain is a link, which augment refuses
                with pytest.raises(InputError, match=r"^NotAKnot\(2\)"):
                    augment(d)
                circles = circles_from_counts(normal_form(d)[0].vertices)
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
        circles = augment(d)
        assert verify_plan(circles, plan_configurations(circles)), text
    assert (trees, knots) == (6848, 3948)
    assert links == {("NotAKnot(2)",): 2164, ("NotAKnot(3)",): 736}


def _draw_weights(rng, n):
    """n weights from +-2, +-3, +-4 with at least one |w| >= 3."""
    while True:
        ws = [rng.choice((2, -2, 3, -3, 4, -4)) for _ in range(n)]
        if any(abs(w) > 2 for w in ws):
            return ws


def _draw_family_tree(rng, kind, n):
    """A tree of kind with n vertices, weights from _draw_weights.  A
    Montesinos tree is a centre with two or three arms, each a path, at
    least one of them longer than one vertex, built by parent list and
    checked against family_tree."""
    ws = _draw_weights(rng, n)
    if kind != "montesinos":
        return family_tree(kind, ws)
    while True:
        arms = rng.choice((2, 3))
        cuts = sorted(rng.sample(range(1, n - 1), arms - 1))
        lengths = [b - a for a, b in zip([0, *cuts], [*cuts, n - 1])]
        if max(lengths) > 1:
            break
    parent = [None]
    for length in lengths:  # an arm's first vertex hangs off the centre
        parent += [0, *range(len(parent), len(parent) + length - 1)]
    tree = WeightedPlanarTree(ws, parent)
    ends = list(itertools.accumulate(lengths, initial=1))
    paths = [ws[a:b] for a, b in zip(ends, ends[1:])]
    assert family_tree(kind, [ws[0], *paths]).to_text() == tree.to_text()
    return tree


def test_the_abstracts_families_are_certified_and_planned():
    # two-bridge paths, pretzels and Montesinos trees of 5-7 vertices:
    # every knot passes all three routes and gets a verified plan, and
    # the tree route names every link
    rng = seeded(38)
    knots = Counter()
    links = Counter()
    for kind in ("two_bridge", "pretzel", "montesinos"):
        for n in (5, 6, 7):
            for _ in range(100):
                t = _draw_family_tree(rng, kind, n)
                d = generate_diagram(t)
                v = check_arborescent(t)
                comps = d.component_count()
                if comps != 1:
                    assert v.reasons[-1:] == (f"NotAKnot({comps})",)
                    links[kind, n] += 1
                    continue
                knots[kind, n] += 1
                assert v.status == Status.CERTIFIED, (kind, t.weight)
                assert check_main(d).status == Status.CERTIFIED, t.weight
                assert check_tait(d).status == Status.CERTIFIED, t.weight
                circles = augment(d)
                assert verify_plan(circles, plan_configurations(circles))
    assert len(knots) == 9  # every kind and size has knots
    assert (sum(knots.values()), sum(links.values())) == (368, 532)


def _random_plane_trees():
    """300 seeded plane trees of 5-7 vertices of any shape, weights from
    _draw_weights: in preorder, each vertex hangs off a vertex on the
    path from the root to the vertex before it."""
    rng = seeded(40)
    for _ in range(300):
        n = rng.randint(5, 7)
        ws = _draw_weights(rng, n)
        parent, path = [None], [0]
        for i in range(1, n):
            del path[rng.randrange(len(path)) + 1:]
            parent.append(path[-1])
            path.append(i)
        yield WeightedPlanarTree(ws, parent)


def test_random_plane_trees_of_five_to_seven_vertices_are_certified():
    # every knot passes all three routes and gets a verified plan, and
    # the tree route names every link
    knots = Counter()
    links = 0
    for t in _random_plane_trees():
        d = generate_diagram(t)
        v = check_arborescent(t)
        comps = d.component_count()
        if comps != 1:
            assert v.reasons == (f"NotAKnot({comps})",), t.to_text()
            links += 1
            continue
        knots[len(t)] += 1
        assert v.status == Status.CERTIFIED, t.to_text()
        assert check_main(d).status == Status.CERTIFIED, t.to_text()
        assert check_tait(d).status == Status.CERTIFIED, t.to_text()
        circles = augment(d)
        assert verify_plan(circles, plan_configurations(circles))
    assert sorted(knots) == [5, 6, 7]
    assert (sum(knots.values()), links) == (119, 181)


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



def _one_unit_weight_trees():
    """Every plane tree of 2-4 vertices with exactly one weight +-1, the
    others from +-2, +-3 and at least one of them +-3: (i, w, text)
    for the unit weight w at vertex i."""
    for n in (2, 3, 4):
        for shape in _tree_shapes(n):
            for ws in itertools.product((2, -2, 3, -3), repeat=n - 1):
                if 3 not in map(abs, ws):
                    continue
                for i in range(n):
                    for w in (1, -1):
                        weights = (*ws[:i], w, *ws[i:])
                        yield i, w, _shape_to_text(shape, weights, [0])


def _diagram_statuses(d):
    return check_main(d).status.value, check_tait(d).status.value


def test_a_tree_with_one_unit_weight_fails_on_that_weight_alone():
    statuses = Counter()
    for i, w, text in _one_unit_weight_trees():
        t = parse_tree(text)
        d = generate_diagram(t)
        want = [f"WeightTooSmall(vertex={i},weight={w})"]
        if d.component_count() != 1:
            want.append(f"NotAKnot({d.component_count()})")
        assert check_arborescent(t).reasons == tuple(want), text
        statuses[len(want), _diagram_statuses(d)] += 1
    # (reasons, (check_main, check_tait)): 1 reason for a knot, 2 for a
    # link.  A unit weight is reshaped away by cancellation and merging,
    # so the diagram routes may certify; where they disagree (56 knots)
    # the route cross-check excuses reshaped inputs
    assert statuses == {
        (1, ("certified", "certified")): 632,
        (1, ("certified", "fail")): 56,
        (1, ("fail", "fail")): 768,
        (2, ("fail", "fail")): 936,
    }


def test_a_single_vertex_fails_as_a_single_vertex():
    statuses = Counter()
    for w in (2, -2, 3, -3, 4, -4, 5, -5, 6, -6):
        t = parse_tree(f"({w})")
        want = ["SingleVertex"]
        if abs(w) == 2:
            want.append("NoWeightAboveTwo")
        if w % 2 == 0:
            want.append("NotAKnot(2)")
        assert check_arborescent(t).reasons == tuple(want), w
        statuses[_diagram_statuses(generate_diagram(t))] += 1
    # a closed chain: the odd ones are excluded Dk diagrams, the even ones
    # links
    assert statuses == {("excluded", "excluded"): 4, ("fail", "fail"): 6}


# -- 12. every certified verdict yields a slope plan that verifies -----------

PERFBENCH_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _benchmark_inputs(workload):
    """The benchmark's seed-1 inputs of one workload."""
    # compiled from source so nothing is written beside the benchmark
    namespace = {"__name__": "gen"}
    exec(compile(PERFBENCH_GEN.read_text(), str(PERFBENCH_GEN), "exec"),
         namespace)
    return namespace["WORKLOADS"][workload](1)


_BUILD = {
    "pd": parse_pd,
    "braid": lambda text: braid_to_diagram(reduce_braid(parse_braid(text))),
    "tree": lambda text: generate_diagram(parse_tree(text)),
}


def _plan_sample():
    """(family, build, source): the fixtures, the unreduced inputs, 1 500
    seeded trees with weights +-1..+-4 and the benchmark's seed-1
    diagrams, braids and trees."""
    for text in (TREFOIL, FIG8, HOPF, KINK, SQUARE_KNOT, GRANNY3,
                 CANCELLING_COLUMNS):
        yield "fixtures", parse_pd, text
    for d in unreduced_inputs(400):
        yield "unreduced", lambda d: d, d
    rng = seeded(3)
    for _ in range(1500):
        yield "trees", _BUILD["tree"], random_tree_text(rng, 7, 1, 4)
    for workload in ("corpus", "reshape", "large"):
        for item in _benchmark_inputs(workload):
            if item.kind in _BUILD:
                yield workload, _BUILD[item.kind], item.text


def test_every_certified_verdict_yields_a_verified_plan():
    # augment reads the normal form check_main certified, so a verdict
    # and its crossing circles cannot disagree on the twist regions
    certified = Counter()
    for family, build, source in _plan_sample():
        try:
            d = build(source)
        except InputError:
            continue
        if check_main(d).status != Status.CERTIFIED:
            continue
        certified[family] += 1
        circles = augment(d)
        assert verify_plan(circles, plan_configurations(circles)), source
    assert certified == {
        "fixtures": 2, "unreduced": 31, "trees": 248,
        "corpus": 277, "reshape": 13, "large": 18,
    }
