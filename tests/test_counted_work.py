"""Work counted, not timed, on the scaling family of knot closures.

The closures of (s1^3 s2^-3)^m at 96, 996 and 9 996 crossings need no
cancellation and no merging.  Whatever their size, both routes and
augment then share one build of the diagram, one twist detection, one
collapsed graph and one build of the side graphs, which is the only
call of face_graphs: the checkerboard route reads its graphs off the
diagram's lists and lists no edge per crossing.  Counts do not vary
between runs the way times do on a shared machine, so a stage that
starts to repeat itself fails here at any size.  One raw word whose
closure cancels and then merges pins the rounds of the worst case
found, and one knot whose merging drops a zero-sum family pins the
rounds of that case.  Calls miss the loops inside a stage, so the
bytecodes it executes are counted too, at about 10^2 and 10^3
crossings: on those closures, on a two-strand ring, on a raw closure
that cancels, on the diagram of a path tree, for merging alone on a row of
trefoils whose regions merge one per summand, and for the braid route
on a word of distinct generators.
"""

import pytest

from foliar import augment, braid_to_diagram, check_braid, check_main
from foliar import check_tait
from foliar import collapse, generate_diagram, normalize_assumption2
from foliar import parse_braid, parse_pd, parse_tree
from foliar import plan_configurations, reduce_assumption1
from foliar import sidegraphs, tait, twists
from foliar.criterion import Status, normal_form
from foliar.diagram import LinkDiagram
from foliar.twists import CollapsedGraph

from conftest import GRANNY3, executed_opcodes
from test_sidegraphs import ZERO_SUM_KNOT


@pytest.fixture
def counts(monkeypatch):
    """Calls of each counted stage, by name."""
    calls = {
        "build": 0, "detect": 0, "collapsed": 0, "side": 0, "face_graphs": 0
    }

    def counting(owner, name, key):
        original = getattr(owner, name)

        def counted(*args):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(LinkDiagram, "__init__", "build")
    counting(twists, "_detect", "detect")
    counting(CollapsedGraph, "__init__", "collapsed")
    counting(sidegraphs, "build_side_graphs", "side")
    # every module that binds face_graphs, so no route escapes the count
    counting(sidegraphs, "face_graphs", "face_graphs")
    counting(tait, "face_graphs", "face_graphs")
    return calls


@pytest.mark.parametrize("m", [16, 166, 1666])
def test_each_stage_runs_once_per_diagram(counts, m):
    d = braid_to_diagram(parse_braid(" ".join(["s1^3 s2^-3"] * m)))
    assert len(d) == 6 * m and d.component_count() == 1
    assert check_main(d).status == Status.CERTIFIED
    assert check_tait(d).status == Status.CERTIFIED
    circles = augment(d)
    assert len(circles) == 2 * m
    assert plan_configurations(circles).distinguished == 0
    assert counts == {
        "build": 1, "detect": 1, "collapsed": 1, "side": 1, "face_graphs": 1
    }


# the worst of a search of 40 000 random 3- and 4-strand words: its raw
# closure cancels in one round and then merges in three
MERGE_WORD = (
    "s2^3 s3^1 s2^-3 s1^-3 s2^-2 s2^-1 s1^2 s1^-1 s2^-3 s2^-3 s2^2 s1^3"
)


def test_merge_rounds_of_the_worst_word_found(counts):
    d = braid_to_diagram(parse_braid(MERGE_WORD))
    assert len(d) == 27 and d.component_count() == 1
    counts.update(dict.fromkeys(counts, 0))  # check_main's work alone
    v = check_main(d)
    assert v.status == Status.HYPOTHESES_FAIL
    assert v.reasons == (
        "WeightTooSmall(region=0,count=1)", "WeightTooSmall(region=2,count=1)"
    )
    # one build of the reduced diagram, a detection on each diagram, and
    # one collapsed graph and side-graph build per merge round and the last
    assert counts == {
        "build": 1, "detect": 2, "collapsed": 4, "side": 4, "face_graphs": 4
    }


def test_merge_rounds_of_a_zero_sum_family(counts):
    cg = collapse(reduce_assumption1(parse_pd(ZERO_SUM_KNOT)))
    assert list(cg.vertices) == [-2, 3, 1, 2, 2, 1]
    counts.update(dict.fromkeys(counts, 0))  # the merging's work alone
    out = normalize_assumption2(cg)[0]
    assert list(out.vertices) == [5, 1, 1]
    # a collapsed graph per merge round, and a side-graph build per
    # round and the last, which finds no parallel edges
    assert counts == {
        "build": 0, "detect": 0, "collapsed": 2, "side": 3, "face_graphs": 3
    }


def _word(m):
    return " ".join(["s1^3 s2^-3"] * m)


def _closure(m):
    return braid_to_diagram(parse_braid(_word(m)))


def _ring(k):
    """The closure of s1^k on two strands: one ring of k crossings."""
    return braid_to_diagram(parse_braid(f"s1^{k}"))


def _unreduced(m):
    """The raw closure of (s1^3 s1^-2 s2^-3)^m, which cancels; a knot
    unless 3 divides m."""
    return braid_to_diagram(parse_braid(" ".join(["s1^3 s1^-2 s2^-3"] * m)))


def _distinct(m):
    """s1^3 s2^3 ... s2m^3: 2m distinct generators on 2m + 1 strands,
    each once, which the interleaving rule reads per strand pair."""
    return " ".join(f"s{g}^3" for g in range(1, 2 * m + 1))


def _path_tree(n):
    """(3 (3 ... (3))), a path of n vertices of weight 3."""
    return "(3" + " (3" * (n - 1) + ")" * n


def _granny(m):
    """m positive trefoils summed in a row, as in GRANNY3: each splice
    cuts the previous trefoil's chain into a one-crossing and a
    two-crossing region between the same two faces, so the 2m - 2
    regions merge into m."""
    rows = []
    for i in range(m):
        a = 6 * i
        rows += [[a + 1, a + 4, a + 2, a + 5], [a + 3, a + 6, a + 4, a + 1],
                 [a + 5, a + 2, a + 6, a + 3]]
    if m > 1:
        rows[0][0], rows[3][0] = 7, 1
    for i in range(1, m - 1):
        rows[3 * i][2], rows[3 * i + 3][0] = 6 * i + 7, 6 * i + 2
    return " ".join("X[%d,%d,%d,%d]" % tuple(r) for r in rows)


def test_granny_chains_merge_one_region_per_summand():
    assert _granny(3) == GRANNY3
    for m in (33, 333):
        cg = collapse(parse_pd(_granny(m)))
        assert len(cg) == 2 * m - 2
        assert len(normalize_assumption2(cg)[0]) == m


# stage: (call, make, n, 10n), counted as call(make(n)) and
# call(make(10n)) with the argument made afresh outside the count, at
# about 10^2 and 10^3 crossings
STAGES = {
    "check_main": (check_main, _closure, 16, 166),
    "check_tait": (check_tait, _closure, 16, 166),
    "braid_to_diagram": (
        lambda word: braid_to_diagram(parse_braid(word)), _word, 16, 166
    ),
    "check_main-ring": (check_main, _ring, 97, 997),
    "collapse-ring": (collapse, _ring, 97, 997),
    "reduce_assumption1": (reduce_assumption1, _unreduced, 13, 130),
    "normal_form": (normal_form, _unreduced, 13, 130),
    "augment": (augment, _closure, 16, 166),
    "parse_pd": (parse_pd, lambda m: _closure(m).to_pd(), 16, 166),
    "generate_diagram": (
        lambda text: generate_diagram(parse_tree(text)), _path_tree, 33, 333
    ),
    "normalize_assumption2": (
        normalize_assumption2, lambda m: collapse(parse_pd(_granny(m))),
        33, 333,
    ),
    "plan_configurations": (
        plan_configurations, lambda m: augment(_closure(m)), 16, 166
    ),
    "check_braid": (check_braid, _distinct, 50, 500),
}


@pytest.mark.parametrize("stage", list(STAGES))
def test_opcodes_grow_linearly(stage):
    call, make, n, big = STAGES[stage]
    small = executed_opcodes(call, make(n))
    large = executed_opcodes(call, make(big))
    assert large <= 10.5 * small, (small, large)
