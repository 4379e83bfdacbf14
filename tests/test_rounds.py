"""Normalisation in rounds, pinned and checked against simpler loops.

reduce_assumption1 cancels every independent mixed chain of one
detection per round and normalize_assumption2 merges every parallel
family per round.  The references below are the earlier forms: one
move at a time, cancelling a single adjacent pair or merging a single
parallel family and rebuilding after each, and one mixed chain per
round.  Every form must reach the same diagram and the same normal
form, and fail with the same error.  Only where cancellation splits the
diagram may a round fail with another NonSphericalEmbedding message
than one chain per round: it goes on past the split.
"""

from itertools import permutations, product

from foliar import (
    LinkDiagram,
    braid_to_diagram,
    build_side_graphs,
    check_main,
    collapse,
    detect_twist_regions,
    generate_diagram,
    normalize_assumption2,
    parse_braid,
    parse_pd,
    parse_tree,
    reduce_assumption1,
)
from foliar._planar import splice_out, strands, two_color
from foliar.errors import (
    DegenerateCollapse,
    FoliarError,
    NonSphericalEmbedding,
    UnknotCollapse,
)
from foliar.twists import CollapsedGraph

from conftest import (
    DisjointSets,
    connected_sum,
    random_tree_text,
    ref_is_ring,
    relabel,
    rows_of,
    seeded,
    trace_faces,
    unreduced_inputs,
)

# two mixed chains; cancelling the first leaves the other pair on curls
TWO_MIXED_CHAINS = "X[1,2,3,4] X[4,5,6,7] X[3,2,8,5] X[6,8,1,7]"

# s3 s3^-1 s5^4 s5^-4 s4^3 s1 s2^-3 on 6 strands summed with a curl:
# cancelling the first chain splits the diagram into two pieces, which
# leave every face large; cancelling the second would close a strand
SPLIT_BY_FIRST_CHAIN = (
    "X[1,2,3,4] X[3,5,6,4] X[7,8,9,10] X[10,9,11,12] X[12,11,13,14] "
    "X[14,13,15,16] X[15,17,18,16] X[17,19,20,18] X[19,21,22,20] "
    "X[21,23,7,22] X[23,6,24,25] X[25,24,26,27] X[28,26,1,8] "
    "X[29,30,30,31] X[31,32,33,5] X[32,34,35,33] X[34,29,2,35] "
    "X[36,28,27,36]"
)


# -- reference: one move per rebuild -----------------------------------------

def ref_reduce_assumption1(d):
    while True:
        dec = detect_twist_regions(d)
        target = None
        for r in dec:
            if r.handedness != 0:
                continue
            n = r.count
            # a ring's last and first crossings meet across its closing
            # bigon, so that pair may cancel too
            limit = n if ref_is_ring(d, r.crossings) else n - 1
            for i in range(limit):
                j = (i + 1) % n
                if r.crossing_handedness[i] != r.crossing_handedness[j]:
                    target = (r.crossings[i], r.crossings[j])
                    break
            if target:
                break
        if target is None:
            return d
        d = ref_cancel(d, *target)


def ref_cancel(d, ci, cj):
    # any bigon between the pair gives the same strands through it
    bigon = next(
        f for f in d.faces
        if len(f) == 2 and {k >> 2 for k in f} == {ci, cj}
    )
    corners = {k >> 2: k & 3 for k in bigon}
    gc, gd = corners[ci], corners[cj]
    rows, under = rows_of(d)

    def arc_at(c, slot):
        return rows[c][slot % 4]

    ds = DisjointSets()
    # strands through the pair: external slot g+3 of one meets g+2 of the other
    ds.union(arc_at(ci, gc + 3), arc_at(cj, gd + 2))
    ds.union(arc_at(ci, gc + 2), arc_at(cj, gd + 3))
    slot_lists = []
    axes = []
    for k, (slots, ax) in enumerate(zip(rows, under)):
        if k in (ci, cj):
            continue
        slot_lists.append(tuple(ds.find(a) for a in slots))
        axes.append(ax)
    if not slot_lists:
        raise UnknotCollapse("removed the last crossings")
    kept = {a for slots in slot_lists for a in slots}
    spliced = {
        ds.find(arc_at(ci, gc + 3)),
        ds.find(arc_at(ci, gc + 2)),
    }
    if spliced - kept:
        raise NonSphericalEmbedding("closed strand")
    return relabel(slot_lists, axes)


def ref_one_chain_per_round(d):
    """reduce_assumption1 as it was before it batched chains: each round
    cancels the first mixed chain only and rebuilds the diagram."""
    while True:
        dec = detect_twist_regions(d)
        r = next((r for r in dec if r.handedness == 0), None)
        if r is None:
            return d
        stack, matched = [], []
        for c, h in zip(r.crossings, r.crossing_handedness):
            if stack and stack[-1][1] != h:
                matched += (stack.pop()[0], c)
            else:
                stack.append((c, h))
        if len(matched) == len(d):
            raise UnknotCollapse(
                f"cancelling chain {r.crossings} removed the last crossings"
            )
        alpha = list(d.alpha)
        if sum(splice_out(alpha, c, ((0, 2), (1, 3))) for c in matched):
            raise NonSphericalEmbedding(
                "cancellation split off a closed strand with no crossings"
            )
        gone = set(matched)
        kept = [k for k in range(len(d)) if k not in gone]
        d = relabel(
            [[min(e, alpha[e]) for e in range(4 * k, 4 * k + 4)] for k in kept],
            [d.axes[k] for k in kept],
        )


def ref_first_parallel_family(cg):
    """The regions of the first parallel family, green before red and
    then by face pair; each region's side faces, at its gaps 1 and 3,
    come from a fresh trace of the map, not from the side graphs."""
    _, face_at = trace_faces(4 * len(cg), cg.alpha)
    color = two_color(cg)
    groups = {}
    for i in range(len(cg)):
        a, b = sorted((face_at[4 * i + 1], face_at[4 * i + 3]))
        groups.setdefault((color[a], a, b), []).append(i)
    for key in sorted(groups):
        if len(groups[key]) >= 2:
            return groups[key]
    return None


def ref_splice_out(alpha, vertex):
    # smooth the region out: the strands on either side close up; returns
    # how many of them closed on themselves
    closed = 0
    for p, q in ((1, 2), (3, 0)):
        dp, dq = 4 * vertex + p, 4 * vertex + q
        a, b = alpha[dp], alpha[dq]
        del alpha[dp], alpha[dq]
        if a == dq:
            closed += 1
            continue
        alpha[a] = b
        alpha[b] = a
    return closed


def ref_normalize_assumption2(cg):
    while True:
        regions = ref_first_parallel_family(cg)
        if regions is None:
            return (cg, *build_side_graphs(cg))
        s = sum([cg.vertices[i] for i in regions])
        survivor = regions[0] if s else None
        removed = set(regions) - {survivor}
        alpha = dict(enumerate(cg.alpha))
        closed = sum([ref_splice_out(alpha, i) for i in sorted(removed)])
        new_vertices = []
        vmap = {}
        for i, w in enumerate(cg.vertices):
            if i in removed:
                continue
            vmap[i] = len(new_vertices)
            new_vertices.append(s if i == survivor else w)
        if not new_vertices:
            raise DegenerateCollapse("every twist region cancelled")
        if closed:  # a strand with no crossings left is a split piece
            raise NonSphericalEmbedding("merging closed a strand")
        new_alpha = {
            4 * vmap[d >> 2] + (d & 3): 4 * vmap[e >> 2] + (e & 3)
            for d, e in alpha.items()
        }
        new_alpha = [new_alpha[d] for d in range(len(new_alpha))]
        cg = CollapsedGraph(new_vertices, new_alpha, strands(new_alpha)[2])


# -- the round rules ---------------------------------------------------------

def test_one_mixed_chain_per_round():
    d = parse_pd(TWO_MIXED_CHAINS)
    dec = detect_twist_regions(d)
    assert [r.handedness for r in dec] == [0, 0]
    assert len(reduce_assumption1(d)) == 2
    v = check_main(d)
    assert v.status.value == "fail"
    assert v.reasons == (
        "WeightTooSmall(region=0,count=1)",
        "WeightTooSmall(region=1,count=1)",
        "NoWeightAboveTwo",
        "Disconnected(red)",
    )


def _count_builds(monkeypatch):
    """Record the crossing count of every diagram built from a dart map:
    one build per round, per tree and per braid closure."""
    calls = []
    original = LinkDiagram.from_darts.__func__

    def counting(cls, alpha, axes):
        calls.append(len(axes))
        return original(cls, alpha, axes)

    monkeypatch.setattr(LinkDiagram, "from_darts", classmethod(counting))
    return calls


def _count_reference_builds(monkeypatch):
    """Record the crossing count of every diagram the references build
    through the relabel of this module."""
    calls = []
    original = relabel

    def counting(*args):
        calls.append(len(args[0]))
        return original(*args)

    monkeypatch.setitem(globals(), "relabel", counting)
    return calls


def _run(fn, d):
    try:
        return fn(d), None
    except FoliarError as exc:
        return None, exc


def _error(exc):
    return None if exc is None else (type(exc), str(exc))


def test_long_mixed_chain_builds_once(monkeypatch):
    d = braid_to_diagram(parse_braid("s1^43 s1^-40"))
    calls = _count_builds(monkeypatch)
    out = reduce_assumption1(d)
    assert calls == [3]
    (r,) = detect_twist_regions(out)
    assert (r.count, r.handedness) == (3, 1)
    assert ref_is_ring(out, r.crossings)


def test_many_mixed_chains_build_once(monkeypatch):
    d = braid_to_diagram(parse_braid(" ".join(["s1^4 s1^-1 s2^4 s2^-1"] * 50)))
    calls = _count_builds(monkeypatch)
    out = reduce_assumption1(d)
    assert calls == [300]
    assert out.to_pd() == ref_one_chain_per_round(d).to_pd()
    assert {(r.count, r.handedness) for r in detect_twist_regions(out)} == {
        (3, 1)
    }


def test_a_chain_that_splits_the_diagram_ends_in_a_split():
    # the first chain splits the diagram; one chain per round builds at
    # once and names the split, while the round goes on to the second
    # chain, which removes every crossing of one piece
    d = parse_pd(SPLIT_BY_FIRST_CHAIN)
    dec = detect_twist_regions(d)
    assert [r.count for r in dec if r.handedness == 0] == [2, 8]
    _, err = _run(reduce_assumption1, d)
    assert _error(err) == (
        NonSphericalEmbedding,
        "cancellation split off a closed strand with no crossings",
    )
    assert _error(_run(ref_one_chain_per_round, d)[1]) == (
        NonSphericalEmbedding, "projection splits into 2 pieces"
    )


# -- rounds against one move at a time ---------------------------------------

def _outcome(fn, arg):
    try:
        return fn(arg), None
    except FoliarError as exc:
        return None, type(exc)


def _normal_form(out):
    cg = out[0]
    return cg.vertices, cg.alpha


def test_rounds_match_one_move_reference():
    cancelled = merged = 0
    for d in unreduced_inputs(200):
        ref, ref_err = _outcome(ref_reduce_assumption1, d)
        got, got_err = _outcome(reduce_assumption1, d)
        assert got_err == ref_err, d.to_pd()
        if ref is None:
            continue
        assert got.to_pd() == ref.to_pd()
        cancelled += len(ref) < len(d)
        try:
            cg = collapse(ref)
        except FoliarError:
            continue
        ref, ref_err = _outcome(ref_normalize_assumption2, cg)
        got, got_err = _outcome(normalize_assumption2, cg)
        assert got_err == ref_err, d.to_pd()
        if ref is not None:
            assert _normal_form(got) == _normal_form(ref), d.to_pd()
            merged += len(ref[0]) < len(cg)
    # the inputs exercise both normalisers, not only their no-op path
    assert cancelled >= 30 and merged >= 10


# -- rounds against one chain per round --------------------------------------

def _mixed_word(rng):
    """A braid word on 2-5 strands whose syllables often meet one of
    opposite sign, sometimes cancelling it exactly."""
    n = rng.randint(2, 5)
    parts = []
    for _ in range(rng.randint(1, 8)):
        g = rng.randint(1, n - 1)
        e = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        parts.append((g, e))
        roll = rng.random()
        if roll < 0.15:
            parts.append((g, -e))
        elif roll < 0.6:
            parts.append((g, -rng.randint(1, 4) if e > 0 else rng.randint(1, 4)))
    return " ".join(f"s{g}^{e}" for g, e in parts), n


def _chain_inputs(n):
    """Unreduced braid closures and connected sums of trees with unit
    weights; mostly inputs with several mixed chains."""
    rng = seeded(23)

    def tree():
        text = random_tree_text(rng, 4, lo=1, hi=3)
        return generate_diagram(parse_tree(text))

    for i in range(n):
        try:
            if i % 4:
                word, strands = _mixed_word(rng)
                yield braid_to_diagram(parse_braid(word, strands))
            else:
                d = tree()
                for _ in range(rng.randint(1, 3)):
                    d = connected_sum(rng, d, tree())
                yield d
        except FoliarError:
            continue


def test_rounds_match_one_chain_reference(monkeypatch):
    seen = batched = ended_early = 0
    ref_calls = _count_reference_builds(monkeypatch)
    calls = _count_builds(monkeypatch)
    for d in _chain_inputs(3000):
        ref_calls.clear()
        calls.clear()
        ref, ref_err = _run(ref_one_chain_per_round, d)
        got, got_err = _run(reduce_assumption1, d)
        assert _error(got_err) == _error(ref_err), d.to_pd()
        if ref is not None:
            assert got.to_pd() == ref.to_pd(), d.to_pd()
        seen += 1
        # fewer builds than chains: some round cancelled several chains
        batched += len(calls) < len(ref_calls)
        # a second build follows only a round that ended before its
        # last chain
        ended_early += len(calls) >= 2
    assert seen >= 2000
    assert batched >= 30 and ended_early >= 30


def _finger_pairs(a):
    """The mixed ring s1^a s1^-a on two strands with one R2 pair of new
    crossings, numbered first, wired across an ordered pair of its
    edges: the first edge's strand runs from its lower dart through
    crossing 0 into 1 and the second's either way, in every slot order
    and axis choice that builds."""
    base = braid_to_diagram(parse_braid(f"s1^{a} s1^-{a}", 2))
    darts = [e + 8 for e in base.alpha]
    edges = [(x + 8, y) for x, y in enumerate(darts) if x + 8 < y]
    for (x1, y1), e2 in permutations(edges, 2):
        for p, q, sp, sq, ax0, ax1, turn in product(
            range(4), range(4), (1, 3), (1, 3), (0, 1), (0, 1), (0, 1)
        ):
            x2, y2 = e2[::-1] if turn else e2
            alpha = [-1] * 8 + darts
            b, c = (p + sp) % 4, 4 + (q + sq) % 4
            for s, t in (
                (x1, p), ((p + 2) % 4, 4 + q), (4 + (q + 2) % 4, y1),
                (x2, b), ((b + 2) % 4, c), (c ^ 2, y2),
            ):
                alpha[s], alpha[t] = t, s
            try:
                yield LinkDiagram.from_darts(alpha, [ax0, ax1, *base.axes])
            except FoliarError:
                continue


def test_rounds_match_one_chain_reference_on_finger_pairs():
    # a finger pair wired into a mixed ring gives two mixed chains, and
    # often one round cancels every crossing: the inputs closest to a
    # round whose later chain would remove every crossing left
    seen = collapsed = 0
    for a in (1, 2, 3):
        for d in _finger_pairs(a):
            ref, ref_err = _run(ref_one_chain_per_round, d)
            got, got_err = _run(reduce_assumption1, d)
            assert _error(got_err) == _error(ref_err), d.to_pd()
            if ref is not None:
                assert got.to_pd() == ref.to_pd(), d.to_pd()
            seen += 1
            mixed = [r for r in detect_twist_regions(d) if not r.handedness]
            collapsed += len(mixed) >= 2 and type(got_err) is UnknotCollapse
    assert seen == 7168 and collapsed >= 2432, (seen, collapsed)
