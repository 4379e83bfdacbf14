"""The array-reading layers against record-building references.

The checkerboard graphs and the twist chains are read straight off a
diagram's faces and face_at lists, and the collapsed graph off the flat
region lists, coloured by the strand walk's bits.  The references below
build them the way the library did before: one FaceEdge per crossing
and colour contracted through a dict union-find, chains grown with a
dict of gaps per chain and sorted into regions, a collapsed graph from
region records, and colours by a search over the faces.  Both must give
the same verdicts, contractions, regions and collapsed graphs, field by
field.
"""

from collections import Counter
from dataclasses import dataclass

import pytest

from foliar import (
    Status,
    braid_to_diagram,
    check_tait,
    contract,
    detect_twist_regions,
    generate_diagram,
    make_pretzel_pd,
    parse_braid,
    parse_pd,
    parse_tree,
    reduce_assumption1,
)
from foliar._planar import strands, two_color
from foliar.arborescent import WeightedPlanarTree
from foliar.criterion import Verdict, normal_form, weight_reasons
from foliar.errors import FoliarError, InternalError
from foliar.tait import build_tait
from foliar.twists import CollapsedGraph, collapse

from conftest import (
    CANCELLING_COLUMNS,
    GRANNY3,
    HOPF,
    TREFOIL,
    DisjointSets,
    FaceEdge,
    connected_sum,
    edges_of,
    from_rows,
    random_tree_text,
    ref_is_ring,
    ref_two_color,
    rows_of,
    seeded,
    trace_faces,
    unreduced_inputs,
)
from test_rounds import ref_normalize_assumption2

REGION_FIELDS = (
    "index",
    "crossings",
    "count",
    "handedness",
    "crossing_handedness",
    "end_gaps",
)


# -- reference twist detection ----------------------------------------------

def ref_detect(d):
    """Regions of d as dicts of the six region fields."""
    faces = d.faces
    kinks = {f[0] >> 2 for f in faces if len(f) == 1}
    eligible = {}
    for fi, f in enumerate(faces):
        if len(f) != 2:
            continue
        k1, k2 = f
        c1, c2 = k1 >> 2, k2 >> 2
        if c1 == c2 or c1 in kinks or c2 in kinks:
            continue
        eligible[fi] = f
    port = [-1] * (4 * len(d))
    for fi, (k1, k2) in eligible.items():
        port[k1] = port[k2] = fi

    used = set()
    claimed = set()
    chains = []
    for fi, (k1, k2) in eligible.items():
        if fi in used:
            continue
        if k1 >> 2 in claimed or k2 >> 2 in claimed:
            used.add(fi)
            continue
        chain = _ref_grow_chain(fi, eligible, port, claimed, used)
        claimed.update(chain[0])
        chains.append(chain)

    raw = list(chains)
    for ci in range(len(d)):
        if ci not in claimed:
            raw.append(([ci], {ci: []}))
    raw.sort(key=lambda ch: min(ch[0]))

    regions = []
    axes = rows_of(d)[1]
    for idx, (crossings, gaps) in enumerate(raw):
        hs = []
        for c in crossings:
            gap_parity = gaps[c][0] % 2 if gaps[c] else 0
            hs.append(1 if gap_parity == axes[c] else -1)
        handed = hs[0] if len(set(hs)) == 1 else 0
        if len(crossings) == 1:
            ends = ((crossings[0], 0), (crossings[0], 2))
        else:
            ends = (
                (crossings[0], gaps[crossings[0]][0]),
                (crossings[-1], gaps[crossings[-1]][0]),
            )
        regions.append({
            "index": idx,
            "crossings": tuple(crossings),
            "count": len(crossings),
            "handedness": handed,
            "crossing_handedness": tuple(hs),
            "end_gaps": ends,
        })
    return regions


def _ref_grow_chain(fi, eligible, port, claimed, used):
    k1, k2 = eligible[fi]
    c1, c2 = k1 >> 2, k2 >> 2
    crossings = [c1, c2]
    gaps = {c1: [k1 & 3], c2: [k2 & 3]}
    used.add(fi)

    def extend(k, forward):
        while True:
            nxt = port[k ^ 2]
            if nxt < 0 or nxt in used:
                return
            near, far = eligible[nxt]
            if near >> 2 != k >> 2:
                near, far = far, near
            c, f = k >> 2, far >> 2
            head = crossings[0] if forward else crossings[-1]
            if f == head:
                return  # a bigon back to the other end stays a plain face
            if f in claimed or f in gaps:
                used.add(nxt)
                return
            used.add(nxt)
            gaps[c].append(near & 3)
            gaps[f] = [far & 3]
            if forward:
                crossings.append(f)
            else:
                crossings.insert(0, f)
            k = far

    extend(k2, forward=True)
    extend(k1, forward=False)
    return crossings, gaps


def plain_bigons(d, regions):
    """Bigons between two crossings that join no chain: their corners
    are not both on the chain gaps of one region."""
    region_of, parity = {}, {}
    axes = rows_of(d)[1]
    for r in regions:
        for c in r["crossings"]:
            region_of[c] = r["index"]
        if r["count"] > 1:
            for c, h in zip(r["crossings"], r["crossing_handedness"]):
                # handedness +1 when the chain gap parity is under_axis
                parity[c] = axes[c] ^ (h < 0)
    count = 0
    for k1, k2 in [f for f in d.faces if len(f) == 2]:
        c1, c2 = k1 >> 2, k2 >> 2
        if c1 == c2:
            continue
        in_chain = (
            region_of[c1] == region_of[c2]
            and parity.get(c1) == k1 & 1
            and parity.get(c2) == k2 & 1
        )
        count += not in_chain
    return count


# -- reference collapsed graph -----------------------------------------------

def ref_collapse(d):
    """(vertices, alpha) of the collapsed graph of d's ref_detect regions."""
    regions = ref_detect(d)
    vertices = [r["handedness"] * r["count"] for r in regions]
    stubs = []
    for r in regions:
        (e1, g1), (e2, g2) = r["end_gaps"]
        if r["count"] == 1:
            stubs += range(4 * e1, 4 * e1 + 4)
            continue
        for e, g in ((e1, g1), (e2, g2)):
            stubs += [4 * e + (g + 2) % 4, 4 * e + (g + 3) % 4]
    local = {dart: i for i, dart in enumerate(stubs)}
    return vertices, [local[d.alpha[dart]] for dart in stubs]


def assert_collapsed(cg, vertices, alpha):
    faces, face_at = trace_faces(len(alpha), alpha)
    assert cg.vertices == vertices
    assert cg.alpha == alpha
    assert cg.faces == faces and cg.face_at == face_at
    assert two_color(cg) == ref_two_color(cg)


# -- reference checkerboard route -------------------------------------------

class RefGraph:
    def __init__(self, color, vertices, edges):
        self.color_name = "green" if color == 0 else "red"
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)

    def degrees(self):
        deg = dict.fromkeys(self.vertices, 0)
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return deg

    def all_bivalent(self):
        return all(k == 2 for k in self.degrees().values())

    def signed_sum(self):
        return sum(e.signed for e in self.edges)


def ref_build_tait(d):
    # every crossing's gap 0 edge, then every crossing's gap 1 edge
    rows = []
    for gap, sign in ((0, 1), (1, -1)):
        for ci, ax in enumerate(rows_of(d)[1]):
            s = sign if ax else -sign
            rows.append((4 * ci + gap, 4 * ci + gap + 2, s, ci))
    coloring = two_color(d)
    verts = ([], [])
    for fi, c in enumerate(coloring):
        verts[c].append(fi)
    edges = ([], [])
    for c1, c2, signed, source in rows:
        a, b = d.face_at[c1], d.face_at[c2]
        if coloring[a] != coloring[b]:
            raise InternalError(f"tait edge of {source} joins two colours")
        edges[coloring[a]].append(
            FaceEdge(min(a, b), max(a, b), signed, source)
        )
    return RefGraph(0, verts[0], edges[0]), RefGraph(1, verts[1], edges[1])


@dataclass
class RefContraction:
    chain_weights: tuple
    merged_weights: tuple
    vertices: tuple
    edge_pairs: tuple  # (u, v) per surviving structural edge

    @property
    def weights(self):
        return tuple(sorted(self.chain_weights + self.merged_weights))


def ref_contract(tg):
    deg = tg.degrees()
    bivalent = {v for v, k in deg.items() if k == 2}
    if len(bivalent) == len(tg.vertices):
        raise InternalError("contract called on an all-bivalent graph")
    ds = DisjointSets()
    for e in tg.edges:
        if e.u in bivalent and e.v in bivalent:
            ds.union(e.u, e.v)
    runs = Counter([ds.find(v) for v in bivalent])
    chain_weights = tuple(sorted([n + 1 for n in runs.values()]))
    survivors = [v for v in tg.vertices if v not in bivalent]
    families = {}
    for e in tg.edges:
        if e.u in bivalent or e.v in bivalent:
            continue
        families[e.u, e.v] = families.get((e.u, e.v), 0) + e.signed
    kept = [(pair, abs(s)) for pair, s in sorted(families.items()) if s]
    return RefContraction(
        chain_weights,
        tuple([w for _, w in kept]),
        tuple(survivors),
        tuple([pair for pair, _ in kept]),
    )


def ref_is_tree(ct):
    ds = DisjointSets()
    for u, v in ct.edge_pairs:
        ds.union(u, v)
    roots = {ds.find(v) for v in ct.vertices}
    return len(roots) <= 1 and len(ct.edge_pairs) == len(ct.vertices) - 1


def _ref_dk_value(green, red):
    gb, rb = green.all_bivalent(), red.all_bivalent()
    if not (gb or rb):
        return None
    if gb and len(green.vertices) == 1:
        return green.signed_sum()
    if rb and len(red.vertices) == 1:
        return red.signed_sum()
    if gb:
        return red.signed_sum()
    return green.signed_sum()


def ref_check_tait(d):
    """(verdict, contractions by colour or None) by the reference route."""
    comps = d.component_count()
    if comps != 1:
        return Verdict(Status.HYPOTHESES_FAIL, (f"NotAKnot({comps})",)), None
    d = reduce_assumption1(d)
    green, red = ref_build_tait(d)
    k = _ref_dk_value(green, red)
    if k is not None:
        verdict = Verdict(
            Status.EXCLUDED, (f"DkDiagram({k})",), (abs(k),), (), 1
        )
        return verdict, None
    results = []
    for g in (green, red):
        cg = ref_contract(g)
        name = g.color_name
        reasons = weight_reasons(cg.weights, lambda i, w: f"{name},weight={w}")
        if not ref_is_tree(cg):
            reasons.append(f"NotContractible({name})")
        results.append((cg, tuple(reasons)))
    (cg_green, reasons_green), (cg_red, reasons_red) = results
    reasons = reasons_green or reasons_red
    verdict = Verdict(
        Status.HYPOTHESES_FAIL if reasons else Status.CERTIFIED,
        reasons,
        cg_green.weights,
        cg_red.weights,
        len(cg_green.weights),
    )
    return verdict, (cg_green, cg_red)


# -- inputs -------------------------------------------------------------------

def _inputs():
    out = []
    for d in unreduced_inputs(200):
        out += [d, d.mirror()]
    rng = seeded(23)
    for _ in range(300):
        text = random_tree_text(rng, 7, lo=1, hi=3)
        try:
            out.append(generate_diagram(parse_tree(text)))
        except FoliarError:
            continue
    out += [make_pretzel_pd(qs) for qs in ([-2, 3, 7], [3, 5, 7], [2, -3, 5])]
    return out


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


def test_regions_match_the_reference(inputs):
    rings = plain = 0
    for d in inputs:
        ref = ref_detect(d)
        got = detect_twist_regions(d)
        assert len(got) == len(ref), d.to_pd()
        for r, want in zip(got, ref):
            assert r._fields == REGION_FIELDS
            for name in REGION_FIELDS:
                assert getattr(r, name) == want[name], (name, d.to_pd())
        rings += ref_is_ring(d, ref[0]["crossings"])
        plain += plain_bigons(d, ref)
    # both rarer paths of chain growth are exercised
    assert rings >= 20 and plain >= 20, (rings, plain)


def test_tait_route_matches_the_reference(inputs):
    contracted = 0
    for d in inputs:
        try:
            want, want_cts = ref_check_tait(d)
        except FoliarError as exc:
            with pytest.raises(type(exc)):
                check_tait(d)
            continue
        assert check_tait(d) == want, d.to_pd()
        if want_cts is None:
            continue
        contracted += 1
        k, got_cts = contract(reduce_assumption1(d))
        assert k is None, d.to_pd()
        # per colour, green first
        for c, ((chain_weights, merged), ref) in enumerate(
            zip(got_cts, want_cts)
        ):
            assert merged.color == c, d.to_pd()
            assert chain_weights == ref.chain_weights, d.to_pd()
            assert tuple(merged.signed) == ref.merged_weights, d.to_pd()
            assert merged.vertices == ref.vertices, d.to_pd()
            pairs = tuple(zip(merged.u, merged.v))
            assert pairs == ref.edge_pairs, d.to_pd()
    assert contracted >= 100


def test_tait_views_list_the_reference_edges(inputs):
    for d in inputs[:200]:
        if d.component_count() != 1:
            continue
        r = reduce_assumption1(d)
        refs = ref_build_tait(r)
        for got, ref in zip(build_tait(r), refs):
            # the j-th edge of each colour is the reference's, whose
            # crossing the reference reads off the map itself
            assert edges_of(got) == [e[:3] for e in ref.edges]
            assert got.vertices == ref.vertices
            assert got.color_name == ref.color_name
            # a face's degree in its graph is its corner count
            assert ref.degrees() == {
                f: r.start[f + 1] - r.start[f] for f in ref.vertices
            }
            assert sum(got.signed) == ref.signed_sum()
            dot = got.to_dot().splitlines()
            assert dot[0] == f"graph tait_{ref.color_name} {{"
            assert sum("--" in line for line in dot) == len(ref.edges)
        # contract gives a twist count and no graphs exactly for the
        # diagrams with an all-bivalent graph
        k, graphs = contract(r)
        assert (k is not None) == any(ref.all_bivalent() for ref in refs)
        assert (graphs is None) == (k is not None)


def _dk_diagrams():
    """(diagram, |k|): the one-crossing curl, the Hopf diagram, the
    trefoil and the two-strand rings s1^k for k = 2..9, each also
    mirrored, which gives the curl in both axes."""
    out = [(from_rows([[1, 2, 2, 1]], [0]), 1), (parse_pd(HOPF), 2),
           (parse_pd(TREFOIL), 3)]
    out += [(braid_to_diagram(parse_braid(f"s1^{k}", 2)), k)
            for k in range(2, 10)]
    return [(e, k) for d, k in out for e in (d, d.mirror())]


def test_dk_diagrams_match_the_reference():
    # contract is called directly, as check_tait names a link first.
    # Where both graphs are all bigons, the two colours' counts differ
    # in sign, and the reference reads green first
    ties = 0
    for d, size in _dk_diagrams():
        green, red = ref_build_tait(d)
        k, graphs = contract(d)
        assert graphs is None, d.to_pd()
        assert k == _ref_dk_value(green, red), d.to_pd()
        assert abs(k) == size, d.to_pd()
        ties += green.all_bivalent() and red.all_bivalent()
        if d.component_count() == 1:
            assert (check_tait(d), None) == ref_check_tait(d), d.to_pd()
    # the Hopf diagram and the ring s1^2, each with its mirror
    assert ties == 4


def _granny_chains():
    """Trefoils summed in a row along random arcs, as GRANNY3 is."""
    rng = seeded(31)
    trefoil = parse_pd(TREFOIL)
    out = []
    for _ in range(40):
        d = trefoil
        for _ in range(rng.randint(1, 4)):
            d = connected_sum(rng, d, rng.choice([trefoil, trefoil.mirror()]))
        out.append(d)
    return out


def _big_tree():
    """A seeded tree of 2 000 vertices with weights +-2..+-4."""
    rng = seeded(37)
    weights = [rng.choice([-4, -3, -2, 2, 3, 4]) for _ in range(2000)]
    parents = [None] + [rng.randrange(i) for i in range(1, 2000)]
    return generate_diagram(WeightedPlanarTree(weights, parents))


def test_collapsed_graphs_match_the_reference(inputs):
    fixtures = [parse_pd(GRANNY3), parse_pd(CANCELLING_COLUMNS)]
    read = inherited = 0
    for d in inputs + fixtures + _granny_chains() + [_big_tree()]:
        try:
            r = reduce_assumption1(d)
            cg = collapse(r)
        except FoliarError:
            continue
        vertices, alpha = ref_collapse(r)
        assert_collapsed(cg, vertices, alpha)
        read += 1
        try:
            want = ref_normalize_assumption2(
                CollapsedGraph(vertices, alpha, strands(alpha)[2])
            )
        except FoliarError as exc:
            with pytest.raises(type(exc)):
                normal_form(d)
            continue
        got = normal_form(d)[0]
        assert_collapsed(got, want[0].vertices, want[0].alpha)
        inherited += len(got) < len(cg)
    # colours come off the strand walk's bits, and off the bits merged
    # normal forms inherit
    assert read >= 250 and inherited >= 30, (read, inherited)
