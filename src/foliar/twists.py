"""Twist regions: detection, cancellation, and the collapsed graph.

A twist region is a maximal chain of crossings joined by bigon faces
through opposite gaps, or a single crossing belonging to no such chain.
Chains may close up cyclically; a cyclic chain necessarily exhausts the
whole diagram.  Crossings incident to a monogon never join a chain, and
when more bigons touch a crossing than a single chain can use (three
parallel strands) the extras are recorded and left as plain faces, so
the regions always partition the crossings.

The handedness of a crossing inside a chain is +1 when the parity of
its chain gap matches its under_axis bit.  For a single crossing the
chain axis is taken through gaps 0 and 2 by convention and flagged as
ambiguous.  Equal handedness along a chain is exactly the condition
that no two adjacent crossings cancel by a type II move.

collapse() replaces every region by one 4-valent vertex, giving the
reduced graph used for face colouring and the side graphs.
"""

from dataclasses import dataclass

from ._planar import DisjointSets, faces_of, to_dot
from .diagram import relabel
from .errors import (
    InternalError,
    NonAlternatingChain,
    NonSphericalEmbedding,
    UnknotCollapse,
)


@dataclass(frozen=True)
class TwistRegion:
    index: int
    crossings: tuple
    bigons: tuple
    cyclic: bool
    count: int
    handedness: int  # 0 when mixed and mixing was allowed
    parity: int
    ambiguous_axis: bool
    crossing_handedness: tuple
    end_gaps: tuple  # ((first crossing, chain gap), (last, gap)); None if cyclic


class TwistDecomposition:
    """Sequence of twist regions plus detection diagnostics."""

    def __init__(self, regions, overlapping_bigons):
        self.regions = tuple(regions)
        self.overlapping_bigons = tuple(overlapping_bigons)

    def __iter__(self):
        return iter(self.regions)

    def __len__(self):
        return len(self.regions)

    def __getitem__(self, i):
        return self.regions[i]

    @property
    def counts(self):
        return tuple(r.count for r in self.regions)


def detect_twist_regions(d, allow_mixed=False):
    faces = d.faces
    kinks = {f.corners[0][0] for f in faces if f.size == 1}
    eligible = {}
    for f in faces:
        if f.size != 2:
            continue
        (c1, g1), (c2, g2) = f.corners
        if c1 == c2 or c1 in kinks or c2 in kinks:
            continue
        eligible[f.index] = ((c1, g1), (c2, g2))
    port = {}
    for fi in sorted(eligible):
        for c, g in eligible[fi]:
            port[(c, g)] = fi

    used = set()
    claimed = set()
    overlap = []
    chains = []
    for fi in sorted(eligible):
        if fi in used:
            continue
        (c1, g1), (c2, g2) = eligible[fi]
        if c1 in claimed or c2 in claimed:
            used.add(fi)
            overlap.append(fi)
            continue
        chain = _grow_chain(fi, eligible, port, claimed, used, overlap)
        claimed.update(chain[0])
        chains.append(chain)

    raw = list(chains)
    for ci in range(len(d)):
        if ci not in claimed:
            raw.append(([ci], [], {ci: []}, False))
    raw.sort(key=lambda ch: min(ch[0]))

    regions = []
    for idx, (crossings, bigons, gaps, cyclic) in enumerate(raw):
        hs = []
        for c in crossings:
            gap_parity = gaps[c][0] % 2 if gaps[c] else 0
            hs.append(1 if gap_parity == d.crossings[c].under_axis else -1)
        if len(set(hs)) == 1:
            handed = hs[0]
        elif allow_mixed:
            handed = 0
        else:
            raise NonAlternatingChain(
                f"chain through crossings {tuple(crossings)} mixes handedness {tuple(hs)}"
            )
        if cyclic:
            ends = None
        elif len(crossings) == 1:
            ends = ((crossings[0], 0), (crossings[0], 2))
        else:
            ends = (
                (crossings[0], gaps[crossings[0]][0]),
                (crossings[-1], gaps[crossings[-1]][0]),
            )
        regions.append(
            TwistRegion(
                index=idx,
                crossings=tuple(crossings),
                bigons=tuple(bigons),
                cyclic=cyclic,
                count=len(crossings),
                handedness=handed,
                parity=len(crossings) % 2,
                ambiguous_axis=len(crossings) == 1,
                crossing_handedness=tuple(hs),
                end_gaps=ends,
            )
        )
    return TwistDecomposition(regions, overlap)


def _grow_chain(fi, eligible, port, claimed, used, overlap):
    (c1, g1), (c2, g2) = eligible[fi]
    crossings = [c1, c2]
    bigons = [fi]
    gaps = {c1: [g1], c2: [g2]}
    used.add(fi)
    cyclic = False

    def extend(c, g, forward):
        nonlocal cyclic
        while True:
            nxt = port.get((c, (g + 2) % 4))
            if nxt is None or nxt in used:
                return
            (a, ga), (b, gb) = eligible[nxt]
            if a == c:
                ngap, far, fgap = ga, b, gb
            else:
                ngap, far, fgap = gb, a, ga
            head = crossings[0] if forward else crossings[-1]
            if far == head:
                # proper closure lands on the head's free opposite gap; the
                # closing bigon always joins the last crossing to the first
                if fgap == (gaps[head][0] + 2) % 4:
                    used.add(nxt)
                    gaps[c].append(ngap)
                    gaps[far].append(fgap)
                    bigons.append(nxt)
                    cyclic = True
                return
            if far in claimed or far in gaps:
                used.add(nxt)
                overlap.append(nxt)
                return
            used.add(nxt)
            gaps[c].append(ngap)
            gaps[far] = [fgap]
            if forward:
                bigons.append(nxt)
                crossings.append(far)
            else:
                bigons.insert(0, nxt)
                crossings.insert(0, far)
            c, g = far, fgap

    extend(c2, g2, forward=True)
    if not cyclic:
        extend(c1, g1, forward=False)
    return crossings, bigons, gaps, cyclic


# -- type II cancellation ---------------------------------------------------

def reduce_assumption1(d):
    """Cancel adjacent opposite-handed pairs until every chain is coherent."""
    while True:
        dec = detect_twist_regions(d, allow_mixed=True)
        target = None
        for r in dec:
            if r.handedness != 0:
                continue
            n = r.count
            limit = n if r.cyclic else n - 1
            for i in range(limit):
                j = (i + 1) % n
                if r.crossing_handedness[i] != r.crossing_handedness[j]:
                    target = (r.crossings[i], r.crossings[j], r.bigons[i])
                    break
            if target:
                break
        if target is None:
            return d
        d = _cancel(d, *target)


def _cancel(d, ci, cj, bigon_face):
    corners = dict(d.faces[bigon_face].corners)
    gc, gd = corners[ci], corners[cj]
    ds = DisjointSets()
    # strands through the pair: external slot g+3 of one meets g+2 of the other
    ds.union(d.arc_at(ci, gc + 3), d.arc_at(cj, gd + 2))
    ds.union(d.arc_at(ci, gc + 2), d.arc_at(cj, gd + 3))
    slot_lists = []
    axes = []
    for k, c in enumerate(d.crossings):
        if k in (ci, cj):
            continue
        slot_lists.append(tuple(ds.find(a) for a in c.slots))
        axes.append(c.under_axis)
    if not slot_lists:
        raise UnknotCollapse(
            f"cancelling crossings {ci} and {cj} removed the last crossings"
        )
    kept = {a for slots in slot_lists for a in slots}
    spliced = {
        ds.find(d.arc_at(ci, gc + 3)),
        ds.find(d.arc_at(ci, gc + 2)),
    }
    if spliced - kept:
        # a strand closed into a crossing-free loop the code cannot carry
        raise NonSphericalEmbedding(
            "cancellation split off a closed strand with no crossings"
        )
    return relabel(slot_lists, axes)


# -- collapsed graph --------------------------------------------------------

@dataclass(frozen=True)
class CollapsedVertex:
    index: int
    count: int
    handedness: int
    cyclic: bool
    through: tuple  # pairing of local slots by strand, () for cyclic


class CollapsedGraph:
    """One 4-valent vertex per twist region; faces by the rotation system.

    Local gaps 0 and 2 face along the region axis; the side faces the
    twist bigons separated sit at gaps 1 and 3.
    """

    ARC_GAPS = (1, 3)

    def __init__(self, vertices, alpha):
        self.vertices = tuple(vertices)
        self.alpha = dict(alpha)
        self.faces, self.dart_face, self.face_at = faces_of(
            4 * len(self.vertices), self.alpha
        )
        if len(self.faces) != len(self.vertices) + 2:
            raise InternalError(
                f"collapsed graph has {len(self.faces)} faces for "
                f"{len(self.vertices)} vertices"
            )

    def __len__(self):
        return len(self.vertices)

    def side_faces(self, vi):
        return tuple(self.face_at[(vi, g)] for g in self.ARC_GAPS)

    def to_dot(self):
        nodes = [
            (f"v{v.index}", f"{v.count}@{v.handedness:+d}")
            for v in self.vertices
        ]
        edges = []
        partners = set()  # each edge is written from its first dart
        for d, e in self.alpha.items():
            if d not in partners:
                partners.add(e)
                edges.append((f"v{d >> 2}", f"v{e >> 2}", None))
        return to_dot("collapsed", nodes, edges)


def collapse(d, decomposition=None):
    if decomposition is None:
        decomposition = detect_twist_regions(d)
    regions = decomposition.regions
    for r in regions:
        if r.handedness == 0:
            raise NonAlternatingChain(
                f"region {r.index} mixes handedness; cancel first"
            )
    cyclic = [r for r in regions if r.cyclic]
    if cyclic:
        if len(regions) != 1:
            raise InternalError("cyclic chain inside a larger diagram")
        r = regions[0]
        v = CollapsedVertex(0, r.count, r.handedness, True, ())
        # two nested loops at one vertex: three faces, sides at gaps 1, 3
        return CollapsedGraph([v], {0: 3, 3: 0, 1: 2, 2: 1})

    vertices = []
    arc_ends = {}
    for r in regions:
        (e1, g1), (e2, g2) = r.end_gaps
        if r.count == 1:
            rot = [(e1, s) for s in range(4)]
        else:
            rot = (
                (e1, (g1 + 2) % 4),
                (e1, (g1 + 3) % 4),
                (e2, (g2 + 2) % 4),
                (e2, (g2 + 3) % 4),
            )
        through = _trace_through(d, r, rot)
        vertices.append(
            CollapsedVertex(r.index, r.count, r.handedness, False, through)
        )
        for local, (c, s) in enumerate(rot):
            arc_ends.setdefault(d.arc_at(c, s), []).append(4 * r.index + local)
    alpha = {}
    for arc, ends in arc_ends.items():
        if len(ends) != 2:
            raise InternalError(f"stub arc {arc} has {len(ends)} ends")
        alpha[ends[0]] = ends[1]
        alpha[ends[1]] = ends[0]
    return CollapsedGraph(vertices, alpha)


def _trace_through(d, region, rot):
    """Pair the vertex's local slots by the strands crossing the region."""
    members = set(region.crossings)
    stub_of = {cs: local for local, cs in enumerate(rot)}
    pairs = []
    seen = set()
    for local, (c, s) in enumerate(rot):
        if local in seen:
            continue
        cur_c, cur_s = c, s
        while True:
            out = (cur_c, (cur_s + 2) % 4)
            if out in stub_of:
                break
            e = d.alpha[4 * out[0] + out[1]]
            cur_c, cur_s = e >> 2, e & 3
            if cur_c not in members:
                raise InternalError("strand left its region mid-trace")
        other = stub_of[out]
        pairs.append((local, other))
        seen.update((local, other))
    return tuple(sorted(pairs))
