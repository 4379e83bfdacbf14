"""Twist regions: detection, cancellation, and the collapsed graph.

A twist region is a maximal chain of crossings joined by bigon faces
through opposite gaps, or a single crossing belonging to no such chain.
Chains may close up cyclically; a cyclic chain necessarily exhausts the
whole diagram.  Crossings incident to a monogon never join a chain, and
when more bigons touch a crossing than a single chain can use (three
parallel strands) the extras are left as plain faces, so the regions
always partition the crossings.

The handedness of a crossing inside a chain is +1 when the parity of
its chain gap matches its under_axis bit.  For a single crossing the
chain axis is taken through gaps 0 and 2 by convention.  Equal
handedness along a chain is exactly the condition that no two adjacent
crossings cancel by a type II move.

reduce_assumption1 cancels in rounds.  Each round detects the regions
once and takes the mixed chains in region order.  For each it matches
the opposite-handed crossings like brackets and splices the matched
crossings out of the round's dart map; the chain that is left is
coherent, with |signed sum| crossings.  A splice that leaves every face
through a re-paired dart with at least three corners makes no new
bigon or curl, so a fresh detection would find the same chains less
the matched crossings and pick the next one in the same order: the
round goes on to it.  The round ends, and builds the diagram once, at
the first splice that leaves a face of one or two corners, because
such a face can turn the bigons of a later chain into curls, and then
that chain no longer cancels.  It also ends at a splice that splits
the diagram into pieces, which the build rejects, and before a chain
that would remove every crossing left, so that the next round raises
with its own numbering.

Regions and reduction are found once per diagram and kept on it, so
both routes and augment share them.  The regions are kept as found with
mixed chains allowed, and a strict call raises from them.  A diagram
without a mixed chain is its own reduction and keeps none, so that it
never refers to itself.

collapse() replaces every region by one 4-valent vertex, giving the
reduced graph used for face colouring and the side graphs.  The vertex's
slots 0, 1 are the stubs at the chain's first crossing and 2, 3 those at
its last, so the two strands through the region pair the slots by the
parity of its count alone: (0, 2) and (1, 3) when it is odd, (0, 3) and
(1, 2) when it is even.  A stub is a dart of the diagram, and the
collapsed map pairs it with the stub its edge leads to in the diagram's
alpha.
"""

from dataclasses import dataclass

from ._planar import DisjointSets, compact, faces_of, sigma, splice_out, to_dot
from .diagram import LinkDiagram
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
    cyclic: bool
    count: int
    handedness: int  # 0 when mixed and mixing was allowed
    crossing_handedness: tuple
    end_gaps: tuple  # ((first crossing, chain gap), (last, gap)); None if cyclic


def detect_twist_regions(d, allow_mixed=False):
    """Twist regions of d, found once and kept on d; unless allow_mixed,
    the first region that mixes handedness raises."""
    if d._regions is None:
        d._regions = _detect(d)
    if not allow_mixed:
        for r in d._regions:
            if r.handedness == 0:
                raise NonAlternatingChain(
                    f"chain through crossings {r.crossings} mixes "
                    f"handedness {r.crossing_handedness}"
                )
    return d._regions


def _detect(d):
    faces = d.faces
    kinks = {f.corners[0] >> 2 for f in faces if f.size == 1}
    eligible = {}  # bigon face -> its two corners, by face index
    for f in faces:
        if f.size != 2:
            continue
        k1, k2 = f.corners
        c1, c2 = k1 >> 2, k2 >> 2
        if c1 == c2 or c1 in kinks or c2 in kinks:
            continue
        eligible[f.index] = f.corners
    port = [-1] * (4 * len(d))  # eligible bigon per corner
    for fi, (k1, k2) in eligible.items():
        port[k1] = port[k2] = fi

    used = set()
    claimed = set()
    chains = []
    for fi, (k1, k2) in eligible.items():
        if fi in used:
            continue
        if k1 >> 2 in claimed or k2 >> 2 in claimed:
            used.add(fi)  # a bigon beside a chain stays a plain face
            continue
        chain = _grow_chain(fi, eligible, port, claimed, used)
        claimed.update(chain[0])
        chains.append(chain)

    raw = list(chains)
    for ci in range(len(d)):
        if ci not in claimed:
            raw.append(([ci], {ci: []}, False))
    raw.sort(key=lambda ch: min(ch[0]))

    regions = []
    for idx, (crossings, gaps, cyclic) in enumerate(raw):
        hs = []
        for c in crossings:
            gap_parity = gaps[c][0] % 2 if gaps[c] else 0
            hs.append(1 if gap_parity == d.crossings[c].under_axis else -1)
        handed = hs[0] if len(set(hs)) == 1 else 0
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
                cyclic=cyclic,
                count=len(crossings),
                handedness=handed,
                crossing_handedness=tuple(hs),
                end_gaps=ends,
            )
        )
    return tuple(regions)


def _grow_chain(fi, eligible, port, claimed, used):
    k1, k2 = eligible[fi]
    c1, c2 = k1 >> 2, k2 >> 2
    crossings = [c1, c2]
    gaps = {c1: [k1 & 3], c2: [k2 & 3]}
    used.add(fi)
    cyclic = False

    def extend(k, forward):
        nonlocal cyclic
        while True:
            nxt = port[k ^ 2]  # the bigon at the opposite gap
            if nxt < 0 or nxt in used:
                return
            near, far = eligible[nxt]
            if near >> 2 != k >> 2:
                near, far = far, near
            c, f = k >> 2, far >> 2
            head = crossings[0] if forward else crossings[-1]
            if f == head:
                # proper closure lands on the head's free opposite gap; the
                # closing bigon always joins the last crossing to the first
                if far & 3 == (gaps[head][0] + 2) % 4:
                    used.add(nxt)
                    gaps[c].append(near & 3)
                    gaps[f].append(far & 3)
                    cyclic = True
                return
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
    if not cyclic:
        extend(k1, forward=False)
    return crossings, gaps, cyclic


# -- type II cancellation ---------------------------------------------------

def reduce_assumption1(d):
    """Cancel opposite-handed crossings, every independent mixed chain
    of one detection per round."""
    if d._reduced is None and any(
        r.handedness == 0 for r in detect_twist_regions(d, allow_mixed=True)
    ):
        d._reduced = _cancel_rounds(d)
    return d if d._reduced is None else d._reduced


def _cancel_rounds(d):
    while True:
        dec = detect_twist_regions(d, allow_mixed=True)
        mixed = [r for r in dec if r.handedness == 0]
        if not mixed:
            return d
        alpha = list(d.alpha)
        gone = set()
        faces = DisjointSets()
        for r in mixed:
            matched = _bracket_match(r)
            if len(gone) + len(matched) == len(d):
                if gone:
                    break  # the next round raises in its own numbering
                raise UnknotCollapse(
                    f"cancelling chain {r.crossings} removed the last crossings"
                )
            ends = [alpha[4 * c + s] for c in matched for s in range(4)]
            # a type II move lets both strands pass straight through the pair
            if sum(splice_out(alpha, c, ((0, 2), (1, 3))) for c in matched):
                raise NonSphericalEmbedding(
                    "cancellation split off a closed strand with no crossings"
                )
            gone.update(matched)
            if _splits(d, r, matched, faces) or any(
                _small_face(alpha, e) for e in ends if alpha[e] >= 0
            ):
                # building raises on a split; a new bigon or curl can
                # reshape the later chains
                break
        kept = [k for k in range(len(d)) if k not in gone]
        d = LinkDiagram.from_darts(
            compact(alpha, kept), [d.crossings[k].under_axis for k in kept]
        )


def _bracket_match(region):
    """Opposite-handed crossings of a chain, matched like brackets."""
    stack, matched = [], []
    for c, h in zip(region.crossings, region.crossing_handedness):
        if stack and stack[-1][1] != h:
            matched += (stack.pop()[0], c)
        else:
            stack.append((c, h))
    return matched


def _splits(d, region, matched, faces):
    """Whether cancelling matched may have split the diagram into pieces.

    Cancelling joins the two faces along the chain at each matched
    crossing.  faces holds the joins made so far in the round over the
    faces of d; a join of two faces that are already one closes a ring
    of faces around part of the diagram.
    """
    hand = dict(zip(region.crossings, region.crossing_handedness))
    ring = False
    for c in matched:
        # the chain gaps have the parity that handedness +1 gives under_axis
        p = d.crossings[c].under_axis ^ (hand[c] < 0)
        a = faces.find(d.face_at[4 * c + p])
        b = faces.find(d.face_at[4 * c + p + 2])
        ring |= a == b
        faces.union(a, b)
    return ring


def _small_face(alpha, start):
    """Whether the face traversed from dart start has fewer than 3 corners."""
    e = start
    for _ in range(2):
        e = sigma(alpha[e])
        if e == start:
            return True
    return False


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
        self.alpha = alpha  # a list over darts, kept as given
        self.faces, self.face_at = faces_of(4 * len(self.vertices), self.alpha)
        if len(self.faces) != len(self.vertices) + 2:
            raise InternalError(
                f"collapsed graph has {len(self.faces)} faces for "
                f"{len(self.vertices)} vertices"
            )

    def __len__(self):
        return len(self.vertices)

    def side_faces(self, vi):
        return tuple([self.face_at[4 * vi + g] for g in self.ARC_GAPS])

    def to_dot(self):
        nodes = [
            (f"v{v.index}", f"{v.count}@{v.handedness:+d}")
            for v in self.vertices
        ]
        edges = [  # each edge is written from its lower dart
            (f"v{d >> 2}", f"v{e >> 2}", None)
            for d, e in enumerate(self.alpha)
            if d < e
        ]
        return to_dot("collapsed", nodes, edges)


def collapse(d, regions=None):
    if regions is None:
        regions = detect_twist_regions(d)
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
        return CollapsedGraph([v], [3, 2, 1, 0])

    vertices = []
    stubs = []  # the diagram's dart at each collapsed dart
    local = [-1] * (4 * len(d))  # the collapsed dart at each stub
    for r in regions:
        (e1, g1), (e2, g2) = r.end_gaps
        if r.count == 1:
            rot = range(4 * e1, 4 * e1 + 4)
        else:
            rot = (
                4 * e1 + (g1 + 2) % 4,
                4 * e1 + (g1 + 3) % 4,
                4 * e2 + (g2 + 2) % 4,
                4 * e2 + (g2 + 3) % 4,
            )
        through = ((0, 2), (1, 3)) if r.count % 2 else ((0, 3), (1, 2))
        vertices.append(
            CollapsedVertex(r.index, r.count, r.handedness, False, through)
        )
        for dart in rot:
            local[dart] = len(stubs)
            stubs.append(dart)
    alpha = [local[d.alpha[dart]] for dart in stubs]
    if -1 in alpha:
        dart = stubs[alpha.index(-1)]
        raise InternalError(f"stub dart {dart} leads into a region")
    return CollapsedGraph(vertices, alpha)
