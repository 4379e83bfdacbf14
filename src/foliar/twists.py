"""Twist regions: detection, cancellation, and the collapsed graph.

A twist region is a maximal chain of crossings joined by bigon faces
through opposite gaps, or a single crossing belonging to no such chain.
Chains may close up cyclically; a cyclic chain necessarily exhausts the
whole diagram.  Crossings incident to a monogon never join a chain, and
when more bigons touch a crossing than a single chain can use (three
parallel strands) the extras are left as plain faces, so the regions
always partition the crossings.

Detection reads the diagram's flat face lists, corners and start, in
which a face's degree is a difference of offsets, and makes no record
per crossing.  The two corners of each bigon a chain may use point at
each other, so a chain grows from a corner to the partner of the
corner at its opposite gap.  Each crossing keeps its chain id and the
gap by which it joined, and the regions come out in crossing order, a
chain at its lowest crossing.

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
mixed chains allowed, next to the first mixed region or None, and a
strict call raises from that one fact instead of scanning the regions
again.  A diagram without a mixed chain is its own reduction and keeps
none, so that it never refers to itself.

collapse() replaces every region by one 4-valent vertex, giving the
reduced graph used for face colouring and the side graphs.  A collapsed
vertex is its region's signed count, handedness times crossings, at the
region's position.  The vertex's slots 0, 1 are the stubs at the chain's
first crossing and 2, 3 those at its last, so the two strands through
the region pair the slots by the parity of its count alone: (0, 2) and
(1, 3) when it is odd, (0, 3) and (1, 2) when it is even.  A stub is a
dart of the diagram, and the collapsed map pairs it with the stub its
edge leads to in the diagram's alpha.
"""

from itertools import islice
from typing import NamedTuple

from ._planar import (
    compact,
    face_lists,
    find,
    sigma,
    splice_out,
    to_dot,
    trace_faces,
)
from .diagram import LinkDiagram
from .errors import (
    InternalError,
    NonAlternatingChain,
    NonSphericalEmbedding,
    UnknotCollapse,
)


class TwistRegion(NamedTuple):
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
        d._regions, d._mixed = _detect(d)
    r = d._mixed
    if r is not None and not allow_mixed:
        raise NonAlternatingChain(
            f"chain through crossings {r.crossings} mixes "
            f"handedness {r.crossing_handedness}"
        )
    return d._regions


def _detect(d):
    """(regions, the first mixed region or None) of d."""
    corners, start = d.corners, d.start
    n = len(d)
    kink = bytearray(n)
    bigons = []  # the offset of each bigon in corners
    a = 0
    for b in islice(start, 1, None):  # face [a, b) of corners
        if b - a < 3:
            if b - a == 2:
                bigons.append(a)
            else:
                kink[corners[a] >> 2] = 1
        a = b
    port = [-1] * (4 * n)  # the partner corner of an eligible bigon
    eligible = []  # the first corner of each eligible bigon
    for a in bigons:
        k1, k2 = corners[a], corners[a + 1]
        c1, c2 = k1 >> 2, k2 >> 2
        if c1 != c2 and not kink[c1] and not kink[c2]:
            port[k1] = k2
            port[k2] = k1
            eligible.append(k1)

    used = bytearray(4 * n)  # both corners of every bigon looked at
    chain = [-1] * n  # chain id per crossing; -1 for a single crossing
    gap = [0] * n  # the gap by which a crossing joined its chain
    chains = []  # (crossings, cyclic) per chain id
    for k1 in eligible:
        if used[k1]:
            continue
        k2 = port[k1]
        used[k1] = used[k2] = 1
        if chain[k1 >> 2] >= 0 or chain[k2 >> 2] >= 0:
            continue  # a bigon beside a chain stays a plain face
        chains.append(_grow_chain(k1, k2, len(chains), port, used, chain, gap))

    axis = d.axes
    emitted = bytearray(len(chains))
    regions = []
    mixed = None  # the first region that mixes handedness
    for ci in range(n):
        cid = chain[ci]
        if cid < 0:  # chain axis through gaps 0 and 2
            h = 1 if axis[ci] == 0 else -1
            regions.append(TwistRegion(
                len(regions), (ci,), False, 1, h, (h,), ((ci, 0), (ci, 2))
            ))
            continue
        if emitted[cid]:
            continue
        emitted[cid] = 1  # at its lowest crossing
        crossings, cyclic = chains[cid]
        hs = tuple([1 if gap[c] & 1 == axis[c] else -1 for c in crossings])
        first, last = crossings[0], crossings[-1]
        r = TwistRegion(
            len(regions),
            crossings,
            cyclic,
            len(crossings),
            0 if -hs[0] in hs else hs[0],
            hs,
            None if cyclic else ((first, gap[first]), (last, gap[last])),
        )
        if mixed is None and r.handedness == 0:
            mixed = r
        regions.append(r)
    return tuple(regions), mixed


def _grow_chain(k1, k2, cid, port, used, chain, gap):
    """The chain grown both ways from the bigon with corners k1, k2, as
    (crossings, cyclic); its crossings get chain id cid and their gaps."""
    c1, c2 = k1 >> 2, k2 >> 2
    chain[c1] = chain[c2] = cid
    gap[c1], gap[c2] = k1 & 3, k2 & 3
    ahead = [c1, c2]
    if _extend(k2, c1, ahead, cid, port, used, chain, gap):
        return tuple(ahead), True
    behind = []
    cyclic = _extend(k1, ahead[-1], behind, cid, port, used, chain, gap)
    return tuple(behind[::-1] + ahead), cyclic


def _extend(k, head, out, cid, port, used, chain, gap):
    """Follow bigons from the gap opposite corner k, adding crossings to
    out; True when the chain closes up at head."""
    while True:
        near = k ^ 2  # the bigon at the opposite gap
        far = port[near]
        if far < 0 or used[near]:
            return False
        f = far >> 2
        if f == head:
            # proper closure lands on the head's free opposite gap; the
            # closing bigon always joins the last crossing to the first
            if far & 3 == gap[head] ^ 2:
                used[near] = used[far] = 1
                return True
            return False
        used[near] = used[far] = 1
        if chain[f] >= 0:
            # a bigon at a side gap of a chain crossing ends at its chain
            # neighbour, and one at a chain end's free chain gap would
            # have grown that chain, so no bigon leads into a chain
            raise InternalError(
                f"twist chain reached crossing {f}, already in a chain"
            )
        chain[f] = cid
        gap[f] = far & 3
        out.append(f)
        k = far


# -- type II cancellation ---------------------------------------------------

def reduce_assumption1(d):
    """Cancel opposite-handed crossings, every independent mixed chain
    of one detection per round."""
    if d._reduced is None:
        detect_twist_regions(d, allow_mixed=True)
        if d._mixed is not None:
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
        faces = list(range(len(d.start) - 1))  # union-find over d's faces
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
            compact(alpha, kept), [d.axes[k] for k in kept]
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
    crossing.  faces is a union-find list over the faces of d holding
    the joins made so far in the round; a join of two faces that are
    already one closes a ring of faces around part of the diagram.
    """
    hand = dict(zip(region.crossings, region.crossing_handedness))
    ring = False
    for c in matched:
        # the chain gaps have the parity that handedness +1 gives under_axis
        p = d.axes[c] ^ (hand[c] < 0)
        a = find(faces, d.face_at[4 * c + p])
        b = find(faces, d.face_at[4 * c + p + 2])
        ring |= a == b
        faces[b] = a
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

class CollapsedGraph:
    """One 4-valent vertex per twist region; faces by the rotation system.

    vertices holds each vertex's signed count.  Local gaps 0 and 2 face
    along the region axis; the side faces the twist bigons separated sit
    at gaps 1 and 3.
    """

    ARC_GAPS = (1, 3)
    bits = None  # two_color searches the faces
    faces = property(face_lists)

    def __init__(self, vertices, alpha):
        self.vertices = vertices  # a list of signed counts, kept as given
        self.alpha = alpha  # a list over darts, kept as given
        self.corners, self.start, self.face_at = trace_faces(
            4 * len(vertices), alpha
        )
        if len(self.start) != len(self.vertices) + 3:
            raise InternalError(
                f"collapsed graph has {len(self.start) - 1} faces for "
                f"{len(self.vertices)} vertices"
            )

    def __len__(self):
        return len(self.vertices)

    def side_faces(self, vi):
        return tuple([self.face_at[4 * vi + g] for g in self.ARC_GAPS])

    def to_dot(self):
        nodes = [
            (f"v{i}", f"{abs(w)}@{1 if w > 0 else -1:+d}")
            for i, w in enumerate(self.vertices)
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
        # two nested loops at one vertex: three faces, sides at gaps 1, 3
        return CollapsedGraph([r.handedness * r.count], [3, 2, 1, 0])

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
        vertices.append(r.handedness * r.count)
        for dart in rot:
            local[dart] = len(stubs)
            stubs.append(dart)
    alpha = [local[d.alpha[dart]] for dart in stubs]
    if -1 in alpha:
        dart = stubs[alpha.index(-1)]
        raise InternalError(f"stub dart {dart} leads into a region")
    return CollapsedGraph(vertices, alpha)
