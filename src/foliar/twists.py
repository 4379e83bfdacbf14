"""Twist regions: detection, cancellation, and the collapsed graph.

A twist region is a maximal chain of crossings joined by bigon faces
through opposite gaps, or a single crossing belonging to no such chain.
Chains may close up cyclically; a cyclic chain necessarily exhausts the
whole diagram.  Crossings incident to a monogon never join a chain, and
when more bigons touch a crossing than a single chain can use (three
parallel strands) the extras are left as plain faces, so the regions
always partition the crossings.

Detection reads the diagram's flat face lists.  The two corners of each
bigon a chain may use point at each other, so a chain grows from a
corner to the partner of the corner at its opposite gap.  The
handedness of a chain crossing is +1 when the parity of the gap by
which it joined matches its under_axis bit; a single crossing's chain
axis runs through gaps 0 and 2.  Equal handedness along a chain is
exactly the condition that no two adjacent crossings cancel by a type
II move.

The regions are found once per diagram, mixed chains allowed, and kept
on it as flat lists (flat_regions), in crossing order with a chain at
its lowest crossing: signed counts, 0 for a mixed chain; four stub
darts per region, None for a cyclic chain; each crossing's chain id and
join gap; the crossings of each chain; and the first mixed region, from
which a strict call raises.  detect_twist_regions builds records from
them on each call; the verdict path and augment build none.

reduce_assumption1 cancels in rounds.  Each round takes the mixed
chains of one detection in region order.  For each it matches the
opposite-handed crossings like brackets and splices the matched
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
with its own numbering.  A diagram without a mixed chain is its own
reduction and keeps none, so that it never refers to itself.

collapse() replaces every region by one 4-valent vertex, its signed
count.  Slots 0, 1 are the stubs at the first crossing's free chain gap
and 2, 3 those at the last's, so the two strands through the region
pair the slots by the parity of its count alone: (0, 2) and (1, 3) when
it is odd, (0, 3) and (1, 2) when it is even.  The collapsed map pairs
each stub with the stub its edge leads to in the diagram's alpha.  A
knot's collapsed vertex keeps the strand walk's colour bit of its first
stub's corner, so two_color reads the colouring instead of searching.
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


def flat_regions(d, allow_mixed=False):
    """(signed, stubs, chain, gap, chains) of d, found once and kept on
    d; unless allow_mixed, the first region that mixes handedness raises."""
    if d._regions is None:
        d._regions, d._mixed = _detect(d)
    if d._mixed is not None and not allow_mixed:
        crossings = region_crossings(d, d._mixed)
        raise NonAlternatingChain(
            f"chain through crossings {crossings} mixes "
            f"handedness {_hands(d, crossings)}"
        )
    return d._regions


def region_crossings(d, i):
    """The crossings of region i of d in chain order, by its first stub."""
    _, stubs, chain, _, chains = d._regions
    c = 0 if stubs is None else stubs[4 * i] >> 2
    return (c,) if chain[c] < 0 else chains[chain[c]]


def _hands(d, crossings):
    gap, axes = d._regions[3], d.axes
    return tuple([1 if gap[c] & 1 == axes[c] else -1 for c in crossings])


def detect_twist_regions(d, allow_mixed=False):
    """The regions of flat_regions(d, allow_mixed) as new records."""
    signed, stubs, _, gap, _ = flat_regions(d, allow_mixed)
    out = []
    for i, s in enumerate(signed):
        cs = region_crossings(d, i)
        first, last = cs[0], cs[-1]
        ends = ((first, gap[first]), (last, gap[last] if len(cs) > 1 else 2))
        out.append(TwistRegion(
            i, cs, stubs is None, len(cs), (s > 0) - (s < 0), _hands(d, cs),
            None if stubs is None else ends,
        ))
    return tuple(out)


def _detect(d):
    """((signed, stubs, chain, gap, chains), the first mixed region or
    None) of d."""
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
    chains = []  # the crossings of each chain id
    cyclic = False
    for k1 in eligible:
        if used[k1]:
            continue
        k2 = port[k1]
        used[k1] = used[k2] = 1
        if chain[k1 >> 2] >= 0 or chain[k2 >> 2] >= 0:
            continue  # a bigon beside a chain stays a plain face
        crossings, cyclic = _grow_chain(
            k1, k2, len(chains), port, used, chain, gap
        )
        chains.append(crossings)
        if cyclic:
            break  # collapse checks that it is the whole diagram

    # 1 where a crossing's handedness is -1; a single crossing has gap 0
    left = [g & 1 ^ x for g, x in zip(gap, d.axes)]
    emitted = bytearray(len(chains))
    signed = []
    stubs = []  # slots 0, 1 at a region's first crossing, 2, 3 at its last
    for ci in range(n):
        cid = chain[ci]
        if cid < 0:
            signed.append(1 - 2 * left[ci])
            stubs += (4 * ci, 4 * ci + 1, 4 * ci + 2, 4 * ci + 3)
            continue
        if emitted[cid]:
            continue
        emitted[cid] = 1  # at its lowest crossing
        crossings = chains[cid]
        k = len(crossings)
        s = k - 2 * sum(map(left.__getitem__, crossings))
        signed.append(s if s * s == k * k else 0)  # 0 when handedness mixes
        # the stubs at the free chain gap of each end, g + 2 and g + 3
        a = (4 * crossings[0] + gap[crossings[0]]) ^ 2
        b = (4 * crossings[-1] + gap[crossings[-1]]) ^ 2
        stubs += (a, sigma(a), b, sigma(b))
    mixed = signed.index(0) if 0 in signed else None
    return (signed, None if cyclic else stubs, chain, gap, chains), mixed


def _grow_chain(k1, k2, cid, port, used, chain, gap):
    """The chain grown both ways from the bigon with corners k1, k2, as
    (crossings, cyclic); its crossings get chain id cid and their gaps.
    Each way follows the bigons at the gaps opposite the last corner."""
    c1, c2 = k1 >> 2, k2 >> 2
    chain[c1] = chain[c2] = cid
    gap[c1], gap[c2] = k1 & 3, k2 & 3
    ahead, behind = [c1, c2], []
    for k, out, end in ((k2, ahead, 0), (k1, behind, -1)):
        head = ahead[end]  # where the chain would close up
        while True:
            near = k ^ 2  # the bigon at the opposite gap
            far = port[near]
            if far < 0 or used[near]:
                break
            f = far >> 2
            if f == head:
                # proper closure lands on the head's free opposite gap;
                # the closing bigon always joins the last crossing to
                # the first
                if far & 3 == gap[head] ^ 2:
                    used[near] = used[far] = 1
                    return tuple(behind[::-1] + ahead), True
                break
            used[near] = used[far] = 1
            if chain[f] >= 0:
                # a bigon at a side gap of a chain crossing ends at its
                # chain neighbour, and one at a chain end's free chain
                # gap would have grown that chain, so no bigon leads
                # into a chain
                raise InternalError(
                    f"twist chain reached crossing {f}, already in a chain"
                )
            chain[f] = cid
            gap[f] = far & 3
            out.append(f)
            k = far
    return tuple(behind[::-1] + ahead), False


# -- type II cancellation ---------------------------------------------------

def reduce_assumption1(d):
    """Cancel opposite-handed crossings, every independent mixed chain
    of one detection per round."""
    if d._reduced is None:
        flat_regions(d, allow_mixed=True)
        if d._mixed is not None:
            d._reduced = _cancel_rounds(d)
    return d if d._reduced is None else d._reduced


def _cancel_rounds(d):
    while True:
        signed = flat_regions(d, allow_mixed=True)[0]
        mixed = [region_crossings(d, i) for i, s in enumerate(signed) if not s]
        if not mixed:
            return d
        alpha = list(d.alpha)
        gone = set()
        faces = list(range(len(d.start) - 1))  # union-find over d's faces
        for crossings in mixed:
            matched = _bracket_match(crossings, _hands(d, crossings))
            if len(gone) + len(matched) == len(d):
                if gone:
                    break  # the next round raises in its own numbering
                raise UnknotCollapse(
                    f"cancelling chain {crossings} removed the last crossings"
                )
            ends = [alpha[4 * c + s] for c in matched for s in range(4)]
            # a type II move lets both strands pass straight through the pair
            if sum(splice_out(alpha, c, ((0, 2), (1, 3))) for c in matched):
                raise NonSphericalEmbedding(
                    "cancellation split off a closed strand with no crossings"
                )
            gone.update(matched)
            if _splits(d, matched, faces) or any(
                _small_face(alpha, e) for e in ends if alpha[e] >= 0
            ):
                # building raises on a split; a new bigon or curl can
                # reshape the later chains
                break
        kept = [k for k in range(len(d)) if k not in gone]
        d = LinkDiagram.from_darts(
            compact(alpha, kept), [d.axes[k] for k in kept]
        )


def _bracket_match(crossings, hands):
    """Opposite-handed crossings of a chain, matched like brackets."""
    stack, matched = [], []
    for c, h in zip(crossings, hands):
        if stack and stack[-1][1] != h:
            matched += (stack.pop()[0], c)
        else:
            stack.append((c, h))
    return matched


def _splits(d, matched, faces):
    """Whether cancelling matched may have split the diagram into pieces.

    Cancelling joins the two faces along the chain at each matched
    crossing.  faces is a union-find list over the faces of d holding
    the joins made so far in the round; a join of two faces that are
    already one closes a ring of faces around part of the diagram.
    """
    gap = d._regions[3]
    ring = False
    for c in matched:
        p = gap[c] & 1  # both chain gaps have the parity of the join gap
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
    faces = property(face_lists)

    def __init__(self, vertices, alpha, bits=None):
        self.vertices = vertices  # a list of signed counts, kept as given
        self.alpha = alpha  # a list over darts, kept as given
        self.bits = bits  # colour bits per vertex, or None: two_color searches
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
    """The collapsed graph of d, of the given records of d's regions if
    any, else of all its regions."""
    signed, stubs = flat_regions(d, regions is not None)[:2]
    if regions is not None:
        signed = [signed[r.index] for r in regions]
        if 0 in signed:
            i = regions[signed.index(0)].index
            raise NonAlternatingChain(
                f"region {i} mixes handedness; cancel first"
            )
        if stubs is not None:
            stubs = [stubs[4 * r.index + j] for r in regions for j in range(4)]
    if stubs is None:
        if len(signed) != 1:
            raise InternalError("cyclic chain inside a larger diagram")
        # two nested loops at one vertex: three faces, sides at gaps 1, 3
        return CollapsedGraph(signed[:], [3, 2, 1, 0])
    local = [-1] * (4 * len(d))  # the collapsed dart at each stub
    for i, dart in enumerate(stubs):
        local[dart] = i
    alpha = [local[e] for e in map(d.alpha.__getitem__, stubs)]
    if -1 in alpha:
        dart = stubs[alpha.index(-1)]
        raise InternalError(f"stub dart {dart} leads into a region")
    bits = d.bits  # a vertex's colour is its first stub's corner colour
    if bits is not None:
        bits = [bits[s >> 2] ^ (s & 1) for s in islice(stubs, 0, None, 4)]
    return CollapsedGraph(signed[:], alpha, bits)
