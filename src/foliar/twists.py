"""Twist regions: detection, cancellation, and the collapsed graph.

A twist region is a maximal chain of crossings joined by bigon faces
through opposite gaps, or a single crossing belonging to no such chain.
Crossings incident to a monogon never join a chain, and when more
bigons touch a crossing than a single chain can use (three parallel
strands) the extras are left as plain faces, so the regions always
partition the crossings.  A ring, a chain that grows back to its own
other end, is a chain like any other: the bigon that would close it
stays a plain face.

Detection reads the diagram's flat face lists.  The two corners of each
bigon a chain may use point at each other in one list over the corners,
so a chain grows from a corner to the partner of the corner at its
opposite gap, and a bigon is crossed out of that list once looked at.
Each chain grows in one loop, ahead and then behind from the bigon it
starts at, and is kept as links: the next crossing of each chain
crossing, and at the chain's lowest crossing its first.  The
handedness of a chain crossing is +1 when the parity of the gap by
which it joined matches its under_axis bit; a single crossing's chain
axis runs through gaps 0 and 2.  Equal handedness along a chain is
exactly the condition that no two adjacent crossings cancel by a type
II move.

The regions are found once per diagram and kept on it as flat lists
(flat_regions), in crossing order with a chain at its lowest crossing.
One pass over the crossings writes them, walking each chain's links as
it reaches the chain, with list appends and no function call, tuple or
dict per region: signed counts, 0 for a mixed chain; four stub darts
per region; order and start, which hold the regions as a traced map
holds its faces, region i being the crossings order[start[i]:start[i +
1]] in chain order; and each crossing's join gap.  Detection never
refuses a diagram.  detect_twist_regions builds records from the lists
on each call; the verdict path and augment build none.

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
that chain no longer cancels.  Only a round's first chain can remove
every crossing left: before a later one, the previous splice would
have left that chain alone, closed on itself, and re-paired edges on
its faces of one or two corners, which ends the round.  A splice never
joins pieces, so once one splits the diagram the round's build names
the split, or a later splice reports a strand that closed on itself.
A diagram without a mixed chain is its own reduction and keeps none,
so that it never refers to itself.

collapse() replaces every region by one 4-valent vertex, its signed
count, always all of the regions in region order.  Slots 0, 1 are the
stubs at the first crossing's free chain gap and 2, 3 those at the
last's, so the two strands through the region pair the slots by the
parity of its count alone: (0, 2) and (1, 3) when it is odd, (0, 3)
and (1, 2) when it is even.  The collapsed map pairs each stub with the
stub its edge leads to in the diagram's alpha.  A collapsed vertex
keeps the strand walk's colour bit of its first stub's corner, so
two_color reads the colouring off the diagram's bits.  A ring's end
stubs meet across the bigon that closes it, which gives one vertex with
two nested loops.  A mixed chain has no vertex, so collapse is where a
mixed chain is refused: cancellation comes first.
"""

from itertools import islice
from typing import NamedTuple

from ._planar import (
    compact,
    face_lists,
    sigma,
    splice_out,
    to_dot,
    trace_faces,
)
from .diagram import LinkDiagram
from .errors import (
    InputError,
    InternalError,
    NonAlternatingChain,
    NonSphericalEmbedding,
    UnknotCollapse,
)


class TwistRegion(NamedTuple):
    index: int
    crossings: tuple
    count: int
    handedness: int  # 0 when mixed
    crossing_handedness: tuple
    end_gaps: tuple  # ((first crossing, chain gap), (last, gap))


def flat_regions(d):
    """(signed, stubs, order, start, gap) of d, found once and kept on
    d.  A ring is a chain whose closing bigon stays a plain face, and a
    mixed chain has count 0: detection never refuses, collapse does."""
    if d._regions is None:
        d._regions = _detect(d)
    return d._regions


def region_crossings(d, i):
    """The crossings of region i of d in chain order."""
    _, _, order, start, _ = d._regions
    return tuple(order[start[i]:start[i + 1]])


def _hands(d, crossings):
    gap, axes = d._regions[4], d.axes
    return tuple([1 if gap[c] & 1 == axes[c] else -1 for c in crossings])


def detect_twist_regions(d):
    """The regions of flat_regions(d) as new records."""
    signed, _, _, _, gap = flat_regions(d)
    out = []
    for i, s in enumerate(signed):
        cs = region_crossings(d, i)
        first, last = cs[0], cs[-1]
        ends = ((first, gap[first]), (last, gap[last] if len(cs) > 1 else 2))
        out.append(TwistRegion(
            i, cs, len(cs), (s > 0) - (s < 0), _hands(d, cs), ends
        ))
    return tuple(out)


def _detect(d):
    """(signed, stubs, order, start, gap) of d, read from its corners,
    start and axes.

    A chain starts at a bigon on its lowest crossing L, so growing it
    never lowers low.  trace_faces numbers a face by the lowest dart
    that leaves it, and a bigon is left by one dart at each of its two
    crossings, so a bigon on L comes before every bigon whose crossings
    all lie above L.  Let B join L to a chain neighbour.  A bigon
    starting the chain above L would come after B; but when the pass
    meets B, neither of its crossings is in a chain and no chain has
    used it, as either would put L in another chain, so B would start
    L's chain first.
    """
    corners, axes = d.corners, d.axes
    n = len(axes)
    kink = bytearray(n)
    bigons = []  # the offset of each bigon in corners
    a = 0
    for b in islice(d.start, 1, None):  # face [a, b) of corners
        if b - a < 3:
            if b - a == 2:
                bigons.append(a)
            else:
                kink[corners[a] >> 2] = 1
        a = b
    # the partner corner of each eligible bigon not yet looked at, else -1
    port = [-1] * (4 * n)
    eligible = []  # the first corner of each eligible bigon
    for a in bigons:
        k1, k2 = corners[a], corners[a + 1]
        c1, c2 = k1 >> 2, k2 >> 2
        if c1 != c2 and not kink[c1] and not kink[c2]:
            port[k1] = k2
            port[k2] = k1
            eligible.append(k1)

    gap = [0] * n  # the gap by which a crossing joined its chain
    succ = [-1] * n  # the next crossing along its chain, -1 at its last
    # -1 for a single crossing, -2 inside a chain, and at a chain's
    # lowest crossing its first in chain order
    lead = [-1] * n
    for k1 in eligible:
        k2 = port[k1]
        if k2 < 0:
            continue
        port[k1] = port[k2] = -1
        c1, c2 = k1 >> 2, k2 >> 2
        if lead[c1] != -1 or lead[c2] != -1:
            continue  # a bigon beside a chain stays a plain face
        lead[c1] = lead[c2] = -2
        gap[c1], gap[c2] = k1 & 3, k2 & 3
        succ[c1] = c2
        low = c1 if c1 < c2 else c2  # the chain's lowest crossing
        # grow ahead from c2, then behind from c1, each way by the
        # bigons at the gaps opposite the corner last joined; a bigon
        # back to the chain's other end stays a plain face
        head, tail, k, ahead = c1, c2, k2, True
        while True:
            far = port[k ^ 2]
            if far >= 0 and far >> 2 != (head if ahead else tail):
                f = far >> 2
                port[k ^ 2] = port[far] = -1
                if lead[f] != -1:
                    # a bigon at a side gap of a chain crossing ends at
                    # its chain neighbour, and one at a chain end's free
                    # chain gap would have grown that chain, so no
                    # bigon leads into a chain
                    raise InternalError(
                        f"twist chain reached crossing {f}, "
                        "already in a chain"
                    )
                lead[f] = -2
                gap[f] = far & 3
                if ahead:
                    succ[tail] = f
                    tail = f
                else:
                    succ[f] = head
                    head = f
                k = far
                continue
            if not ahead:
                break
            ahead, k = False, k1
        lead[low] = head

    # regions in crossing order, a chain at its lowest crossing; a
    # crossing's handedness is -1 when its join gap's parity differs
    # from its under_axis bit, and a single crossing joined by gap 0
    signed = []
    order = []
    start = []
    stubs = []  # slots 0, 1 at a region's first crossing, 2, 3 at its last
    for c in range(n):
        f = lead[c]
        if f == -2:
            continue
        start.append(len(order))
        if f == -1:
            order.append(c)
            signed.append(1 - 2 * axes[c])
            c *= 4
            stubs.append(c)
            stubs.append(c + 1)
            stubs.append(c + 2)
            stubs.append(c + 3)
            continue
        # the stubs at the free chain gap of each end, g + 2 and g + 3
        a = (4 * f + gap[f]) ^ 2
        k = len(order)
        left = 0  # crossings of handedness -1
        while f >= 0:
            order.append(f)
            left += gap[f] & 1 ^ axes[f]
            t, f = f, succ[f]
        k = len(order) - k
        signed.append(k if not left else -k if left == k else 0)
        b = (4 * t + gap[t]) ^ 2
        stubs.append(a)
        stubs.append(a & ~3 | a + 1 & 3)
        stubs.append(b)
        stubs.append(b & ~3 | b + 1 & 3)
    start.append(n)
    return signed, stubs, order, start, gap


# -- type II cancellation ---------------------------------------------------

def reduce_assumption1(d):
    """Cancel opposite-handed crossings, every independent mixed chain
    of one detection per round."""
    if d._reduced is None and 0 in flat_regions(d)[0]:
        d._reduced = _cancel_rounds(d)
    return d if d._reduced is None else d._reduced


def _cancel_rounds(d):
    while True:
        signed = flat_regions(d)[0]
        mixed = [region_crossings(d, i) for i, s in enumerate(signed) if not s]
        if not mixed:
            return d
        alpha = list(d.alpha)
        gone = set()
        for crossings in mixed:
            matched = _bracket_match(crossings, _hands(d, crossings))
            if len(gone) + len(matched) == len(d):
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
            if any(_small_face(alpha, e) for e in ends if alpha[e] >= 0):
                break  # a new bigon or curl can reshape the later chains
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
    at gaps 1 and 3.  Tracing checks no count: a plane piece of V
    vertices has V + 2 faces, collapse raises InternalError otherwise,
    and a merge round counts its pieces so (NonSphericalEmbedding).
    """

    ARC_GAPS = (1, 3)
    faces = property(face_lists)

    def __init__(self, vertices, alpha, bits):
        self.vertices = vertices  # a list of signed counts, kept as given
        self.alpha = alpha  # a list over darts, kept as given
        self.bits = bits  # a colour bit per vertex, as _planar keeps them
        self.corners, self.start, self.face_at = trace_faces(alpha)

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
    """The collapsed graph of all of d's regions, in region order; the
    first mixed one raises.  regions, if given, must hold each of d's
    region records once, in any order, else InputError."""
    signed, stubs = flat_regions(d)[:2]
    if regions is not None:
        if sorted([r.index for r in regions]) != list(range(len(signed))):
            raise InputError("collapse takes every region record once")
    if 0 in signed:
        i = signed.index(0)
        crossings = region_crossings(d, i)
        raise NonAlternatingChain(
            f"region {i} through crossings {crossings} mixes handedness "
            f"{_hands(d, crossings)}; cancel first"
        )
    local = [-1] * (4 * len(d))  # the collapsed dart at each stub
    for i, dart in enumerate(stubs):
        local[dart] = i
    darts = d.alpha
    bits = d.bits  # a vertex's colour is its first stub's corner colour
    cg = CollapsedGraph(
        signed[:],
        [local[darts[s]] for s in stubs],
        [bits[s >> 2] ^ (s & 1) for s in stubs[::4]],
    )
    if len(cg.start) != len(signed) + 3:  # V + 2 faces on the sphere
        raise InternalError(
            f"collapsed graph has {len(cg.start) - 1} faces for "
            f"{len(signed)} vertices"
        )
    return cg
