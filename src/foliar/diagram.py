"""Planar link diagrams from PD codes.

A diagram is two flat sequences.  alpha is an array('i') over the 4n
darts of its n crossings, dart 4*c + s being slot s of crossing c with
slots in counterclockwise order, and pairs the two ends of each arc.
axes is a list of one under_axis bit per crossing telling which
opposite slot pair carries the strand passing underneath: 0 for slots 0
and 2, 1 for slots 1 and 3.  Text PD codes X[a,b,c,d] always mean the
a-c strand goes under, so parsing yields under_axis 0 everywhere and
mirroring just flips the bit.

Faces come from the rotation system, so the sphere embedding is implied
by the code itself and validated through the Euler count.  Building a
knot walks its darts twice.  The strand walk finds one strand through
every dart, which shows that the map is connected, and gives bits, one
checkerboard colour bit per crossing.  The face trace gives the flat
corners, start and face_at of _planar.  A link's strands are walked
once more, piece by piece, to count them and the pieces they form and
to give its bits.  The walks read the dart map as it was given; then
alpha and corners are each converted once to array('i'), which holds
every dart under the budget, so the diagram keeps no int object per
dart: 144 bytes per crossing instead of 290.  So the state a diagram is
checked with and read through is alpha, axes, bits, corners, start and
face_at.

Arc labels are not part of that state.  Labelled input (PD text or JSON
rows) becomes one flat list of four labels per crossing, which one loop
pairs into alpha.  PD text is valid when one possessive match reads it
as X[a,b,c,d] tokens with whitespace between them.  Its labels are then
digit runs, so 0 is the only one below 1, which pairing names; JSON
rows may hold any value, so from_json checks its labels are positive
ints first.  _ARRAY makes checked text a JSON array, so no string per
label is made, or, where JSON refuses it, leaves commas to split it at
for int.  The list is dropped: the diagram keeps the text, which
printing reads again, and a mirror image shares it and alpha, flipping
only axes.
Constructions (trees, braid closures, type II cancellation) hold a dart
map already and build through LinkDiagram.from_darts, which checks that
alpha is a fixed-point-free involution and keeps no text: their arcs
are numbered 1..2n in the order of their lower darts when printed.
Every way in calls LinkDiagram(alpha, axes, text), whose __init__ is
the one place that sets a diagram's state.  Each reader first counts
the crossings its input would build, from the text or the word or tree
alone, and refuses more than MAX_CROSSINGS through within_budget.
Trees, pretzels and braid closures share one chain writer,
_twist_chain, which lays rows of crossings into a _Builder's dart map
by slot arithmetic.
"""

import json
import re
from array import array
from collections import Counter, namedtuple
from itertools import repeat

from ._planar import face_lists, strands, trace_faces
from .errors import (
    ArcCountMismatch,
    EmptyDiagram,
    InputTooLarge,
    InternalError,
    MalformedToken,
    NonSphericalEmbedding,
    _overlong,
)

_TOKEN = re.compile(r"X\[\d+,\d+,\d+,\d+\]")
# the same tokens as a whole text; possessive repeats keep no
# backtracking state per token
_TEXT = re.compile(r"\s*+(?:X\[\d++,\d++,\d++,\d++\](?:\s++|\Z))*+")
# in a checked text, everything but whitespace and labels is X [ , ];
# _ARRAY makes checked ASCII text a JSON array but for its brackets and
# last comma, JSON knowing only space, tab, CR and LF as whitespace
_ARRAY = str.maketrans("]\v\f\x1c\x1d\x1e\x1f", ",      ", "X[")

# a certification's peak is at most about 850 bytes per crossing (500
# in RSS on a 10^5-crossing tree path, 350 traced on PD or JSON input
# of 10^4 crossings, 840 on a 2 006-crossing cascade), so inputs at the
# budget stay under 1 GB
MAX_CROSSINGS = 1_000_000


def within_budget(count):
    """Raise InputTooLarge, naming count and the budget, when an input
    of count crossings is over MAX_CROSSINGS."""
    if count > MAX_CROSSINGS:
        raise InputTooLarge(
            f"input of {count} crossings is over the budget of "
            f"{MAX_CROSSINGS} crossings"
        )


class LinkDiagram:
    """Validated diagram with faces, components and corner lookups.

    Built by parse_pd, from_json, from_darts or mirror, which check the
    dart map that __init__ trusts.
    """

    def __init__(self, alpha, axes, text):
        """A diagram's state, checks and faces, for every way in; text
        is the checked PD text or JSON it was read from, else None."""
        self.axes = axes
        self._text = text
        self.arc_count = len(alpha) >> 1
        n = len(axes)
        if not n:
            raise EmptyDiagram("no crossings")
        self._components, k, bits = strands(alpha)
        if k != 1:
            raise NonSphericalEmbedding(f"projection splits into {k} pieces")
        corners, self.start, self.face_at = trace_faces(alpha)
        if len(self.start) != n + 3:
            raise NonSphericalEmbedding(
                f"{len(self.start) - 1} faces for {n} crossings"
            )
        if bits is None:
            raise InternalError("no checkerboard colouring along the strand")
        self.bits = bits
        # a mirror image's alpha is typed already, and shared
        self.alpha = alpha if type(alpha) is array else array("i", alpha)
        self.corners = array("i", corners)
        # filled on first use; twists: regions, reduction; criterion:
        # normal form
        self._regions = self._reduced = self._normal = None

    @classmethod
    def from_darts(cls, alpha, axes):
        """Diagram of the dart map alpha, a list over the 4n darts of n
        crossings with under_axis bits axes.  axes is kept, not copied;
        the diagram keeps alpha as an array('i') copy, so a caller that
        drops its own reference frees the list.
        """
        n = 4 * len(axes)
        if len(alpha) != n:
            raise InternalError(
                f"{len(alpha)} darts for {len(axes)} crossings"
            )
        for d, e in enumerate(alpha):
            if not 0 <= e < n or e == d or alpha[e] != d:
                raise InternalError(
                    f"dart map is not a fixed-point-free involution at {d}"
                )
        return cls(alpha, axes, None)

    # -- queries -----------------------------------------------------------

    def __len__(self):
        return len(self.axes)

    faces = property(face_lists)

    def component_count(self):
        """Number of link components: strands run through opposite slots."""
        return self._components

    def mirror(self):
        """Swap over and under strands at every crossing.  The mirror
        image shares alpha, which is never written to, and the text."""
        axes = [1 - a for a in self.axes]
        return type(self)(self.alpha, axes, self._text)

    # -- serialisation -----------------------------------------------------

    def _rows(self):
        """Four arc labels per crossing: the labels read again from the
        text, else arcs numbered 1..2n in the order of their lower darts."""
        labels = self._text and _read_labels(self._text)
        if labels is None:  # built from a dart map
            labels = [0] * len(self.alpha)
            arc = 0
            for d, e in enumerate(self.alpha):
                if d < e:
                    arc += 1
                    labels[d] = labels[e] = arc
        return [labels[d:d + 4] for d in range(0, len(labels), 4)]

    def to_pd(self):
        """PD text; crossings with under_axis 1 are rotated so a-c is under."""
        return " ".join([
            "X[%d,%d,%d,%d]" % tuple(s[1:] + s[:1] if ax else s)
            for s, ax in zip(self._rows(), self.axes)
        ])

    def to_json(self):
        return json.dumps(
            {"crossings": self._rows(), "under_axis": self.axes}
        )

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError:  # before ValueError, its base
            raise MalformedToken("bad diagram json: not JSON") from None
        except RecursionError:  # arrays nested deeper than the decoder follows
            raise MalformedToken("bad diagram json: nested too deep") from None
        except ValueError:  # an integer beyond the digit limit
            raise _overlong(MalformedToken, text) from None
        rows, axes = _json_lists(data)
        if len(rows) != len(axes):
            raise MalformedToken("crossings and under_axis lengths differ")
        within_budget(len(rows))
        labels = [a for row in rows for a in row]
        for ax in axes:
            if not isinstance(ax, int) or ax not in (0, 1):  # bools pass
                raise MalformedToken(f"under_axis {ax}")
        for ci, row in enumerate(rows):
            if len(row) != 4:
                _check_labels(labels[:4 * ci])  # a bad label is named first
                raise MalformedToken(f"crossing {ci} has {len(row)} slots")
        del data, rows  # before the faces are traced
        _check_labels(labels)
        alpha = _pair(labels)
        del labels
        return cls(alpha, axes, text)


def _json_lists(data):
    """The crossings and under_axis lists of decoded diagram JSON, each
    crossing a list; else MalformedToken naming the first that is not.
    The messages read nothing from the decoder, whose words and
    positions change between Python versions."""
    if type(data) is not dict:
        raise MalformedToken("bad diagram json: not an object")
    for key in ("crossings", "under_axis"):
        if type(data.get(key)) is not list:
            raise MalformedToken(f"bad diagram json: {key} is not a list")
    rows = data["crossings"]
    if not {list}.issuperset(map(type, rows)):
        ci = next(i for i, row in enumerate(rows) if type(row) is not list)
        raise MalformedToken(f"bad diagram json: crossing {ci} is not a list")
    return rows, data["under_axis"]


def parse_pd(text):
    """Parse whitespace separated X[a,b,c,d] tokens into a LinkDiagram."""
    k, valid = _syntax(text)
    within_budget(k)
    if not valid:
        bad = next(t for t in text.split() if not _TOKEN.fullmatch(t))
        raise MalformedToken(f"bad token {bad!r}")
    try:
        labels = _read_labels(text)
    except ValueError:  # a label beyond the digit limit
        raise _overlong(MalformedToken, text) from None
    alpha = _pair(labels)
    del labels  # before the faces are traced
    return LinkDiagram(alpha, [0] * (len(alpha) >> 2), text)


def _syntax(text):
    """(k, valid): the number of X[a,b,c,d] tokens in text, and whether
    text is those tokens with whitespace between them.  A text that
    matches holds an X only in its tokens, so counting them is cheap."""
    if _TEXT.fullmatch(text):
        return text.count("X"), True
    return sum(1 for _ in _TOKEN.finditer(text)), False


def _read_labels(text):
    """The flat label list of checked PD text or of diagram JSON, the
    only one of the two that starts with {.

    Checked ASCII text decodes as one JSON array, with a 0 after its
    last comma.  JSON refuses what else the check lets through (a label
    with a leading zero, and digits or whitespace beyond ASCII), which
    int reads label by label, split at the table's commas.
    """
    if text.lstrip()[:1] == "{":
        return [a for row in json.loads(text)["crossings"] for a in row]
    if text.isascii():
        try:
            labels = json.loads(f"[{text.translate(_ARRAY)}0]")
        except json.JSONDecodeError:  # before ValueError, its base
            pass
        else:
            labels.pop()
            return labels
    return list(map(int, text.translate(_ARRAY).replace(",", " ").split()))


def _check_labels(labels):
    """Raise on the first label that is not a positive int."""
    if labels and not (
        all(map(isinstance, labels, repeat(int))) and min(labels) >= 1
    ):
        bad = next(a for a in labels if not isinstance(a, int) or a < 1)
        raise MalformedToken(f"arc label {bad!r}")


def _pair(labels):
    """The dart map of a flat list of non-negative int labels, four per
    crossing; each label 1..m, for m = len(labels) / 2, must be used
    exactly twice, and label 0 is named before any other fault."""
    m = len(labels) >> 1
    if not labels or max(labels) <= m:
        first = [-1] * (m + 1)  # the first dart seen per label
        alpha = [-1] * len(labels)
        for d, a in enumerate(labels):
            e = first[a]
            if e < 0:
                first[a] = d
            else:
                alpha[d] = e
                alpha[e] = d
        # label 0 is unused and every label 1..m is used, none only once,
        # whose dart keeps -1; as there are 2m uses, each is used twice
        if first[0] < 0 and first.count(-1) == 1 and -1 not in alpha:
            return alpha
    if 0 in labels:  # the one label below 1 that digits spell
        raise MalformedToken("arc label 0")
    uses = Counter(labels)
    ordered = sorted(uses)
    bad = [a for a in ordered if uses[a] != 2]
    raise ArcCountMismatch(
        f"expected arcs 1..{m} twice each; "
        f"offending labels {bad or ordered}"
    )


# -- chain writer: dart maps for from_darts ----------------------------------

class _Builder:
    """Crossings and the joins between their ports, as one dart map,
    whose length gives the crossing count."""

    def __init__(self):
        self.alpha = []  # dart 4k + slot of crossing k -> its partner

    def join(self, a, b):
        self.alpha[a] = b
        self.alpha[b] = a

    def finish(self, t):
        """Close tangle t, NW to NE and SW to SE, into a diagram."""
        self.join(t.NW, t.NE)
        self.join(t.SW, t.SE)
        return self.build()

    def build(self):
        """The diagram of the dart map, which the builder gives up, so
        the list is freed once the diagram has typed it."""
        alpha, self.alpha = self.alpha, None
        return LinkDiagram.from_darts(alpha, [0] * (len(alpha) >> 2))


_Tangle = namedtuple("_Tangle", "NW NE SW SE")  # a chain's four free ports


def _twist_chain(b, axis, weight):
    """|weight| new crossings in a row along axis, each joined to the
    next; returns the chain's tangle.  A horizontal chain's twist region
    has the sign of weight as its handedness, a vertical chain's the
    opposite sign."""
    # the slots hold NW, SW, SE, NE counterclockwise when the NE-SW
    # diagonal passes over (positive weight), NE, NW, SW, SE when NW-SE does
    nw = 0 if weight > 0 else 1
    sw, se, ne = nw + 1, nw + 2, (nw + 3) & 3
    n = abs(weight)
    first = len(b.alpha)
    last = first + 4 * (n - 1)
    alpha = b.alpha
    alpha += [-1] * (4 * n)
    if axis == "h":  # NE and SE of each crossing meet NW and SW of the next
        for k in range(first, last, 4):
            alpha[k + ne] = k + 4 + nw
            alpha[k + 4 + nw] = k + ne
            alpha[k + se] = k + 4 + sw
            alpha[k + 4 + sw] = k + se
        return _Tangle(first + nw, last + ne, first + sw, last + se)
    for k in range(first, last, 4):  # SW and SE meet NW and NE of the next
        alpha[k + sw] = k + 4 + nw
        alpha[k + 4 + nw] = k + sw
        alpha[k + se] = k + 4 + ne
        alpha[k + 4 + ne] = k + se
    return _Tangle(first + nw, first + ne, last + sw, last + se)


def _compose(b, axis, a, t):
    if axis == "h":
        b.join(a.NE, t.NW)
        b.join(a.SE, t.SW)
        return _Tangle(a.NW, t.NE, a.SW, t.SE)
    b.join(a.SW, t.NW)
    b.join(a.SE, t.NE)
    return _Tangle(a.NW, a.NE, t.SW, t.SE)
