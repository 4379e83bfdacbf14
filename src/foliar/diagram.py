"""Planar link diagrams from PD codes.

A diagram is a list of crossings; each crossing stores four arc labels
in counterclockwise order (slots 0..3) plus an under_axis bit telling
which opposite slot pair carries the strand passing underneath: 0 for
slots 0 and 2, 1 for slots 1 and 3.  Text PD codes X[a,b,c,d] always
mean the a-c strand goes under, so parsing yields under_axis 0
everywhere and mirroring just flips the bit.

Faces come from the rotation system, so the sphere embedding is implied
by the code itself and validated through the Euler count.

Labelled input (PD text, JSON, a mirror image) goes through
LinkDiagram(crossings), which validates the labels and derives the dart
map alpha from them.  Constructions (trees, braid closures, type II
cancellation) hold a dart map already and build through
LinkDiagram.from_darts, which derives the labels from it instead; both
then share the connectivity and Euler checks.
"""

import json
import re
from collections import Counter
from dataclasses import dataclass

from ._planar import faces_of
from .errors import (
    ArcCountMismatch,
    EmptyDiagram,
    InternalError,
    MalformedToken,
    NonSphericalEmbedding,
)

_TOKEN = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


@dataclass(frozen=True)
class Crossing:
    slots: tuple
    under_axis: int = 0


class LinkDiagram:
    """Validated diagram with faces, components and corner lookups.

    LinkDiagram(crossings) validates labelled input; from_darts builds
    a diagram straight from the dart map a construction holds.
    """

    def __init__(self, crossings):
        crossings = tuple(crossings)  # callers pass lists; see faces_of
        for c in crossings:
            if c.under_axis not in (0, 1):
                raise MalformedToken(f"under_axis {c.under_axis}")
        self.crossings = crossings
        self._validate_arcs()
        self.alpha = self._build_alpha()
        self._finish()

    @classmethod
    def from_darts(cls, alpha, axes):
        """Diagram of the dart map alpha, a list over the 4n darts of n
        crossings with under_axis bits axes; alpha is kept, not copied.

        Arcs are labelled 1..2n in the order of their lower darts, the
        order in which a row-by-row reading of the slots first meets
        them.
        """
        n = 4 * len(axes)
        if len(alpha) != n:
            raise InternalError(
                f"{len(alpha)} darts for {len(axes)} crossings"
            )
        labels = [0] * n
        arc = 0
        for d, e in enumerate(alpha):
            if not 0 <= e < n or e == d or alpha[e] != d:
                raise InternalError(
                    f"dart map is not a fixed-point-free involution at {d}"
                )
            if d < e:
                arc += 1
                labels[d] = labels[e] = arc
        self = cls.__new__(cls)
        self.crossings = tuple([
            Crossing(tuple(labels[d:d + 4]), ax)
            for d, ax in zip(range(0, n, 4), axes)
        ])
        self.arc_count = arc
        self.alpha = alpha
        self._finish()
        return self

    def _finish(self):
        """Checks and faces shared by both constructors."""
        n = len(self.crossings)
        if not n:
            raise EmptyDiagram("no crossings")
        self._validate_connected()
        self.faces, self.face_at = faces_of(4 * n, self.alpha)
        if len(self.faces) != n + 2:
            raise NonSphericalEmbedding(
                f"{len(self.faces)} faces for {n} crossings"
            )
        # filled on first use; twists: regions, reduction; criterion: normal form
        self._components = self._regions = self._reduced = self._normal = None

    # -- validation --------------------------------------------------------

    def _validate_arcs(self):
        m = 2 * len(self.crossings)
        seen = [0] * (m + 1)  # uses per label up to m
        beyond = 0  # uses of labels above m
        for ci, c in enumerate(self.crossings):
            if len(c.slots) != 4:
                raise MalformedToken(f"crossing {ci} has {len(c.slots)} slots")
            for a in c.slots:
                if not isinstance(a, int) or a < 1:
                    raise MalformedToken(f"arc label {a!r}")
                if a <= m:
                    seen[a] += 1
                else:
                    beyond += 1
        if beyond or seen.count(2) != m:
            uses = Counter([a for c in self.crossings for a in c.slots])
            labels = sorted(uses)
            bad = [a for a in labels if uses[a] != 2]
            raise ArcCountMismatch(
                f"expected arcs 1..{m} twice each; "
                f"offending labels {bad or labels}"
            )
        self.arc_count = m

    def _validate_connected(self):
        alpha = self.alpha
        seen = bytearray(len(self.crossings))
        pieces = 0
        for root in range(len(seen)):
            if seen[root]:
                continue
            pieces += 1
            seen[root] = 1
            stack = [root]
            while stack:
                ci = stack.pop()
                for e in alpha[4 * ci:4 * ci + 4]:
                    if not seen[e >> 2]:
                        seen[e >> 2] = 1
                        stack.append(e >> 2)
        if pieces != 1:
            raise NonSphericalEmbedding(f"projection splits into {pieces} pieces")

    def _build_alpha(self):
        end = [-1] * (self.arc_count + 1)  # the first dart seen per label
        alpha = [-1] * (2 * self.arc_count)
        for ci, c in enumerate(self.crossings):
            for s, a in enumerate(c.slots):
                d = 4 * ci + s
                e = end[a]
                if e < 0:
                    end[a] = d
                else:
                    alpha[d] = e
                    alpha[e] = d
        return alpha

    # -- queries -----------------------------------------------------------

    def __len__(self):
        return len(self.crossings)

    def component_count(self):
        """Number of link components: strands run through opposite slots."""
        if self._components is None:
            seen = bytearray(len(self.alpha))
            count = 0
            for start in range(len(seen)):
                count += not seen[start]
                d = start
                while not seen[d]:  # along the strand, back to start
                    e = self.alpha[d]
                    seen[d] = seen[e] = 1
                    d = e ^ 2
            self._components = count
        return self._components

    def mirror(self):
        """Swap over and under strands at every crossing."""
        return LinkDiagram(
            [Crossing(c.slots, 1 - c.under_axis) for c in self.crossings]
        )

    # -- serialisation -----------------------------------------------------

    def to_pd(self):
        """PD text; crossings with under_axis 1 are rotated so a-c is under."""
        parts = []
        for c in self.crossings:
            s = c.slots if c.under_axis == 0 else c.slots[1:] + c.slots[:1]
            parts.append("X[%d,%d,%d,%d]" % s)
        return " ".join(parts)

    def to_json(self):
        return json.dumps(
            {
                "crossings": [list(c.slots) for c in self.crossings],
                "under_axis": [c.under_axis for c in self.crossings],
            }
        )

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
            slots = data["crossings"]
            axes = data["under_axis"]
            if len(slots) != len(axes):
                raise MalformedToken("crossings and under_axis lengths differ")
            # a row or list of the wrong type raises TypeError here
            crossings = [Crossing(tuple(s), ax) for s, ax in zip(slots, axes)]
        # RecursionError: arrays nested deeper than the decoder can follow
        except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
            raise MalformedToken(f"bad diagram json: {exc}") from None
        return cls(crossings)


def parse_pd(text):
    """Parse whitespace separated X[a,b,c,d] tokens into a LinkDiagram."""
    crossings = []
    for tok in text.split():
        m = _TOKEN.fullmatch(tok)
        if not m:
            raise MalformedToken(f"bad token {tok!r}")
        crossings.append(Crossing(tuple([int(g) for g in m.groups()])))
    return LinkDiagram(crossings)

