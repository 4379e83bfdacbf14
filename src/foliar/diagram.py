"""Planar link diagrams from PD codes.

A diagram is a list of crossings; each crossing stores four arc labels
in counterclockwise order (slots 0..3) plus an under_axis bit telling
which opposite slot pair carries the strand passing underneath: 0 for
slots 0 and 2, 1 for slots 1 and 3.  Text PD codes X[a,b,c,d] always
mean the a-c strand goes under, so parsing yields under_axis 0
everywhere and mirroring just flips the bit.

Faces come from the rotation system, so the sphere embedding is implied
by the code itself and validated through the Euler count.
"""

import json
import re
from dataclasses import dataclass

from ._planar import faces_of
from .errors import (
    ArcCountMismatch,
    EmptyDiagram,
    MalformedToken,
    NonSphericalEmbedding,
)

_TOKEN = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


@dataclass(frozen=True)
class Crossing:
    slots: tuple
    under_axis: int = 0


class LinkDiagram:
    """Validated diagram with faces, components and corner lookups."""

    def __init__(self, crossings):
        crossings = tuple(crossings)  # callers pass lists; see faces_of
        if not crossings:
            raise EmptyDiagram("no crossings")
        for c in crossings:
            if c.under_axis not in (0, 1):
                raise MalformedToken(f"under_axis {c.under_axis}")
        self.crossings = crossings
        self._validate_arcs()
        self.alpha = self._build_alpha()
        self._validate_connected()
        self.faces, self.face_at = faces_of(4 * len(crossings), self.alpha)
        if len(self.faces) != len(crossings) + 2:
            raise NonSphericalEmbedding(
                f"{len(self.faces)} faces for {len(crossings)} crossings"
            )
        # filled on first use; twists: regions, reduction; criterion: normal form
        self._components = self._regions = self._reduced = self._normal = None

    # -- validation --------------------------------------------------------

    def _validate_arcs(self):
        seen = {}
        for ci, c in enumerate(self.crossings):
            if len(c.slots) != 4:
                raise MalformedToken(f"crossing {ci} has {len(c.slots)} slots")
            for a in c.slots:
                if not isinstance(a, int) or a < 1:
                    raise MalformedToken(f"arc label {a!r}")
                seen[a] = seen.get(a, 0) + 1
        n = len(self.crossings)
        labels = sorted(seen)
        if labels != list(range(1, 2 * n + 1)) or any(
            v != 2 for v in seen.values()
        ):
            bad = [a for a in labels if seen[a] != 2]
            raise ArcCountMismatch(
                f"expected arcs 1..{2 * n} twice each; offending labels {bad or labels}"
            )
        self.arc_count = 2 * n

    def _validate_connected(self):
        seen = bytearray(len(self.crossings))
        pieces = 0
        for root in range(len(seen)):
            pieces += not seen[root]
            stack = [root]
            while stack:
                ci = stack.pop()
                if not seen[ci]:
                    seen[ci] = 1
                    stack += [self.alpha[d] >> 2 for d in range(4 * ci, 4 * ci + 4)]
        if pieces != 1:
            raise NonSphericalEmbedding(f"projection splits into {pieces} pieces")

    def _build_alpha(self):
        ends = {}
        alpha = {}
        for ci, c in enumerate(self.crossings):
            for s, a in enumerate(c.slots):
                d = 4 * ci + s
                if a in ends:
                    e = ends.pop(a)
                    alpha[d] = e
                    alpha[e] = d
                else:
                    ends[a] = d
        return alpha

    # -- queries -----------------------------------------------------------

    def __len__(self):
        return len(self.crossings)

    def arc_at(self, ci, slot):
        return self.crossings[ci].slots[slot % 4]

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
        crossings.append(Crossing(tuple(int(g) for g in m.groups())))
    return LinkDiagram(crossings)


def relabel(slot_lists, axes):
    """Build a LinkDiagram from arbitrary hashable arc ids.

    Helper for programmatic constructions; ids are renumbered 1..2n in
    first-seen order.
    """
    order = {}
    out = []
    for slots in slot_lists:
        row = []
        for a in slots:
            if a not in order:
                order[a] = len(order) + 1
            row.append(order[a])
        out.append(tuple(row))
    return LinkDiagram(
        [Crossing(s, ax) for s, ax in zip(out, axes)]
    )
