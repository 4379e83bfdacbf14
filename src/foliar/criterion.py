"""The certification pipeline for diagrams.

A diagram certifies when, after cancelling incoherent twists and
merging parallel side edges, it is a one-component diagram whose twist
regions all have at least two crossings, at least one region has three
or more, and both side graphs are connected (hence trees).  Diagrams
that normalise to a single twist region are the closed twist family
D_k and are excluded rather than failed: the criterion does not speak
about them.

The normal form, the collapsed graph and both side graphs after
cancellation and merging, is kept on the diagram: check_main, diagnose,
augment, the dot output and tree validation all read it from there,
and each side graph counts its components once.  check_main reads
region counts off the diagrams' flat region lists and builds no region
record; a link fails before any region is read.
"""

import json
from dataclasses import dataclass, field
from enum import Enum

from .sidegraphs import connectivity_report, normalize_assumption2
from .twists import collapse, flat_regions, reduce_assumption1


class Status(Enum):
    CERTIFIED = "certified"
    HYPOTHESES_FAIL = "fail"
    EXCLUDED = "excluded"


@dataclass
class Verdict:
    status: Status
    reasons: tuple
    weights_green: tuple = ()
    weights_red: tuple = ()
    twist_regions: int = 0
    detail: dict = field(default_factory=dict, repr=False, compare=False)

    def to_json(self):
        return json.dumps(
            {
                "status": self.status.value,
                "reasons": list(self.reasons),
                "weights_g": list(self.weights_green),
                "weights_r": list(self.weights_red),
                "twist_regions": self.twist_regions,
            }
        )


def detect_dk(cg):
    """Signed twist count if the collapsed graph is a single region."""
    return cg.vertices[0] if len(cg.vertices) == 1 else None


def weight_reasons(weights, tag):
    """Reasons signed twist weights fail the twist hypothesis.

    Every weight needs |w| >= 2 and some weight |w| >= 3.  tag(i, w)
    describes the i-th weight in its reason; it is called only for the
    weights that fail.
    """
    reasons = [
        f"WeightTooSmall({tag(i, w)})"
        for i, w in enumerate(weights)
        if abs(w) < 2
    ]
    if not any(abs(w) >= 3 for w in weights):
        reasons.append("NoWeightAboveTwo")
    return reasons


def tree_must_agree(weights):
    """Whether a weighted tree's status must equal its diagram's.

    A single vertex is the closed twist chain, which the diagram route
    excludes, and a weight with |w| < 2 fails the tree while the diagram
    route may cancel or merge it away.
    """
    return len(weights) > 1 and all(abs(w) >= 2 for w in weights)


def braid_must_agree(exponents, interleaves):
    """Whether a braid word must be certified exactly when its closure is.

    Without interleaving the syllables need not be the closure's twist
    regions, and an exponent with |e| < 2 fails the word while the
    closure's normalisation may cancel or merge it away.
    """
    return interleaves and all(abs(e) >= 2 for e in exponents)


def reshaped(verdict):
    """Whether cancellation or merging changed the diagram on the main route.

    Only verdicts on inputs that were not reshaped must agree with the
    checkerboard route.
    """
    return bool(verdict.detail.get("reduced") or verdict.detail.get("merged"))


def normal_form(d):
    """(collapsed graph, green, red) of d after cancellation and merging."""
    if d._normal is None:
        d._normal = normalize_assumption2(collapse(reduce_assumption1(d)))
    return d._normal


def check_main(d):
    comps = d.component_count()
    if comps != 1:
        return Verdict(Status.HYPOTHESES_FAIL, (f"NotAKnot({comps})",))
    cg, green, red = normal_form(d)
    r = d if d._reduced is None else d._reduced  # kept by normal_form
    detail = {
        "reduced": r is not d,
        "merged": len(cg) != len(flat_regions(r)[0]),
    }
    k = detect_dk(cg)
    if k is not None:
        return Verdict(
            Status.EXCLUDED,
            (f"DkDiagram({k})",),
            green.weights(),
            red.weights(),
            1,
            detail,
        )
    reasons = weight_reasons(
        cg.vertices, lambda i, w: f"region={i},count={abs(w)}"
    )
    rep = connectivity_report(green, red)
    if not rep.connected_green:
        reasons.append(f"Disconnected({green.color_name})")
    if not rep.connected_red:
        reasons.append(f"Disconnected({red.color_name})")
    status = Status.CERTIFIED if not reasons else Status.HYPOTHESES_FAIL
    return Verdict(
        status,
        tuple(reasons),
        green.weights(),
        red.weights(),
        len(cg.vertices),
        detail,
    )


@dataclass
class Diagnosis:
    branch: str
    surfaces: int
    twist_counts: tuple
    borromean_family: bool
    verdict: Verdict

    def to_json(self):
        return json.dumps(
            {
                "branch": self.branch,
                "surfaces": self.surfaces,
                "twist_counts": list(self.twist_counts),
                "borromean_family": self.borromean_family,
                "verdict": json.loads(self.verdict.to_json()),
            }
        )


# construction by the number of regions left after normalising
_BRANCHES = {1: "closed_twist", 2: "two_crossing_circles"}


def diagnose(d):
    """Describe which construction applies and how many surfaces it yields.

    The count is the number of faces of the normalised collapsed graph:
    each face carries one branched-surface sector in the construction
    the certificate rests on.
    """
    verdict = check_main(d)
    if d.component_count() != 1:
        return Diagnosis("none", 0, (), False, verdict)
    cg = normal_form(d)[0]
    counts = tuple([abs(w) for w in cg.vertices])
    nv = len(cg.vertices)
    branch = _BRANCHES.get(nv, "main_construction")
    borromean = nv == 2 and all(c % 2 == 0 for c in counts)
    return Diagnosis(branch, len(cg.start) - 1, counts, borromean, verdict)
