"""The certification pipeline for diagrams.

A diagram certifies when, after cancelling incoherent twists and
merging parallel side edges, it is a one-component diagram whose twist
regions all have at least two crossings, at least one region has three
or more, and both side graphs are connected (hence trees).  Diagrams
that normalise to a single twist region are the closed twist family
D_k and are excluded rather than failed: the criterion does not speak
about them.

Every route (the diagram's, the checkerboard graphs', a braid's and a
tree's) gives its verdict through judge, which reads the status off the
reasons: a verdict certifies exactly when no hypothesis fails, that is,
when it has no reasons, and is excluded when its one reason names the
closed twist family, DkDiagram(k).

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


def judge(reasons, green=(), red=(), regions=0, detail=None):
    """The verdict of a diagram, tree or braid whose hypotheses failed
    for reasons: certified exactly when there are none, and excluded
    when the first is DkDiagram(k), which is then the only one."""
    status = Status.CERTIFIED
    if reasons:
        dk = reasons[0].startswith("DkDiagram(")
        status = Status.EXCLUDED if dk else Status.HYPOTHESES_FAIL
    return Verdict(status, tuple(reasons), green, red, regions, detail or {})


def detect_dk(cg):
    """Signed twist count if the collapsed graph is a single region."""
    return cg.vertices[0] if len(cg.vertices) == 1 else None


def weight_reasons(weights, tag):
    """Reasons signed twist weights fail the twist hypothesis.

    Every weight needs |w| >= 2 and some weight |w| >= 3.  tag(i, w)
    describes the i-th weight in its reason; it is called only for the
    weights that fail.
    """
    sizes = list(map(abs, weights))
    reasons = [] if min(sizes, default=2) >= 2 else [
        f"WeightTooSmall({tag(i, w)})"
        for i, w in enumerate(weights)
        if abs(w) < 2
    ]
    if max(sizes, default=0) < 3:
        reasons.append("NoWeightAboveTwo")
    return reasons


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
        return judge([f"NotAKnot({comps})"])
    cg, green, red = normal_form(d)
    r = reduce_assumption1(d)  # kept by normal_form
    detail = {
        "reduced": r is not d,
        "merged": len(cg) != len(flat_regions(r)[0]),
    }
    k = detect_dk(cg)
    if k is not None:
        return judge(
            [f"DkDiagram({k})"], green.weights(), red.weights(), 1, detail
        )
    reasons = weight_reasons(
        cg.vertices, lambda i, w: f"region={i},count={abs(w)}"
    )
    rep = connectivity_report(green, red)
    if not rep.connected_green:
        reasons.append(f"Disconnected({green.color_name})")
    if not rep.connected_red:
        reasons.append(f"Disconnected({red.color_name})")
    return judge(
        reasons, green.weights(), red.weights(), len(cg.vertices), detail
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
