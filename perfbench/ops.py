"""One benchmark operation per input, and the references verdicts are
checked against.

An operation is the library path that `foliar corpus --crosscheck` and
the matching subcommand run for one input.  Library functions are
looked up on the `foliar` module at call time, so the traced run sees
them through its wrappers.
"""

from fractions import Fraction

CERTIFIED = "certified"


class Record:
    """What one operation produced: verdicts per route, or the error."""

    __slots__ = ("verdicts", "error", "failed", "diagram")

    def __init__(self):
        self.verdicts = {}  # route -> Verdict-like object
        self.error = None  # exception class name
        self.failed = False
        self.diagram = None

    def summary(self):
        """(status, reasons) per route and the error class, for the digest."""
        parts = [
            (route, _status(v), tuple(getattr(v, "reasons", ())))
            for route, v in sorted(self.verdicts.items())
        ]
        return parts, self.error


def _status(v):
    s = getattr(v, "status", None)
    if s is not None:
        return s.value
    return getattr(v, "outcome", repr(v))


def run(F, item):
    """Drive one input through the library; never raises."""
    rec = Record()
    try:
        if item.kind == "pd":
            d = F.parse_pd(item.text)
            rec.diagram = d
            rec.verdicts["main"] = F.check_main(d)
            rec.verdicts["tait"] = F.check_tait(d)
            circles = F.augment(d)
            rec.verdicts["plan"] = F.plan_configurations(circles)
        elif item.kind == "braid":
            w = F.parse_braid(item.text)
            rec.verdicts["braid"] = F.check_braid(w)
            d = F.braid_to_diagram(F.reduce_braid(w))
            rec.diagram = d
            rec.verdicts["main"] = F.check_main(d)
            rec.verdicts["tait"] = F.check_tait(d)
        elif item.kind == "tree":
            t = F.parse_tree(item.text)
            rec.verdicts["tree"] = F.check_arborescent(t)
            d = F.generate_diagram(t)
            rec.diagram = d
            rec.verdicts["main"] = F.check_main(d)
            rec.verdicts["tait"] = F.check_tait(d)
        else:
            slopes = [F.Slope.parse(s) for s in item.text.split()]
            rec.verdicts["borromean"] = F.classify_borromean(*slopes)
    except Exception as exc:  # one bad input must not end the run
        rec.error = type(exc).__name__
        rec.failed = not isinstance(exc, F.InputError)
    return rec


# -- references ----------------------------------------------------------------

def borromean_rule(texts):
    """README's sign rule, computed without the library."""
    finite = []
    for t in texts:
        if t == "inf":
            continue
        p, _, q = t.partition("/")
        finite.append(Fraction(int(p), int(q or 1)))
    has_zero = any(v == 0 for v in finite)
    if len(finite) < 3:
        return "out_of_scope" if has_zero else "lspace"
    if all(v >= 1 for v in finite) or all(v <= -1 for v in finite):
        return "lspace"
    return "taut_foliation"


def is_clean(F, d, main):
    """Neither cancellation nor merging fired on the main route.

    Read from the verdict when it records it; otherwise replay the
    normalisation steps through the public API.
    """
    detail = getattr(main, "detail", None) or {}
    if "reduced" in detail and "merged" in detail:
        return not (detail["reduced"] or detail["merged"])
    r = F.reduce_assumption1(d)
    dec = F.detect_twist_regions(r)
    cg = F.normalize_assumption2(F.collapse(r, dec))[0]
    return len(r) == len(d) and len(cg.vertices) == len(dec)


def known_defect(rule, rec):
    """True for a mismatch of a class the baseline already shows; see
    "Known defects" in NOTES.md."""
    v = rec.verdicts
    if rule == "tait_main":
        # a one-crossing twist region fails the main route while the
        # checkerboard route certifies
        return (
            v["tait"].status.value == CERTIFIED
            and v["main"].status.value == "fail"
            and any(r.startswith("WeightTooSmall(") and r.endswith(",count=1)")
                    for r in v["main"].reasons)
        )
    if rule == "braid_closure":
        # a syllable of exponent +-1 fails the word while the closure,
        # normalised, certifies
        return v["main"].status.value == CERTIFIED and any(
            r.endswith((",exp=1)", ",exp=-1)")) for r in v["braid"].reasons
        )
    return False


class References:
    """Checks verdicts against the rules each input falls under.

    Slow references (a second library call) are computed once per input
    and cached, outside the timed region; the caller suspends tracing.
    """

    def __init__(self, F):
        self.F = F
        self.reduced_status = {}

    def check(self, item, rec):
        """Return [(rule, agrees)] for every rule that applies."""
        v = rec.verdicts
        out = []
        main, tait = v.get("main"), v.get("tait")
        if main is not None and tait is not None:
            if self._clean(item, rec):
                out.append(("tait_main", main.status == tait.status))
        if main is not None and "tree" in v:
            f = item.facts
            if f["vertices"] > 1 and f["min_abs_weight"] >= 2:
                out.append(("tree_diagram", v["tree"].status == main.status))
        if main is not None and "braid" in v and (
            "Interleaving" not in v["braid"].reasons
        ):
            out.append((
                "braid_closure",
                (v["braid"].status.value == CERTIFIED)
                == (main.status.value == CERTIFIED),
            ))
        if main is not None and "word" in item.facts:
            ref = self._reduced_status(item)
            if ref is not None:
                out.append(("unreduced_closure", main.status.value == ref))
        if main is not None and "dk" in item.facts:
            out.append((
                "dk3",
                main.status.value == "excluded"
                and main.reasons in (("DkDiagram(3)",), ("DkDiagram(-3)",)),
            ))
        if "borromean" in v:
            out.append((
                "borromean_sign",
                v["borromean"].outcome == borromean_rule(item.text.split()),
            ))
        return out

    def _clean(self, item, rec):
        try:
            return is_clean(self.F, rec.diagram, rec.verdicts["main"])
        except Exception:  # the replay hit a defect: no reference
            return False

    def _reduced_status(self, item):
        if item.ident not in self.reduced_status:
            F = self.F
            facts = item.facts
            text = " ".join(f"s{g}^{e}" for g, e in facts["word"])
            try:
                w = F.reduce_braid(F.parse_braid(text, facts["n_strands"]))
                ref = F.check_main(F.braid_to_diagram(w)).status.value
            except Exception:  # no verdict to compare against
                ref = None
            self.reduced_status[item.ident] = ref
        return self.reduced_status[item.ident]
