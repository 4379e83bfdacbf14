"""Command line front end.

Every subcommand prints JSON on stdout.  Exit codes: 0 for any verdict
(including hypothesis failures), 1 for an internal error (a bug; so is
recursion too deep for the interpreter), 2 for unreadable or
out-of-domain input, 3 when a cross-check between independent routes
disagrees.  `corpus` runs each file exactly as `check`, `braid` (without
--strands) or `tree` would, so a row's status, reasons and cross-check
keys are those the subcommand prints.
"""

import argparse
import json
import os
import sys

from .arborescent import check_arborescent, generate_diagram, parse_tree
from .braids import braid_to_diagram, check_braid, parse_braid, reduce_braid
from .criterion import Status, check_main, diagnose, normal_form, reshaped
from .diagram import LinkDiagram, parse_pd
from .errors import (
    InputError,
    InternalError,
    NonSphericalEmbedding,
    Unsatisfiable,
    read_int,
)
from .surgery import Slope, augment, classify_borromean, plan_configurations
from .tait import check_tait


def _read_file(path):
    """The text of path; a file that cannot be read as UTF-8 is bad input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:  # its message names the path
        raise InputError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def _read_diagram(text):
    t = text.strip()
    if t.startswith("{"):
        return LinkDiagram.from_json(t)
    return parse_pd(t)


def _emit_dot(directory, d):
    """Write the normal form of a knot diagram; a link has none to show."""
    os.makedirs(directory, exist_ok=True)
    if d.component_count() != 1:
        return
    names = ("collapsed", "side_green", "side_red")
    for name, graph in zip(names, normal_form(d)):
        with open(os.path.join(directory, name + ".dot"), "w") as fh:
            fh.write(graph.to_dot() + "\n")


def _closure(word, out):
    """The reduced word's closure, or None with diagram_error if it splits."""
    try:
        return braid_to_diagram(reduce_braid(word))
    except NonSphericalEmbedding as exc:
        out["diagram_error"] = str(exc)
        return None


# the reasons that excuse a braid or a tree from agreeing with its
# diagram: the closed twist chain, which the diagram route excludes; a
# weight below 2, which normalisation may cancel or merge away; and
# syllables that need not be the closure's twist regions
_EXCUSES = ("SingleVertex", "WeightTooSmall(", "Interleaving",
            "EvenStrandCount")


def _certify(kind, text, strands=None):
    """(verdict, diagram, must_agree) for one check, braid or tree input;
    diagram(out) builds what the second route judges: the diagram itself,
    a braid's closure (None if it splits, with diagram_error in out) or
    the tree's generated diagram."""
    if kind == "check":
        d = _read_diagram(text)
        verdict = check_main(d)
        return verdict, lambda out: d, not reshaped(verdict)
    if kind == "braid":
        word = parse_braid(text, strands)
        verdict, diagram = check_braid(word), lambda out: _closure(word, out)
    else:
        tree = parse_tree(text)
        verdict = check_arborescent(tree)
        diagram = lambda out: generate_diagram(tree)
    excused = any(r.startswith(_EXCUSES) for r in verdict.reasons)
    return verdict, diagram, not excused


# why a kind's routes may disagree where they need not agree
_NOTES = {
    "check": "routes differ after cancellation or merging reshaped the diagram",
    "braid": "word fails interleaving, has an even strand count or an "
    "exponent below 2; closure judged on its own",
    "tree": "single vertex or a weight below 2; diagram judged on its own",
}


def _crosscheck(kind, verdict, d, must_agree, out):
    """Add the second route's status to out: the checkerboard route's for
    a diagram, the pipeline's on d otherwise (for a braid, certification
    is compared).  True when the routes disagree where they must agree."""
    if d is None:  # the closure split; out holds why
        return False
    route, key = ((check_tait, "tait_status") if kind == "check"
                  else (check_main, "diagram_status"))
    ours, theirs = verdict.status, route(d).status
    out[key] = theirs.value
    if kind == "braid":
        ours, theirs = ours == Status.CERTIFIED, theirs == Status.CERTIFIED
    if ours != theirs and not must_agree:
        out["note"] = _NOTES[kind]
    return ours != theirs and must_agree


def _strand_count(text):
    """--strands, read by the one rule for integers in input."""
    n = read_int(text.strip(), argparse.ArgumentTypeError)
    if n is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return n


def cmd_certify(args):
    """check, braid and tree: judge the input, then its second route."""
    text = _read_file(args.file) if args.file else args.text
    verdict, diagram, must_agree = _certify(args.command, text, args.strands)
    out = json.loads(verdict.to_json())
    wanted = args.command == "check" or args.diagram or args.crosscheck
    d = diagram(out) if wanted else None
    if args.diagnose:
        out = json.loads(diagnose(d).to_json())
    if d is not None and args.diagram:
        out["pd"] = d.to_pd()
    mismatch = args.crosscheck and _crosscheck(
        args.command, verdict, d, must_agree, out
    )
    if args.emit_dot:
        _emit_dot(args.emit_dot, d)
    print(json.dumps(out))
    return 3 if mismatch else 0


def cmd_borromean(args):
    slopes = [Slope.parse(s) for s in args.slopes]
    print(classify_borromean(*slopes).to_json())
    return 0


def cmd_augment(args):
    text = _read_file(args.file) if args.file else args.text
    circles = augment(_read_diagram(text))
    out = {"circles": [
        {"region": c.region, "count": c.count, "parity": c.count % 2,
         "k": c.k, "coefficient": str(c.coefficient)}
        for c in circles
    ]}
    if args.plan:
        try:
            out["plan"] = json.loads(plan_configurations(circles).to_json())
        except Unsatisfiable as exc:
            out["plan"] = None
            out["unsatisfiable"] = str(exc)
    print(json.dumps(out))
    return 0


def cmd_corpus(args):
    if not os.path.isdir(args.directory):
        raise InputError(f"{args.directory} is not a directory")
    paths = sorted(
        os.path.join(args.directory, f)
        for f in os.listdir(args.directory)
        if f.endswith((".pd", ".braid", ".tree"))
    )
    counts = {s.value: 0 for s in Status}
    code = 0
    for path in paths:
        base = os.path.basename(path)
        kind = ("braid" if path.endswith(".braid")
                else "tree" if path.endswith(".tree") else "check")
        try:
            verdict, diagram, must_agree = _certify(kind, _read_file(path))
            row = {"file": base, "status": verdict.status.value,
                   "reasons": list(verdict.reasons)}
            if args.crosscheck and _crosscheck(
                kind, verdict, diagram(row), must_agree, row
            ):
                code = max(code, 3)
        except InputError as exc:
            print(json.dumps({"file": base, "error": str(exc)}))
            code = max(code, 2)
        except (InternalError, RecursionError) as exc:
            print(json.dumps({"file": base, "error": str(exc), "internal": True}))
            code = max(code, 1)
        else:
            counts[verdict.status.value] += 1
            print(json.dumps(row))
    print(json.dumps({"files": len(paths), **counts}))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="foliar",
        description="Certify diagrammatic conditions for persistent foliations",
    )
    # what cmd_certify reads of a flag its subcommand lacks
    ap.set_defaults(file=None, strands=None, diagram=False, diagnose=False,
                    emit_dot=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify a diagram from its PD code")
    p.add_argument("text", nargs="?", default="", metavar="diagram")
    p.add_argument("-f", "--file")
    p.add_argument("--diagnose", action="store_true")
    p.add_argument("--crosscheck", action="store_true")
    p.add_argument("--emit-dot", metavar="DIR")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("braid", help="certify a braid closure from its word")
    p.add_argument("text", metavar="word")
    p.add_argument("--strands", type=_strand_count)
    p.add_argument("--diagram", action="store_true")
    p.add_argument("--crosscheck", action="store_true")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("tree", help="certify a weighted planar tree")
    p.add_argument("text", metavar="tree")
    p.add_argument("--diagram", action="store_true")
    p.add_argument("--crosscheck", action="store_true")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser(
        "borromean", help="classify surgery on the three-chain"
    )
    p.add_argument("slopes", nargs=3, metavar="SLOPE")
    p.set_defaults(fn=cmd_borromean)

    p = sub.add_parser("augment", help="crossing circles of a diagram")
    p.add_argument("text", nargs="?", default="", metavar="diagram")
    p.add_argument("-f", "--file")
    p.add_argument("--plan", action="store_true")
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("corpus", help="run every example in a directory")
    p.add_argument("directory")
    p.add_argument("--crosscheck", action="store_true")
    p.set_defaults(fn=cmd_corpus)

    argv = sys.argv[1:] if argv is None else list(argv)
    # a slope such as -1/2 reads as an unknown option unless the three
    # slopes are marked positional
    if argv[:1] == ["borromean"] and not {"-h", "--help", "--"} & set(argv):
        argv.insert(1, "--")
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, RecursionError) as exc:
        # a recursion too deep for the interpreter is a bug, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
