"""Command line front end.

Every subcommand prints JSON on stdout.  Exit codes: 0 for any verdict
(including hypothesis failures), 1 for an internal error (a bug),
2 for unreadable or out-of-domain input, 3 when a cross-check between
independent routes disagrees.
"""

import argparse
import json
import os
import sys

from .arborescent import check_arborescent, generate_diagram, parse_tree
from .braids import braid_to_diagram, check_braid, parse_braid, reduce_braid
from .criterion import Status, check_main, diagnose, reshaped
from .diagram import LinkDiagram, parse_pd
from .errors import InputError, InternalError, Unsatisfiable
from .surgery import Slope, augment, classify_borromean, plan_configurations
from .tait import check_tait


def _read_diagram(text, path=None):
    if path:
        with open(path) as fh:
            text = fh.read()
    t = text.strip()
    if t.startswith("{"):
        return LinkDiagram.from_json(t)
    return parse_pd(t)


# dot file name -> main-route detail key of the graph written there
_DOT_FILES = {"collapsed": "collapsed", "side_green": "green", "side_red": "red"}


def _emit_dot(directory, detail):
    os.makedirs(directory, exist_ok=True)
    for name, key in _DOT_FILES.items():
        graph = detail.get(key)
        if graph is None:
            continue
        with open(os.path.join(directory, name + ".dot"), "w") as fh:
            fh.write(graph.to_dot() + "\n")


def _crosscheck(verdict, d, out):
    """Add the checkerboard route's status to out.

    Returns True when the routes disagree on an input that was not
    reshaped; on a reshaped input a disagreement only adds a note.
    """
    tv = check_tait(d)
    out["tait_status"] = tv.status.value
    if tv.status == verdict.status:
        return False
    if reshaped(verdict):
        out["note"] = (
            "routes differ after cancellation or merging reshaped the diagram"
        )
        return False
    return True


def cmd_check(args):
    d = _read_diagram(args.diagram, args.file)
    diagnosis = diagnose(d) if args.diagnose else None
    verdict = diagnosis.verdict if diagnosis else check_main(d)
    out = json.loads((diagnosis or verdict).to_json())
    mismatch = args.crosscheck and _crosscheck(verdict, d, out)
    if args.emit_dot:
        _emit_dot(args.emit_dot, verdict.detail)
    print(json.dumps(out))
    return 3 if mismatch else 0


def cmd_braid(args):
    word = parse_braid(args.word, args.strands)
    verdict = check_braid(word)
    out = json.loads(verdict.to_json())
    code = 0
    if args.diagram or args.crosscheck:
        try:
            d = braid_to_diagram(reduce_braid(word))
        except InputError as exc:
            out["diagram_error"] = str(exc)
            d = None
        if d is not None and args.diagram:
            out["pd"] = d.to_pd()
        if d is not None and args.crosscheck:
            mv = check_main(d)
            out["diagram_status"] = mv.status.value
            if (mv.status == Status.CERTIFIED) != (
                verdict.status == Status.CERTIFIED
            ):
                if "Interleaving" in verdict.reasons:
                    out["note"] = "word fails interleaving; closure judged on its own"
                else:
                    code = 3
    print(json.dumps(out))
    return code


def cmd_tree(args):
    tree = parse_tree(args.tree)
    verdict = check_arborescent(tree)
    out = json.loads(verdict.to_json())
    code = 0
    if args.diagram or args.crosscheck:
        d = generate_diagram(tree)
        if args.diagram:
            out["pd"] = d.to_pd()
        if args.crosscheck:
            mv = check_main(d)
            out["diagram_status"] = mv.status.value
            if len(tree) == 1:
                out["note"] = "single vertex: the closed twist chain is excluded"
            elif mv.status != verdict.status:
                code = 3
    print(json.dumps(out))
    return code


def cmd_borromean(args):
    slopes = [Slope.parse(s) for s in args.slopes]
    print(classify_borromean(*slopes).to_json())
    return 0


def cmd_augment(args):
    d = _read_diagram(args.diagram, args.file)
    circles = augment(d)
    out = {
        "circles": [
            {
                "region": c.region,
                "count": c.count,
                "parity": c.parity,
                "k": c.k,
                "coefficient": str(c.coefficient),
            }
            for c in circles
        ]
    }
    if args.plan:
        try:
            out["plan"] = json.loads(plan_configurations(circles).to_json())
        except Unsatisfiable as exc:
            out["plan"] = None
            out["unsatisfiable"] = str(exc)
    print(json.dumps(out))
    return 0


def _corpus_entry(path):
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".braid"):
        return check_braid(parse_braid(text)), None
    if path.endswith(".tree"):
        tree = parse_tree(text)
        return check_arborescent(tree), generate_diagram(tree)
    d = _read_diagram(text)
    return check_main(d), d


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
        try:
            verdict, d = _corpus_entry(path)
            row = {"file": base, "status": verdict.status.value,
                   "reasons": list(verdict.reasons)}
            if args.crosscheck and d is not None:
                if _crosscheck(verdict, d, row) and path.endswith(".pd"):
                    code = max(code, 3)
        except InputError as exc:
            print(json.dumps({"file": base, "error": str(exc)}))
            code = max(code, 2)
            continue
        except InternalError as exc:
            print(json.dumps({"file": base, "error": str(exc), "internal": True}))
            code = max(code, 1)
            continue
        counts[verdict.status.value] += 1
        print(json.dumps(row))
    print(json.dumps({"files": len(paths), **counts}))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="foliar",
        description="Certify diagrammatic conditions for persistent foliations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify a diagram from its PD code")
    p.add_argument("diagram", nargs="?", default="")
    p.add_argument("-f", "--file")
    p.add_argument("--diagnose", action="store_true")
    p.add_argument("--crosscheck", action="store_true")
    p.add_argument("--emit-dot", metavar="DIR")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("braid", help="certify a braid closure from its word")
    p.add_argument("word")
    p.add_argument("--strands", type=int)
    p.add_argument("--diagram", action="store_true")
    p.add_argument("--crosscheck", action="store_true")
    p.set_defaults(fn=cmd_braid)

    p = sub.add_parser("tree", help="certify a weighted planar tree")
    p.add_argument("tree")
    p.add_argument("--diagram", action="store_true")
    p.add_argument("--crosscheck", action="store_true")
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser(
        "borromean", help="classify surgery on the three-chain"
    )
    p.add_argument("slopes", nargs=3, metavar="SLOPE")
    p.set_defaults(fn=cmd_borromean)

    p = sub.add_parser("augment", help="crossing circles of a diagram")
    p.add_argument("diagram", nargs="?", default="")
    p.add_argument("-f", "--file")
    p.add_argument("--plan", action="store_true")
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("corpus", help="run every example in a directory")
    p.add_argument("directory")
    p.add_argument("--crosscheck", action="store_true")
    p.set_defaults(fn=cmd_corpus)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
