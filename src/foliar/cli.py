"""Command line front end.

Every subcommand prints JSON on stdout.  Exit codes: 0 for any verdict
(including hypothesis failures), 1 for an internal error (a bug; so is
recursion too deep for the interpreter), 2 for unreadable or
out-of-domain input, 3 when a cross-check between independent routes
disagrees.
"""

import argparse
import json
import os
import sys

from .arborescent import check_arborescent, generate_diagram, parse_tree
from .braids import braid_to_diagram, check_braid, parse_braid, reduce_braid
from .criterion import (
    Status,
    braid_must_agree,
    check_main,
    diagnose,
    normal_form,
    reshaped,
    tree_must_agree,
)
from .diagram import LinkDiagram, parse_pd
from .errors import (
    EmptyWord,
    InputError,
    InternalError,
    NonSphericalEmbedding,
    Unsatisfiable,
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


def _read_diagram(text, path=None):
    if path:
        text = _read_file(path)
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


def _pd_crosscheck(verdict, d, out):
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


def _closure(word, out):
    """The reduced word's closure, or None with the reason in out if the
    word reduces to the identity or the closure splits; others raise."""
    try:
        return braid_to_diagram(reduce_braid(word))
    except (EmptyWord, NonSphericalEmbedding) as exc:
        out["diagram_error"] = str(exc)
        return None


def _braid_crosscheck(verdict, word, d, out):
    """Add the closure's status to out; True on an unexplained disagreement."""
    if d is None:
        return False
    mv = check_main(d)
    out["diagram_status"] = mv.status.value
    if (mv.status == Status.CERTIFIED) == (verdict.status == Status.CERTIFIED):
        return False
    exponents = [s.exp for s in reduce_braid(word).syllables]
    if not braid_must_agree(exponents, "Interleaving" not in verdict.reasons):
        out["note"] = (
            "word fails interleaving or has an exponent below 2; "
            "closure judged on its own"
        )
        return False
    return True


def _tree_crosscheck(verdict, tree, d, out):
    """Add the generated diagram's status to out; True if they disagree."""
    mv = check_main(d)
    out["diagram_status"] = mv.status.value
    if mv.status == verdict.status:
        return False
    if not tree_must_agree(tree.weights()):
        out["note"] = (
            "single vertex or a weight below 2; diagram judged on its own"
        )
        return False
    return True


def cmd_check(args):
    d = _read_diagram(args.diagram, args.file)
    diagnosis = diagnose(d) if args.diagnose else None
    verdict = diagnosis.verdict if diagnosis else check_main(d)
    out = json.loads((diagnosis or verdict).to_json())
    mismatch = args.crosscheck and _pd_crosscheck(verdict, d, out)
    if args.emit_dot:
        _emit_dot(args.emit_dot, d)
    print(json.dumps(out))
    return 3 if mismatch else 0


def cmd_braid(args):
    word = parse_braid(args.word, args.strands)
    verdict = check_braid(word)
    out = json.loads(verdict.to_json())
    d = _closure(word, out) if args.diagram or args.crosscheck else None
    if d is not None and args.diagram:
        out["pd"] = d.to_pd()
    mismatch = args.crosscheck and _braid_crosscheck(verdict, word, d, out)
    print(json.dumps(out))
    return 3 if mismatch else 0


def cmd_tree(args):
    tree = parse_tree(args.tree)
    verdict = check_arborescent(tree)
    out = json.loads(verdict.to_json())
    d = generate_diagram(tree) if args.diagram or args.crosscheck else None
    if args.diagram:
        out["pd"] = d.to_pd()
    mismatch = args.crosscheck and _tree_crosscheck(verdict, tree, d, out)
    print(json.dumps(out))
    return 3 if mismatch else 0


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
                "parity": c.count % 2,
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
    """The verdict on one file and its kind's cross-check, run on demand."""
    text = _read_file(path)
    if path.endswith(".braid"):
        word = parse_braid(text)
        verdict = check_braid(word)
        return verdict, lambda out: _braid_crosscheck(
            verdict, word, _closure(word, out), out
        )
    if path.endswith(".tree"):
        tree = parse_tree(text)
        verdict = check_arborescent(tree)
        return verdict, lambda out: _tree_crosscheck(
            verdict, tree, generate_diagram(tree), out
        )
    d = _read_diagram(text)
    verdict = check_main(d)
    return verdict, lambda out: _pd_crosscheck(verdict, d, out)


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
            verdict, crosscheck = _corpus_entry(path)
            row = {"file": base, "status": verdict.status.value,
                   "reasons": list(verdict.reasons)}
            if args.crosscheck and crosscheck(row):
                code = max(code, 3)
        except InputError as exc:
            print(json.dumps({"file": base, "error": str(exc)}))
            code = max(code, 2)
            continue
        except (InternalError, RecursionError) as exc:
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
