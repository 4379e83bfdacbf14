"""Benchmark of the foliar library: one workload, one seed, one process.

    python3 perfbench/run.py --workload corpus|large|reshape --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated
from the seed, then driven through the public API of the `foliar`
package under src/ as a closed loop with one client.  With --trace 0
the run prints the end-to-end metrics; with --trace 1 it wraps each
layer's public functions and prints per-layer metrics instead.  Human
readable lines come first; the last line is one JSON object.  See
NOTES.md for the workloads, metrics and known defects.
"""

import sys

# every import compiles from source and nothing is written beside it,
# so set-up time does not depend on what earlier runs left behind
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import gen  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPEATS = 9
# Seconds one pass over each workload took at the baseline (2-core x86
# container, CPython 3.11).  A run makes round(--seconds / this) passes,
# so for given arguments the measured work is the same on every commit.
PASS_SECONDS = {"corpus": 2.0, "large": 11.0, "reshape": 6.0}
TAIL_BEYOND = 10
INF = math.inf

# The machine is shared: other tenants slow it down by 10-30 % for tens
# of seconds at a time, more than the differences between commits this
# benchmark must resolve.  A fixed pure-Python kernel, timed between
# operations every CALIBRATE_EVERY_S of timed work, measures that
# slowdown, and every time measured in a pass is scaled to the kernel's
# reference time: factor = REFERENCE_KERNEL_S / (10th percentile of the
# kernel during that pass).
REFERENCE_KERNEL_S = 0.001
CALIBRATE_EVERY_S = 0.05


def kernel():
    table = {}
    for i in range(3000):
        table[(i * 7919) % 3001] = [i, i + 1]
    ranked = sorted(table.items(), key=lambda kv: kv[1][0] ^ 5)
    return len("".join(str(k) for k, _ in ranked[:500]))


class Speed:
    """Kernel timings taken through the run."""

    def __init__(self):
        self.samples = []
        self.factors = []
        self.work = INF  # timed work since the last sample

    def tick(self, elapsed):
        """Count `elapsed` seconds of work; sample the kernel when due."""
        self.work += elapsed
        if self.work >= CALIBRATE_EVERY_S:
            self.sample()

    def sample(self):
        """Time the kernel once warm: the first run refills the caches
        the operations evicted."""
        gc.disable()  # a collection would time the heap, not the CPU
        kernel()
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        gc.enable()
        self.work = 0.0

    def factor(self, start=0):
        """Multiply a time measured since sample `start` by this to get
        a reference time."""
        if start == len(self.samples):
            self.sample()
        recent = sorted(self.samples[start:])
        self.factors.append(REFERENCE_KERNEL_S / recent[len(recent) // 10])
        return self.factors[-1]


def import_foliar():
    for name in [n for n in sys.modules if n.split(".")[0] == "foliar"]:
        del sys.modules[name]
    return importlib.import_module("foliar")


def inputs_digest(items):
    h = hashlib.sha256()
    for it in items:
        h.update(f"{it.ident}\t{it.kind}\t{it.text}\n".encode())
    return h.hexdigest()


def setup(workload, seed):
    """Import foliar and generate the inputs, SETUP_REPEATS times.

    Returns the last import, the inputs, the median set-up time scaled
    by a speed factor sampled between repeats, and the digest of the
    inputs, which must not differ between repeats.
    """
    times, digests = [], set()
    speed = Speed()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        speed.sample()
        start = time.perf_counter()
        F = import_foliar()
        items = gen.WORKLOADS[workload](seed)
        times.append(time.perf_counter() - start)
        digests.add(inputs_digest(items))
    if len(digests) != 1:
        sys.exit("one seed generated two different input sets")
    origin = os.path.abspath(F.__file__)
    if not origin.startswith(SRC + os.sep):
        sys.exit(f"foliar was imported from {origin}, not from {SRC}")
    return F, items, statistics.median(times) * speed.factor(), digests.pop()


class Outcomes:
    """How every input ended on one pass: errors, references, digest."""

    def __init__(self, F):
        self.refs = ops.References(F)
        self.errors = Counter()
        self.failed = 0
        self.with_ref = 0
        self.mismatched = 0
        self.mismatches = Counter()  # (rule, known defect) -> count
        self.digest = hashlib.sha256()

    def add(self, item, rec):
        self.failed += rec.failed
        if rec.error is not None:
            self.errors[rec.error] += 1
        checks = self.refs.check(item, rec)
        self.with_ref += bool(checks)
        self.mismatched += not all(agrees for _, agrees in checks)
        for rule, agrees in checks:
            if not agrees:
                self.mismatches[(rule, ops.known_defect(rule, rec))] += 1
        routes, error = rec.summary()
        self.digest.update(json.dumps([item.ident, routes, error]).encode())

    def correct(self):
        """No verdict contradicts a reference, apart from the mismatch
        classes NOTES.md lists as known defects."""
        return not any(n for (_, known), n in self.mismatches.items()
                       if not known)


def measure(F, items, passes, speed, outcomes=None, tracer=None,
            per_op=None):
    """Run every input `passes` times in order, timing each operation.

    Returns (best, failed): per input, its fastest pass in seconds,
    each pass scaled by the speed factor measured during it, and
    whether it failed.  Reference checks and `per_op` run outside the
    timed region.
    """
    clock = time.perf_counter
    best = [INF] * len(items)
    failed = [False] * len(items)
    for p in range(passes):
        mark = len(speed.samples)
        times = []
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.op = p * len(items) + i
            start = clock()
            rec = ops.run(F, item)
            elapsed = clock() - start
            speed.tick(elapsed)
            times.append(elapsed)
            failed[i] = rec.failed
            if p == 0 and outcomes is not None:
                outcomes.add(item, rec)
            if per_op is not None:
                per_op(p, item, rec)
        factor = speed.factor(mark)
        best = [min(b, t * factor) for b, t in zip(best, times)]
    return best, failed


def throughput(best, failed):
    """Operations that ended in a verdict or an InputError, per second
    of the timed wall time of all operations."""
    return failed.count(False) / sum(best)


def tail(values):
    """(value, percentile, samples): the highest percentile that has
    TAIL_BEYOND samples beyond it."""
    s = sorted(values)
    rank = len(s) - TAIL_BEYOND
    if rank < 1:
        sys.exit(f"{len(s)} samples are too few for a tail")
    return s[rank - 1], 100.0 * rank / len(s), len(s)


def emit(metrics, attempted, failed):
    """Print `name = value unit (note)` lines; return the JSON fields."""
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }


def end_to_end(F, items, passes, outcomes, setup_s):
    speed = Speed()
    best, failed = measure(F, items, passes, speed, outcomes)
    print(f"speed factor per pass = {min(speed.factors):.4f} to "
          f"{max(speed.factors):.4f} ({len(speed.samples)} kernel samples)")
    latencies = sorted(INF if f else t for t, f in zip(best, failed))
    p50 = latencies[math.ceil(len(latencies) / 2) - 1]
    tail_s, tail_pct, tail_n = tail([t for t in latencies if t != INF])
    inf_s, inf_pct, inf_n = tail(latencies)
    n = len(items)
    failed_share = outcomes.failed / n
    mismatch_share = outcomes.mismatched / max(1, outcomes.with_ref)
    print(f"failed_share = {failed_share:.6f} ratio "
          f"({outcomes.failed} of {n})")
    print(f"mismatch_share = {mismatch_share:.6f} ratio "
          f"({outcomes.mismatched} of {outcomes.with_ref} with a reference)")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return emit({
        "ops_per_s": (throughput(best, failed), "op/s",
                      f"{n} inputs, {sum(best):.3f} s timed"),
        "latency_p50_ms": (p50 * 1000, "ms",
                           f"median of {n}, failures as +inf"),
        "latency_tail_ms": (tail_s * 1000, "ms",
                            f"p{tail_pct:.2f} of {tail_n} completed; with "
                            f"failures as +inf p{inf_pct:.2f} of {inf_n} "
                            f"is {inf_s * 1000:.6g}"),
        "completed_share": (1 - failed_share, "ratio", "1 - failed_share"),
        "agreed_share": (1 - mismatch_share, "ratio", "1 - mismatch_share"),
        "setup_s": (setup_s, "s",
                    f"median of {SETUP_REPEATS} imports plus generations"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of this process"),
    }, passes * n, passes * failed.count(True))


def traced_run(F, items, passes, outcomes, workload, seed):
    """Untraced passes, then as many traced passes; per-layer metrics
    are per pass, so they do not depend on the pass count."""
    half = max(1, passes // 2)
    plain_speed, traced_speed = Speed(), Speed()
    plain = measure(F, items, half, plain_speed, outcomes)
    tracer = tracing.Tracer()
    tracer.install(F)
    per_pass = []  # cumulative (calls, counters) after each pass
    cancelled_by_op = {}
    seen = [0]  # crossings cancelled before the current operation

    def per_op(p, item, rec):
        total = tracer.counters["twists.crossings_cancelled"]
        if p == 0:
            cancelled_by_op[item.ident] = total - seen[0]
            seen[0] = total
        if item is items[-1]:
            per_pass.append((list(tracer.calls), dict(tracer.counters)))

    traced = measure(F, items, half, traced_speed, tracer=tracer,
                     per_op=per_op)
    calls, counters = per_pass[0]
    for (c, k), (c0, k0) in zip(per_pass[1:], per_pass):
        if [a - b for a, b in zip(c, c0)] != calls or any(
            k[x] - k0[x] != counters[x] for x in counters
        ):
            sys.exit("traced counts differ between identical passes")
    counters["sidegraphs.merge_steps"] = merge_steps(tracer) // half
    check_invariants(workload, items, counters, cancelled_by_op)

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    spans_path = os.path.join(out, f"spans-{workload}-{seed}.tsv.gz")
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to "
          f"{os.path.relpath(spans_path)}")

    factor = traced_speed.factor()  # over the whole traced phase
    metrics = {}
    for i, name in enumerate(tracer.names):
        metrics[f"{name}.calls"] = (calls[i], "count", "per pass")
        metrics[f"{name}.self_s"] = (tracer.self_s[i] * factor / half, "s",
                                     "per pass, scaled")
    for name, value in counters.items():
        metrics[name] = (value, "count", "per pass")
    idx = {name: i for i, name in enumerate(tracer.names)}
    for name, num, base, unit, base_name in (
        ("diagram.builds_per_op", calls[idx["diagram.LinkDiagram"]],
         len(items), "builds/op", "operations"),
        ("twists.detect_per_cancellation",
         calls[idx["twists.detect_twist_regions"]],
         counters["twists.crossings_cancelled"] // 2,
         "calls/cancel", "type-II cancellations"),
        ("sidegraphs.side_builds_per_merge",
         calls[idx["sidegraphs.build_side_graphs"]],
         counters["sidegraphs.regions_merged"],
         "builds/region", "regions merged"),
    ):
        metrics[name] = (num / base if base else 0.0, unit,
                         f"{num} over a base of {base} {base_name}")
    slowdown = throughput(*plain) / throughput(*traced)
    metrics["trace.slowdown"] = (
        slowdown, "ratio", "untraced ops_per_s over traced ops_per_s"
    )
    return emit(metrics, 2 * half * len(items),
                half * (plain[1].count(True) + traced[1].count(True)))


def merge_steps(tracer):
    """Parallel families merged, counting those inside calls that then
    raised: each normalize_assumption2 call builds side graphs once,
    plus once more per merge it completes."""
    norm = tracer.names.index("sidegraphs.normalize_assumption2")
    build = tracer.names.index("sidegraphs.build_side_graphs")
    spans = tracer.spans
    nested = sum(1 for s in spans if s[0] == build and s[3] >= 0
                 and spans[s[3]][0] == norm)
    return nested - tracer.calls[norm]


def check_invariants(workload, items, counters, cancelled_by_op):
    """What the workloads are built to guarantee; a breach ends the run
    without a result."""
    if workload == "large":
        for name in ("twists.crossings_cancelled",
                     "sidegraphs.regions_merged", "sidegraphs.merge_steps"):
            if counters[name]:
                sys.exit(f"large: {name} is {counters[name]}, expected 0")
    if workload == "reshape":
        for it in items:
            if "word" in it.facts and cancelled_by_op[it.ident] <= 0:
                sys.exit(f"reshape: {it.ident} cancelled no crossings")


def report_outcomes(outcomes, n):
    errors = ", ".join(f"{k} {v}" for k, v in sorted(outcomes.errors.items()))
    print(f"error classes per pass of {n}: {errors or 'none'}")
    rules = ", ".join(
        f"{rule}{' (known defect)' if known else ''} {v}"
        for (rule, known), v in sorted(outcomes.mismatches.items())
    )
    print(f"mismatches by rule: {rules or 'none'}")
    print(f"verdict digest: sha256 {outcomes.digest.hexdigest()}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "foliar")):
        sys.exit(f"no foliar package under {SRC}")
    sys.path.insert(0, SRC)
    F, items, setup_s, digest = setup(args.workload, args.seed)
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    print(f"workload {args.workload} seed {args.seed}: {len(items)} inputs "
          f"(sha256 {digest[:16]}), {passes} passes, trace {args.trace}")
    outcomes = Outcomes(F)
    if args.trace:
        result = traced_run(F, items, passes, outcomes, args.workload,
                            args.seed)
    else:
        result = end_to_end(F, items, passes, outcomes, setup_s)
    report_outcomes(outcomes, len(items))
    print(json.dumps({"correct": outcomes.correct(), **result},
                     allow_nan=False))


if __name__ == "__main__":
    main()
