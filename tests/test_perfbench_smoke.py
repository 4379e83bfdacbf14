"""One short benchmark pass on each workload, end to end.

The verdict digest covers every route's status and reasons on the
seed-1 inputs: 32 reshape inputs, 3 000 corpus inputs of every kind
(PD, braid, tree and slopes), and the 24 large inputs, whose trees of
100 to 3 000 vertices are the only ones on the tree validation path at
that size.  A change that moves a verdict fails here instead of only in
a benchmark run.  The reshape pass runs the benchmark's command, so its
command line and its last JSON line stay tested; the corpus and large
passes drive the same operations in this process, as one pass of that
command does: gen.WORKLOADS[w](1), then ops.run and Outcomes.add per
input.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import foliar

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RUN = PERFBENCH / "run.py"

RESHAPE_SEED1_DIGEST = (
    "25ec246dfb04a5c01c8d968b648fb34cba1b70253443c9caf262e963a6088859"
)
CORPUS_SEED1_DIGEST = (
    "15d8a430aef06138253b247c3efa81d7803c11f17a40cf4aca438cb714a47a49"
)
LARGE_SEED1_DIGEST = (
    "2e5e016530318d545200101a1b1adff51915d9ea8645b506332fafe3504c3df5"
)


def test_reshape_pass_keeps_its_verdicts():
    _assert_digest("reshape", RESHAPE_SEED1_DIGEST)


def test_corpus_pass_keeps_its_verdicts(bench):
    assert _digest(bench, "corpus") == CORPUS_SEED1_DIGEST


def test_large_pass_keeps_its_verdicts(bench):
    assert _digest(bench, "large") == LARGE_SEED1_DIGEST


@pytest.fixture(scope="module")
def bench():
    """The benchmark's gen, ops and run modules, imported as the command
    imports them, with nothing written beside them; importing run sets
    sys.dont_write_bytecode, which is restored."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
        import ops
        import run
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return gen, ops, run


def _digest(bench, workload):
    """The verdict digest of one pass, as run.py prints it, after the
    reference checks it reports as correct."""
    gen, ops, run = bench
    outcomes = run.Outcomes(foliar)
    for item in gen.WORKLOADS[workload](1):
        outcomes.add(item, ops.run(foliar, item))
    assert outcomes.correct()
    return outcomes.digest.hexdigest()


def _assert_digest(workload, digest):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=300,
        # nothing is written beside the benchmark
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert f"verdict digest: sha256 {digest}" in proc.stdout
