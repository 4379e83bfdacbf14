"""One short benchmark pass on each workload, end to end.

The verdict digest covers every route's status and reasons on the
seed-1 inputs: 32 reshape inputs, 3 000 corpus inputs of every kind
(PD, braid, tree and slopes), and the 24 large inputs, whose trees of
100 to 3 000 vertices are the only ones on the tree validation path at
that size.  A change that moves a verdict fails here instead of only in
a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

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


def test_corpus_pass_keeps_its_verdicts():
    _assert_digest("corpus", CORPUS_SEED1_DIGEST)


def test_large_pass_keeps_its_verdicts():
    _assert_digest("large", LARGE_SEED1_DIGEST)


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
