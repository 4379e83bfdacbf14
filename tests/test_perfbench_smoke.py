"""One short benchmark pass on the reshape workload, end to end.

The verdict digest covers every route's status and reasons on the 32
seed-1 inputs, so a normaliser change that moves a verdict fails here
instead of only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

RESHAPE_SEED1_DIGEST = (
    "3f8d6167fc2a7a982a92b96a05c3ae85474ac798135dca366e238d3c02550a31"
)


def test_reshape_pass_keeps_its_verdicts():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "reshape", "--seed", "1",
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
    assert f"verdict digest: sha256 {RESHAPE_SEED1_DIGEST}" in proc.stdout
