"""The benchmark's self-test, run with the rest of the suite.

perfbench/selftest.py runs one round of each benchmark operation and every
output check, clean and perturbed.  A change that removes a library function
the benchmark calls, or that breaks an output check, then fails here and not
only in a benchmark run.  One round of the reconstruct workload, which runs
all three operations, must also finish with no failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py"), "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


@pytest.mark.parametrize("seed", [1, 2])
def test_one_round_of_each_operation_fails_none(seed):
    # --seconds 0 runs exactly one round of each of the three operations
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "reconstruct",
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True, done.stderr[-4000:]
    assert line["attempted"] > 0
    assert line["failed"] == 0, done.stderr[-4000:]
