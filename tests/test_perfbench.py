"""The benchmark's self-test, run with the rest of the suite.

perfbench/selftest.py runs one round of each benchmark operation and every
output check, clean and perturbed.  A change that removes a library function
the benchmark calls, or that breaks an output check, then fails here and not
only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py"), "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
