"""Smoke test of tools/render_timing.py, the A/B timing of the two renderers."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_run_of_the_repo_against_itself():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "render_timing.py"),
                           str(ROOT), str(ROOT), "--seeds", "1", "--runs", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
    lines = done.stdout.splitlines()
    ms = r"\d+\.\d"
    side = rf"median {ms} \(q1 {ms}, q3 {ms}\)"
    expected = [rf"run 1: render_optical A {ms} B {ms} ms  render_sar A {ms} B {ms} ms$",
                rf"A = {re.escape(str(ROOT))}$", rf"B = {re.escape(str(ROOT))}$"]
    expected += [rf"{name}: A {side}  B {side} ms; B faster in [01] of 1 runs$"
                 for name in ("render_optical", "render_sar")]
    assert len(lines) == len(expected), done.stdout
    for line, pattern in zip(lines, expected):
        assert re.match(pattern, line), line
