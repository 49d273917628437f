"""Smoke test of tools/render_digest.py, the byte-identity digest of the benchmark's scenes."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_seed_1_digests_every_scene_and_truth():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "render_digest.py"), "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
    lines = done.stdout.splitlines()
    digest = " ".join(f"{name} [0-9a-f]{{64}}"
                      for name in ("dem", "reflectance", "optical", "sar"))
    # the four simulate scenes, each with its truth, then the stereo scene,
    # its optical sweep and its match round
    expected = [rf"seed 1 scene {k} ({digest}|truth TruthSet\(pairs=.*\))$"
                for k in range(4) for _ in range(2)] + [rf"seed 1 stereo {digest}$",
                                                        r"seed 1 stereo sweep [0-9a-f]{64}$",
                                                        r"seed 1 match [0-9a-f]{64}$"]
    assert len(lines) == len(expected)
    for line, pattern in zip(lines, expected):
        assert re.match(pattern, line), line
    assert sum(" truth TruthSet(" in line for line in lines) == 4
