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
    # the four simulate scenes, each with its files and its truth, then the
    # stereo scene, its files, its optical sweep and its match round
    expected = [pattern for k in range(4)
                for pattern in (rf"seed 1 scene {k} {digest}$",
                                rf"seed 1 scene {k} files {digest}$",
                                rf"seed 1 scene {k} truth TruthSet\(pairs=.*\)$")]
    expected += [rf"seed 1 stereo {digest}$", rf"seed 1 stereo files {digest}$",
                 r"seed 1 stereo sweep [0-9a-f]{64}$", r"seed 1 match [0-9a-f]{64}$"]
    assert len(lines) == len(expected)
    for line, pattern in zip(lines, expected):
        assert re.match(pattern, line), line
