"""A/B timing of the two renderers on the benchmark's scenes, one checkout against another.

    python3 tools/render_timing.py ROOT_A ROOT_B [--seeds SEED ...] [--runs N]

ROOT_A and ROOT_B are source checkouts.  Each run times both, each in a
fresh subprocess that imports the library from the checkout's ``src``
directory and the scenes from its ``perfbench/ops.py``, as
``tools/render_digest.py`` does: the four ``simulate`` scenes of each seed,
twelve for the default seeds 1 2 3.  A subprocess builds every scene first,
renders the first one once untimed, and then sums the wall time of
``render_optical`` and of ``render_sar`` over all of them, with the noise
settings of ``ops.render_scene``.  A runs first in runs 1, 3, 5, ... and B
in runs 2, 4, 6, ...  For each renderer the tool prints each side's median and quartiles
in ms and the number of runs in which B took less time than A.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

# run in a fresh interpreter as: python -c WORKER ROOT SEED [SEED ...]
WORKER = r"""
import json, sys, time
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import ops
from sarstereo import scene_sim as sim
from sarstereo.scene_sim import RenderNoise

calls = []
for seed in map(int, sys.argv[2:]):
    for job in ops.simulate_jobs(seed):
        dem, refl = sim.make_scene(job.spec)
        sar, opt, sar_shape, opt_shape = sim.canonical_scene_models(
            job.spec, sar_theta_deg=job.cfg.theta)
        calls.append((
            (sim.render_optical, (dem, refl, opt,
             RenderNoise(optical_sigma=ops.OPT_SIGMA, seed=job.noise_seed), opt_shape)),
            (sim.render_sar, (dem, refl, sar,
             RenderNoise(speckle_looks=job.cfg.looks, seed=job.noise_seed), sar_shape)),
        ))


def failed(render, args):
    try:
        render(*args)
    except ops.OP_ERRORS:
        return 1
    return 0


for render, args in calls[0]:  # the untimed warm-up
    failed(render, args)
spent = {"optical": 0.0, "sar": 0.0, "failed": 0}
for scene in calls:
    for name, (render, args) in zip(("optical", "sar"), scene):
        t0 = time.perf_counter()
        spent["failed"] += failed(render, args)
        spent[name] += time.perf_counter() - t0
print(json.dumps(spent))
"""

RENDERERS = (("optical", "render_optical"), ("sar", "render_sar"))


def time_checkout(root: Path, seeds) -> dict:
    """One fresh subprocess's seconds per renderer, and its failed renders."""
    done = subprocess.run([sys.executable, "-c", WORKER, str(root), *map(str, seeds)],
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{root}: worker failed\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("root_a", type=Path, metavar="ROOT_A")
    ap.add_argument("root_b", type=Path, metavar="ROOT_B")
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    roots = {"A": args.root_a.resolve(), "B": args.root_b.resolve()}
    runs = {"A": [], "B": []}
    for run in range(args.runs):
        for side in ("A", "B") if run % 2 == 0 else ("B", "A"):
            runs[side].append(time_checkout(roots[side], args.seeds))
        a, b = runs["A"][-1], runs["B"][-1]
        print(f"run {run + 1}: " + "  ".join(
            f"{label} A {a[key] * 1e3:.1f} B {b[key] * 1e3:.1f} ms" for key, label in RENDERERS),
            flush=True)
    for side, root in roots.items():
        failed = sum(r["failed"] for r in runs[side])
        print(f"{side} = {root}" + (f" ({failed} renders raised)" if failed else ""))
    for key, label in RENDERERS:
        a, b = (np.array([r[key] for r in runs[side]]) * 1e3 for side in ("A", "B"))
        stats = "  ".join(
            f"{side} median {np.median(t):.1f} (q1 {np.percentile(t, 25):.1f}, "
            f"q3 {np.percentile(t, 75):.1f})" for side, t in (("A", a), ("B", b)))
        print(f"{label}: {stats} ms; B faster in {int(np.sum(b < a))} of {args.runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
