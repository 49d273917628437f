"""Benchmark of the sarstereo library: three workloads, one process.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Each run builds its seeded inputs several times (the
median is ``setup_s``), then interleaves the three operations of ops.py
step by step for ``--seconds``: the workload's own operation gets half the
time, the other two a quarter each, and every operation finishes whole
rounds.  Each metric is timed over its own operation's steps only.  The
outputs are checked against independent computations (checks.py), and the
last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` each operation alternates untraced and
traced rounds, and the run reports the per-layer metrics.  Results and spans are also written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("simulate", "reconstruct", "match")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one process, one thread: set before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "sarstereo" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        result = harness.run(args, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    values = result["values"]
    missing = {m["name"] for m in wanted} - values.keys()
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({**line, "detail": result["detail"]}, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
