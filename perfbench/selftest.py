"""Shows that every output check of the benchmark catches a wrong output.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a source checkout.  Builds one seed's inputs, runs one
round of each operation, and confirms that every check passes on the real
outputs.  Then, for each check, it perturbs a copy of the outputs in the
way that check guards against and confirms that the check raises
``CheckFailed``.  Prints one line per case and exits 0 only when every
check passes clean and fails perturbed.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
from sarstereo.geometry import ImagePoint  # noqa: E402
from sarstereo.raster import Raster  # noqa: E402
from sarstereo.similarity import Descriptor, SimilarityScore  # noqa: E402
from tracing import NullTracer, layer_api  # noqa: E402


def _first(outs, pred):
    return next(o for o in outs if pred(o))


def bump_dem(o):
    out = o.sims[0]
    x0, y0, _, _ = out.job.spec.buildings[0].rect
    samples = out.scene.dem.samples.copy()
    samples[int(y0) + 1, int(x0) + 1] += 1.0
    out.scene.dem = Raster(samples=samples, sidecar=out.scene.dem.sidecar)


def shift_truth(o):
    out = _first(o.sims, lambda s: s.truth.pairs)
    pair = out.truth.pairs[0]
    moved = dataclasses.replace(pair, sar=ImagePoint(pair.sar.row, pair.sar.col + 1e-5))
    out.truth = dataclasses.replace(out.truth, pairs=(moved,) + out.truth.pairs[1:])


def relabel_lit_as_shadow(o):
    out = _first(o.sims, lambda s: s.truth.pairs)
    pair = out.truth.pairs[0]
    out.truth = dataclasses.replace(
        out.truth, pairs=out.truth.pairs[1:],
        excluded=out.truth.excluded + ((pair.ground, "sar_shadow"),),
    )


def light_the_shadow(o):
    o.span.line[o.span.start: o.span.start + 10] = o.span.bright


def flip_a_bit(o):
    written, read = o.sims[0].round_trips["sar"]
    bits = read.samples.copy().view(np.uint32)
    bits[0, 0] ^= 1
    o.sims[0].round_trips["sar"] = (written, Raster(samples=bits.view(np.float32),
                                                    sidecar=read.sidecar))


def nudge_noise_free(o):
    k = _first(range(len(o.results)), lambda i: not o.recon.observations[i].noisy)
    res = o.results[k]
    p = res.point
    o.results[k] = dataclasses.replace(res, point=dataclasses.replace(p, h=p.h + 1e-5))


def inflate_covariance(o):
    o.results = [None if r is None else dataclasses.replace(r, covariance=4 * r.covariance)
                 for r in o.results]


def scale_grid(o):
    g = o.grids[0]
    o.grids[0] = dataclasses.replace(g, sigma_ratio=g.sigma_ratio * (1 + 1e-5))


def shift_candidate(o):
    res = o.ties[0]
    k = np.flatnonzero(np.abs(o.match.heights - res.tie.ground.h) < 1e-9)[0]
    res.cand_cols[k] += 1e-5


def bump_score(row, delta):
    def perturb(o):
        res = o.ties[0]
        res.scores[row, res.best[row]] += delta
    return perturb


def scale_sift(o):
    d = o.ties[0].descriptors["sift_map_opt"]
    o.ties[0].descriptors["sift_map_opt"] = Descriptor(values=1.001 * d.values, layout=d.layout)


def biased_api(api):
    """The library with a descriptor distance that is off by 1e-9."""
    simi = api.similarity

    def descriptor_similarity(a, b, measure="HOG"):
        s = simi.descriptor_similarity(a, b, measure)
        return SimilarityScore(value=s.value - 1e-9, measure=s.measure)

    return SimpleNamespace(**{**vars(api), "similarity": SimpleNamespace(
        **{**vars(simi), "descriptor_similarity": descriptor_similarity})})


# (check, what is perturbed, perturbation, use the biased library)
CASES = [
    ("simulate.footprints", "one roof cell raised 1 m", bump_dem, False),
    ("simulate.truth_projection", "one SAR column moved 1e-5 px", shift_truth, False),
    ("simulate.shadow_horizon", "a lit point relabelled sar_shadow", relabel_lit_as_shadow, False),
    ("simulate.shadow_span", "shadow columns lit", light_the_shadow, False),
    ("simulate.round_trip", "one bit of a read-back sample flipped", flip_a_bit, False),
    ("reconstruct.noise_free", "one exact point moved 1e-5 m", nudge_noise_free, False),
    ("reconstruct.sigma_h", "covariances scaled by 4", inflate_covariance, False),
    ("reconstruct.grid", "grid ratios scaled by 1 + 1e-5", scale_grid, False),
    ("match.candidates", "true-height candidate moved 1e-5 px", shift_candidate, False),
    ("match.ncc", "best NCC score raised 1e-9", bump_score(0, 1e-9), False),
    ("match.nmi", "best NMI score raised 1e-9", bump_score(1, 1e-9), False),
    ("match.descriptors", "a SIFT descriptor scaled by 1.001", scale_sift, False),
    ("match.descriptors", "descriptor distance biased by 1e-9", None, True),
    ("match.gain_offset", "best NCC score raised 1e-7", bump_score(0, 1e-7), False),
    ("match.gain_offset", "best HOG score raised 1e-5", bump_score(2, 1e-5), False),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    plain = layer_api(NullTracer())
    inputs = harness.build_inputs(plain, args.seed)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
    try:
        states = harness.measure("match", plain, inputs, 0.0, Path(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    clean = harness.check_outputs(states, inputs, plain, args.seed)

    ok = True
    for name, message in checks.run_suite(plain, args.seed, clean).items():
        print(f"FAIL  {name}: fails on clean outputs: {message}")
        ok = False
    suite, biased = checks.suite(plain, args.seed), checks.suite(biased_api(plain), args.seed)
    for name, what, perturb, use_biased in CASES:
        outputs = copy.deepcopy(clean)
        if perturb is not None:
            perturb(outputs)
        try:
            (biased if use_biased else suite)[name](outputs)
        except checks.CheckFailed as exc:
            print(f"ok    {name:28s} catches: {what} ({exc})")
            continue
        print(f"FAIL  {name:28s} misses: {what}")
        ok = False
    untested = set(suite) - {case[0] for case in CASES}
    for name in sorted(untested):
        print(f"FAIL  {name}: no perturbation case")
        ok = False
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
