"""Digest of every scene the benchmark renders, to show that a change keeps its bytes.

    python3 tools/render_digest.py SEED [SEED ...]

Run from the root of a source checkout; the library is imported from its
``src`` directory and the scenes from ``perfbench/ops.py``.  For each seed
and each scene, the four ``simulate`` scenes and the stereo scene that
``reconstruct`` and ``match`` share, one line gives the sha256 of the
samples of the DEM, the reflectance, the optical render and the SAR render,
and a second line the sha256 of the files ``save_raster`` writes for each of
the four, written to a temporary directory: the ``.rflt`` bytes, then the
``.json`` sidecar text with the geotransform or the sensor model.
Each ``simulate`` scene adds one line with the ``repr`` of its TruthSet, and
the stereo scene one line with the sha256 of its optical sweep: every 10th
row and column of the optical frame, taken through ``opt_inverse_at_height``
and then ``sar_forward`` at each height of ``match``'s sweep.  A last line
gives the sha256 of one ``match`` round over the stereo scene: the gradient
and phase congruency maps of both images, then each tie point's candidate
rows and columns, score matrix and descriptors.  A scene or a round that
raises prints the exception instead.  Two checkouts render and match the
same bytes when their outputs are equal.  On a seed where ``match``'s set-up
does not return, 18 and 111 among them, this tool does not return either.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import ops  # noqa: E402
from sarstereo import scene_sim  # noqa: E402
from sarstereo.geometry import ImagePoint, opt_inverse_at_height, sar_forward  # noqa: E402
from sarstereo.raster import save_raster  # noqa: E402
from tracing import NullTracer, layer_api  # noqa: E402


def _rasters(scene):
    return (("dem", scene.dem), ("reflectance", scene.reflectance),
            ("optical", scene.optical), ("sar", scene.sar_img))


def _digests(scene) -> str:
    return " ".join(f"{name} {hashlib.sha256(r.samples.tobytes()).hexdigest()}"
                    for name, r in _rasters(scene))


def _file_digests(scene) -> str:
    """sha256 of the .rflt bytes and the .json text save_raster writes for
    each of the scene's rasters."""
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, r in _rasters(scene):
            path = Path(tmp) / f"{name}.rflt"
            save_raster(r, path)
            digest = hashlib.sha256(path.read_bytes())
            digest.update(path.with_name(path.name + ".json").read_bytes())
            digests.append(f"{name} {digest.hexdigest()}")
    return " ".join(digests)


def _sweep_digest(scene) -> str:
    """sha256 of the ground (x, y) and the SAR (t, r) of every 10th optical
    row and column at each height of match's sweep over the scene."""
    h0 = scene.spec.ground_height
    h_top = h0 + max((b.height for b in scene.spec.buildings), default=0.0)
    heights = np.arange(h0 - ops.SWEEP_MARGIN_M, h_top + ops.SWEEP_MARGIN_M + 1e-9,
                        ops.SWEEP_STEP_M)
    rows, cols = scene.opt_shape
    values = []
    for row in range(0, rows, 10):
        for col in range(0, cols, 10):
            for h in heights:
                g = opt_inverse_at_height(scene.opt_model, ImagePoint(row, col), float(h))
                obs = sar_forward(scene.sar_model, g)
                values += (g.x, g.y, obs.t, obs.r)
    return hashlib.sha256(np.array(values).tobytes()).hexdigest()


def _match_digest(api, scene, seed: int) -> str:
    """sha256 of one match round over the scene: both images' gradient and
    phase congruency maps, then each tie point's candidate rows and columns,
    scores and descriptors."""
    rnd = ops.match_round(api, NullTracer(), ops.match_inputs(api, scene, seed))
    for step in rnd.steps:
        step()
    maps = rnd.outputs["maps"]
    arrays = [a for name in ("opt", "sar") for a in (*maps.grad[name], *maps.pc[name])]
    for res in rnd.outputs["ties"]:
        arrays += [res.cand_rows, res.cand_cols, res.scores,
                   *(d.values for d in res.descriptors.values())]
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


def seed_lines(seed: int):
    """The lines of one seed: each scene's sample and file digests, each
    simulate truth, the stereo sweep and the match round."""
    api = layer_api(NullTracer())
    for k, job in enumerate(ops.simulate_jobs(seed)):
        try:
            scene = ops.render_scene(scene_sim, NullTracer(), job.spec, job.cfg.theta,
                                     job.cfg.looks, job.noise_seed)
            truth = scene_sim.ground_truth_correspondences(
                scene.dem, scene.sar_model, scene.opt_model, job.points,
                sar_shape=scene.sar_shape, opt_shape=scene.opt_shape)
        except ops.OP_ERRORS as exc:
            yield f"seed {seed} scene {k} raised {type(exc).__name__}: {exc}"
            continue
        yield f"seed {seed} scene {k} {_digests(scene)}"
        yield f"seed {seed} scene {k} files {_file_digests(scene)}"
        yield f"seed {seed} scene {k} truth {truth!r}"
    try:
        stereo = ops.build_stereo_scene(api, seed)
        yield f"seed {seed} stereo {_digests(stereo)}"
        yield f"seed {seed} stereo files {_file_digests(stereo)}"
        yield f"seed {seed} stereo sweep {_sweep_digest(stereo)}"
    except ops.OP_ERRORS as exc:
        yield f"seed {seed} stereo raised {type(exc).__name__}: {exc}"
        return
    try:
        yield f"seed {seed} match {_match_digest(api, stereo, seed)}"
    except ops.OP_ERRORS as exc:
        yield f"seed {seed} match raised {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    for seed in ap.parse_args(argv).seeds:
        for line in seed_lines(seed):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
