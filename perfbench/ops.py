"""Seeded inputs and the three timed operations of the benchmark.

* ``simulate``: build box-city scenes end to end (DEM, sensor pair, optical
  render with noise, SAR render with speckle, truth correspondences and an
  RFLT round trip of every raster).
* ``reconstruct``: intersect tie points built as exact projections of
  seeded points (a quarter noise-free, the rest with half-pixel noise) and
  sweep the analytic accuracy grid in both modes.
* ``match``: search each optical tie point's epipolar-like window in the
  SAR image, score every candidate with the five measures, and intersect
  each measure's best candidate.

Every call into the library goes through the ``api`` namespace of
``tracing.layer_api``; ``tr`` is the run's tracer (a ``NullTracer`` when
untraced).  Inputs depend only on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from sarstereo.accuracy import GlancingOrMiss
from sarstereo.geometry import GeometryError, GroundPoint, ImagePoint, SarObservation
from sarstereo.intersection import IntersectionError, ObservationWeights
from sarstereo.scene_sim import (
    Building,
    RenderNoise,
    SceneNotVisible,
    SceneOutsideSwath,
    SceneSpec,
)
from sarstereo.similarity import HOG, HOPC, SIFT, Patch, SimilarityError
from tracing import NullTracer

# An operation that raises one of these is counted as failed, not fatal.
OP_ERRORS = (
    GeometryError, IntersectionError, SimilarityError, GlancingOrMiss,
    SceneNotVisible, SceneOutsideSwath, ValueError,
)

OPT_SIGMA = 0.02  # optical noise, in reflectance units (roughly 1 +/- 0.3)
SLOT = 35  # building placement grid, metres; one building per slot
N_ROOF, N_GROUND = 2, 2  # truth points per simulated scene

RECON_THETAS = (25.0, 35.0, 45.0)
RECON_NOISY_LOG2 = 9  # 512 noisy points per sensor pair
RECON_EXACT_EVERY = 5  # every fifth point keeps exact observations
RECON_START_OFFSET_M = 8.0
GRID_STEPS = (24, 50)  # per grid; each mode sweeps two theta halves
GRID_THETAS = ((20.0, 39.6), (40.4, 60.0))
GRID_ALPHA = (5.0, 45.0)

MATCH_TIE_POINTS = 6
HALF = 25  # patch half-size: 51 px windows, 3x3 cells of 17 px
CELL, BINS = 17, 8
SIFT_SCALE = 10.0  # 4x4 cells of 10 px: a 41 px footprint inside the window
SWEEP_STEP_M = 0.5
SWEEP_MARGIN_M = 2.0
MEASURES = ("ncc", "nmi", "hog", "sift", "hopc")
RECON_CHUNK = 100  # intersections timed together as one step


@dataclass
class Step:
    """What one step of a round did, for the end-to-end metric it counts toward."""

    metric: str
    key: str  # names the same step in every round
    work: float  # units of the metric completed
    attempted: int = 0
    failed: int = 0


@dataclass
class Round:
    """One pass of an operation, split into steps that run one at a time.

    Each step is a zero-argument callable returning a Step; ``outputs``
    fills in as the steps run and is complete once the last has run.
    """

    steps: list
    outputs: dict


@dataclass(frozen=True)
class SceneConfig:
    """One scene of the simulate cycle; the seed places the buildings."""

    extent: tuple[float, float]
    ground: float
    n_buildings: int
    h_max: float  # the tallest building; fixed so render cost is seed-free
    h_min: float
    theta: float
    looks: int
    tall_west: bool = False  # tallest building in the westmost slot column


# Extent, density, building height, incidence and speckle looks all vary;
# the third scene's 60+ m building lays over into the near range.
SIM_CYCLE = (
    SceneConfig((120.0, 120.0), 0.0, 2, 20.0, 8.0, 30.0, 1),
    SceneConfig((160.0, 140.0), 5.0, 6, 30.0, 10.0, 40.0, 4),
    SceneConfig((200.0, 160.0), 0.0, 4, 68.0, 12.0, 35.0, 2, tall_west=True),
    SceneConfig((140.0, 180.0), 10.0, 4, 18.0, 6.0, 45.0, 9),
)
STEREO_SCENE = SceneConfig((200.0, 200.0), 0.0, 5, 30.0, 10.0, 35.0, 4)


def place_buildings(cfg: SceneConfig, rng) -> tuple[Building, ...]:
    """Integer-aligned boxes, one per randomly chosen slot, never touching."""
    ex, ey = cfg.extent
    nx, ny = int((ex - 10) // SLOT), int((ey - 10) // SLOT)
    slots = [(i, j) for i in range(nx) for j in range(ny)]
    order = list(rng.permutation(len(slots)))
    if cfg.tall_west:
        west = [k for k in order if slots[k][0] == 0]
        order.remove(west[0])
        order.insert(0, west[0])
    heights = [cfg.h_max] + list(
        np.round(rng.uniform(cfg.h_min, cfg.h_max - 2.0, cfg.n_buildings - 1) * 2) / 2
    )
    out = []
    for k, h in zip(order[: cfg.n_buildings], heights):
        i, j = slots[k]
        w, d = (int(v) for v in rng.integers(12, 29, 2))
        x0 = 5 + SLOT * i + int(rng.integers(2, SLOT - w - 1))
        y0 = 5 + SLOT * j + int(rng.integers(2, SLOT - d - 1))
        out.append(Building(rect=(x0, y0, x0 + w, y0 + d), height=float(h)))
    return tuple(out)


def _footprint_mask(spec: SceneSpec, grow: int) -> np.ndarray:
    rows, cols = spec.shape
    yc, xc = np.mgrid[0:rows, 0:cols] + 0.5
    mask = np.zeros((rows, cols), dtype=bool)
    for b in spec.buildings:
        x0, y0, x1, y1 = b.rect
        mask |= (xc > x0 - grow) & (xc < x1 + grow) & (yc > y0 - grow) & (yc < y1 + grow)
    return mask


def roof_point(spec: SceneSpec, rng, inset: int = 1) -> GroundPoint:
    b = spec.buildings[int(rng.integers(len(spec.buildings)))]
    x0, y0, x1, y1 = (int(v) for v in b.rect)
    x = int(rng.integers(x0 + inset, x1 - inset)) + 0.5
    y = int(rng.integers(y0 + inset, y1 - inset)) + 0.5
    return GroundPoint(x, y, spec.ground_height + b.height)


def ground_point(spec: SceneSpec, rng, clear: np.ndarray, box) -> GroundPoint:
    """A cell centre off every building and inside box = (x0, y0, x1, y1)."""
    x0, y0, x1, y1 = box
    while True:
        c = int(rng.integers(x0, x1))
        r = int(rng.integers(y0, y1))
        if clear[r, c]:
            return GroundPoint(c + 0.5, r + 0.5, spec.ground_height)


def make_spec(cfg: SceneConfig, rng, texture_seed: int) -> SceneSpec:
    return SceneSpec(
        extent=cfg.extent, gsd=1.0, ground_height=cfg.ground,
        buildings=place_buildings(cfg, rng), texture_seed=texture_seed,
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SceneJob:
    cfg: SceneConfig
    spec: SceneSpec
    points: tuple[GroundPoint, ...]
    noise_seed: int


def simulate_jobs(seed: int) -> list[SceneJob]:
    jobs = []
    for k, cfg in enumerate(SIM_CYCLE):
        rng = np.random.default_rng([seed, 1, k])
        spec = make_spec(cfg, rng, texture_seed=int(rng.integers(2**31)))
        clear = ~_footprint_mask(spec, grow=1)
        rows, cols = spec.shape
        box = (0, 0, cols, rows)
        pts = [roof_point(spec, rng) for _ in range(N_ROOF)]
        pts += [ground_point(spec, rng, clear, box) for _ in range(N_GROUND)]
        jobs.append(SceneJob(cfg, spec, tuple(pts), int(rng.integers(2**31))))
    return jobs


@dataclass
class RenderedScene:
    spec: SceneSpec
    dem: object
    reflectance: object
    optical: object
    sar_img: object
    sar_model: object
    opt_model: object
    sar_shape: tuple[int, int]
    opt_shape: tuple[int, int]


def render_scene(sim, tr, spec: SceneSpec, theta: float, looks: int,
                 noise_seed: int) -> RenderedScene:
    """DEM, canonical sensor pair, noisy optical render and speckled SAR render."""
    dem, refl = sim.make_scene(spec)
    sar, opt, sar_shape, opt_shape = sim.canonical_scene_models(spec, sar_theta_deg=theta)
    optical = sim.render_optical(
        dem, refl, opt, RenderNoise(optical_sigma=OPT_SIGMA, seed=noise_seed), opt_shape
    )
    tr.count("scene_sim.render_optical.px", opt_shape[0] * opt_shape[1])
    sar_img = sim.render_sar(
        dem, refl, sar, RenderNoise(speckle_looks=looks, seed=noise_seed), sar_shape
    )
    # render_sar's default supersampling: 2 x 2 sub-cells per DEM cell
    tr.count("scene_sim.render_sar.cells", dem.rows * dem.cols * 4)
    return RenderedScene(spec, dem, refl, optical, sar_img, sar, opt, sar_shape, opt_shape)


@dataclass
class SceneOutput:
    job: SceneJob
    scene: RenderedScene
    truth: object
    round_trips: dict  # raster name -> (written, read back)


def simulate_round(api, tr, jobs, workdir: Path) -> Round:
    """One step per scene of the cycle; outputs["scenes"] holds a SceneOutput each."""
    outputs = {"scenes": []}

    def scene(k: int, job: SceneJob) -> Step:
        try:
            with tr.span("bench.scene"):
                out = _build_scene(api, tr, job, workdir)
        except OP_ERRORS:
            return Step("scenes_per_s", f"scene{k}", 0, 1, 1)
        outputs["scenes"].append(out)
        return Step("scenes_per_s", f"scene{k}", 1, 1, 0)

    return Round([partial(scene, k, job) for k, job in enumerate(jobs)], outputs)


def _build_scene(api, tr, job: SceneJob, workdir: Path) -> SceneOutput:
    sc = render_scene(api.scene_sim, tr, job.spec, job.cfg.theta, job.cfg.looks, job.noise_seed)
    truth = api.scene_sim.ground_truth_correspondences(
        sc.dem, sc.sar_model, sc.opt_model, job.points,
        sar_shape=sc.sar_shape, opt_shape=sc.opt_shape,
    )
    tr.count("scene_sim.truth.points", len(job.points))
    tr.count("scene_sim.truth.kept", len(truth.pairs))
    trips = {}
    for name, raster in (("dem", sc.dem), ("reflectance", sc.reflectance),
                         ("optical", sc.optical), ("sar", sc.sar_img)):
        path = workdir / f"{name}.rflt"
        api.raster.save_raster(raster, path)
        trips[name] = (raster, api.raster.load_raster(path))
        tr.count("raster.bytes", 2 * raster.samples.nbytes)
    return SceneOutput(job, sc, truth, trips)


def build_stereo_scene(api, seed: int) -> RenderedScene:
    """The one scene that reconstruct and match share, rendered in set-up."""
    rng = np.random.default_rng([seed, 2])
    spec = make_spec(STEREO_SCENE, rng, texture_seed=int(rng.integers(2**31)))
    return render_scene(api.scene_sim, NullTracer(), spec, STEREO_SCENE.theta,
                        STEREO_SCENE.looks, int(rng.integers(2**31)))


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Observation:
    pair: int  # index into ReconInputs.pairs
    point: GroundPoint
    sar: SarObservation
    opt: ImagePoint
    initial: GroundPoint
    noisy: bool


@dataclass(frozen=True)
class GridJob:
    mode: str
    theta: tuple[float, float]
    hs: float
    ho: float


@dataclass
class ReconInputs:
    pairs: list  # (sar_model, opt_model, weights) per incidence angle
    observations: list[Observation]
    grids: list[GridJob]


def reconstruct_inputs(api, scene: RenderedScene, seed: int) -> ReconInputs:
    rng = np.random.default_rng([seed, 3])
    spec = scene.spec
    rows, cols = spec.shape
    clear = ~_footprint_mask(spec, grow=1)
    pairs, observations = [], []
    n_noisy = 2 ** RECON_NOISY_LOG2
    n = n_noisy * RECON_EXACT_EVERY // (RECON_EXACT_EVERY - 1)
    for k, theta in enumerate(RECON_THETAS):
        sar, opt, _, _ = api.scene_sim.canonical_scene_models(spec, sar_theta_deg=theta)
        weights = ObservationWeights.half_pixel(sar, sigma_px=0.5)
        pairs.append((sar, opt, weights))
        # standard normal noise on (t, r, row, col) from a scrambled Sobol
        # set: every seed covers the 4-D normal evenly, so the height-error
        # NMAD varies little from seed to seed
        sobol = qmc.Sobol(d=4, scramble=True, rng=rng).random_base2(RECON_NOISY_LOG2)
        noise = iter(ndtri(sobol))
        for i in range(n):
            if i % 2:
                p = roof_point(spec, rng)
            else:
                p = ground_point(spec, rng, clear, (0, 0, cols, rows))
            s_obs = api.geometry.sar_forward(sar, p)
            o_obs = api.geometry.opt_forward(opt, p)
            noisy = i % RECON_EXACT_EVERY != 0
            if noisy:
                dt, dr, drow, dcol = next(noise)
                s_obs = SarObservation(t=s_obs.t + dt * weights.sigma_t,
                                       r=s_obs.r + dr * weights.sigma_r)
                o_obs = ImagePoint(row=o_obs.row + drow * weights.sigma_px,
                                   col=o_obs.col + dcol * weights.sigma_px)
            off = rng.uniform(-RECON_START_OFFSET_M, RECON_START_OFFSET_M, 3)
            start = GroundPoint(p.x + off[0], p.y + off[1], p.h + off[2])
            observations.append(Observation(k, p, s_obs, o_obs, start, noisy))
    grids = [
        GridJob(mode, theta, float(rng.uniform(480e3, 520e3)), float(rng.uniform(600e3, 800e3)))
        for mode in ("opposite_side", "same_side") for theta in GRID_THETAS
    ]
    return ReconInputs(pairs, observations, grids)


def reconstruct_round(api, tr, inp: ReconInputs) -> Round:
    """Steps of RECON_CHUNK intersections, then one step per grid.

    outputs["results"][i] is the IntersectionResult of observation i, or
    None if it failed; outputs["grids"] likewise per grid job.
    """
    n = len(inp.observations)
    outputs = {"results": [None] * n, "grids": [None] * len(inp.grids)}

    def chunk(lo: int) -> Step:
        hi = min(lo + RECON_CHUNK, n)
        failed = 0
        for i in range(lo, hi):
            obs = inp.observations[i]
            sar, opt, weights = inp.pairs[obs.pair]
            try:
                res = api.intersection.intersect(sar, opt, obs.sar, obs.opt, obs.initial, weights)
            except OP_ERRORS:
                failed += 1
                continue
            tr.count("intersection.points")
            tr.count("intersection.iterations", res.iterations)
            outputs["results"][i] = res
        return Step("points_per_s", f"points{lo}", hi - lo - failed, hi - lo, failed)

    def grid(g: int, job: GridJob) -> Step:
        try:
            out = api.accuracy.accuracy_grid(
                job.mode, job.theta, GRID_ALPHA, GRID_STEPS, job.hs, job.ho
            )
        except OP_ERRORS:
            return Step("grid_cells_per_s", f"grid{g}", 0, 1, 1)
        tr.count("accuracy.cells", out.sigma_ratio.size)
        outputs["grids"][g] = out
        return Step("grid_cells_per_s", f"grid{g}", out.sigma_ratio.size, 1, 0)

    steps = [partial(chunk, lo) for lo in range(0, n, RECON_CHUNK)]
    steps += [partial(grid, g, job) for g, job in enumerate(inp.grids)]
    return Round(steps, outputs)


def height_errors(inp: ReconInputs, results) -> tuple[np.ndarray, np.ndarray]:
    """Height error and solver sigma_h of every noisy point that converged."""
    err, sig = [], []
    for obs, res in zip(inp.observations, results):
        if obs.noisy and res is not None:
            err.append(res.point.h - obs.point.h)
            sig.append(np.sqrt(res.covariance[2, 2]))
    return np.array(err), np.array(sig)


def nmad(x: np.ndarray) -> float:
    """Normalized median absolute deviation (1.4826 * MAD)."""
    return float(1.4826 * np.median(np.abs(x - np.median(x))))


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TiePoint:
    ground: GroundPoint  # seeded truth point
    opt: ImagePoint  # truth optical position (the search starts here)
    sar: ImagePoint  # truth SAR position


@dataclass
class MatchInputs:
    scene: RenderedScene
    tie_points: list[TiePoint]
    heights: np.ndarray
    weights: ObservationWeights


def window(row: int, col: int):
    return slice(row - HALF, row + HALF + 1), slice(col - HALF, col + HALF + 1)


def match_inputs(api, scene: RenderedScene, seed: int) -> MatchInputs:
    """Tie points whose every candidate window lies on lit SAR data.

    The canonical SAR raster keeps an unlit near-range band about
    h_max cos(theta) / range_per_col columns wide, where ncc correctly
    raises ConstantPatch.  A point qualifies when the window of its
    nearest-range candidate (top of the sweep) clears the first lit column,
    the slant range of the ground at the scene's near edge, and every
    window stays inside both rasters.  Points are chosen before anything
    is scored.
    """
    rng = np.random.default_rng([seed, 4])
    spec, sar, opt = scene.spec, scene.sar_model, scene.opt_model
    h0 = spec.ground_height
    h_top = h0 + max(b.height for b in spec.buildings)
    heights = np.arange(h0 - SWEEP_MARGIN_M, h_top + SWEEP_MARGIN_M + 1e-9, SWEEP_STEP_M)
    rows, cols = spec.shape
    sar_rows, sar_cols = scene.sar_shape
    clear = ~_footprint_mask(spec, grow=2)
    pad = HALF + 2

    def sar_col(x, y, h):
        return sar.pixel_from_obs(api.geometry.sar_forward(sar, GroundPoint(x, y, h))).col

    def qualifies(p: GroundPoint) -> bool:
        first_lit = sar_col(0.5, p.y, h0)
        return (sar_col(p.x, p.y, heights[-1]) - pad >= first_lit
                and sar_col(p.x, p.y, heights[0]) + pad <= sar_cols - 1
                and pad <= p.y <= sar_rows - 1 - pad)

    box = (pad, pad, cols - pad, rows - pad)
    weights = ObservationWeights.half_pixel(sar, sigma_px=0.5)
    tie_points: list[TiePoint] = []
    while len(tie_points) < MATCH_TIE_POINTS:
        # twice the points needed, so one batch nearly always suffices and
        # set-up time does not depend on how many points the seed shadows
        batch = []
        while len(batch) < 2 * MATCH_TIE_POINTS:
            p = (roof_point(spec, rng, inset=2) if len(batch) % 2
                 else ground_point(spec, rng, clear, box))
            if qualifies(p):
                batch.append(p)
        truth = api.scene_sim.ground_truth_correspondences(
            scene.dem, sar, opt, batch, sar_shape=scene.sar_shape, opt_shape=scene.opt_shape
        )
        tie_points += [TiePoint(c.ground, c.opt, c.sar) for c in truth.pairs]
    return MatchInputs(scene, tie_points[:MATCH_TIE_POINTS], heights, weights)


@dataclass
class TieResult:
    tie: TiePoint
    cand_rows: np.ndarray  # sub-pixel SAR position of every candidate
    cand_cols: np.ndarray
    scores: np.ndarray  # (5, n_candidates), rows in MEASURES order
    best: np.ndarray  # best candidate index per measure
    points: list  # intersected GroundPoint per measure
    descriptors: dict  # name -> Descriptor (optical map path and true-pair per-patch)


@dataclass
class MatchMaps:
    opt_img: np.ndarray
    sar_db: np.ndarray
    grad: dict  # image -> (gx, gy)
    hog: dict  # image -> (magnitude, unsigned orientation)
    pc: dict  # image -> (phase congruency, orientation)


def orientation_maps(gx: np.ndarray, gy: np.ndarray):
    return np.hypot(gx, gy), np.mod(np.arctan2(gy, gx), np.pi)


def match_round(api, tr, inp: MatchInputs) -> Round:
    """A step computing the per-image maps once, then one step per tie point.

    outputs["maps"] holds the MatchMaps, outputs["ties"] a TieResult per
    tie point that did not fail.
    """
    outputs = {"maps": None, "ties": []}

    def maps() -> Step:
        simi, scene = api.similarity, inp.scene
        opt_img = scene.optical.samples.astype(float)
        sar_db = api.raster.to_db(scene.sar_img).samples.astype(float)
        m = MatchMaps(opt_img, sar_db, {}, {}, {})
        for name, img in (("opt", opt_img), ("sar", sar_db)):
            m.grad[name] = simi.gradient_maps(img)
            m.hog[name] = orientation_maps(*m.grad[name])
            m.pc[name] = simi.phase_congruency_maps(img)
        outputs["maps"] = m
        return Step("tie_points_per_s", "maps", 0)

    def tie_point(j: int, tie: TiePoint) -> Step:
        try:
            with tr.span("bench.tie_point"):
                outputs["ties"].append(_match_one(api, tr, inp, outputs["maps"], tie))
        except OP_ERRORS:
            return Step("tie_points_per_s", f"tie{j}", 0, 1, 1)
        return Step("tie_points_per_s", f"tie{j}", 1, 1, 0)

    return Round([maps] + [partial(tie_point, j, t) for j, t in enumerate(inp.tie_points)],
                 outputs)


def _match_one(api, tr, inp: MatchInputs, maps: MatchMaps, tie: TiePoint) -> TieResult:
    simi, geo = api.similarity, api.geometry
    sar, opt = inp.scene.sar_model, inp.scene.opt_model
    (gx_o, gy_o), (gx_s, gy_s) = maps.grad["opt"], maps.grad["sar"]
    (mag_o, ori_o), (mag_s, ori_s) = maps.hog["opt"], maps.hog["sar"]
    (pc_o, pco_o), (pc_s, pco_s) = maps.pc["opt"], maps.pc["sar"]

    r, c = int(round(tie.opt.row)), int(round(tie.opt.col))
    win_o = window(r, c)
    patch_o = Patch(maps.opt_img[win_o])
    hog_o = simi.oriented_descriptor_from_maps(mag_o[win_o], ori_o[win_o], CELL, BINS)
    sift_o = simi.sift_from_gradients(gx_o, gy_o, r, c, SIFT_SCALE)
    hopc_o = simi.hopc_from_maps(pc_o[win_o], pco_o[win_o], CELL, BINS)

    with tr.span("bench.sweep"):
        ground, obs = [], []
        for h in inp.heights:
            g = geo.opt_inverse_at_height(opt, tie.opt, float(h))
            ground.append(g)
            obs.append(geo.sar_forward(sar, g))
        pix = [sar.pixel_from_obs(o) for o in obs]
    tr.count("geometry.candidates", len(pix))
    tr.count("match.tie_points")

    scores = np.empty((len(MEASURES), len(pix)))
    for k, ip in enumerate(pix):
        win_s = window(int(round(ip.row)), int(round(ip.col)))
        patch_s = Patch(maps.sar_db[win_s])
        with tr.span("bench.ncc"):
            scores[0, k] = simi.ncc(patch_o, patch_s).value
        with tr.span("bench.nmi"):
            scores[1, k] = simi.nmi(patch_o, patch_s).value
        with tr.span("bench.hog"):
            d = simi.oriented_descriptor_from_maps(mag_s[win_s], ori_s[win_s], CELL, BINS)
            scores[2, k] = simi.descriptor_similarity(hog_o, d, HOG).value
        with tr.span("bench.sift"):
            d = simi.sift_from_gradients(gx_s, gy_s, int(round(ip.row)), int(round(ip.col)),
                                         SIFT_SCALE)
            scores[3, k] = simi.descriptor_similarity(sift_o, d, SIFT).value
        with tr.span("bench.hopc"):
            d = simi.hopc_from_maps(pc_s[win_s], pco_s[win_s], CELL, BINS)
            scores[4, k] = simi.descriptor_similarity(hopc_o, d, HOPC).value

    best = scores.argmax(axis=1)
    points = []
    for k in best:
        res = api.intersection.intersect(sar, opt, obs[k], tie.opt, ground[k], inp.weights)
        tr.count("intersection.points")
        tr.count("intersection.iterations", res.iterations)
        points.append(res.point)
    for m, k in zip(MEASURES, best):
        near = (abs(pix[k].row - tie.sar.row) <= 1.0 and abs(pix[k].col - tie.sar.col) <= 1.0)
        tr.count(f"similarity.{m}.top1", near)

    # per-patch descriptors once, at the true pair
    patch_t = Patch(maps.sar_db[window(int(round(tie.sar.row)), int(round(tie.sar.col)))])
    descriptors = {"hog_map_opt": hog_o, "sift_map_opt": sift_o, "hopc_map_opt": hopc_o}
    for side, patch in (("opt", patch_o), ("sar", patch_t)):
        descriptors[f"hog_patch_{side}"] = simi.hog_descriptor(patch, CELL, BINS)
        descriptors[f"sift_patch_{side}"] = simi.sift_descriptor(patch, SIFT_SCALE)
        descriptors[f"hopc_patch_{side}"] = simi.hopc_descriptor(patch, CELL, BINS)
    return TieResult(
        tie,
        np.array([p.row for p in pix]), np.array([p.col for p in pix]),
        scores, best, points, descriptors,
    )
