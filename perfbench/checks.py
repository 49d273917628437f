"""Checks of the program's outputs against computations made apart from it.

Each check takes outputs of one operation and raises ``CheckFailed`` when
they are wrong.  The references are written here from the geometry of the
canonical sensor pair, from numpy primitives (``np.corrcoef``,
``np.histogram2d``) or from invariances, never from the program's own
output of an earlier run.  ``selftest.py`` shows that each check fails on a
deliberately perturbed output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from sarstereo.geometry import GroundPoint
from sarstereo.scene_sim import Building, RenderNoise, SceneSpec
from sarstereo.similarity import Patch

import ops

TRUTH_PX_TOL = 1e-6
RECON_M_TOL = 1e-6
SHADOW_COLS_TOL = 2.5
GRID_REL_TOL = 1e-6
SIGMA_H_BAND = (0.95, 1.05)  # RMS of error / sigma_h over 1536 points; 1.000 +- 0.002 by seed
SCORE_TOL = 1e-12
GAIN, OFFSET = 1.7, 0.3


class CheckFailed(AssertionError):
    """An output disagrees with its independent reference."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# closed forms of the canonical pair (north-aligned SAR track, nadir camera
# with kappa = pi)
# ---------------------------------------------------------------------------

def sar_pixel(sar, x, y, h) -> tuple[float, float]:
    """Row and column of (x, y, h) for a track along +y at constant x and z."""
    require(sar.v[0] == 0.0 and sar.v[2] == 0.0, "SAR track is not north-aligned")
    t = sar.t0 + (y - sar.s0[1]) / sar.v[1]
    r = np.hypot(x - sar.s0[0], sar.s0[2] - h)
    return (t - sar.t0) / sar.az_time_per_row, (r - sar.r_near) / sar.range_per_col


def opt_pixel(opt, x, y, h) -> tuple[float, float]:
    require(opt.phi == 0.0 and opt.omega == 0.0 and opt.kappa == np.pi,
            "optical camera is not the canonical nadir camera")
    scale = opt.focal / (opt.pc[2] - h)
    return (opt.principal_row + scale * (y - opt.pc[1]),
            opt.principal_col + scale * (x - opt.pc[0]))


def opt_ground(opt, row, col, h) -> tuple[float, float]:
    """Inverse of opt_pixel on the plane z = h."""
    scale = (opt.pc[2] - h) / opt.focal
    return (opt.pc[0] + scale * (col - opt.principal_col),
            opt.pc[1] + scale * (row - opt.principal_row))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def check_footprints(outputs) -> None:
    """Cells whose centre lies in a footprint hold ground plus building height."""
    for out in outputs:
        spec, dem = out.job.spec, out.scene.dem.samples
        rows, cols = dem.shape
        yc, xc = np.mgrid[0:rows, 0:cols] * spec.gsd + 0.5 * spec.gsd
        expect = np.full((rows, cols), spec.ground_height)
        for b in spec.buildings:
            x0, y0, x1, y1 = b.rect
            inside = (xc >= x0) & (xc < x1) & (yc >= y0) & (yc < y1)
            expect[inside] = spec.ground_height + b.height
        require(np.array_equal(dem, expect.astype(np.float32)),
                f"DEM differs from the footprints in {np.sum(dem != expect)} cells")


def check_truth_projection(outputs) -> None:
    """Truth image coordinates equal the closed-form projections."""
    for out in outputs:
        require(len(out.truth.pairs) > 0, "no truth pair kept")
        for pair in out.truth.pairs:
            g = pair.ground
            sr, sc = sar_pixel(out.scene.sar_model, g.x, g.y, g.h)
            orow, ocol = opt_pixel(out.scene.opt_model, g.x, g.y, g.h)
            err = max(abs(pair.sar.row - sr), abs(pair.sar.col - sc),
                      abs(pair.opt.row - orow), abs(pair.opt.col - ocol))
            require(err <= TRUTH_PX_TOL, f"truth pair off its projection by {err:.3g} px")


def horizon_shadowed(dem, sar, p: GroundPoint) -> bool:
    """Radar shadow by a horizon test along the point's DEM row.

    For a north-aligned track the zero-Doppler plane of p is its azimuth
    line y = p.y; p is shadowed when a DEM cell between the track and p
    subtends a larger off-nadir angle than p itself.
    """
    grid = dem.sidecar["geotransform"]
    row = (p.y - grid["y0"]) / grid["step"]
    require(row == int(row), "horizon test needs a point on a cell centre row")
    heights = dem.samples[int(row)].astype(float)
    xs = grid["x0"] + np.arange(heights.size) * grid["step"]
    tx, tz = sar.s0[0], sar.s0[2]
    nearer = (xs < p.x) if p.x > tx else (xs > p.x)
    beta = np.arctan2(np.abs(xs[nearer] - tx), tz - heights[nearer])
    return bool(np.any(beta > np.arctan2(abs(p.x - tx), tz - p.h) + 1e-12))


def check_shadow_horizon(outputs) -> None:
    """Every sar_shadow exclusion is shadowed, every kept pair is not."""
    for out in outputs:
        dem, sar = out.scene.dem, out.scene.sar_model
        for p, reason in out.truth.excluded:
            require((reason == "sar_shadow") == horizon_shadowed(dem, sar, p),
                    f"exclusion {reason!r} of {p} disagrees with the horizon test")
        for pair in out.truth.pairs:
            require(not horizon_shadowed(dem, sar, pair.ground),
                    f"kept pair {pair.ground} is shadowed by the horizon test")


def check_round_trip(outputs) -> None:
    for out in outputs:
        for name, (written, read) in out.round_trips.items():
            require(written.samples.tobytes() == read.samples.tobytes()
                    and written.samples.shape == read.samples.shape
                    and written.nodata == read.nodata
                    and written.sidecar == read.sidecar,
                    f"RFLT round trip of {name} is not bit-exact")


@dataclass
class ShadowSpan:
    line: np.ndarray  # the mid-building azimuth line of a noise-free render
    bright: float  # median of the whole render
    start: int  # first column past the roof's far edge
    expected: float  # h / cos(theta) / range_per_col


def shadow_span_case(api, seed: int) -> ShadowSpan:
    """Noise-free render of one isolated building (made outside any timing)."""
    rng = np.random.default_rng([seed, 5])
    theta = float(rng.choice([30.0, 35.0, 40.0, 45.0]))
    h = float(rng.integers(15, 31))
    x0 = int(rng.integers(60, 81))
    # The roof lays over h cot(theta) toward the track.  Where that exceeds
    # the roof's width, lit ground west of the building lands right after
    # the roof's far edge, so the box is made wider than its layover.
    x1 = x0 + int(np.ceil(h / np.tan(np.deg2rad(theta)))) + 10
    spec = SceneSpec(extent=(200.0, 200.0), texture_seed=int(rng.integers(2**31)),
                     buildings=(Building(rect=(x0, 60, x1, 140), height=h),),
                     texture_contrast=0.0)
    dem, refl = api.scene_sim.make_scene(spec)
    sar, _, sar_shape, _ = api.scene_sim.canonical_scene_models(spec, sar_theta_deg=theta)
    img = api.scene_sim.render_sar(dem, refl, sar, RenderNoise(), sar_shape, supersample=3)
    row = 100
    _, edge_col = sar_pixel(sar, float(x1), row + 0.5, h)
    return ShadowSpan(
        line=img.samples[row].astype(float).copy(),
        bright=float(np.nanmedian(img.samples)),
        start=int(np.floor(edge_col)) + 1,
        expected=h / np.cos(np.deg2rad(theta)) / sar.range_per_col,
    )


def check_shadow_span(case: ShadowSpan) -> None:
    """The dark run behind the far wall spans h / cos(theta) in slant range."""
    dark = case.line < 0.2 * case.bright
    run = 0
    while case.start + run < dark.size and dark[case.start + run]:
        run += 1
    require(abs(run - case.expected) <= SHADOW_COLS_TOL,
            f"shadow spans {run} columns, expected {case.expected:.2f}")


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def check_noise_free(inp, results) -> None:
    n = 0
    for obs, res in zip(inp.observations, results):
        if obs.noisy or res is None:
            continue
        err = np.abs(res.point.as_array() - obs.point.as_array()).max()
        require(err <= RECON_M_TOL, f"noise-free point off its source by {err:.3g} m")
        n += 1
    require(n > 0, "no noise-free point reconstructed")


def check_sigma_h(inp, results) -> None:
    """Noisy height errors spread as the solver's covariance predicts."""
    err, sig = ops.height_errors(inp, results)
    require(err.size >= 100, "too few noisy points")
    rms = float(np.sqrt(np.mean((err / sig) ** 2)))
    lo, hi = SIGMA_H_BAND
    require(lo <= rms <= hi, f"RMS of error / sigma_h is {rms:.3f}, outside [{lo}, {hi}]")


def ref_height(mode, theta, alpha, hs, ho, h, d_range=0.0, d_alpha=0.0) -> float:
    """Height where the optical ray meets the SAR range circle, in-plane.

    The SAR sensor sits at (R sin theta, hs) with R = (hs - h) / cos theta;
    the optical sensor at height ho looks at (0, h) from off-nadir angle
    alpha, from the SAR's opposite side (x < 0) or the same side (x > 0).
    The range is lengthened by d_range and the optical ray turned about its
    sensor by d_alpha.
    """
    r = (hs - h) / np.cos(theta)
    sx, sz = r * np.sin(theta), hs
    side = -1.0 if mode == "opposite_side" else 1.0
    ox, oz = side * (ho - h) * np.tan(alpha), ho
    a = alpha + d_alpha
    dx, dz = -side * np.sin(a), -np.cos(a)
    # |o + s d - c|^2 = (r + d_range)^2, a quadratic in s with unit d
    px, pz = ox - sx, oz - sz
    b = dx * px + dz * pz
    dist = np.hypot(px, pz)
    c = (dist - (r + d_range)) * (dist + (r + d_range))
    disc = b * b - c
    require(disc > 0, "reference ray misses the range circle")
    q = -(b + np.copysign(np.sqrt(disc), b))
    roots = np.array([q, c / q])
    s = roots[np.argmin(np.abs(roots - (ho - h) / np.cos(alpha)))]
    return oz + s * dz


def ref_sigma_ratio(mode, theta, alpha, hs, ho, h=0.0, factor=1e-6) -> float:
    """sigma_h / sigma_0 from central differences of ref_height."""
    dr, da = 1.0, 1e-6
    dh_dr = (ref_height(mode, theta, alpha, hs, ho, h, d_range=dr)
             - ref_height(mode, theta, alpha, hs, ho, h, d_range=-dr)) / (2 * dr)
    dh_da = (ref_height(mode, theta, alpha, hs, ho, h, d_alpha=da)
             - ref_height(mode, theta, alpha, hs, ho, h, d_alpha=-da)) / (2 * da)
    return float(np.hypot(dh_dr, dh_da * factor))


def check_grid(inp, grids, seed: int, samples: int = 12) -> None:
    rng = np.random.default_rng([seed, 6])
    for job, grid in zip(inp.grids, grids):
        if grid is None:
            continue
        ratio = grid.sigma_ratio
        require(np.array_equal(grid.flags, np.isnan(ratio) | (ratio > 10.0)),
                f"{job.mode}: flags are not exactly the NaN or ratio > 10 cells")
        # flagged cells are near glancing, where the perturbed reference ray
        # can miss the circle; the finite differences sample the others
        valid = np.argwhere(~grid.flags)
        require(len(valid) >= samples, f"{job.mode}: fewer than {samples} unflagged cells")
        for i, j in valid[rng.choice(len(valid), samples, replace=False)]:
            ref = ref_sigma_ratio(job.mode, np.deg2rad(grid.theta_deg[i]),
                                  np.deg2rad(grid.alpha_deg[j]), job.hs, job.ho)
            rel = abs(ratio[i, j] - ref) / ref
            require(rel <= GRID_REL_TOL,
                    f"{job.mode} cell ({i}, {j}): {ratio[i, j]:.9g} vs finite "
                    f"differences {ref:.9g}")


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------

def _sampled_candidates(res) -> list[int]:
    n = len(res.cand_cols)
    return sorted({0, n // 2, n - 1, *(int(k) for k in res.best)})


def _patches(maps, res, k):
    r, c = int(round(res.tie.opt.row)), int(round(res.tie.opt.col))
    rr, cc = int(round(res.cand_rows[k])), int(round(res.cand_cols[k]))
    return maps.opt_img[ops.window(r, c)], maps.sar_db[ops.window(rr, cc)]


def check_candidates(inp, results) -> None:
    """The candidate at the true height is the closed-form SAR projection."""
    opt, sar = inp.scene.opt_model, inp.scene.sar_model
    for res in results:
        tie = res.tie
        k = np.flatnonzero(np.abs(inp.heights - tie.ground.h) < 1e-9)
        require(k.size == 1, "true height is not on the sweep")
        x, y = opt_ground(opt, tie.opt.row, tie.opt.col, tie.ground.h)
        row, col = sar_pixel(sar, x, y, tie.ground.h)
        err = max(abs(res.cand_rows[k[0]] - row), abs(res.cand_cols[k[0]] - col))
        require(err <= TRUTH_PX_TOL, f"candidate at the true height off by {err:.3g} px")


def check_ncc(maps, results) -> None:
    for res in results:
        for k in _sampled_candidates(res):
            a, b = _patches(maps, res, k)
            ref = np.corrcoef(a.ravel(), b.ravel())[0, 1]
            require(abs(res.scores[0, k] - ref) <= SCORE_TOL,
                    f"ncc {res.scores[0, k]!r} != corrcoef {ref!r}")


def nmi_reference(a, b, bins: int = 64) -> float:
    joint, _, _ = np.histogram2d(a.ravel(), b.ravel(), bins=bins,
                                 range=[[a.min(), a.max()], [b.min(), b.max()]])
    p = joint / joint.sum()

    def entropy(q):
        q = q[q > 0]
        return -np.sum(q * np.log(q))

    return float((entropy(p.sum(axis=1)) + entropy(p.sum(axis=0))) / entropy(p))


def check_nmi(maps, results) -> None:
    for res in results:
        for k in _sampled_candidates(res):
            ref = nmi_reference(*_patches(maps, res, k))
            require(abs(res.scores[1, k] - ref) <= SCORE_TOL,
                    f"nmi {res.scores[1, k]!r} != histogram entropies {ref!r}")


def check_descriptors(api, results) -> None:
    """Each descriptor is at distance 0 from itself; SIFT has unit norm."""
    for res in results:
        for name, d in res.descriptors.items():
            require(api.similarity.descriptor_similarity(d, d).value == 0.0,
                    f"{name} is not at distance 0 from itself")
            if name.startswith("sift"):
                norm = np.linalg.norm(d.values)
                require(abs(norm - 1.0) <= 1e-12, f"{name} has norm {norm!r}")


def check_gain_offset(api, maps, results) -> None:
    """NCC and HOG scores do not change under a positive gain and offset."""
    simi = api.similarity
    changed = GAIN * maps.opt_img + OFFSET
    mag_c, ori_c = ops.orientation_maps(*simi.gradient_maps(changed))
    mag_s, ori_s = maps.hog["sar"]
    for res in results:
        r, c = int(round(res.tie.opt.row)), int(round(res.tie.opt.col))
        win_o = ops.window(r, c)
        hog_c = simi.oriented_descriptor_from_maps(mag_c[win_o], ori_c[win_o], ops.CELL, ops.BINS)
        for k in _sampled_candidates(res):
            rr, cc = int(round(res.cand_rows[k])), int(round(res.cand_cols[k]))
            win_s = ops.window(rr, cc)
            v = simi.ncc(Patch(changed[win_o]), Patch(maps.sar_db[win_s])).value
            require(abs(v - res.scores[0, k]) <= 1e-9,
                    f"ncc moved by {abs(v - res.scores[0, k]):.3g} under gain and offset")
            hog_s = simi.oriented_descriptor_from_maps(mag_s[win_s], ori_s[win_s],
                                                       ops.CELL, ops.BINS)
            v = simi.descriptor_similarity(hog_c, hog_s).value
            require(abs(v - res.scores[2, k]) <= 1e-6,
                    f"hog moved by {abs(v - res.scores[2, k]):.3g} under gain and offset")


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

@dataclass
class Outputs:
    """What one run's checks look at: the latest round of each operation."""

    sims: list  # ops.SceneOutput per scene
    recon: object  # ops.ReconInputs
    results: list  # IntersectionResult (or None) per observation
    grids: list  # AccuracyGrid (or None) per grid job
    match: object  # ops.MatchInputs
    maps: object  # ops.MatchMaps
    ties: list  # ops.TieResult per matched tie point
    span: ShadowSpan


def suite(api, seed: int) -> dict[str, Callable[[Outputs], None]]:
    return {
        "simulate.footprints": lambda o: check_footprints(o.sims),
        "simulate.truth_projection": lambda o: check_truth_projection(o.sims),
        "simulate.shadow_horizon": lambda o: check_shadow_horizon(o.sims),
        "simulate.shadow_span": lambda o: check_shadow_span(o.span),
        "simulate.round_trip": lambda o: check_round_trip(o.sims),
        "reconstruct.noise_free": lambda o: check_noise_free(o.recon, o.results),
        "reconstruct.sigma_h": lambda o: check_sigma_h(o.recon, o.results),
        "reconstruct.grid": lambda o: check_grid(o.recon, o.grids, seed),
        "match.candidates": lambda o: check_candidates(o.match, o.ties),
        "match.ncc": lambda o: check_ncc(o.maps, o.ties),
        "match.nmi": lambda o: check_nmi(o.maps, o.ties),
        "match.descriptors": lambda o: check_descriptors(api, o.ties),
        "match.gain_offset": lambda o: check_gain_offset(api, o.maps, o.ties),
    }


def run_suite(api, seed: int, outputs: Outputs) -> dict[str, str]:
    """Failure message of every check that fails; empty when all pass."""
    failures = {}
    for name, check in suite(api, seed).items():
        try:
            check(outputs)
        except CheckFailed as exc:
            failures[name] = str(exc)
    return failures
