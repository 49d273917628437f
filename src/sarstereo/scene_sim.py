"""Synthetic urban scene generator and dual-sensor renderer.

Provides ground-truth correspondences for verifying the matching and
reconstruction pipeline: a DEM of extruded boxes on a ground plane, one
shared procedural reflectance texture, an optical renderer (per-pixel ray
casting against the DEM) and a SAR renderer (forward projection into the
slant-range grid with layover accumulation, shadow darkening and optional
multiplicative speckle).  The two renderers apply different radiometric
transfer functions on purpose, so similarity measures face a genuinely
multimodal problem while the geometry stays exact.

Truth visibility holds for any track and camera.  Only the SAR shadow mask
assumes a north-aligned track (v along +/-y, v_z = 0, as canonical_scene_models
makes it), and render_sar raises ValueError for any other track with shadows on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

from sarstereo.geometry import (
    BehindCamera,
    GroundPoint,
    ImagePoint,
    OpticalSensorModel,
    SarSensorModel,
    model_to_sidecar,
    opt_forward,
    opt_ray,
    ray_at_height,
    sar_forward,
    sar_forward_array,
)
from sarstereo.raster import GroundGrid, Raster, bilinear, linear_bins, soft_histogram


class SceneNotVisible(Exception):
    """No ray of the requested optical frame hits the scene."""


class SceneOutsideSwath(Exception):
    """Scene projects outside the configured SAR timing/range grid."""


@dataclass(frozen=True)
class Building:
    rect: tuple[float, float, float, float]  # x0, y0, x1, y1 (meters)
    height: float

    def __post_init__(self):
        x0, y0, x1, y1 = self.rect
        if not (x1 > x0 and y1 > y0):
            raise ValueError("degenerate building footprint")
        if not self.height > 0:
            raise ValueError("building height must be > 0")


@dataclass(frozen=True)
class SceneSpec:
    extent: tuple[float, float] = (500.0, 500.0)
    gsd: float = 1.0
    ground_height: float = 0.0
    buildings: tuple[Building, ...] = ()
    texture_seed: int = 0
    texture_smoothness: float = 2.0  # gaussian sigma, in cells
    texture_contrast: float = 0.6  # peak-to-peak relative amplitude

    def __post_init__(self):
        ex, ey = self.extent
        if not (ex > 0 and ey > 0 and self.gsd > 0):
            raise ValueError("extent and gsd must be positive")
        for b in self.buildings:
            x0, y0, x1, y1 = b.rect
            if not (0 <= x0 and x1 <= ex and 0 <= y0 and y1 <= ey):
                raise ValueError(f"building {b.rect} outside extent")

    @property
    def shape(self) -> tuple[int, int]:
        ex, ey = self.extent
        return int(round(ey / self.gsd)), int(round(ex / self.gsd))


@dataclass(frozen=True)
class RenderNoise:
    """Noise and radiometric switches of the two renderers.

    enable_shadow_layover switches only render_sar's shadow darkening (and
    with it the north-aligned track check); layover, the accumulation of
    surfaces that share a slant-range bin, is always rendered.
    """

    optical_sigma: float = 0.0  # additive gaussian, gray levels
    speckle_looks: int | None = None  # None disables speckle
    enable_shadow_layover: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.optical_sigma < 0:
            raise ValueError("optical_sigma must be >= 0")
        if self.speckle_looks is not None and self.speckle_looks < 1:
            raise ValueError("speckle_looks must be >= 1")


def make_scene(spec: SceneSpec) -> tuple[Raster, Raster]:
    """DEM (ground plane plus extruded boxes) and shared reflectance."""
    rows, cols = spec.shape
    g = spec.gsd
    dem = np.full((rows, cols), spec.ground_height, dtype=float)
    x = (np.arange(cols) + 0.5) * g
    y = (np.arange(rows) + 0.5) * g
    xg, yg = np.meshgrid(x, y)
    rng = np.random.default_rng(spec.texture_seed)
    base = gaussian_filter(rng.standard_normal((rows, cols)),
                           spec.texture_smoothness)
    base = (base - base.min()) / (base.max() - base.min() + 1e-30)
    refl = 1.0 + spec.texture_contrast * (base - 0.5)
    for b in spec.buildings:
        x0, y0, x1, y1 = b.rect
        inside = (xg >= x0) & (xg < x1) & (yg >= y0) & (yg < y1)
        dem[inside] = spec.ground_height + b.height
        # distinct roof albedo so building corners carry image structure
        gain = 0.55 + 0.9 * rng.random()
        refl[inside] = np.clip(refl[inside] * gain + 0.25 * (rng.random() - 0.5),
                               0.15, 2.5)
    geo = {"geotransform": {"x0": 0.5 * g, "y0": 0.5 * g, "step": g}}
    dem_raster = Raster(samples=dem.astype(np.float32), sidecar=dict(geo))
    refl_raster = Raster(samples=refl.astype(np.float32), sidecar=dict(geo))
    return dem_raster, refl_raster


def render_optical(
    dem: Raster,
    reflectance: Raster,
    model: OpticalSensorModel,
    noise: RenderNoise,
    shape: tuple[int, int],
) -> Raster:
    """Ray-cast the scene through the central projection camera.

    For every pixel the viewing ray is intersected with the DEM surface by
    marching downward in height and bisecting the first crossing, so marked
    ground points project into the rendered image within a fraction of a
    pixel.
    """
    grid = GroundGrid.from_raster(dem)
    ground = float(dem.samples.min())
    h_top = float(dem.samples.max()) + 1e-3
    rows, cols = shape

    rr, cc = np.meshgrid(np.arange(rows, dtype=float),
                         np.arange(cols, dtype=float), indexing="ij")
    w = opt_ray(model, rr, cc)
    if not np.any(w[..., 2] < 0):
        raise SceneNotVisible("camera does not look downward")

    def surface_at(h):
        p = ray_at_height(model.pc, w, h)
        return bilinear(dem.samples, *grid.cell_of(p[..., 0], p[..., 1]), ground)

    n_steps = max(2, min(160, int(np.ceil((h_top - ground) / (grid.step / 2)))))
    heights = np.linspace(h_top, ground, n_steps + 1)
    hit_hi = np.full(shape, ground)
    hit_lo = np.full(shape, ground)
    undecided = np.ones(shape, dtype=bool)
    prev_h = heights[0]
    for h in heights:
        if not undecided.any():
            break
        surf = surface_at(h)
        crossed = undecided & (surf >= h)
        hit_hi[crossed] = prev_h
        hit_lo[crossed] = h
        undecided &= ~crossed
        prev_h = h
    # bisect the crossing height; rays that never crossed sit on the ground
    lo, hi = hit_lo.copy(), hit_hi.copy()
    for _ in range(22):
        mid = 0.5 * (lo + hi)
        below = surface_at(mid) >= mid
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    p = ray_at_height(model.pc, w, 0.5 * (lo + hi))
    img = bilinear(reflectance.samples, *grid.cell_of(p[..., 0], p[..., 1]),
                   float(reflectance.samples.mean()))
    if noise.optical_sigma > 0:
        rng = np.random.default_rng(noise.seed + 1)
        img = img + rng.normal(0.0, noise.optical_sigma, img.shape)
    return Raster(
        samples=img.astype(np.float32),
        sidecar=model_to_sidecar(model),
    )


def _shadow_mask(
    xg: np.ndarray, hg: np.ndarray, track_x: float, z_s: float
) -> np.ndarray:
    """True where terrain is radar-shadowed, per azimuth line.

    Cells are scanned in increasing ground distance from the track; a cell
    is shadowed when some nearer cell subtends a larger off-nadir angle.
    """
    dist = np.abs(xg - track_x)
    order = np.argsort(dist[0])
    beta = np.arctan2(dist, z_s - hg)
    beta_sorted = beta[:, order]
    horizon = np.maximum.accumulate(beta_sorted, axis=1)
    shadowed_sorted = beta_sorted < horizon - 1e-12
    out = np.empty_like(shadowed_sorted)
    out[:, order] = shadowed_sorted
    return out


def render_sar(
    dem: Raster,
    reflectance: Raster,
    model: SarSensorModel,
    noise: RenderNoise,
    shape: tuple[int, int],
    supersample: int = 2,
) -> Raster:
    """Forward-project the scene into the slant-range grid.

    Every (supersampled) ground cell is mapped through the range-Doppler
    equations and splatted bilinearly into its (azimuth row, range col)
    bin; multiple surfaces binned together accumulate (layover), shadowed
    cells are darkened, and gamma-distributed speckle with the configured
    number of looks multiplies the result.
    """
    if noise.enable_shadow_layover and (model.v[0] != 0 or model.v[2] != 0):
        raise ValueError("shadow mask assumes a north-aligned track (v along +/-y, v_z = 0)")
    grid = GroundGrid.from_raster(dem)
    rows_out, cols_out = shape
    q = max(1, int(supersample))
    sub = grid.step / q
    rows_in, cols_in = dem.samples.shape
    x = grid.x0 - grid.step / 2 + (np.arange(cols_in * q) + 0.5) * sub
    y = grid.y0 - grid.step / 2 + (np.arange(rows_in * q) + 0.5) * sub
    xg, yg = np.meshgrid(x, y)
    r_idx, c_idx = grid.cell_of(xg, yg)
    ground = float(dem.samples.min())
    hg = bilinear(dem.samples, r_idx, c_idx, ground)
    refl = bilinear(reflectance.samples, r_idx, c_idx, 0.0)

    # local incidence weighting: surface normal (-gx, -gy, 1) against the
    # direction back toward the sensor
    gy, gx = np.gradient(hg, sub)
    s_ref = model.position(model.t0)
    look = np.stack([xg - s_ref[0], yg - s_ref[1], hg - s_ref[2]])
    look /= np.linalg.norm(look, axis=0)
    n_norm = np.sqrt(gx * gx + gy * gy + 1.0)
    cos_inc = np.clip(
        (gx * look[0] + gy * look[1] - look[2]) / n_norm, 0.0, 1.0
    )
    weight = refl * (0.25 + 0.75 * cos_inc)

    if noise.enable_shadow_layover:
        shadowed = _shadow_mask(xg, hg, float(s_ref[0]), float(s_ref[2]))
        weight = np.where(shadowed, 0.03 * weight, weight)

    t, slant = sar_forward_array(model, np.stack([xg, yg, hg], axis=-1))
    row = (t - model.t0) / model.az_time_per_row
    col = (slant - model.r_near) / model.range_per_col
    if row.min() > rows_out - 1 or row.max() < 0 or col.min() > cols_out - 1 or col.max() < 0:
        raise SceneOutsideSwath("scene footprint misses the SAR grid entirely")

    # energy conservation: a ground sub-cell of size sub x sub covers
    # sub*sin(incidence) of slant range and sub of azimuth
    sz = model.s0[2] + (t - model.t0) * model.v[2]
    sin_inc = np.sqrt(np.clip(1.0 - ((sz - hg) / slant) ** 2, 1e-6, 1.0))
    vnorm = np.linalg.norm(model.v)
    density = (sub * sin_inc / model.range_per_col) * (
        sub / (vnorm * abs(model.az_time_per_row))
    )
    value = weight * density

    img = soft_histogram(
        (linear_bins(row, rows_out), linear_bins(col, cols_out)), shape, value
    )

    if noise.speckle_looks is not None:
        rng = np.random.default_rng(noise.seed + 2)
        looks = noise.speckle_looks
        img = img * rng.gamma(looks, 1.0 / looks, img.shape)
    return Raster(
        samples=img.astype(np.float32),
        sidecar=model_to_sidecar(model),
    )


def canonical_scene_models(
    spec: SceneSpec,
    sar_theta_deg: float = 35.0,
    sar_height: float = 500e3,
    opt_height: float = 700e3,
    margin_px: int = 8,
) -> tuple[SarSensorModel, OpticalSensorModel, tuple[int, int], tuple[int, int]]:
    """North-aligned spaceborne-like sensor pair covering the scene.

    The SAR track runs along +y west of the scene looking right (east) at
    the requested incidence angle; azimuth and ground-range pixel spacings
    both equal the scene GSD.  The track starts at y = gsd / 2, so SAR row r
    images the azimuth line y = (r + 1/2) gsd, the centre row of DEM and
    optical row r.  The SAR range window is sized from the
    scene: near range is the slant range of the tallest building's roof
    height at the scene's near (west) edge, less ``margin_px`` columns, so
    no layover is clipped; far range is that of the ground at the far
    (east) edge, plus ``margin_px`` columns.  The optical camera is nadir
    above the scene center with kappa = pi, which makes image rows/cols
    increase with ground y/x at 1 pixel per GSD.  Returned shapes are
    (rows, cols) for the SAR and optical rasters.
    """
    ex, ey = spec.extent
    g = spec.gsd
    h0 = spec.ground_height
    theta = np.deg2rad(sar_theta_deg)
    cx, cy = ex / 2, ey / 2

    track_x = cx - (sar_height - h0) * np.tan(theta)
    vs = 7500.0
    r_at = lambda xx, hh: float(np.hypot(xx - track_x, sar_height - hh))
    # slant range is smallest at the highest point nearest the track
    h_max = h0 + max((b.height for b in spec.buildings), default=0.0)
    r_near = float(r_at(0.0, h_max) - margin_px * g * np.sin(theta))
    sar_rows = int(round(ey / g))
    sar_cols = int(np.ceil((r_at(ex, h0) - r_near) / (g * np.sin(theta)))) + margin_px
    sar = SarSensorModel(
        s0=(track_x, 0.5 * g, sar_height),
        v=(0.0, vs, 0.0),
        t0=0.0,
        az_time_per_row=g / vs,
        r_near=r_near,
        range_per_col=float(g * np.sin(theta)),
        look_side="right",
    )

    opt_rows = int(round(ey / g))
    opt_cols = int(round(ex / g))
    opt = OpticalSensorModel(
        pc=(cx, cy, opt_height),
        phi=0.0,
        omega=0.0,
        kappa=np.pi,
        focal=(opt_height - h0) / g,
        principal_row=(opt_rows - 1) / 2.0,
        principal_col=(opt_cols - 1) / 2.0,
    )
    return sar, opt, (sar_rows, sar_cols), (opt_rows, opt_cols)


@dataclass(frozen=True)
class Correspondence:
    sar: ImagePoint
    opt: ImagePoint
    ground: GroundPoint


@dataclass(frozen=True)
class TruthSet:
    pairs: tuple[Correspondence, ...]
    excluded: tuple[tuple[GroundPoint, str], ...] = field(default_factory=tuple)


def _blocked(grid: GroundGrid, ground: float, top: float, p, q) -> bool:
    """Whether the DEM rises above the segment from point p toward q."""
    d = q - p
    n = max(4, int(np.hypot(d[0], d[1]) / (grid.step / 2)))
    # half-cell samples up to where the segment clears the DEM's top; no
    # surface rises above that, so nothing further along can block it
    k = n if d[2] <= 0 else min(n, int(np.ceil(n * (top - p[2]) / d[2])) + 1)
    ts = np.arange(1, k) * (1.0 / n)
    xs, ys = p[0] + ts * d[0], p[1] + ts * d[1]
    surf = bilinear(grid.raster.samples, *grid.cell_of(xs, ys), ground)
    return bool(np.any(surf > p[2] + ts * d[2] + 1e-6))


def ground_truth_correspondences(
    dem: Raster,
    sar_model: SarSensorModel,
    opt_model: OpticalSensorModel,
    points,
    sar_shape: tuple[int, int] | None = None,
    opt_shape: tuple[int, int] | None = None,
) -> TruthSet:
    """Exact image-coordinate pairs of visible ground points.

    Points radar-shadowed, occluded for the optical camera or behind it are
    excluded with a reason code; optional raster shapes additionally reject
    points projecting outside either frame.
    """
    grid = GroundGrid.from_raster(dem)
    ground = float(dem.samples.min())
    top = float(dem.samples.max())
    pairs = []
    excluded = []
    for p in points:
        obs = sar_forward(sar_model, p)
        a = p.as_array()
        if _blocked(grid, ground, top, a, sar_model.position(obs.t)):
            excluded.append((p, "sar_shadow"))
            continue
        if _blocked(grid, ground, top, a, opt_model.pc):
            excluded.append((p, "optical_occluded"))
            continue
        try:
            opt_ip = opt_forward(opt_model, p)
        except BehindCamera:
            excluded.append((p, "behind_camera"))
            continue
        sar_ip = sar_model.pixel_from_obs(obs)
        if sar_shape is not None and not (
            0 <= sar_ip.row <= sar_shape[0] - 1
            and 0 <= sar_ip.col <= sar_shape[1] - 1
        ):
            excluded.append((p, "outside_sar"))
            continue
        if opt_shape is not None and not (
            0 <= opt_ip.row <= opt_shape[0] - 1
            and 0 <= opt_ip.col <= opt_shape[1] - 1
        ):
            excluded.append((p, "outside_optical"))
            continue
        pairs.append(Correspondence(sar=sar_ip, opt=opt_ip, ground=p))
    return TruthSet(pairs=tuple(pairs), excluded=tuple(excluded))
