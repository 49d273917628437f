"""Synthetic urban scene generator and dual-sensor renderer.

Provides ground-truth correspondences for verifying the matching and
reconstruction pipeline: a DEM of extruded boxes on a ground plane, one
shared procedural reflectance texture, an optical renderer (per-pixel ray
casting against the DEM) and a SAR renderer (forward projection into the
slant-range grid with layover accumulation, shadow darkening and optional
multiplicative speckle).  The two renderers apply different radiometric
transfer functions on purpose, so similarity measures face a genuinely
multimodal problem while the geometry stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter, maximum_filter

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
from sarstereo.raster import (
    BILINEAR_BLOCK,
    GroundGrid,
    Raster,
    bilinear,
    bilinear_axis,
    bilinear_corners,
    bilinear_sum,
    check_integer,
    check_integer_pair,
    check_real,
    linear_bins,
    soft_histogram,
)


TEXTURE_SMOOTHNESS = 2.0  # gaussian sigma of the reflectance texture, in cells
SAR_HEIGHT = 500e3  # canonical SAR track height (m)
OPT_HEIGHT = 700e3  # canonical optical camera height (m)
MARGIN_PX = 8  # canonical SAR range columns kept beyond the scene's extremes


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
        if not all(map(math.isfinite, self.rect)):
            raise ValueError(f"building footprint {self.rect} is not finite")
        if not (x1 > x0 and y1 > y0):
            raise ValueError("degenerate building footprint")
        if not 0 < self.height < math.inf:
            raise ValueError("building height must be finite and > 0")


@dataclass(frozen=True)
class SceneSpec:
    extent: tuple[float, float] = (500.0, 500.0)
    gsd: float = 1.0
    ground_height: float = 0.0
    buildings: tuple[Building, ...] = ()
    texture_seed: int = 0
    texture_contrast: float = 0.6  # peak-to-peak relative amplitude

    def __post_init__(self):
        ex, ey = self.extent
        if not (0 < ex < math.inf and 0 < ey < math.inf and 0 < self.gsd < math.inf):
            raise ValueError("extent and gsd must be finite and positive")
        if not (math.isfinite(self.ground_height) and math.isfinite(self.texture_contrast)):
            raise ValueError("ground_height and texture_contrast must be finite")
        check_integer("texture_seed", self.texture_seed, 0)
        if min(self.shape) < 1:
            raise ValueError(f"extent {self.extent} at gsd {self.gsd} has no grid cell")
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
    """Noise of the two renderers, drawn from generators seeded with seed."""

    optical_sigma: float = 0.0  # additive gaussian, gray levels
    speckle_looks: int | None = None  # None disables speckle
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.optical_sigma < math.inf:
            raise ValueError("optical_sigma must be finite and >= 0")
        looks = self.speckle_looks
        # a bool compares as 0 or 1, so True rendered one look
        if looks is not None and (isinstance(looks, bool) or not 1 <= looks < math.inf):
            raise ValueError(f"speckle_looks must be None or a finite number >= 1, "
                             f"not a bool, got {looks!r}")
        # the renderers draw from seed + 1 and seed + 2
        check_integer("seed", self.seed, 0)


def make_scene(spec: SceneSpec) -> tuple[Raster, Raster]:
    """DEM (ground plane plus extruded boxes) and shared reflectance.

    A building covers the cells whose centre (x, y) has x0 <= x < x1 and
    y0 <= y < y1.  The centres ascend along each axis, so these are one
    range of columns and one of rows, found by binary search.
    """
    rows, cols = spec.shape
    g = spec.gsd
    dem = np.full((rows, cols), spec.ground_height, dtype=float)
    x = (np.arange(cols) + 0.5) * g
    y = (np.arange(rows) + 0.5) * g
    rng = np.random.default_rng(spec.texture_seed)
    base = gaussian_filter(rng.standard_normal((rows, cols)), TEXTURE_SMOOTHNESS)
    base = (base - base.min()) / (base.max() - base.min() + 1e-30)
    refl = 1.0 + spec.texture_contrast * (base - 0.5)
    for b in spec.buildings:
        x0, y0, x1, y1 = b.rect
        inside = tuple(slice(*np.searchsorted(centres, ends))
                       for centres, ends in ((y, (y0, y1)), (x, (x0, x1))))
        dem[inside] = spec.ground_height + b.height
        # distinct roof albedo so building corners carry image structure
        gain = 0.55 + 0.9 * rng.random()
        refl[inside] = np.clip(refl[inside] * gain + 0.25 * (rng.random() - 0.5),
                               0.15, 2.5)
    geo = {"geotransform": {"x0": 0.5 * g, "y0": 0.5 * g, "step": g}}
    dem_raster = Raster(samples=dem.astype(np.float32), sidecar=dict(geo))
    refl_raster = Raster(samples=refl.astype(np.float32), sidecar=dict(geo))
    return dem_raster, refl_raster


def _vertex_bound(z: np.ndarray, lo: np.ndarray, hi: np.ndarray, fill: float,
                  slack: float) -> np.ndarray:
    """Upper bound of the surface bilinear(z, r, c, fill) over boxes of cells.

    lo and hi, (2, m), hold each box's least and greatest (row, col).  On
    the box clipped to the grid the surface is bilinear on each piece that
    the grid lines cut, and a bilinear function is largest at a corner of
    a rectangle.  So when the clipped box holds at most one grid line per
    axis, the surface's maximum over it lies at one of the 3 x 3 points
    {lo, the line, hi} of the two axes, and a position off the grid
    samples fill.  Such a box gets the largest sample at those points,
    raised to at least fill, plus slack for rounding; any other box gets
    inf.
    """
    last = np.array(z.shape)[:, None] - 1
    lo, hi = np.clip(lo, 0, last), np.clip(hi, 0, last)
    line = np.floor(lo) + 1  # the first grid line past lo
    out = np.full(lo.shape[1], np.inf)
    # the lines strictly inside (lo, hi) are line, ..., ceil(hi) - 1
    few = np.flatnonzero(np.all(np.ceil(hi) - line <= 1, axis=0))
    r, c = (np.stack([lo[k, few], np.minimum(line[k, few], hi[k, few]), hi[k, few]])
            for k in (0, 1))
    top = bilinear(z, r[:, None], c[None], fill).max(axis=(0, 1), initial=fill)
    out[few] = top + slack
    return out


def render_optical(
    dem: Raster,
    reflectance: Raster,
    model: OpticalSensorModel,
    noise: RenderNoise,
    shape: tuple[int, int],
) -> Raster:
    """Ray-cast the scene through the central projection camera.

    For every pixel the viewing ray is intersected with the DEM surface by
    marching downward over n_steps + 1 height levels and bisecting the
    first crossing in 22 halvings, so marked ground points project into the
    rendered image within a fraction of a pixel.

    The march skips the heights where no sample can change the outcome.
    Between h_top and the ground a ray's cell position moves along a
    segment, and the computed position at any height in between lies on it
    too, since every floating point step from height to cell is monotone.
    So each ray gets a float64 upper bound of the surface over that
    segment's cell box, with a rounding slack: the DEM maximum over the
    box's bilinear corners, from one maximum filter whose window is the
    frame's widest box (h_top for a ray with a NaN direction).  Where this
    bound lies above the ray's own sample at the ground level and the box,
    clipped to the grid, holds at most one grid line per axis, the bound
    drops to the surface's maximum at the 3 x 3 vertices of the box's
    bilinear pieces, since a bilinear function is largest at a corner of a
    rectangle (_vertex_bound).  The canonical nadir camera's rays sit on
    cell centres, so this lowers an edge ray next to a roof from the roof's
    height to about the ground's.

    At a height above its bound a ray is above the surface, so a sample
    there gives the "not below" branch, and the march takes none: it runs by
    ray, each ray starting at the first level at or below its bound, and
    every ray not yet below the surface is sampled at its own level, one
    level lower each round; at the last level, the ground, a ray reuses its
    sample at the bottom of its segment.  A ray's bracket depends only on
    its crossing level, so the path of a ray never found below the surface
    (hi halves toward lo) is computed once per level.  A ray whose bound
    lies below that path's last and least mid takes the path's result; only
    the others run the 22 halvings, on compact arrays.  Each halving samples
    every ray it bisects, at a mid above the ray's bound too, where the
    bound's slack makes the sample "not below", as the bound alone would.

    Every mid a ray's bisection can reach lies between that least mid and
    the last mid of the path always found below (lo halves toward hi), also
    computed once per level, since each rounded mid is monotone in the
    bracket's ends.  The ray's position is monotone in height, so a ray
    whose positions at those two mids share one grid cell, as bilinear_axis
    takes it, is in that cell at every mid.  Such a ray gathers its four
    DEM corners once, and each halving computes its position, its fractions
    and bilinear_sum of the corners, which are bilinear's own steps on the
    same values.  Only the other rays are sampled by bilinear.

    Every sample taken is computed as in the full-frame march, and every
    level the march skips would have given the branch taken, so the image is
    the one the full-frame march renders, bit for bit.  ValueError is raised
    unless shape is two integers >= 1, and SceneNotVisible when the camera
    does not look down or when no downward ray's box overlaps the DEM.
    """
    check_integer_pair("frame shape", shape, 1)
    grid = GroundGrid.from_raster(dem)
    z = dem.samples
    ground = float(z.min())
    h_top = float(z.max()) + 1e-3
    rows, cols = shape
    n_rays = rows * cols

    rr, cc = np.meshgrid(np.arange(rows, dtype=float),
                         np.arange(cols, dtype=float), indexing="ij")
    w = opt_ray(model, rr, cc).reshape(n_rays, 3)
    del rr, cc
    if not np.any(w[:, 2] < 0):
        raise SceneNotVisible("camera does not look downward")

    def cell_at(idx, h):
        # the rays' directions keep each component contiguous, as opt_ray
        # lays them out, so per-ray arithmetic runs along rows, not triples
        return grid.cell_of(*ray_at_height(model.pc, w.T[:, idx].T, h))

    def surface_at(idx, h):
        return bilinear(z, *cell_at(idx, h), ground)

    # each ray's cell box, (row, col) by ray: the first and last bilinear
    # corner it can touch between h_top and the ground
    every = slice(None)
    top, bottom = np.array(cell_at(every, h_top)), np.array(cell_at(every, ground))
    floor_sample = bilinear(z, *bottom, ground)  # the sample at the ground level
    finite = np.isfinite(top).all(axis=0)
    lo_pos = np.where(finite, np.minimum(top, bottom), 0.0)
    hi_pos = np.where(finite, np.maximum(top, bottom), 0.0)
    del top, bottom
    cells = np.array(z.shape)[:, None]
    first = np.clip(np.floor(lo_pos), 0, np.maximum(cells - 2, 0))
    last = np.clip(np.floor(hi_pos) + 1, first, cells - 1)
    overlaps = np.all((lo_pos <= cells - 1) & (hi_pos >= 0), axis=0)
    if not np.any(finite & overlaps & (w[:, 2] < 0)):
        raise SceneNotVisible("no downward ray of the frame crosses the DEM")
    # the window [first, first + size) holds every ray's box
    size = tuple(int(s) + 1 for s in (last - first).max(axis=1))
    del last
    box_max = maximum_filter(z, size=size, mode="nearest",
                             origin=tuple(-(s // 2) for s in size))
    # a bilinear sample may exceed its largest corner by a few ulps; the
    # bound is float64, where the slack is not rounded away
    slack = 1e-12 * (1.0 + float(np.abs(z).max()))
    bound = np.where(finite, box_max[tuple(first.astype(int))] + np.float64(slack), h_top)
    del first
    near = np.flatnonzero(finite & (bound > floor_sample + slack))
    bound[near] = np.minimum(bound[near], _vertex_bound(z, lo_pos[:, near], hi_pos[:, near],
                                                        ground, slack))
    del lo_pos, hi_pos

    n_steps = max(2, min(160, int(np.ceil((h_top - ground) / (grid.step / 2)))))
    heights = np.linspace(h_top, ground, n_steps + 1)
    # each ray starts at the first level at or below its bound
    level = np.searchsorted(-heights, -bound).astype(np.uint8)
    march = np.flatnonzero(level < n_steps)
    while march.size:
        h = heights[level[march]]
        march = march[~(surface_at(march, h) >= h)]
        level[march] += 1
        march = march[level[march] < n_steps]
    # at the ground level, the last, a ray's sample is its floor sample;
    # level n_steps + 1 marks a ray that never crossed
    level[(level == n_steps) & ~(floor_sample >= ground)] = n_steps + 1

    # a ray's bracket depends only on its crossing level: (ground, ground)
    # for a ray that never crossed
    lo_at = np.append(heights, ground)
    hi_at = np.concatenate([heights[:1], heights[:-1], [ground]])
    halvings = 22
    # a ray never found below the surface halves hi toward lo, and one
    # always found below halves lo toward hi; every mid of a ray's bisection
    # lies between the last mids of these two paths, least and most
    least, most = hi_at, lo_at
    for _ in range(halvings):
        least = (lo_at + least) * 0.5
        most = (most + hi_at) * 0.5
    height = (0.5 * (lo_at + least))[level]
    # a ray whose bound lies below the least mid is never sampled
    decide = np.flatnonzero(bound >= least[level])
    # a ray in the same grid cell at its least and its most mid is in it at
    # every mid, since its position is monotone in height
    ends = [[bilinear_axis(pos, n) for pos, n in zip(cell_at(decide, mids[level[decide]]),
                                                     z.shape)]
            for mids in (least, most)]
    fixed = np.ones(decide.size, dtype=bool)
    for (in_least, at_least, _), (in_most, at_most, _) in zip(*ends):
        fixed &= in_least & in_most & (at_least == at_most)

    def bisect(rays, below_at):
        """Halve the brackets of rays, below_at(mid) telling which rays are
        below the surface at mid."""
        if not rays.size:
            return
        lo, hi = lo_at[level[rays]], hi_at[level[rays]]
        for _ in range(halvings):
            mid = (lo + hi) * 0.5
            below = below_at(mid)
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        height[rays] = 0.5 * (lo + hi)

    # a ray that keeps its cell gathers its four DEM corners once, as
    # float64 as the products take them, and each halving takes only its
    # fractions and the corners' weighted sum
    in_cell = decide[fixed]
    w_cell = w.T[:, in_cell].T
    r0, c0 = (first[fixed] for _, first, _ in ends[0])
    corners = tuple(v.astype(float) for v in bilinear_corners(z, r0, c0))
    r0, c0 = r0.astype(float), c0.astype(float)

    def cell_below(mid):
        r, c = grid.cell_of(*ray_at_height(model.pc, w_cell, mid))
        r -= r0
        c -= c0
        return bilinear_sum(corners, r, c) >= mid

    # any other ray is sampled by bilinear
    moving = decide[~fixed]
    bisect(in_cell, cell_below)
    bisect(moving, lambda mid: surface_at(moving, mid) >= mid)
    img = bilinear(reflectance.samples, *grid.cell_of(*ray_at_height(model.pc, w, height)),
                   float(reflectance.samples.mean())).reshape(shape)
    if noise.optical_sigma > 0:
        rng = np.random.default_rng(noise.seed + 1)
        img = img + rng.normal(0.0, noise.optical_sigma, img.shape)
    return Raster(
        samples=img.astype(np.float32),
        sidecar=model_to_sidecar(model),
    )


def _track_lines(grid: GroundGrid, model: SarSensorModel, sub: float):
    """Samples at spacing sub over the DEM's bounding box in the track frame.

    Rows run along u_hat = v_xy / |v_xy|, one zero-Doppler line each, and
    columns along w_hat = (u_hat_y, -u_hat_x).  Returns the rows' and the
    columns' 1-D offsets u and w from the sensor at t0, and lines(rows), the
    world x and y of the samples of a slice of rows as arrays that broadcast
    to the slice's (rows, columns) shape.  Each coordinate is the sum of a
    column u * u_hat_k and a row w * w_hat_k.  On a track along a grid axis,
    v_x or v_y exactly 0, one of u_hat_k and w_hat_k is 0 for each
    coordinate, which is then the other line alone: a column or a row.
    """
    vx, vy = model.v[:2]
    speed = np.hypot(vx, vy)
    if not speed > 0:
        raise ValueError("SAR track has no horizontal velocity, so no along-track direction")
    frame = np.array([[vx, vy], [vy, -vx]]) / speed  # columns u_hat, w_hat
    lo = np.array([grid.x0, grid.y0]) - grid.step / 2
    hi = lo + grid.step * np.array(grid.raster.samples.shape[::-1])
    corners = np.array([lo, hi, [lo[0], hi[1]], [hi[0], lo[1]]])
    u, w = (e.min() + (np.arange(int(np.ceil(np.ptp(e) / sub - 1e-6))) + 0.5) * sub
            for e in (corners @ frame).T)
    s_u, s_w = model.position(model.t0)[:2] @ frame

    def lines(rows: slice):
        return tuple(w[None] * b if a == 0 else u[rows, None] * a if b == 0
                     else u[rows, None] * a + w[None] * b for a, b in frame)

    return u - s_u, w - s_w, lines


def _shadow_mask(w: np.ndarray, hg: np.ndarray, z_s: float) -> np.ndarray:
    """True where terrain is radar-shadowed, per zero-Doppler row of hg.

    Rows may run along any horizontal heading (a climbing track tilts them by
    v_z / |v_xy|) and columns sit at ascending cross-track offsets w from the
    track; a cell is shadowed when a cell between it and the track, on its
    side of the track, subtends a larger off-nadir angle.
    """
    beta = np.arctan2(np.abs(w), z_s - hg)
    track = np.searchsorted(w, 0.0)  # the first column at or past the track
    left = np.maximum.accumulate(beta[:, :track][:, ::-1], axis=1)[:, ::-1]
    right = np.maximum.accumulate(beta[:, track:], axis=1)
    return beta < np.concatenate([left, right], axis=1) - 1e-12


def render_sar(
    dem: Raster,
    reflectance: Raster,
    model: SarSensorModel,
    noise: RenderNoise,
    shape: tuple[int, int],
    supersample: int = 2,
) -> Raster:
    """Forward-project the scene into the slant-range grid.

    Every ground cell of a supersampled, track-aligned grid that carries
    energy is mapped through the range-Doppler equations and splatted
    bilinearly into its (azimuth row, range col) bin; multiple surfaces
    binned together accumulate (layover), shadowed cells are darkened, and
    gamma-distributed speckle with the configured number of looks multiplies
    the result.  supersample, an integer >= 1, sets the ground samples per
    DEM cell along each axis.  SceneOutsideSwath is raised when the cells
    that carry energy all project outside the grid.

    Every per-sample stage runs in blocks of whole track-frame rows, in row
    order, since a row's shadow needs all of it: world x and y, DEM heights
    and reflectance, the height gradient (taken on the block plus one halo
    row on each side, so it equals the full frame's, one-sided at the
    frame's edges), weighting, shadow, projection of the samples that carry
    energy, density and bins.  A block holds as many rows as fit, with its
    two halo rows, in BILINEAR_BLOCK samples, and at least one.  The DEM and
    the reflectance, stacked once per render, are sampled in one bilinear
    call per block, on the halo rows: one computation of the corners serves
    both grids, and each sample keeps the bytes of its own grid's call.  On
    a track along a grid axis (v_x or v_y exactly 0, v_z free) the samples'
    x and y are a column and a row (_track_lines), which bilinear's tiles
    take whole along their axis of length one: the corners and fractions
    of each row and each column are computed once per tile, and per sample
    only the gathers and the weighted sum.  soft_histogram takes the blocks
    one after another and adds them in sample order, so the image is the
    one a single splat of all samples gives, byte for byte, and memory is
    O(block + output) instead of O(samples), plus the stacked copy of the
    two grids.
    ValueError is raised before any work unless shape is two integers >= 1,
    supersample is an integer >= 1 and the reflectance has the DEM's shape.
    Assumption: along an axis of the track frame that is one sample long
    the slope is taken as 0.
    """
    check_integer_pair("frame shape", shape, 1)
    check_integer("supersample", supersample, 1)
    grid = GroundGrid.from_raster(dem)
    if reflectance.samples.shape != dem.samples.shape:
        raise ValueError(f"reflectance {reflectance.samples.shape} and DEM "
                         f"{dem.samples.shape} must share one grid")
    rows_out, cols_out = shape
    sub = grid.step / supersample
    du, dw, lines = _track_lines(grid, model, sub)
    ground = float(dem.samples.min())
    # both grids in one stack, sampled at one set of corners
    surfaces = np.stack([dem.samples, reflectance.samples])
    z_s = float(model.position(model.t0)[2])
    vnorm = np.linalg.norm(model.v)
    # the look vector's horizontal squares; each block sums
    # (dw^2 + du^2) + (h - z_s)^2, the order of np.linalg.norm(axis=0)
    dw2, du2 = dw * dw, du * du
    rows_per_block = max(1, BILINEAR_BLOCK // dw.size - 2)  # and two halo rows
    spans = []  # each block's least and greatest row and col

    def blocks():
        for start in range(0, du.size, rows_per_block):
            rows = slice(start, start + rows_per_block)
            halo = slice(max(start - 1, 0), start + rows_per_block + 1)
            x, y = lines(halo)
            h, refl = bilinear(surfaces, *grid.cell_of(x, y), (ground, 0.0))
            x, y = np.broadcast_arrays(x, y)
            # local incidence weighting in the track frame: surface normal
            # (-gw, -gu, 1) against the direction back toward the sensor
            gu, gw = (np.gradient(h, sub, axis=k) if h.shape[k] > 1 else np.zeros_like(h)
                      for k in (0, 1))
            b = slice(start - halo.start, start - halo.start + rows_per_block)
            x, y, h, refl, gu, gw = x[b], y[b], h[b], refl[b], gu[b], gw[b]
            lz = h - z_s
            norm = np.sqrt((dw2 + du2[rows, None]) + lz * lz)
            n_norm = np.sqrt(gw * gw + gu * gu + 1.0)
            cos_inc = np.clip((gw * (dw / norm) + gu * (du[rows, None] / norm) - lz / norm)
                              / n_norm, 0.0, 1.0)
            weight = refl * (0.25 + 0.75 * cos_inc)
            weight = np.where(_shadow_mask(dw, h, z_s), 0.03 * weight, weight)
            # only samples that carry energy are projected: the rest, off
            # the DEM with fill reflectance 0 among them, would add +0.0
            lit = weight != 0
            ground_pts, weight = np.stack([x[lit], y[lit], h[lit]]), weight[lit]
            h = ground_pts[2]
            # (n, 3) rows of a (3, n) array: each coordinate is contiguous
            t, slant = sar_forward_array(model, ground_pts.T)
            row = (t - model.t0) / model.az_time_per_row
            col = (slant - model.r_near) / model.range_per_col
            if row.size:
                spans.append((row.min(), row.max(), col.min(), col.max()))
            # energy conservation: a ground sub-cell of size sub x sub
            # covers sub*sin(incidence) of slant range and sub of azimuth
            sz = model.s0[2] + (t - model.t0) * model.v[2]
            sin_inc = np.sqrt(np.clip(1.0 - ((sz - h) / slant) ** 2, 1e-6, 1.0))
            density = (sub * sin_inc / model.range_per_col) * (
                sub / (vnorm * abs(model.az_time_per_row))
            )
            yield (linear_bins(row, rows_out), linear_bins(col, cols_out)), weight * density

    splats = blocks()
    axes, value = next(splats)
    img = soft_histogram(axes, shape, value, more=splats)
    if spans:  # decided over the samples of all blocks
        row_min, _, col_min, _ = np.min(spans, axis=0)
        _, row_max, _, col_max = np.max(spans, axis=0)
        if row_min > rows_out - 1 or row_max < 0 or col_min > cols_out - 1 or col_max < 0:
            raise SceneOutsideSwath("scene footprint misses the SAR grid entirely")

    if noise.speckle_looks is not None:
        rng = np.random.default_rng(noise.seed + 2)
        looks = noise.speckle_looks
        img = img * rng.gamma(looks, 1.0 / looks, img.shape)
    return Raster(
        samples=img.astype(np.float32),
        sidecar=model_to_sidecar(model),
    )


def canonical_scene_models(
    spec: SceneSpec, sar_theta_deg: float = 35.0
) -> tuple[SarSensorModel, OpticalSensorModel, tuple[int, int], tuple[int, int]]:
    """North-aligned spaceborne-like sensor pair covering the scene.

    The SAR track runs along +y at height SAR_HEIGHT west of the scene,
    looking right (east) at the requested incidence angle; azimuth and
    ground-range pixel spacings both equal the scene GSD.  The track starts
    at y = gsd / 2, so SAR row r images the azimuth line y = (r + 1/2) gsd,
    the centre row of DEM and optical row r.  The SAR range window is sized
    from the scene: near range is the slant range of the tallest building's
    roof height at the scene's near (west) edge, less MARGIN_PX columns, so
    no layover is clipped; far range is that of the ground at the far
    (east) edge, plus MARGIN_PX columns.  The optical camera is nadir at
    height OPT_HEIGHT above the scene center with kappa = pi, which makes
    image rows/cols increase with ground y/x at 1 pixel per GSD.  Returned
    shapes are (rows, cols) for the SAR and optical rasters.  sar_theta_deg
    may be of any real type except bool, a numpy scalar included, and is
    taken as a Python float (raster.check_real); ValueError, naming it,
    unless 0 < sar_theta_deg < 90.
    """
    sar_theta_deg = check_real("sar_theta_deg", sar_theta_deg, above=0.0)
    if not sar_theta_deg < 90.0:
        raise ValueError(f"sar_theta_deg must lie in (0, 90), got {sar_theta_deg!r}")
    ex, ey = spec.extent
    g = spec.gsd
    h0 = spec.ground_height
    theta = np.deg2rad(sar_theta_deg)
    cx, cy = ex / 2, ey / 2

    track_x = cx - (SAR_HEIGHT - h0) * np.tan(theta)
    vs = 7500.0
    r_at = lambda xx, hh: float(np.hypot(xx - track_x, SAR_HEIGHT - hh))
    # slant range is smallest at the highest point nearest the track
    h_max = h0 + max((b.height for b in spec.buildings), default=0.0)
    r_near = r_at(0.0, h_max) - MARGIN_PX * g * np.sin(theta)
    rows, opt_cols = spec.shape
    sar_cols = int(np.ceil((r_at(ex, h0) - r_near) / (g * np.sin(theta)))) + MARGIN_PX
    sar = SarSensorModel(
        s0=(track_x, 0.5 * g, SAR_HEIGHT),
        v=(0.0, vs, 0.0),
        t0=0.0,
        az_time_per_row=g / vs,
        r_near=r_near,
        range_per_col=g * np.sin(theta),
        look_side="right",
    )
    opt = OpticalSensorModel(
        pc=(cx, cy, OPT_HEIGHT),
        phi=0.0,
        omega=0.0,
        kappa=np.pi,
        focal=(OPT_HEIGHT - h0) / g,
        principal_row=(rows - 1) / 2.0,
        principal_col=(opt_cols - 1) / 2.0,
    )
    return sar, opt, (rows, sar_cols), (rows, opt_cols)


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
