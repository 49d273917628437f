"""Patch similarity measures for multimodal image matching.

Five measures under one contract: higher score means more similar.

* NCC  - normalized cross-correlation, in [-1, 1]
* MI   - normalized mutual information (H(I)+H(J))/H(I,J), in [1, 2]
* HOG  - histogram of oriented gradients, compared by negative L2 distance
* SIFT - the 128-element descriptor at fixed scale and zero orientation
* HOPC - oriented histograms of phase congruency, negative L2 distance

Descriptor scores are at most 0 (identical descriptors).  The descriptor
pipelines are deterministic and reusable from dense per-image feature maps,
which the matcher exploits to avoid recomputing transforms per-candidate.
HOG, SIFT and HOPC bin their orientations with raster.soft_histogram.

A map-path descriptor (oriented_descriptor_from_maps, hopc_from_maps on a
window of whole-image maps) is not the per-patch one, so score both sides of
a comparison by the same path.  HOG differs on the window's border pixels,
where the patch's np.gradient takes one-sided differences; HOPC differs
throughout, because the patch's filter bank wraps around the patch edge in
the FFT.  On 51 px windows of the benchmark's seed-971 stereo scene the
largest differences per element were 0.23 (HOG) and 0.53 (HOPC) on the
optical image, 0.10 and 1.0 on the SAR image in dB.  sift_from_gradients
equals sift_descriptor whenever its 4x4-cell footprint keeps one pixel off
the patch border.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from sarstereo.raster import linear_bins, soft_histogram

NCC = "NCC"
MI = "MI"
HOG = "HOG"
SIFT = "SIFT"
HOPC = "HOPC"
MEASURES = (NCC, MI, HOG, SIFT, HOPC)

HOG_EPS = 1e-5
SIFT_CLIP = 0.2


class SimilarityError(Exception):
    """Base class for per-candidate measure failures."""


class ConstantPatch(SimilarityError):
    """A patch without variation cannot be normalized."""


class DegenerateHistogram(SimilarityError):
    """A patch occupying a single intensity bin has no entropy."""


class LayoutMismatch(SimilarityError):
    """Descriptors with different layouts cannot be compared."""


@dataclass(frozen=True)
class Patch:
    """Square odd-sized sample grid extracted around a point."""

    samples: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"patch must be square, got {a.shape}")
        if a.shape[0] % 2 == 0:
            raise ValueError(f"patch side must be odd, got {a.shape[0]}")
        if not np.all(np.isfinite(a)):
            raise ValueError("patch contains non-finite samples")
        object.__setattr__(self, "samples", a)

    @property
    def template_size(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class Descriptor:
    values: np.ndarray
    layout: tuple[int, int, int]  # (cells_x, cells_y, bins)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        cx, cy, nb = self.layout
        if len(v) != cx * cy * nb:
            raise ValueError("descriptor length does not match layout")
        if not np.all(np.isfinite(v)):
            raise ValueError("descriptor contains non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SimilarityScore:
    value: float
    measure: str


# ---------------------------------------------------------------------------
# signal-based measures
# ---------------------------------------------------------------------------

def ncc(i: Patch, j: Patch) -> SimilarityScore:
    """Normalized cross-correlation coefficient with N-1 normalization."""
    a, b = i.samples, j.samples
    if a.shape != b.shape:
        raise ValueError("patches must have equal sizes")
    n = a.size
    da = a - a.mean()
    db = b - b.mean()
    sa = np.sqrt(np.sum(da * da) / (n - 1))
    sb = np.sqrt(np.sum(db * db) / (n - 1))
    if sa == 0.0 or sb == 0.0:
        raise ConstantPatch("zero variance patch in NCC")
    rho = float(np.sum(da * db) / ((n - 1) * sa * sb))
    if abs(rho) > 1.0 + 1e-12:
        raise AssertionError(f"NCC out of range: {rho}")
    return SimilarityScore(value=min(1.0, max(-1.0, rho)), measure=NCC)


def _quantize(a: np.ndarray, bins: int) -> np.ndarray:
    lo, hi = float(a.min()), float(a.max())
    if hi == lo:
        raise DegenerateHistogram("patch occupies a single intensity bin")
    idx = ((a - lo) / (hi - lo) * bins).astype(np.int64)
    return np.minimum(idx, bins - 1)


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def nmi(i: Patch, j: Patch, bins: int = 64) -> SimilarityScore:
    """Normalized mutual information (H(I) + H(J)) / H(I, J) in [1, 2]."""
    a, b = i.samples, j.samples
    if a.shape != b.shape:
        raise ValueError("patches must have equal sizes")
    ia = _quantize(a, bins)
    ib = _quantize(b, bins)
    joint = np.bincount(ia.ravel() * bins + ib.ravel(), minlength=bins * bins)
    pj = joint / joint.sum()
    pa = pj.reshape(bins, bins).sum(axis=1)
    pb = pj.reshape(bins, bins).sum(axis=0)
    h_joint = _entropy(pj)
    if h_joint == 0.0:
        raise DegenerateHistogram("joint histogram is a single bin")
    value = (_entropy(pa) + _entropy(pb)) / h_joint
    return SimilarityScore(value=float(value), measure=MI)


# ---------------------------------------------------------------------------
# oriented-histogram machinery shared by HOG and HOPC
# ---------------------------------------------------------------------------

def gradient_maps(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients (gx along cols, gy along rows)."""
    gy, gx = np.gradient(np.asarray(image, dtype=float))
    return gx, gy


def _orientation_bins(ori: np.ndarray, period: float, bins: int):
    """linear_bins over a circular orientation axis of the given period."""
    return linear_bins(np.mod(ori, period) / period * bins - 0.5, bins, wrap=True)


def _block_normalize(hist: np.ndarray) -> np.ndarray:
    """L2-normalize each cell by its 2x2 block (clamped at the far edges)."""
    energy = np.pad(np.sum(hist * hist, axis=2), ((0, 1), (0, 1)))
    block = energy[:-1, :-1] + energy[1:, :-1] + energy[:-1, 1:] + energy[1:, 1:]
    return hist / np.sqrt(block + HOG_EPS**2)[..., None]


def oriented_descriptor_from_maps(
    mag: np.ndarray, ori: np.ndarray, cell: int, bins: int
) -> Descriptor:
    """Cell/block descriptor from per-pixel magnitude and orientation maps.

    The maps must be square and span at least 2x2 cells; pixels beyond the
    last whole cell are ignored.  Orientations are unsigned (period pi) and
    split linearly between the two nearest of the bins.
    """
    side = mag.shape[0]
    if mag.shape != ori.shape or mag.shape != (side, side) or side // cell < 2:
        raise ValueError(
            f"maps must be square and span at least 2x2 cells of {cell} px, "
            f"got {mag.shape} and {ori.shape}"
        )
    n = side // cell
    used = n * cell
    cell_of = np.arange(used) // cell
    hist = soft_histogram(
        ([(cell_of[:, None], None)], [(cell_of[None, :], None)],
         _orientation_bins(ori[:used, :used], np.pi, bins)),
        (n, n, bins),
        mag[:used, :used],
    )
    return Descriptor(values=_block_normalize(hist).ravel(), layout=(n, n, bins))


def hog_descriptor(p: Patch, cell: int = 17, bins: int = 8) -> Descriptor:
    """Histogram of oriented gradients over a dense cell grid."""
    gx, gy = gradient_maps(p.samples)
    mag = np.hypot(gx, gy)
    ori = np.mod(np.arctan2(gy, gx), np.pi)
    return oriented_descriptor_from_maps(mag, ori, cell, bins)


# ---------------------------------------------------------------------------
# SIFT descriptor at fixed scale and orientation
# ---------------------------------------------------------------------------

def sift_from_gradients(
    gx: np.ndarray,
    gy: np.ndarray,
    center_row: int,
    center_col: int,
    scale: float = 10.0,
) -> Descriptor:
    """128-element SIFT descriptor around (center_row, center_col).

    4x4 spatial cells of side equal to the scale, 8 signed orientation bins,
    keypoint orientation fixed at zero, Gaussian weighting with sigma equal
    to the scale, trilinear interpolation, then the usual normalize / clip
    at 0.2 / renormalize.
    """
    d = 4
    half = int(round(d / 2 * scale))
    r0, r1 = center_row - half, center_row + half + 1
    c0, c1 = center_col - half, center_col + half + 1
    if r0 < 0 or c0 < 0 or r1 > gx.shape[0] or c1 > gx.shape[1]:
        raise ValueError("patch too small for the 4x4-cell footprint")
    wx = gx[r0:r1, c0:c1]
    wy = gy[r0:r1, c0:c1]
    off = np.arange(-half, half + 1, dtype=float)
    du, dv = np.meshgrid(off, off)  # dv rows, du cols
    weight = np.hypot(wx, wy) * np.exp(-(du * du + dv * dv) / (2.0 * scale * scale))
    hist = soft_histogram(
        (linear_bins(dv / scale + (d - 1) / 2.0, d),
         linear_bins(du / scale + (d - 1) / 2.0, d),
         _orientation_bins(np.arctan2(wy, wx), 2 * np.pi, 8)),
        (d, d, 8),
        weight,
    )
    vec = hist.ravel()
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec = np.minimum(vec / norm, SIFT_CLIP)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
    return Descriptor(values=vec, layout=(d, d, 8))


def sift_descriptor(p: Patch, scale: float = 10.0) -> Descriptor:
    """SIFT descriptor of the patch center at fixed scale, zero orientation."""
    gx, gy = gradient_maps(p.samples)
    c = p.template_size // 2
    return sift_from_gradients(gx, gy, c, c, scale=scale)


# ---------------------------------------------------------------------------
# phase congruency (log-Gabor filter bank) and HOPC
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _log_gabor_bank(
    shape: tuple[int, int],
    scales: int,
    orientations: int,
    min_wavelength: float,
    mult: float,
    sigma_onf: float,
):
    """Frequency-domain log-Gabor filters: radial parts and angular spreads."""
    rows, cols = shape
    fy = np.fft.fftshift(np.fft.fftfreq(rows))
    fx = np.fft.fftshift(np.fft.fftfreq(cols))
    x, y = np.meshgrid(fx, fy)
    radius = np.hypot(x, y)
    cy, cx = rows // 2, cols // 2
    radius[cy, cx] = 1.0
    # row-positive angle convention, consistent with arctan2(gy, gx) used
    # for gradient orientations elsewhere in the package
    theta = np.arctan2(y, x)
    sintheta, costheta = np.sin(theta), np.cos(theta)

    # low-pass keeps the corners of the spectrum from leaking in
    normradius = radius / np.abs(x).max() / 2.0
    lowpass = 1.0 / (1.0 + (normradius / 0.45) ** 30)

    radials = []
    for s in range(scales):
        f0 = 1.0 / (min_wavelength * mult**s)
        lg = np.exp(-(np.log(radius / f0) ** 2) / (2 * np.log(sigma_onf) ** 2))
        lg = lg * lowpass
        lg[cy, cx] = 0.0
        radials.append(np.fft.ifftshift(lg))

    spreads = []
    for o in range(orientations):
        angle = o * np.pi / orientations
        ds = sintheta * np.cos(angle) - costheta * np.sin(angle)
        dc = costheta * np.cos(angle) + sintheta * np.sin(angle)
        dtheta = np.minimum(np.abs(np.arctan2(ds, dc)) * orientations / 2, np.pi)
        spreads.append(np.fft.ifftshift((np.cos(dtheta) + 1) / 2))
    return radials, spreads


def phase_congruency_maps(
    image: np.ndarray,
    scales: int = 4,
    orientations: int = 6,
    min_wavelength: float = 3.0,
    mult: float = 2.1,
    sigma_onf: float = 0.55,
    noise_k: float = 2.0,
    cut_off: float = 0.5,
    gain: float = 10.0,
    epsilon: float = 1e-4,
) -> tuple[np.ndarray, np.ndarray]:
    """Phase congruency magnitude and dominant congruency orientation.

    Returns (pc, ori): pc in [0, 1] is the noise-thresholded, weighted phase
    congruency summed over orientations; ori is the angle (radians, [0, pi))
    maximizing the continuous angular congruency profile interpolated from
    the per-orientation responses (the axial vector sum with doubled
    angles).  Maximizing over the continuum instead of the 6 sampled filter
    directions keeps the orientation stable when structure falls between
    filters, which monotone radiometric changes would otherwise flip.  The
    input is contrast-normalized so pc is invariant to positive gain.
    """
    img = np.asarray(image, dtype=float)
    std = img.std()
    if std > 0:
        img = (img - img.mean()) / std
    fimg = np.fft.fft2(img)
    radials, spreads = _log_gabor_bank(
        img.shape, scales, orientations, min_wavelength, mult, sigma_onf
    )

    numer_total = np.zeros(img.shape)
    sum_an_total = np.zeros(img.shape)
    pc_by_orient = np.empty((orientations,) + img.shape)
    for o in range(orientations):
        sum_e = np.zeros(img.shape)
        sum_o = np.zeros(img.shape)
        sum_an = np.zeros(img.shape)
        eo = []
        tau = 0.0
        for s in range(scales):
            resp = np.fft.ifft2(fimg * radials[s] * spreads[o])
            e, od = resp.real, resp.imag
            an = np.abs(resp)
            eo.append((e, od))
            sum_e += e
            sum_o += od
            sum_an += an
            if s == 0:
                tau = np.median(an) / np.sqrt(np.log(4))
                max_an = an
            else:
                max_an = np.maximum(max_an, an)

        x_energy = np.hypot(sum_e, sum_o) + epsilon
        mean_e = sum_e / x_energy
        mean_o = sum_o / x_energy
        energy = np.zeros(img.shape)
        for e, od in eo:
            energy += e * mean_e + od * mean_o - np.abs(e * mean_o - od * mean_e)

        # Rayleigh statistics of the noise response estimated at the
        # smallest scale, extrapolated across the geometric filter series
        total_tau = tau * (1 - (1 / mult) ** scales) / (1 - 1 / mult)
        noise_mean = total_tau * np.sqrt(np.pi / 2)
        noise_sigma = total_tau * np.sqrt((4 - np.pi) / 2)
        threshold = noise_mean + noise_k * noise_sigma
        energy = np.maximum(energy - threshold, 0.0)

        width = (sum_an / (max_an + epsilon) - 1.0) / (scales - 1)
        weight = 1.0 / (1.0 + np.exp(gain * (cut_off - width)))

        numer = weight * energy
        pc_by_orient[o] = numer / (sum_an + epsilon)
        numer_total += numer
        sum_an_total += sum_an

    pc = np.clip(numer_total / (sum_an_total + epsilon), 0.0, 1.0)
    angles = np.arange(orientations) * np.pi / orientations
    cos_sum = np.tensordot(np.cos(2 * angles), pc_by_orient, axes=(0, 0))
    sin_sum = np.tensordot(np.sin(2 * angles), pc_by_orient, axes=(0, 0))
    ori = np.mod(0.5 * np.arctan2(sin_sum, cos_sum), np.pi)
    return pc, ori


HOPC_PC_FLOOR = 0.1


def hopc_from_maps(
    pc: np.ndarray, ori: np.ndarray, cell: int = 17, bins: int = 8
) -> Descriptor:
    """HOPC descriptor from precomputed phase congruency maps.

    Congruency below HOPC_PC_FLOOR is zeroed before binning: filter-sidelobe
    leakage in structureless regions carries an arbitrary orientation, and
    block normalization would otherwise inflate it to full descriptor
    weight.
    """
    mag = np.where(pc >= HOPC_PC_FLOOR, pc, 0.0)
    return oriented_descriptor_from_maps(mag, ori, cell, bins)


def hopc_descriptor(
    p: Patch,
    cell: int = 17,
    bins: int = 8,
    scales: int = 4,
    orientations: int = 6,
) -> Descriptor:
    """HOG-style descriptor over phase congruency instead of gradients."""
    if p.template_size < 32:
        raise ValueError("patch side must be at least 32 for the filter bank")
    pc, ori = phase_congruency_maps(p.samples, scales, orientations)
    return hopc_from_maps(pc, ori, cell, bins)


def descriptor_similarity(
    a: Descriptor, b: Descriptor, measure: str = HOG
) -> SimilarityScore:
    """Negative L2 distance between descriptors; 0 means identical."""
    if a.layout != b.layout:
        raise LayoutMismatch(f"layouts differ: {a.layout} vs {b.layout}")
    return SimilarityScore(
        value=-float(np.linalg.norm(a.values - b.values)), measure=measure
    )
