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

What depends only on a window's geometry is built once and cached as
read-only arrays, so that an in-place write by a caller raises instead of
altering later calls: the flat cell index of HOG and HOPC per (window side,
cell), SIFT's footprint half-size, Gaussian weight and spatial corners per
scale (the 4 row and column corner pairs, each as a flat offset into the
4x4x8 histogram with its two weights), and the log-Gabor filter bank of
phase congruency per image shape (80 B per pixel of its shape, for up to 8
shapes).  A descriptor call then does only per-pixel work: the magnitudes,
the orientation corners (for SIFT, added to the spatial offsets) and one
bincount per combination of corners.  A cell, bin count or scale out of
range raises ValueError before any cache is read.

What depends only on one patch is kept by the Patch: its centred samples
and standard deviation for ncc, and its intensity bin indices for nmi, each
computed on first use.  A matcher that scores one optical patch against
many candidates computes that patch's terms once.  A constant patch keeps
nothing and raises on every call.

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

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from sarstereo.raster import (BILINEAR_BLOCK, check_integer, check_real, linear_bins,
                              soft_histogram)

NCC = "NCC"
MI = "MI"
HOG = "HOG"
SIFT = "SIFT"
HOPC = "HOPC"

HOG_EPS = 1e-5
SIFT_CLIP = 0.2
NMI_BINS = 64  # intensity bins of each patch in nmi

# Kovesi's published phase congruency defaults (see phase_congruency_maps)
PC_SCALES = 4
PC_ORIENTATIONS = 6
PC_MIN_WAVELENGTH = 3.0
PC_MULT = 2.1
PC_SIGMA_ONF = 0.55
PC_NOISE_K = 2.0
PC_CUT_OFF = 0.5
PC_GAIN = 10.0
PC_EPSILON = 1e-4


class SimilarityError(Exception):
    """Base class for per-candidate measure failures."""


class ConstantPatch(SimilarityError):
    """A patch without variation cannot be normalized."""


class DegenerateHistogram(SimilarityError):
    """A patch occupying a single intensity bin has no entropy."""


class LayoutMismatch(SimilarityError):
    """Descriptors with different layouts cannot be compared."""


@dataclass(frozen=True, eq=False)
class Patch:
    """Square odd-sized sample grid extracted around a point.

    samples is a read-only float64 copy of the grid passed in, so a later
    write into that grid changes neither the patch nor the terms it keeps
    for ncc and nmi, and a write into samples raises.
    """

    samples: np.ndarray

    def __post_init__(self):
        a = np.array(self.samples, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"patch must be square, got {a.shape}")
        if a.shape[0] % 2 == 0:
            raise ValueError(f"patch side must be odd, got {a.shape[0]}")
        if not np.all(np.isfinite(a)):
            raise ValueError("patch contains non-finite samples")
        _read_only(a)
        object.__setattr__(self, "samples", a)

    @property
    def template_size(self) -> int:
        return self.samples.shape[0]

    @cached_property
    def _ncc_terms(self) -> tuple[np.ndarray, float]:
        """The centred samples and their standard deviation, N - 1 normalized;
        ncc reads them only for patches of more than one sample."""
        centred = self.samples - self.samples.mean()
        sigma = np.sqrt(np.sum(centred * centred) / (self.samples.size - 1))
        _read_only(centred)
        return centred, sigma

    @cached_property
    def _nmi_bins(self) -> np.ndarray:
        """The flat intensity bin index of each sample; DegenerateHistogram,
        which is not kept, if the patch is constant."""
        bins = _quantize(self.samples, NMI_BINS).ravel()
        _read_only(bins)
        return bins


@lru_cache(maxsize=16, typed=True)
def _layout_size(cells_x, cells_y, bins) -> int:
    """A descriptor's length, cached as one is built per candidate; ValueError
    unless each is an integer >= 1 (the cache is typed, so True is not 1)."""
    for n in (cells_x, cells_y, bins):
        check_integer("layout entry", n, 1)
    return cells_x * cells_y * bins


@dataclass(frozen=True, eq=False)
class Descriptor:
    values: np.ndarray
    layout: tuple[int, int, int]  # (cells_x, cells_y, bins)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if len(v) != _layout_size(*self.layout):
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
    if n == 1:
        raise ConstantPatch("a one-sample patch has no variance")
    da, sa = i._ncc_terms
    db, sb = j._ncc_terms
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


def nmi(i: Patch, j: Patch) -> SimilarityScore:
    """Normalized mutual information (H(I) + H(J)) / H(I, J) in [1, 2]."""
    if i.samples.shape != j.samples.shape:
        raise ValueError("patches must have equal sizes")
    joint = np.bincount(i._nmi_bins * NMI_BINS + j._nmi_bins, minlength=NMI_BINS**2)
    pj = joint / joint.sum()
    pa = pj.reshape(NMI_BINS, NMI_BINS).sum(axis=1)
    pb = pj.reshape(NMI_BINS, NMI_BINS).sum(axis=0)
    # _quantize puts each patch in its first and last bin, so the joint fills two
    value = (_entropy(pa) + _entropy(pb)) / _entropy(pj)
    return SimilarityScore(value=float(value), measure=MI)


# ---------------------------------------------------------------------------
# oriented-histogram machinery shared by HOG and HOPC
# ---------------------------------------------------------------------------

def _read_only(*arrays: np.ndarray) -> None:
    """Lock cached arrays, so a caller's in-place write cannot alter later calls."""
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=16)
def _cell_index(side: int, cell: int) -> np.ndarray:
    """Flat cell index, row cell * n + column cell, of each pixel of the used window."""
    n = side // cell
    cell_of = np.arange(n * cell) // cell
    index = cell_of[:, None] * n + cell_of[None, :]
    _read_only(index)
    return index


def gradient_maps(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients (gx along cols, gy along rows)."""
    gy, gx = np.gradient(np.asarray(image, dtype=float))
    return gx, gy


def _orientation_bins(ori: np.ndarray, period: float, bins: int):
    """linear_bins over a circular orientation axis of the given period."""
    if ori.min() >= -period and ori.max() < period:
        # np.mod's exact result on this range (an arctan2 angle, or an
        # orientation map already reduced) at a fraction of its cost
        ori = ori + (ori < 0) * period
    else:
        ori = np.mod(ori, period)
    return linear_bins(ori / period * bins - 0.5, bins, wrap=True)


def _block_normalize(hist: np.ndarray) -> np.ndarray:
    """L2-normalize each cell by its 2x2 block (clamped at the far edges)."""
    rows, cols = hist.shape[:2]
    # the cell energies with a zero row and column past the far edges
    energy = np.zeros((rows + 1, cols + 1))
    energy[:-1, :-1] = np.sum(hist * hist, axis=2)
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
    check_integer("cell", cell, 1)
    check_integer("bins", bins, 1)
    side = mag.shape[0]
    if mag.shape != ori.shape or mag.shape != (side, side) or side // cell < 2:
        raise ValueError(
            f"maps must be square and span at least 2x2 cells of {cell} px, "
            f"got {mag.shape} and {ori.shape}"
        )
    n = side // cell
    used = n * cell
    hist = soft_histogram(
        ([(_cell_index(side, cell), None)],
         _orientation_bins(ori[:used, :used], np.pi, bins)),
        (n * n, bins),
        mag[:used, :used],
    )
    hist = _block_normalize(hist.reshape(n, n, bins))
    return Descriptor(values=hist.ravel(), layout=(n, n, bins))


def hog_descriptor(p: Patch, cell: int = 17, bins: int = 8) -> Descriptor:
    """Histogram of oriented gradients over a dense cell grid."""
    gx, gy = gradient_maps(p.samples)
    mag = np.hypot(gx, gy)
    ori = np.mod(np.arctan2(gy, gx), np.pi)
    return oriented_descriptor_from_maps(mag, ori, cell, bins)


# ---------------------------------------------------------------------------
# SIFT descriptor at fixed scale and orientation
# ---------------------------------------------------------------------------

SIFT_CELLS = 4  # spatial cells per side
SIFT_BINS = 8  # signed orientation bins per cell


@lru_cache(maxsize=8)
def _sift_layout(scale: float):
    """Footprint half-size, Gaussian weight and spatial corners at this scale.

    The spatial corners are the 4 (row corner, column corner) pairs in the
    order of itertools.product, each the flat offset row * 32 + column * 8
    of its 4x4x8 histogram cell with the weights (w_row, w_col).
    """
    half = int(round(SIFT_CELLS / 2 * scale))
    off = np.arange(-half, half + 1, dtype=float)
    # whole footprints: the per-corner products run faster without broadcasting
    du, dv = np.meshgrid(off, off)  # dv rows, du cols
    gauss = np.exp(-(du * du + dv * dv) / (2.0 * scale * scale))
    rows = linear_bins(dv / scale + (SIFT_CELLS - 1) / 2.0, SIFT_CELLS)
    cols = linear_bins(du / scale + (SIFT_CELLS - 1) / 2.0, SIFT_CELLS)
    spatial = tuple((r * (SIFT_CELLS * SIFT_BINS) + c * SIFT_BINS, (wr, wc))
                    for (r, wr), (c, wc) in itertools.product(rows, cols))
    _read_only(gauss, *(a for offset, weights in spatial for a in (offset, *weights)))
    return half, gauss, spatial


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
    at 0.2 / renormalize.  ValueError unless center_row and center_col are
    integers >= 0, not bools, and the footprint lies within the maps.
    """
    scale = check_real("scale", scale, above=0.0)
    check_integer("center_row", center_row, 0)
    check_integer("center_col", center_col, 0)
    d, nb = SIFT_CELLS, SIFT_BINS
    half, gauss, spatial = _sift_layout(scale)
    r0, r1 = center_row - half, center_row + half + 1
    c0, c1 = center_col - half, center_col + half + 1
    if r0 < 0 or c0 < 0 or r1 > gx.shape[0] or c1 > gx.shape[1]:
        raise ValueError("patch too small for the 4x4-cell footprint")
    wx = gx[r0:r1, c0:c1]
    wy = gy[r0:r1, c0:c1]
    ori = _orientation_bins(np.arctan2(wy, wx), 2 * np.pi, nb)
    # the (row, column, orientation) axes as one axis of 8 corners, in the
    # order of their product, so the splat's products and sums are theirs
    vec = soft_histogram(
        ([(offset + o, (*weights, wo)) for offset, weights in spatial for o, wo in ori],),
        (d * d * nb,),
        np.hypot(wx, wy) * gauss,
    )
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec = np.minimum(vec / norm, SIFT_CLIP)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
    return Descriptor(values=vec, layout=(d, d, nb))


def sift_descriptor(p: Patch, scale: float = 10.0) -> Descriptor:
    """SIFT descriptor of the patch center at fixed scale, zero orientation."""
    gx, gy = gradient_maps(p.samples)
    c = p.template_size // 2
    return sift_from_gradients(gx, gy, c, c, scale=scale)


# ---------------------------------------------------------------------------
# phase congruency (log-Gabor filter bank) and HOPC
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _log_gabor_bank(shape: tuple[int, int]):
    """Frequency-domain log-Gabor filters: radial parts and angular spreads.

    The filters are cached per shape and read-only: every later call of that
    shape shares them.
    """
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
    for s in range(PC_SCALES):
        f0 = 1.0 / (PC_MIN_WAVELENGTH * PC_MULT**s)
        lg = np.exp(-(np.log(radius / f0) ** 2) / (2 * np.log(PC_SIGMA_ONF) ** 2))
        lg = lg * lowpass
        lg[cy, cx] = 0.0
        radials.append(np.fft.ifftshift(lg))

    spreads = []
    for o in range(PC_ORIENTATIONS):
        angle = o * np.pi / PC_ORIENTATIONS
        ds = sintheta * np.cos(angle) - costheta * np.sin(angle)
        dc = costheta * np.cos(angle) + sintheta * np.sin(angle)
        dtheta = np.minimum(np.abs(np.arctan2(ds, dc)) * PC_ORIENTATIONS / 2, np.pi)
        spreads.append(np.fft.ifftshift((np.cos(dtheta) + 1) / 2))
    _read_only(*radials, *spreads)
    return tuple(radials), tuple(spreads)


def phase_congruency_maps(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase congruency magnitude and dominant congruency orientation.

    Returns (pc, ori): pc in [0, 1] is the noise-thresholded, weighted phase
    congruency summed over orientations; ori is the angle (radians, [0, pi))
    maximizing the continuous angular congruency profile interpolated from
    the per-orientation responses (the axial vector sum with doubled
    angles).  Maximizing over the continuum instead of the 6 sampled filter
    directions keeps the orientation stable when structure falls between
    filters, which monotone radiometric changes would otherwise flip.  The
    input is contrast-normalized so pc is invariant to positive gain.

    The log-Gabor bank has PC_ORIENTATIONS orientations and PC_SCALES
    scales, of wavelength PC_MIN_WAVELENGTH px times powers of PC_MULT and
    bandwidth PC_SIGMA_ONF.  The noise threshold is PC_NOISE_K Rayleigh
    sigmas, the frequency-spread weighting has cut-off PC_CUT_OFF and gain
    PC_GAIN, and PC_EPSILON guards each division.  ValueError unless the
    image is 2-D, at least 2 samples along each axis and finite, checked
    before the filter bank is built or read.

    One orientation's responses are alive at a time, in a (PC_SCALES, H, W)
    complex buffer and a complex scratch reused by every orientation.  A
    scale's row takes the spectrum times the radial filter, then times the
    spread (a full-frame evaluation's two products, in its order); its
    inverse FFT runs along the rows into the scratch and along the columns
    back.  After the noise estimate, a median over the whole image, each
    per-pixel step runs raster.BILINEAR_BLOCK pixels at a time, from
    zero-started sums in the full frame's order of operations; elementwise
    results do not depend on the block, so the maps are byte-identical to a
    full-frame evaluation.  The traced peak is about 190 B per pixel with
    the bank cached (270 B when the call builds it): spectrum, buffer and
    scratch 96 B, per-orientation congruency 48 B, then totals and temporaries.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or min(img.shape) < 2 or not np.isfinite(img).all():
        raise ValueError(f"image must be 2-D, at least 2 x 2 and finite, got {img.shape}")
    std = img.std()
    if std > 0:
        img = (img - img.mean()) / std
    fimg = np.fft.fft2(img)
    radials, spreads = _log_gabor_bank(img.shape)
    n = img.size
    resp = np.empty((PC_SCALES,) + img.shape, dtype=complex)
    scratch = np.empty(img.shape, dtype=complex)
    numer_total = np.zeros(n)
    sum_an_total = np.zeros(n)
    pc_by_orient = np.empty((PC_ORIENTATIONS, n))
    for o in range(PC_ORIENTATIONS):
        for s in range(PC_SCALES):
            np.multiply(fimg, radials[s], out=resp[s])
            resp[s] *= spreads[o]
            # ifft2 as its two passes, each out of place: ifft2(out=) runs
            # its second pass in place and returns wrong values (numpy 2.4)
            np.fft.ifft(resp[s], axis=1, out=scratch)
            np.fft.ifft(scratch, axis=0, out=resp[s])
        # Rayleigh statistics of the noise response estimated at the
        # smallest scale, extrapolated across the geometric filter series
        tau = np.median(np.abs(resp[0])) / np.sqrt(np.log(4))
        total_tau = tau * (1 - (1 / PC_MULT) ** PC_SCALES) / (1 - 1 / PC_MULT)
        noise_mean = total_tau * np.sqrt(np.pi / 2)
        noise_sigma = total_tau * np.sqrt((4 - np.pi) / 2)
        threshold = noise_mean + PC_NOISE_K * noise_sigma

        flat = resp.reshape(PC_SCALES, n)
        for lo in range(0, n, BILINEAR_BLOCK):
            px = slice(lo, lo + BILINEAR_BLOCK)
            eo = flat[:, px]
            sum_e, sum_o, sum_an, energy = np.zeros((4, eo.shape[1]))
            for s in range(PC_SCALES):
                an = np.abs(eo[s])
                sum_e += eo[s].real
                sum_o += eo[s].imag
                sum_an += an
                max_an = an if s == 0 else np.maximum(max_an, an)

            x_energy = np.hypot(sum_e, sum_o) + PC_EPSILON
            mean_e = sum_e / x_energy
            mean_o = sum_o / x_energy
            for e, od in zip(eo.real, eo.imag):
                energy += e * mean_e + od * mean_o - np.abs(e * mean_o - od * mean_e)
            energy = np.maximum(energy - threshold, 0.0)

            width = (sum_an / (max_an + PC_EPSILON) - 1.0) / (PC_SCALES - 1)
            weight = 1.0 / (1.0 + np.exp(PC_GAIN * (PC_CUT_OFF - width)))

            numer = weight * energy
            pc_by_orient[o, px] = numer / (sum_an + PC_EPSILON)
            numer_total[px] += numer
            sum_an_total[px] += sum_an
    del fimg, resp, scratch, flat, eo

    pc = np.clip(numer_total / (sum_an_total + PC_EPSILON), 0.0, 1.0).reshape(img.shape)
    pc_by_orient = pc_by_orient.reshape((PC_ORIENTATIONS,) + img.shape)
    angles = np.arange(PC_ORIENTATIONS) * np.pi / PC_ORIENTATIONS
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


def hopc_descriptor(p: Patch, cell: int = 17, bins: int = 8) -> Descriptor:
    """HOG-style descriptor over phase congruency instead of gradients."""
    # the filter bank needs 32 px and the descriptor 2x2 cells: check both
    # before running the filter bank
    check_integer("cell", cell, 1)
    check_integer("bins", bins, 1)
    if p.template_size < max(32, 2 * cell):
        raise ValueError(f"patch side must be at least 32 and span 2x2 cells of {cell} px")
    pc, ori = phase_congruency_maps(p.samples)
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
