"""Tests for the five patch similarity measures."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from sarstereo.similarity import (
    HOG_EPS,
    SIFT_CLIP,
    ConstantPatch,
    DegenerateHistogram,
    Descriptor,
    LayoutMismatch,
    Patch,
    SimilarityScore,
    _block_normalize,
    descriptor_similarity,
    gradient_maps,
    hog_descriptor,
    hopc_descriptor,
    hopc_from_maps,
    ncc,
    nmi,
    oriented_descriptor_from_maps,
    phase_congruency_maps,
    sift_descriptor,
    sift_from_gradients,
)


def smooth_field(side, seed, sigma=3.0, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    f = gaussian_filter(rng.standard_normal((side, side)), sigma)
    f = (f - f.min()) / (f.max() - f.min())
    return lo + (hi - lo) * f


@pytest.fixture
def textured():
    return Patch(smooth_field(221, seed=1, hi=200.0))


class TestPatchType:
    def test_rejects_even_or_rectangular(self):
        with pytest.raises(ValueError):
            Patch(np.zeros((10, 10)))
        with pytest.raises(ValueError):
            Patch(np.zeros((11, 13)))
        with pytest.raises(ValueError):
            Patch(np.full((11, 11), np.nan))

    def test_template_size(self):
        assert Patch(np.zeros((221, 221))).template_size == 221


class TestNcc:
    def test_self_correlation_is_one(self, textured):
        assert ncc(textured, textured).value == 1.0

    def test_affine_invariance(self, textured):
        up = Patch(3.0 * textured.samples + 7.0)
        down = Patch(-2.0 * textured.samples + 1.0)
        assert ncc(textured, up).value == pytest.approx(1.0, abs=1e-12)
        assert ncc(textured, down).value == pytest.approx(-1.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(8)
        a = Patch(rng.uniform(0, 10, (5, 5)))
        b = Patch(rng.uniform(0, 10, (5, 5)))
        got = ncc(a, b).value
        # brute-force oracle
        ia, jb = a.samples, b.samples
        n = ia.size
        sa = np.sqrt(((ia - ia.mean()) ** 2).sum() / (n - 1))
        sb = np.sqrt(((jb - jb.mean()) ** 2).sum() / (n - 1))
        acc = 0.0
        for r in range(5):
            for c in range(5):
                acc += (ia[r, c] - ia.mean()) * (jb[r, c] - jb.mean())
        expected = acc / ((n - 1) * sa * sb)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self, textured):
        other = Patch(smooth_field(221, seed=2))
        assert ncc(textured, other).value == ncc(other, textured).value

    def test_constant_patch_raises(self, textured):
        flat = Patch(np.full((221, 221), 3.5))
        with pytest.raises(ConstantPatch):
            ncc(flat, textured)
        with pytest.raises(ConstantPatch):
            ncc(textured, flat)


class TestNmi:
    def test_identical_images_give_two(self, textured):
        assert nmi(textured, textured).value == pytest.approx(2.0, abs=1e-12)

    def test_bijective_bin_remap_gives_two(self):
        rng = np.random.default_rng(5)
        levels = rng.integers(0, 64, size=(221, 221)).astype(float)
        # make sure the full range is present so min-max binning is stable
        levels[0, :64] = np.arange(64)
        perm = rng.permutation(64).astype(float)
        remapped = perm[levels.astype(int)]
        score = nmi(Patch(levels), Patch(remapped))
        assert score.value == pytest.approx(2.0, abs=1e-12)

    def test_independent_noise_near_one(self):
        rng = np.random.default_rng(21)
        a = Patch(rng.uniform(0, 1, (221, 221)))
        b = Patch(rng.uniform(0, 1, (221, 221)))
        v = nmi(a, b).value
        assert 1.0 <= v <= 1.1

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = Patch(rng.uniform(0, 1, (33, 33)))
            b = Patch(gaussian_filter(rng.uniform(0, 1, (33, 33)), 1.0))
            ab = nmi(a, b).value
            ba = nmi(b, a).value
            assert ab == pytest.approx(ba, abs=1e-12)
            assert 1.0 - 1e-12 <= ab <= 2.0 + 1e-12

    def test_degenerate_histogram(self, textured):
        flat = Patch(np.zeros((221, 221)))
        with pytest.raises(DegenerateHistogram):
            nmi(flat, textured)


class TestHog:
    def test_shape_and_layout(self, textured):
        d = hog_descriptor(textured)
        assert d.layout == (13, 13, 8)
        assert len(d.values) == 13 * 13 * 8

    def test_block_segment_norms_bounded(self, textured):
        d = hog_descriptor(textured)
        segs = d.values.reshape(-1, 8)
        norms = np.linalg.norm(segs, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)

    def test_ramp_concentrates_in_one_bin(self):
        cols = np.arange(221, dtype=float)
        ramp = Patch(np.tile(cols, (221, 1)))
        d = hog_descriptor(ramp)
        cells = d.values.reshape(13, 13, 8)
        # direct histogram oracle: gradient along +x means orientation 0,
        # which splits between the two wrap-adjacent bins
        for cell in cells.reshape(-1, 8):
            nz = np.nonzero(cell > 1e-12 * cell.max())[0]
            assert len(nz) <= 2

    def test_affine_invariance(self, textured):
        a = hog_descriptor(textured)
        b = hog_descriptor(Patch(2.0 * textured.samples + 5.0))
        assert np.abs(a.values - b.values).max() < 1e-9

    def test_deterministic(self, textured):
        a = hog_descriptor(textured)
        b = hog_descriptor(Patch(textured.samples.copy()))
        assert a.values.tobytes() == b.values.tobytes()


class TestSift:
    def test_length_and_unit_norm(self, textured):
        d = sift_descriptor(textured)
        assert d.layout == (4, 4, 8)
        assert len(d.values) == 128
        assert np.linalg.norm(d.values) == pytest.approx(1.0, abs=1e-9)

    def test_self_similarity_zero(self, textured):
        d = sift_descriptor(textured)
        assert descriptor_similarity(d, d).value == 0.0

    def test_ramp_uses_few_orientation_bins(self):
        rows = np.arange(221, dtype=float)[:, None]
        ramp = Patch(np.tile(rows, (1, 221)) * 3.0)
        d = sift_descriptor(ramp)
        cells = d.values.reshape(16, 8)
        for cell in cells:
            nz = np.nonzero(cell > 1e-9)[0]
            assert len(nz) <= 2


class TestPhaseCongruency:
    def test_constant_patch_near_zero(self):
        pc = phase_congruency_maps(np.full((65, 65), 9.0))[0]
        assert pc.max() < 1e-3

    def test_values_in_unit_interval(self, textured):
        pc = phase_congruency_maps(textured.samples)[0]
        assert pc.min() >= 0.0 and pc.max() <= 1.0

    def test_step_edge_localization(self):
        img = np.zeros((65, 65))
        img[:, 33:] = 1.0
        pc = phase_congruency_maps(img)[0]
        # interior argmax per row (FFT periodicity makes the border a seam)
        inner = pc[:, 8:57]
        for r in range(8, 57):
            col = 8 + int(np.argmax(inner[r]))
            assert abs(col - 32.5) <= 1.5

    def test_contrast_invariance(self):
        base = smooth_field(65, seed=3, hi=1.0)
        a = phase_congruency_maps(base)[0]
        b = phase_congruency_maps(base * 250.0)[0]
        assert np.abs(a - b).max() < 1e-6


class TestHopc:
    def test_layout_matches_hog(self, textured):
        h = hog_descriptor(textured)
        p = hopc_descriptor(textured)
        assert p.layout == h.layout

    def test_self_similarity_zero(self, textured):
        d = hopc_descriptor(textured)
        assert descriptor_similarity(d, d).value == 0.0

    def test_monotone_radiometric_invariance(self):
        # hard-edged multi-level structure: a monotone gamma map changes the
        # gray levels nonlinearly but must leave the descriptor nearly alone
        base = np.full((221, 221), 0.3)
        base[40:120, 30:100] = 0.8
        base[140:200, 120:190] = 0.55
        base[20:60, 150:210] = 0.95
        for gamma in (lambda t: t**2, np.sqrt):
            a = hopc_descriptor(Patch(base))
            b = hopc_descriptor(Patch(gamma(base)))
            dist = np.linalg.norm(a.values - b.values)
            assert dist < 0.1, f"gamma instability: {dist}"

    def test_deterministic(self, textured):
        a = hopc_descriptor(textured)
        b = hopc_descriptor(Patch(textured.samples.copy()))
        assert a.values.tobytes() == b.values.tobytes()

    def test_small_patch_rejected(self):
        with pytest.raises(ValueError):
            hopc_descriptor(Patch(np.zeros((31, 31))))

    def test_one_cell_patch_rejected(self):
        # 33 px passes the filter bank's minimum but holds one 17 px cell
        with pytest.raises(ValueError):
            hopc_descriptor(Patch(smooth_field(33, seed=6)))


class TestDescriptorSimilarity:
    def test_identity(self):
        d = Descriptor(values=np.arange(8.0), layout=(1, 1, 8))
        assert descriptor_similarity(d, d).value == 0.0

    def test_orthonormal_pair(self):
        e1 = np.zeros(8)
        e2 = np.zeros(8)
        e1[0] = 1.0
        e2[1] = 1.0
        a = Descriptor(values=e1, layout=(1, 1, 8))
        b = Descriptor(values=e2, layout=(1, 1, 8))
        assert descriptor_similarity(a, b).value == pytest.approx(
            -np.sqrt(2), abs=1e-15
        )

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(17)
        a = Descriptor(values=rng.uniform(-1, 1, 40), layout=(1, 5, 8))
        b = Descriptor(values=rng.uniform(-1, 1, 40), layout=(1, 5, 8))
        got = descriptor_similarity(a, b).value
        acc = 0.0
        for x, y in zip(a.values, b.values):
            acc += (x - y) ** 2
        assert got == pytest.approx(-np.sqrt(acc), abs=1e-12)

    def test_layout_mismatch(self):
        a = Descriptor(values=np.zeros(8), layout=(1, 1, 8))
        b = Descriptor(values=np.zeros(16), layout=(1, 2, 8))
        with pytest.raises(LayoutMismatch):
            descriptor_similarity(a, b)

    def test_score_type(self):
        d = Descriptor(values=np.zeros(8), layout=(1, 1, 8))
        s = descriptor_similarity(d, d, measure="HOPC")
        assert isinstance(s, SimilarityScore)
        assert s.measure == "HOPC"


# ---------------------------------------------------------------------------
# the soft-binning descriptors against their earlier per-corner kernels
# ---------------------------------------------------------------------------

def block_normalize_loop(hist):
    """The cell-by-cell 2x2 block normalization, clamped at the far edges."""
    n = hist.shape[0]
    out = np.empty_like(hist)
    for i in range(n):
        for j in range(n):
            block = hist[i : min(i + 2, n), j : min(j + 2, n)]
            out[i, j] = hist[i, j] / np.sqrt(np.sum(block * block) + HOG_EPS**2)
    return out


def oriented_reference(mag, ori, cell, bins):
    """HOG cell histograms binned by one concatenated bincount, loop-normalized."""
    n = mag.shape[0] // cell
    used = n * cell
    b = np.mod(ori[:used, :used], np.pi) / np.pi * bins - 0.5
    b0 = np.floor(b)
    frac = b - b0
    lo = np.mod(b0, bins).astype(np.int64)
    hi = np.mod(b0 + 1, bins).astype(np.int64)
    cells = np.arange(used) // cell
    base = (cells[:, None] * n + cells[None, :]) * bins
    m = mag[:used, :used]
    hist = np.bincount(
        np.concatenate([(base + lo).ravel(), (base + hi).ravel()]),
        weights=np.concatenate([(m * (1.0 - frac)).ravel(), (m * frac).ravel()]),
        minlength=n * n * bins,
    ).reshape(n, n, bins)
    return block_normalize_loop(hist).ravel()


def sift_reference(gx, gy, row, col, scale):
    """SIFT trilinear binning as eight np.add.at calls, one per corner."""
    d = 4
    half = int(round(d / 2 * scale))
    wx = gx[row - half : row + half + 1, col - half : col + half + 1]
    wy = gy[row - half : row + half + 1, col - half : col + half + 1]
    ang = np.mod(np.arctan2(wy, wx), 2 * np.pi)
    off = np.arange(-half, half + 1, dtype=float)
    du, dv = np.meshgrid(off, off)
    weight = np.hypot(wx, wy) * np.exp(-(du * du + dv * dv) / (2.0 * scale * scale))
    cx = du / scale + (d - 1) / 2.0
    cy = dv / scale + (d - 1) / 2.0
    ob = ang / (2 * np.pi) * 8 - 0.5
    cx0, cy0, ob0 = np.floor(cx), np.floor(cy), np.floor(ob)
    fx, fy, fo = cx - cx0, cy - cy0, ob - ob0
    hist = np.zeros((d, d, 8))
    for dy_bin, wy_f in ((0, 1.0 - fy), (1, fy)):
        yy = (cy0 + dy_bin).astype(int)
        for dx_bin, wx_f in ((0, 1.0 - fx), (1, fx)):
            xx = (cx0 + dx_bin).astype(int)
            ok = (yy >= 0) & (yy < d) & (xx >= 0) & (xx < d)
            for do_bin, wo_f in ((0, 1.0 - fo), (1, fo)):
                oo = np.mod(ob0 + do_bin, 8).astype(int)
                w = weight * wy_f * wx_f * wo_f
                np.add.at(hist, (yy[ok], xx[ok], oo[ok]), w[ok])
    vec = hist.ravel()
    vec = np.minimum(vec / np.linalg.norm(vec), SIFT_CLIP)
    return vec / np.linalg.norm(vec)


class TestSoftBinningKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_block_normalize_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        hist = rng.uniform(0, 5, (2 + seed, 2 + seed, 8))
        np.testing.assert_allclose(_block_normalize(hist), block_normalize_loop(hist),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_oriented_maps_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        side = 51 + 7 * seed
        mag = rng.uniform(0, 3, (side, side))
        ori = rng.uniform(-4, 4, (side, side))
        got = oriented_descriptor_from_maps(mag, ori, 17, 8).values
        np.testing.assert_allclose(got, oriented_reference(mag, ori, 17, 8),
                                   rtol=0, atol=1e-12)
        pc = rng.uniform(0, 1, (side, side))
        got = hopc_from_maps(pc, ori, 17, 8).values
        floored = np.where(pc >= 0.1, pc, 0.0)
        np.testing.assert_allclose(got, oriented_reference(floored, ori, 17, 8),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_sift_matches_add_at_reference(self, seed):
        rng = np.random.default_rng(seed)
        gx, gy = rng.standard_normal((2, 60, 70))
        row, col = 25 + seed, 30 + 2 * seed
        got = sift_from_gradients(gx, gy, row, col, 10.0).values
        np.testing.assert_allclose(got, sift_reference(gx, gy, row, col, 10.0),
                                   rtol=0, atol=1e-12)

    def test_sift_patch_equals_map_path(self):
        # the 41 px footprint keeps off the 51 px patch's one-sided border
        # differences, so both paths see the same gradients
        img = smooth_field(121, seed=9, hi=50.0)
        gx, gy = gradient_maps(img)
        for row, col in ((40, 40), (60, 75), (80, 50)):
            patch = Patch(img[row - 25 : row + 26, col - 25 : col + 26])
            a = sift_descriptor(patch).values
            b = sift_from_gradients(gx, gy, row, col).values
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape", [(10, 10), (40, 51), (51, 40)])
    def test_map_path_rejects_small_or_non_square(self, shape):
        rng = np.random.default_rng(2)
        mag, ori = rng.uniform(0, 1, (2,) + shape)
        with pytest.raises(ValueError):
            oriented_descriptor_from_maps(mag, ori, 17, 8)
        with pytest.raises(ValueError):
            hopc_from_maps(mag, ori, 17, 8)
