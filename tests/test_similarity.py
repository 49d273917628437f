"""Tests for the five patch similarity measures."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from sarstereo import similarity
from sarstereo.raster import BILINEAR_BLOCK, linear_bins, to_db
from sarstereo.scene_sim import (
    Building,
    RenderNoise,
    SceneSpec,
    canonical_scene_models,
    make_scene,
    render_optical,
    render_sar,
)
from sarstereo.similarity import (
    HOG_EPS,
    HOPC_PC_FLOOR,
    PC_CUT_OFF,
    PC_EPSILON,
    PC_GAIN,
    PC_MULT,
    PC_NOISE_K,
    PC_ORIENTATIONS,
    PC_SCALES,
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

    @pytest.mark.parametrize("measure", [ncc, nmi])
    def test_patches_of_unequal_size_rejected(self, measure):
        small, large = Patch(smooth_field(21, seed=5)), Patch(smooth_field(23, seed=5))
        for a, b in ((small, large), (large, small)):
            with pytest.raises(ValueError, match="equal sizes"):
                measure(a, b)


class TestPatchTerms:
    """ncc and nmi take each patch's centred samples, deviation and bin
    indices from the Patch, which computes them on first use."""

    def test_writes_into_the_source_leave_scores_unchanged(self):
        source = smooth_field(51, seed=3, hi=40.0)
        other = Patch(smooth_field(51, seed=4, hi=40.0))
        used, unused = Patch(source), Patch(source)

        def scores(p):
            return [measure(*pair).value for measure in (ncc, nmi)
                    for pair in ((p, other), (other, p))]

        before = scores(used)
        source[:] = 0.0
        assert scores(used) == scores(unused) == before

    def test_samples_are_a_read_only_copy(self):
        source = smooth_field(11, seed=1)
        p = Patch(source)
        assert p.samples.dtype == np.float64 and not np.shares_memory(p.samples, source)
        with pytest.raises(ValueError):
            p.samples[0, 0] = 1.0
        with pytest.raises(ValueError):
            p.samples *= 2

    @pytest.mark.parametrize("measure, error", [(ncc, ConstantPatch), (nmi, DegenerateHistogram)])
    def test_constant_patch_raises_on_every_call(self, measure, error):
        flat = Patch(np.full((21, 21), 3.5))
        other = Patch(smooth_field(21, seed=5))
        for _ in range(3):
            with pytest.raises(error):
                measure(flat, other)
            with pytest.raises(error):
                measure(other, flat)

    def test_reused_optical_patch_gives_the_bytes_of_fresh_patches(self):
        # a matcher scores each tie point's 69 candidates, SAR windows along
        # its search line, against one optical Patch
        optical, sar_db = stereo_scene_images(61)

        def window(img, row, col):
            return img[row - 25:row + 26, col - 25:col + 26]

        for row, col in ((60, 60), (100, 140), (150, 90)):
            reused = Patch(window(optical, row, col))
            for cand in range(80, 80 + 69):
                sar = window(sar_db, row, cand)
                for measure in (ncc, nmi):
                    got = measure(reused, Patch(sar)).value
                    fresh = measure(Patch(window(optical, row, col)), Patch(sar)).value
                    assert np.float64(got).tobytes() == np.float64(fresh).tobytes()


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

    def test_one_sample_patch_raises(self):
        with pytest.raises(ConstantPatch):
            ncc(Patch(np.array([[1.0]])), Patch(np.array([[2.0]])))


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


# ---------------------------------------------------------------------------
# phase congruency against the full-frame evaluation
# ---------------------------------------------------------------------------

def phase_congruency_full_frame(image):
    """phase_congruency_maps as a full-frame evaluation: every scale's
    spectrum, each orientation's responses and every per-pixel map at once."""
    img = np.asarray(image, dtype=float)
    std = img.std()
    if std > 0:
        img = (img - img.mean()) / std
    fimg = np.fft.fft2(img)
    radials, spreads = similarity._log_gabor_bank(img.shape)
    # the spectrum through each radial filter, shared by every orientation
    by_scale = [fimg * radial for radial in radials]

    numer_total = np.zeros(img.shape)
    sum_an_total = np.zeros(img.shape)
    pc_by_orient = np.empty((PC_ORIENTATIONS,) + img.shape)
    for o in range(PC_ORIENTATIONS):
        sum_e = np.zeros(img.shape)
        sum_o = np.zeros(img.shape)
        sum_an = np.zeros(img.shape)
        eo = []
        tau = 0.0
        for s in range(PC_SCALES):
            resp = np.fft.ifft2(by_scale[s] * spreads[o])
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

        x_energy = np.hypot(sum_e, sum_o) + PC_EPSILON
        mean_e = sum_e / x_energy
        mean_o = sum_o / x_energy
        energy = np.zeros(img.shape)
        for e, od in eo:
            energy += e * mean_e + od * mean_o - np.abs(e * mean_o - od * mean_e)

        # Rayleigh statistics of the noise response estimated at the
        # smallest scale, extrapolated across the geometric filter series
        total_tau = tau * (1 - (1 / PC_MULT) ** PC_SCALES) / (1 - 1 / PC_MULT)
        noise_mean = total_tau * np.sqrt(np.pi / 2)
        noise_sigma = total_tau * np.sqrt((4 - np.pi) / 2)
        threshold = noise_mean + PC_NOISE_K * noise_sigma
        energy = np.maximum(energy - threshold, 0.0)

        width = (sum_an / (max_an + PC_EPSILON) - 1.0) / (PC_SCALES - 1)
        weight = 1.0 / (1.0 + np.exp(PC_GAIN * (PC_CUT_OFF - width)))

        numer = weight * energy
        pc_by_orient[o] = numer / (sum_an + PC_EPSILON)
        numer_total += numer
        sum_an_total += sum_an

    pc = np.clip(numer_total / (sum_an_total + PC_EPSILON), 0.0, 1.0)
    angles = np.arange(PC_ORIENTATIONS) * np.pi / PC_ORIENTATIONS
    cos_sum = np.tensordot(np.cos(2 * angles), pc_by_orient, axes=(0, 0))
    sin_sum = np.tensordot(np.sin(2 * angles), pc_by_orient, axes=(0, 0))
    ori = np.mod(0.5 * np.arctan2(sin_sum, cos_sum), np.pi)
    return pc, ori


def assert_maps_equal_full_frame(img):
    got = phase_congruency_maps(img)
    want = phase_congruency_full_frame(img)
    for g, w in zip(got, want):
        assert g.shape == w.shape == img.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@st.composite
def pc_images(draw):
    """Textured, constant or step-edge images, salted with +-0.0, over 1e+-8."""
    rows, cols = draw(st.integers(2, 70)), draw(st.integers(2, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "smooth", "constant", "step"]))
    if kind == "noise":
        img = rng.standard_normal((rows, cols))
    elif kind == "smooth":
        img = gaussian_filter(rng.standard_normal((rows, cols)), 2.0)
    elif kind == "constant":
        img = np.full((rows, cols), rng.uniform(-5, 5))
    else:
        img = np.zeros((rows, cols))
        if draw(st.booleans()):
            img[:, int(rng.integers(0, cols)):] = 1.0
        else:
            img[int(rng.integers(0, rows)):, :] = 1.0
    if draw(st.booleans()):
        # magnitudes over sixteen decades
        img = img * 10.0 ** rng.uniform(-8, 8, img.shape)
    img = img * 10.0 ** draw(st.sampled_from([-8, 0, 8]))
    salt = rng.random(img.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    img[salt] = rng.choice([0.0, -0.0], salt.sum())
    return img


def stereo_scene_images(seed):
    """The optical image and SAR image in dB of a 200 x 200 m box city."""
    rng = np.random.default_rng(seed)
    buildings = tuple(
        Building(rect=(x, y, x + w, y + d), height=float(h))
        for (x, y), (w, d), h in zip(((20, 30), (110, 20), (40, 120), (130, 130)),
                                     rng.integers(15, 45, (4, 2)), rng.uniform(8, 30, 4))
    )
    spec = SceneSpec(extent=(200.0, 200.0), buildings=buildings, texture_seed=seed)
    dem, refl = make_scene(spec)
    sar, opt, sar_shape, opt_shape = canonical_scene_models(spec, sar_theta_deg=35.0)
    optical = render_optical(dem, refl, opt, RenderNoise(optical_sigma=0.02, seed=seed),
                             opt_shape)
    sar_img = render_sar(dem, refl, sar, RenderNoise(speckle_looks=4, seed=seed), sar_shape)
    return optical.samples.astype(float), to_db(sar_img).samples.astype(float)


class TestPhaseCongruencyBlocks:
    @settings(max_examples=60, deadline=None)
    @given(img=pc_images())
    def test_maps_equal_full_frame(self, img):
        assert_maps_equal_full_frame(img)

    def test_stereo_scene_equals_full_frame(self):
        for img in stereo_scene_images(61):
            assert img.size > BILINEAR_BLOCK
            assert_maps_equal_full_frame(img)

    @pytest.mark.parametrize("cached, bound", [(True, 224), (False, 304)])
    def test_peak_memory_per_pixel(self, cached, bound):
        # the full-frame evaluation traces 352 B per pixel with the bank
        # cached and 432 B when the call builds it
        img = smooth_field(612, seed=4)[:600]
        if cached:
            phase_congruency_maps(img)
        else:
            similarity._log_gabor_bank.cache_clear()
        tracemalloc.start()
        try:
            phase_congruency_maps(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / img.size <= bound

    @pytest.mark.parametrize("image", [
        np.ones(40), np.ones((40, 1)), np.ones((1, 40)), np.ones((0, 5)), np.ones((2, 1)),
        np.ones((3, 3, 3)), np.where(np.eye(40) > 0, np.nan, 1.0),
        np.where(np.eye(40) > 0, np.inf, 1.0), np.where(np.eye(40) > 0, -np.inf, 1.0),
    ], ids=["1d", "40x1", "1x40", "0x5", "2x1", "3d", "nan", "inf", "-inf"])
    def test_rejects_image_before_fft_and_bank(self, image, monkeypatch):
        def no_fft(*args, **kwargs):
            pytest.fail("the FFT ran on an image that phase congruency refuses")

        before = similarity._log_gabor_bank.cache_info()
        monkeypatch.setattr(np.fft, "fft2", no_fft)
        with pytest.raises(ValueError, match="2-D, at least 2 x 2 and finite"):
            phase_congruency_maps(image)
        assert similarity._log_gabor_bank.cache_info() == before

    def test_accepts_two_by_two(self):
        pc, ori = phase_congruency_maps(np.array([[0.0, 1.0], [2.0, -3.0]]))
        assert pc.shape == ori.shape == (2, 2)
        assert np.isfinite(pc).all() and np.isfinite(ori).all()


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

    def test_one_cell_patch_rejected_before_filter_bank(self, monkeypatch):
        def no_filter_bank(*args, **kwargs):
            pytest.fail("the filter bank ran on a patch too small to describe")

        monkeypatch.setattr(similarity, "phase_congruency_maps", no_filter_bank)
        for side in (33, 31):
            with pytest.raises(ValueError):
                hopc_descriptor(Patch(smooth_field(side, seed=6)))


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

    @pytest.mark.parametrize("values, match", [
        (np.zeros(7), "length"), (np.zeros(9), "length"), (np.zeros((2, 8)), "length"),
        (np.r_[np.zeros(7), np.nan], "non-finite"), (np.r_[np.inf, np.zeros(7)], "non-finite"),
    ])
    def test_descriptor_rejects_wrong_length_or_non_finite_values(self, values, match):
        with pytest.raises(ValueError, match=match):
            Descriptor(values=values, layout=(1, 1, 8))

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


# ---------------------------------------------------------------------------
# the per-geometry layouts against the kernels that rebuilt them on every call
# ---------------------------------------------------------------------------

def soft_histogram_ravel(axes, shape, weight):
    """The binning core with np.ravel_multi_index and a weight copy per combination.

    The same oracle as in test_raster_io.py, which checks the core itself;
    test modules import no other test module.
    """
    hist = np.zeros(int(np.prod(shape)))
    for corner in itertools.product(*axes):
        flat = np.ravel_multi_index([idx for idx, _ in corner], shape)
        w = np.array(weight, dtype=float)
        for _, wi in corner:
            if wi is not None:
                w *= wi
        hist += np.bincount(flat.ravel(), weights=w.ravel(), minlength=hist.size)
    return hist.reshape(shape)


def orientation_bins_mod(ori, period, bins):
    return linear_bins(np.mod(ori, period) / period * bins - 0.5, bins, wrap=True)


def block_normalize_pad(hist):
    energy = np.pad(np.sum(hist * hist, axis=2), ((0, 1), (0, 1)))
    block = energy[:-1, :-1] + energy[1:, :-1] + energy[:-1, 1:] + energy[1:, 1:]
    return hist / np.sqrt(block + HOG_EPS**2)[..., None]


def oriented_rebuilt(mag, ori, cell, bins):
    """oriented_descriptor_from_maps with its cell index built per call."""
    n = mag.shape[0] // cell
    used = n * cell
    cell_of = np.arange(used) // cell
    hist = soft_histogram_ravel(
        ([(cell_of[:, None], None)], [(cell_of[None, :], None)],
         orientation_bins_mod(ori[:used, :used], np.pi, bins)),
        (n, n, bins),
        mag[:used, :used],
    )
    return block_normalize_pad(hist).ravel()


def sift_rebuilt(gx, gy, row, col, scale):
    """sift_from_gradients with its Gaussian and spatial bins built per call."""
    d = 4
    half = int(round(d / 2 * scale))
    wx = gx[row - half : row + half + 1, col - half : col + half + 1]
    wy = gy[row - half : row + half + 1, col - half : col + half + 1]
    off = np.arange(-half, half + 1, dtype=float)
    du, dv = np.meshgrid(off, off)
    weight = np.hypot(wx, wy) * np.exp(-(du * du + dv * dv) / (2.0 * scale * scale))
    hist = soft_histogram_ravel(
        (linear_bins(dv / scale + (d - 1) / 2.0, d),
         linear_bins(du / scale + (d - 1) / 2.0, d),
         orientation_bins_mod(np.arctan2(wy, wx), 2 * np.pi, 8)),
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
    return vec


def orientation_map(rng, shape, reduced):
    """Angles within [-pi, pi), or beyond it, salted with the ends of the period."""
    ori = rng.uniform(-np.pi, np.pi, shape) if reduced else rng.uniform(-4.0, 4.0, shape)
    salt = rng.random(shape) < 0.1
    ori[salt] = rng.choice([0.0, -0.0, -np.pi, -1e-300, np.nextafter(np.pi, 0)], salt.sum())
    return ori


def gradient_field(rng, shape):
    """Gradients with zeros of both signs, so that arctan2 returns 0, -0, pi and -pi."""
    g = rng.standard_normal((2,) + shape)
    g[rng.random(g.shape) < 0.1] = 0.0
    g[rng.random(g.shape) < 0.1] = -0.0
    return g


class TestLayoutCaches:
    @settings(max_examples=40, deadline=None)
    @given(
        geometries=st.lists(
            st.tuples(st.integers(2, 5), st.integers(1, 12), st.integers(0, 11),
                      st.integers(1, 12), st.floats(0.2, 6.0), st.booleans()),
            min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernels_equal_rebuilt_kernels(self, geometries, seed):
        rng = np.random.default_rng(seed)
        # every geometry twice, interleaved, so a cache entry keyed too
        # coarsely would serve one geometry's layout to another
        for cells, cell, rest, bins, scale, reduced in geometries * 2:
            side = cells * cell + rest % cell
            ori = orientation_map(rng, (side, side), reduced)
            mag = rng.uniform(0, 3, (side, side))
            got = oriented_descriptor_from_maps(mag, ori, cell, bins).values
            assert got.tobytes() == oriented_rebuilt(mag, ori, cell, bins).tobytes()
            pc = rng.uniform(0, 1, (side, side))
            floored = np.where(pc >= HOPC_PC_FLOOR, pc, 0.0)
            got = hopc_from_maps(pc, ori, cell, bins).values
            assert got.tobytes() == oriented_rebuilt(floored, ori, cell, bins).tobytes()
            half = int(round(2 * scale))
            gx, gy = gradient_field(rng, (2 * half + 4, 2 * half + 6))
            row = int(rng.integers(half, gx.shape[0] - half))
            col = int(rng.integers(half, gx.shape[1] - half))
            got = sift_from_gradients(gx, gy, row, col, scale).values
            assert got.tobytes() == sift_rebuilt(gx, gy, row, col, scale).tobytes()

    def test_one_geometry_builds_its_layout_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        mag, pc = rng.uniform(0, 1, (2, 51, 51))
        ori = np.mod(rng.uniform(-4, 4, (51, 51)), np.pi)
        gx, gy = rng.standard_normal((2, 60, 70))

        def describe():
            oriented_descriptor_from_maps(mag, ori, 17, 8)
            hopc_from_maps(pc, ori, 17, 8)
            sift_from_gradients(gx, gy, 30, 35, 10.0)

        describe()  # warm-up: the one build of each layout
        cells, sift = similarity._cell_index.cache_info(), similarity._sift_layout.cache_info()
        rebuilt = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                rebuilt.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("ravel_multi_index", "pad", "meshgrid"):
            monkeypatch.setattr(np, name, recording(name, getattr(np, name)))
        for _ in range(100):
            describe()
        assert rebuilt == []
        after_cells = similarity._cell_index.cache_info()
        after_sift = similarity._sift_layout.cache_info()
        assert (after_cells.misses, after_sift.misses) == (cells.misses, sift.misses)
        assert (after_cells.hits - cells.hits, after_sift.hits - sift.hits) == (200, 100)

    def test_cached_arrays_are_read_only(self):
        radials, spreads = similarity._log_gabor_bank((40, 44))
        _, gauss, spatial = similarity._sift_layout(10.0)
        assert len(spatial) == 4
        cached = [*radials, *spreads, similarity._cell_index(51, 17), gauss]
        # each spatial corner's flat offset and its row and column weights
        cached += [a for offset, weights in spatial for a in (offset, *weights)]
        for a in cached:
            with pytest.raises(ValueError):
                a *= 2


class TestDescriptorParameters:
    @pytest.mark.parametrize("row, col, name", [
        (30.0, 35, "center_row"), (True, 35, "center_row"), (-1, 35, "center_row"),
        ("30", 35, "center_row"), (30, np.float64(35.0), "center_col"),
        (30, False, "center_col"),
    ])
    def test_sift_rejects_centre_that_is_not_an_integer_from_0(self, row, col, name):
        # 30.0 failed with a TypeError from slicing, and True was taken as row 1
        gx, gy = np.random.default_rng(4).standard_normal((2, 100, 100))
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0"):
            sift_from_gradients(gx, gy, row, col)

    @pytest.mark.parametrize("row, col", [(19, 50), (50, 19), (80, 50), (50, 80), (0, 0)])
    def test_sift_rejects_footprint_off_the_maps(self, row, col):
        # the 41 px footprint at scale 10 fits rows and columns 20 to 79
        gx, gy = np.random.default_rng(4).standard_normal((2, 100, 100))
        sift_from_gradients(gx, gy, 20, 79)
        with pytest.raises(ValueError, match="footprint"):
            sift_from_gradients(gx, gy, row, col)

    @pytest.mark.parametrize("scale", [-10.0, 0.0, np.nan, np.inf, -np.inf])
    def test_sift_rejects_scale(self, scale):
        gx, gy = np.random.default_rng(4).standard_normal((2, 100, 100))
        before = similarity._sift_layout.cache_info()
        with pytest.raises(ValueError, match="scale"):
            sift_from_gradients(gx, gy, 50, 50, scale=scale)
        with pytest.raises(ValueError, match="scale"):
            sift_descriptor(Patch(gx[:51, :51]), scale=scale)
        assert similarity._sift_layout.cache_info() == before

    @pytest.mark.parametrize("cell, bins, name", [
        (0, 8, "cell"), (-17, 8, "cell"), (2.5, 8, "cell"), (True, 8, "cell"),
        (17, 0, "bins"), (17, -1, "bins"), (17, 8.0, "bins"), (17, True, "bins"),
    ])
    def test_cells_and_bins_rejected(self, cell, bins, name, monkeypatch):
        def no_filter_bank(*args, **kwargs):
            pytest.fail("the filter bank ran with invalid cell or bins")

        monkeypatch.setattr(similarity, "phase_congruency_maps", no_filter_bank)
        rng = np.random.default_rng(5)
        mag, ori = rng.uniform(0, 1, (2, 51, 51))
        patch = Patch(smooth_field(51, seed=5))
        before = similarity._cell_index.cache_info()
        for describe in (
            lambda: oriented_descriptor_from_maps(mag, ori, cell, bins),
            lambda: hopc_from_maps(mag, ori, cell, bins),
            lambda: hog_descriptor(patch, cell, bins),
            lambda: hopc_descriptor(patch, cell, bins),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
                describe()
        assert similarity._cell_index.cache_info() == before
