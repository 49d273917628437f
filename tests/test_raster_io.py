"""Tests for the raster container and RFLT / PGM formats."""

import numpy as np
import pytest
import itertools
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from sarstereo.raster import (
    BadMagic,
    DimensionOverflow,
    GroundGrid,
    OutsideDem,
    Raster,
    TruncatedPayload,
    bilinear,
    linear_bins,
    load_raster,
    save_raster,
    soft_histogram,
    to_db,
)


class TestRflt:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        r = Raster(samples=rng.standard_normal((37, 21)).astype(np.float32),
                   nodata=-9999.0)
        path = tmp_path / "a.rflt"
        save_raster(r, path)
        back = load_raster(path)
        assert back.samples.tobytes() == r.samples.tobytes()
        assert back.nodata == -9999.0
        save_raster(back, tmp_path / "b.rflt")
        assert (tmp_path / "a.rflt").read_bytes() == (tmp_path / "b.rflt").read_bytes()

    def test_payload_length(self, tmp_path):
        r = Raster(samples=np.zeros((2, 3), dtype=np.float32))
        path = tmp_path / "c.rflt"
        save_raster(r, path)
        blob = path.read_bytes()
        header, payload = blob.split(b"\n", 1)
        assert header == b"RFLT 2 3 none"
        assert len(payload) == 24

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rflt"
        path.write_bytes(b"NOPE 2 2 none\n" + b"\x00" * 16)
        with pytest.raises(BadMagic):
            load_raster(path)

    def test_non_numeric_nodata_is_bad_magic(self, tmp_path):
        path = tmp_path / "bad_nodata.rflt"
        path.write_bytes(b"RFLT 1 1 abc\n" + b"\x00" * 4)
        with pytest.raises(BadMagic):
            load_raster(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.rflt"
        path.write_bytes(b"RFLT 4 4 none\n" + b"\x00" * 10)
        with pytest.raises(TruncatedPayload):
            load_raster(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.rflt"
        path.write_bytes(b"RFLT 1000000 1000000 none\n")
        with pytest.raises(DimensionOverflow):
            load_raster(path)
        path.write_bytes(b"RFLT -3 4 none\n")
        with pytest.raises(DimensionOverflow):
            load_raster(path)

    def test_sidecar_round_trip(self, tmp_path):
        r = Raster(samples=np.ones((3, 3), dtype=np.float32),
                   sidecar={"geotransform": {"x0": 1.0, "y0": 2.0, "step": 0.5}})
        path = tmp_path / "geo.rflt"
        save_raster(r, path)
        assert (tmp_path / "geo.rflt.json").exists()
        back = load_raster(path)
        assert back.sidecar["geotransform"]["step"] == 0.5


class TestPgm:
    def test_16bit_pgm(self, tmp_path):
        samples = (np.arange(12).reshape(3, 4) * 1000).astype(">u2")
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5 4 3 65535\n" + samples.tobytes())
        r = load_raster(path)
        assert r.samples.shape == (3, 4)
        assert r.samples[2, 3] == 11000.0

    def test_8bit_pgm_with_comment(self, tmp_path):
        samples = np.arange(6, dtype="u1").reshape(2, 3)
        path = tmp_path / "img8.pgm"
        path.write_bytes(b"P5\n# comment\n3 2\n255\n" + samples.tobytes())
        r = load_raster(path)
        assert r.samples[1, 2] == 5.0

    def test_truncated_pgm(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5 4 4 65535\n" + b"\x00" * 5)
        with pytest.raises(TruncatedPayload):
            load_raster(path)


class TestRasterType:
    def test_nodata_excluded_from_mean(self):
        s = np.array([[1.0, 2.0], [-9999.0, 3.0]], dtype=np.float32)
        r = Raster(samples=s, nodata=-9999.0)
        assert r.mean() == pytest.approx(2.0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Raster(samples=np.zeros(5))

    def test_to_db(self):
        r = Raster(samples=np.array([[1.0, 100.0]], dtype=np.float32))
        db = to_db(r)
        assert db.samples[0, 0] == pytest.approx(0.0)
        assert db.samples[0, 1] == pytest.approx(20.0)


class TestGroundGrid:
    def test_bilinear_lookup(self):
        s = np.array([[0.0, 1.0], [2.0, 3.0]], dtype=np.float32)
        g = GroundGrid(raster=Raster(samples=s), x0=10.0, y0=20.0, step=2.0)
        assert g.value_at(10.0, 20.0) == 0.0
        assert g.value_at(12.0, 22.0) == 3.0
        assert g.value_at(11.0, 21.0) == pytest.approx(1.5)

    def test_outside_raises(self):
        g = GroundGrid(raster=Raster(samples=np.zeros((2, 2), np.float32)),
                       x0=0.0, y0=0.0, step=1.0)
        with pytest.raises(OutsideDem):
            g.value_at(5.0, 0.5)

    def test_from_raster_sidecar(self):
        r = Raster(samples=np.zeros((2, 2), np.float32),
                   sidecar={"geotransform": {"x0": 5.0, "y0": 6.0, "step": 2.0}})
        g = GroundGrid.from_raster(r)
        assert (g.x0, g.y0, g.step) == (5.0, 6.0, 2.0)
        with pytest.raises(ValueError):
            GroundGrid.from_raster(Raster(samples=np.zeros((2, 2), np.float32)))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           step=st.floats(0.1, 10.0), x0=st.floats(-1e3, 1e3), y0=st.floats(-1e3, 1e3))
    def test_value_at_equals_shared_sampler(self, rows, cols, seed, step, x0, y0):
        rng = np.random.default_rng(seed)
        samples = rng.normal(0.0, 50.0, (rows, cols)).astype(np.float32)
        g = GroundGrid(raster=Raster(samples=samples), x0=x0, y0=y0, step=step)
        r = rng.uniform(0, rows - 1, 16)
        c = rng.uniform(0, cols - 1, 16)
        expected = bilinear(samples, r, c, np.nan)
        for k in range(16):
            x, y = x0 + c[k] * step, y0 + r[k] * step
            rk, ck = g.cell_of(x, y)
            # the sampler at the cell the ground position maps back to
            assert g.value_at(x, y) == bilinear(samples, rk, ck, np.nan)
            assert g.value_at(x, y) == pytest.approx(expected[k], rel=1e-9, abs=1e-9)


class TestBilinear:
    def test_off_grid_and_nan_positions_get_fill(self):
        s = np.array([[0.0, 1.0], [2.0, 3.0]], dtype=np.float32)
        out = bilinear(s, [0.5, -0.1, 0.5, np.nan, 1.0], [0.5, 0.5, 1.2, 0.5, 1.0], -7.0)
        assert out.tolist() == [1.5, -7.0, -7.0, -7.0, 3.0]

    def test_single_row_interpolates_along_columns(self):
        s = np.array([[0.0, 4.0, 8.0]], dtype=np.float32)
        assert bilinear(s, [0.0, 0.0], [0.25, 2.0], np.nan).tolist() == [1.0, 8.0]


def splat_loop(positions, shape, wraps, weight):
    """One sample and one corner at a time: the soft histogram by definition."""
    hist = np.zeros(shape)
    for k in range(len(weight)):
        per_axis = []
        for pos, n, wrap in zip(positions, shape, wraps):
            b0 = int(np.floor(pos[k]))
            frac = pos[k] - b0
            per_axis.append([(b, w) for b, w in ((b0, 1.0 - frac), (b0 + 1, frac))
                             if wrap or 0 <= b < n])
        for corner in itertools.product(*per_axis):
            idx = tuple(b % n for (b, _), n in zip(corner, shape))
            hist[idx] += weight[k] * np.prod([w for _, w in corner])
    return hist


class TestSoftHistogram:
    @settings(max_examples=60, deadline=None)
    @given(
        axes=st.lists(st.tuples(st.integers(1, 5), st.booleans()),
                      min_size=1, max_size=3),
        count=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_sample_loop(self, axes, count, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(n for n, _ in axes)
        wraps = [wrap for _, wrap in axes]
        # positions reach a bin and a half past either end, so corners fall off
        positions = [rng.uniform(-1.5, n + 0.5, count) for n in shape]
        weight = rng.uniform(-1.0, 2.0, count)
        got = soft_histogram(
            [linear_bins(p, n, wrap) for p, n, wrap in zip(positions, shape, wraps)],
            shape, weight,
        )
        assert got.shape == shape
        np.testing.assert_allclose(got, splat_loop(positions, shape, wraps, weight),
                                   rtol=0, atol=1e-12)

    def test_hard_axis_broadcasts(self):
        rng = np.random.default_rng(4)
        weight = rng.uniform(0, 1, (6, 6))
        cell = np.arange(6) // 3
        hist = soft_histogram(
            ([(cell[:, None], None)], [(cell[None, :], None)]), (2, 2), weight
        )
        expected = weight.reshape(2, 3, 2, 3).sum(axis=(1, 3))
        np.testing.assert_allclose(hist, expected, rtol=0, atol=1e-12)

    def test_off_range_neighbour_gets_zero_weight(self):
        (lo, w_lo), (hi, w_hi) = linear_bins([-0.25, 2.5], 3)
        assert lo.tolist() == [0, 2] and hi.tolist() == [0, 0]
        assert w_lo.tolist() == [0.0, 0.5] and w_hi.tolist() == [0.75, 0.0]
        (lo, w_lo), (hi, w_hi) = linear_bins([-0.25, 2.5], 3, wrap=True)
        assert lo.tolist() == [2, 2] and hi.tolist() == [0, 0]
        assert w_lo.tolist() == [0.25, 0.5] and w_hi.tolist() == [0.75, 0.5]

    def test_peak_memory_is_one_corner_at_a_time(self):
        # per corner, the flat index and the corner weight live at once; a
        # form that builds every corner before binning holds several times that
        n = 10**6
        rng = np.random.default_rng(0)
        axes = (linear_bins(rng.uniform(0, 100, n), 100),
                linear_bins(rng.uniform(0, 100, n), 100))
        weight = rng.uniform(0, 1, n)
        tracemalloc.start()
        try:
            soft_histogram(axes, (100, 100), weight)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * n, f"peak {peak / (8 * n):.2f} x 8N bytes"
