"""Tests for the raster container and the RFLT format."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import itertools
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from sarstereo.raster import (
    BILINEAR_BLOCK,
    BadMagic,
    DimensionOverflow,
    GroundGrid,
    OutsideDem,
    Raster,
    TruncatedPayload,
    bilinear,
    check_real,
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

    @pytest.mark.parametrize("blob, match", [
        (b"NOPE 2 2 none\n" + b"\x00" * 16, "signature"),
        (b"RFLT 2 2 none" + b"\x00" * 16, "missing header line"),
        (b"RFLT 2 2\n" + b"\x00" * 16, "malformed RFLT header"),
        (b"RFLT 2 2 none 0\n" + b"\x00" * 16, "malformed RFLT header"),
        (b"RFLT 2.0 2 none\n" + b"\x00" * 16, "non-integer dimensions"),
    ])
    def test_bad_magic(self, tmp_path, blob, match):
        path = tmp_path / "bad.rflt"
        path.write_bytes(blob)
        with pytest.raises(BadMagic, match=match):
            load_raster(path)

    def test_pgm_is_bad_magic(self, tmp_path):
        # RFLT is the only format read; a binary PGM is refused by its signature
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5 4 3 65535\n" + b"\x00" * 24)
        with pytest.raises(BadMagic, match="P5"):
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

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_save_rejects_empty_raster_and_writes_nothing(self, tmp_path, shape):
        r = Raster(samples=np.zeros(shape, dtype=np.float32),
                   sidecar={"geotransform": {"x0": 1.0, "y0": 2.0, "step": 0.5}})
        with pytest.raises(DimensionOverflow):
            save_raster(r, tmp_path / "empty.rflt")
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_round_trip(self, tmp_path):
        r = Raster(samples=np.ones((3, 3), dtype=np.float32),
                   sidecar={"geotransform": {"x0": 1.0, "y0": 2.0, "step": 0.5}})
        path = tmp_path / "geo.rflt"
        save_raster(r, path)
        assert (tmp_path / "geo.rflt.json").exists()
        back = load_raster(path)
        assert back.sidecar["geotransform"]["step"] == 0.5

    @pytest.mark.parametrize("text", ["null", "3", "[1, 2]", '"x"'])
    def test_sidecar_that_is_not_a_json_object_rejected(self, tmp_path, text):
        path = tmp_path / "geo.rflt"
        save_raster(Raster(samples=np.ones((2, 2), dtype=np.float32)), path)
        (tmp_path / "geo.rflt.json").write_text(text)
        with pytest.raises(ValueError, match=f"{path.name}.json: sidecar is not a JSON object"):
            load_raster(path)

    def test_malformed_sidecar_json_raises_decode_error(self, tmp_path):
        path = tmp_path / "geo.rflt"
        save_raster(Raster(samples=np.ones((2, 2), dtype=np.float32)), path)
        (tmp_path / "geo.rflt.json").write_text('{"geotransform": ')
        with pytest.raises(json.JSONDecodeError):
            load_raster(path)

    def test_save_without_sidecar_removes_stale_one(self, tmp_path):
        path = tmp_path / "geo.rflt"
        save_raster(Raster(samples=np.ones((3, 3), dtype=np.float32),
                           sidecar={"geotransform": {"x0": 1.0, "y0": 2.0, "step": 0.5}}),
                    path)
        save_raster(Raster(samples=np.zeros((2, 2), dtype=np.float32)), path)
        assert not (tmp_path / "geo.rflt.json").exists()
        assert load_raster(path).sidecar == {}


class TestRasterType:
    def test_nodata_excluded_from_mean(self):
        s = np.array([[1.0, 2.0], [-9999.0, 3.0]], dtype=np.float32)
        r = Raster(samples=s, nodata=-9999.0)
        assert r.valid_mask().tolist() == [[True, True], [False, True]]
        assert r.samples[r.valid_mask()].mean() == pytest.approx(2.0)
        # without a sentinel every sample is valid, -9999.0 included
        assert Raster(samples=s).valid_mask().all()

    def test_nan_nodata_excluded(self, tmp_path):
        r = Raster(samples=[[1.0, np.nan], [3.0, 5.0]], nodata=np.nan)
        path = tmp_path / "nan.rflt"
        save_raster(r, path)
        for raster in (r, load_raster(path)):
            assert raster.valid_mask().tolist() == [[True, False], [True, True]]
            assert raster.samples[raster.valid_mask()].mean() == 3.0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Raster(samples=np.zeros(5))

    def test_to_db(self):
        r = Raster(samples=np.array([[1.0, 100.0]], dtype=np.float32))
        db = to_db(r)
        assert db.samples[0, 0] == pytest.approx(0.0)
        assert db.samples[0, 1] == pytest.approx(20.0)
        assert db.nodata is None

    @pytest.mark.parametrize("nodata", [0.0, -9999.0, np.nan])
    def test_to_db_keeps_nodata_samples_invalid(self, nodata):
        # 1.0 is 0 dB, a valid value that a finite sentinel 0.0 would flag
        r = Raster(samples=np.array([[1.0, nodata, 100.0]], dtype=np.float32),
                   nodata=nodata)
        db = to_db(r)
        assert np.isnan(db.nodata)
        assert db.valid_mask().tolist() == [[True, False, True]]
        assert db.samples[0, 0] == 0.0 and db.samples[0, 2] == pytest.approx(20.0)


class TestCheckReal:
    @pytest.mark.parametrize("value", [2, 2.5, -0.0, np.float16(2.5), np.float32(0.1),
                                       np.float64(2.5), np.int64(2), Fraction(5, 2)])
    def test_returns_the_python_float(self, value):
        x = check_real("field", value)
        assert type(x) is float and x == float(value)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), None, "2.5", 1 + 0j,
                                       np.array(2.5), [2.5], math.nan, math.inf, -math.inf,
                                       np.float32(np.inf), 10**400])
    def test_rejects_what_is_not_a_finite_real_number(self, value):
        with pytest.raises(ValueError, match=r"finite field\b"):
            check_real("field", value)

    def test_above_is_a_strict_bound(self):
        assert check_real("field", 5e-324, above=0.0) == 5e-324
        for value in (0, 0.0, -0.0, -1.0):
            with pytest.raises(ValueError, match="finite field > 0"):
                check_real("field", value, above=0.0)


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

    @pytest.mark.parametrize("gt", [
        {"x0": 5.0, "y0": 6.0, "step": 0.0},
        {"x0": 5.0, "y0": 6.0, "step": -2.0},
        {"x0": 5.0, "y0": 6.0, "step": float("nan")},
        {"x0": 5.0, "y0": 6.0, "step": float("inf")},
        {"x0": float("nan"), "y0": 6.0, "step": 2.0},
        {"x0": 5.0, "y0": float("-inf"), "step": 2.0},
        {"x0": 5.0, "y0": 6.0},
        {"y0": 6.0, "step": 2.0},
        {"x0": [5.0], "y0": 6.0, "step": 2.0},
        {"x0": 5.0, "y0": None, "step": 2.0},
        {"x0": 5.0, "y0": 6.0, "step": "two"},
        {"x0": 5.0, "y0": 6.0, "step": {"m": 2.0}},
        {"x0": 5.0, "y0": 6.0, "step": True},
    ])
    def test_from_raster_rejects_bad_geotransform(self, gt):
        r = Raster(samples=np.zeros((2, 2), np.float32), sidecar={"geotransform": gt})
        # the one field that differs from a good geotransform is named
        field, = (k for k, v in {"x0": 5.0, "y0": 6.0, "step": 2.0}.items() if gt.get(k) != v)
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            GroundGrid.from_raster(r)

    @pytest.mark.parametrize("gt", [[5.0, 6.0, 2.0], "x0=5 y0=6 step=2", 2.0])
    def test_from_raster_rejects_geotransform_that_is_not_an_object(self, gt):
        r = Raster(samples=np.zeros((2, 2), np.float32), sidecar={"geotransform": gt})
        with pytest.raises(ValueError, match="not an object"):
            GroundGrid.from_raster(r)

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


def bilinear_unblocked(samples, r, c, fill):
    """The sampler over all positions at once, as it was before blocking."""
    rows, cols = samples.shape
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    inside = (r >= 0) & (r <= rows - 1) & (c >= 0) & (c <= cols - 1)
    rc = np.where(inside, r, 0.0)
    cc = np.where(inside, c, 0.0)
    r0 = np.minimum(rc.astype(int), rows - 2) if rows > 1 else np.zeros_like(rc, int)
    c0 = np.minimum(cc.astype(int), cols - 2) if cols > 1 else np.zeros_like(cc, int)
    fr = rc - r0
    fc = cc - c0
    r1 = np.minimum(r0 + 1, rows - 1)
    c1 = np.minimum(c0 + 1, cols - 1)
    v = (
        samples[r0, c0] * (1 - fr) * (1 - fc)
        + samples[r1, c0] * fr * (1 - fc)
        + samples[r0, c1] * (1 - fr) * fc
        + samples[r1, c1] * fr * fc
    )
    return np.where(inside, v, fill)


def bilinear_oracle(samples: np.ndarray, r, c, fill: float) -> np.ndarray:
    """bilinear as it was when each grid computed its own corners, verbatim.

    The reference for the bytes of every grid, alone or in a stack."""
    rows, cols = samples.shape
    r, c = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(c, dtype=float))
    out = np.empty(r.shape, dtype=np.result_type(samples.dtype, float))
    grid = samples.ravel()
    # the second corner's flat offset along each axis; a grid of one row or
    # one column has only the first
    dr = cols if rows > 1 else 0
    dc = 1 if cols > 1 else 0
    r_flat, c_flat, out_flat = r.reshape(-1), c.reshape(-1), out.reshape(-1)
    for lo in range(0, out_flat.size, BILINEAR_BLOCK):
        rb = r_flat[lo:lo + BILINEAR_BLOCK]
        cb = c_flat[lo:lo + BILINEAR_BLOCK]
        inside = (rb >= 0) & (rb <= rows - 1) & (cb >= 0) & (cb <= cols - 1)
        # any in-grid index will do for the positions that get fill
        fr = np.where(inside, rb, 0.0)
        fc = np.where(inside, cb, 0.0)
        r0 = np.minimum(fr.astype(int), max(rows - 2, 0))
        c0 = np.minimum(fc.astype(int), max(cols - 2, 0))
        fr -= r0
        fc -= c0
        gr = 1 - fr
        gc = 1 - fc
        i00 = r0 * cols
        i00 += c0
        del r0, c0
        v = out_flat[lo:lo + BILINEAR_BLOCK]
        np.multiply(grid.take(i00), gr, out=v)
        v *= gc
        for offset, wr, wc in ((dr, fr, gc), (dc, gr, fc), (dr + dc, fr, fc)):
            term = grid.take(i00 + offset) * wr
            term *= wc
            v += term
        np.copyto(v, fill, where=~inside)
    return out


B = BILINEAR_BLOCK


class TestBilinear:
    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 7), st.integers(1, 7)),
        dtype=st.sampled_from([np.float32, np.float64]),
        layout=st.sampled_from(["flat", "scalar", "broadcast"]),
        count=st.sampled_from([0, 1, B - 1, B, B + 1, 3 * B + 5]),
        fill=st.sampled_from([np.nan, -7.0, 0.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_unblocked_sampler(self, shape, dtype, layout, count, fill, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(0.0, 50.0, shape).astype(dtype)

        def positions(n, size):
            # a bin past either edge, some on grid nodes, some NaN or infinite
            p = rng.uniform(-1.5, n + 0.5, size)
            nodes = rng.random(size) < 0.2
            p[nodes] = np.round(p[nodes])
            special = rng.random(size) < 0.1
            p[special] = rng.choice([np.nan, np.inf, -np.inf], special.sum())
            return p

        rows, cols = shape
        if layout == "scalar":
            r, c = float(positions(rows, 1)[0]), float(positions(cols, 1)[0])
        elif layout == "broadcast":
            # (n, 1) against (1, 3): 3n samples, across the block edges
            r, c = positions(rows, (count, 1)), positions(cols, (1, 3))
        else:
            r, c = positions(rows, count), positions(cols, count)
        got = bilinear(samples, r, c, fill)
        want = bilinear_unblocked(samples, r, c, fill)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 7), st.integers(1, 9)),
        k=st.integers(1, 3),
        dtype=st.sampled_from([np.float32, np.float64]),
        layout=st.sampled_from(["flat", "scalar", "broadcast", "blocks", "vertices",
                                "tiles", "long rows"]),
        data=st.data(),
    )
    def test_every_grid_alone_and_in_a_stack_equals_oracle(self, shape, k, dtype, layout,
                                                           data):
        rows, cols = shape
        # signed zeros among the values, so a corner term's sign of zero shows
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e3, 1e3, width=32))
        stack = np.array(data.draw(st.lists(values, min_size=k * rows * cols,
                                            max_size=k * rows * cols)),
                         dtype=dtype).reshape(k, rows, cols)
        fills = data.draw(st.lists(st.sampled_from([np.nan, -7.0, 0.0, -0.0]),
                                   min_size=k, max_size=k))

        def positions(n, size):
            # both edges, one ulp past either, -0.0, NaN, infinities, grid
            # nodes and positions in between
            last = float(n - 1)
            special = [0.0, -0.0, last, float(np.nextafter(0.0, -1.0)),
                       float(np.nextafter(last, np.inf)), np.nan, np.inf, -np.inf]
            return np.array(data.draw(st.lists(
                st.one_of(st.sampled_from(special), st.integers(-1, n).map(float),
                          st.floats(-1.5, n + 0.5)),
                min_size=size, max_size=size)))

        m = data.draw(st.integers(1, 12))
        r, c = positions(rows, m), positions(cols, m)
        if layout == "scalar":
            r, c = float(r[0]), float(c[0])
        elif layout == "broadcast":
            r, c = r[:, None], positions(cols, 3)[None, :]
        elif layout == "blocks":
            # across the edges of BILINEAR_BLOCK
            r, c = np.resize(r, B + 7), np.resize(c, B + 7)
        elif layout == "vertices":
            # (3, 1, m) against (1, 3, m), as render_optical's vertex bound passes
            r = positions(rows, 3 * m).reshape(3, 1, m)
            c = positions(cols, 3 * m).reshape(1, 3, m)
        elif layout == "tiles":
            # two full (3, B // 2 + 1) arrays: one output row per tile
            r = np.resize(r, (3, B // 2 + 1))
            c = np.resize(c, (3, B // 2 + 1))
        elif layout == "long rows":
            # a column against a row of more than one tile
            r, c = r[:2, None], np.resize(c, B + 7)[None, :]
        want = [bilinear_oracle(g, r, c, f) for g, f in zip(stack, fills)]
        for g, f, w in zip(stack, fills, want):
            got = bilinear(g, r, c, f)
            assert got.shape == w.shape and got.dtype == w.dtype
            assert got.tobytes() == w.tobytes()
        # one call over the stack, in its own dtype and cast to float64
        for grids in (stack, stack.astype(float)):
            got = bilinear(grids, r, c, fills)
            assert got.shape == (k, *np.broadcast_shapes(np.shape(r), np.shape(c)))
            assert got.dtype == np.float64
            assert got.tobytes() == np.stack(want).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)])
    def test_signed_zero_grids_and_positions_equal_oracle(self, shape):
        # every grid of signed zeros, sampled at -0.0, +0.0, 0.5 and the far
        # edge: the sign of a zero result follows the sign of a zero
        # fraction.  Each position comes alone, as a short run and as a run
        # of 16, so numpy's scalar and vector loops both run
        rows, cols = shape
        axis = [-0.0, 0.0, 0.5]
        pairs = list(itertools.product(axis + [rows - 1.0], axis + [cols - 1.0]))
        for signs in itertools.product([0.0, -0.0], repeat=rows * cols):
            grid = np.array(signs).reshape(shape)
            stack = np.stack([grid, -grid])
            for (r, c), n in itertools.product(pairs, [None, 3, 16]):
                if n is not None:
                    r, c = np.full(n, r), np.full(n, c)
                want = [bilinear_oracle(g, r, c, -0.0) for g in stack]
                assert bilinear(grid, r, c, -0.0).tobytes() == want[0].tobytes()
                assert (bilinear(stack, r, c, (-0.0, -0.0)).tobytes()
                        == np.stack(want).tobytes())

    @pytest.mark.parametrize("samples, fill, match", [
        (np.zeros(4), 0.0, "stack"),
        (np.zeros((1, 2, 2, 2)), 0.0, "stack"),
        (np.zeros((2, 2, 2)), 0.0, "fill"),
        (np.zeros((2, 2, 2)), (0.0, 1.0, 2.0), "fill"),
        (np.zeros((2, 2)), (0.0, 1.0), "fill"),
    ])
    def test_rejects_samples_that_are_not_grids_and_a_fill_count_per_grid(
            self, samples, fill, match):
        with pytest.raises(ValueError, match=match):
            bilinear(samples, [0.5], [0.5], fill)

    def test_peak_memory_is_one_block_of_temporaries(self):
        # the output plus 16 block-sized float64 temporaries; the unblocked
        # form peaks at about eleven times the output
        n = 128_000
        rng = np.random.default_rng(0)
        samples = rng.normal(0.0, 50.0, (100, 100)).astype(np.float32)
        r, c = rng.uniform(-1, 100, n), rng.uniform(-1, 100, n)
        tracemalloc.start()
        try:
            bilinear(samples, r, c, np.nan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 16 * 8 * B, f"peak {peak / 1e6:.2f} MB"

    def test_off_grid_and_nan_positions_get_fill(self):
        s = np.array([[0.0, 1.0], [2.0, 3.0]], dtype=np.float32)
        out = bilinear(s, [0.5, -0.1, 0.5, np.nan, 1.0], [0.5, 0.5, 1.2, 0.5, 1.0], -7.0)
        assert out.tolist() == [1.5, -7.0, -7.0, -7.0, 3.0]

    def test_single_row_interpolates_along_columns(self):
        s = np.array([[0.0, 4.0, 8.0]], dtype=np.float32)
        assert bilinear(s, [0.0, 0.0], [0.25, 2.0], np.nan).tolist() == [1.0, 8.0]

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        k=st.sampled_from([None, 1, 2]),
        layout=st.sampled_from(["r column", "r row", "r one", "c one"]),
        # the output's (rows, columns): empty, one position, small, one row
        # longer than a block, and rows of half a block, over a block together
        lengths=st.sampled_from([(0, 3), (3, 0), (1, 1), (4, 7), (2, B + 3), (3, B // 2 + 1)]),
        data=st.data(),
    )
    def test_column_and_row_positions_equal_broadcast_positions(self, shape, k, layout,
                                                                lengths, data):
        # a column of positions against a row computes each row's and each
        # column's corners once; the bytes are those of the same positions
        # broadcast in full, whose corners are computed per position
        rows, cols = shape
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e3, 1e3, width=32))
        grids = np.array(data.draw(st.lists(values, min_size=rows * cols * (k or 1),
                                            max_size=rows * cols * (k or 1))),
                         dtype=np.float32).reshape(*([k] if k else []), rows, cols)
        fill = data.draw(st.lists(st.sampled_from([np.nan, -7.0, 0.0, -0.0]),
                                  min_size=k or 1, max_size=k or 1))
        fill = fill if k else fill[0]

        def positions(n, size):
            last = float(n - 1)
            special = [0.0, -0.0, last, float(np.nextafter(0.0, -1.0)),
                       float(np.nextafter(last, np.inf)), np.nan, np.inf, -np.inf]
            drawn = data.draw(st.lists(
                st.one_of(st.sampled_from(special), st.integers(-1, n).map(float),
                          st.floats(-1.5, n + 0.5)),
                min_size=min(size, 1), max_size=min(size, 12)))
            return np.resize(np.array(drawn, dtype=float), size)

        n, m = lengths
        if layout == "r column":
            r, c = positions(rows, n)[:, None], positions(cols, m)[None, :]
        elif layout == "r row":
            r, c = positions(rows, m)[None, :], positions(cols, n)[:, None]
        elif layout == "r one":
            r, c = positions(rows, 1)[:, None], positions(cols, m)[None, :]
        else:
            r, c = positions(rows, n)[:, None], positions(cols, 1)[None, :]
        full = [np.array(a) for a in np.broadcast_arrays(r, c)]  # writable copies
        got = bilinear(grids, r, c, fill)
        want = bilinear(grids, *full, fill)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for g, f, w in zip(grids if k else [grids], fill if k else [fill],
                           want if k else [want]):
            assert w.tobytes() == bilinear_oracle(g, *full, f).tobytes()


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


def soft_histogram_ravel(axes, shape, weight):
    """The binning core with np.ravel_multi_index and a weight copy per combination.

    test_similarity.py holds the same oracle for its descriptor kernels.
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
        axes = [linear_bins(p, n, wrap) for p, n, wrap in zip(positions, shape, wraps)]
        got = soft_histogram(axes, shape, weight)
        assert got.shape == shape
        # stride arithmetic adds in the same order as the ravel_multi_index form
        assert got.tobytes() == soft_histogram_ravel(axes, shape, weight).tobytes()
        np.testing.assert_allclose(got, splat_loop(positions, shape, wraps, weight),
                                   rtol=0, atol=1e-12)

    def test_hard_axis_broadcasts(self):
        rng = np.random.default_rng(4)
        weight = rng.uniform(0, 1, (6, 6))
        cell = np.arange(6) // 3
        axes = ([(cell[:, None], None)], [(cell[None, :], None)])
        hist = soft_histogram(axes, (2, 2), weight)
        expected = weight.reshape(2, 3, 2, 3).sum(axis=(1, 3))
        np.testing.assert_allclose(hist, expected, rtol=0, atol=1e-12)
        assert hist.tobytes() == soft_histogram_ravel(axes, (2, 2), weight).tobytes()

    def test_off_range_neighbour_gets_zero_weight(self):
        (lo, w_lo), (hi, w_hi) = linear_bins([-0.25, 2.5], 3)
        assert lo.tolist() == [0, 2] and hi.tolist() == [0, 0]
        assert w_lo.tolist() == [0.0, 0.5] and w_hi.tolist() == [0.75, 0.0]
        (lo, w_lo), (hi, w_hi) = linear_bins([-0.25, 2.5], 3, wrap=True)
        assert lo.tolist() == [2, 2] and hi.tolist() == [0, 0]
        assert w_lo.tolist() == [0.25, 0.5] and w_hi.tolist() == [0.75, 0.5]

    @settings(max_examples=80, deadline=None)
    @given(
        axes=st.lists(st.tuples(st.integers(1, 5), st.sampled_from(["soft", "wrap", "hard"])),
                      min_size=1, max_size=3),
        count=st.integers(0, 40),
        cuts=st.lists(st.integers(0, 40), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_consecutive_blocks_equal_one_block(self, axes, count, cuts, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(n for n, _ in axes)
        # soft positions reach a bin and a half past either end, so corners
        # fall off a non-wrapped axis
        positions = [rng.integers(0, n, count) if kind == "hard"
                     else rng.uniform(-1.5, n + 0.5, count) for n, kind in axes]
        weight = rng.uniform(-1.0, 2.0, count)

        def binned(part):
            return [[(p[part], None)] if kind == "hard"
                    else linear_bins(p[part], n, wrap=kind == "wrap")
                    for p, (n, kind) in zip(positions, axes)]

        # random consecutive blocks, empty ones included (repeated cuts)
        edges = [0, *sorted(min(c, count) for c in cuts), count]
        parts = [slice(a, b) for a, b in zip(edges, edges[1:])]
        one = soft_histogram(binned(slice(None)), shape, weight)
        got = soft_histogram(binned(parts[0]), shape, weight[parts[0]],
                             more=((binned(b), weight[b]) for b in parts[1:]))
        assert got.shape == shape and got.dtype == np.float64
        assert got.tobytes() == one.tobytes()
        assert got.tobytes() == soft_histogram_ravel(binned(slice(None)), shape, weight).tobytes()
        if len(shape) >= 2:
            # the first two axes as one: each corner pair as the flat offset
            # of its two indices with the tuple of their weights
            first, second, *rest = binned(slice(None))
            merged = [(ia * shape[1] + ib, tuple(w for w in (wa, wb) if w is not None) or None)
                      for (ia, wa), (ib, wb) in itertools.product(first, second)]
            got = soft_histogram([merged, *rest], (shape[0] * shape[1], *shape[2:]), weight)
            assert got.tobytes() == one.tobytes()

    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("n", [0, -2, 2.0, "3", None, True, np.float64(3.0)])
    def test_linear_bins_rejects_bad_axis_length(self, n, wrap):
        with pytest.raises(ValueError, match="axis length"):
            linear_bins([0.5], n, wrap=wrap)

    @pytest.mark.parametrize("wrap", [False, True])
    def test_linear_bins_accepts_numpy_integer_length(self, wrap):
        for a, b in zip(linear_bins([-0.25, 2.5], np.int64(3), wrap),
                        linear_bins([-0.25, 2.5], 3, wrap)):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 9),
        pos=st.lists(st.one_of(st.floats(-12.0, 12.0), st.floats(-1e18, 1e18),
                               st.sampled_from([-0.0, 0.5, -0.5, -1e-300, 8.0, 9.0, -9.0])),
                     min_size=1, max_size=30),
    )
    def test_wrapped_bins_equal_np_mod(self, n, pos):
        pos = np.array(pos)
        lo = np.floor(pos).astype(np.int64)
        expected = ((np.mod(lo, n), 1.0 - (pos - np.floor(pos))),
                    (np.mod(lo + 1, n), pos - np.floor(pos)))
        for got, want in zip(linear_bins(pos, n, wrap=True), expected):
            assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes()
                       for g, w in zip(got, want))

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
