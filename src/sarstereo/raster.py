"""Raster container and file formats.

The canonical on-disk format is `RFLT`: one ASCII header line

    RFLT <rows> <cols> <nodata|none>\n

followed by row-major little-endian float32 samples.  Round trips are
bit-exact, and RFLT is the only format read or written.  A raster may
carry a JSON sidecar (written next to it as <path>.json) holding sensor
models and a geotransform.

Sampling and splatting: bilinear samples a grid, or a stack of same-shape
grids, at fractional positions, and soft_histogram is its adjoint, fed by
linear_bins.  bilinear is built from three steps that callers may also take
on their own: bilinear_axis (each axis's in-grid mask, first corner and
fraction), bilinear_corners (the four corner values) and bilinear_sum (their
weighted sum, stated there only).  bilinear takes every layout of positions
through one tiled loop, whose tiles serve every grid of a stack and take a
column against a row without broadcasting it.  render_optical's bisection,
whose positions stay in one cell, gathers the corners once and calls
bilinear_sum alone.  Every path gives the bytes of sampling each position on
its own.  sidecar_entry, check_integer, check_integer_pair and check_real
(the one rule for a real number, sidecars' included) are the input checks
that several modules share.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAX_SAMPLES = 2**31
DB_FLOOR = 1e-6  # to_db clamps samples to this before the logarithm
BILINEAR_BLOCK = 8192  # positions bilinear samples at a time: 64 KiB of float64


class RasterError(Exception):
    """Base class for raster format failures."""


class BadMagic(RasterError):
    """File does not start with a known format signature."""


class TruncatedPayload(RasterError):
    """Sample payload shorter than the header promises."""


class DimensionOverflow(RasterError):
    """Header dimensions are non-positive or implausibly large."""


class OutsideDem(Exception):
    """Query point outside the gridded coverage."""


@dataclass(eq=False)
class Raster:
    """2D sample grid with optional nodata sentinel and sidecar metadata."""

    samples: np.ndarray
    nodata: float | None = None
    sidecar: dict = field(default_factory=dict)

    def __post_init__(self):
        a = np.asarray(self.samples, dtype=np.float32)
        if a.ndim != 2:
            raise ValueError(f"raster samples must be 2D, got {a.ndim}D")
        self.samples = a

    @property
    def rows(self) -> int:
        return self.samples.shape[0]

    @property
    def cols(self) -> int:
        return self.samples.shape[1]

    def valid_mask(self) -> np.ndarray:
        if self.nodata is None:
            return np.ones(self.samples.shape, dtype=bool)
        if np.isnan(self.nodata):
            return ~np.isnan(self.samples)  # NaN compares unequal to itself
        return self.samples != np.float32(self.nodata)


def _atomic_write(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _check_dimensions(rows: int, cols: int, path: Path) -> None:
    if rows <= 0 or cols <= 0 or rows * cols > MAX_SAMPLES:
        raise DimensionOverflow(f"{path}: implausible dimensions {rows}x{cols}")


def save_raster(raster: Raster, path) -> None:
    """Write RFLT plus an optional .json sidecar, atomically.

    A raster without a sidecar removes the one an earlier save left at
    <path>.json, so load_raster does not return stale metadata.  Dimensions
    load_raster would reject raise DimensionOverflow before anything is
    written.
    """
    path = Path(path)
    _check_dimensions(raster.rows, raster.cols, path)
    nodata = "none" if raster.nodata is None else repr(float(raster.nodata))
    header = f"RFLT {raster.rows} {raster.cols} {nodata}\n".encode("ascii")
    body = raster.samples.astype("<f4", copy=False).tobytes(order="C")
    _atomic_write(path, header + body)
    sidecar_path = path.with_name(path.name + ".json")
    if raster.sidecar:
        _atomic_write(
            sidecar_path,
            (json.dumps(raster.sidecar, indent=2, sort_keys=True) + "\n").encode(),
        )
    else:
        sidecar_path.unlink(missing_ok=True)


def load_raster(path) -> Raster:
    """Read an RFLT file and its <path>.json sidecar, if any; ValueError,
    naming the sidecar, when it holds JSON other than an object."""
    path = Path(path)
    blob = path.read_bytes()
    if not blob.startswith(b"RFLT"):
        raise BadMagic(f"{path}: unknown format signature {blob[:4]!r}")
    newline = blob.find(b"\n")
    if newline < 0:
        raise BadMagic(f"{path}: missing header line")
    parts = blob[:newline].decode("ascii", errors="replace").split()
    if len(parts) != 4:
        raise BadMagic(f"{path}: malformed RFLT header")
    try:
        rows, cols = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise BadMagic(f"{path}: non-integer dimensions") from exc
    _check_dimensions(rows, cols, path)
    try:
        nodata = None if parts[3] == "none" else float(parts[3])
    except ValueError as exc:
        raise BadMagic(f"{path}: non-numeric nodata token") from exc
    payload = blob[newline + 1 :]
    expected = rows * cols * 4
    if len(payload) < expected:
        raise TruncatedPayload(
            f"{path}: expected {expected} payload bytes, got {len(payload)}"
        )
    samples = np.frombuffer(payload[:expected], dtype="<f4").reshape(rows, cols)
    sidecar_path = path.with_name(path.name + ".json")
    sidecar = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else {}
    if not isinstance(sidecar, dict):
        raise ValueError(f"{sidecar_path}: sidecar is not a JSON object: {sidecar!r}")
    return Raster(samples=samples.copy(), nodata=nodata, sidecar=sidecar)


def sidecar_entry(sidecar: dict, key: str, names) -> dict:
    """The JSON object sidecar[key]; ValueError, naming key or the fields of
    names it lacks, when it is missing, not an object, or incomplete."""
    if key not in sidecar:
        raise ValueError(f"sidecar holds no {key!r}")
    entry = sidecar[key]
    if not isinstance(entry, dict):
        raise ValueError(f"sidecar {key!r} is not an object: {entry!r}")
    missing = [n for n in names if n not in entry]
    if missing:
        raise ValueError(f"sidecar {key!r} lacks field(s) {', '.join(missing)}")
    return entry


def check_integer(name: str, value, least: int) -> None:
    """ValueError, naming name, unless value is an integer >= least; a numpy
    integer counts, a bool or a float does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_integer_pair(name: str, value, least: int) -> None:
    """ValueError, naming name, unless value is a sequence of two integers
    >= least, each as check_integer takes it."""
    try:
        pair = len(value) == 2
    except TypeError:  # a number or None has no length
        pair = False
    if not pair:
        raise ValueError(f"{name} must be two integers >= {least}, got {value!r}")
    for n in value:
        check_integer(f"{name} entry", n, least)


def check_real(name: str, value, above: float = -math.inf) -> float:
    """value as a Python float; ValueError, naming name, unless it is a
    finite real number > above.  A numpy scalar counts, a bool, a string,
    None or an array does not."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond float range
            x = math.inf
        if math.isfinite(x) and x > above:
            return x
    bound = "" if above == -math.inf else f" > {above:g}"
    raise ValueError(f"expected a finite {name}{bound} (a real number, not a bool), "
                     f"got {value!r}")


def bilinear(samples: np.ndarray, r, c, fill) -> np.ndarray:
    """Vectorized bilinear sampling at fractional (row, col) positions.

    samples is one grid (rows, cols), or a stack (k, rows, cols) of grids
    sampled at the same positions; a stack takes one fill per grid and its
    result gets a leading axis of length k.  r and c broadcast against each
    other, and the result has their shape.  Positions off the grid, NaN
    included, return fill.  A grid of one row or one column interpolates
    along the other axis only.

    Each axis's in-grid test, first corner and fraction come from
    bilinear_axis, the corner values from bilinear_corners and the value
    from bilinear_sum.  Positions other than a pair of 2-D arrays are taken
    as one row.  One loop fills the preallocated result in tiles of whole
    rows, or of BILINEAR_BLOCK positions of one row, writing fill where a
    position is off the grid.  A tile takes r and c whole along an axis of
    length one, so a column against a row gets its axis terms once per row
    and once per column of a tile.  The allocator reuses a tile's
    temporaries, at most 64 KiB per grid, and its corners serve every grid.
    Each position gets the terms it would get on its own, so the result has
    the bytes of an untiled evaluation of each grid alone.
    """
    # contiguous, so each tile's bilinear_corners flattens it as a view
    samples = np.ascontiguousarray(samples)
    if samples.ndim not in (2, 3):
        raise ValueError(f"samples must be one grid or a stack of grids, got {samples.ndim}D")
    *stack, rows, cols = samples.shape
    fills = np.asarray(fill, dtype=float)
    if fills.size != math.prod(stack):
        raise ValueError(f"need one fill per grid, got {fills.size} for {math.prod(stack)}")
    r, c = np.asarray(r, dtype=float), np.asarray(c, dtype=float)
    out = tiles = np.empty((*stack, *np.broadcast(r, c).shape),
                           dtype=np.result_type(samples.dtype, float))
    if not r.ndim == c.ndim == 2:
        if r.shape != c.shape:
            r, c = np.broadcast_arrays(r, c)
        r, c, tiles = r.reshape(1, -1), c.reshape(1, -1), out.reshape(*stack, 1, -1)
    fills = fills.reshape(*stack, 1, 1)
    n, m = tiles.shape[-2:]
    tile_rows = max(1, BILINEAR_BLOCK // max(m, 1))
    for i in range(0, n, tile_rows):
        for j in range(0, m, BILINEAR_BLOCK):
            # a tile starts at 0 along an axis of length one, so takes it whole
            r_in, r0, fr = bilinear_axis(
                r[i * (len(r) > 1):i + tile_rows, j * (r.shape[1] > 1):j + BILINEAR_BLOCK], rows)
            c_in, c0, fc = bilinear_axis(
                c[i * (len(c) > 1):i + tile_rows, j * (c.shape[1] > 1):j + BILINEAR_BLOCK], cols)
            v = tiles[..., i:i + tile_rows, j:j + BILINEAR_BLOCK]
            bilinear_sum(bilinear_corners(samples, r0, c0), fr, fc, out=v)
            np.copyto(v, fills, where=~(r_in & c_in))
    return out


def bilinear_axis(pos: np.ndarray, n: int):
    """One axis of bilinear: for positions along an axis of n samples, the
    in-grid mask, the first corner and the fraction past it.

    A position off [0, n - 1], NaN included, gets corner 0 and fraction 0,
    so its corners stay valid indices.  The first corner is at most n - 2,
    so the last sample is the second corner at fraction 1; on an axis of one
    sample it is 0.
    """
    inside = (pos >= 0) & (pos <= n - 1)
    frac = np.where(inside, pos, 0.0)
    first = np.minimum(frac.astype(int), max(n - 2, 0))
    frac -= first
    return inside, first, frac


def bilinear_corners(samples: np.ndarray, r0: np.ndarray, c0: np.ndarray):
    """The values of a grid, or a stack of grids, at the four corners of
    the cells whose first corners are (r0, c0), which broadcast.

    Yields one array at a time, in bilinear_sum's order: (r0, c0),
    (r0 + 1, c0), (r0, c0 + 1) and (r0 + 1, c0 + 1), each taken from the
    flattened grid at the broadcast flat index of the corner.  A grid of one
    row or one column has only the first corner along that axis.
    """
    *stack, rows, cols = samples.shape
    dr = cols if rows > 1 else 0
    dc = 1 if cols > 1 else 0
    grids = samples.reshape(*stack, rows * cols)
    first = r0 * cols + c0
    for offset in (0, dr, dc, dr + dc):
        yield grids.take(first + offset if offset else first, axis=-1)


def bilinear_sum(corners, fr, fc, out=None) -> np.ndarray:
    """Bilinear's weighted sum of four corner values at fractions fr, fc.

    corners holds the values in bilinear_corners' order, and fr and fc
    broadcast against them.  With gr = 1 - fr and gc = 1 - fc the value is
    ((v00 gr) gc + (v10 fr) gc) + (v01 gr) fc + (v11 fr) fc, each product
    and sum in this order, so the sum over corners gathered once gives the
    bytes bilinear gives at the same fractions.  Written into out if given.
    """
    corners = iter(corners)
    gr, gc = 1 - fr, 1 - fc
    v = np.multiply(next(corners), gr, out=out)
    v *= gc
    for value, wr, wc in zip(corners, (fr, gr, fr), (gc, fc, fc)):
        term = value * wr
        term *= wc
        v += term
    return v


def linear_bins(pos, n: int, wrap: bool = False):
    """The two neighbouring bins of fractional positions, with their weights.

    Bin k is centred at position k.  Returns ((lo, w_lo), (hi, w_hi)) with
    lo = floor(pos), hi = lo + 1, w_hi = pos - lo and w_lo = 1 - w_hi.  With
    wrap the bins are circular modulo n; without it a neighbour off [0, n)
    gets weight 0 (and index 0, so it stays a valid bin).  ValueError unless
    n is an integer >= 1.
    """
    check_integer("axis length", n, 1)
    pos = np.asarray(pos, dtype=float)
    lo = np.floor(pos)
    w_hi = pos - lo
    w_lo = 1.0 - w_hi
    lo = lo.astype(np.int64)
    if wrap:
        # one integer modulo: (lo + 1) mod n is lo mod n + 1, or 0 where that is n
        lo %= n
        hi = lo + 1
        hi *= hi != n
    else:
        hi = lo + 1
        for idx, w in ((lo, w_lo), (hi, w_hi)):
            off = (idx < 0) | (idx >= n)
            idx[off] = 0
            w[off] = 0.0
    return (lo, w_lo), (hi, w_hi)


def soft_histogram(axes, shape: tuple[int, ...], weight, more=()) -> np.ndarray:
    """Splat weighted samples into a histogram of the given shape.

    The adjoint of bilinear sampling: each entry of axes is one output axis
    as a sequence of (index, weight) corners, two from linear_bins for a
    soft axis or one (index, None) for a hard one; the indices broadcast to
    weight's shape and each lies in [0, n) of its axis, as linear_bins'
    always do.  Each sample adds weight times its corner weights to every
    combination of corners, multiplied in axis by axis.  Only one
    combination's flat index and weights are alive at a time.

    A corner weight may also be a tuple of factors, multiplied in in order,
    so several axes can be passed combined into one: a corner of the
    combined axis carries the flat offset of its corners on those axes and
    their weights as a tuple.  With the corners listed in the order of
    itertools.product over the axes it replaces, every product and sum is
    the one of the separate axes, and so are the bytes.

    more holds further consecutive blocks of samples, each an (axes, weight)
    pair like the first; a generator keeps one block alive at a time.  Each
    combination has its own accumulator: the first block's bincount starts
    it and later blocks add into it with np.add.at, which, like bincount,
    adds sample after sample into a running total, so the blocks give the
    bytes of one bincount over all samples.  The accumulators are then
    summed in the order of itertools.product.  Memory is one block plus one
    accumulator per combination, whatever the number of samples.

    The flat index is stride arithmetic on the axes' indices, and the inputs
    are only read, so axes that depend only on a window's geometry can be
    built once and passed again: sarstereo.similarity caches the HOG/HOPC
    cell index per (side, cell) and SIFT's combined spatial corners per
    scale as read-only arrays.
    """
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    size = math.prod(shape)
    acc = []
    for axes, weight in itertools.chain([(axes, weight)], more):
        weight = np.asarray(weight, dtype=float)
        for k, corner in enumerate(itertools.product(*axes)):
            flat = corner[-1][0]  # the last axis has stride 1
            for (idx, _), stride in zip(corner[:-1], strides):
                flat = idx * stride + flat
            w = weight
            for _, wi in corner:
                for f in wi if isinstance(wi, tuple) else (wi,):
                    if f is not None:
                        w = weight * f if w is weight else np.multiply(w, f, out=w)
            if k < len(acc):
                np.add.at(acc[k], flat.ravel(), w.ravel())
            else:
                # an empty bincount is int64, which np.add.at would truncate into
                acc.append(np.bincount(flat.ravel(), weights=w.ravel(), minlength=size)
                           .astype(float, copy=False))
            del flat, w  # freed before the next combination's are built
    # summed into the first accumulator: a bincount never holds -0.0, so
    # adding it to zeros would give the same bytes
    hist = acc[0]
    for a in acc[1:]:
        hist += a
    return hist.reshape(shape)


@dataclass(frozen=True, eq=False)
class GroundGrid:
    """A raster indexed by ground coordinates (cell centers on a square grid).

    Cell (row, col) sits at (x0 + col * step, y0 + row * step).
    """

    raster: Raster
    x0: float
    y0: float
    step: float

    @staticmethod
    def from_raster(raster: Raster) -> "GroundGrid":
        """The grid of the sidecar's geotransform {"x0", "y0", "step"}.

        ValueError, naming the field at fault (see sidecar_entry), unless
        the geotransform is an object whose x0 and y0 are finite numbers and
        whose step is a finite number > 0, each as check_real takes it.
        """
        gt = sidecar_entry(raster.sidecar, "geotransform", ("x0", "y0", "step"))
        return GroundGrid(raster, check_real("geotransform x0", gt["x0"]),
                          check_real("geotransform y0", gt["y0"]),
                          check_real("geotransform step", gt["step"], above=0.0))

    def cell_of(self, x: float, y: float) -> tuple[float, float]:
        return (y - self.y0) / self.step, (x - self.x0) / self.step

    def value_at(self, x: float, y: float) -> float:
        """Bilinear sample at ground position (x, y)."""
        r, c = self.cell_of(x, y)
        rows, cols = self.raster.samples.shape
        if not (0.0 <= r <= rows - 1 and 0.0 <= c <= cols - 1):
            raise OutsideDem(f"({x:.1f}, {y:.1f}) outside gridded coverage")
        return float(bilinear(self.raster.samples, r, c, np.nan))


def to_db(raster: Raster) -> Raster:
    """Convert amplitude/power samples to decibels, clamped below at DB_FLOOR.

    A finite sentinel can be a valid decibel value, so a raster with nodata
    comes back with NaN at its invalid samples and nodata NaN.
    """
    db = 10.0 * np.log10(np.maximum(raster.samples, DB_FLOOR))
    nodata = raster.nodata
    if nodata is not None:
        db[~raster.valid_mask()] = np.nan
        nodata = math.nan
    return Raster(samples=db.astype(np.float32), nodata=nodata,
                  sidecar=dict(raster.sidecar))
