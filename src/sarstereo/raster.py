"""Raster container and file formats.

The canonical on-disk format is `RFLT`: one ASCII header line

    RFLT <rows> <cols> <nodata|none>\n

followed by row-major little-endian float32 samples.  Round trips are
bit-exact.  16-bit (and 8-bit) binary PGM is accepted read-only.  A raster
may carry a JSON sidecar (written next to it as <path>.json) holding sensor
models and a geotransform.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAX_SAMPLES = 2**31


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


@dataclass
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
        return self.samples != np.float32(self.nodata)

    def mean(self) -> float:
        """Mean of valid samples; nodata is excluded from all statistics."""
        m = self.valid_mask()
        if not m.any():
            raise ValueError("raster has no valid samples")
        return float(self.samples[m].mean())


def _atomic_write(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def save_raster(raster: Raster, path) -> None:
    """Write RFLT plus an optional .json sidecar, atomically."""
    path = Path(path)
    nodata = "none" if raster.nodata is None else repr(float(raster.nodata))
    header = f"RFLT {raster.rows} {raster.cols} {nodata}\n".encode("ascii")
    body = raster.samples.astype("<f4", copy=False).tobytes(order="C")
    _atomic_write(path, header + body)
    if raster.sidecar:
        _atomic_write(
            path.with_name(path.name + ".json"),
            (json.dumps(raster.sidecar, indent=2, sort_keys=True) + "\n").encode(),
        )


def _load_rflt(blob: bytes, path: Path) -> Raster:
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
    if rows <= 0 or cols <= 0 or rows * cols > MAX_SAMPLES:
        raise DimensionOverflow(f"{path}: implausible dimensions {rows}x{cols}")
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
    return Raster(samples=samples.copy(), nodata=nodata)


def _load_pgm(blob: bytes, path: Path) -> Raster:
    # binary PGM: P5 <cols> <rows> <maxval> followed by big-endian samples
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise BadMagic(f"{path}: malformed PGM header")
        tokens.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        cols, rows, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise BadMagic(f"{path}: non-integer PGM header") from exc
    if rows <= 0 or cols <= 0 or rows * cols > MAX_SAMPLES:
        raise DimensionOverflow(f"{path}: implausible dimensions {rows}x{cols}")
    dtype = ">u2" if maxval > 255 else "u1"
    expected = rows * cols * (2 if maxval > 255 else 1)
    payload = blob[pos : pos + expected]
    if len(payload) < expected:
        raise TruncatedPayload(f"{path}: truncated PGM payload")
    samples = np.frombuffer(payload, dtype=dtype).reshape(rows, cols)
    return Raster(samples=samples.astype(np.float32))


def load_raster(path) -> Raster:
    path = Path(path)
    blob = path.read_bytes()
    if blob.startswith(b"RFLT"):
        raster = _load_rflt(blob, path)
    elif blob.startswith(b"P5"):
        raster = _load_pgm(blob, path)
    else:
        raise BadMagic(f"{path}: unknown format signature {blob[:4]!r}")
    sidecar_path = path.with_name(path.name + ".json")
    if sidecar_path.exists():
        raster.sidecar = json.loads(sidecar_path.read_text())
    return raster


def bilinear(samples: np.ndarray, r, c, fill: float) -> np.ndarray:
    """Vectorized bilinear sampling at fractional (row, col) positions.

    Positions off the grid, NaN included, return fill.  A grid of one row or
    one column interpolates along the other axis only.
    """
    rows, cols = samples.shape
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    inside = (r >= 0) & (r <= rows - 1) & (c >= 0) & (c <= cols - 1)
    # any in-grid index will do for the positions that get fill
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


def linear_bins(pos, n: int, wrap: bool = False):
    """The two neighbouring bins of fractional positions, with their weights.

    Bin k is centred at position k.  Returns ((lo, w_lo), (hi, w_hi)) with
    lo = floor(pos), hi = lo + 1, w_hi = pos - lo and w_lo = 1 - w_hi.  With
    wrap the bins are circular modulo n; without it a neighbour off [0, n)
    gets weight 0 (and index 0, so it stays a valid bin).
    """
    pos = np.asarray(pos, dtype=float)
    lo = np.floor(pos)
    w_hi = pos - lo
    w_lo = 1.0 - w_hi
    lo = lo.astype(np.int64)
    hi = lo + 1
    if wrap:
        lo %= n
        hi %= n
    else:
        for idx, w in ((lo, w_lo), (hi, w_hi)):
            off = (idx < 0) | (idx >= n)
            idx[off] = 0
            w[off] = 0.0
    return (lo, w_lo), (hi, w_hi)


def soft_histogram(axes, shape: tuple[int, ...], weight) -> np.ndarray:
    """Splat weighted samples into a histogram of the given shape.

    The adjoint of bilinear sampling: each entry of axes is one output axis
    as a sequence of (index, weight) corners, two from linear_bins for a
    soft axis or one (index, None) for a hard one; the indices broadcast to
    weight's shape.  Each sample adds weight times its corner weights to
    every combination of corners.  One bincount runs per combination, in the
    order of itertools.product, so only one combination's flat index and
    weights are alive at a time.
    """
    hist = np.zeros(int(np.prod(shape)))
    for corner in itertools.product(*axes):
        flat = np.ravel_multi_index([idx for idx, _ in corner], shape)
        w = np.array(weight, dtype=float)
        for _, wi in corner:
            if wi is not None:
                w *= wi
        hist += np.bincount(flat.ravel(), weights=w.ravel(), minlength=hist.size)
        del flat, w  # freed before the next combination's are built
    return hist.reshape(shape)


@dataclass(frozen=True)
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
        gt = raster.sidecar.get("geotransform")
        if gt is None:
            raise ValueError("raster sidecar carries no geotransform")
        return GroundGrid(
            raster=raster, x0=float(gt["x0"]), y0=float(gt["y0"]),
            step=float(gt["step"]),
        )

    def geotransform(self) -> dict:
        return {"x0": self.x0, "y0": self.y0, "step": self.step}

    def cell_of(self, x: float, y: float) -> tuple[float, float]:
        return (y - self.y0) / self.step, (x - self.x0) / self.step

    def value_at(self, x: float, y: float) -> float:
        """Bilinear sample at ground position (x, y)."""
        r, c = self.cell_of(x, y)
        rows, cols = self.raster.samples.shape
        if not (0.0 <= r <= rows - 1 and 0.0 <= c <= cols - 1):
            raise OutsideDem(f"({x:.1f}, {y:.1f}) outside gridded coverage")
        return float(bilinear(self.raster.samples, r, c, np.nan))


def to_db(raster: Raster, floor: float = 1e-6) -> Raster:
    """Convert amplitude/power samples to decibels."""
    db = 10.0 * np.log10(np.maximum(raster.samples, floor))
    return Raster(samples=db.astype(np.float32), nodata=raster.nodata,
                  sidecar=dict(raster.sidecar))
