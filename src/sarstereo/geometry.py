"""Sensor models and exact forward/inverse projections.

Two imaging geometries are modeled in one local, metric, east/north/up
Cartesian frame:

* SAR range-Doppler: a point is imaged at the zero-Doppler time t where the
  sensor-to-target vector is perpendicular to the (constant) velocity, at
  slant range R = |P - S(t)|.
* Optical central projection: the classical collinearity equations with
  rotation R = Rz(kappa) @ Ry(phi) @ Rx(omega) and focal length in pixels.

Image axis convention: x maps to col and y to row, both increasing with the
pixel index.  A point is in front of the optical camera when the projection
denominator is negative (aerial convention: identity rotation looks down).

This module is the only place that states the sensor equations, and the
projections work on arrays: sar_forward_array and opt_forward_array map
ground points to (t, r) and (row, col); the optical inverse is opt_ray
(pixel to world ray) followed by ray_at_height (ray to plane z = h, whose
x and y it returns).  Ground points are float arrays of shape (..., 3)
holding (x, y, h) in the last axis; image, SAR and ground plane coordinates
are pairs of arrays of shape (...,).
An element whose projection fails is NaN (for the inverse: x and y) and
raises nothing.  The scalar functions sar_forward, opt_forward and
opt_inverse_at_height take and return the dataclasses below, call the
array forms, and raise the typed error of the failure instead:
BehindCamera for the forward projection, RayParallelToPlane for the
inverse.  sar_inverse_at_height is scalar only.

The sensor models store each scalar field as the Python float that
raster.check_real returns, and each vector as three such floats in a float64
array, so a numpy scalar type cannot change the geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from sarstereo.raster import check_real, sidecar_entry


class GeometryError(Exception):
    """Base class for projection failures."""


class NoIntersection(GeometryError):
    """Range sphere does not reach the requested height plane."""


class AmbiguousSide(GeometryError):
    """Vertical velocity: left/right of track is undefined."""


class BehindCamera(GeometryError):
    """Point is not in front of the optical camera."""


class RayParallelToPlane(GeometryError):
    """Viewing ray does not intersect the height plane."""


def _vec3(name: str, v) -> np.ndarray:
    """v as a float64 3-vector; ValueError, naming name, unless it has three
    entries, each as check_real takes it."""
    a = np.asarray(v, dtype=object)  # keeps a bool or a string as it is
    if a.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {a.shape}")
    return np.array([check_real(f"{name} entry", x) for x in a])


def _store_reals(model, names, positive: str) -> None:
    """Store each field of names as check_real returns it; positive's is > 0."""
    for name in names:
        above = 0.0 if name == positive else -math.inf
        object.__setattr__(model, name, check_real(name, getattr(model, name), above))


@dataclass(frozen=True)
class GroundPoint:
    """3D object coordinates in the local frame (meters)."""

    x: float
    y: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.h)):
            raise ValueError("GroundPoint coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.h])


@dataclass(frozen=True)
class ImagePoint:
    """Sub-pixel image coordinates (row, col)."""

    row: float
    col: float

    def __post_init__(self):
        if not (math.isfinite(self.row) and math.isfinite(self.col)):
            raise ValueError("ImagePoint coordinates must be finite")


@dataclass(frozen=True)
class SarObservation:
    """Principal SAR measurements: zero-Doppler time t and slant range r."""

    t: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.r) and self.r > 0):
            raise ValueError("SarObservation requires finite t and r > 0")


@dataclass(frozen=True, eq=False)
class SarSensorModel:
    """Linear zero-Doppler orbit with timing/range-to-pixel mapping.

    s0 is the sensor position at reference time t0, v the constant velocity.
    Row r of the image is acquired at t = t0 + r * az_time_per_row and col c
    sits at slant range r_near + c * range_per_col.
    """

    s0: np.ndarray
    v: np.ndarray
    t0: float = 0.0
    az_time_per_row: float = 1e-3
    r_near: float = 0.0
    range_per_col: float = 1.0
    look_side: str = "right"

    def __post_init__(self):
        object.__setattr__(self, "s0", _vec3("s0", self.s0))
        object.__setattr__(self, "v", _vec3("v", self.v))
        _store_reals(self, ("t0", "az_time_per_row", "r_near", "range_per_col"),
                     positive="range_per_col")
        if np.linalg.norm(self.v) <= 0:
            raise ValueError("SarSensorModel requires |v| > 0")
        if self.az_time_per_row == 0:
            raise ValueError("SarSensorModel requires az_time_per_row != 0")
        if self.look_side not in ("left", "right"):
            raise ValueError("look_side must be 'left' or 'right'")

    def position(self, t) -> np.ndarray:
        """Sensor position (..., 3) at time(s) t of shape (...,)."""
        return self.s0 + np.multiply.outer(t - self.t0, self.v)

    def obs_from_pixel(self, ip: ImagePoint) -> SarObservation:
        return SarObservation(
            t=self.t0 + ip.row * self.az_time_per_row,
            r=self.r_near + ip.col * self.range_per_col,
        )

    def pixel_from_obs(self, obs: SarObservation) -> ImagePoint:
        return ImagePoint(
            row=(obs.t - self.t0) / self.az_time_per_row,
            col=(obs.r - self.r_near) / self.range_per_col,
        )


@dataclass(frozen=True, eq=False)
class OpticalSensorModel:
    """Central projection camera: projection center, angles, focal in pixels."""

    pc: np.ndarray
    phi: float = 0.0
    omega: float = 0.0
    kappa: float = 0.0
    focal: float = 1.0
    principal_row: float = 0.0
    principal_col: float = 0.0
    rotation: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pc", _vec3("pc", self.pc))
        _store_reals(self, ("phi", "omega", "kappa", "focal", "principal_row",
                            "principal_col"), positive="focal")
        object.__setattr__(self, "rotation",
                           rotation_from_angles(self.phi, self.omega, self.kappa))


_SIDECAR_KEYS = {"sar_model": SarSensorModel, "optical_model": OpticalSensorModel}


def model_to_sidecar(model) -> dict:
    """Raster sidecar entry of a model: {"sar_model" | "optical_model": fields}."""
    key, = (k for k, cls in _SIDECAR_KEYS.items() if isinstance(model, cls))
    # tolist turns the vectors into lists and keeps floats and strings
    return {key: {f.name: np.asarray(getattr(model, f.name)).tolist()
                  for f in fields(model) if f.init}}


def model_from_sidecar(sidecar: dict):
    """The sensor model of a raster sidecar written with model_to_sidecar.

    ValueError when the sidecar holds no model entry, when the entry is not
    a JSON object, or when it lacks a field; the message names the fields.
    """
    for key, cls in _SIDECAR_KEYS.items():
        if key in sidecar:
            names = [f.name for f in fields(cls) if f.init]
            entry = sidecar_entry(sidecar, key, names)
            return cls(**{n: entry[n] for n in names})
    raise ValueError("sidecar holds no sensor model")


def _xyz(a):
    """The coordinates of points a (..., 3): three arrays of shape (...,).

    Per-coordinate arithmetic on many points runs along long rows, not in
    triples; for one point they are numpy scalars, cheaper than 0-d arrays.
    """
    return a[..., 0][()], a[..., 1][()], a[..., 2][()]


def rotation_from_angles(phi: float, omega: float, kappa: float) -> np.ndarray:
    """Orthonormal rotation R = Rz(kappa) @ Ry(phi) @ Rx(omega)."""
    if not (math.isfinite(phi) and math.isfinite(omega) and math.isfinite(kappa)):
        raise ValueError("rotation angles must be finite")
    cp, sp = np.cos(phi), np.sin(phi)
    co, so = np.cos(omega), np.sin(omega)
    ck, sk = np.cos(kappa), np.sin(kappa)
    rx = np.array([[1, 0, 0], [0, co, -so], [0, so, co]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[ck, -sk, 0], [sk, ck, 0], [0, 0, 1]])
    return rz @ ry @ rx


def sar_forward_array(model: SarSensorModel, p) -> tuple[np.ndarray, np.ndarray]:
    """Zero-Doppler time and slant range (t, r) of ground points p (..., 3).

    For a constant-velocity orbit the zero-Doppler condition
    v . (p - s(t)) = 0 has the closed form t = t0 + v . (p - s0) / |v|^2.
    """
    x, y, h = _xyz(np.asarray(p, dtype=float))
    (sx, sy, sz), (vx, vy, vz) = model.s0, model.v
    dt = (vx * (x - sx) + vy * (y - sy) + vz * (h - sz)) / (model.v @ model.v)
    # products, not ** 2: a numpy scalar's ** 2 calls pow(), which can differ
    # by an ulp from the array path's x * x
    ex, ey, eh = x - (sx + vx * dt), y - (sy + vy * dt), h - (sz + vz * dt)
    r = np.sqrt(ex * ex + ey * ey + eh * eh)
    return model.t0 + dt, r


def sar_forward(model: SarSensorModel, p: GroundPoint) -> SarObservation:
    """Project a ground point through the range-Doppler equations."""
    t, r = sar_forward_array(model, p.as_array())
    return SarObservation(t=float(t), r=float(r))


def sar_inverse_at_height(
    model: SarSensorModel, obs: SarObservation, h: float
) -> GroundPoint:
    """Invert (t, r) to the ground point at height h on the look side.

    The zero-Doppler plane through s(t) intersected with z = h is a line;
    the slant range picks two candidates on it and look_side disambiguates.
    """
    s = model.position(obs.t)
    n = model.v / np.linalg.norm(model.v)
    # right-pointing line direction v-hat x z-hat: in the zero-Doppler plane
    # and horizontal, so it spans the intersection line with z = h
    right = np.array([n[1], -n[0], 0.0])
    rn = np.linalg.norm(right)
    if rn < 1e-12:
        raise AmbiguousSide("velocity is vertical; look side undefined")
    right /= rn
    # closest point on the line {n.(q-s)=0, q_z=h} to the sensor
    nz = n[2]
    mu = (h - s[2]) / (1.0 - nz * nz)
    lam = -nz * mu
    q0 = s + lam * n + mu * np.array([0.0, 0.0, 1.0])
    d0sq = float(np.dot(q0 - s, q0 - s))
    disc = obs.r * obs.r - d0sq
    if disc < 0:
        raise NoIntersection(
            f"range {obs.r} below closest plane distance {np.sqrt(d0sq)}"
        )
    step = np.sqrt(disc)
    q = q0 + (step if model.look_side == "right" else -step) * right
    return GroundPoint(float(q[0]), float(q[1]), float(h))


def camera_frame(model: OpticalSensorModel, p) -> np.ndarray:
    """Camera-frame coordinates q = R^T (p - pc) of ground points p (..., 3)."""
    return (p - model.pc) @ model.rotation


def in_front(q) -> np.ndarray:
    """Whether camera-frame points q (..., 3) lie in front of the camera."""
    return q[..., 2] < 0


def collinearity(model: OpticalSensorModel, q) -> tuple[np.ndarray, np.ndarray]:
    """Image coordinates (row, col) of camera-frame points q (..., 3).

    Valid for points in front of the camera only; see in_front.
    """
    qx, qy, qz = _xyz(q)
    row = model.principal_row + model.focal * qy / qz
    col = model.principal_col + model.focal * qx / qz
    return row, col


def opt_forward_array(model: OpticalSensorModel, p) -> tuple[np.ndarray, np.ndarray]:
    """Image coordinates (row, col) of ground points p (..., 3).

    NaN where the point is not in front of the camera.
    """
    q = camera_frame(model, p)
    q[~in_front(q)] = np.nan
    return collinearity(model, q)


def opt_forward(model: OpticalSensorModel, p: GroundPoint) -> ImagePoint:
    """Project a ground point through the central projection equations."""
    row, col = opt_forward_array(model, p.as_array())
    if np.isnan(row):
        raise BehindCamera("projection denominator has the wrong sign")
    return ImagePoint(row=float(row), col=float(col))


def opt_ray(model: OpticalSensorModel, row, col) -> np.ndarray:
    """World direction (..., 3) of the viewing rays of pixels (row, col).

    The direction points away from the camera, in front of it.  Rays that
    run parallel to every height plane are NaN.
    """
    x_img = (np.asarray(col, dtype=float) - model.principal_col) / model.focal
    y_img = (np.asarray(row, dtype=float) - model.principal_row) / model.focal
    rot = model.rotation
    # w = R q for the camera-frame direction q = -(x_img, y_img, 1), which
    # has the in-front sign.  The einsum keeps each component of w
    # contiguous in memory, so per-ray arithmetic over many rays runs along
    # long rows instead of triples.
    w = -(np.einsum("ij,j...->...i", rot[:, :2], np.array((x_img, y_img))) + rot[:, 2])
    w[np.abs(w[..., 2]) < 1e-15 * np.linalg.norm(w, axis=-1)] = np.nan
    return w


def ray_at_height(origin, w, h) -> tuple[np.ndarray, np.ndarray]:
    """Ground coordinates (x, y) where rays origin + s w cross planes z = h.

    h broadcasts against w[..., 2], and x and y have the shape of the two;
    NaN rays give NaN x and y.
    """
    s = (h - origin[2]) / w[..., 2]
    return s * w[..., 0] + origin[0], s * w[..., 1] + origin[1]


def opt_inverse_at_height(
    model: OpticalSensorModel, ip: ImagePoint, h: float
) -> GroundPoint:
    """Intersect the viewing ray of a pixel with the plane z = h."""
    x, y = ray_at_height(model.pc, opt_ray(model, ip.row, ip.col), h)
    if np.isnan(x):
        raise RayParallelToPlane(f"ray parallel to plane z = {h}")
    return GroundPoint(float(x), float(y), float(h))
