"""Analytic in-plane accuracy model for SAR-optical stereo configurations.

The stereo intersection is reduced to a trigonometric problem in the
vertical plane y = 0: the optical projection ray (a line of slope k through
the optical sensor) crosses the range-Doppler circle of radius R around the
SAR sensor.  The construction places the nominal target at (x, z) = (0, h):

    Xs = R sin(theta),          Zs = Hs
    Xo = -/+ (Ho - h) tan(alpha), Zo = Ho   (- opposite-side, + same-side)
    z  = k (x - Xo) + Zo   with   k = -/+ cot(alpha)
    (Xs - x)^2 + (Zs - z)^2 = R^2

Implicit differentiation of the combined equation gives the height
sensitivities to the two measurements:

    dh/dR     = - R k / ((Xs - x) + k (Zs - z))
    dh/dalpha = - (Xs - x)(Zo - z) / ((Xs - x) + k (Zs - z)) * (1/k) dk/dalpha

with dk/dalpha = +/- 1 / sin(alpha)^2 following the sign of k.  The
normalized height accuracy is then

    sigma_h / sigma_0 = sqrt( (dh/dR)^2 + (dh/dalpha * f)^2 )

for range noise sigma_R = sigma_0 and angular noise sigma_alpha = f * sigma_0
(f defaults to 1e-6 rad per meter).  The ratio is independent of sigma_0.

Configurations where the ray grazes the circle (opposite-side
theta + alpha = 90 deg) have no usable intersection and raise GlancingOrMiss.

One broadcast path serves the grid and the scalar API: ``accuracy_grid``
evaluates its whole (theta, alpha) mesh at once, and the scalar functions
are 1-cell calls of the same path, so they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OPPOSITE = "opposite_side"
SAME = "same_side"

SINGULAR_RATIO = 10.0  # grid cells above this ratio are flagged


class GlancingOrMiss(Exception):
    """Projection ray tangent to or missing the range-Doppler circle."""


@dataclass(frozen=True)
class StereoConfig:
    """In-plane stereo configuration (angles in radians, heights in meters).

    alpha may be negative in same_side mode, placing the optical sensor on
    the far side of the target while it keeps looking back toward it.
    """

    mode: str
    theta: float
    alpha: float
    hs: float
    ho: float
    h: float = 0.0
    sigma0: float = 1.0
    sigma_alpha_factor: float = 1e-6

    def __post_init__(self):
        if self.mode not in (OPPOSITE, SAME):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.theta < np.pi / 2:
            raise ValueError("theta must lie in (0, pi/2)")
        if not abs(self.alpha) < np.pi / 2 or _degenerate_alpha(self.alpha):
            raise ValueError(
                "alpha must lie in (-pi/2, pi/2), with sin(alpha)^2 a normal float"
            )
        if self.mode == OPPOSITE and self.alpha < 0:
            raise ValueError("alpha is signed only in same_side mode")
        if not (self.hs > self.h and self.ho > self.h):
            raise ValueError("platform heights must exceed the target height")
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be > 0")

    @property
    def slant_range(self) -> float:
        return (self.hs - self.h) / np.cos(self.theta)

    def scene(self) -> tuple[float, float, float, float, float, float]:
        """(Xs, Zs, Xo, Zo, k, R) of the in-plane construction."""
        return _scene(self.mode, self.theta, self.alpha, self.hs, self.ho, self.h)


# below this |alpha|, sin(alpha)^2 underflows the normal floats and
# dk/dalpha = 1 / sin(alpha)^2 overflows, so the accuracy is NaN or infinite
_ALPHA_MIN = float(np.sqrt(np.finfo(float).tiny))


def _degenerate_alpha(alpha):
    """Whether alpha is 0 or so small that sin(alpha)^2 underflows."""
    return np.abs(alpha) < _ALPHA_MIN


def _scene(mode, theta, alpha, hs, ho, h):
    """(Xs, Zs, Xo, Zo, k, R) of the construction, broadcast over the inputs."""
    sign = -1.0 if mode == OPPOSITE else 1.0
    r = (hs - h) / np.cos(theta)
    xs = r * np.sin(theta)
    xo = sign * (ho - h) * np.tan(alpha)
    k = sign / np.tan(alpha)
    return xs, hs, xo, ho, k, r


def _solve_ray_circle(xs, zs, xo, zo, k, r, z_ref, z_cap):
    """Intersect the line z = k (x - xo) + zo with the circle around (xs, zs).

    Returns (x, z, miss): the root with z <= z_cap nearest (0, z_ref), and
    whether the ray misses or grazes the circle (x, z are then the foot of
    the perpendicular from the center).  Written to be numerically stable at
    megameter scale and to broadcast over arrays.
    """
    xs, zs, xo, zo, k, r = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (xs, zs, xo, zo, k, r))
    )
    norm = np.hypot(1.0, k)
    sgn = -np.sign(xo)
    dx = sgn / norm
    dz = sgn * k / norm
    px, pz = xo - xs, zo - zs
    # ray parameter of the perpendicular foot and the center's distance to
    # the line; this form stays accurate when the sensor is megameters from
    # a circle only kilometers across
    tm = -(px * dx + pz * dz)
    fx = px + tm * dx
    fz = pz + tm * dz
    d_perp = np.hypot(fx, fz)
    half2 = (r - d_perp) * (r + d_perp)
    # a half-chord below 1e-5 r is indistinguishable from tangency at double
    # precision once the sensor offsets reach megameters
    miss = half2 < (1e-5 * r) ** 2
    s = np.sqrt(np.where(miss, 0.0, half2))
    cand = np.stack([tm - s, tm + s])
    x_cand = xo + cand * dx
    z_cand = zo + cand * dz
    d_cand = np.hypot(x_cand - 0.0, z_cand - z_ref)
    d_cand = np.where(z_cand <= z_cap, d_cand, np.inf)
    pick = np.argmin(d_cand, axis=0)
    x = np.take_along_axis(x_cand, pick[None], axis=0)[0]
    z = np.take_along_axis(z_cand, pick[None], axis=0)[0]
    return x, z, miss


def _partials(mode, theta, alpha, hs, ho, h):
    """(x, z, dh/dR, dh/dalpha, miss) of the construction, broadcast.

    miss marks a ray that misses the circle or meets it at a tangent,
    |den| < 1e-9 R.  Misses and cells without a viewing side (_degenerate_alpha)
    divide by zero or overflow; callers reject or flag both, so the
    warnings are silenced.
    """
    with np.errstate(all="ignore"):
        xs, zs, xo, zo, k, r = _scene(mode, theta, alpha, hs, ho, h)
        x, z, miss = _solve_ray_circle(xs, zs, xo, zo, k, r, h, np.minimum(hs, ho))
        den = (xs - x) + k * (zs - z)
        miss = miss | (np.abs(den) < 1e-9 * r)
        dh_dr = -r * k / den
        # np.square, not ** 2: a NumPy scalar's ** 2 calls pow(), which can
        # differ by an ulp from the array path's x * x
        dk_dalpha = (1.0 if mode == OPPOSITE else -1.0) / np.square(np.sin(alpha))
        dh_dalpha = -((xs - x) * (zo - z) / den) * (1.0 / k) * dk_dalpha
    return x, z, dh_dr, dh_dalpha, miss


def _cell(cfg: StereoConfig) -> tuple[float, float, float, float]:
    """(x, z, dh/dR, dh/dalpha) of one configuration; raises on a miss."""
    *values, miss = _partials(cfg.mode, cfg.theta, cfg.alpha, cfg.hs, cfg.ho, cfg.h)
    if miss:
        raise GlancingOrMiss("projection ray misses or grazes the range circle")
    return tuple(float(v) for v in values)


def intersection_point(cfg: StereoConfig) -> tuple[float, float]:
    """Solve the in-plane intersection; by construction this is (0, h)."""
    return _cell(cfg)[:2]


def height_partials(cfg: StereoConfig) -> tuple[float, float]:
    """(dh/dR, dh/dalpha) at the intersection, dh/dalpha in meters/radian."""
    return _cell(cfg)[2:]


def normalized_height_accuracy(cfg: StereoConfig) -> float:
    """sigma_h / sigma_0 from variance propagation of the two measurements."""
    dh_dr, dh_dalpha = height_partials(cfg)
    return float(np.hypot(dh_dr, dh_dalpha * cfg.sigma_alpha_factor))


@dataclass(frozen=True)
class AccuracyGrid:
    """Dense sweep of normalized height accuracy over (theta, alpha)."""

    mode: str
    theta_deg: np.ndarray
    alpha_deg: np.ndarray
    sigma_ratio: np.ndarray  # (n_theta, n_alpha); NaN where no intersection
    flags: np.ndarray  # bool; ratio > SINGULAR_RATIO or no intersection
    n_theta: int = field(init=False)
    n_alpha: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_theta", len(self.theta_deg))
        object.__setattr__(self, "n_alpha", len(self.alpha_deg))


def accuracy_grid(
    mode: str,
    theta_range_deg: tuple[float, float],
    alpha_range_deg: tuple[float, float],
    steps: tuple[int, int],
    hs: float,
    ho: float,
    h: float = 0.0,
    sigma0: float = 1.0,
    sigma_alpha_factor: float = 1e-6,
) -> AccuracyGrid:
    """Evaluate the accuracy model over a (theta, alpha) grid in degrees.

    Invalid input raises ValueError.  NaN, flagged cells: no intersection,
    alpha = 0 or so small that sin(alpha)^2 underflows, and negative alpha in
    opposite_side mode; StereoConfig rejects the same alphas.
    """
    if not (0.0 < theta_range_deg[0] and theta_range_deg[1] < 90.0):
        raise ValueError("theta range must lie within (0, 90) degrees")
    if not (-90.0 < alpha_range_deg[0] and alpha_range_deg[1] < 90.0):
        raise ValueError("alpha range must lie within (-90, 90) degrees")
    # a configuration with a valid alpha checks every other input, so the
    # cells below need only their alpha tested for a viewing side
    StereoConfig(mode, np.deg2rad(theta_range_deg[0]), np.deg2rad(45.0), hs, ho,
                 h, sigma0, sigma_alpha_factor)
    thetas = np.linspace(*theta_range_deg, steps[0])
    alphas = np.linspace(*alpha_range_deg, steps[1])
    theta, alpha = np.meshgrid(np.deg2rad(thetas), np.deg2rad(alphas), indexing="ij")
    _, _, dh_dr, dh_dalpha, miss = _partials(mode, theta, alpha, hs, ho, h)
    no_side = _degenerate_alpha(alpha) | ((mode == OPPOSITE) & (alpha < 0.0))
    ratio = np.where(
        miss | no_side, np.nan, np.hypot(dh_dr, dh_dalpha * sigma_alpha_factor)
    )
    flags = np.isnan(ratio) | (ratio > SINGULAR_RATIO)
    return AccuracyGrid(
        mode=mode, theta_deg=thetas, alpha_deg=alphas,
        sigma_ratio=ratio, flags=flags,
    )
