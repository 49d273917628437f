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
        if not abs(self.alpha) < np.pi / 2 or self.alpha == 0.0:
            raise ValueError("alpha must lie in (-pi/2, pi/2) and be nonzero")
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
        r = self.slant_range
        xs = r * np.sin(self.theta)
        zs = self.hs
        zo = self.ho
        if self.mode == OPPOSITE:
            xo = -(self.ho - self.h) * np.tan(self.alpha)
            k = -1.0 / np.tan(self.alpha)
        else:
            xo = (self.ho - self.h) * np.tan(self.alpha)
            k = 1.0 / np.tan(self.alpha)
        return xs, zs, xo, zo, k, r


def _solve_ray_circle(xs, zs, xo, zo, k, r, z_ref, z_cap):
    """Intersect the line z = k (x - xo) + zo with the circle around (xs, zs).

    Returns the (x, z) root with z <= z_cap nearest (0, z_ref).  Written to
    be numerically stable at megameter scale and to broadcast over arrays
    (used by the Monte-Carlo cross-check).
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
    if np.isscalar(miss) or miss.ndim == 0:
        if miss:
            raise GlancingOrMiss("discriminant < 0: ray misses range circle")
        return float(x), float(z)
    return x, z, miss


def intersection_point(cfg: StereoConfig) -> tuple[float, float]:
    """Solve the in-plane intersection; by construction this is (0, h)."""
    xs, zs, xo, zo, k, r = cfg.scene()
    x, z = _solve_ray_circle(xs, zs, xo, zo, k, r, cfg.h, min(cfg.hs, cfg.ho))
    den = (xs - x) + k * (zs - z)
    if abs(den) < 1e-9 * r:
        raise GlancingOrMiss("ray tangent to range circle")
    return x, z


def height_partials(cfg: StereoConfig) -> tuple[float, float]:
    """(dh/dR, dh/dalpha) at the intersection, dh/dalpha in meters/radian."""
    xs, zs, xo, zo, k, r = cfg.scene()
    x, z = intersection_point(cfg)
    den = (xs - x) + k * (zs - z)
    dh_dr = -r * k / den
    dk_dalpha = 1.0 / np.sin(cfg.alpha) ** 2
    if cfg.mode == SAME:
        dk_dalpha = -dk_dalpha
    dh_dalpha = -((xs - x) * (zo - z) / den) * (1.0 / k) * dk_dalpha
    return float(dh_dr), float(dh_dalpha)


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
    alpha = 0, and negative alpha in opposite_side mode.
    """
    if not (0.0 < theta_range_deg[0] and theta_range_deg[1] < 90.0):
        raise ValueError("theta range must lie within (0, 90) degrees")
    if not (-90.0 < alpha_range_deg[0] and alpha_range_deg[1] < 90.0):
        raise ValueError("alpha range must lie within (-90, 90) degrees")
    # a configuration with a valid alpha checks every other input, so a
    # ValueError in the loop below comes from the cell's alpha alone
    StereoConfig(mode, np.deg2rad(theta_range_deg[0]), np.deg2rad(45.0), hs, ho,
                 h, sigma0, sigma_alpha_factor)
    thetas = np.linspace(*theta_range_deg, steps[0])
    alphas = np.linspace(*alpha_range_deg, steps[1])
    ratio = np.full((steps[0], steps[1]), np.nan)
    flags = np.zeros((steps[0], steps[1]), dtype=bool)
    for i, td in enumerate(thetas):
        for j, ad in enumerate(alphas):
            try:
                cfg = StereoConfig(
                    mode=mode,
                    theta=np.deg2rad(td),
                    alpha=np.deg2rad(ad),
                    hs=hs,
                    ho=ho,
                    h=h,
                    sigma0=sigma0,
                    sigma_alpha_factor=sigma_alpha_factor,
                )
                val = normalized_height_accuracy(cfg)
            except (GlancingOrMiss, ValueError):
                flags[i, j] = True
                continue
            ratio[i, j] = val
            flags[i, j] = val > SINGULAR_RATIO
    return AccuracyGrid(
        mode=mode, theta_deg=thetas, alpha_deg=alphas,
        sigma_ratio=ratio, flags=flags,
    )
