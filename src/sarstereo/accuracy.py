"""Analytic in-plane accuracy model for SAR-optical stereo configurations.

The stereo intersection is reduced to a trigonometric problem in the
vertical plane y = 0: the optical projection ray (a line of slope k through
the optical sensor) crosses the range-Doppler circle of radius R around the
SAR sensor.  The construction places the nominal target at (x, z) = (0, h):

    Xs = R sin(theta),          Zs = Hs
    Xo = -/+ (Ho - h) tan(alpha), Zo = Ho   (- opposite-side, + same-side)
    z  = k (x - Xo) + Zo   with   k = -/+ cot(alpha)
    (Xs - x)^2 + (Zs - z)^2 = R^2

Both curves pass through the target by construction, so no intersection
is solved for.  Implicit differentiation of the two equations at the target
gives the height sensitivities to the two measurements in closed form:

    dh/dR     = - cos(alpha) / c
    dh/dalpha = +/- (Ho - h) sin(theta) / (cos(alpha) c)   (+ same-side)

with c = cos(theta - alpha) on the same side and c = cos(theta + alpha) on
the opposite side.  The normalized height accuracy is then

    sigma_h / sigma_0 = sqrt( (dh/dR)^2 + (dh/dalpha * f)^2 )

for range noise sigma_R = sigma_0 and angular noise sigma_alpha = f * sigma_0
(f is sigma_alpha_factor, 1e-6 rad per meter by default).  The ratio is
independent of sigma_0, which is therefore no input.  It depends on theta,
alpha and Ho - h but not on Hs: the SAR platform height only scales the
circle, whose tangent at the target is set by theta alone.

The ray cannot miss the circle, but it can graze it: where |c| < 1e-5
(opposite-side theta + alpha or same-side theta - alpha near 90 deg) the
configuration raises GlancingOrMiss.  The ray's half-chord inside the
circle is R |c|, so this is the test for a half-chord below 1e-5 R, the
point where a numerical intersection of ray and circle can no longer tell
a crossing from a tangency once the sensor offsets reach megameters.

One broadcast path serves the grid and the scalar API: ``accuracy_grid``
passes theta as a column and alpha as a row, so sin(theta) is evaluated
once per theta, cos(alpha) and the viewing-side test once per alpha, and
only the coupled terms (c, the partials, the grazing test, the ratio and
the flags) once per cell.  The scalar functions are 1-cell calls of the
same path, so they agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sarstereo.raster import check_integer_pair

OPPOSITE = "opposite_side"
SAME = "same_side"

SINGULAR_RATIO = 10.0  # grid cells above this ratio are flagged


class GlancingOrMiss(Exception):
    """Projection ray grazing the range-Doppler circle at the target."""


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
        if not all(map(math.isfinite, (self.hs, self.ho, self.h))):
            raise ValueError("heights hs, ho and h must be finite")
        if not (self.hs > self.h and self.ho > self.h):
            raise ValueError("platform heights must exceed the target height")
        if not 0.0 <= self.sigma_alpha_factor < np.inf:
            raise ValueError("sigma_alpha_factor must be finite and >= 0")


# alpha = 0 puts the optical sensor straight above the target, with no
# viewing side; below this |alpha|, where sin(alpha)^2 underflows the normal
# floats, the ray slope cot(alpha) exceeds 1e153 and is treated the same
_ALPHA_MIN = float(np.sqrt(np.finfo(float).tiny))


def _degenerate_alpha(alpha):
    """Whether alpha is 0 or so small that sin(alpha)^2 underflows."""
    return np.abs(alpha) < _ALPHA_MIN


def _partials(mode, theta, alpha, ho, h):
    """(dh/dR, dh/dalpha, graze) at the target, broadcast over the inputs.

    graze marks a ray that meets the circle within 1e-5 of tangency,
    |c| < 1e-5; callers reject or flag it, and the cells without a viewing
    side (_degenerate_alpha) as well.  Heights near the float range
    overflow to inf, so the warnings are silenced.
    """
    sign = -1.0 if mode == OPPOSITE else 1.0
    with np.errstate(all="ignore"):
        c = np.cos(theta - sign * alpha)
        cos_alpha = np.cos(alpha)
        dh_dr = -cos_alpha / c
        dh_dalpha = sign * (ho - h) * np.sin(theta) / (cos_alpha * c)
    return dh_dr, dh_dalpha, np.abs(c) < 1e-5


def height_partials(cfg: StereoConfig) -> tuple[float, float]:
    """(dh/dR, dh/dalpha) at the target, dh/dalpha in meters/radian.

    Raises GlancingOrMiss where the ray grazes the range circle.
    """
    dh_dr, dh_dalpha, graze = _partials(cfg.mode, cfg.theta, cfg.alpha, cfg.ho, cfg.h)
    if graze:
        raise GlancingOrMiss("projection ray grazes the range circle")
    return float(dh_dr), float(dh_dalpha)


def normalized_height_accuracy(cfg: StereoConfig) -> float:
    """sigma_h / sigma_0 from variance propagation of the two measurements."""
    dh_dr, dh_dalpha = height_partials(cfg)
    return float(np.hypot(dh_dr, dh_dalpha * cfg.sigma_alpha_factor))


@dataclass(frozen=True, eq=False)
class AccuracyGrid:
    """Dense sweep of normalized height accuracy over (theta, alpha)."""

    mode: str
    theta_deg: np.ndarray
    alpha_deg: np.ndarray
    sigma_ratio: np.ndarray  # (theta, alpha) cells; NaN where the ray grazes
    # or alpha has no viewing side
    flags: np.ndarray  # bool; ratio > SINGULAR_RATIO or NaN


def accuracy_grid(
    mode: str,
    theta_range_deg: tuple[float, float],
    alpha_range_deg: tuple[float, float],
    steps: tuple[int, int],
    hs: float,
    ho: float,
    h: float = 0.0,
    sigma_alpha_factor: float = 1e-6,
) -> AccuracyGrid:
    """Evaluate the accuracy model over a (theta, alpha) grid in degrees.

    Invalid input raises ValueError; steps are two integers >= 1.  NaN,
    flagged cells: a ray grazing the range circle, alpha = 0 or so small
    that sin(alpha)^2 underflows, and negative alpha in opposite_side mode;
    StereoConfig rejects the same alphas.
    """
    if not all(0.0 < t < 90.0 for t in theta_range_deg):
        raise ValueError("theta range must lie within (0, 90) degrees")
    if not all(-90.0 < a < 90.0 for a in alpha_range_deg):
        raise ValueError("alpha range must lie within (-90, 90) degrees")
    check_integer_pair("steps", steps, 1)
    # a configuration with a valid alpha checks every other input, so the
    # cells below need only their alpha tested for a viewing side
    StereoConfig(mode, np.deg2rad(theta_range_deg[0]), np.deg2rad(45.0), hs, ho,
                 h, sigma_alpha_factor)
    thetas = np.linspace(*theta_range_deg, steps[0])
    alphas = np.linspace(*alpha_range_deg, steps[1])
    alpha = np.deg2rad(alphas)
    dh_dr, dh_dalpha, graze = _partials(mode, np.deg2rad(thetas)[:, None], alpha, ho, h)
    no_side = _degenerate_alpha(alpha) | ((mode == OPPOSITE) & (alpha < 0.0))
    ratio = np.hypot(dh_dr, dh_dalpha * sigma_alpha_factor)
    ratio[graze | no_side] = np.nan
    flags = np.isnan(ratio) | (ratio > SINGULAR_RATIO)
    return AccuracyGrid(
        mode=mode, theta_deg=thetas, alpha_deg=alphas,
        sigma_ratio=ratio, flags=flags,
    )
