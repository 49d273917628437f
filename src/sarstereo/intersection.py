"""SAR-optical stereo intersection by iterative least squares.

One SAR observation (zero-Doppler time, slant range) and one optical
observation (row, col) give four equations for the three unknown object
coordinates.  The overdetermined system is solved by Gauss-Newton with step
halving; observation noise propagates to a 3x3 covariance through the normal
matrix.

All residuals are made commensurable before weighting: the Doppler equation
is scaled to meters (divided by |v|), then every component is divided by the
standard deviation of its measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sarstereo.geometry import (
    BehindCamera,
    GroundPoint,
    ImagePoint,
    OpticalSensorModel,
    SarObservation,
    SarSensorModel,
    camera_frame,
    collinearity,
    in_front,
)


class IntersectionError(Exception):
    """Base class for solver failures."""


class NoConvergence(IntersectionError):
    """Gauss-Newton did not converge within max_iterations."""


class SingularNormalMatrix(IntersectionError):
    """Glancing configuration: the normal matrix is numerically singular."""


_COND_LIMIT = 1e12


@dataclass(frozen=True)
class ObservationWeights:
    """Standard deviations of the four observations.

    sigma_t in seconds, sigma_r in meters, sigma_px in pixels (shared by the
    optical row and col).
    """

    sigma_t: float
    sigma_r: float
    sigma_px: float = 0.5

    def __post_init__(self):
        if not (self.sigma_t > 0 and self.sigma_r > 0 and self.sigma_px > 0):
            raise ValueError("all observation sigmas must be > 0")

    @staticmethod
    def half_pixel(model: SarSensorModel, sigma_px: float = 0.5) -> "ObservationWeights":
        """Half-pixel measurement noise in the SAR timing/range mapping."""
        return ObservationWeights(
            sigma_t=abs(model.az_time_per_row) * 0.5,
            sigma_r=model.range_per_col * 0.5,
            sigma_px=sigma_px,
        )


@dataclass(frozen=True)
class IntersectionResult:
    point: GroundPoint
    covariance: np.ndarray
    iterations: int
    rms_residual: float


def _linearize(
    sar_model: SarSensorModel,
    opt_model: OpticalSensorModel,
    sar_obs: SarObservation,
    opt_obs: ImagePoint,
    pa: np.ndarray,
    weights: ObservationWeights,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted residuals (see residuals) and their 4x3 Jacobian at pa (3,).

    Raises BehindCamera when pa is not in front of the optical camera.
    """
    s = sar_model.position(sar_obs.t)
    v = sar_model.v
    vnorm = np.sqrt(v.dot(v))
    d = pa - s
    r_pred = np.sqrt(d.dot(d))
    doppler_m = float(np.dot(v, d)) / vnorm

    q = camera_frame(opt_model, pa)
    if not in_front(q):
        raise BehindCamera("point behind the optical camera")
    row_pred, col_pred = collinearity(opt_model, q)
    res = np.array(
        [
            (r_pred - sar_obs.r) / weights.sigma_r,
            doppler_m / (vnorm * weights.sigma_t),
            (row_pred - opt_obs.row) / weights.sigma_px,
            (col_pred - opt_obs.col) / weights.sigma_px,
        ]
    )

    rot = opt_model.rotation
    c = opt_model.focal
    # d(c*qi/q3)/dp = c*(R[:,i]*q3 - qi*R[:,2]) / q3^2
    drow = c * (rot[:, 1] * q[2] - q[1] * rot[:, 2]) / q[2] ** 2
    dcol = c * (rot[:, 0] * q[2] - q[0] * rot[:, 2]) / q[2] ** 2

    jac = np.empty((4, 3))
    jac[0] = d / (r_pred * weights.sigma_r)
    jac[1] = v / (vnorm**2 * weights.sigma_t)
    jac[2] = drow / weights.sigma_px
    jac[3] = dcol / weights.sigma_px
    return res, jac


def residuals(
    sar_model: SarSensorModel,
    opt_model: OpticalSensorModel,
    sar_obs: SarObservation,
    opt_obs: ImagePoint,
    p: GroundPoint,
    weights: ObservationWeights,
) -> np.ndarray:
    """Weighted 4-vector [range (m), Doppler (m), row (px), col (px)] / sigma."""
    return _linearize(sar_model, opt_model, sar_obs, opt_obs, p.as_array(), weights)[0]


def jacobian(
    sar_model: SarSensorModel,
    opt_model: OpticalSensorModel,
    sar_obs: SarObservation,
    opt_obs: ImagePoint,
    p: GroundPoint,
    weights: ObservationWeights,
) -> np.ndarray:
    """Analytic 4x3 Jacobian of the weighted residuals w.r.t. (x, y, h)."""
    return _linearize(sar_model, opt_model, sar_obs, opt_obs, p.as_array(), weights)[1]


def intersect(
    sar_model: SarSensorModel,
    opt_model: OpticalSensorModel,
    sar_obs: SarObservation,
    opt_obs: ImagePoint,
    initial: GroundPoint,
    weights: ObservationWeights,
    max_iterations: int = 50,
    tol: float = 1e-4,
) -> IntersectionResult:
    """Gauss-Newton solution of the 4-equation / 3-unknown intersection.

    Each iterate is linearized once.  The step is halved up to 8 times until
    the weighted SSE does not rise (a trial behind the camera counts as a
    rise), and the solver converges once the accepted update is below tol
    (meters).  If no halving is accepted, it converges where it stands only
    when the undamped step is below tol, and raises NoConvergence otherwise.
    The covariance is the inverse of the normal matrix J'J built from the
    weighted residual Jacobian.
    """
    p = initial.as_array()
    r, jac = _linearize(sar_model, opt_model, sar_obs, opt_obs, p, weights)
    sse = float(np.dot(r, r))
    for it in range(1, max_iterations + 1):
        normal = jac.T @ jac
        if np.linalg.cond(normal) > _COND_LIMIT:
            raise SingularNormalMatrix(
                f"condition number exceeds {_COND_LIMIT:g}"
            )
        step = np.linalg.solve(normal, -jac.T @ r)

        alpha = 1.0
        for _ in range(8):
            trial = p + alpha * step
            try:
                trial_r, trial_jac = _linearize(
                    sar_model, opt_model, sar_obs, opt_obs, trial, weights
                )
            except BehindCamera:
                trial_sse = np.inf
            else:
                trial_sse = float(np.dot(trial_r, trial_r))
            if trial_sse <= sse:
                p, r, jac, sse = trial, trial_r, trial_jac, trial_sse
                break
            alpha *= 0.5
        else:
            if np.linalg.norm(step) >= tol:
                raise NoConvergence(
                    f"no step halving lowered the SSE at iteration {it}"
                )
            alpha = 0.0  # converged where it stands
        if np.linalg.norm(alpha * step) < tol:
            return IntersectionResult(
                point=GroundPoint.from_array(p),
                covariance=np.linalg.inv(jac.T @ jac),
                iterations=it,
                rms_residual=float(np.sqrt(sse / len(r))),
            )
    raise NoConvergence(f"no convergence after {max_iterations} iterations")
