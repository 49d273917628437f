"""SAR-optical stereo intersection by iterative least squares.

One SAR observation (zero-Doppler time, slant range) and one optical
observation (row, col) give four equations for the three unknown object
coordinates.  The overdetermined system is solved by Gauss-Newton with step
halving; observation noise propagates to a 3x3 covariance through the normal
matrix.

All residuals are made commensurable before weighting: the Doppler equation
is scaled to meters (divided by |v|), then every component is divided by the
standard deviation of its measurement.

A well-conditioned solve makes no LAPACK call.  The terms fixed by the
observations (the SAR position at the observed time, the Doppler row of the
Jacobian and the reciprocal sigmas) are computed once per solve.  The
symmetric 3x3 normal matrix N = J'J is built as its six unique entries and
inverted by a closed-form Cholesky factorization; a non-finite N or J'r, or
a non-positive pivot, is a SingularNormalMatrix.  N is refused when its
condition number lambda_max(N) * lambda_max(N^-1) exceeds 1e12.

The eigenvalues are needed only near the limit.  For a symmetric positive
definite N, lambda_max(N) <= tr(N) and lambda_max(N^-1) <= tr(N^-1), so
cond(N) <= tr(N) * tr(N^-1), and N is accepted at once when that product is
at most 1e12 / 2; the factor 2 leaves room for the rounding of the
eigenvalues, so the screen accepts nothing the eigenvalue test would refuse.
Only the matrices the screen leaves get np.linalg.eigvalsh of N and N^-1.

intersect raises ValueError before its first linearization unless tol is
finite and > 0 and max_iterations is an integer >= 1; ObservationWeights
requires every sigma to be finite and > 0.
"""

from __future__ import annotations

import math
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
from sarstereo.raster import check_integer, store_reals


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
    optical row and col).  Each is stored as raster.check_real's float > 0.
    """

    sigma_t: float
    sigma_r: float
    sigma_px: float = 0.5

    def __post_init__(self):
        store_reals(self, positive=("sigma_t", "sigma_r", "sigma_px"))

    @staticmethod
    def half_pixel(model: SarSensorModel, sigma_px: float = 0.5) -> "ObservationWeights":
        """Half-pixel measurement noise in the SAR timing/range mapping."""
        return ObservationWeights(
            sigma_t=abs(model.az_time_per_row) * 0.5,
            sigma_r=model.range_per_col * 0.5,
            sigma_px=sigma_px,
        )


@dataclass(frozen=True, eq=False)
class IntersectionResult:
    point: GroundPoint
    covariance: np.ndarray
    iterations: int
    rms_residual: float


class _TiePoint:
    """The four weighted observation equations of one tie point.

    Every term that does not depend on the point being tried is computed
    once, here: the SAR position at the observed time, the constant Doppler
    row v / (|v|^2 sigma_t) of the Jacobian and the reciprocal sigmas.
    """

    __slots__ = ("opt_model", "s", "doppler_row", "r", "w_r", "row", "col",
                 "w_px", "focal", "rot_cols")

    def __init__(
        self,
        sar_model: SarSensorModel,
        opt_model: OpticalSensorModel,
        sar_obs: SarObservation,
        opt_obs: ImagePoint,
        weights: ObservationWeights,
    ):
        v = sar_model.v.tolist()
        scale = 1.0 / (sum(c * c for c in v) * weights.sigma_t)
        self.opt_model = opt_model
        self.s = sar_model.position(sar_obs.t).tolist()
        self.doppler_row = tuple(c * scale for c in v)
        self.r = float(sar_obs.r)
        self.w_r = 1.0 / weights.sigma_r
        self.row = float(opt_obs.row)
        self.col = float(opt_obs.col)
        self.w_px = 1.0 / weights.sigma_px
        self.focal = opt_model.focal
        self.rot_cols = opt_model.rotation.T.tolist()

    def linearize(self, p: tuple) -> tuple[tuple, tuple]:
        """Weighted residuals (see residuals) and their 4x3 Jacobian, by rows,
        at p = (x, y, h).

        Raises BehindCamera when p is not in front of the optical camera.  At
        the SAR sensor position the range row of the Jacobian is NaN.
        """
        q = camera_frame(self.opt_model, np.array(p))
        if not in_front(q):
            raise BehindCamera("point behind the optical camera")
        row_pred, col_pred = collinearity(self.opt_model, q)
        qx, qy, qz = q.tolist()

        sx, sy, sz = self.s
        dx, dy, dz = p[0] - sx, p[1] - sy, p[2] - sz
        r_pred = math.sqrt(dx * dx + dy * dy + dz * dz)
        gx, gy, gz = self.doppler_row
        res = (
            (r_pred - self.r) * self.w_r,
            dx * gx + dy * gy + dz * gz,
            (float(row_pred) - self.row) * self.w_px,
            (float(col_pred) - self.col) * self.w_px,
        )

        # d(f*qi/q3)/dp = (f/q3) * (R[:,i] - (qi/q3) * R[:,2])
        k = self.focal * self.w_px / qz
        u, w = qy / qz, qx / qz
        (r0x, r0y, r0z), (r1x, r1y, r1z), (r2x, r2y, r2z) = self.rot_cols
        kr = self.w_r / r_pred if r_pred > 0 else math.nan
        jac = (
            (dx * kr, dy * kr, dz * kr),
            self.doppler_row,
            (k * (r1x - u * r2x), k * (r1y - u * r2y), k * (r1z - u * r2z)),
            (k * (r0x - w * r2x), k * (r0y - w * r2y), k * (r0z - w * r2z)),
        )
        return res, jac


def _normal_equations(res: tuple, jac: tuple) -> tuple[tuple, tuple]:
    """The six unique entries of N = J'J (n11 n12 n13 n22 n23 n33) and J'r."""
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = jac
    r0, r1, r2, r3 = res
    normal = (
        a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3,
        a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3,
        a0 * c0 + a1 * c1 + a2 * c2 + a3 * c3,
        b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3,
        b0 * c0 + b1 * c1 + b2 * c2 + b3 * c3,
        c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3,
    )
    grad = (
        a0 * r0 + a1 * r1 + a2 * r2 + a3 * r3,
        b0 * r0 + b1 * r1 + b2 * r2 + b3 * r3,
        c0 * r0 + c1 * r1 + c2 * r2 + c3 * r3,
    )
    return normal, grad


def _spd_inverse(normal: tuple) -> tuple:
    """Inverse of a symmetric positive definite 3x3 matrix, both as six
    unique entries, by Cholesky N = LL' and N^-1 = M'M with M = L^-1.

    Raises SingularNormalMatrix when an entry is not finite or a pivot is
    not positive.
    """
    n11, n12, n13, n22, n23, n33 = normal
    if not math.isfinite(n11 + n12 + n13 + n22 + n23 + n33):
        raise SingularNormalMatrix("normal matrix is not finite")
    if not n11 > 0:
        raise SingularNormalMatrix("normal matrix is not positive definite")
    l11 = math.sqrt(n11)
    l21, l31 = n12 / l11, n13 / l11
    d22 = n22 - l21 * l21
    if not d22 > 0:
        raise SingularNormalMatrix("normal matrix is not positive definite")
    l22 = math.sqrt(d22)
    l32 = (n23 - l21 * l31) / l22
    d33 = n33 - l31 * l31 - l32 * l32
    if not d33 > 0:
        raise SingularNormalMatrix("normal matrix is not positive definite")
    l33 = math.sqrt(d33)
    m11, m22, m33 = 1.0 / l11, 1.0 / l22, 1.0 / l33
    m21 = -l21 * m11 / l22
    m32 = -l32 * m22 / l33
    m31 = -(l31 * m11 + l32 * m21) / l33
    return (
        m11 * m11 + m21 * m21 + m31 * m31,
        m21 * m22 + m31 * m32,
        m31 * m33,
        m22 * m22 + m32 * m32,
        m32 * m33,
        m33 * m33,
    )


def _conditioned_inverse(normal: tuple) -> tuple:
    """N^-1 (six entries) of a normal matrix whose condition number
    lambda_max(N) * lambda_max(N^-1) is at most 1e12.

    Raises SingularNormalMatrix otherwise, or when N is not finite and
    positive definite.  N is accepted without eigenvalues when
    tr(N) * tr(N^-1) <= 1e12 / 2, an upper bound on the condition number.
    """
    inverse = _spd_inverse(normal)
    trace = normal[0] + normal[3] + normal[5]
    if trace * (inverse[0] + inverse[3] + inverse[5]) <= _COND_LIMIT / 2:
        return inverse
    cond = (np.linalg.eigvalsh(_symmetric(normal))[-1]
            * np.linalg.eigvalsh(_symmetric(inverse))[-1])
    if not cond <= _COND_LIMIT:
        raise SingularNormalMatrix(f"condition number exceeds {_COND_LIMIT:g}")
    return inverse


def _sum_sq(res: tuple) -> float:
    r0, r1, r2, r3 = res
    return r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3


def _symmetric(entries: tuple) -> np.ndarray:
    """The 3x3 matrix of six unique entries (n11 n12 n13 n22 n23 n33)."""
    n11, n12, n13, n22, n23, n33 = entries
    return np.array([[n11, n12, n13], [n12, n22, n23], [n13, n23, n33]])


def residuals(
    sar_model: SarSensorModel,
    opt_model: OpticalSensorModel,
    sar_obs: SarObservation,
    opt_obs: ImagePoint,
    p: GroundPoint,
    weights: ObservationWeights,
) -> np.ndarray:
    """Weighted 4-vector [range (m), Doppler (m), row (px), col (px)] / sigma."""
    return np.array(_TiePoint(sar_model, opt_model, sar_obs, opt_obs, weights)
                    .linearize((p.x, p.y, p.h))[0])


def jacobian(
    sar_model: SarSensorModel,
    opt_model: OpticalSensorModel,
    sar_obs: SarObservation,
    opt_obs: ImagePoint,
    p: GroundPoint,
    weights: ObservationWeights,
) -> np.ndarray:
    """Analytic 4x3 Jacobian of the weighted residuals w.r.t. (x, y, h)."""
    return np.array(_TiePoint(sar_model, opt_model, sar_obs, opt_obs, weights)
                    .linearize((p.x, p.y, p.h))[1])


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

    The normal equations are solved in closed form (see the module
    docstring).  SingularNormalMatrix is raised when the condition number
    of J'J exceeds 1e12; J'J is accepted without eigenvalues when
    tr(J'J) * tr((J'J)^-1), an upper bound on the condition number, is at
    most 1e12 / 2.  It is also raised when the residuals, the
    Jacobian or J'J are not finite (at the SAR sensor position, say) or J'J
    is not positive definite.  The covariance is the inverse of J'J at the
    solution.

    Raises ValueError before any linearization unless tol is finite and
    > 0 and max_iterations is an integer >= 1.
    """
    check_integer("max_iterations", max_iterations, 1)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")

    tie = _TiePoint(sar_model, opt_model, sar_obs, opt_obs, weights)
    p = (initial.x, initial.y, initial.h)
    r, jac = tie.linearize(p)
    sse = _sum_sq(r)
    for it in range(1, max_iterations + 1):
        normal, (g1, g2, g3) = _normal_equations(r, jac)
        if not math.isfinite(g1 + g2 + g3):
            raise SingularNormalMatrix("normal equations are not finite")
        c11, c12, c13, c22, c23, c33 = _conditioned_inverse(normal)
        step = (
            -(c11 * g1 + c12 * g2 + c13 * g3),
            -(c12 * g1 + c22 * g2 + c23 * g3),
            -(c13 * g1 + c23 * g2 + c33 * g3),
        )
        step_norm = math.sqrt(step[0] * step[0] + step[1] * step[1] + step[2] * step[2])

        alpha = 1.0
        for _ in range(8):
            trial = (p[0] + alpha * step[0], p[1] + alpha * step[1], p[2] + alpha * step[2])
            try:
                trial_r, trial_jac = tie.linearize(trial)
            except BehindCamera:
                trial_sse = math.inf
            else:
                trial_sse = _sum_sq(trial_r)
            if trial_sse <= sse:
                p, r, jac, sse = trial, trial_r, trial_jac, trial_sse
                break
            alpha *= 0.5
        else:
            if step_norm >= tol:
                raise NoConvergence(
                    f"no step halving lowered the SSE at iteration {it}"
                )
            alpha = 0.0  # converged where it stands
        if alpha * step_norm < tol:
            return IntersectionResult(
                point=GroundPoint(*p),
                covariance=_symmetric(_spd_inverse(_normal_equations(r, jac)[0])),
                iterations=it,
                rms_residual=math.sqrt(sse / len(r)),
            )
    raise NoConvergence(f"no convergence after {max_iterations} iterations")
