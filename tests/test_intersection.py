"""Tests for the stereo intersection solver."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

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
    opt_forward,
    sar_forward,
)
from sarstereo.intersection import (
    IntersectionResult,
    NoConvergence,
    ObservationWeights,
    SingularNormalMatrix,
    _conditioned_inverse,
    _spd_inverse,
    _sum_sq,
    _TiePoint,
    intersect,
    jacobian,
    residuals,
)

D2R = np.pi / 180.0


def stereo_setup(mode="same", theta_deg=21.0, alpha_deg=8.0, hs=515e3,
                 ho=770e3, focal=2e5, sigma0=1.0, sigma_alpha_factor=1e-6):
    """Build a 3D configuration matching the in-plane stereo sketch.

    Target at the origin; SAR and optical sensors in the y = 0 plane, the
    optical viewing angle realized by a pitch of the camera axis.  The pixel
    noise is the image-plane equivalent of the angular noise
    sigma_alpha = sigma_alpha_factor * sigma0.
    """
    th = theta_deg * D2R
    al = alpha_deg * D2R
    r_sar = hs / np.cos(th)
    xs = r_sar * np.sin(th)
    sar = SarSensorModel(
        s0=(xs, 0.0, hs), v=(0.0, 7500.0, 0.0), look_side="left",
        az_time_per_row=1e-4, r_near=r_sar - 500.0, range_per_col=0.5,
    )
    sign = 1.0 if mode == "same" else -1.0
    opt = OpticalSensorModel(
        pc=(sign * ho * np.tan(al), 0.0, ho),
        phi=sign * al,
        focal=focal,
    )
    weights = ObservationWeights(
        sigma_t=sigma0 / np.linalg.norm(sar.v),
        sigma_r=sigma0,
        sigma_px=sigma_alpha_factor * sigma0 * focal,
    )
    return sar, opt, weights


def exact_observations(sar, opt, p):
    return sar_forward(sar, p), opt_forward(opt, p)


def _lapack_linearize(sar_model, opt_model, sar_obs, opt_obs, pa, weights):
    """Weighted residuals and Jacobian, restated per call with numpy."""
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
    drow = c * (rot[:, 1] * q[2] - q[1] * rot[:, 2]) / q[2] ** 2
    dcol = c * (rot[:, 0] * q[2] - q[0] * rot[:, 2]) / q[2] ** 2
    jac = np.empty((4, 3))
    jac[0] = d / (r_pred * weights.sigma_r)
    jac[1] = v / (vnorm**2 * weights.sigma_t)
    jac[2] = drow / weights.sigma_px
    jac[3] = dcol / weights.sigma_px
    return res, jac


def lapack_intersect(sar_model, opt_model, sar_obs, opt_obs, initial, weights,
                     max_iterations=50, tol=1e-4, trace=None):
    """Oracle: the same Gauss-Newton rule with np.linalg cond, solve and inv.

    Residuals, Jacobian and SSE come from the library's _TiePoint and
    _sum_sq, so both solvers compare the same SSE values and differ only in
    the solve; _lapack_linearize checks that linearization on its own.
    If trace is a list, each iteration appends to it a dict of its start
    point, the SSE there, the undamped step, the SSE of each trial step in
    order, and the norms its convergence tests compared with tol.
    """
    tie = _TiePoint(sar_model, opt_model, sar_obs, opt_obs, weights)
    p = initial.as_array()
    r, jac = tie.linearize(tuple(p.tolist()))
    r, jac, sse = np.array(r), np.array(jac), _sum_sq(r)
    for it in range(1, max_iterations + 1):
        normal = jac.T @ jac
        if np.linalg.cond(normal) > 1e12:
            raise SingularNormalMatrix("condition number exceeds 1e12")
        step = np.linalg.solve(normal, -jac.T @ r)
        record = dict(start=p, sse=sse, step=step, trials=[], norms=[])
        if trace is not None:
            trace.append(record)
        alpha = 1.0
        for _ in range(8):
            trial = p + alpha * step
            try:
                trial_r, trial_jac = tie.linearize(tuple(trial.tolist()))
            except BehindCamera:
                trial_sse = np.inf
            else:
                trial_sse = _sum_sq(trial_r)
            record["trials"].append(trial_sse)
            if trial_sse <= sse:
                p, r, jac, sse = trial, np.array(trial_r), np.array(trial_jac), trial_sse
                break
            alpha *= 0.5
        else:
            record["norms"].append(np.linalg.norm(step))
            if record["norms"][-1] >= tol:
                raise NoConvergence(f"no step halving lowered the SSE at iteration {it}")
            alpha = 0.0
        record["norms"].append(np.linalg.norm(alpha * step))
        if record["norms"][-1] < tol:
            return IntersectionResult(
                point=GroundPoint(*p),
                covariance=np.linalg.inv(jac.T @ jac),
                iterations=it,
                rms_residual=float(np.sqrt(sse / len(r))),
            )
    raise NoConvergence(f"no convergence after {max_iterations} iterations")


def _outcome(solver, *args, **kwargs):
    try:
        return solver(*args, **kwargs)
    except (SingularNormalMatrix, NoConvergence, BehindCamera) as e:
        return type(e)


def _tested_at_tol(trace, margin, tol=1e-4):
    """Whether a convergence test of lapack_intersect, which filled trace,
    compared a norm within margin of tol."""
    return any(abs(n - tol) <= margin for record in trace for n in record["norms"])


class TestResiduals:
    def test_zero_at_ground_truth(self):
        sar, opt, w = stereo_setup()
        p = GroundPoint(12.0, -7.0, 3.0)
        sar_obs, opt_obs = exact_observations(sar, opt, p)
        r = residuals(sar, opt, sar_obs, opt_obs, p, w)
        assert np.abs(r).max() < 1e-9

    def test_height_offset_moves_range_by_cos_theta(self):
        theta_deg = 35.0
        sar, _, _ = stereo_setup(theta_deg=theta_deg)
        opt = OpticalSensorModel(pc=(0.0, 0.0, 770e3), focal=2e5)
        w = ObservationWeights(sigma_t=1e-4, sigma_r=2.0, sigma_px=0.5)
        p = GroundPoint(0.0, 0.0, 0.0)
        sar_obs, opt_obs = exact_observations(sar, opt, p)
        r = residuals(sar, opt, sar_obs, opt_obs, GroundPoint(0, 0, 1.0), w)
        # finite-difference oracle on sar_forward
        dr = sar_forward(sar, GroundPoint(0, 0, 1.0)).r - sar_obs.r
        assert r[0] == pytest.approx(dr / w.sigma_r, rel=1e-12)
        assert r[0] == pytest.approx(-np.cos(theta_deg * D2R) / w.sigma_r,
                                     rel=1e-4)

    def test_lateral_offset_shifts_doppler_projection(self):
        sar, opt, w = stereo_setup()
        p = GroundPoint(0.0, 0.0, 0.0)
        sar_obs, opt_obs = exact_observations(sar, opt, p)
        delta = np.array([0.4, 0.9, 0.0])
        r = residuals(
            sar, opt, sar_obs, opt_obs, GroundPoint(*(p.as_array() + delta)), w
        )
        vnorm = np.linalg.norm(sar.v)
        vhat = sar.v / vnorm
        expected = float(np.dot(vhat, delta)) / (vnorm * w.sigma_t)
        assert r[1] == pytest.approx(expected, rel=1e-9)


class TestJacobian:
    def test_matches_central_differences_random_configs(self):
        rng = np.random.default_rng(99)
        step = 1e-3
        for _ in range(1000):
            theta = rng.uniform(15, 55)
            alpha = rng.uniform(3, 25)
            mode = "same" if rng.random() < 0.5 else "opposite"
            sar, opt, w = stereo_setup(mode, theta, alpha)
            p = GroundPoint(*rng.uniform([-50, -50, 0], [50, 50, 40]))
            sar_obs, opt_obs = exact_observations(sar, opt, p)
            jac = jacobian(sar, opt, sar_obs, opt_obs, p, w)
            fd = np.empty((4, 3))
            for j in range(3):
                dp = np.zeros(3)
                dp[j] = step
                rp = residuals(
                    sar, opt, sar_obs, opt_obs,
                    GroundPoint(*(p.as_array() + dp)), w,
                )
                rm = residuals(
                    sar, opt, sar_obs, opt_obs,
                    GroundPoint(*(p.as_array() - dp)), w,
                )
                fd[:, j] = (rp - rm) / (2 * step)
            err = np.linalg.norm(jac - fd) / np.linalg.norm(fd)
            assert err < 1e-6


class TestIntersect:
    def test_noise_free_recovery(self):
        sar, opt, w = stereo_setup()
        p = GroundPoint(5.0, -3.0, 12.0)
        sar_obs, opt_obs = exact_observations(sar, opt, p)
        initial = GroundPoint(35.0, -23.0, 27.0)
        res = intersect(sar, opt, sar_obs, opt_obs, initial, w)
        assert isinstance(res, IntersectionResult)
        assert res.iterations <= 10
        assert np.allclose(res.point.as_array(), p.as_array(), atol=1e-6)
        assert res.rms_residual < 1e-8

    def test_gauss_newton_fixed_point(self):
        sar, opt, w = stereo_setup(mode="opposite", theta_deg=40, alpha_deg=15)
        p = GroundPoint(2.0, 4.0, 7.0)
        sar_obs, opt_obs = exact_observations(sar, opt, p)
        # noisy observations so the fixed point is nontrivial
        rng = np.random.default_rng(5)
        from sarstereo.geometry import SarObservation

        noisy_sar = SarObservation(
            t=sar_obs.t + rng.normal(0, w.sigma_t),
            r=sar_obs.r + rng.normal(0, w.sigma_r),
        )
        noisy_opt = ImagePoint(
            row=opt_obs.row + rng.normal(0, w.sigma_px),
            col=opt_obs.col + rng.normal(0, w.sigma_px),
        )
        res = intersect(sar, opt, noisy_sar, noisy_opt, p, w, tol=1e-10)
        jac = jacobian(sar, opt, noisy_sar, noisy_opt, res.point, w)
        r = residuals(sar, opt, noisy_sar, noisy_opt, res.point, w)
        assert np.abs(jac.T @ r).max() < 1e-8

    def test_initial_height_perturbation_independence(self):
        sar, opt, w = stereo_setup()
        p = GroundPoint(-8.0, 14.0, 25.0)
        sar_obs, opt_obs = exact_observations(sar, opt, p)
        base = intersect(
            sar, opt, sar_obs, opt_obs, GroundPoint(0, 0, 25), w
        ).point.as_array()
        for dh in (-100.0, -40.0, 40.0, 100.0):
            res = intersect(
                sar, opt, sar_obs, opt_obs, GroundPoint(0, 0, 25 + dh), w
            )
            assert np.allclose(res.point.as_array(), base, atol=1e-4)

    def test_same_side_normalized_height_accuracy(self):
        # same-side TSX/WV2 configuration of the Munich dataset
        sigma0 = 1.0
        sar, opt, w = stereo_setup(
            mode="same", theta_deg=21.0, alpha_deg=8.0, hs=515e3, ho=770e3,
            sigma0=sigma0,
        )
        p = GroundPoint(0.0, 0.0, 0.0)
        sar_obs, opt_obs = exact_observations(sar, opt, p)
        res = intersect(sar, opt, sar_obs, opt_obs, GroundPoint(3, 3, 10), w)
        ratio = np.sqrt(res.covariance[2, 2]) / sigma0
        assert ratio == pytest.approx(1.04, abs=0.1)

    @pytest.mark.parametrize("tol", [1.0, 1e-4])
    def test_exhausted_step_halving_is_not_convergence(self, tol):
        # a low camera 171.5 m up, started far off: at the fifth iterate no
        # halving of the step lowers the SSE, and the step is not below tol;
        # the point where it stands is no minimum (rms residual near 1e4)
        sar = SarSensorModel(
            s0=(3434.4, 0, 3000), v=(0, 200, 0), look_side="left",
            az_time_per_row=1e-3, r_near=4060, range_per_col=0.5,
        )
        opt = OpticalSensorModel(pc=(21.03, 0, 171.53), phi=0.122, focal=1000)
        sar_obs, opt_obs = exact_observations(sar, opt, GroundPoint(0.78, 0.16, 0.76))
        w = ObservationWeights(sigma_t=1e-3, sigma_r=0.5, sigma_px=0.5)
        with pytest.raises(NoConvergence):
            intersect(sar, opt, sar_obs, opt_obs, GroundPoint(272.6, -44.7, 138.1), w,
                      tol=tol)

    def test_monte_carlo_height_variance(self):
        from sarstereo.geometry import SarObservation

        sar, opt, w = stereo_setup(mode="opposite", theta_deg=40, alpha_deg=12)
        p = GroundPoint(0.0, 0.0, 0.0)
        sar_obs, opt_obs = exact_observations(sar, opt, p)
        res = intersect(sar, opt, sar_obs, opt_obs, GroundPoint(2, 2, 5), w)
        analytic = res.covariance
        rng = np.random.default_rng(77)
        n = 10_000
        heights = np.empty(n)
        for i in range(n):
            obs_s = SarObservation(
                t=sar_obs.t + rng.normal(0, w.sigma_t),
                r=sar_obs.r + rng.normal(0, w.sigma_r),
            )
            obs_o = ImagePoint(
                row=opt_obs.row + rng.normal(0, w.sigma_px),
                col=opt_obs.col + rng.normal(0, w.sigma_px),
            )
            heights[i] = intersect(sar, opt, obs_s, obs_o, p, w).point.h
        sample_var = np.var(heights, ddof=1)
        assert sample_var == pytest.approx(analytic[2, 2], rel=0.05)

    def test_covariance_shrinks_with_sigma_r(self):
        sar, opt, _ = stereo_setup(mode="same", theta_deg=30, alpha_deg=10)
        p = GroundPoint(0.0, 0.0, 0.0)
        sar_obs, opt_obs = exact_observations(sar, opt, p)
        sigmas = [2.0, 1.0, 0.5, 0.25, 0.125]
        covs = []
        for s_r in sigmas:
            w = ObservationWeights(sigma_t=1e-4, sigma_r=s_r, sigma_px=0.2)
            covs.append(
                intersect(sar, opt, sar_obs, opt_obs, p, w).covariance
            )
        for big, small in zip(covs, covs[1:]):
            diff = big - small
            assert np.all(np.linalg.eigvalsh(diff) > -1e-12)
            assert small[2, 2] < big[2, 2]

    def test_glancing_condition_number_growth(self):
        theta = 54.0
        conds = []
        p = GroundPoint(0.0, 0.0, 0.0)
        for alpha in (20.0, 26.0, 30.0, 33.0, 35.0, 35.9, 35.99):
            sar, opt, w = stereo_setup("opposite", theta, alpha)
            sar_obs, opt_obs = exact_observations(sar, opt, p)
            jac = jacobian(sar, opt, sar_obs, opt_obs, p, w)
            conds.append(np.linalg.cond(jac.T @ jac))
        assert all(b > a for a, b in zip(conds, conds[1:]))
        # within a hair of theta + alpha = 90 deg the solver must refuse
        sar, opt, w = stereo_setup("opposite", theta, 36.0 - 1e-7)
        sar_obs, opt_obs = exact_observations(sar, opt, p)
        with pytest.raises(SingularNormalMatrix):
            intersect(sar, opt, sar_obs, opt_obs, GroundPoint(0, 0, 1), w)


def _exhausted_halving_setup():
    """The low-camera case of test_exhausted_step_halving_is_not_convergence."""
    sar = SarSensorModel(
        s0=(3434.4, 0, 3000), v=(0, 200, 0), look_side="left",
        az_time_per_row=1e-3, r_near=4060, range_per_col=0.5,
    )
    opt = OpticalSensorModel(pc=(21.03, 0, 171.53), phi=0.122, focal=1000)
    sar_obs, opt_obs = exact_observations(sar, opt, GroundPoint(0.78, 0.16, 0.76))
    w = ObservationWeights(sigma_t=1e-3, sigma_r=0.5, sigma_px=0.5)
    return sar, opt, sar_obs, opt_obs, GroundPoint(272.6, -44.7, 138.1), w


# a noisy tie point: stereo_setup's geometry, observations of target moved
# by noise (in sigmas), and a start offset from target
_TIE_POINT = dict(
    mode=st.sampled_from(["same", "opposite"]),
    theta=st.floats(15.0, 55.0),
    alpha=st.floats(3.0, 30.0),
    target=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(0.0, 40.0)),
    offset=st.tuples(*[st.floats(-8.0, 8.0)] * 3),
    noise=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
)


def _noisy_tie_point(mode, theta, alpha, target, offset, noise):
    """intersect's arguments (sar, opt, sar_obs, opt_obs, start, weights)."""
    sar, opt, w = stereo_setup(mode, theta, alpha)
    sar_obs, opt_obs = exact_observations(sar, opt, GroundPoint(*target))
    sar_obs = SarObservation(t=sar_obs.t + noise[0] * w.sigma_t,
                             r=sar_obs.r + noise[1] * w.sigma_r)
    opt_obs = ImagePoint(row=opt_obs.row + noise[2] * w.sigma_px,
                         col=opt_obs.col + noise[3] * w.sigma_px)
    return sar, opt, sar_obs, opt_obs, GroundPoint(*(np.add(target, offset))), w


class TestAgainstLapackOracle:
    @settings(max_examples=150, deadline=None)
    @given(**_TIE_POINT, max_iterations=st.integers(1, 50))
    # two draws where the points differ by more than 1e-9 m (1.16e-9 and
    # 1.14e-9 m), about six float spacings of the slant range
    @example(mode="opposite", theta=51.0, alpha=28.0, target=(1.0, 0.0, 0.0),
             offset=(2.0, -1.0, 0.0), noise=(2.0, 2.0, 0.0, 0.0), max_iterations=3)
    @example(mode="opposite", theta=53.91349143957989, alpha=29.0,
             target=(14.625, 44.671875, 0.0),
             offset=(6.5625, 4.062752807391366, 7.938689396977487),
             noise=(0.0, 0.7347145285015007, 0.0, 1.1070361166524956), max_iterations=3)
    # a draw whose last step changed the SSE by less than one float spacing
    # of it, when the oracle restated the residuals with numpy: the two
    # solvers then halved that step differently
    @example(mode="same", theta=49.5, alpha=3.0, target=(1.0, 6.0, 1.0),
             offset=(0.5, 0.0, 0.0), noise=(-1.125, 0.0, -0.78125, 0.0), max_iterations=2)
    # near-glancing starts with cond(J'J) of 1.6e12 (SingularNormalMatrix)
    # and 6.6e11 (NoConvergence in one iteration), so that a condition limit
    # moved by a factor of 2 either way changes the outcome
    @example(mode="opposite", theta=54.0, alpha=35.99982, target=(0.0, 0.0, 0.0),
             offset=(0.0, 0.0, 1.0), noise=(0.0, 0.0, 0.0, 0.0), max_iterations=1)
    @example(mode="opposite", theta=54.0, alpha=35.99977, target=(0.0, 0.0, 0.0),
             offset=(0.0, 0.0, 1.0), noise=(0.0, 0.0, 0.0, 0.0), max_iterations=1)
    # a last step of 3.8e-9 m whose trial SSE lies one float spacing below
    # the SSE: the oracle takes it whole, the closed form 1/32 of it, and the
    # points differ by 3.04e-9 m, past 16 float spacings of the slant range
    @example(mode="opposite", theta=51.375, alpha=25.875, target=(1.40625, 0.0, 0.0),
             offset=(6.5, 2.0, 1.6875), noise=(-2.65625, 0.0, -3.0, -3.0), max_iterations=3)
    # a first update of tol, 1e-4 m, to within rounding: the oracle's norm
    # is below tol and it converges, the closed form's is not
    @example(mode="same", theta=15.0, alpha=3.0, target=(0.0, 0.0, 1.0),
             offset=(0.0, 0.0001, 0.0), noise=(0.0, 0.0, 0.0, 0.0), max_iterations=1)
    def test_same_point_iterations_and_failures(
        self, mode, theta, alpha, target, offset, noise, max_iterations
    ):
        args = _noisy_tie_point(mode, theta, alpha, target, offset, noise)
        trace = []
        want = _outcome(lapack_intersect, *args, max_iterations=max_iterations, trace=trace)
        got = _outcome(intersect, *args, max_iterations=max_iterations)
        # the range residual |s - p| - r is rounded at a few float spacings
        # of |s - p|, and the two solves round differently within that: 16
        # spacings apart for an iterate, 32 for an update.  A norm that close
        # to tol may pass a convergence test in one solver and fail it in the
        # other, and either outcome, or iteration count, is right
        spacing = np.finfo(float).eps * sar_forward(args[0], args[4]).r
        if _tested_at_tol(trace, 32 * spacing) and (
            type(got) is not type(want)
            or isinstance(want, IntersectionResult) and got.iterations != want.iterations
        ):
            return
        if isinstance(want, type):
            assert got is want
            return
        assert isinstance(got, IntersectionResult)
        assert got.iterations == want.iterations
        floor = np.finfo(float).eps * sar_forward(args[0], want.point).r
        # both solvers start the last iteration within 16 floors of each
        # other, where their SSEs differ by a few float spacings of the SSE
        # (by more only where the SSE is so small that a step it cannot tell
        # apart is shorter than a floor).  A trial whose SSE lies that close
        # to the SSE may be accepted by one solver and rejected by the other;
        # every earlier trial, clearly above, both reject.  From the first
        # such trial, of fraction alpha_t of the step, the closed form may
        # keep any fraction in [0, alpha_t] of it: its point then lies within
        # 16 floors of that part of the oracle's step.  A step shorter than a
        # floor is left to the plain bound
        last = trace[-1]
        nearest = want.point.as_array()
        ties = [k for k, t in enumerate(last["trials"])
                if abs(t - last["sse"]) <= 16 * np.spacing(last["sse"])]
        if ties and np.linalg.norm(last["step"]) > floor:
            start, step = last["start"], 0.5 ** ties[0] * last["step"]
            along = np.dot(got.point.as_array() - start, step) / np.dot(step, step)
            nearest = start + np.clip(along, 0.0, 1.0) * step
        assert np.abs(got.point.as_array() - nearest).max() <= 16 * floor
        # an inverse holds to about eps * cond; cond(J'J) < 1e4 here
        cov_err = np.abs(got.covariance - want.covariance).max()
        assert cov_err <= 1e-11 * np.abs(want.covariance).max()
        # weighted residuals move by |J| * 1e-9, a few 1e-9, between the two points
        assert got.rms_residual == pytest.approx(want.rms_residual, rel=1e-6, abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(**_TIE_POINT)
    def test_numpy_restatement_of_linearize(self, mode, theta, alpha, target, offset, noise):
        sar, opt, sar_obs, opt_obs, start, w = _noisy_tie_point(
            mode, theta, alpha, target, offset, noise)
        p = start.as_array()
        res, jac = _TiePoint(sar, opt, sar_obs, opt_obs, w).linearize(tuple(p.tolist()))
        want_res, want_jac = _lapack_linearize(sar, opt, sar_obs, opt_obs, p, w)
        # a residual is a function of coordinates of the size of |p - s| or
        # |p - pc|, so it is rounded relative to that times its Jacobian row
        row_norm = np.linalg.norm(want_jac, axis=1)
        size = max(np.linalg.norm(p - sar.position(sar_obs.t)), np.linalg.norm(p - opt.pc))
        assert np.all(np.abs(np.array(res) - want_res) <= 1e-12 * size * row_norm)
        assert np.all(np.abs(np.array(jac) - want_jac) <= 1e-12 * row_norm[:, None])

    @pytest.mark.parametrize("case", ["glancing", "exhausted_halving", "start_behind_camera"])
    def test_failures_match(self, case):
        if case == "exhausted_halving":
            args = _exhausted_halving_setup()
        else:
            theta, alpha = (54.0, 36.0 - 1e-7) if case == "glancing" else (40.0, 12.0)
            sar, opt, w = stereo_setup("opposite", theta, alpha)
            sar_obs, opt_obs = exact_observations(sar, opt, GroundPoint(0.0, 0.0, 0.0))
            if case == "glancing":
                start = GroundPoint(0, 0, 1)
            else:  # 1 km behind the projection centre, on the camera axis
                start = GroundPoint(*(opt.pc + 1e3 * opt.rotation[:, 2]))
            args = (sar, opt, sar_obs, opt_obs, start, w)
        want = _outcome(lapack_intersect, *args)
        assert isinstance(want, type)
        assert _outcome(intersect, *args) is want

    @settings(max_examples=300, deadline=None)
    @given(
        angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
        log_cond=st.floats(0.0, 16.0),
        middle=st.floats(0.0, 1.0),
        repeated_top=st.booleans(),
        log_scale=st.floats(-6.0, 6.0),
    )
    def test_closed_form_condition_test(self, angles, log_cond, middle, repeated_top,
                                        log_scale):
        rot = Rotation.from_euler("zyx", angles).as_matrix()
        lam_mid = 1.0 if repeated_top else 10.0 ** (-middle * log_cond)
        lam = np.array([1.0, lam_mid, 10.0 ** -log_cond]) * 10.0 ** log_scale
        n = (rot * lam) @ rot.T
        n = (n + n.T) / 2
        cond = np.linalg.cond(n)
        assume(not 1e11 <= cond <= 1e13)
        six = tuple(n[np.triu_indices(3)])
        if cond > 1e12:
            with pytest.raises(SingularNormalMatrix):
                _conditioned_inverse(six)
            return
        inverse = np.linalg.inv(n)
        got = _conditioned_inverse(six)
        err = np.abs(np.array(got) - inverse[np.triu_indices(3)]).max()
        assert err <= 100 * np.finfo(float).eps * cond * np.abs(inverse).max()

    @settings(max_examples=300, deadline=None)
    @given(
        angles=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
        log_cond=st.floats(10.0, 13.0),
        middle=st.floats(0.1, 1.0),
        log_scale=st.floats(-6.0, 6.0),
    )
    def test_trace_screen_decides_as_the_eigenvalue_test(self, angles, log_cond, middle,
                                                          log_scale):
        # one dominant eigenvalue, so tr(N) is close to lambda_max(N) and
        # tr(N) tr(N^-1) falls on both sides of the screen's 1e12 / 2
        rot = Rotation.from_euler("zyx", angles).as_matrix()
        lam = np.array([1.0, 10.0 ** (-middle * log_cond), 10.0 ** -log_cond])
        n = (rot * lam * 10.0 ** log_scale) @ rot.T
        six = tuple(((n + n.T) / 2)[np.triu_indices(3)].tolist())

        def largest_eigenvalue(entries):
            upper = np.zeros((3, 3))
            upper[np.triu_indices(3)] = entries
            return np.linalg.eigvalsh(upper + np.triu(upper, 1).T)[-1]

        def unscreened(normal):
            inverse = _spd_inverse(normal)
            if not largest_eigenvalue(normal) * largest_eigenvalue(inverse) <= 1e12:
                raise SingularNormalMatrix("condition number exceeds 1e12")
            return inverse

        assert _outcome(_conditioned_inverse, six) == _outcome(unscreened, six)

    def test_condition_test_at_any_scale(self):
        rot = Rotation.from_euler("zyx", (0.3, -1.1, 0.7)).as_matrix()

        def six_entries(lam):
            n = (rot * lam) @ rot.T
            return tuple(((n + n.T) / 2)[np.triu_indices(3)].tolist())

        well = (2.0, 0.1, 0.2, 3.0, 0.3, 4.0)  # cond about 2
        # tr(N) tr(N^-1) = 6e11 > 1e12 / 2: left to the eigenvalue test
        near = six_entries(np.array([1.0, 1.0, 1.0 / 3e11]))
        ill = six_entries(np.array([1.0, 1.0, 1e-13]))
        for k in range(-300, 301, 5):
            for accepted, normal in ((True, well), (True, near), (False, ill)):
                scaled = tuple(a * 10.0 ** k for a in normal)
                if not all(map(math.isfinite, _spd_inverse(scaled))):
                    continue
                if accepted:
                    assert _conditioned_inverse(scaled) == _spd_inverse(scaled), k
                else:
                    with pytest.raises(SingularNormalMatrix):
                        _conditioned_inverse(scaled)

    # the six unique entries (n11, n12, n13, n22, n23, n33)
    @pytest.mark.parametrize("normal, match", [
        ((math.nan, 0.0, 0.0, 1.0, 0.0, 1.0), "not finite"),
        ((1.0, 0.0, 0.0, 1.0, 0.0, math.inf), "not finite"),
        ((1.0, -math.inf, 0.0, 1.0, math.inf, 1.0), "not finite"),
        ((0.0, 0.0, 0.0, 1.0, 0.0, 1.0), "positive definite"),  # first pivot 0
        ((-1.0, 0.0, 0.0, 1.0, 0.0, 1.0), "positive definite"),  # first pivot < 0
        ((1.0, 1.0, 0.0, 1.0, 0.0, 1.0), "positive definite"),  # second pivot 0
        ((1.0, 2.0, 0.0, 1.0, 0.0, 1.0), "positive definite"),  # second pivot < 0
        ((1.0, 0.0, 1.0, 1.0, 0.0, 1.0), "positive definite"),  # third pivot 0
        ((1.0, 0.0, 0.0, 1.0, 0.0, -1.0), "positive definite"),  # third pivot < 0
    ])
    def test_spd_inverse_rejects_non_finite_or_non_positive_pivot(self, normal, match):
        with pytest.raises(SingularNormalMatrix, match=match):
            _spd_inverse(normal)

    def test_well_conditioned_solve_computes_no_eigenvalue(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvalue computed")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        sar, opt, w = stereo_setup()
        p = GroundPoint(5.0, -3.0, 12.0)
        sar_obs, opt_obs = exact_observations(sar, opt, p)
        res = intersect(sar, opt, sar_obs, opt_obs, GroundPoint(35.0, -23.0, 27.0), w)
        assert np.allclose(res.point.as_array(), p.as_array(), atol=1e-6)
        # the glancing case of test_failures_match is left to the eigenvalues
        sar, opt, w = stereo_setup("opposite", 54.0, 36.0 - 1e-7)
        sar_obs, opt_obs = exact_observations(sar, opt, GroundPoint(0.0, 0.0, 0.0))
        args = (sar, opt, sar_obs, opt_obs, GroundPoint(0, 0, 1), w)
        with pytest.raises(AssertionError, match="eigenvalue computed"):
            intersect(*args)
        monkeypatch.undo()
        with pytest.raises(SingularNormalMatrix):
            intersect(*args)

    def test_no_linear_algebra_library_call(self, monkeypatch):
        sar, opt, w = stereo_setup("opposite", 40, 12)
        sar_obs, opt_obs = exact_observations(sar, opt, GroundPoint(2.0, 4.0, 7.0))
        start = GroundPoint(30.0, -20.0, 30.0)
        want = lapack_intersect(sar, opt, sar_obs, opt_obs, start, w)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called")

        for name in ("cond", "solve", "inv", "svd", "eigvalsh", "eigh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse)
        got = intersect(sar, opt, sar_obs, opt_obs, start, w)
        assert got.iterations == want.iterations > 1
        assert np.abs(got.point.as_array() - want.point.as_array()).max() < 1e-9


class TestSolverInputs:
    @pytest.mark.parametrize("kwargs", [
        dict(tol=0.0), dict(tol=-1.0), dict(tol=float("nan")), dict(tol=float("inf")),
        dict(max_iterations=0), dict(max_iterations=-3), dict(max_iterations=1.5),
        dict(max_iterations=True), dict(max_iterations=50.0),
    ])
    def test_bad_parameters_raise_before_linearizing(self, kwargs, monkeypatch):
        from sarstereo import intersection

        sar, opt, w = stereo_setup()
        sar_obs, opt_obs = exact_observations(sar, opt, GroundPoint(5.0, -3.0, 12.0))
        projected = []

        def counting(model, p):
            projected.append(p)
            return camera_frame(model, p)

        monkeypatch.setattr(intersection, "camera_frame", counting)
        with pytest.raises(ValueError):
            intersect(sar, opt, sar_obs, opt_obs, GroundPoint(0, 0, 0), w, **kwargs)
        assert projected == []

    def test_start_at_sar_sensor_is_singular(self):
        sar, opt, w = stereo_setup()
        sar_obs, opt_obs = exact_observations(sar, opt, GroundPoint(5.0, -3.0, 12.0))
        start = GroundPoint(*sar.position(sar_obs.t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularNormalMatrix):
                intersect(sar, opt, sar_obs, opt_obs, start, w)


class TestWeights:
    def test_half_pixel_defaults(self):
        sar = SarSensorModel(
            s0=(0, 0, 700e3), v=(0, 7500, 0),
            az_time_per_row=2e-4, range_per_col=0.6,
        )
        w = ObservationWeights.half_pixel(sar)
        assert w.sigma_t == pytest.approx(1e-4)
        assert w.sigma_r == pytest.approx(0.3)
        assert w.sigma_px == 0.5

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            ObservationWeights(sigma_t=0.0, sigma_r=1.0, sigma_px=0.5)
        # an infinite sigma would silently drop its equation
        for bad in (np.inf, np.nan):
            for kwargs in (dict(sigma_t=bad, sigma_r=1.0), dict(sigma_t=1e-4, sigma_r=bad),
                           dict(sigma_t=1e-4, sigma_r=1.0, sigma_px=bad)):
                with pytest.raises(ValueError):
                    ObservationWeights(**kwargs)
