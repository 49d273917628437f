"""Tests for the stereo intersection solver."""

import numpy as np
import pytest

from sarstereo.geometry import (
    GroundPoint,
    ImagePoint,
    OpticalSensorModel,
    SarSensorModel,
    opt_forward,
    sar_forward,
)
from sarstereo.intersection import (
    IntersectionResult,
    NoConvergence,
    ObservationWeights,
    SingularNormalMatrix,
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
