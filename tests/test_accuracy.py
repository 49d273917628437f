"""Tests for the in-plane accuracy model."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sarstereo.accuracy import (
    OPPOSITE,
    SAME,
    SINGULAR_RATIO,
    AccuracyGrid,
    GlancingOrMiss,
    StereoConfig,
    _solve_ray_circle,
    accuracy_grid,
    height_partials,
    intersection_point,
    normalized_height_accuracy,
)

D2R = np.pi / 180.0


def cfg_of(mode, theta_deg, alpha_deg, hs, ho, h=0.0, **kw):
    return StereoConfig(
        mode=mode, theta=theta_deg * D2R, alpha=alpha_deg * D2R,
        hs=hs, ho=ho, h=h, **kw,
    )


def fd_partials(cfg):
    """Richardson-extrapolated central differences through the intersection.

    The sensor positions stay fixed while the measurements R and alpha are
    perturbed; alpha only enters through the ray slope k.  The step is
    chosen adaptively so the height displacement stays near centimeters,
    which keeps truncation error tiny even for strongly nonlinear airborne
    opposite-side geometries, and the extrapolation removes the leading
    truncation term.
    """
    xs, zs, xo, zo, k, r = cfg.scene()
    cap = min(cfg.hs, cfg.ho)

    def solve(rr, aa):
        kk = (-1.0 if cfg.mode == OPPOSITE else 1.0) / np.tan(aa)
        _, z, _ = _solve_ray_circle(xs, zs, xo, zo, kk, rr, cfg.h, cap)
        return z

    def central(f, x0, d):
        return (f(x0 + d) - f(x0 - d)) / (2 * d)

    def richardson(f, x0, d):
        return (4 * central(f, x0, d / 2) - central(f, x0, d)) / 3

    f_r = lambda rr: solve(rr, cfg.alpha)
    f_a = lambda aa: solve(r, aa)
    probe_r = central(f_r, r, 1e-2)
    probe_a = central(f_a, cfg.alpha, 1e-7)
    d_r = float(np.clip(0.05 / max(abs(probe_r), 1e-12), 1e-3, 0.5))
    d_a = float(np.clip(0.05 / max(abs(probe_a), 1e-12), 1e-9, 1e-5))
    return richardson(f_r, r, d_r), richardson(f_a, cfg.alpha, d_a)


class TestIntersectionPoint:
    @pytest.mark.parametrize(
        "mode,theta,alpha,hs,ho,h",
        [
            (OPPOSITE, 54.0, 12.0, 760.0, 770e3, 0.0),
            (SAME, 21.0, 8.0, 515e3, 770e3, 0.0),
            (SAME, 33.0, 10.3, 515e3, 770e3, 0.0),
            (OPPOSITE, 40.0, 25.0, 5000.0, 9000.0, 120.0),
            (SAME, 45.0, -20.0, 600e3, 700e3, 50.0),
        ],
    )
    def test_returns_nominal_target(self, mode, theta, alpha, hs, ho, h):
        cfg = cfg_of(mode, theta, alpha, hs, ho, h)
        x, z = intersection_point(cfg)
        assert abs(x) < 1e-9
        assert abs(z - h) < 1e-9

    def test_satisfies_both_equations(self):
        cfg = cfg_of(SAME, 33.0, 10.3, 515e3, 770e3)
        xs, zs, xo, zo, k, r = cfg.scene()
        x, z = intersection_point(cfg)
        assert abs(np.hypot(xs - x, zs - z) - r) < 1e-9
        # perpendicular distance to the projection ray
        assert abs((z - zo) - k * (x - xo)) / np.hypot(1.0, k) < 1e-9

    def test_glancing_opposite_side(self):
        cfg = cfg_of(OPPOSITE, 54.0, 36.0, 760.0, 770e3)
        with pytest.raises(GlancingOrMiss):
            intersection_point(cfg)

    def test_perturbed_range_shifts_height_radially(self):
        # same-side theta = alpha: the ray crosses the circle radially, so a
        # +1 m range perturbation moves z by about -cos(30 deg)
        cfg = cfg_of(SAME, 30.0, 30.0, 500e3, 740e3)
        xs, zs, xo, zo, k, r = cfg.scene()
        _, z1, _ = _solve_ray_circle(xs, zs, xo, zo, k, r + 1.0, cfg.h,
                                     min(cfg.hs, cfg.ho))
        assert z1 - cfg.h == pytest.approx(-np.cos(30 * D2R), abs=1e-4)
        dz_dr, _ = fd_partials(cfg)
        assert z1 - cfg.h == pytest.approx(dz_dr, abs=1e-4)


class TestHeightPartials:
    def test_same_side_equal_angles_radial_crossing(self):
        cfg = cfg_of(SAME, 37.0, 37.0, 515e3, 770e3)
        dh_dr, _ = height_partials(cfg)
        assert dh_dr == pytest.approx(-np.cos(37.0 * D2R), rel=1e-9)
        fd_r, _ = fd_partials(cfg)
        assert dh_dr == pytest.approx(fd_r, rel=1e-6)

    def test_opposite_side_matches_finite_differences(self):
        cfg = cfg_of(OPPOSITE, 40.0, 20.0, 760.0, 770e3)
        dh_dr, dh_da = height_partials(cfg)
        fd_r, fd_a = fd_partials(cfg)
        assert dh_dr == pytest.approx(fd_r, rel=1e-6)
        assert dh_da == pytest.approx(fd_a, rel=1e-6)

    def test_partials_blow_up_near_glancing(self):
        cfg = cfg_of(OPPOSITE, 54.0, 36.0 - 0.01, 760.0, 770e3)
        dh_dr, _ = height_partials(cfg)
        assert abs(dh_dr) > 1e3

    def test_random_configs_match_finite_differences(self):
        rng = np.random.default_rng(314)
        checked = 0
        while checked < 1000:
            mode = OPPOSITE if rng.random() < 0.5 else SAME
            theta = rng.uniform(5.0, 85.0)
            alpha = rng.uniform(2.0, 85.0)
            if mode == OPPOSITE and abs(theta + alpha - 90.0) < 0.5:
                continue
            if mode == SAME and abs(theta - alpha) > 85.0:
                continue
            hs = rng.uniform(500.0, 800e3)
            ho = rng.uniform(1000.0, 800e3)
            cfg = cfg_of(mode, theta, alpha, hs, ho)
            try:
                dh_dr, dh_da = height_partials(cfg)
            except GlancingOrMiss:
                continue
            fd_r, fd_a = fd_partials(cfg)
            assert dh_dr == pytest.approx(fd_r, rel=1e-6), (mode, theta, alpha)
            assert dh_da == pytest.approx(fd_a, rel=1e-6), (mode, theta, alpha)
            checked += 1


class TestNormalizedAccuracy:
    def test_dataset_geometries(self):
        # values produced by the printed model for the three dataset
        # geometries, pinned against the finite-difference oracle; the
        # published 2.59 / 1.04 / 1.30 are not reproducible from the model
        # (see the acceptance suite)
        vals = [
            (cfg_of(OPPOSITE, 54.0, 12.0, 760.0, 770e3), 2.8697),
            (cfg_of(SAME, 21.0, 8.0, 515e3, 770e3), 1.0558),
            (cfg_of(SAME, 33.0, 10.3, 515e3, 770e3), 1.1623),
        ]
        for cfg, expected in vals:
            got = normalized_height_accuracy(cfg)
            assert got == pytest.approx(expected, abs=2e-4)
            fd_r, fd_a = fd_partials(cfg)
            oracle = np.hypot(fd_r, fd_a * cfg.sigma_alpha_factor)
            assert got == pytest.approx(oracle, rel=1e-6)

    def test_sigma0_scaling_invariance(self):
        a = cfg_of(SAME, 25.0, 9.0, 515e3, 770e3, sigma0=1.0)
        b = cfg_of(SAME, 25.0, 9.0, 515e3, 770e3, sigma0=123.456)
        assert normalized_height_accuracy(a) == normalized_height_accuracy(b)

    def test_bit_reproducible_recomputation(self):
        cfg = cfg_of(OPPOSITE, 47.0, 21.0, 760.0, 770e3)
        first = normalized_height_accuracy(cfg)
        again = normalized_height_accuracy(
            cfg_of(OPPOSITE, 47.0, 21.0, 760.0, 770e3)
        )
        assert first == again

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(2718)
        configs = [
            cfg_of(OPPOSITE, 50.0, 15.0, 760.0, 770e3),
            cfg_of(SAME, 21.0, 8.0, 515e3, 770e3),
            cfg_of(SAME, 33.0, 10.3, 515e3, 770e3),
            cfg_of(OPPOSITE, 35.0, 30.0, 3000.0, 9000.0),
            cfg_of(SAME, 45.0, 12.0, 600e3, 700e3),
        ]
        n = 100_000
        sigma0 = 0.2
        for cfg in configs:
            xs, zs, xo, zo, k, r = cfg.scene()
            analytic = normalized_height_accuracy(cfg) * sigma0
            rr = r + rng.normal(0.0, sigma0, n)
            aa = cfg.alpha + rng.normal(0.0, cfg.sigma_alpha_factor * sigma0, n)
            kk = (-1.0 if cfg.mode == OPPOSITE else 1.0) / np.tan(aa)
            _, z, miss = _solve_ray_circle(
                np.full(n, xs), np.full(n, zs), np.full(n, xo), np.full(n, zo),
                kk, rr, cfg.h, min(cfg.hs, cfg.ho),
            )
            assert not miss.any()
            sample = float(np.std(z, ddof=1))
            assert sample == pytest.approx(analytic, rel=0.03)


class TestAccuracyGrid:
    def test_single_cell_reduces_to_scalar_op(self):
        grid = accuracy_grid(SAME, (21.0, 21.0), (8.0, 8.0), (1, 1),
                             hs=515e3, ho=770e3)
        cfg = cfg_of(SAME, 21.0, 8.0, 515e3, 770e3)
        assert grid.sigma_ratio[0, 0] == normalized_height_accuracy(cfg)
        assert not grid.flags[0, 0]

    def test_opposite_flags_form_90_degree_band(self):
        # alpha capped at 80 deg: beyond that the optical ray is so oblique
        # that its angular term alone exceeds the flag level far from the
        # tangency line, which no physical optical mission approaches
        grid = accuracy_grid(OPPOSITE, (5.0, 85.0), (5.0, 80.0), (81, 76),
                             hs=515e3, ho=770e3)
        t, a = np.meshgrid(grid.theta_deg, grid.alpha_deg, indexing="ij")
        dist = np.abs(t + a - 90.0)
        assert grid.flags.any()
        # flagged cells hug the theta + alpha = 90 line
        assert dist[grid.flags].max() < 10.0
        # cells straddling the line are always flagged
        assert grid.flags[dist < 2.0].all()
        # far-away cells never are
        assert not grid.flags[dist > 10.0].any()

    def test_same_side_minimum_at_smallest_intersection_angle(self):
        grid = accuracy_grid(SAME, (16.0, 60.0), (2.0, 15.0), (45, 27),
                             hs=515e3, ho=770e3)
        for i, theta in enumerate(grid.theta_deg):
            row = grid.sigma_ratio[i]
            best = np.nanargmin(row)
            smallest_gap = np.argmin(np.abs(theta - grid.alpha_deg))
            assert best == smallest_gap

    def test_grid_is_dense_and_typed(self):
        grid = accuracy_grid(OPPOSITE, (10.0, 80.0), (10.0, 80.0), (8, 9),
                             hs=760.0, ho=770e3)
        assert isinstance(grid, AccuracyGrid)
        assert grid.sigma_ratio.shape == (8, 9)
        assert grid.flags.shape == (8, 9)
        assert grid.n_theta == 8 and grid.n_alpha == 9

    def test_range_validation(self):
        with pytest.raises(ValueError):
            accuracy_grid(SAME, (0.0, 45.0), (5.0, 15.0), (4, 4),
                          hs=515e3, ho=770e3)

    @pytest.mark.parametrize("mode, alphas, kwargs", [
        ("opposite_sde", (10.0, 40.0), {}),
        (OPPOSITE, (10.0, 40.0), {"h": 600e3}),
        (OPPOSITE, (10.0, 40.0), {"sigma0": -1.0}),
        # every cell lacks a viewing side; the input is checked all the same
        ("opposite_sde", (0.0, 0.0), {}),
    ])
    def test_invalid_input_raises(self, mode, alphas, kwargs):
        with pytest.raises(ValueError):
            accuracy_grid(mode, (20.0, 50.0), alphas, (4, 4),
                          hs=500e3, ho=700e3, **kwargs)

    def test_cells_without_viewing_side_stay_flagged(self):
        same = accuracy_grid(SAME, (20.0, 50.0), (-20.0, 20.0), (4, 5),
                             hs=515e3, ho=770e3)
        assert same.alpha_deg[2] == 0.0
        assert same.flags[:, 2].all() and np.isnan(same.sigma_ratio[:, 2]).all()
        assert not np.delete(same.flags, 2, axis=1).any()
        opposite = accuracy_grid(OPPOSITE, (20.0, 50.0), (-20.0, 20.0), (4, 5),
                                 hs=515e3, ho=770e3)
        assert opposite.flags[:, :3].all() and np.isnan(opposite.sigma_ratio[:, :3]).all()
        assert not opposite.flags[:, 3:].any()


def angle_range(lo, hi):
    """Two endpoints in degrees, in either order; integer endpoints make
    alpha = 0 an exact grid node for many step counts."""
    ends = st.one_of(st.integers(int(np.ceil(lo)), int(np.floor(hi))).map(float),
                     st.floats(lo, hi, allow_nan=False))
    return st.tuples(ends, ends)


@st.composite
def grid_inputs(draw):
    h = draw(st.floats(-100.0, 3000.0))
    return dict(
        mode=draw(st.sampled_from([OPPOSITE, SAME])),
        theta_range_deg=draw(angle_range(0.5, 89.5)),
        alpha_range_deg=draw(angle_range(-89.5, 89.5)),
        steps=(draw(st.integers(1, 12)), draw(st.integers(1, 12))),
        hs=h + draw(st.floats(200.0, 800e3)),
        ho=h + draw(st.floats(200.0, 800e3)),
        h=h,
    )


class TestGridEqualsScalarOp:
    @settings(max_examples=150, deadline=None)
    @given(grid_inputs())
    @example(dict(mode=OPPOSITE, theta_range_deg=(20.0, 50.0),
                  alpha_range_deg=(-20.0, 20.0), steps=(4, 5),
                  hs=515e3, ho=770e3, h=0.0))
    @example(dict(mode=OPPOSITE, theta_range_deg=(50.0, 58.0),
                  alpha_range_deg=(30.0, 40.0), steps=(9, 11),
                  hs=760.0, ho=770e3, h=0.0))
    def test_every_cell_is_the_scalar_op(self, job):
        grid = accuracy_grid(**job)
        for i, td in enumerate(grid.theta_deg):
            for j, ad in enumerate(grid.alpha_deg):
                try:
                    cfg = StereoConfig(job["mode"], np.deg2rad(td), np.deg2rad(ad),
                                       job["hs"], job["ho"], job["h"])
                    expected = normalized_height_accuracy(cfg)
                except (GlancingOrMiss, ValueError):
                    assert np.isnan(grid.sigma_ratio[i, j]) and grid.flags[i, j]
                    continue
                # bit for bit; an alpha so small that sin(alpha)^2 underflows
                # is rejected by StereoConfig and flagged by the grid
                assert np.array_equal(grid.sigma_ratio[i, j], expected, equal_nan=True)
                assert grid.flags[i, j] == (np.isnan(expected) or expected > SINGULAR_RATIO)


class TestConfigValidation:
    def test_rejects_bad_modes_and_angles(self):
        with pytest.raises(ValueError):
            cfg_of("sideways", 30.0, 10.0, 515e3, 770e3)
        with pytest.raises(ValueError):
            cfg_of(OPPOSITE, 0.0, 10.0, 515e3, 770e3)
        with pytest.raises(ValueError):
            cfg_of(OPPOSITE, 30.0, -10.0, 515e3, 770e3)
        with pytest.raises(ValueError):
            cfg_of(SAME, 30.0, 10.0, 515e3, 770e3, h=600e3)

    @pytest.mark.parametrize("mode", [SAME, OPPOSITE])
    def test_rejects_alpha_whose_sine_squared_underflows(self, mode):
        # 1 / sin(alpha)^2 overflows below about 1e-154 rad, which made the
        # accuracy NaN or inf; such an alpha has no usable viewing side
        for alpha in (1e-200, 1e-160, 5e-324):
            with pytest.raises(ValueError):
                StereoConfig(mode, 0.5, alpha, 515e3, 770e3)
        grid = accuracy_grid(mode, (20.0, 40.0), (1e-200, 30.0), (2, 2), 515e3, 770e3)
        assert np.isnan(grid.sigma_ratio[:, 0]).all() and grid.flags[:, 0].all()
        assert np.isfinite(normalized_height_accuracy(
            StereoConfig(mode, 0.5, 1e-150, 515e3, 770e3)))
