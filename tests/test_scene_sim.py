"""Tests for the synthetic scene generator and dual-sensor renderers."""

import dataclasses

import numpy as np
import pytest

from sarstereo.geometry import GroundPoint, OpticalSensorModel, opt_forward, sar_forward
from sarstereo.intersection import ObservationWeights, intersect
from sarstereo.raster import GroundGrid, Raster
from sarstereo.scene_sim import (
    Building,
    Correspondence,
    RenderNoise,
    SceneOutsideSwath,
    SceneSpec,
    TruthSet,
    canonical_scene_models,
    ground_truth_correspondences,
    make_scene,
    render_optical,
    render_sar,
)


@pytest.fixture(scope="module")
def small_scene():
    spec = SceneSpec(
        extent=(200.0, 200.0),
        gsd=1.0,
        ground_height=0.0,
        buildings=(Building(rect=(60.0, 60.0, 100.0, 110.0), height=20.0),),
        texture_seed=7,
    )
    dem, refl = make_scene(spec)
    sar, opt, sar_shape, opt_shape = canonical_scene_models(
        spec, sar_theta_deg=35.0
    )
    return spec, dem, refl, sar, opt, sar_shape, opt_shape


class TestMakeScene:
    def test_flat_scene(self):
        dem, refl = make_scene(SceneSpec(extent=(50, 40), ground_height=12.0))
        assert dem.samples.shape == (40, 50)
        assert np.all(dem.samples == 12.0)
        assert refl.samples.shape == (40, 50)

    def test_box_height(self):
        spec = SceneSpec(
            extent=(100, 100),
            buildings=(Building(rect=(20, 20, 50, 60), height=20.0),),
        )
        dem, _ = make_scene(spec)
        assert dem.samples.max() - dem.samples.min() == pytest.approx(20.0)

    def test_deterministic(self):
        spec = SceneSpec(extent=(80, 80), texture_seed=3)
        a_dem, a_refl = make_scene(spec)
        b_dem, b_refl = make_scene(spec)
        assert a_dem.samples.tobytes() == b_dem.samples.tobytes()
        assert a_refl.samples.tobytes() == b_refl.samples.tobytes()

    def test_building_outside_extent_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(extent=(50, 50),
                      buildings=(Building(rect=(40, 40, 60, 60), height=5.0),))


class TestRenderOptical:
    def test_flat_scene_is_resampled_texture(self):
        spec = SceneSpec(extent=(120, 120), texture_seed=5)
        dem, refl = make_scene(spec)
        _, opt, _, opt_shape = canonical_scene_models(spec)
        img = render_optical(dem, refl, opt, RenderNoise(), opt_shape)
        # analytic oracle: nadir aligned camera at 1 px per gsd resamples
        # the reflectance grid itself
        corr = np.corrcoef(img.samples.ravel(), refl.samples.ravel())[0, 1]
        assert corr > 0.99

    def test_box_corner_projects_to_discontinuity(self, small_scene):
        spec, dem, refl, sar, opt, _, opt_shape = small_scene
        img = render_optical(dem, refl, opt, RenderNoise(), opt_shape)
        # roof corner marker: project it, the rendered roof/gap edge must
        # sit within half a pixel of the prediction
        corner = GroundPoint(60.0, 60.0, 20.0)
        ip = opt_forward(opt, corner)
        grad = np.abs(np.diff(img.samples, axis=1))
        window = grad[int(round(ip.row)) - 3 : int(round(ip.row)) + 4,
                      int(round(ip.col)) - 3 : int(round(ip.col)) + 4]
        peak_col = int(round(ip.col)) - 3 + int(np.argmax(window.max(axis=0)))
        assert abs(peak_col + 0.5 - ip.col) <= 1.0

    def test_noise_free_renders_identical(self, small_scene):
        spec, dem, refl, sar, opt, _, opt_shape = small_scene
        a = render_optical(dem, refl, opt, RenderNoise(), opt_shape)
        b = render_optical(dem, refl, opt, RenderNoise(), opt_shape)
        assert a.samples.tobytes() == b.samples.tobytes()


class TestRenderSar:
    def test_point_targets_land_on_forward_projection(self):
        spec = SceneSpec(extent=(120, 120), texture_seed=11)
        dem, refl = make_scene(spec)
        refl = Raster(samples=np.full_like(refl.samples, 0.02),
                      sidecar=refl.sidecar)
        # three isolated bright cells
        targets = [(30, 40), (60, 90), (95, 25)]
        for r, c in targets:
            refl.samples[r, c] = 50.0
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        img = render_sar(dem, refl, sar, RenderNoise(enable_shadow_layover=False),
                         sar_shape)
        grid = GroundGrid.from_raster(dem)
        for r, c in targets:
            x = grid.x0 + c * grid.step
            y = grid.y0 + r * grid.step
            obs = sar_forward(sar, GroundPoint(x, y, 0.0))
            ip = sar.pixel_from_obs(obs)
            rr, cc = int(round(ip.row)), int(round(ip.col))
            win = img.samples[rr - 2 : rr + 3, cc - 2 : cc + 3]
            pr, pc = np.unravel_index(np.argmax(win), win.shape)
            # energy peak within half a pixel of the range-Doppler location
            assert abs(rr - 2 + pr - ip.row) <= 0.5 + 1e-9
            assert abs(cc - 2 + pc - ip.col) <= 0.5 + 1e-9

    def test_shadow_length_matches_trigonometry(self):
        theta = 30.0
        spec = SceneSpec(
            extent=(200, 200), texture_seed=2,
            buildings=(Building(rect=(80, 60, 120, 140), height=20.0),),
            texture_contrast=0.0,
        )
        dem, refl = make_scene(spec)
        sar, _, sar_shape, _ = canonical_scene_models(spec, sar_theta_deg=theta)
        img = render_sar(dem, refl, sar, RenderNoise(), sar_shape,
                         supersample=3)
        # mid-building azimuth line; shadow begins behind the far wall
        grid = GroundGrid.from_raster(dem)
        row = int(round((100.0 - grid.y0) / grid.step))
        line = img.samples[row]
        bright = np.nanmedian(img.samples)
        dark = line < 0.2 * bright
        # measure the dark run that starts just past the roof's far edge
        roof_edge = GroundPoint(120.0, grid.y0 + row * grid.step, 20.0)
        start = int(np.floor(sar.pixel_from_obs(sar_forward(sar, roof_edge)).col)) + 1
        run = 0
        while start + run < line.size and dark[start + run]:
            run += 1
        # The roof's far edge (h = 20 m) and the end of the ground shadow
        # (h = 0, h*tan(theta) further east) lie on the same grazing ray,
        # so slant range grows by the ray length between them, h/cos(theta):
        # the slant-range shadow of a wall of height h.
        expected_cols = 20.0 / np.cos(np.deg2rad(theta)) / sar.range_per_col
        assert run == pytest.approx(expected_cols, abs=2.5)

    def test_speckle_variance_scales_with_looks(self):
        spec = SceneSpec(extent=(200, 200), texture_contrast=0.0)
        dem, refl = make_scene(spec)
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        clean = render_sar(dem, refl, sar, RenderNoise(enable_shadow_layover=False),
                           sar_shape)
        noisy = render_sar(
            dem, refl, sar,
            RenderNoise(speckle_looks=10_000, enable_shadow_layover=False),
            sar_shape,
        )
        interior = (slice(20, -20), slice(20, -20))
        assert np.all(clean.samples[interior] > 0), "unlit pixels in the interior"
        ratio = noisy.samples[interior] / np.maximum(clean.samples[interior], 1e-9)
        assert np.std(ratio) < 0.02

    def test_tall_building_layover_inside_raster(self):
        # a 100 m roof near the west edge lays over toward the track, nearer
        # in slant range than any lower point of the scene
        spec = SceneSpec(
            extent=(200, 200), texture_seed=3,
            buildings=(Building(rect=(5, 60, 30, 140), height=100.0),),
        )
        dem, _ = make_scene(spec)
        sar, opt, sar_shape, opt_shape = canonical_scene_models(spec)
        roof = [GroundPoint(x, y, 100.0) for x in (6.0, 17.5, 29.0)
                for y in (61.0, 100.0, 139.0)]
        for p in roof:
            ip = sar.pixel_from_obs(sar_forward(sar, p))
            assert 0 <= ip.col <= sar_shape[1] - 1
        truth = ground_truth_correspondences(
            dem, sar, opt, roof, sar_shape=sar_shape, opt_shape=opt_shape
        )
        assert truth.excluded == ()

    def test_sar_rows_align_with_optical_rows(self):
        # SAR row r images the centre line of DEM row r, like optical row r,
        # so a point on the last DEM row lands inside both rasters
        spec = SceneSpec(extent=(100, 80), texture_seed=4)
        dem, _ = make_scene(spec)
        sar, opt, sar_shape, opt_shape = canonical_scene_models(spec)
        edge = GroundPoint(50.5, 79.5, 0.0)
        truth = ground_truth_correspondences(
            dem, sar, opt, [edge], sar_shape=sar_shape, opt_shape=opt_shape
        )
        assert truth.excluded == ()
        for p in (edge, GroundPoint(50.5, 0.5, 0.0), GroundPoint(13.2, 41.7, 0.0)):
            sar_row = sar.pixel_from_obs(sar_forward(sar, p)).row
            assert sar_row == pytest.approx(opt_forward(opt, p).row, abs=1e-9)

    def test_scene_outside_swath(self):
        spec = SceneSpec(extent=(50, 50))
        dem, refl = make_scene(spec)
        sar, _, _, _ = canonical_scene_models(spec)
        far = type(sar)(
            s0=sar.s0, v=sar.v, t0=sar.t0,
            az_time_per_row=sar.az_time_per_row,
            r_near=sar.r_near + 1e6, range_per_col=sar.range_per_col,
            look_side=sar.look_side,
        )
        with pytest.raises(SceneOutsideSwath):
            render_sar(dem, refl, far, RenderNoise(), (50, 50))

    @pytest.mark.parametrize("track", ["rotated", "climbing"])
    def test_shadow_mask_needs_north_aligned_track(self, track):
        spec = SceneSpec(
            extent=(120, 120), texture_seed=6,
            buildings=(Building(rect=(50, 40, 70, 80), height=10.0),),
        )
        dem, refl = make_scene(spec)
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        if track == "rotated":
            # 3 degrees about the scene centre, so the swath still covers it
            a = np.deg2rad(3.0)
            rot = np.array([[np.cos(a), -np.sin(a), 0.0],
                            [np.sin(a), np.cos(a), 0.0],
                            [0.0, 0.0, 1.0]])
            centre = np.array([60.0, 60.0, 0.0])
            sar = dataclasses.replace(sar, s0=centre + rot @ (sar.s0 - centre),
                                      v=rot @ sar.v)
        else:
            sar = dataclasses.replace(sar, v=sar.v + np.array([0.0, 0.0, 0.5]))
        with pytest.raises(ValueError, match="north-aligned"):
            render_sar(dem, refl, sar, RenderNoise(), sar_shape)
        img = render_sar(dem, refl, sar, RenderNoise(enable_shadow_layover=False),
                         sar_shape)
        assert img.samples.shape == sar_shape
        assert np.all(np.isfinite(img.samples)) and img.samples.max() > 0

    def test_deterministic_with_seed(self, small_scene):
        spec, dem, refl, sar, opt, sar_shape, _ = small_scene
        a = render_sar(dem, refl, sar, RenderNoise(speckle_looks=4, seed=9),
                       sar_shape)
        b = render_sar(dem, refl, sar, RenderNoise(speckle_looks=4, seed=9),
                       sar_shape)
        assert a.samples.tobytes() == b.samples.tobytes()


class TestGroundTruth:
    def test_intersection_closure(self, small_scene):
        spec, dem, refl, sar, opt, sar_shape, opt_shape = small_scene
        rng = np.random.default_rng(13)
        pts = [GroundPoint(x, y, 0.0)
               for x, y in rng.uniform(10, 190, size=(30, 2))]
        truth = ground_truth_correspondences(dem, sar, opt, pts)
        assert isinstance(truth, TruthSet)
        weights = ObservationWeights.half_pixel(sar, sigma_px=0.5)
        for pair in truth.pairs:
            obs = sar.obs_from_pixel(pair.sar)
            res = intersect(
                sar, opt, obs, pair.opt,
                GroundPoint(pair.ground.x + 20, pair.ground.y - 15, 30.0),
                weights,
            )
            assert np.allclose(res.point.as_array(), pair.ground.as_array(),
                               atol=1e-6)

    def test_truth_pairs_carry_python_floats(self, small_scene):
        spec, dem, refl, sar, opt, _, _ = small_scene
        truth = ground_truth_correspondences(
            dem, sar, opt, [GroundPoint(30.5, 40.0, 0.0), GroundPoint(80.0, 85.0, 20.0)]
        )
        assert len(truth.pairs) == 2
        for pair in truth.pairs:
            for ip in (pair.sar, pair.opt):
                assert type(ip.row) is float and type(ip.col) is float

    def test_shadowed_point_excluded(self, small_scene):
        spec, dem, refl, sar, opt, _, _ = small_scene
        # the 20 m box at theta=35 casts a ~14 m ground shadow east of its
        # far wall at x=100
        shadowed = GroundPoint(104.0, 85.0, 0.0)
        truth = ground_truth_correspondences(dem, sar, opt, [shadowed])
        assert len(truth.pairs) == 0
        assert truth.excluded[0][1] == "sar_shadow"

    def test_roof_and_ground_points_inside_rasters(self, small_scene):
        spec, dem, refl, sar, opt, sar_shape, opt_shape = small_scene
        rng = np.random.default_rng(17)
        pts = []
        for _ in range(50):
            x, y = rng.uniform(20, 180, 2)
            pts.append(GroundPoint(x, y, 0.0))
        for _ in range(50):
            x = rng.uniform(62, 98)
            y = rng.uniform(62, 108)
            pts.append(GroundPoint(x, y, 20.0))
        truth = ground_truth_correspondences(
            dem, sar, opt, pts, sar_shape=sar_shape, opt_shape=opt_shape
        )
        assert len(truth.pairs) >= 60
        for pair in truth.pairs:
            assert 0 <= pair.sar.row <= sar_shape[0] - 1
            assert 0 <= pair.sar.col <= sar_shape[1] - 1
            assert 0 <= pair.opt.row <= opt_shape[0] - 1
            assert 0 <= pair.opt.col <= opt_shape[1] - 1


def _city_spec(extent=(90.0, 30.0)):
    # the 12.5 m box shadows the west edge of the 7 m roof next to it, and
    # one shadowed cell centre's ray passes only 0.11 m under the 20.1 m roof
    return SceneSpec(
        extent=extent, texture_seed=8,
        buildings=(Building(rect=(10, 5, 22, 25), height=12.5),
                   Building(rect=(24, 3, 38, 20), height=7.0),
                   Building(rect=(60, 8, 75, 28), height=20.1)),
    )


def _cell_centre_points(dem: Raster):
    grid = GroundGrid.from_raster(dem)
    rows, cols = dem.samples.shape
    return [GroundPoint(grid.x0 + c * grid.step, grid.y0 + r * grid.step,
                        float(dem.samples[r, c]))
            for r in range(rows) for c in range(cols)]


def _reasons(truth: TruthSet) -> dict:
    out = {pair.ground: "kept" for pair in truth.pairs}
    out.update(dict(truth.excluded))
    return out


class TestTruthVisibility:
    def test_point_behind_camera_excluded(self):
        spec = SceneSpec(extent=(200.0, 200.0))
        dem, _ = make_scene(spec)
        sar, _, _, _ = canonical_scene_models(spec)
        # looks east, 10 degrees below the horizon
        cam = OpticalSensorModel(pc=(100.0, 100.0, 20.0), phi=np.deg2rad(80.0),
                                 kappa=np.pi, focal=500.0)
        front, behind = GroundPoint(150.0, 100.0, 0.0), GroundPoint(10.0, 100.0, 0.0)
        truth = ground_truth_correspondences(dem, sar, cam, [front, behind])
        assert [pair.ground for pair in truth.pairs] == [front]
        assert truth.excluded == ((behind, "behind_camera"),)

    @pytest.mark.parametrize("elev_deg", [30.0, 50.0])
    def test_oblique_camera_occlusion_behind_box(self, elev_deg):
        h = 20.0
        spec = SceneSpec(
            extent=(200.0, 200.0), texture_seed=9,
            buildings=(Building(rect=(100, 60, 140, 140), height=h),),
        )
        dem, _ = make_scene(spec)
        sar, _, _, _ = canonical_scene_models(spec)
        # camera 5 km east of the box, seeing it at elevation eps, looking west
        eps = np.deg2rad(elev_deg)
        dist = 5000.0
        cam = OpticalSensorModel(pc=(140.0 + dist, 100.0, dist * np.tan(eps)),
                                 phi=np.pi / 2 - eps, focal=1000.0)
        # a ground point d west of the box sees the camera over the roof only
        # when d tan(eps) > h
        reach = h / np.tan(eps)
        near = [GroundPoint(100.0 - f * 0.5 * reach, y, 0.0)
                for f in (0.1, 0.5, 0.99) for y in (65.0, 100.0, 135.0)]
        far = [GroundPoint(100.0 - f * 1.5 * reach, y, 0.0)
               for f in (1.01, 1.5, 2.0) for y in (65.0, 100.0, 135.0)]
        truth = ground_truth_correspondences(dem, sar, cam, near + far)
        reasons = _reasons(truth)
        assert all(reasons[p] == "optical_occluded" for p in near)
        assert all(reasons[p] == "kept" for p in far)

    def test_transposed_scene_gives_same_reasons(self):
        spec = _city_spec(extent=(90.0, 40.0))
        dem, _ = make_scene(spec)
        sar, opt, _, _ = canonical_scene_models(spec)
        dem_t = Raster(samples=np.ascontiguousarray(dem.samples.T), sidecar=dem.sidecar)
        # the track along +x south of the transposed scene looks north: left
        (sx, sy, sz), vs = sar.s0, sar.v[1]
        sar_t = dataclasses.replace(sar, s0=(sy, sx, sz), v=(vs, 0.0, 0.0),
                                    look_side="left")
        opt_t = dataclasses.replace(opt, pc=(opt.pc[1], opt.pc[0], opt.pc[2]))
        rng = np.random.default_rng(21)
        cells = _cell_centre_points(dem)
        pts = [cells[i] for i in rng.choice(len(cells), 300, replace=False)]
        pts_t = [GroundPoint(p.y, p.x, p.h) for p in pts]
        reasons = _reasons(ground_truth_correspondences(dem, sar, opt, pts))
        reasons_t = _reasons(ground_truth_correspondences(dem_t, sar_t, opt_t, pts_t))
        assert [reasons[p] for p in pts] == [reasons_t[p] for p in pts_t]
        assert list(reasons.values()).count("sar_shadow") >= 10

    def test_sar_shadow_matches_horizon_along_row(self):
        spec = _city_spec()
        dem, _ = make_scene(spec)
        sar, opt, _, _ = canonical_scene_models(spec)
        grid = GroundGrid.from_raster(dem)
        tx, tz = sar.s0[0], sar.s0[2]

        def horizon_shadowed(p):
            # the zero-Doppler plane of p is its DEM row; p is shadowed when
            # a cell between the track and p subtends a larger off-nadir angle
            heights = dem.samples[int(round((p.y - grid.y0) / grid.step))].astype(float)
            xs = grid.x0 + np.arange(heights.size) * grid.step
            nearer = xs < p.x
            beta = np.arctan2(xs[nearer] - tx, tz - heights[nearer])
            return bool(np.any(beta > np.arctan2(p.x - tx, tz - p.h) + 1e-12))

        pts = _cell_centre_points(dem)
        reasons = _reasons(ground_truth_correspondences(dem, sar, opt, pts))
        shadowed = [horizon_shadowed(p) for p in pts]
        assert [reasons[p] == "sar_shadow" for p in pts] == shadowed
        # shadow on the ground and on the lower roof both occur
        assert any(s and p.h == 0 for p, s in zip(pts, shadowed))
        assert any(s and p.h == 7.0 for p, s in zip(pts, shadowed))
