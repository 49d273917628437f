"""Tests for the synthetic scene generator and dual-sensor renderers."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from sarstereo import scene_sim
from sarstereo.geometry import (
    GroundPoint,
    OpticalSensorModel,
    model_to_sidecar,
    opt_forward,
    opt_ray,
    ray_at_height,
    sar_forward,
    sar_forward_array,
)
from sarstereo.intersection import ObservationWeights, intersect
from sarstereo.raster import (
    BILINEAR_BLOCK,
    GroundGrid,
    Raster,
    bilinear,
    bilinear_axis,
    bilinear_corners,
    linear_bins,
    load_raster,
    save_raster,
    soft_histogram,
)
from sarstereo.scene_sim import (
    Building,
    Correspondence,
    RenderNoise,
    SceneNotVisible,
    SceneOutsideSwath,
    SceneSpec,
    TruthSet,
    _blocked,
    _shadow_mask,
    _track_lines,
    _vertex_bound,
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

    @pytest.mark.parametrize("seed", [-1, 2.5, None, True, "3"])
    def test_rejects_texture_seed_that_is_not_an_integer_from_0(self, seed):
        # -1 failed later, inside make_scene's generator, and 2.5 with a TypeError
        with pytest.raises(ValueError, match="texture_seed"):
            SceneSpec(extent=(50.0, 40.0), texture_seed=seed)

    def test_numpy_integer_texture_seed_is_the_int(self):
        dem, refl = make_scene(SceneSpec(extent=(30, 20), texture_seed=3))
        for seed in (np.int64(3), np.uint8(3)):
            a_dem, a_refl = make_scene(SceneSpec(extent=(30, 20), texture_seed=seed))
            assert a_dem.samples.tobytes() == dem.samples.tobytes()
            assert a_refl.samples.tobytes() == refl.samples.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(gsd=st.sampled_from([0.5, 1.0, 1.5]), seed=st.integers(0, 99),
           edges=st.lists(st.tuples(*(st.one_of(st.integers(0, 24).map(lambda k: k * 0.25),
                                                st.floats(0.0, 6.0))
                                       for _ in range(4)), st.floats(0.5, 30.0)),
                          min_size=0, max_size=4))
    def test_index_ranges_stamp_the_cells_the_masks_stamped(self, gsd, seed, edges):
        # edges on cell centres, cell borders and in between, overlapping
        # buildings among them: the DEM and the reflectance keep the bytes
        # of the full-grid masks, and the generator's draws their order
        buildings = tuple(Building((min(a, b), min(c, d), max(a, b) + 0.25, max(c, d) + 0.25),
                                   h) for a, b, c, d, h in edges)
        spec = SceneSpec(extent=(6.25, 6.25), gsd=gsd, ground_height=-2.0,
                         buildings=buildings, texture_seed=seed)
        dem, refl = make_scene(spec)
        want_dem, want_refl = _make_scene_by_masks(spec)
        assert dem.samples.tobytes() == want_dem.tobytes()
        assert refl.samples.tobytes() == want_refl.tobytes()

    def test_building_outside_extent_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(extent=(50, 50),
                      buildings=(Building(rect=(40, 40, 60, 60), height=5.0),))

    @pytest.mark.parametrize("kwargs", [
        {"ground_height": np.nan},
        {"ground_height": np.inf},
        {"texture_contrast": np.nan},
        {"texture_contrast": -np.inf},
        # a grid of 0 x 0 cells
        {"gsd": 1e9},
        {"extent": (50.0, 0.4)},
        {"extent": (np.inf, 10.0)},
        {"gsd": np.inf},
    ])
    def test_spec_rejects_non_finite_values_and_empty_grids(self, kwargs):
        with pytest.raises(ValueError):
            SceneSpec(**{"extent": (50.0, 40.0), **kwargs})

    @pytest.mark.parametrize("rect, height", [
        ((10.0, 10.0, 20.0, 20.0), np.inf),
        ((10.0, 10.0, 20.0, 20.0), np.nan),
        ((10.0, 10.0, np.inf, 20.0), 5.0),
        ((np.nan, 10.0, 20.0, 20.0), 5.0),
        # degenerate footprints: no width, no depth, corners swapped
        ((20.0, 10.0, 20.0, 20.0), 5.0),
        ((10.0, 20.0, 20.0, 20.0), 5.0),
        ((20.0, 20.0, 10.0, 10.0), 5.0),
    ])
    def test_building_rejects_non_finite_values(self, rect, height):
        with pytest.raises(ValueError):
            Building(rect=rect, height=height)


def _make_scene_by_masks(spec):
    """make_scene's DEM and reflectance samples, each building stamped
    through a full-grid mask of the cell centres it covers."""
    rows, cols = spec.shape
    g = spec.gsd
    dem = np.full((rows, cols), spec.ground_height, dtype=float)
    xg, yg = np.meshgrid((np.arange(cols) + 0.5) * g, (np.arange(rows) + 0.5) * g)
    rng = np.random.default_rng(spec.texture_seed)
    base = gaussian_filter(rng.standard_normal((rows, cols)), scene_sim.TEXTURE_SMOOTHNESS)
    base = (base - base.min()) / (base.max() - base.min() + 1e-30)
    refl = 1.0 + spec.texture_contrast * (base - 0.5)
    for b in spec.buildings:
        x0, y0, x1, y1 = b.rect
        inside = (xg >= x0) & (xg < x1) & (yg >= y0) & (yg < y1)
        dem[inside] = spec.ground_height + b.height
        gain = 0.55 + 0.9 * rng.random()
        refl[inside] = np.clip(refl[inside] * gain + 0.25 * (rng.random() - 0.5),
                               0.15, 2.5)
    return dem.astype(np.float32), refl.astype(np.float32)


class TestRenderNoise:
    @pytest.mark.parametrize("kwargs", [
        {"optical_sigma": np.nan}, {"optical_sigma": np.inf}, {"optical_sigma": -1.0},
        {"speckle_looks": np.inf}, {"speckle_looks": np.nan}, {"speckle_looks": 0},
        {"speckle_looks": 0.5}, {"speckle_looks": True}, {"speckle_looks": False},
        {"seed": -5}, {"seed": 2.5}, {"seed": None}, {"seed": True}, {"seed": "3"},
    ])
    def test_rejects_non_finite_or_out_of_range_settings(self, kwargs):
        # a NaN sigma meant no noise, an infinite one an image with no
        # finite sample, and infinite or NaN looks an all-NaN SAR image;
        # a seed of -5 failed inside a renderer's generator, 2.5 with a TypeError
        name, = kwargs
        with pytest.raises(ValueError, match=name):
            RenderNoise(**kwargs)

    def test_accepts_finite_settings(self):
        for kwargs in ({}, {"optical_sigma": 0.0, "speckle_looks": 1},
                       {"optical_sigma": 2.5, "speckle_looks": 4.5}, {"speckle_looks": None},
                       {"seed": np.int64(7)}, {"seed": np.uint32(2**31)}):
            RenderNoise(**kwargs)


# each type that stores raster.check_real's floats: arguments it accepts and
# its real-number fields, of which rect and extent are sequences
SCENE_TYPES = {
    Building: (dict(rect=(10.0, 10.0, 20.0, 20.0), height=5.0), ("rect", "height")),
    SceneSpec: (dict(extent=(50.0, 40.0)), ("extent", "gsd", "ground_height",
                                            "texture_contrast")),
    RenderNoise: (dict(speckle_looks=4.0), ("optical_sigma", "speckle_looks")),
    ObservationWeights: (dict(sigma_t=1e-3, sigma_r=1.0), ("sigma_t", "sigma_r", "sigma_px")),
}


class TestSceneNumbers:
    """The scene and acquisition inputs follow raster.check_real's rule."""

    @pytest.mark.parametrize("cls, name", [(c, n) for c, (_, names) in SCENE_TYPES.items()
                                           for n in names])
    @pytest.mark.parametrize("bad", [True, False, "1.0"])
    def test_bool_or_string_rejected_naming_the_field(self, cls, name, bad):
        kwargs = SCENE_TYPES[cls][0]
        value = getattr(cls(**kwargs), name)
        if isinstance(value, tuple):  # one entry of a sequence field
            value = (value[0], bad, *value[2:])
            with pytest.raises(ValueError, match=f"finite {name} entry"):
                cls(**{**kwargs, name: value})
            bad = "1" * len(value)  # a string of as many characters
        with pytest.raises(ValueError, match=name):
            cls(**{**kwargs, name: bad})

    def test_numpy_scalars_stored_as_python_floats(self):
        made = [Building(rect=np.float32([10, 10, 20, 20]), height=np.float16(5.0)),
                SceneSpec(extent=(np.int64(50), np.float32(40.0)), gsd=np.float32(0.5),
                          ground_height=np.int64(3), texture_contrast=np.float16(0.5)),
                RenderNoise(optical_sigma=np.float32(2.5), speckle_looks=np.int64(4)),
                ObservationWeights(np.float32(1e-3), np.float16(1.0), np.int64(1))]
        for obj, (_, names) in zip(made, SCENE_TYPES.values()):
            for name in names:
                value = getattr(obj, name)
                if isinstance(value, tuple):
                    assert {type(v) for v in value} == {float}, name
                else:
                    assert type(value) is float, name
        assert made[0].rect == (10.0, 10.0, 20.0, 20.0)

    def test_inclusive_bounds_take_their_ends(self):
        noise = RenderNoise(optical_sigma=0, speckle_looks=1)
        assert (noise.optical_sigma, noise.speckle_looks) == (0.0, 1.0)
        for kwargs in ({"optical_sigma": -1e-300}, {"speckle_looks": np.nextafter(1.0, 0.0)}):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                RenderNoise(**kwargs)

    def test_float32_gsd_scene_saves_and_reloads(self, tmp_path):
        # make_scene put the float32 into the geotransform, which json refused
        spec = SceneSpec(extent=(20.0, 10.0), gsd=np.float32(0.5))
        dem, refl = make_scene(spec)
        for name, raster in (("dem", dem), ("refl", refl)):
            save_raster(raster, tmp_path / f"{name}.rflt")
            back = load_raster(tmp_path / f"{name}.rflt")
            assert back.samples.tobytes() == raster.samples.tobytes()
            assert back.sidecar == {"geotransform": {"x0": 0.25, "y0": 0.25, "step": 0.5}}


def _render_optical_oracle(dem, reflectance, model, shape):
    """Noise-free render_optical by the full-frame march: the DEM is sampled
    for every pixel at every march height and every bisection step."""
    grid = GroundGrid.from_raster(dem)
    ground = float(dem.samples.min())
    h_top = float(dem.samples.max()) + 1e-3
    rows, cols = shape
    rr, cc = np.meshgrid(np.arange(rows, dtype=float),
                         np.arange(cols, dtype=float), indexing="ij")
    w = opt_ray(model, rr, cc)

    def surface_at(h):
        return bilinear(dem.samples, *grid.cell_of(*ray_at_height(model.pc, w, h)), ground)

    n_steps = max(2, min(160, int(np.ceil((h_top - ground) / (grid.step / 2)))))
    heights = np.linspace(h_top, ground, n_steps + 1)
    hit_hi = np.full(shape, ground)
    hit_lo = np.full(shape, ground)
    undecided = np.ones(shape, dtype=bool)
    prev_h = heights[0]
    for h in heights:
        if not undecided.any():
            break
        crossed = undecided & (surface_at(h) >= h)
        hit_hi[crossed] = prev_h
        hit_lo[crossed] = h
        undecided &= ~crossed
        prev_h = h
    lo, hi = hit_lo.copy(), hit_hi.copy()
    for _ in range(22):
        mid = 0.5 * (lo + hi)
        below = surface_at(mid) >= mid
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x, y = ray_at_height(model.pc, w, 0.5 * (lo + hi))
    img = bilinear(reflectance.samples, *grid.cell_of(x, y), float(reflectance.samples.mean()))
    return img.astype(np.float32)


def _view_scene(gsd, ground, texture_seed, tall, mid, low):
    """The box city of optical_views: one building over 80 m, so the
    march's 160-step cap applies."""
    return SceneSpec(
        extent=(40.0, 30.0), gsd=gsd, ground_height=ground, texture_seed=texture_seed,
        buildings=(Building((4, 4, 14, 12), tall), Building((20, 6, 34, 16), mid),
                   Building((8, 18, 26, 28), low)),
    )


def _canonical_view(gsd, ground):
    """The view of optical_views' scene by canonical_scene_models' camera."""
    spec = _view_scene(gsd, ground, 3, 96.0, 41.0, 12.0)
    _, opt, _, opt_shape = canonical_scene_models(spec)
    return spec, opt, opt_shape


@st.composite
def optical_views(draw):
    """A box-city scene with a drawn ground height and a camera 300 m to
    700 km up, turned by any phi, omega in +-0.5 rad and any kappa, whose
    principal ray meets the ground up to half the extent past the DEM's
    edge.  Some cameras are grid-aligned and nadir: phi = omega = 0, kappa
    a multiple of pi/2, 1 px per gsd and the principal ray on a cell
    corner, so every ray meets the ground on a cell centre and its box ends
    on a grid line."""
    gsd = draw(st.sampled_from([0.5, 1.0, 2.0]))
    ground = draw(st.floats(-40.0, 40.0).filter(lambda g: abs(g) > 1e-3))
    tall, mid, low = (draw(st.floats(lo, hi)) for lo, hi in
                      ((80.5, 120.0), (0.5, 80.0), (0.5, 30.0)))
    spec = _view_scene(gsd, ground, draw(st.integers(0, 99)), tall, mid, low)
    height = ground + draw(st.floats(300.0, 700e3))
    if draw(st.booleans()):
        phi = omega = 0.0
        kappa = draw(st.integers(0, 3)) * np.pi / 2
        target = np.array([draw(st.integers(int(-20 / gsd), int(60 / gsd))) * gsd,
                           draw(st.integers(int(-15 / gsd), int(45 / gsd))) * gsd, ground])
    else:
        phi, omega = (draw(st.floats(-0.5, 0.5)) for _ in range(2))
        kappa = draw(st.floats(0.0, 2 * np.pi))
        target = np.array([draw(st.floats(-20.0, 60.0)), draw(st.floats(-15.0, 45.0)),
                           ground])
    cam = OpticalSensorModel(pc=(0.0, 0.0, height), phi=phi, omega=omega, kappa=kappa,
                             focal=(height - ground) / gsd, principal_row=7.5,
                             principal_col=9.5)
    axis = -cam.rotation[:, 2]
    pc = target + (height - ground) / axis[2] * axis
    return spec, dataclasses.replace(cam, pc=pc), (16, 20)


@st.composite
def vertex_boxes(draw):
    """A small DEM (flat, spiked or drawn, heights of either sign, one row or
    one column among them), a fill, and a cell box holding at most one grid
    line per axis, which may end on a grid line or reach past the grid."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    height = st.floats(-50.0, 50.0)
    kind = draw(st.sampled_from(["flat", "spike", "drawn"]))
    z = np.full((rows, cols), draw(height))
    if kind == "spike":
        z[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = draw(height)
    elif kind == "drawn":
        z = np.array([[draw(height) for _ in range(cols)] for _ in range(rows)])
    lo, hi = [], []
    for n in (rows, cols):
        a = draw(st.one_of(st.integers(-2, n + 1).map(float), st.floats(-2.0, n + 1.0)))
        end = np.floor(a) + 2  # (a, end) holds the one grid line floor(a) + 1
        u = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        lo.append(a)
        hi.append(min(a + u * (end - a), end))
    return z.astype(np.float32), draw(height), np.array(lo), np.array(hi)


class TestRenderOptical:
    @settings(max_examples=60, deadline=None)
    @given(optical_views())
    @example(_canonical_view(1.0, 5.0))
    @example(_canonical_view(2.0, -12.5))
    def test_equals_full_frame_march(self, view):
        spec, cam, shape = view
        dem, refl = make_scene(spec)
        expected = _render_optical_oracle(dem, refl, cam, shape)
        try:
            img = render_optical(dem, refl, cam, RenderNoise(), shape)
        except SceneNotVisible:
            # every ray missed the DEM, so the march gave the fill everywhere
            assert np.all(expected == np.float32(refl.samples.mean()))
            return
        assert img.samples.tobytes() == expected.tobytes()

    def test_samples_dem_only_where_a_crossing_is_possible(self, monkeypatch):
        spec = SceneSpec(extent=(200.0, 160.0), texture_seed=4,
                         buildings=(Building((20, 30, 48, 58), 68.0),
                                    Building((120, 90, 145, 110), 25.0)))
        dem, refl = make_scene(spec)
        _, opt, _, opt_shape = canonical_scene_models(spec)
        dem_elements = []

        def counting(samples, r, c, fill):
            if samples is dem.samples:
                dem_elements.append(np.size(r))
            return bilinear(samples, r, c, fill)

        monkeypatch.setattr(scene_sim, "bilinear", counting)
        render_optical(dem, refl, opt, RenderNoise(), opt_shape)
        # the full-frame march samples 161 heights plus 22 bisection steps
        assert sum(dem_elements) < 5 * opt_shape[0] * opt_shape[1]

    def test_samples_dem_in_few_calls(self, monkeypatch):
        # the level-by-level march made 160 calls on this scene, and the
        # march by ray with bilinear at every halving 26; every ray bisected
        # here keeps its cell, so the halvings call bilinear none
        spec = SceneSpec(extent=(200.0, 160.0), texture_seed=4,
                         buildings=(Building((20, 30, 48, 58), 68.0),
                                    Building((120, 90, 145, 110), 25.0)))
        dem, refl = make_scene(spec)
        _, opt, _, opt_shape = canonical_scene_models(spec)
        calls = []

        def counting(samples, r, c, fill):
            if samples is dem.samples:
                calls.append(np.size(r))
            return bilinear(samples, r, c, fill)

        monkeypatch.setattr(scene_sim, "bilinear", counting)
        render_optical(dem, refl, opt, RenderNoise(), opt_shape)
        assert len(calls) <= 4

    def test_bisection_with_fixed_cell_and_cell_changing_rays_equals_full_frame_march(
            self, monkeypatch):
        # an oblique camera 2 km up: some rays cross a grid line within
        # their bracket and are sampled by bilinear at every halving, the
        # others gather their corners once
        spec = _view_scene(1.0, 0.0, 3, 96.0, 41.0, 12.0)
        dem, refl = make_scene(spec)
        cam = OpticalSensorModel(pc=(0.0, 0.0, 2000.0), phi=0.3, omega=0.2, kappa=0.5,
                                 focal=2000.0, principal_row=7.5, principal_col=9.5)
        axis = -cam.rotation[:, 2]
        target = np.array([20.0, 15.0, 0.0])
        cam = dataclasses.replace(cam, pc=target + 2000.0 / axis[2] * axis)
        decided, gathered, halving_calls = [], [], []

        def counting_axis(pos, n):
            decided.append(np.size(pos))
            return bilinear_axis(pos, n)

        def counting_corners(z, r0, c0):
            gathered.append(np.size(r0))
            return bilinear_corners(z, r0, c0)

        def counting_bilinear(samples, r, c, fill):
            if samples is dem.samples:
                halving_calls.append(np.size(r))
            return bilinear(samples, r, c, fill)

        monkeypatch.setattr(scene_sim, "bilinear_axis", counting_axis)
        monkeypatch.setattr(scene_sim, "bilinear_corners", counting_corners)
        monkeypatch.setattr(scene_sim, "bilinear", counting_bilinear)
        img = render_optical(dem, refl, cam, RenderNoise(), (16, 20))
        expected = _render_optical_oracle(dem, refl, cam, (16, 20))
        assert img.samples.tobytes() == expected.tobytes()
        # the rays bisected, then those that keep their cell
        n_decide, (n_fixed,) = decided[0], gathered
        assert 0 < n_fixed < n_decide
        assert len(halving_calls) >= 22

    def test_peak_memory_per_ray(self):
        # the level-by-level march held about 250 bytes per ray at once
        spec = SceneSpec(extent=(600.0, 600.0), texture_seed=5,
                         buildings=(Building((180, 180, 270, 360), 68.0),
                                    Building((360, 300, 480, 420), 25.0)))
        dem, refl = make_scene(spec)
        _, opt, _, opt_shape = canonical_scene_models(spec)
        noise = RenderNoise(optical_sigma=2.0, seed=1)
        tracemalloc.start()
        try:
            render_optical(dem, refl, opt, noise, opt_shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_ray = peak / (opt_shape[0] * opt_shape[1])
        assert per_ray <= 160, f"peak {per_ray:.0f} B per ray"

    @pytest.mark.parametrize("renderer", ["optical", "sar"])
    @pytest.mark.parametrize("shape", [(0, 20), (16, 0), (-3, 4), (16.0, 20.0), (16,),
                                       (16, 20, 1), 16, (True, True), (True, 20),
                                       (16, np.float64(20.0)), {16, 20}])
    def test_rejects_frame_shape_that_is_not_two_positive_integers(self, shape, renderer,
                                                                   monkeypatch):
        spec = SceneSpec(extent=(40.0, 30.0))
        dem, refl = make_scene(spec)
        sar, opt, _, _ = canonical_scene_models(spec)

        def no_work(*args):
            raise AssertionError("a ray or a track was built")

        monkeypatch.setattr(scene_sim, "opt_ray", no_work)
        monkeypatch.setattr(scene_sim, "_track_lines", no_work)
        render, model = {"optical": (render_optical, opt), "sar": (render_sar, sar)}[renderer]
        with pytest.raises(ValueError, match="frame shape"):
            render(dem, refl, model, RenderNoise(), shape)

    def test_accepts_numpy_integer_shape(self):
        spec = SceneSpec(extent=(40.0, 30.0), texture_seed=1)
        dem, refl = make_scene(spec)
        _, opt, _, (rows, cols) = canonical_scene_models(spec)
        a = render_optical(dem, refl, opt, RenderNoise(), (rows, cols))
        b = render_optical(dem, refl, opt, RenderNoise(), (np.int64(rows), np.int32(cols)))
        assert a.samples.tobytes() == b.samples.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(vertex_boxes(), st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                                    min_size=1, max_size=8))
    def test_vertex_bound_holds_every_sample_in_the_box(self, box, fractions):
        z, fill, lo, hi = box
        slack = 1e-12 * (1.0 + float(np.abs(z).max()))
        bound = _vertex_bound(z, lo[:, None], hi[:, None], fill, slack)
        assert bound.shape == (1,) and np.isfinite(bound[0])
        # drawn positions, and every grid line inside the box
        pos = [np.minimum(lo + np.array(f) * (hi - lo), hi) for f in fractions]
        pos += [np.clip(np.floor(lo) + 1, lo, hi)]
        r, c = np.array(pos).T
        samples = bilinear(z, r[:, None], c[None, :], fill)
        assert samples.max() <= bound[0]

    @pytest.mark.parametrize("camera", ["off_scene", "looking_up"])
    def test_scene_not_visible(self, camera):
        spec = SceneSpec(extent=(100.0, 80.0), texture_seed=2)
        dem, refl = make_scene(spec)
        _, opt, _, opt_shape = canonical_scene_models(spec)
        if camera == "off_scene":
            opt = dataclasses.replace(opt, pc=(5000.0, 5000.0, 700e3))
        else:
            opt = dataclasses.replace(opt, phi=np.pi)
        with pytest.raises(SceneNotVisible):
            render_optical(dem, refl, opt, RenderNoise(), opt_shape)

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


def _rotated_track(sar, degrees, centre):
    """The track turned by degrees about the vertical through centre (x, y)."""
    a = np.deg2rad(degrees)
    rot = np.array([[np.cos(a), -np.sin(a), 0.0],
                    [np.sin(a), np.cos(a), 0.0],
                    [0.0, 0.0, 1.0]])
    c = np.array([*centre, 0.0])
    return dataclasses.replace(sar, s0=c + rot @ (sar.s0 - c), v=rot @ sar.v)


def _track_positions(grid, model, sub):
    """_track_lines' offsets du and dw, and its samples' world x and y as
    the full (rows, columns) sums u u_hat_k + w w_hat_k, with no line taken
    alone where a frame entry is 0."""
    du, dw, _ = _track_lines(grid, model, sub)
    vx, vy = model.v[:2]
    frame = np.array([[vx, vy], [vy, -vx]]) / np.hypot(vx, vy)
    lo = np.array([grid.x0, grid.y0]) - grid.step / 2
    hi = lo + grid.step * np.array(grid.raster.samples.shape[::-1])
    corners = np.array([lo, hi, [lo[0], hi[1]], [hi[0], lo[1]]])
    u, w = (e.min() + (np.arange(n) + 0.5) * sub
            for e, n in zip((corners @ frame).T, (du.size, dw.size)))
    xg, yg = (u[:, None] * a + w[None] * b for a, b in frame)
    return du, dw, xg, yg


def _render_shadow(dem, sar, supersample=2):
    """render_sar's samples (x, y, h) and its shadow verdict at each."""
    grid = GroundGrid.from_raster(dem)
    _, dw, xg, yg = _track_positions(grid, sar, grid.step / supersample)
    hg = bilinear(dem.samples, *grid.cell_of(xg, yg), float(dem.samples.min()))
    return (xg, yg, hg), _shadow_mask(dw, hg, float(sar.position(sar.t0)[2]))


def _render_sar_oracle(dem, reflectance, model, shape, supersample=2):
    """Noise-free render_sar that projects and splats every sample of the
    track frame's bounding box of the DEM, those off the DEM included, in
    one pass over the full frame.  Along a one-sample axis the slope is 0."""
    grid = GroundGrid.from_raster(dem)
    sub = grid.step / supersample
    du, dw, xg, yg = _track_positions(grid, model, sub)
    r_idx, c_idx = grid.cell_of(xg, yg)
    hg = bilinear(dem.samples, r_idx, c_idx, float(dem.samples.min()))
    refl = bilinear(reflectance.samples, r_idx, c_idx, 0.0)
    if min(hg.shape) > 1:
        gu, gw = np.gradient(hg, sub)
    else:
        gu, gw = (np.gradient(hg, sub, axis=k) if hg.shape[k] > 1 else np.zeros_like(hg)
                  for k in (0, 1))
    z_s = float(model.position(model.t0)[2])
    look = np.stack(np.broadcast_arrays(dw, du[:, None], hg - z_s))
    look /= np.linalg.norm(look, axis=0)
    cos_inc = np.clip((gw * look[0] + gu * look[1] - look[2])
                      / np.sqrt(gw * gw + gu * gu + 1.0), 0.0, 1.0)
    weight = refl * (0.25 + 0.75 * cos_inc)
    weight = np.where(_shadow_mask(dw, hg, z_s), 0.03 * weight, weight)
    t, slant = sar_forward_array(model, np.stack([xg, yg, hg], axis=-1))
    row = (t - model.t0) / model.az_time_per_row
    col = (slant - model.r_near) / model.range_per_col
    sz = model.s0[2] + (t - model.t0) * model.v[2]
    sin_inc = np.sqrt(np.clip(1.0 - ((sz - hg) / slant) ** 2, 1e-6, 1.0))
    density = (sub * sin_inc / model.range_per_col) * (
        sub / (np.linalg.norm(model.v) * abs(model.az_time_per_row)))
    img = soft_histogram((linear_bins(row, shape[0]), linear_bins(col, shape[1])),
                         shape, weight * density)
    return img.astype(np.float32), row.size


def _column_against_row(r_shape, c_shape) -> bool:
    """Whether positions of these shapes broadcast as a column against a row."""
    return (len(r_shape) == len(c_shape) == 2
            and 1 in (r_shape[1] * c_shape[0], r_shape[0] * c_shape[1]))


# a 4.5 km wide strip: at supersample 2 one track-frame row of the north
# track holds more samples than one weighting block
_WIDE_SPEC = SceneSpec(extent=(4500.0, 6.0), texture_seed=3,
                       buildings=(Building(rect=(2000, 1, 2030, 5), height=15.0),))


class TestRenderSar:
    @pytest.mark.parametrize("track, supersample, spec", [
        pytest.param("north", 2, None, id="north"),
        pytest.param("30", 2, None, id="30"),
        pytest.param("climbing", 2, None, id="climbing"),
        *(pytest.param(track, supersample, None, id=f"{track}-supersample{supersample}")
          for supersample in (1, 3) for track in ("north", "30", "climbing")),
        pytest.param("north", 2, _WIDE_SPEC, id="north-row-over-one-block"),
    ])
    def test_projects_only_lit_samples_and_equals_full_box(self, track, supersample, spec,
                                                           monkeypatch):
        spec = spec or _city_spec(extent=(90.0, 40.0))
        dem, refl = make_scene(spec)
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        if track == "climbing":
            sar = dataclasses.replace(sar, v=sar.v + np.array([0.0, 0.0, 0.5]))
        elif track == "30":
            sar = _rotated_track(sar, 30.0, tuple(np.array(spec.extent) / 2))
        expected, n_box = _render_sar_oracle(dem, refl, sar, sar_shape, supersample)
        projected = []

        def counting(model, ground):
            projected.append(ground[..., 0].size)
            return sar_forward_array(model, ground)

        monkeypatch.setattr(scene_sim, "sar_forward_array", counting)
        img = render_sar(dem, refl, sar, RenderNoise(), sar_shape, supersample)
        assert img.samples.tobytes() == expected.tobytes()
        # at most the DEM's own supersample x supersample sub-cells per cell
        # carry energy; the 30 degree track's box holds about twice as many
        total = sum(projected)
        assert total <= supersample**2 * dem.rows * dem.cols
        # each call projects one block of whole track-frame rows at most
        grid = GroundGrid.from_raster(dem)
        row_length = _track_lines(grid, sar, grid.step / supersample)[1].size
        assert max(projected) <= max(1, BILINEAR_BLOCK // row_length) * row_length
        assert track != "30" or n_box > 2 * total

    @pytest.mark.parametrize("spec", [None, _WIDE_SPEC], ids=["city", "row-over-one-block"])
    def test_one_corner_computation_per_block_serves_both_grids(self, spec, monkeypatch):
        # each block samples the DEM (on its halo rows) and the reflectance
        # in one bilinear call, so at one set of corners
        spec = spec or _city_spec(extent=(90.0, 40.0))
        dem, refl = make_scene(spec)
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        grids, blocks = [], []

        def counting_bilinear(samples, r, c, fill):
            grids.append(np.shape(samples))
            return bilinear(samples, r, c, fill)

        def counting_forward(model, ground):
            blocks.append(ground[..., 0].size)  # one projection per block
            return sar_forward_array(model, ground)

        monkeypatch.setattr(scene_sim, "bilinear", counting_bilinear)
        monkeypatch.setattr(scene_sim, "sar_forward_array", counting_forward)
        render_sar(dem, refl, sar, RenderNoise(), sar_shape)
        assert len(blocks) > 1 and len(grids) == len(blocks)
        assert set(grids) == {(2, *dem.samples.shape)}

    @pytest.mark.parametrize("v", [
        pytest.param((0.0, 7500.0, 0.0), id="+y"),
        pytest.param((-0.0, 7500.0, 0.0), id="+y-negative-zero"),
        pytest.param((0.0, -7500.0, 0.0), id="-y"),
        pytest.param((7500.0, 0.0, 0.0), id="+x"),
        pytest.param((-7500.0, 0.0, 0.0), id="-x"),
        pytest.param((7500.0, 0.0, 0.5), id="+x-climbing"),
    ])
    def test_track_along_a_grid_axis_samples_columns_against_rows(self, v, monkeypatch):
        # v exactly on the axis: a track turned by 90 degrees has a cos of
        # 6e-17 and samples every position.  Each block's one bilinear call
        # takes a column of positions against a row
        spec = _city_spec(extent=(90.0, 90.0))
        dem, refl = make_scene(spec)
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        heading = np.degrees(np.arctan2(v[1], v[0])) - 90.0
        sar = dataclasses.replace(_rotated_track(sar, heading, (45.0, 45.0)), v=v)
        expected, _ = _render_sar_oracle(dem, refl, sar, sar_shape)
        positions, blocks = [], []

        def counting_bilinear(samples, r, c, fill):
            positions.append((np.shape(r), np.shape(c)))
            return bilinear(samples, r, c, fill)

        def counting_forward(model, ground):
            blocks.append(ground[..., 0].size)
            return sar_forward_array(model, ground)

        monkeypatch.setattr(scene_sim, "bilinear", counting_bilinear)
        monkeypatch.setattr(scene_sim, "sar_forward_array", counting_forward)
        img = render_sar(dem, refl, sar, RenderNoise(), sar_shape)
        assert img.samples.tobytes() == expected.tobytes()
        assert img.samples.max() > 0
        assert len(positions) == len(blocks) > 1
        assert all(_column_against_row(*shapes) for shapes in positions)

    def test_signed_zero_track_equals_full_box(self):
        # cell centres on the world axes at supersample 1: the -y track's
        # samples reach u = 0 and w = 0 exactly, so in the last block a
        # coordinate's zero line holds zeros of both signs, which the image
        # does not depend on
        spec = _city_spec(extent=(90.0, 300.0))
        geo = {"geotransform": {"x0": 0.0, "y0": 0.0, "step": 1.0}}
        dem, refl = (Raster(samples=r.samples, sidecar=geo) for r in make_scene(spec))
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        sar = dataclasses.replace(_rotated_track(sar, 180.0, (45.0, 150.0)),
                                  v=(0.0, -7500.0, 0.0))
        expected, _ = _render_sar_oracle(dem, refl, sar, sar_shape, supersample=1)
        img = render_sar(dem, refl, sar, RenderNoise(), sar_shape, supersample=1)
        assert img.samples.tobytes() == expected.tobytes()

    def test_rejects_reflectance_off_the_dem_grid(self):
        spec = SceneSpec(extent=(20, 20))
        dem, refl = make_scene(spec)
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        cropped = Raster(samples=refl.samples[:-1], sidecar=refl.sidecar)
        with pytest.raises(ValueError, match="one grid"):
            render_sar(dem, cropped, sar, RenderNoise(), sar_shape)

    @pytest.mark.parametrize("supersample", [1, 2])
    @pytest.mark.parametrize("extent", [(1.0, 10.0), (10.0, 1.0), (1.0, 1.0)])
    def test_one_sample_frame_takes_zero_slope(self, extent, supersample):
        # at supersample 1 the track frame is one sample long or wide, and
        # np.gradient cannot take a slope along that axis
        spec = SceneSpec(extent=extent, texture_seed=2)
        dem, refl = make_scene(spec)
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        expected, _ = _render_sar_oracle(dem, refl, sar, sar_shape, supersample)
        img = render_sar(dem, refl, sar, RenderNoise(), sar_shape, supersample)
        assert img.samples.tobytes() == expected.tobytes()
        # at supersample 2 both samples across a one-cell axis lie a quarter
        # cell off the DEM's only centre, where the reflectance fill is 0
        assert (img.samples.max() > 0) == (supersample == 1 or min(dem.samples.shape) > 1)

    def test_peak_memory_is_one_block_and_the_output(self):
        # 500 m x 500 m at supersample 2: a million samples; the full-frame
        # render held about 220 bytes per sample at once
        spec = SceneSpec(extent=(500.0, 500.0), texture_seed=5,
                         buildings=(Building(rect=(200, 150, 260, 300), height=25.0),))
        dem, refl = make_scene(spec)
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        noise = RenderNoise(speckle_looks=4, seed=1)
        tracemalloc.start()
        try:
            render_sar(dem, refl, sar, noise, sar_shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 64 * sar_shape[0] * sar_shape[1] + 4 * 2**20
        assert peak <= bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"

    @pytest.mark.parametrize("supersample", [0, -3, 2.5, True, 2.0])
    def test_rejects_supersample_that_is_not_a_positive_integer(self, supersample):
        spec = SceneSpec(extent=(20, 20))
        dem, refl = make_scene(spec)
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        with pytest.raises(ValueError, match="supersample"):
            render_sar(dem, refl, sar, RenderNoise(), sar_shape, supersample=supersample)

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
        img = render_sar(dem, refl, sar, RenderNoise(), sar_shape)
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
        clean = render_sar(dem, refl, sar, RenderNoise(), sar_shape)
        noisy = render_sar(dem, refl, sar, RenderNoise(speckle_looks=10_000), sar_shape)
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

    @pytest.mark.parametrize("theta", [0.0, 90.0, float("nan"), -10.0, 120.0, float("inf"),
                                       True, None, "35"])
    def test_canonical_models_reject_incidence_outside_0_to_90(self, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sar_theta_deg"):
                canonical_scene_models(SceneSpec(extent=(50, 50)), sar_theta_deg=theta)

    def test_canonical_models_take_any_real_type_of_incidence(self):
        spec = SceneSpec(extent=(200.0, 200.0))
        # a float32 incidence made a 200 x 217 frame and moved the track
        want = canonical_scene_models(spec, sar_theta_deg=35.0)
        assert want[2:] == ((200, 216), (200, 200))
        for theta in (35, np.float32(35.0), np.float16(35.0), np.int64(35)):
            sar, opt, sar_shape, opt_shape = canonical_scene_models(spec, sar_theta_deg=theta)
            assert (sar_shape, opt_shape) == want[2:]
            assert model_to_sidecar(sar) == model_to_sidecar(want[0])
            assert model_to_sidecar(opt) == model_to_sidecar(want[1])

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
    def test_any_track_renders_shadows(self, track):
        spec = SceneSpec(
            extent=(120, 120), texture_seed=6,
            buildings=(Building(rect=(50, 40, 70, 80), height=10.0),),
        )
        dem, refl = make_scene(spec)
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        if track == "rotated":
            # 3 degrees about the scene centre, so the swath still covers it
            sar = _rotated_track(sar, 3.0, (60.0, 60.0))
        else:
            sar = dataclasses.replace(sar, v=sar.v + np.array([0.0, 0.0, 0.5]))
        img = render_sar(dem, refl, sar, RenderNoise(), sar_shape)
        assert img.samples.shape == sar_shape
        assert np.all(np.isfinite(img.samples)) and img.samples.max() > 0
        assert _render_shadow(dem, sar)[1].any()

    def test_transposed_scene_renders_identically(self):
        spec = _city_spec(extent=(90.0, 40.0))
        dem, refl = make_scene(spec)
        sar, _, sar_shape, _ = canonical_scene_models(spec)
        dem_t, refl_t = (Raster(samples=np.ascontiguousarray(r.samples.T),
                                sidecar=r.sidecar) for r in (dem, refl))
        # the track along +x south of the transposed scene looks north: left
        (sx, sy, sz), vs = sar.s0, sar.v[1]
        sar_t = dataclasses.replace(sar, s0=(sy, sx, sz), v=(vs, 0.0, 0.0),
                                    look_side="left")
        for noise in (RenderNoise(), RenderNoise(speckle_looks=4, seed=5)):
            a = render_sar(dem, refl, sar, noise, sar_shape)
            b = render_sar(dem_t, refl_t, sar_t, noise, sar_shape)
            assert a.samples.tobytes() == b.samples.tobytes()

    @pytest.mark.parametrize("track", ["3", "30", "90", "180", "climbing", "above"])
    def test_render_shadow_matches_blocked(self, track):
        spec = _city_spec(extent=(90.0, 40.0))
        dem, _ = make_scene(spec)
        sar, _, _, _ = canonical_scene_models(spec)
        if track == "climbing":
            sar = dataclasses.replace(sar, v=sar.v + np.array([0.0, 0.0, 0.5]))
        elif track == "above":
            # 500 m over the middle of the scene, between the 7 m and the
            # 20.1 m roof: a roof shadows only its own side of the track
            sar = dataclasses.replace(sar, s0=(45.0, sar.s0[1], 500.0))
        else:
            sar = _rotated_track(sar, float(track), (45.0, 20.0))
        (xg, yg, hg), shadowed = _render_shadow(dem, sar)
        grid = GroundGrid.from_raster(dem)
        r, c = grid.cell_of(xg, yg)
        on_dem = np.flatnonzero((r >= 0) & (r <= dem.rows - 1)
                                & (c >= 0) & (c <= dem.cols - 1))
        pick = np.random.default_rng(5).choice(on_dem, 2000, replace=False)
        ground, top = float(dem.samples.min()), float(dem.samples.max())
        blocked = [
            _blocked(grid, ground, top, p,
                     sar.position(sar_forward(sar, GroundPoint(*p)).t))
            for p in np.stack([xg.flat[pick], yg.flat[pick], hg.flat[pick]], axis=1)
        ]
        assert blocked == list(shadowed.flat[pick])
        assert track == "above" or sum(blocked) >= 100

    def test_track_without_horizontal_velocity_raises(self, small_scene):
        spec, dem, refl, sar, opt, sar_shape, _ = small_scene
        vertical = dataclasses.replace(sar, v=(0.0, 0.0, 7500.0))
        with pytest.raises(ValueError, match="horizontal velocity"):
            render_sar(dem, refl, vertical, RenderNoise(), sar_shape)

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

    def test_points_outside_a_frame_excluded(self, small_scene):
        spec, dem, refl, sar, opt, sar_shape, opt_shape = small_scene
        kept = GroundPoint(30.5, 40.0, 0.0)
        past_sar = GroundPoint(30.5, 150.0, 0.0)  # SAR row about 150
        past_optical = GroundPoint(150.0, 40.0, 0.0)  # optical column about 150
        # shadowed and past the SAR frame: the first reason is reported
        shadowed = GroundPoint(104.0, 85.0, 0.0)
        truth = ground_truth_correspondences(
            dem, sar, opt, [kept, past_sar, past_optical, shadowed],
            sar_shape=(80, sar_shape[1]), opt_shape=(opt_shape[0], 120))
        assert [pair.ground for pair in truth.pairs] == [kept]
        assert truth.excluded == ((past_sar, "outside_sar"), (past_optical, "outside_optical"),
                                  (shadowed, "sar_shadow"))

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
