"""Tests for sensor models and forward/inverse projections."""

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from sarstereo.geometry import (
    AmbiguousSide,
    BehindCamera,
    GroundPoint,
    ImagePoint,
    NoIntersection,
    OpticalSensorModel,
    RayParallelToPlane,
    SarObservation,
    SarSensorModel,
    model_from_sidecar,
    model_to_sidecar,
    opt_forward,
    opt_forward_array,
    opt_inverse_at_height,
    opt_ray,
    ray_at_height,
    rotation_from_angles,
    sar_forward,
    sar_forward_array,
    sar_inverse_at_height,
)
from sarstereo.raster import Raster, load_raster, save_raster
from sarstereo.scene_sim import SceneSpec, canonical_scene_models


@pytest.fixture
def sar_model():
    return SarSensorModel(s0=(0.0, 0.0, 700e3), v=(0.0, 7500.0, 0.0))


@pytest.fixture
def nadir_camera():
    return OpticalSensorModel(
        pc=(0.0, 0.0, 1000.0),
        focal=10000.0,
        principal_row=500.0,
        principal_col=500.0,
    )


class TestRotation:
    def test_zero_angles_identity(self):
        assert np.allclose(rotation_from_angles(0, 0, 0), np.eye(3))

    def test_kappa_quarter_turn(self):
        r = rotation_from_angles(0, 0, np.pi / 2)
        # x-axis maps to y, y-axis maps to -x
        assert np.allclose(r @ np.array([1, 0, 0]), [0, 1, 0], atol=1e-15)
        assert np.allclose(r @ np.array([0, 1, 0]), [-1, 0, 0], atol=1e-15)
        assert np.isclose(np.linalg.det(r), 1.0)

    def test_orthonormal(self):
        r = rotation_from_angles(0.1, 0.2, 0.3)
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12

    def test_orthonormal_random_angles(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            phi, omega, kappa = rng.uniform(-np.pi, np.pi, 3)
            r = rotation_from_angles(phi, omega, kappa)
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12


class TestSarForward:
    def test_point_below_at_closest_approach(self, sar_model):
        obs = sar_forward(sar_model, GroundPoint(0, 0, 0))
        assert obs.t == pytest.approx(sar_model.t0, abs=1e-12)
        assert obs.r == pytest.approx(700e3)

    def test_across_track_offset(self, sar_model):
        obs = sar_forward(sar_model, GroundPoint(1000, 0, 0))
        assert obs.t == pytest.approx(sar_model.t0, abs=1e-12)
        assert obs.r == pytest.approx(np.hypot(1000, 700e3))

    def test_along_track_closed_form_vs_root_find(self, sar_model):
        p = GroundPoint(5000, 3000, 100)
        obs = sar_forward(sar_model, p)
        assert obs.t == pytest.approx(0.4)

        def doppler(t):
            s = sar_model.position(t)
            return float(np.dot(sar_model.v, p.as_array() - s))

        t_oracle = brentq(doppler, -10, 10, xtol=1e-14)
        assert obs.t == pytest.approx(t_oracle, abs=1e-9)
        r_oracle = np.linalg.norm(p.as_array() - sar_model.position(t_oracle))
        assert obs.r == pytest.approx(r_oracle, abs=1e-6)

    def test_doppler_residual_normalized(self, sar_model):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = GroundPoint(*rng.uniform([-1000, -1000, 0], [1000, 1000, 200]))
            obs = sar_forward(sar_model, p)
            s = sar_model.position(obs.t)
            resid = np.dot(sar_model.v, p.as_array() - s)
            vnorm = np.linalg.norm(sar_model.v)
            assert abs(resid) / (vnorm * obs.r) < 1e-12


class TestSarInverse:
    def test_round_trip(self, sar_model):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = GroundPoint(*rng.uniform([100, -1000, 0], [2000, 1000, 200]))
            obs = sar_forward(sar_model, p)
            q = sar_inverse_at_height(sar_model, obs, p.h)
            assert np.allclose(q.as_array(), p.as_array(), atol=1e-6)

    def test_side_disambiguation(self, sar_model):
        obs = SarObservation(t=0.0, r=float(np.hypot(1000, 700e3)))
        p = sar_inverse_at_height(sar_model, obs, 0.0)
        assert p.x == pytest.approx(1000.0, abs=1e-6)
        assert p.y == pytest.approx(0.0, abs=1e-9)
        left = SarSensorModel(
            s0=(0, 0, 700e3), v=(0, 7500, 0), look_side="left"
        )
        q = sar_inverse_at_height(left, obs, 0.0)
        assert q.x == pytest.approx(-1000.0, abs=1e-6)

    def test_slanted_case_matches_numeric_solver(self, sar_model):
        h = 50.0
        obs = SarObservation(t=0.25, r=700500.0)
        p = sar_inverse_at_height(sar_model, obs, h)
        # oracle: at fixed t, scan x on the zero-Doppler plane y = y(t) for
        # the range condition, bracketing the positive-x root
        s = sar_model.position(obs.t)

        def range_err(x):
            return np.linalg.norm([x - s[0], 0.0, h - s[2]]) - obs.r

        x_oracle = brentq(range_err, 1.0, 1e6, xtol=1e-9)
        assert p.x == pytest.approx(x_oracle, abs=1e-6)
        assert p.y == pytest.approx(s[1], abs=1e-9)
        assert p.h == h

    def test_no_intersection(self, sar_model):
        with pytest.raises(NoIntersection):
            sar_inverse_at_height(sar_model, SarObservation(0.0, 1000.0), 0.0)

    def test_vertical_velocity_ambiguous(self):
        model = SarSensorModel(s0=(0, 0, 700e3), v=(0, 0, 7500.0))
        with pytest.raises(AmbiguousSide):
            sar_inverse_at_height(model, SarObservation(0.0, 700e3), 0.0)


class TestOptForward:
    def test_axis_point_hits_principal_point(self, nadir_camera):
        ip = opt_forward(nadir_camera, GroundPoint(0, 0, 0))
        assert ip.row == pytest.approx(500.0)
        assert ip.col == pytest.approx(500.0)

    def test_similar_triangles(self, nadir_camera):
        ip = opt_forward(nadir_camera, GroundPoint(10, 0, 0))
        assert ip.col == pytest.approx(400.0)
        assert ip.row == pytest.approx(500.0)

    def test_rotated_camera_vs_homogeneous_oracle(self):
        model = OpticalSensorModel(
            pc=(50.0, -20.0, 800.0),
            phi=0.1,
            omega=0.2,
            kappa=0.3,
            focal=5000.0,
            principal_row=1000.0,
            principal_col=1200.0,
        )
        rng = np.random.default_rng(11)
        rot = model.rotation
        for _ in range(100):
            p = GroundPoint(*rng.uniform([-200, -200, 0], [200, 200, 100]))
            ip = opt_forward(model, p)
            # oracle: homogeneous projection with explicit matrix products
            q = rot.T @ (p.as_array() - model.pc)
            proj = np.array(
                [model.focal * q[0] / q[2], model.focal * q[1] / q[2]]
            )
            assert ip.col == pytest.approx(model.principal_col + proj[0], abs=1e-9)
            assert ip.row == pytest.approx(model.principal_row + proj[1], abs=1e-9)

    def test_behind_camera(self, nadir_camera):
        with pytest.raises(BehindCamera):
            opt_forward(nadir_camera, GroundPoint(0, 0, 2000.0))

    def test_focal_linearity(self, nadir_camera):
        doubled = OpticalSensorModel(
            pc=nadir_camera.pc,
            focal=2 * nadir_camera.focal,
            principal_row=nadir_camera.principal_row,
            principal_col=nadir_camera.principal_col,
        )
        p = GroundPoint(37.0, -12.0, 5.0)
        a = opt_forward(nadir_camera, p)
        b = opt_forward(doubled, p)
        assert b.col - 500.0 == pytest.approx(2 * (a.col - 500.0))
        assert b.row - 500.0 == pytest.approx(2 * (a.row - 500.0))


class TestOptInverse:
    def test_round_trip(self, nadir_camera):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = GroundPoint(*rng.uniform([-40, -40, 0], [40, 40, 50]))
            ip = opt_forward(nadir_camera, p)
            q = opt_inverse_at_height(nadir_camera, ip, p.h)
            ip2 = opt_forward(nadir_camera, q)
            assert abs(ip2.row - ip.row) < 1e-6
            assert abs(ip2.col - ip.col) < 1e-6
            assert np.allclose(q.as_array(), p.as_array(), atol=1e-6)

    def test_nadir_principal_ray(self, nadir_camera):
        p = opt_inverse_at_height(nadir_camera, ImagePoint(500.0, 500.0), 0.0)
        assert np.allclose(p.as_array(), [0, 0, 0], atol=1e-12)

    def test_oblique_matches_line_plane_oracle(self):
        model = OpticalSensorModel(
            pc=(100.0, 50.0, 1200.0), phi=0.2, omega=-0.1, kappa=0.4, focal=8000.0
        )
        ip = ImagePoint(row=35.0, col=-61.0)
        p = opt_inverse_at_height(model, ip, 20.0)
        # closed-form line/plane oracle from two projected probe heights
        a = opt_inverse_at_height(model, ip, 0.0).as_array()
        b = opt_inverse_at_height(model, ip, 100.0).as_array()
        lam = (20.0 - a[2]) / (b[2] - a[2])
        assert np.allclose(p.as_array(), a + lam * (b - a), atol=1e-9)
        ip2 = opt_forward(model, p)
        assert abs(ip2.row - ip.row) < 1e-6 and abs(ip2.col - ip.col) < 1e-6


class TestRoundTripVolume:
    def test_both_sensors_close_over_scene_volume(self):
        # scene volume entirely on the look side of the track
        sar_model = SarSensorModel(s0=(-50e3, 0.0, 700e3), v=(0.0, 7500.0, 0.0))
        camera = OpticalSensorModel(
            pc=(200.0, 100.0, 770e3),
            phi=0.01,
            omega=-0.02,
            kappa=3.14159,
            focal=700000.0,
        )
        rng = np.random.default_rng(2024)
        n = 10_000
        pts = rng.uniform([-1000, -1000, 0], [1000, 1000, 200], size=(n, 3))
        for i in range(n):
            p = GroundPoint(*pts[i])
            obs = sar_forward(sar_model, p)
            q = sar_inverse_at_height(sar_model, obs, p.h)
            assert np.allclose(q.as_array(), p.as_array(), atol=1e-6)
            ip = opt_forward(camera, p)
            g = opt_inverse_at_height(camera, ip, p.h)
            assert np.allclose(g.as_array(), p.as_array(), atol=1e-6)


def save_with_model(model, path):
    save_raster(Raster(samples=np.zeros((2, 2), np.float32),
                       sidecar=model_to_sidecar(model)), path)


class TestSerialization:
    def test_sar_model_sidecar_round_trip(self, sar_model, tmp_path):
        path = tmp_path / "sar.rflt"
        save_with_model(sar_model, path)
        loaded = model_from_sidecar(load_raster(path).sidecar)
        assert isinstance(loaded, SarSensorModel)
        assert np.allclose(loaded.s0, sar_model.s0)
        assert np.allclose(loaded.v, sar_model.v)
        assert loaded.look_side == sar_model.look_side
        # field names exactly as in the model definition
        doc = json.loads((tmp_path / "sar.rflt.json").read_text())
        assert set(doc["sar_model"]) == {
            "s0", "v", "t0", "az_time_per_row", "r_near",
            "range_per_col", "look_side",
        }

    def test_optical_model_sidecar_round_trip(self, nadir_camera, tmp_path):
        path = tmp_path / "opt.rflt"
        save_with_model(nadir_camera, path)
        loaded = model_from_sidecar(load_raster(path).sidecar)
        assert isinstance(loaded, OpticalSensorModel)
        assert np.allclose(loaded.pc, nadir_camera.pc)
        assert loaded.focal == nadir_camera.focal

    def test_sidecar_without_model_rejected(self):
        with pytest.raises(ValueError):
            model_from_sidecar({"geotransform": {"x0": 0.5, "y0": 0.5, "step": 1.0}})

    def test_malformed_model_entry_rejected(self, sar_model):
        entry = model_to_sidecar(sar_model)["sar_model"]
        del entry["v"]
        with pytest.raises(ValueError, match=r"lacks field.*\bv\b"):
            model_from_sidecar({"sar_model": entry})
        for bad in ([1, 2, 3], "sar", None):
            with pytest.raises(ValueError, match="not an object"):
                model_from_sidecar({"sar_model": bad})

    @pytest.mark.parametrize("cls, kwargs, match", [
        (SarSensorModel, dict(s0=(0, 0, 0), v=(0, 0, 0)), r"\|v\| > 0"),
        (OpticalSensorModel, dict(pc=(0, 0, 100), focal=-1.0), "focal > 0"),
        (SarSensorModel, dict(s0=(0, 0, 0), v=(1, 0, 0), range_per_col=0.0),
         "range_per_col > 0"),
        (SarSensorModel, dict(s0=(0, 0, 0), v=(1, 0, 0), az_time_per_row=0.0),
         "az_time_per_row != 0"),
        (SarSensorModel, dict(s0=(0, 0, 0), v=(1, 0, 0), look_side="up"), "look_side"),
        (SarSensorModel, dict(s0=(0, 0), v=(1, 0, 0)), r"s0 must be a 3-vector.*\(2,\)"),
        (SarSensorModel, dict(s0=(0, 0, 0), v=[[1, 0, 0]]), r"v must be a 3-vector.*\(1, 3\)"),
        (OpticalSensorModel, dict(pc=(0, np.nan, 100)), "finite pc entry"),
        (OpticalSensorModel, dict(pc=np.array([0, 0, np.inf])), "finite pc entry"),
    ])
    def test_invalid_models_rejected(self, cls, kwargs, match):
        with pytest.raises(ValueError, match=match):
            cls(**kwargs)

    # NaN passed the <= 0 and == 0 tests, and nothing bounded the others
    @pytest.mark.parametrize("cls, name, value", [
        (SarSensorModel, "t0", np.nan),
        (SarSensorModel, "az_time_per_row", np.inf),
        (SarSensorModel, "r_near", np.inf),
        (SarSensorModel, "range_per_col", np.nan),
        (OpticalSensorModel, "focal", np.inf),
        (OpticalSensorModel, "principal_row", np.nan),
        (OpticalSensorModel, "principal_col", np.inf),
    ])
    def test_non_finite_fields_rejected(self, cls, name, value):
        base = (dict(s0=(0, 0, 700e3), v=(0, 7500.0, 0)) if cls is SarSensorModel
                else dict(pc=(0, 0, 100.0)))
        with pytest.raises(ValueError, match=f"finite {name}"):
            cls(**base, **{name: value})
        # a sidecar carrying the value is rejected the same way
        sidecar = model_to_sidecar(cls(**base))
        next(iter(sidecar.values()))[name] = value
        with pytest.raises(ValueError, match=f"finite {name}"):
            model_from_sidecar(sidecar)


MODEL_BASE = {SarSensorModel: dict(s0=(0, 0, 700e3), v=(0, 7500.0, 0)),
              OpticalSensorModel: dict(pc=(0, 0, 100.0))}
MODEL_SCALARS = {SarSensorModel: ("t0", "az_time_per_row", "r_near", "range_per_col"),
                 OpticalSensorModel: ("phi", "omega", "kappa", "focal", "principal_row",
                                      "principal_col")}
MODEL_VECTORS = {SarSensorModel: ("s0", "v"), OpticalSensorModel: ("pc",)}


class TestModelNumbers:
    """The models store every number as the Python float check_real returns."""

    @pytest.mark.parametrize("kind", [np.float32, np.float16])
    @pytest.mark.parametrize("name", ["phi", "omega", "kappa"])
    def test_low_precision_angle_gives_the_float64_model(self, kind, name):
        low = OpticalSensorModel(pc=(0, 0, 7e5), focal=7e5, **{name: kind(0.1)})
        wide = OpticalSensorModel(pc=(0, 0, 7e5), focal=7e5, **{name: np.float64(kind(0.1))})
        assert model_to_sidecar(low) == model_to_sidecar(wide)
        assert low.rotation.tobytes() == wide.rotation.tobytes()

    @pytest.mark.parametrize("name", ["phi", "omega", "kappa"])
    def test_bool_angle_rejected(self, name):
        with pytest.raises(ValueError, match=f"finite {name}"):
            OpticalSensorModel(pc=(0, 0, 7e5), focal=7e5, **{name: True})

    def test_numpy_scalars_stored_as_python_floats(self):
        sar = SarSensorModel(s0=np.float32([0, 0, 5e5]), v=(np.int64(0), np.float16(7500), 0),
                             t0=np.float32(0.5), az_time_per_row=np.float16(1e-3),
                             r_near=np.float32(875000.0), range_per_col=np.float32(0.5))
        opt = OpticalSensorModel(pc=(np.int64(1), 2, 7e5), phi=np.float32(0.1),
                                 omega=np.int64(0), kappa=np.float64(np.pi),
                                 focal=np.int64(700000), principal_row=np.float16(10.5),
                                 principal_col=np.float32(20.5))
        for model in (sar, opt):
            for name in MODEL_SCALARS[type(model)]:
                assert type(getattr(model, name)) is float, name
            for name in MODEL_VECTORS[type(model)]:
                assert getattr(model, name).dtype == np.float64, name
        # float32 range terms made a numpy.float32 column
        col = sar.pixel_from_obs(SarObservation(0.5, 875437.7)).col
        assert type(col) is float and col == (875437.7 - 875000.0) / 0.5

    @pytest.mark.parametrize("k, name", enumerate(["phi", "omega", "kappa"]))
    def test_rotation_takes_angles_as_check_real_does(self, k, name):
        angles = [0.1, 0.2, 0.3]
        for bad in (True, False, np.array(0.1)):
            with pytest.raises(ValueError, match=f"finite {name}"):
                rotation_from_angles(*angles[:k], bad, *angles[k + 1:])
        # numpy took the cosine of a float32 in float32, and of a bool in float16
        low = rotation_from_angles(*angles[:k], np.float32(0.1), *angles[k + 1:])
        wide = rotation_from_angles(*angles[:k], float(np.float32(0.1)), *angles[k + 1:])
        assert low.dtype == np.float64 and low.tobytes() == wide.tobytes()

    @pytest.mark.parametrize("cls, name", [(c, n) for c, names in MODEL_SCALARS.items()
                                           for n in names])
    @pytest.mark.parametrize("value", [True, False, "1.0", None])
    def test_sidecar_scalar_that_is_not_a_real_number_rejected(self, cls, name, value):
        sidecar = model_to_sidecar(cls(**MODEL_BASE[cls]))
        next(iter(sidecar.values()))[name] = value
        with pytest.raises(ValueError, match=f"finite {name}"):
            model_from_sidecar(sidecar)

    @pytest.mark.parametrize("cls, name", [(c, n) for c, names in MODEL_VECTORS.items()
                                           for n in names])
    @pytest.mark.parametrize("value", [True, False, "0", None])
    def test_sidecar_vector_entry_that_is_not_a_real_number_rejected(self, cls, name, value):
        sidecar = model_to_sidecar(cls(**MODEL_BASE[cls]))
        next(iter(sidecar.values()))[name][1] = value
        with pytest.raises(ValueError, match=f"finite {name} entry"):
            model_from_sidecar(sidecar)


class TestValueTypes:
    """Coordinates and angles are checked one real number at a time.

    The per-point types raise TypeError on a non-number and take a 0-d
    array; rotation_from_angles takes each angle as raster.check_real does,
    so it raises ValueError on both.
    """

    # each value type, or function, with its number of arguments
    CHECKED = [(GroundPoint, 3), (ImagePoint, 2), (SarObservation, 2),
               (rotation_from_angles, 3)]

    @staticmethod
    def calls(make, n, value):
        """make with value in each argument position in turn, 1.0 elsewhere."""
        for k in range(n):
            args = [1.0] * n
            args[k] = value
            yield partial(make, *args)

    @pytest.mark.parametrize("make, n", CHECKED)
    def test_non_finite_rejected(self, make, n):
        for kind in (float, np.float32, np.float64):
            for bad in (np.nan, np.inf, -np.inf):
                for call in self.calls(make, n, kind(bad)):
                    with pytest.raises(ValueError):
                        call()

    @pytest.mark.parametrize("make, n", CHECKED)
    def test_real_scalars_accepted(self, make, n):
        zero_d = () if make is rotation_from_angles else (np.array(2.5),)
        for good in (2.5, 3, np.float32(2.5), np.float64(2.5), np.int64(3), *zero_d):
            for call in self.calls(make, n, good):
                call()

    @pytest.mark.parametrize("make, n", CHECKED)
    def test_non_numbers_rejected(self, make, n):
        error = ValueError if make is rotation_from_angles else TypeError
        for bad in (None, "1.0", np.array([1.0])):
            for call in self.calls(make, n, bad):
                with pytest.raises(error):
                    call()


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def sar_models(draw):
    heading = draw(finite(-np.pi, np.pi))
    speed = draw(finite(6000.0, 8000.0))
    return SarSensorModel(
        s0=(draw(finite(-1e5, 1e5)), draw(finite(-1e5, 1e5)), draw(finite(4e5, 8e5))),
        v=(speed * np.cos(heading), speed * np.sin(heading), draw(finite(-50.0, 50.0))),
        t0=draw(finite(-10.0, 10.0)),
        look_side=draw(st.sampled_from(["left", "right"])),
    )


@st.composite
def sar_model_and_points(draw, n=8):
    """A model and points on its look side, 1-500 km across track."""
    model = draw(sar_models())
    v_h = model.v[:2] / np.linalg.norm(model.v[:2])
    side = 1.0 if model.look_side == "right" else -1.0
    right = side * np.array([v_h[1], -v_h[0]])
    along = draw(arrays(float, n, elements=finite(-1e4, 1e4)))
    across = draw(arrays(float, n, elements=finite(1e3, 5e5)))
    h = draw(arrays(float, n, elements=finite(0.0, 500.0)))
    xy = model.s0[:2] + along[:, None] * v_h + across[:, None] * right
    return model, np.column_stack([xy, h])


@st.composite
def camera_and_points(draw, n=8):
    """A camera tilted under 0.3 rad and points within 0.2 height of nadir."""
    camera = OpticalSensorModel(
        pc=(draw(finite(-1e3, 1e3)), draw(finite(-1e3, 1e3)), draw(finite(1e3, 8e5))),
        phi=draw(finite(-0.3, 0.3)),
        omega=draw(finite(-0.3, 0.3)),
        kappa=draw(finite(-np.pi, np.pi)),
        focal=draw(finite(1e3, 1e6)),
        principal_row=draw(finite(0.0, 1e4)),
        principal_col=draw(finite(0.0, 1e4)),
    )
    h = draw(arrays(float, n, elements=finite(0.0, 500.0)))
    reach = 0.2 * (camera.pc[2] - h)
    dx = draw(arrays(float, n, elements=finite(-1.0, 1.0))) * reach
    dy = draw(arrays(float, n, elements=finite(-1.0, 1.0))) * reach
    return camera, np.column_stack([camera.pc[0] + dx, camera.pc[1] + dy, h])


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestArrayCore:
    """Array forms against their scalar wrappers, and round trips."""

    @settings(max_examples=60, deadline=None)
    @given(sar_model_and_points())
    def test_sar_forward_array_matches_scalar(self, case):
        model, pts = case
        t, r = sar_forward_array(model, pts)
        for i, p in enumerate(pts):
            obs = sar_forward(model, GroundPoint(*p))
            assert (t[i], r[i]) == (obs.t, obs.r)

    def test_sar_forward_array_matches_scalar_on_canonical_model(self):
        # enough points that an ulp apart in 1 of 5,000 would show
        sar, *_ = canonical_scene_models(SceneSpec(extent=(200.0, 200.0)))
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(0.0, 200.0, (20_000, 2)),
                               rng.uniform(0.0, 50.0, 20_000)])
        t, r = sar_forward_array(sar, pts)
        scalar = [sar_forward(sar, GroundPoint(*p)) for p in pts]
        assert np.array_equal(t, [obs.t for obs in scalar])
        assert np.array_equal(r, [obs.r for obs in scalar])

    @settings(max_examples=60, deadline=None)
    @given(camera_and_points())
    def test_opt_forward_array_matches_scalar(self, case):
        camera, pts = case
        row, col = opt_forward_array(camera, pts)
        for i, p in enumerate(pts):
            ip = opt_forward(camera, GroundPoint(*p))
            close(row[i], ip.row)
            close(col[i], ip.col)

    @settings(max_examples=60, deadline=None)
    @given(camera_and_points())
    def test_opt_inverse_array_matches_scalar(self, case):
        camera, pts = case
        row, col = opt_forward_array(camera, pts)
        x, y = ray_at_height(camera.pc, opt_ray(camera, row, col), pts[:, 2])
        for i in range(len(pts)):
            g = opt_inverse_at_height(camera, ImagePoint(row[i], col[i]), pts[i, 2])
            close((x[i], y[i]), (g.x, g.y))

    @settings(max_examples=60, deadline=None)
    @given(sar_model_and_points())
    def test_sar_round_trip(self, case):
        model, pts = case
        t, r = sar_forward_array(model, pts)
        for i, p in enumerate(pts):
            q = sar_inverse_at_height(model, SarObservation(t[i], r[i]), p[2])
            np.testing.assert_allclose(q.as_array(), p, rtol=0, atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(camera_and_points())
    def test_optical_round_trip(self, case):
        camera, pts = case
        row, col = opt_forward_array(camera, pts)
        x, y = ray_at_height(camera.pc, opt_ray(camera, row, col), pts[:, 2])
        np.testing.assert_allclose(np.column_stack([x, y]), pts[:, :2], rtol=0, atol=1e-6)

    def test_position_broadcasts_over_times(self, sar_model):
        ts = np.array([[-1.0, 0.0], [0.5, 2.0]])
        pos = sar_model.position(ts)
        assert pos.shape == (2, 2, 3)
        for idx in np.ndindex(ts.shape):
            assert np.array_equal(pos[idx], sar_model.position(float(ts[idx])))

    def test_behind_camera_is_nan_in_array_form(self, nadir_camera):
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2000.0], [5.0, 5.0, 1000.0]])
        row, col = opt_forward_array(nadir_camera, pts)
        assert np.isfinite([row[0], col[0]]).all()
        assert np.isnan(row[1:]).all() and np.isnan(col[1:]).all()
        for p in pts[1:]:
            with pytest.raises(BehindCamera):
                opt_forward(nadir_camera, GroundPoint(*p))

    def test_horizontal_ray_is_nan_in_array_form(self):
        # camera axis pitched to the horizon: the principal ray never
        # reaches a height plane
        camera = OpticalSensorModel(pc=(0.0, 0.0, 100.0), phi=np.pi / 2, focal=1000.0)
        w = opt_ray(camera, np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        x, y = ray_at_height(camera.pc, w, 0.0)
        assert np.isnan(x).all() and np.isnan(y).all()
        with pytest.raises(RayParallelToPlane):
            opt_inverse_at_height(camera, ImagePoint(0.0, 0.0), 0.0)

    @settings(max_examples=100, deadline=None)
    @given(origin=arrays(float, 3, elements=finite(-1e6, 1e6)),
           w_xy=arrays(float, (6, 2), elements=finite(-1e3, 1e3)),
           w_z=arrays(float, 6, elements=finite(1e-3, 1e3) | finite(-1e3, -1e-3)),
           nan_rays=arrays(bool, 6),
           h=arrays(float, st.sampled_from([(), (6,), (4, 1)]), elements=finite(-1e4, 1e4)))
    def test_ray_at_height_has_the_bytes_of_the_point_form(self, origin, w_xy, w_z, nan_rays,
                                                           h):
        # NaN rays, as opt_ray gives for rays parallel to the planes, and
        # heights one per ray, one for all, or a column against the rays
        w = np.column_stack([w_xy, w_z])
        w[nan_rays] = np.nan
        want = _ray_at_height_points(origin, w, h)
        x, y = ray_at_height(origin, w, h)
        assert x.shape == y.shape == want.shape[:-1]
        assert x.tobytes() == want[..., 0].tobytes()
        assert y.tobytes() == want[..., 1].tobytes()


def _ray_at_height_points(origin, w, h):
    """ray_at_height stated on points (..., 3): the scaled rays plus the
    origin, with the third coordinate set to h."""
    s = (h - origin[2]) / w[..., 2]
    p = s[..., None] * w
    p += origin
    p[..., 2] = h
    return p
