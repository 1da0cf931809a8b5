import math
import os
import stat

import numpy as np
import pytest

from conftest import random_rotation
from lidartmc.errors import UserInputError
from lidartmc.geo import (
    WGS84_A,
    FrameRegistry,
    GeodeticPoint,
    RigidTransform,
    atomic_text_writer,
    atomic_write_text,
    compose,
    estimate_transform_from_gcps,
    lla_to_ecef,
    load_gcp_csv,
    load_registry,
    ned_rotation,
    registry_from_json,
    save_registry,
    wrap_angle,
)
from oracle import WGS84_B, ecef_to_lla, sensor_to_ned

# The pose of a sensor whose frame is ECEF itself.
ECEF_POSE = RigidTransform(np.eye(3), np.zeros(3))


def random_transform(rng, translation_scale=100.0):
    return RigidTransform(random_rotation(rng), rng.uniform(-translation_scale, translation_scale, 3))


def apply(t, p):
    return t.rotation @ p + t.translation


def inverse(t):
    return RigidTransform(t.rotation.T, -(t.rotation.T @ t.translation))


class TestLlaEcef:
    def test_equator_prime_meridian(self):
        p = lla_to_ecef(GeodeticPoint(0.0, 0.0, 0.0))
        assert p.shape == (3,) and p.dtype == np.float64
        assert p[0] == pytest.approx(WGS84_A, abs=1e-9)
        assert abs(p[1]) < 1e-9 and abs(p[2]) < 1e-9

    def test_north_pole(self):
        p = lla_to_ecef(GeodeticPoint(90.0, 0.0, 0.0))
        assert abs(p[0]) < 1e-6 and abs(p[1]) < 1e-6
        assert p[2] == pytest.approx(WGS84_B, abs=1e-9)

    def test_inverse_at_equator(self):
        g = ecef_to_lla([WGS84_A, 0.0, 0.0])
        assert abs(g.lat) < 1e-12 and abs(g.lon) < 1e-12 and abs(g.alt) < 1e-9

    def test_pole_longitude_convention(self):
        g = ecef_to_lla([0.0, 0.0, WGS84_B])
        assert g.lat == pytest.approx(90.0)
        assert g.lon == 0.0
        assert abs(g.alt) < 1e-9

    def test_round_trip_1000_samples(self):
        # Oracle: converting back to ECEF must land within 1e-6 m.
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            p = GeodeticPoint(
                float(rng.uniform(-89.9, 89.9)),
                float(rng.uniform(-179.99, 180.0)),
                float(rng.uniform(-100.0, 4000.0)),
            )
            q = ecef_to_lla(lla_to_ecef(p))
            err = np.linalg.norm(lla_to_ecef(p) - lla_to_ecef(q))
            worst = max(worst, float(err))
        assert worst < 1e-6

    def test_geodetic_validation(self):
        with pytest.raises(ValueError):
            GeodeticPoint(91.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GeodeticPoint(0.0, -180.0, 0.0)
        with pytest.raises(ValueError):
            GeodeticPoint(0.0, 0.0, math.inf)


class TestRigidTransform:
    def test_quarter_turn_about_z(self):
        # A shift along x, then a quarter turn about z: the shift ends up along y.
        r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t = compose(RigidTransform(r, np.zeros(3)), RigidTransform(np.eye(3), [1.0, 0.0, 0.0]))
        assert t.translation == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3))

    @pytest.mark.parametrize("rotation,translation,reason", [
        (np.eye(2), np.zeros(3), "rotation must be 3x3"),
        ([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], np.zeros(3), "not orthonormal"),
        (np.eye(3), np.zeros(2), "translation must be a 3-vector"),
        (np.eye(3), [0.0, math.nan, 0.0], "translation must be finite"),
    ], ids=["rotation shape", "not orthonormal", "translation shape", "translation NaN"])
    def test_rejects_bad_transform(self, rotation, translation, reason):
        with pytest.raises(ValueError, match=reason):
            RigidTransform(rotation, translation)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [1e308, -1e308, 1e200, math.inf, math.nan, 1.0 + 1e-6])
    def test_rejects_huge_entries_before_the_product(self, entry):
        # r.T @ r on entries near 1e308 overflows; that must not warn.
        r = np.eye(3)
        r[0, 1] = entry
        with pytest.raises(ValueError, match="within"):
            RigidTransform(r, np.zeros(3))

    def test_entries_just_past_one_still_load(self):
        # An orthonormal matrix that is off by rounding may hold 1 + ulp.
        r = np.eye(3)
        r[0, 0] = np.nextafter(1.0, 2.0)
        assert RigidTransform(r, np.zeros(3)).rotation[0, 0] > 1.0

    def test_compose_invert_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = random_transform(rng)
            p = rng.uniform(-100, 100, 3)
            assert np.allclose(apply(compose(inverse(t), t), p), p, atol=1e-9)
            assert np.allclose(apply(compose(t, inverse(t)), p), p, atol=1e-9)

    def test_compose_associativity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b, c = (random_transform(rng) for _ in range(3))
            p = rng.uniform(-100, 100, 3)
            left = apply(compose(compose(a, b), c), p)
            right = apply(compose(a, compose(b, c)), p)
            assert np.allclose(left, right, atol=1e-9)


class TestNed:
    def test_equator_axes(self):
        r = ned_rotation(GeodeticPoint(0.0, 0.0, 0.0)).rotation
        # ECEF +z is north, +y is east, +x is up (-down) at (0, 0).
        assert np.allclose(r @ [0, 0, 1], [1, 0, 0], atol=1e-15)
        assert np.allclose(r @ [0, 1, 0], [0, 1, 0], atol=1e-15)
        assert np.allclose(r @ [1, 0, 0], [0, 0, -1], atol=1e-15)

    def test_orthonormal_for_random_origins(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            origin = GeodeticPoint(
                float(rng.uniform(-89, 89)), float(rng.uniform(-179.99, 180.0)), 0.0
            )
            r = ned_rotation(origin).rotation
            assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)

    def test_reference_point_maps_to_zero(self):
        reg = FrameRegistry(GeodeticPoint(34.05, -117.4, 350.0))
        out = sensor_to_ned(lla_to_ecef(reg.ned_origin), ECEF_POSE, reg)
        assert np.linalg.norm(out) < 1e-9

    def test_point_above_origin(self):
        origin = GeodeticPoint(34.05, -117.4, 350.0)
        reg = FrameRegistry(origin)
        above = lla_to_ecef(GeodeticPoint(origin.lat, origin.lon, origin.alt + 10.0))
        out = sensor_to_ned(above, ECEF_POSE, reg)
        assert out == pytest.approx([0.0, 0.0, -10.0], abs=1e-6)

    def test_isometry(self):
        rng = np.random.default_rng(7)
        reg = FrameRegistry(GeodeticPoint(34.05, -117.4, 350.0))
        base = lla_to_ecef(reg.ned_origin)
        for _ in range(50):
            a = base + rng.uniform(-100, 100, 3)
            b = base + rng.uniform(-100, 100, 3)
            d_ned = np.linalg.norm(
                sensor_to_ned(a, ECEF_POSE, reg) - sensor_to_ned(b, ECEF_POSE, reg)
            )
            assert d_ned == pytest.approx(np.linalg.norm(a - b), abs=1e-9)

    def test_ned_to_ecef_round_trip(self):
        # A sensor whose frame is NED has the pose NED -> ECEF; taking its
        # points to ECEF and back to NED changes nothing.
        origin = GeodeticPoint(34.05, -117.4, 350.0)
        reg = FrameRegistry(origin)
        ecef_from_ned = RigidTransform(ned_rotation(origin).rotation.T, lla_to_ecef(origin))
        p = np.array([12.0, -7.0, 3.0])
        assert sensor_to_ned(p, ecef_from_ned, reg) == pytest.approx(p, abs=1e-9)


class TestGcpRegistration:
    def synth_pairs(self, rng, n=10, translation_scale=1000.0, noise=0.0):
        rot = random_rotation(rng)
        trans = rng.uniform(-translation_scale, translation_scale, 3)
        src = rng.uniform(-40, 40, (n, 3))
        dst = src @ rot.T + trans
        if noise:
            dst = dst + rng.normal(0.0, noise, dst.shape)
        return src, dst, rot, trans

    def test_exact_recovery(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            src, dst, rot, trans = self.synth_pairs(rng)
            est, rmse = estimate_transform_from_gcps(src, dst)
            # Frobenius distance ~ sqrt(2) * angle for small rotations.
            assert np.linalg.norm(est.rotation - rot) < 1.5e-9
            assert np.linalg.norm(est.translation - trans) < 1e-9
            assert rmse < 1e-9

    def test_identity_correspondences(self):
        pts = np.array([(0.0, 0.0, 0.0), (10.0, 0.0, 0.0), (0.0, 10.0, 0.0)])
        est, rmse = estimate_transform_from_gcps(pts, pts)
        assert np.allclose(est.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(est.translation, 0.0, atol=1e-12)
        assert rmse == pytest.approx(0.0, abs=1e-12)

    def test_noisy_rmse_bound(self):
        # sigma = 0.05 m isotropic noise. The rmse is a per-point 3D
        # residual norm, so E[rmse] ~ sigma * sqrt((3N-6)/N) ~ 1.55 sigma
        # for N=10; individual trials fluctuate, the pooled rmse over the
        # 100 seeded trials must stay below 2 sigma.
        rng = np.random.default_rng(9)
        squares = []
        for _ in range(100):
            src, dst, _, _ = self.synth_pairs(rng, noise=0.05)
            _, rmse = estimate_transform_from_gcps(src, dst)
            assert rmse <= 0.15  # 3 sigma per-trial guard
            squares.append(rmse**2)
        pooled = math.sqrt(sum(squares) / len(squares))
        assert pooled <= 0.10

    def test_never_returns_reflection(self):
        # Near-planar configurations tempt the SVD into a reflection.
        rng = np.random.default_rng(10)
        for _ in range(25):
            rot = random_rotation(rng)
            trans = rng.uniform(-100, 100, 3)
            src = rng.uniform(-40, 40, (6, 3))
            src[:, 2] = 0.0  # exactly planar
            dst = src @ rot.T + trans
            est, rmse = estimate_transform_from_gcps(src, dst)
            assert np.linalg.det(est.rotation) == pytest.approx(1.0, abs=1e-9)
            assert rmse < 1e-9

    def test_insufficient_points(self):
        pts = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
        with pytest.raises(UserInputError, match="^need at least 3 GCP pairs, got 2$"):
            estimate_transform_from_gcps(pts, pts)

    def test_collinear_points(self):
        pts = np.array([(float(i), 0.0, 0.0) for i in range(5)])
        same = np.zeros((3, 3))  # coincident: both singular values are 0
        for src, dst in ((pts, pts), (same, pts[:3])):
            with pytest.raises(UserInputError, match="^sensor-side GCPs are collinear"):
                estimate_transform_from_gcps(src, dst)


class TestRegistry:
    def test_unregistered_frame(self):
        reg = FrameRegistry(GeodeticPoint(0.0, 0.0, 0.0))
        with pytest.raises(UserInputError, match="^sensor frame 'L9' is not registered$"):
            reg.transform_for("L9")

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        reg = FrameRegistry(GeodeticPoint(34.05, -117.4, 350.0))
        reg.register("L1", random_transform(rng, 1e6))
        reg.register("L2", random_transform(rng, 1e6))
        path = tmp_path / "registry.json"
        save_registry(reg, path)
        back = load_registry(path)
        assert back.ned_origin == reg.ned_origin
        for fid in ("L1", "L2"):
            assert np.array_equal(back.transform_for(fid).rotation, reg.transform_for(fid).rotation)
            assert np.array_equal(back.transform_for(fid).translation, reg.transform_for(fid).translation)

    def test_bad_registry_json(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text('{"frames": {}}')
        with pytest.raises(UserInputError, match="^bad frame registry document: 'ned_origin'$"):
            load_registry(path)

    @pytest.mark.parametrize("frames", ["[]", '"L1"', "null", '{"L1": []}',
                                        '{"L1": {"rotation": [1e999], "translation": []}}',
                                        '{"L1": {"rotation": [%d], "translation": []}}' % 10**400])
    def test_bad_frames_are_schema_errors(self, frames):
        origin = '{"lat": 34.05, "lon": -117.4, "alt": 350.0}'
        with pytest.raises(UserInputError, match="^bad frame registry document: "):
            registry_from_json(f'{{"ned_origin": {origin}, "frames": {frames}}}')


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_mode_is_that_of_a_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "text", "a")
            with atomic_text_writer(tmp_path / "stream") as fh:
                fh.write("b")
            with open(tmp_path / "plain", "w") as fh:
                fh.write("c")
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(("text", "stream", "plain"), 0o666 & ~umask)

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o664, 0o444], ids=oct)
    def test_existing_file_keeps_its_mode(self, tmp_path, mode):
        old = os.umask(0o022)
        try:
            for name in ("text", "stream", "plain"):
                (tmp_path / name).write_text("old")
                (tmp_path / name).chmod(mode)
            atomic_write_text(tmp_path / "text", "a")
            with atomic_text_writer(tmp_path / "stream") as fh:
                fh.write("b")
            if mode & 0o200:
                with open(tmp_path / "plain", "w") as fh:
                    fh.write("c")
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(("text", "stream", "plain"), mode)
        assert (tmp_path / "stream").read_text() == "b"

    def test_replaces_only_when_the_block_succeeds(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_text_writer(path) as fh:
                fh.write("partial")
                raise RuntimeError("writer failed")
        assert path.read_text() == "old"
        with atomic_text_writer(path) as fh:
            fh.write("new ")
            fh.write("text")
        assert path.read_text() == "new text"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestGcpCsv:
    def test_load_grouped_by_frame(self, tmp_path):
        path = tmp_path / "gcps.csv"
        path.write_text(
            "frame_id,sx,sy,sz,lat,lon,alt\n"
            "L1,1.0,2.0,0.5,34.05,-117.4,350.0\n"
            "L2,0.0,1.0,0.0,34.051,-117.401,351.0\n"
            "L1,-3.0,4.0,0.2,34.0502,-117.4001,350.4\n"
        )
        groups = load_gcp_csv(path)
        assert sorted(groups) == ["L1", "L2"]
        src, ecef = groups["L1"]
        assert src.shape == ecef.shape == (2, 3)
        assert src.tolist() == [[1.0, 2.0, 0.5], [-3.0, 4.0, 0.2]]
        assert ecef[0].tolist() == lla_to_ecef(GeodeticPoint(34.05, -117.4, 350.0)).tolist()
        assert ecef[1].tolist() == lla_to_ecef(GeodeticPoint(34.0502, -117.4001, 350.4)).tolist()

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "gcps.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(UserInputError, match="^GCP file must start with header frame_id,"):
            load_gcp_csv(path)

    def test_rejects_bad_row(self, tmp_path):
        path = tmp_path / "gcps.csv"
        path.write_text("frame_id,sx,sy,sz,lat,lon,alt\nL1,x,0,0,0,0,0\n")
        with pytest.raises(UserInputError, match="^GCP file line 2: could not convert"):
            load_gcp_csv(path)

    @pytest.mark.parametrize("row", ["L1,nan,0,0,34,-117,0", "L1,0,inf,0,34,-117,0",
                                     "L1,0,0,0,95,-117,0", "L1,0,0,0,34,-181,0",
                                     "L1,0,0,0,34,-117,nan", "L1,1e308,0,0,34,-117,0",
                                     "L1,0,0,0,34,-117,1e308"])
    def test_rejects_bad_values_with_line_number(self, tmp_path, row):
        path = tmp_path / "gcps.csv"
        path.write_text(f"frame_id,sx,sy,sz,lat,lon,alt\nL1,1,2,3,34,-117,0\n{row}\n")
        with pytest.raises(UserInputError, match="^GCP file line 3: "):
            load_gcp_csv(path)


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)
