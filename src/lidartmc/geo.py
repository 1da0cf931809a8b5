"""Coordinate frames and rigid transforms.

Frames used throughout the package:

* geodetic: WGS84 latitude/longitude in degrees, ellipsoidal height in m
* ECEF: Earth-centered Earth-fixed Cartesian, meters
* NED: local north-east-down tangent frame anchored at a declared origin
* sensor: a LiDAR's own Cartesian frame, identified by ``frame_id``

A sensor's pose is a rigid transform sensor->ECEF estimated from surveyed
ground-control-point pairs. Detections travel sensor -> ECEF -> NED; all
intersection geometry lives in NED.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads/processes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import (
    CollinearPointsError,
    DegenerateOriginError,
    InsufficientPointsError,
    OriginAlreadySetError,
    OriginUnsetError,
    SchemaError,
    UnregisteredFrameError,
)

# WGS84 ellipsoid
WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_B = WGS84_A * (1.0 - WGS84_F)
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

TAU = 2.0 * math.pi

ORTHONORMALITY_TOL = 1e-9
COLLINEARITY_RTOL = 1e-6

GCP_CSV_HEADER = ("frame_id", "sx", "sy", "sz", "lat", "lon", "alt")


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = math.remainder(theta, TAU)
    if r <= -math.pi:
        r += TAU
    return r


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` over an array of finite angles, bit for bit.

    Within one turn of the range a single exact step of 2*pi is the IEEE
    remainder; the rare angles further out take the scalar path.
    """
    out = np.where(theta > math.pi, theta - TAU, theta)
    out = np.where(out <= -math.pi, out + TAU, out)
    far = np.flatnonzero(np.abs(theta) >= TAU)
    if far.size:
        out[far] = [wrap_angle(v) for v in theta[far].tolist()]
    return out


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class GeodeticPoint:
    """WGS84 geodetic coordinates: degrees, degrees, meters above ellipsoid."""

    lat: float
    lon: float
    alt: float

    def __post_init__(self):
        _require_finite("geodetic coordinate", self.lat, self.lon, self.alt)
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"lat {self.lat} outside [-90, 90]")
        if not -180.0 < self.lon <= 180.0:
            raise ValueError(f"lon {self.lon} outside (-180, 180]")


@dataclass(frozen=True)
class EcefPoint:
    """Earth-centered Earth-fixed Cartesian point, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite("ECEF coordinate", self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class NedPoint:
    """North-east-down point relative to the declared NED origin, meters."""

    north: float
    east: float
    down: float

    def __post_init__(self):
        _require_finite("NED coordinate", self.north, self.east, self.down)

    def as_array(self) -> np.ndarray:
        return np.array([self.north, self.east, self.down])


@dataclass(frozen=True)
class SensorPoint:
    """Point in a LiDAR sensor frame, tagged with the sensor's frame id."""

    x: float
    y: float
    z: float
    frame_id: str

    def __post_init__(self):
        _require_finite("sensor coordinate", self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def _as_rotation(m) -> np.ndarray:
    r = np.asarray(m, dtype=np.float64)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    if not np.allclose(r.T @ r, np.eye(3), atol=ORTHONORMALITY_TOL, rtol=0.0):
        raise ValueError("rotation is not orthonormal within 1e-9")
    if abs(np.linalg.det(r) - 1.0) > ORTHONORMALITY_TOL:
        raise ValueError("rotation determinant is not +1 within 1e-9 (reflection?)")
    r.flags.writeable = False
    return r


@dataclass(frozen=True)
class RigidTransform:
    """Rotation + translation; maps p -> R @ p + t.

    The 4x4 homogeneous form is derived on demand via :meth:`matrix`.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_rotation(self.rotation))
        t = np.asarray(self.translation, dtype=np.float64)
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        t.flags.writeable = False
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to one (3,) point or an (n, 3) batch."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def matrix(self) -> np.ndarray:
        """The 4x4 homogeneous matrix form."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def yaw(self) -> float:
        """Rotation of the horizontal plane about the third axis."""
        return math.atan2(self.rotation[1, 0], self.rotation[0, 0])


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """compose(a, b).apply(p) == a.apply(b.apply(p))."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    return RigidTransform(t.rotation.T, -(t.rotation.T @ t.translation))


def lla_to_ecef(p: GeodeticPoint) -> EcefPoint:
    """Closed-form WGS84 geodetic -> ECEF conversion."""
    lat = math.radians(p.lat)
    lon = math.radians(p.lon)
    sin_lat = math.sin(lat)
    cos_lat = math.cos(lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    x = (n + p.alt) * cos_lat * math.cos(lon)
    y = (n + p.alt) * cos_lat * math.sin(lon)
    z = (n * (1.0 - WGS84_E2) + p.alt) * sin_lat
    return EcefPoint(x, y, z)


def ecef_to_lla(p: EcefPoint) -> GeodeticPoint:
    """ECEF -> WGS84 geodetic, Bowring start + fixed-point refinement.

    Accurate to well under 1e-6 m for any point near the Earth's surface.
    Longitude at the poles is 0 by convention.
    """
    x, y, z = p.x, p.y, p.z
    if math.sqrt(x * x + y * y + z * z) < 1e-3:
        raise DegenerateOriginError("point is at the Earth's center")
    rho = math.hypot(x, y)
    if rho < 1e-9:
        # On the polar axis; latitude sign follows z.
        lat = math.copysign(90.0, z)
        return GeodeticPoint(lat, 0.0, abs(z) - WGS84_B)
    lon = math.atan2(y, x)
    # Bowring's parametric-latitude initial guess.
    ep2 = (WGS84_A * WGS84_A - WGS84_B * WGS84_B) / (WGS84_B * WGS84_B)
    theta = math.atan2(z * WGS84_A, rho * WGS84_B)
    st, ct = math.sin(theta), math.cos(theta)
    lat = math.atan2(z + ep2 * WGS84_B * st**3, rho - WGS84_E2 * WGS84_A * ct**3)
    alt = 0.0
    for _ in range(8):
        sin_lat = math.sin(lat)
        n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
        alt = rho / math.cos(lat) - n
        new_lat = math.atan2(z, rho * (1.0 - WGS84_E2 * n / (n + alt)))
        if abs(new_lat - lat) < 1e-14:
            lat = new_lat
            break
        lat = new_lat
    return GeodeticPoint(math.degrees(lat), math.degrees(lon), alt)


def sensor_to_ecef(p: SensorPoint, t: RigidTransform) -> EcefPoint:
    """Map a sensor-frame point into ECEF with the sensor's pose."""
    out = t.apply(p.as_array())
    return EcefPoint(out[0], out[1], out[2])


def ned_rotation(origin: GeodeticPoint) -> RigidTransform:
    """Rotation-only transform taking ECEF directions into NED at ``origin``.

    Rows are the north, east, and down unit vectors expressed in ECEF.
    """
    lat = math.radians(origin.lat)
    lon = math.radians(origin.lon)
    sp, cp = math.sin(lat), math.cos(lat)
    sl, cl = math.sin(lon), math.cos(lon)
    r = np.array(
        [
            [-sp * cl, -sp * sl, cp],
            [-sl, cl, 0.0],
            [-cp * cl, -cp * sl, -sp],
        ]
    )
    return RigidTransform(r, np.zeros(3))


class FrameRegistry:
    """Registered sensor poses (sensor -> ECEF) plus the NED origin.

    The origin may be set exactly once; transforms may be re-registered
    (e.g. after a better calibration) but all must satisfy the rotation
    invariants, which :class:`RigidTransform` enforces on construction.
    """

    def __init__(self, ned_origin: GeodeticPoint | None = None):
        self._frames: dict[str, RigidTransform] = {}
        self._ned_origin: GeodeticPoint | None = None
        self._origin_ecef: np.ndarray | None = None
        self._ned_rot: RigidTransform | None = None
        if ned_origin is not None:
            self.set_ned_origin(ned_origin)

    @property
    def ned_origin(self) -> GeodeticPoint | None:
        return self._ned_origin

    @property
    def frame_ids(self) -> tuple[str, ...]:
        return tuple(self._frames)

    def set_ned_origin(self, origin: GeodeticPoint) -> None:
        if self._ned_origin is not None:
            raise OriginAlreadySetError("NED origin is already set for this registry")
        self._ned_origin = origin
        self._origin_ecef = lla_to_ecef(origin).as_array()
        self._ned_rot = ned_rotation(origin)

    def register(self, frame_id: str, transform: RigidTransform) -> None:
        self._frames[frame_id] = transform

    def transform_for(self, frame_id: str) -> RigidTransform:
        try:
            return self._frames[frame_id]
        except KeyError:
            raise UnregisteredFrameError(frame_id) from None

    def ned_rotation(self) -> RigidTransform:
        if self._ned_rot is None:
            raise OriginUnsetError("NED origin has not been set")
        return self._ned_rot

    def origin_ecef(self) -> np.ndarray:
        if self._origin_ecef is None:
            raise OriginUnsetError("NED origin has not been set")
        return self._origin_ecef

    def sensor_to_ecef(self, p: SensorPoint) -> EcefPoint:
        return sensor_to_ecef(p, self.transform_for(p.frame_id))


def ecef_to_ned(p: EcefPoint, registry: FrameRegistry) -> NedPoint:
    """P_ned = R_ne @ (P_ecef - origin_ecef)."""
    rot = registry.ned_rotation()
    out = rot.rotation @ (p.as_array() - registry.origin_ecef())
    return NedPoint(out[0], out[1], out[2])


def ned_to_ecef(p: NedPoint, registry: FrameRegistry) -> EcefPoint:
    """Inverse of :func:`ecef_to_ned`."""
    rot = registry.ned_rotation()
    out = rot.rotation.T @ p.as_array() + registry.origin_ecef()
    return EcefPoint(out[0], out[1], out[2])


def estimate_transform_from_gcps(
    pairs: Sequence[tuple[SensorPoint, EcefPoint]],
) -> tuple[RigidTransform, float]:
    """Least-squares rigid registration of sensor points onto ECEF points.

    Centroid alignment plus SVD of the cross-covariance, with the usual
    sign correction so the result is a proper rotation (never a
    reflection). Returns the transform and the RMS residual in meters.

    Needs at least 3 pairs whose sensor-side points are not collinear:
    with the centroid removed the sensor points must span a plane, i.e.
    the second singular value must clear ``COLLINEARITY_RTOL`` times the
    largest.
    """
    if len(pairs) < 3:
        raise InsufficientPointsError(
            f"need at least 3 GCP pairs, got {len(pairs)}"
        )
    src = np.array([[s.x, s.y, s.z] for s, _ in pairs])
    dst = np.array([[e.x, e.y, e.z] for _, e in pairs])
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    src0 = src - c_src
    dst0 = dst - c_dst
    sv = np.linalg.svd(src0, compute_uv=False)
    if sv[1] < COLLINEARITY_RTOL * sv[0]:
        raise CollinearPointsError("sensor-side GCPs are collinear within tolerance")
    h = src0.T @ dst0
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    trans = c_dst - rot @ c_src
    residuals = src @ rot.T + trans - dst
    rmse = float(np.sqrt(np.mean(np.sum(residuals**2, axis=1))))
    return RigidTransform(rot, trans), rmse


def load_gcp_csv(path) -> dict[str, list[tuple[SensorPoint, EcefPoint]]]:
    """Load GCP correspondences grouped by sensor frame id.

    Expected header: ``frame_id,sx,sy,sz,lat,lon,alt``. The geodetic side
    is converted to ECEF on load.
    """
    out: dict[str, list[tuple[SensorPoint, EcefPoint]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != GCP_CSV_HEADER:
            raise SchemaError(
                f"GCP file must start with header {','.join(GCP_CSV_HEADER)}"
            )
        for i, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 7:
                raise SchemaError(f"GCP file line {i}: expected 7 fields, got {len(row)}")
            try:
                frame_id = row[0].strip()
                sx, sy, sz, lat, lon, alt = (float(v) for v in row[1:])
            except ValueError as exc:
                raise SchemaError(f"GCP file line {i}: {exc}") from None
            sensor = SensorPoint(sx, sy, sz, frame_id)
            ecef = lla_to_ecef(GeodeticPoint(lat, lon, alt))
            out.setdefault(frame_id, []).append((sensor, ecef))
    return out


@contextmanager
def atomic_text_writer(path) -> Iterator[IO[str]]:
    """A UTF-8 text file that replaces ``path`` when the block ends.

    Writes go to a temp file in the same directory, renamed over ``path``
    only if the block raises nothing, so partial writes never land. The
    file ends with the mode a plain ``open(path, "w")`` would leave: that
    of the file it replaces, else 0o666 less the umask.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            with suppress(FileNotFoundError):
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`atomic_text_writer`."""
    with atomic_text_writer(path) as fh:
        fh.write(text)


def registry_to_json(registry: FrameRegistry) -> str:
    if registry.ned_origin is None:
        raise OriginUnsetError("cannot serialize a registry without a NED origin")
    origin = registry.ned_origin
    doc = {
        "ned_origin": {"lat": origin.lat, "lon": origin.lon, "alt": origin.alt},
        "frames": {
            fid: {
                "rotation": [float(v) for v in registry.transform_for(fid).rotation.ravel()],
                "translation": [float(v) for v in registry.transform_for(fid).translation],
            }
            for fid in sorted(registry.frame_ids)
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def registry_from_json(text: str) -> FrameRegistry:
    try:
        doc = json.loads(text)
        origin = doc["ned_origin"]
        registry = FrameRegistry(
            GeodeticPoint(origin["lat"], origin["lon"], origin["alt"])
        )
        for fid, entry in doc["frames"].items():
            rot = np.array(entry["rotation"], dtype=np.float64).reshape(3, 3)
            trans = np.array(entry["translation"], dtype=np.float64)
            registry.register(fid, RigidTransform(rot, trans))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise SchemaError(f"bad frame registry document: {exc}") from None
    return registry


def save_registry(registry: FrameRegistry, path) -> None:
    atomic_write_text(path, registry_to_json(registry))


def load_registry(path) -> FrameRegistry:
    with open(path, encoding="utf-8") as fh:
        return registry_from_json(fh.read())
