"""Coordinate frames and rigid transforms.

Frames used throughout the package:

* geodetic: WGS84 latitude/longitude in degrees, ellipsoidal height in m
* ECEF: Earth-centered Earth-fixed Cartesian, meters
* NED: local north-east-down tangent frame anchored at a declared origin
* sensor: a LiDAR's own Cartesian frame, identified by ``frame_id``

A sensor's pose is a rigid transform sensor->ECEF estimated from surveyed
ground-control-point pairs. Detections travel sensor -> ECEF -> NED; all
intersection geometry lives in NED.

Points are float64 arrays: one point is a (3,) array, many are (n, 3).
The two exceptions are :class:`GeodeticPoint`, which validates geodetic
user input, and :class:`NedPoint`, the centre of a zone.

The point and transform types are immutable after construction.
:class:`FrameRegistry` is not: ``register`` adds or replaces a sensor's
pose, which is how ``georef`` updates a loaded registry in place. Apart
from the file readers and the atomic writers, the functions here are
pure.
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
from typing import IO, Iterator

import numpy as np

from .errors import UserInputError, json_number

# WGS84 ellipsoid
WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

TAU = 2.0 * math.pi

ORTHONORMALITY_TOL = 1e-9
COLLINEARITY_RTOL = 1e-6

GCP_CSV_HEADER = ("frame_id", "sx", "sy", "sz", "lat", "lon", "alt")
# No surveyed GCP or detected box lies further from its sensor, and no GCP
# from the ellipsoid; the bound keeps the pose solve and NED clear of overflow.
MAX_COORDINATE_M = 1e7


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

    @classmethod
    def from_obj(cls, obj) -> "GeodeticPoint":
        """The point of a decoded JSON ``{"lat", "lon", "alt"}`` object."""
        return cls(json_number(obj["lat"]), json_number(obj["lon"]), json_number(obj["alt"]))

    def to_obj(self) -> dict:
        """The JSON object that :meth:`from_obj` reads."""
        return {"lat": self.lat, "lon": self.lon, "alt": self.alt}


@dataclass(frozen=True)
class NedPoint:
    """North-east-down point relative to the declared NED origin, meters."""

    north: float
    east: float
    down: float

    def __post_init__(self):
        _require_finite("NED coordinate", self.north, self.east, self.down)


def _as_rotation(m) -> np.ndarray:
    r = np.asarray(m, dtype=np.float64)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    # No entry of an orthonormal matrix exceeds 1 in magnitude; checked
    # first, so the product below cannot overflow.
    if not np.all(np.abs(r) <= 1.0 + ORTHONORMALITY_TOL):
        raise ValueError("rotation entries must be finite and within [-1, 1]")
    if not np.allclose(r.T @ r, np.eye(3), atol=ORTHONORMALITY_TOL, rtol=0.0):
        raise ValueError("rotation is not orthonormal within 1e-9")
    if abs(np.linalg.det(r) - 1.0) > ORTHONORMALITY_TOL:
        raise ValueError("rotation determinant is not +1 within 1e-9 (reflection?)")
    r.flags.writeable = False
    return r


@dataclass(frozen=True)
class RigidTransform:
    """Rotation + translation; maps p -> R @ p + t."""

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


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """The transform that applies ``b`` first, then ``a``."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def lla_to_ecef(p: GeodeticPoint) -> np.ndarray:
    """Closed-form WGS84 geodetic -> ECEF conversion, as a (3,) array."""
    lat = math.radians(p.lat)
    lon = math.radians(p.lon)
    sin_lat = math.sin(lat)
    cos_lat = math.cos(lat)
    n = WGS84_A / math.sqrt(1.0 - WGS84_E2 * sin_lat * sin_lat)
    x = (n + p.alt) * cos_lat * math.cos(lon)
    y = (n + p.alt) * cos_lat * math.sin(lon)
    z = (n * (1.0 - WGS84_E2) + p.alt) * sin_lat
    return np.array([x, y, z])


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

    Transforms may be re-registered (e.g. after a better calibration) but
    all must satisfy the rotation invariants, which
    :class:`RigidTransform` enforces on construction.
    """

    def __init__(self, ned_origin: GeodeticPoint):
        self._frames: dict[str, RigidTransform] = {}
        self._ned_origin = ned_origin
        self._origin_ecef = lla_to_ecef(ned_origin)
        self._ned_rot = ned_rotation(ned_origin)

    @property
    def ned_origin(self) -> GeodeticPoint:
        return self._ned_origin

    @property
    def frame_ids(self) -> tuple[str, ...]:
        return tuple(self._frames)

    def register(self, frame_id: str, transform: RigidTransform) -> None:
        """Add or replace a sensor's pose, at most :data:`MAX_COORDINATE_M` from the NED origin."""
        distance = math.dist(transform.translation, self._origin_ecef)  # never overflows
        if not distance <= MAX_COORDINATE_M:
            raise UserInputError(f"sensor frame {frame_id!r} lies {distance:g} m from the NED "
                                 f"origin, more than {MAX_COORDINATE_M:g} m")
        self._frames[frame_id] = transform

    def transform_for(self, frame_id: str) -> RigidTransform:
        try:
            return self._frames[frame_id]
        except KeyError:
            raise UserInputError(f"sensor frame {frame_id!r} is not registered") from None

    def ned_rotation(self) -> RigidTransform:
        return self._ned_rot

    def origin_ecef(self) -> np.ndarray:
        return self._origin_ecef

    def ned_pose(self, frame_id: str) -> tuple[np.ndarray, np.ndarray, float]:
        """A sensor's composed sensor -> NED rotation and translation, and
        the yaw correction (the rotation's yaw) its headings turn by."""
        t = self.transform_for(frame_id)
        ned_rot = self._ned_rot.rotation
        rot = ned_rot @ t.rotation
        trans = ned_rot @ (t.translation - self._origin_ecef)
        return rot, trans, math.atan2(rot[1, 0], rot[0, 0])


def estimate_transform_from_gcps(
    src: np.ndarray, dst: np.ndarray
) -> tuple[RigidTransform, float]:
    """Least-squares rigid registration of (n, 3) sensor points ``src``
    onto the (n, 3) ECEF points ``dst`` paired with them row by row.

    Centroid alignment plus SVD of the cross-covariance, with the usual
    sign correction so the result is a proper rotation (never a
    reflection). Returns the transform and the RMS residual in meters.

    Needs at least 3 pairs whose sensor-side points are not collinear:
    with the centroid removed the sensor points must span a plane, i.e.
    the second singular value must clear ``COLLINEARITY_RTOL`` times the
    largest, which coincident points (both values 0) do not.
    """
    if len(src) < 3:
        raise UserInputError(
            f"need at least 3 GCP pairs, got {len(src)}"
        )
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    src0 = src - c_src
    dst0 = dst - c_dst
    sv = np.linalg.svd(src0, compute_uv=False)
    if not sv[1] > COLLINEARITY_RTOL * sv[0]:
        raise UserInputError("sensor-side GCPs are collinear within tolerance")
    h = src0.T @ dst0
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    trans = c_dst - rot @ c_src
    residuals = src @ rot.T + trans - dst
    rmse = float(np.sqrt(np.mean(np.sum(residuals**2, axis=1))))
    return RigidTransform(rot, trans), rmse


def load_gcp_csv(path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Load GCP correspondences grouped by sensor frame id.

    Expected header: ``frame_id,sx,sy,sz,lat,lon,alt``. Each frame id maps
    to its (n, 3) sensor points and the (n, 3) ECEF points of their
    geodetic side, in file order. A row whose geodetic side is not a valid
    :class:`GeodeticPoint`, or whose sensor coordinates or altitude are
    not within :data:`MAX_COORDINATE_M` of zero, is a
    :class:`~lidartmc.errors.UserInputError`.
    """
    out: dict[str, tuple[list, list]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for i, row in csv_rows(fh, GCP_CSV_HEADER, "GCP file"):
            if len(row) != 7:
                raise UserInputError(f"GCP file line {i}: expected 7 fields, got {len(row)}")
            try:
                sensor = [float(v) for v in row[1:4]]
                geodetic = GeodeticPoint(*(float(v) for v in row[4:]))
                if not all(abs(v) <= MAX_COORDINATE_M for v in (*sensor, geodetic.alt)):
                    raise ValueError("sensor coordinates and alt must be finite and within "
                                     f"{MAX_COORDINATE_M:g} m of zero")
            except ValueError as exc:
                raise UserInputError(f"GCP file line {i}: {exc}") from None
            src, dst = out.setdefault(row[0].strip(), ([], []))
            src.append(sensor)
            dst.append(lla_to_ecef(geodetic))
    return {fid: (np.array(src), np.array(dst)) for fid, (src, dst) in out.items()}


def csv_rows(fh, header: tuple[str, ...], what: str) -> Iterator[tuple[int, list[str]]]:
    """The line number and fields of each non-blank row of the open CSV file
    ``fh`` after its ``header`` line. Another first line, or a field past the
    ``csv`` module's size limit, is a ``UserInputError`` naming ``what``."""
    reader = csv.reader(fh)
    try:
        first = next(reader, None)
        if first is None or tuple(h.strip() for h in first) != header:
            raise UserInputError(f"{what} must start with header {','.join(header)}")
        for i, row in enumerate(reader, start=2):
            if row and (len(row) > 1 or row[0].strip()):
                yield i, row
    except csv.Error as exc:
        raise UserInputError(f"{what} line {reader.line_num}: {exc}") from None


def load_json_document(path, what: str, from_obj):
    """``from_obj`` of the JSON document in the file at ``path``. Text that is
    not JSON, or a document nested too deeply to decode or to quote in a
    reason, is a ``UserInputError`` naming ``what``."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        try:
            doc = json.loads(text)
        except ValueError as exc:  # not JSON, or an integer past the decoder's digit limit
            raise UserInputError(f"{what} is not valid JSON: {exc}") from None
        return from_obj(doc)
    except RecursionError as exc:
        raise UserInputError(f"{what} is nested too deeply: {exc}") from None


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
    doc = {
        "ned_origin": registry.ned_origin.to_obj(),
        "frames": {
            fid: {
                "rotation": [float(v) for v in registry.transform_for(fid).rotation.ravel()],
                "translation": [float(v) for v in registry.transform_for(fid).translation],
            }
            for fid in sorted(registry.frame_ids)
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def registry_from_obj(doc) -> FrameRegistry:
    try:
        registry = FrameRegistry(GeodeticPoint.from_obj(doc["ned_origin"]))
        frames = doc["frames"]
        if not isinstance(frames, dict):
            raise TypeError(f"frames must be an object, got {type(frames).__name__}")
        for fid, entry in frames.items():
            rot = np.array([json_number(v) for v in entry["rotation"]]).reshape(3, 3)
            trans = np.array([json_number(v) for v in entry["translation"]])
            registry.register(fid, RigidTransform(rot, trans))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UserInputError(f"bad frame registry document: {exc}") from None
    return registry


def save_registry(registry: FrameRegistry, path) -> None:
    atomic_write_text(path, registry_to_json(registry))


def load_registry(path) -> FrameRegistry:
    return load_json_document(path, "registry", registry_from_obj)
