"""Seeded workload generator for the lidartmc benchmark.

It imports nothing from ``lidartmc``: the reference intersection is read
as data from the packaged JSON, and every output is written in one of
the documented file formats (detection JSON lines, registry JSON, config
JSON, script JSON, count-table CSV). A change to the simulator or to the
package's record types therefore cannot change the benchmark's inputs.

Traffic is built to be countable exactly, with the same rules the
package's own random oracle uses:

* per zone, the gap from one vehicle's exit to the next one's entry is at
  least ``MIN_GAP_S`` (above the 2.0 s right-turn headway split);
* a crossing of a phase-gated zone lies inside one phase that permits
  its movement, ``WINDOW_LEAD_S`` after the phase starts and
  ``WINDOW_TAIL_S`` before it ends (right turns are never gated);
* every bin boundary is ``BIN_CLEAR_S`` clear of ``[entry, entry +
  residence]``, so the first trigger, one frame late at most, bins like
  the entry;
* clutter and pedestrians stay ``CLUTTER_MARGIN_M`` outside every zone.

Under those rules the expected table is the tally of the vehicles by
entry time; it is written next to the logs as ``gt.csv``.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_CONFIG = Path("src/lidartmc/data/reference_intersection.json")

APPROACHES = ("NB", "SB", "EB", "WB")
MOVEMENTS = ("Left", "Thru", "Right", "UTurn")
# Length classes of the default class table: [lower, upper) metres.
CLASS_BOUNDS = ((0.0, 1.0), (1.0, 2.2), (2.2, 5.0), (5.0, 7.0), (7.0, 12.0), (12.0, 22.0))
VEHICLE_CLASS_WEIGHTS = {2: 0.05, 3: 0.6, 4: 0.2, 5: 0.1, 6: 0.05}
CLASS_WIDTH = {2: 0.8, 3: 1.9, 4: 2.0, 5: 2.6, 6: 2.6}
CLASS_HEIGHT = {2: 1.6, 3: 1.5, 4: 1.9, 5: 3.3, 6: 3.9}

CYCLE_S = 100.0
BIN_S = 300.0
FRAME_RATE_HZ = 4.0
PATH_LEAD_M = 10.0
VISIBILITY_M = 40.0
SPEED_RANGE_MPS = (6.0, 16.0)
MIN_GAP_S = 2.1
GAP_RANGE_S = (2.12, 2.6)  # drawn exit-to-entry gap: just over MIN_GAP_S
WINDOW_LEAD_S = 0.05
WINDOW_TAIL_S = 0.4
SESSION_EDGE_S = 0.5
BIN_CLEAR_S = 0.5
CLUTTER_MARGIN_M = 1.0
BAD_LINE_FRAC = 0.01

# (frame_id, north, east, height, yaw, tick phase): two corner sensors.
SENSORS = (
    ("L1", 12.0, -12.0, 4.7, 2.0, 0.0),
    ("L2", -12.0, 12.0, 4.7, -1.2, 0.125),
)

# WGS84, for the registry's sensor -> ECEF poses.
_WGS84_A = 6378137.0
_WGS84_E2 = (1.0 / 298.257223563) * (2.0 - 1.0 / 298.257223563)


@dataclass(frozen=True)
class Spec:
    """What one workload generates."""

    command: str  # "estimate" or "simulate"
    cycles: int  # signal cycles per session (100 s each)
    clutter: int = 0  # static clutter objects
    pedestrians_per_min: float = 0.0
    gzip: bool = False
    bad_lines: bool = False
    scripts: int = 0  # simulate: number of scripts


# queue: vehicle-only saturated traffic, plain clean logs.
# field: the same traffic rules plus clutter and pedestrians at about 30
#   detections per frame, gzip logs with about 1% skippable bad lines.
# simulate: twelve 300 s dense scripts for `lidartmc simulate --script`.
# Sessions are 20 and 5 minutes rather than an hour so that one run of the
# benchmark holds a dozen or more CLI calls: on a small shared machine the
# median of that many is what keeps run-to-run spread inside the bounds.
WORKLOADS = {
    "queue": Spec("estimate", cycles=12),
    "field": Spec("estimate", cycles=3, clutter=18, pedestrians_per_min=24.0,
                  gzip=True, bad_lines=True),
    "simulate": Spec("simulate", cycles=3, scripts=12),
}


# --- reference intersection -------------------------------------------------


def load_reference(root: Path) -> dict:
    with open(root / REFERENCE_CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


def extend_schedule(doc: dict, cycles: int) -> dict:
    """The reference config with its first 100 s cycle repeated ``cycles`` times."""
    first = [iv for iv in doc["schedule"] if iv["end"] <= CYCLE_S]
    schedule = [
        {"start": iv["start"] + c * CYCLE_S, "end": iv["end"] + c * CYCLE_S,
         "permitted": iv["permitted"]}
        for c in range(cycles)
        for iv in first
    ]
    return {**doc, "schedule": schedule}


@dataclass(frozen=True)
class Zone:
    id: str
    kind: str
    north: float
    east: float
    half_length: float
    half_width: float
    yaw: float
    bindings: tuple[tuple[str, str], ...]

    def contains(self, n, e, margin: float = 0.0):
        """Boundary-inclusive containment, grown by ``margin`` on every side."""
        dn = np.asarray(n) - self.north
        de = np.asarray(e) - self.east
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        u = dn * c + de * s
        v = -dn * s + de * c
        return (np.abs(u) <= self.half_length + margin) & (np.abs(v) <= self.half_width + margin)


def zones_of(doc: dict) -> list[Zone]:
    return [
        Zone(z["id"], z["kind"], float(z["center"][0]), float(z["center"][1]),
             float(z["half_length"]), float(z["half_width"]), float(z["yaw"]),
             tuple((a, m) for a, m in z["bindings"]))
        for z in doc["zones"]
    ]


def countable_targets(zones: list[Zone]) -> list[tuple[Zone, tuple[str, str]]]:
    """(zone, binding) pairs that are counted: ingress zones by their first
    binding, single right-turn egress zones (surrogates) by theirs."""
    out = [(z, z.bindings[0]) for z in zones if z.kind == "Ingress"]
    out += [
        (z, z.bindings[0])
        for z in zones
        if z.kind == "Egress" and len(z.bindings) == 1 and z.bindings[0][1] == "Right"
    ]
    return out


def permitted_windows(doc: dict, binding, session) -> list[tuple[float, float]]:
    if binding[1] == "Right":
        return [session]
    return [
        (float(iv["start"]), float(iv["end"]))
        for iv in doc["schedule"]
        if [binding[0], binding[1]] in iv["permitted"]
    ]


# --- traffic ----------------------------------------------------------------


@dataclass(frozen=True)
class Vehicle:
    zone_id: str
    approach: str
    movement: str
    vehicle_class: int
    entry: float  # the centre crosses into the zone
    speed: float
    length: float

    def residence(self, zone: Zone) -> float:
        return 2.0 * zone.half_length / self.speed


def bin_clash(entry: float, residence: float, t0: float) -> float | None:
    """The first bin boundary within ``BIN_CLEAR_S`` of ``[entry, entry + residence]``."""
    k = math.floor((entry - BIN_CLEAR_S - t0) / BIN_S) + 1
    b = t0 + k * BIN_S
    return b if b < entry + residence + BIN_CLEAR_S else None


def schedule_traffic(doc: dict, session, rng: np.random.Generator) -> list[Vehicle]:
    """Fill every countable zone near saturation, phase by phase."""
    t0, t1 = session
    classes = list(VEHICLE_CLASS_WEIGHTS)
    weights = np.array(list(VEHICLE_CLASS_WEIGHTS.values()))
    vehicles: list[Vehicle] = []
    for zone, (approach, movement) in countable_targets(zones_of(doc)):
        last_exit = -math.inf
        for w0, w1 in permitted_windows(doc, (approach, movement), session):
            earliest = max(w0 + WINDOW_LEAD_S, t0 + SESSION_EDGE_S)
            latest = min(w1 - WINDOW_TAIL_S, t1 - SESSION_EDGE_S)
            while True:
                speed = round(float(rng.uniform(*SPEED_RANGE_MPS)), 3)
                residence = 2.0 * zone.half_length / speed
                gap = float(rng.uniform(*GAP_RANGE_S))
                entry = round(max(earliest, last_exit + gap), 4)
                clash = bin_clash(entry, residence, t0)
                if clash is not None:
                    entry = round(clash + BIN_CLEAR_S + float(rng.uniform(0.01, 0.3)), 4)
                if entry + residence > latest:
                    break
                cls = int(rng.choice(classes, p=weights))
                lo, hi = CLASS_BOUNDS[cls - 1]
                length = round(float(rng.uniform(lo + 0.05, hi - 0.05)), 2)
                vehicles.append(Vehicle(zone.id, approach, movement, cls, entry, speed, length))
                last_exit = entry + residence
    vehicles.sort(key=lambda v: (v.entry, v.zone_id))
    return vehicles


def tally(vehicles, session, n_classes: int = len(CLASS_BOUNDS)) -> np.ndarray:
    """Expected counts, shape (bins, approaches, movements, classes)."""
    t0, t1 = session
    n_bins = int(math.ceil((t1 - t0) / BIN_S - 1e-9))
    counts = np.zeros((n_bins, len(APPROACHES), len(MOVEMENTS), n_classes), dtype=np.int64)
    for v in vehicles:
        b = int(math.floor((v.entry - t0) / BIN_S))
        counts[b, APPROACHES.index(v.approach), MOVEMENTS.index(v.movement),
               v.vehicle_class - 1] += 1
    return counts


def table_csv(counts: np.ndarray, t0: float) -> str:
    """The documented count-table CSV, full grid including zero rows."""
    lines = ["bin_start,approach,class,left,thru,right,uturn"]
    for b in range(counts.shape[0]):
        for a_i, a in enumerate(APPROACHES):
            for c in range(counts.shape[3]):
                row = counts[b, a_i, :, c]
                lines.append(f"{t0 + b * BIN_S!r},{a},{c + 1},{row[0]},{row[1]},{row[2]},{row[3]}")
    return "\n".join(lines) + "\n"


def read_table_csv(text: str) -> dict[tuple[float, str, int], tuple[int, ...]]:
    """(bin_start, approach, class) -> (left, thru, right, uturn); zero rows dropped."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "bin_start,approach,class,left,thru,right,uturn":
        raise ValueError("not a count table")
    out: dict[tuple[float, str, int], tuple[int, ...]] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        f = line.split(",")
        key = (float(f[0]), f[1], int(f[2]))
        row = tuple(int(v) for v in f[3:7])
        if any(row):
            prev = out.get(key, (0, 0, 0, 0))
            out[key] = tuple(p + r for p, r in zip(prev, row))
    return out


def table_abs_error(got: str, expected: str) -> int:
    """Sum of |got - expected| over every cell of two count-table CSVs."""
    a, b = read_table_csv(got), read_table_csv(expected)
    err = 0
    for key in a.keys() | b.keys():
        ra, rb = a.get(key, (0, 0, 0, 0)), b.get(key, (0, 0, 0, 0))
        err += sum(abs(x - y) for x, y in zip(ra, rb))
    return err


# --- sensors and poses ------------------------------------------------------


def _yaw_rot(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def sensor_to_ned(yaw: float, north: float, east: float, height: float):
    """Rotation and translation of a z-up sensor frame into NED."""
    flip = np.diag([1.0, -1.0, -1.0])
    return _yaw_rot(yaw) @ flip, np.array([north, east, -height])


def _ecef_frame(origin: dict):
    lat, lon, alt = math.radians(origin["lat"]), math.radians(origin["lon"]), origin["alt"]
    sp, cp, sl, cl = math.sin(lat), math.cos(lat), math.sin(lon), math.cos(lon)
    n = _WGS84_A / math.sqrt(1.0 - _WGS84_E2 * sp * sp)
    origin_ecef = np.array([(n + alt) * cp * cl, (n + alt) * cp * sl, (n * (1.0 - _WGS84_E2) + alt) * sp])
    ned_from_ecef = np.array([[-sp * cl, -sp * sl, cp], [-sl, cl, 0.0], [-cp * cl, -cp * sl, -sp]])
    return ned_from_ecef, origin_ecef


def registry_doc(doc: dict) -> dict:
    """Sensor -> ECEF poses of ``SENSORS`` in the registry JSON schema."""
    ned_from_ecef, origin_ecef = _ecef_frame(doc["ned_origin"])
    frames = {}
    for fid, north, east, height, yaw, _ in SENSORS:
        rot, trans = sensor_to_ned(yaw, north, east, height)
        frames[fid] = {
            "rotation": [float(v) for v in (ned_from_ecef.T @ rot).ravel()],
            "translation": [float(v) for v in ned_from_ecef.T @ trans + origin_ecef],
        }
    return {"ned_origin": dict(doc["ned_origin"]), "frames": frames}


# --- detections -------------------------------------------------------------


@dataclass
class Dets:
    """Detections of one sensor as columns (NED positions, NED headings)."""

    k: list  # frame tick index
    order: list  # tie-break inside a frame
    cols: list  # (n, 8): north, east, down, l, w, h, yaw, score

    def add(self, k, order, cols):
        self.k.append(np.asarray(k, dtype=np.int64))
        self.order.append(np.asarray(order, dtype=np.int64))
        self.cols.append(np.asarray(cols, dtype=np.float64))


def _ticks(lo: float, hi: float, t0: float, phase: float, period: float) -> np.ndarray:
    k_lo = max(math.ceil((lo - t0 - phase) / period - 1e-12), 0)
    k_hi = math.floor((hi - t0 - phase) / period + 1e-12)
    return np.arange(k_lo, k_hi + 1)


def _sensor_pos(sensor) -> np.ndarray:
    _, north, east, height, _, _ = sensor
    return np.array([north, east, -height])


def vehicle_detections(vehicles, zones_by_id, session, sensor, dets: Dets, rng) -> None:
    t0, t1 = session
    period = 1.0 / FRAME_RATE_HZ
    phase = sensor[5]
    spos = _sensor_pos(sensor)
    for order, v in enumerate(vehicles):
        z = zones_by_id[v.zone_id]
        direction = np.array([math.cos(z.yaw), math.sin(z.yaw), 0.0])
        entry_pos = np.array([z.north, z.east, 0.0]) - direction * z.half_length
        t_start = v.entry - PATH_LEAD_M / v.speed
        t_end = v.entry + (2.0 * z.half_length + PATH_LEAD_M) / v.speed
        ks = _ticks(max(t_start, t0), min(t_end, t1 - 1e-9), t0, phase, period)
        if not len(ks):
            continue
        ts = t0 + phase + ks * period
        pos = entry_pos[None, :] + direction[None, :] * (v.speed * (ts - v.entry))[:, None]
        pos[:, 2] = -CLASS_HEIGHT[v.vehicle_class] / 2.0
        seen = np.linalg.norm(pos - spos[None, :], axis=1) <= VISIBILITY_M
        ks, pos = ks[seen], pos[seen]
        n = len(ks)
        if not n:
            continue
        cols = np.empty((n, 8))
        cols[:, 0:3] = pos
        cols[:, 3] = v.length
        cols[:, 4] = CLASS_WIDTH[v.vehicle_class]
        cols[:, 5] = CLASS_HEIGHT[v.vehicle_class]
        cols[:, 6] = z.yaw
        cols[:, 7] = rng.uniform(0.5, 1.0, n)
        dets.add(ks, np.full(n, order), cols)


def outside_zones(zones, n, e) -> np.ndarray:
    inside = np.zeros(np.shape(n), dtype=bool)
    for z in zones:
        inside |= z.contains(n, e, CLUTTER_MARGIN_M)
    return ~inside


def clutter_objects(zones, count: int, rng) -> np.ndarray:
    """Static objects (poles, signs, parked cars): rows of n, e, l, w, h, yaw.

    Each lies well inside every sensor's range, so every frame of every
    sensor holds all of them and the detection count does not vary with
    the seed.
    """
    out = []
    while len(out) < count:
        n, e = rng.uniform(-34.0, 34.0, 2)
        if not outside_zones(zones, n, e):
            continue
        if max(np.hypot(n - s[1], e - s[2]) for s in SENSORS) > VISIBILITY_M - 6.0:
            continue
        if rng.random() < 0.5:
            dims = (rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(2.0, 6.0))
        else:
            dims = (rng.uniform(4.0, 5.2), rng.uniform(1.7, 2.0), rng.uniform(1.4, 1.9))
        out.append((n, e, *dims, rng.uniform(-math.pi, math.pi)))
    return np.array(out)


# Crosswalks just inside the corners, clear of every zone.
CROSSWALKS = (
    ((-12.5, -12.0), (-12.5, 12.0)),
    ((12.5, -12.0), (12.5, 12.0)),
    ((-12.0, -12.5), (12.0, -12.5)),
    ((-12.0, 12.5), (12.0, 12.5)),
)


def pedestrians(session, per_min: float, rng) -> list[tuple[float, float, tuple, tuple]]:
    """(start time, speed, from, to) of pedestrians crossing at random."""
    t0, t1 = session
    n = int(round(per_min * (t1 - t0) / 60.0))
    out = []
    for _ in range(n):
        a, b = CROSSWALKS[int(rng.integers(len(CROSSWALKS)))]
        if rng.random() < 0.5:
            a, b = b, a
        out.append((float(rng.uniform(t0, t1)), float(rng.uniform(1.0, 1.6)), a, b))
    return out


def static_detections(objects, session, sensor, dets: Dets, order0: int, rng) -> None:
    t0, t1 = session
    period = 1.0 / FRAME_RATE_HZ
    ks_all = _ticks(t0, t1 - 1e-9, t0, sensor[5], period)
    for i, (n, e, l, w, h, yaw) in enumerate(objects):
        m = len(ks_all)
        cols = np.empty((m, 8))
        cols[:, 0] = n + rng.normal(0.0, 0.03, m)
        cols[:, 1] = e + rng.normal(0.0, 0.03, m)
        cols[:, 2] = -h / 2.0
        cols[:, 3:6] = (l, w, h)
        cols[:, 6] = yaw
        cols[:, 7] = rng.uniform(0.3, 0.9, m)
        dets.add(ks_all, np.full(m, order0 + i), cols)


def pedestrian_detections(peds, session, sensor, dets: Dets, order0: int, rng) -> None:
    t0, t1 = session
    period = 1.0 / FRAME_RATE_HZ
    spos = _sensor_pos(sensor)
    for i, (start, speed, a, b) in enumerate(peds):
        a, b = np.array(a), np.array(b)
        dist = float(np.hypot(*(b - a)))
        ks = _ticks(start, min(start + dist / speed, t1 - 1e-9), t0, sensor[5], period)
        if not len(ks):
            continue
        ts = t0 + sensor[5] + ks * period
        frac = (speed * (ts - start) / dist)[:, None]
        ne = a[None, :] + (b - a)[None, :] * frac
        seen = np.hypot(ne[:, 0] - spos[0], ne[:, 1] - spos[1]) <= VISIBILITY_M
        ks, ne = ks[seen], ne[seen]
        m = len(ks)
        if not m:
            continue
        cols = np.empty((m, 8))
        cols[:, 0:2] = ne
        cols[:, 2] = -0.85
        cols[:, 3:6] = (0.6, 0.6, 1.7)
        cols[:, 6] = math.atan2(b[1] - a[1], b[0] - a[0])
        cols[:, 7] = rng.uniform(0.4, 0.9, m)
        dets.add(ks, np.full(m, order0 + i), cols)


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def detection_lines(dets: Dets, session, sensor) -> list[str]:
    """One JSON line per frame tick of the session, in the ingest wire format."""
    t0, t1 = session
    fid, north, east, height, yaw, phase = sensor
    period = 1.0 / FRAME_RATE_HZ
    rot, trans = sensor_to_ned(yaw, north, east, height)
    ks = np.concatenate(dets.k) if dets.k else np.zeros(0, dtype=np.int64)
    order = np.concatenate(dets.order) if dets.order else np.zeros(0, dtype=np.int64)
    cols = np.concatenate(dets.cols) if dets.cols else np.zeros((0, 8))
    idx = np.lexsort((order, ks))
    ks, cols = ks[idx], cols[idx]
    local = (cols[:, 0:3] - trans[None, :]) @ rot  # R^T (p - t), row-wise
    heading = np.remainder(cols[:, 6] - yaw + math.pi, 2.0 * math.pi) - math.pi
    heading[heading <= -math.pi] += 2.0 * math.pi
    bounds = np.searchsorted(ks, np.arange(int(ks.max(initial=0)) + 2))
    lines = []
    for k in _ticks(t0, t1 - 1e-9, t0, phase, period):
        lo, hi = (bounds[k], bounds[k + 1]) if k + 1 < len(bounds) else (0, 0)
        items = [
            f'{{"x": {_fmt(local[j, 0])}, "y": {_fmt(local[j, 1])}, "z": {_fmt(local[j, 2])}, '
            f'"l": {_fmt(cols[j, 3])}, "w": {_fmt(cols[j, 4])}, "h": {_fmt(cols[j, 5])}, '
            f'"yaw": {_fmt(heading[j])}, "score": {cols[j, 7]:.3f}}}'
            for j in range(lo, hi)
        ]
        t = t0 + phase + int(k) * period
        lines.append(f'{{"t": {t!r}, "frame_id": "{fid}", "detections": [{", ".join(items)}]}}')
    return lines


BAD_LINE_KINDS = ("bad_json", "missing_key", "non_numeric", "non_finite", "bad_dimension", "wrong_frame_id")


def bad_line(kind: str, t: float, fid: str, good: str) -> str:
    """One line that the CLI skips in non-strict mode, for one documented reason."""
    det = '{"x": 30.0, "y": 30.0, "z": -1.0, "l": 0.5, "w": 0.5, "h": 3.0, "yaw": 0.0, "score": 0.5}'
    if kind == "bad_json":
        return good[: max(len(good) // 2, 8)]
    if kind == "missing_key":
        det = det.replace(', "y": 30.0', "")
    elif kind == "non_numeric":
        det = det.replace('"x": 30.0', '"x": "n/a"')
    elif kind == "non_finite":
        det = det.replace('"z": -1.0', '"z": NaN')
    elif kind == "bad_dimension":
        det = det.replace('"l": 0.5', '"l": 75.0')
    elif kind == "wrong_frame_id":
        fid += "X"
    else:
        raise ValueError(kind)
    return f'{{"t": {t!r}, "frame_id": "{fid}", "detections": [{det}]}}'


def inject_bad_lines(lines: list[str], fid: str, rng) -> tuple[list[str], int]:
    """Insert about ``BAD_LINE_FRAC`` extra bad lines, never before line 1."""
    n_bad = max(1, int(round(BAD_LINE_FRAC * len(lines))))
    after = np.sort(rng.choice(np.arange(1, len(lines) + 1), size=n_bad, replace=False))
    out, prev = [], 0
    for i, pos in enumerate(after):
        out.extend(lines[prev:pos])
        good = lines[pos - 1]
        t = json.loads(good)["t"]
        out.append(bad_line(BAD_LINE_KINDS[i % len(BAD_LINE_KINDS)], t, fid, good))
        prev = pos
    out.extend(lines[prev:])
    return out, n_bad


# --- workload files ---------------------------------------------------------


def _write(path: Path, text: str, compress: bool = False) -> None:
    data = text.encode("utf-8")
    if compress:
        buf = io.BytesIO()
        with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0) as gz:
            gz.write(data)
        data = buf.getvalue()
    path.write_bytes(data)


def estimate_logs(doc, vehicles, session, rng, clutter=None, peds=()) -> dict[str, list[str]]:
    """Per-sensor JSON lines for an estimate workload."""
    zones = zones_of(doc)
    zones_by_id = {z.id: z for z in zones}
    out = {}
    for sensor in SENSORS:
        dets = Dets([], [], [])
        vehicle_detections(vehicles, zones_by_id, session, sensor, dets, rng)
        if clutter is not None:
            static_detections(clutter, session, sensor, dets, len(vehicles), rng)
        if peds:
            pedestrian_detections(peds, session, sensor, dets, len(vehicles) + len(clutter), rng)
        out[sensor[0]] = detection_lines(dets, session, sensor)
    return out


def script_doc(vehicles) -> dict:
    return {
        "vehicles": [
            {"class": v.vehicle_class, "approach": v.approach, "movement": v.movement,
             "entry_time": v.entry, "speed": v.speed, "length": v.length, "zone_id": v.zone_id}
            for v in vehicles
        ]
    }


def generate(root: Path, name: str, seed: int, out: Path, spec: Spec | None = None) -> dict:
    """Write workload ``name`` for ``seed`` into ``out``; return its manifest.

    The manifest lists the CLI jobs (inputs, expected table, expected
    skipped lines, detection counts) and a digest of every byte written.
    ``spec`` overrides the registered workload (tests use short ones).
    """
    spec = spec or WORKLOADS[name]
    stream = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    seed_key = seed % 2**31  # the simulator needs non-negative seeds
    rng = np.random.default_rng([seed_key, stream])
    out.mkdir(parents=True, exist_ok=True)
    ref = load_reference(root)
    doc = extend_schedule(ref, spec.cycles)
    session = (0.0, spec.cycles * CYCLE_S)
    _write(out / "config.json", json.dumps(doc, indent=2) + "\n")
    _write(out / "registry.json", json.dumps(registry_doc(doc), indent=2) + "\n")
    zones = zones_of(doc)
    manifest = {"workload": name, "seed": seed, "command": spec.command,
                "session": list(session), "jobs": [], "setup": {}}

    if spec.command == "estimate":
        vehicles = schedule_traffic(doc, session, rng)
        clutter = clutter_objects(zones, spec.clutter, rng) if spec.clutter else None
        peds = pedestrians(session, spec.pedestrians_per_min, rng) if spec.pedestrians_per_min else []
        logs = estimate_logs(doc, vehicles, session, rng, clutter, peds)
        suffix = ".jsonl.gz" if spec.gzip else ".jsonl"
        names, n_bad, n_det = [], 0, 0
        for fid, lines in logs.items():
            n_det += sum(line.count('"x":') for line in lines)
            if spec.bad_lines:
                lines, bad = inject_bad_lines(lines, fid, rng)
                n_bad += bad
            _write(out / f"log_{fid}{suffix}", "\n".join(lines) + "\n", spec.gzip)
            names.append(f"log_{fid}{suffix}")
        _write(out / "gt.csv", table_csv(tally(vehicles, session), session[0]))
        manifest["jobs"].append({
            "logs": names, "expected": "gt.csv", "skipped_lines": n_bad,
            "detections": n_det, "vehicles": len(vehicles),
        })
        # Near-empty input: one clutter-like detection per sensor log.
        setup_names = []
        for sensor in SENSORS:
            dets = Dets([], [], [])
            dets.add([0], [0], [[30.0, 30.0, -1.0, 0.5, 0.5, 3.0, 0.0, 0.5]])
            line = detection_lines(dets, (0.0, 1.0 / FRAME_RATE_HZ), sensor)
            fname = f"setup_{sensor[0]}{suffix}"
            _write(out / fname, line[0] + "\n", spec.gzip)
            setup_names.append(fname)
        _write(out / "setup_gt.csv", table_csv(tally([], session), session[0]))
        manifest["setup"] = {"logs": setup_names, "expected": "setup_gt.csv", "skipped_lines": 0}
    else:
        for i in range(spec.scripts):
            vehicles = schedule_traffic(doc, session, rng)
            _write(out / f"script_{i:02d}.json", json.dumps(script_doc(vehicles)) + "\n")
            _write(out / f"expected_{i:02d}.csv", table_csv(tally(vehicles, session), session[0]))
            manifest["jobs"].append({
                "script": f"script_{i:02d}.json", "expected": f"expected_{i:02d}.csv",
                "sim_seed": seed_key * 1000 + i, "vehicles": len(vehicles),
            })
        one = vehicles[:1]
        _write(out / "setup_script.json", json.dumps(script_doc(one)) + "\n")
        _write(out / "setup_expected.csv", table_csv(tally(one, session), session[0]))
        manifest["setup"] = {"script": "setup_script.json", "expected": "setup_expected.csv",
                             "sim_seed": seed_key * 1000 + 999}

    manifest["digest"] = digest(out)
    return manifest


def digest(directory: Path) -> str:
    """sha256 over the names and bytes of every file in ``directory``."""
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        if p.is_file():
            h.update(p.name.encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Generate one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for the inputs")
    parser.add_argument("--manifest", type=Path, required=True, help="manifest JSON to write")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    manifest = generate(root, args.workload, args.seed, args.out)
    args.manifest.write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
