"""Deterministic synthetic sessions with exact ground truth.

Each scripted vehicle drives a straight segment through its governing
zone at constant speed: the ingress zone whose primary binding matches
the vehicle's (approach, movement), or the egress surrogate for rights
counted on the exit side. The segment runs from :data:`PATH_LEAD_M`
meters before the zone to as far after it, along the zone's yaw.

At every sensor frame tick, each active vehicle within
:data:`VISIBILITY_M` of the sensor (and surviving i.i.d. dropout) emits
one detection: the true position plus isotropic Gaussian noise,
expressed in that sensor's own coordinate frame, with the matching
sensor-frame heading.
Emitted logs use the ingest JSON-lines schema, so simulated and field
data are interchangeable downstream.

Each sensor's detections are built as one block of columns: the ticks,
positions, visibility and sensor-frame boxes of all vehicles are
computed at once, and only the random draws go vehicle by vehicle
(dropout, noise, score), so the random stream is that of
drawing each vehicle's boxes in turn. A sensor's log is one
:class:`~lidartmc.stream.MergedStream` of that block, frame by frame.

A simulation covers the config's schedule session. The ground-truth
table is tallied directly from the script (by zone entry time, in bins
of ``estimate``'s default width), never from the emitted detections,
which makes it an independent oracle for the counting pipeline.
Everything is driven by one seeded generator, so identical inputs
produce byte-identical logs.

A script is checked before any work (:func:`_check_script`), with
binding lookups built once and one class lookup for all scripted
lengths. Every box written passes the parse's checks: lengths lie below
:data:`~lidartmc.stream.MAX_DIMENSION_M`, and the noise sigma is at
most :data:`VISIBILITY_M`. The bundled scenarios and the random script
generator live in :mod:`lidartmc.scenarios`, which ``simulate
--script`` never loads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import orjson

from .classify import parse_class_id
from .errors import UserInputError, json_number, json_string
from .geo import FrameRegistry, RigidTransform, compose, load_json_document, wrap_angles
from .intersection import Approach, IntersectionConfig, Movement, Zone, outside_session
from .stream import BOX_COLUMNS, MAX_DIMENSION_M, H, L, SCORE, W, X, YAW, Z, MergedStream
from .tables import DEFAULT_BIN_SECONDS, TmcTable, n_bins, zero_grid

MAX_SPEED_MPS = 20.0
VISIBILITY_M = 40.0  # how far a sensor sees
SENSOR_HEIGHT_M = 4.7  # how high above the road a sensor is mounted
PATH_LEAD_M = 10.0  # how far before and after its zone a path runs

# Plausible box width/height per default class id; only lengths matter
# downstream, but the logs should look like real detector output.
_CLASS_WIDTHS = {1: 0.6, 2: 0.8, 3: 1.9, 4: 2.0, 5: 2.6, 6: 2.6}
_CLASS_HEIGHTS = {1: 1.7, 2: 1.6, 3: 1.5, 4: 1.9, 5: 3.3, 6: 3.9}

# Proper rotation turning a z-up sensor frame into z-down handedness.
_FLIP_X = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])


def _draw_range(lower: float, upper: float) -> tuple[float, float]:
    """Where a length the script leaves out is drawn: inside its class
    band ``[lower, upper)``, taken as 10 m long when it is open-ended."""
    upper = upper if math.isfinite(upper) else lower + 10.0
    return lower + 0.02, upper - 0.02


@dataclass(frozen=True)
class SensorSpec:
    """A simulated LiDAR: NED position, heading and tick phase."""

    frame_id: str
    north: float
    east: float
    yaw: float = 0.0
    phase: float = 0.0  # tick offset in seconds

    def ned_transform(self) -> RigidTransform:
        """sensor -> NED rigid transform (sensor z points up)."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        yaw_rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return RigidTransform(yaw_rot @ _FLIP_X, np.array([self.north, self.east, -SENSOR_HEIGHT_M]))


def default_sensors() -> tuple[SensorSpec, ...]:
    """Two sensors at the NW and SE corners, interleaved tick phases."""
    return (
        SensorSpec("L1", 12.0, -12.0, yaw=2.0),
        SensorSpec("L2", -12.0, 12.0, yaw=-1.2, phase=0.125),
    )


@dataclass(frozen=True)
class ScriptedVehicle:
    vehicle_class: int
    approach: Approach
    movement: Movement
    entry_time: float  # when the center crosses into the governing zone
    speed: float
    length: float | None = None  # None: drawn from the class interval
    zone_id: str | None = None  # None: first matching countable zone


@dataclass(frozen=True)
class SimConfig:
    seed: int
    frame_rate_hz: float = 4.0
    dropout: float = 0.0
    noise_sigma: float = 0.0
    sensors: tuple[SensorSpec, ...] = ()

    def __post_init__(self):
        if self.sensors == ():
            object.__setattr__(self, "sensors", default_sensors())
        if not 3.0 <= self.frame_rate_hz <= 5.0:
            raise UserInputError(
                f"frame_rate_hz {self.frame_rate_hz} outside [3, 5]"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise UserInputError(f"dropout {self.dropout} outside [0, 1)")
        if not self.noise_sigma >= 0:  # NaN too
            raise UserInputError("noise sigma must be >= 0")
        if self.noise_sigma > VISIBILITY_M:
            raise UserInputError(f"noise sigma must be <= {VISIBILITY_M}, the sensor range")
        ids = [s.frame_id for s in self.sensors]
        if not ids or len(set(ids)) != len(ids):
            raise UserInputError("sensors must be non-empty with unique ids")


@dataclass(frozen=True)
class SyntheticSession:
    # Each sensor's sensor-frame stream; the benchmark reads this name.
    frames_by_sensor: dict[str, MergedStream]
    ground_truth: TmcTable
    script: tuple[ScriptedVehicle, ...]
    registry: FrameRegistry


def _check_script(
    script: Sequence[ScriptedVehicle], cfg: IntersectionConfig
) -> tuple[list[Zone], np.ndarray]:
    """Each vehicle's governing zone and scripted length (NaN where the
    script leaves it out), once the script passes its checks.

    Vehicles are checked in script order, and each vehicle's checks run
    in this order: its class, its speed, its governing zone, its length
    (of its class, then below :data:`~lidartmc.stream.MAX_DIMENSION_M`,
    or for a length left out, a band that draws only below it), and that
    it clears its zone within the schedule's session. The first check
    that fails raises. Governing zones are looked up in two tables built
    once from ``cfg.countable_targets()``, and every scripted length is
    classed by one :meth:`~lidartmc.classify.ClassTable.class_ids` call;
    a non-positive or non-finite one raises from a second call on it
    alone.
    """
    table = cfg.class_table
    session = cfg.schedule.session
    t0, t1 = session
    zone_ids = {z.id for z in cfg.zones}
    targets = cfg.countable_targets()
    named = {(z.id, b): z for z, b in targets}  # the zone a zone_id names, by binding
    first = {b: z for z, b in reversed(targets)}  # the first countable zone of a binding
    too_long = {c for c in range(1, table.n_classes + 1)
                if _draw_range(*table.band(c))[1] >= MAX_DIMENSION_M}
    lengths = np.array([math.nan if v.length is None else v.length for v in script],
                       dtype=np.float64)
    valid = np.isfinite(lengths) & (lengths > 0)
    length_class = np.zeros(len(script), dtype=np.intp)
    length_class[valid] = table.class_ids(lengths[valid])
    zones = []
    for v, cls in zip(script, length_class.tolist()):
        if not 1 <= v.vehicle_class <= table.n_classes:
            raise UserInputError(f"vehicle class {v.vehicle_class} unknown")
        if not 0.0 < v.speed <= MAX_SPEED_MPS:
            raise UserInputError(
                f"speed {v.speed} outside (0, {MAX_SPEED_MPS}]"
            )
        binding = (v.approach, v.movement)
        zone = first.get(binding) if v.zone_id is None else named.get((v.zone_id, binding))
        if zone is None:
            movement = f"{v.approach.value}/{v.movement.value}"
            if v.zone_id is None:
                raise UserInputError(f"no countable zone for {movement}; "
                                     "the movement would be miscounted or missed")
            if v.zone_id not in zone_ids:
                raise UserInputError(f"unknown zone_id {v.zone_id!r}")
            raise UserInputError(f"zone {v.zone_id!r} cannot count {movement}")
        if v.length is None:
            if v.vehicle_class in too_long:
                raise UserInputError(f"class-{v.vehicle_class} lengths are drawn up to "
                                     f"the box limit {MAX_DIMENSION_M} m")
        elif cls != v.vehicle_class:
            table.class_ids(np.array([v.length], dtype=np.float64))  # raises for a bad length
            raise UserInputError(
                f"length {v.length} is not a class-{v.vehicle_class} length"
            )
        elif v.length >= MAX_DIMENSION_M:
            raise UserInputError(f"length {v.length} is not below the box limit "
                                 f"{MAX_DIMENSION_M} m")
        residence = 2.0 * zone.half_length / v.speed
        if (outside_session(v.entry_time, session)
                or outside_session(v.entry_time + residence, session)):
            raise UserInputError(
                f"vehicle at entry_time {v.entry_time} does not clear its zone "
                f"within session [{t0}, {t1})"
            )
        zones.append(zone)
    return zones, lengths


def simulate(
    script: Sequence[ScriptedVehicle],
    cfg: IntersectionConfig,
    sim: SimConfig,
) -> SyntheticSession:
    """Generate per-sensor logs plus the exact scripted ground truth."""
    rng = np.random.default_rng(sim.seed)
    table = cfg.class_table
    session = cfg.schedule.session
    t0, t1 = session
    n_bins(DEFAULT_BIN_SECONDS, session, table.n_classes)  # too large: exit 2 first

    zones, lengths = _check_script(script, cfg)
    # The lengths the script leaves out, drawn in script order.
    low, high = np.array([_draw_range(*table.band(v.vehicle_class))
                          for v in script if v.length is None]).reshape(-1, 2).T
    lengths[[v.length is None for v in script]] = rng.uniform(low, high)
    # One row per vehicle: the constants its path and boxes are built from.
    per_vehicle = []
    for v, zone, length in zip(script, zones, lengths.tolist()):
        cos, sin = math.cos(zone.yaw), math.sin(zone.yaw)
        per_vehicle.append((
            v.entry_time,
            v.speed,
            length,
            _CLASS_WIDTHS.get(v.vehicle_class, 2.0),
            _CLASS_HEIGHTS.get(v.vehicle_class, 1.8),
            zone.yaw,
            cos,
            sin,
            # Where the center enters the zone.
            zone.center.north - cos * zone.half_length,
            zone.center.east - sin * zone.half_length,
            # When the path starts and ends.
            v.entry_time - PATH_LEAD_M / v.speed,
            v.entry_time + (2.0 * zone.half_length + PATH_LEAD_M) / v.speed,
        ))
    (entry_time, speed, length, width, height, zone_yaw, cos, sin, north0, east0,
     t_start, t_end) = np.array(per_vehicle, dtype=np.float64).reshape(-1, 12).T

    registry = FrameRegistry(cfg.ned_origin)
    ecef_from_ned = RigidTransform(registry.ned_rotation().rotation.T, registry.origin_ecef())
    period = 1.0 / sim.frame_rate_hz
    lo = np.maximum(t_start, t0)
    hi = np.minimum(t_end, t1 - 1e-9)
    frames_by_sensor: dict[str, MergedStream] = {}
    for sensor in sim.sensors:
        to_ned = sensor.ned_transform()
        registry.register(sensor.frame_id, compose(ecef_from_ned, to_ned))
        _, _, yaw_corr = registry.ned_pose(sensor.frame_id)
        from_ned_rot = to_ned.rotation.T
        from_ned_trans = -from_ned_rot @ to_ned.translation
        sensor_pos = np.array([sensor.north, sensor.east, -SENSOR_HEIGHT_M])

        # Every frame tick of every vehicle's path, vehicle by vehicle.
        k_lo = np.maximum(np.ceil((lo - t0 - sensor.phase) / period - 1e-12), 0)
        k_hi = np.floor((hi - t0 - sensor.phase) / period + 1e-12)
        n_ticks = np.maximum(k_hi - k_lo + 1, 0).astype(np.intp)
        veh = np.repeat(np.arange(len(n_ticks)), n_ticks)
        first_row = np.cumsum(n_ticks) - n_ticks
        ks = np.arange(len(veh)) + np.repeat(k_lo.astype(np.intp) - first_row, n_ticks)
        ts = t0 + sensor.phase + ks * period
        travel = speed[veh] * (ts - entry_time[veh])
        pos = np.empty((len(veh), 3))
        pos[:, 0] = north0[veh] + cos[veh] * travel
        pos[:, 1] = east0[veh] + sin[veh] * travel
        pos[:, 2] = -height[veh] / 2.0
        visible = np.linalg.norm(pos - sensor_pos[None, :], axis=1) <= VISIBILITY_M
        veh, ks, pos = veh[visible], ks[visible], pos[visible]

        # The random draws, vehicle by vehicle in script order, so the
        # stream is that of drawing each vehicle's boxes in turn.
        kept, noise, scores = [], [], []
        for k in np.bincount(veh, minlength=len(n_ticks)).tolist():
            if not k:
                continue
            if sim.dropout > 0.0:
                kept.append(rng.random(k) >= sim.dropout)
                k = int(np.count_nonzero(kept[-1]))
                if not k:
                    continue
            if sim.noise_sigma > 0.0:
                noise.append(rng.normal(0.0, sim.noise_sigma, (k, 3)))
            scores.append(rng.uniform(0.5, 1.0, k))
        if kept:
            keep = np.concatenate(kept)
            veh, ks, pos = veh[keep], ks[keep], pos[keep]
        if noise:
            pos = pos + np.concatenate(noise)

        block = np.empty((len(veh), len(BOX_COLUMNS)))
        block[:, X : Z + 1] = pos @ from_ned_rot.T + from_ned_trans
        block[:, L] = length[veh]
        block[:, W] = width[veh]
        block[:, H] = height[veh]
        block[:, YAW] = wrap_angles(zone_yaw - yaw_corr)[veh]
        block[:, SCORE] = np.concatenate(scores) if scores else []
        # Frame by frame; within a frame in script order.
        order = np.argsort(ks, kind="stable")
        ks = ks[order]
        first = np.flatnonzero(np.diff(ks, prepend=-1))  # each frame's first row
        frames_by_sensor[sensor.frame_id] = MergedStream(
            boxes=block[order],
            t=t0 + sensor.phase + ks[first] * period,
            sensor=np.zeros(len(first), dtype=np.intp),
            sensors=(sensor.frame_id,),
            offsets=np.append(first, len(ks)),
        )

    return SyntheticSession(
        frames_by_sensor=frames_by_sensor,
        ground_truth=tally_script(script, session, table.n_classes),
        script=tuple(script),
        registry=registry,
    )


def tally_script(script: Sequence[ScriptedVehicle], session: tuple[float, float], classes: int,
                 bin_seconds: float = DEFAULT_BIN_SECONDS) -> TmcTable:
    """Ground truth straight from the script: one count per vehicle,
    binned by zone entry time. Deliberately shares no code with the
    counting pipeline but the session rule and the grid, so it can
    serve as an independent oracle."""
    counts = zero_grid(bin_seconds, session, classes)
    t0, t1 = session
    approach_index = {a: i for i, a in enumerate(Approach)}
    movement_index = {m: i for i, m in enumerate(Movement)}
    for v in script:
        if outside_session(v.entry_time, session):
            raise UserInputError(
                f"entry_time {v.entry_time} outside session [{t0}, {t1})"
            )
        b = int(math.floor((v.entry_time - t0) / bin_seconds))
        counts[b, approach_index[v.approach], movement_index[v.movement],
               v.vehicle_class - 1] += 1
    return TmcTable(bin_seconds, session, counts)


def script_to_obj(script: Sequence[ScriptedVehicle]) -> dict:
    return {
        "vehicles": [
            {
                "class": v.vehicle_class,
                "approach": v.approach.value,
                "movement": v.movement.value,
                "entry_time": v.entry_time,
                "speed": v.speed,
                "length": v.length,
                "zone_id": v.zone_id,
            }
            for v in script
        ]
    }


def script_json(script: Sequence[ScriptedVehicle]) -> str:
    """The text of ``script.json``: :func:`script_to_obj` indented by two
    spaces, then a newline. ``json.loads`` reads it back to
    :func:`script_to_obj`'s values.

    ``orjson`` writes it, which gives the bytes of ``json.dumps(...,
    indent=2)`` for an ASCII script whose floats lie in ``1e-4 <= |x| <
    1e16``; a non-ASCII character is written as UTF-8 instead of escaped,
    and an exponent without a plus sign or zero padding (``1e-5`` for
    ``1e-05``). A script that orjson refuses (a lone surrogate in a
    ``zone_id``, an integer past 64 bits) is written by ``json.dumps``.
    """
    obj = script_to_obj(script)
    try:
        return orjson.dumps(obj, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE).decode()
    except orjson.JSONEncodeError:
        return json.dumps(obj, indent=2) + "\n"


def script_from_obj(doc) -> tuple[ScriptedVehicle, ...]:
    try:
        vehicles = tuple(
            ScriptedVehicle(
                vehicle_class=parse_class_id(v["class"]),
                approach=Approach(v["approach"]),
                movement=Movement(v["movement"]),
                entry_time=json_number(v["entry_time"]),
                speed=json_number(v["speed"]),
                length=None if v.get("length") is None else json_number(v["length"]),
                zone_id=(None if v.get("zone_id") is None
                         else json_string(v["zone_id"], f"vehicles[{i}].zone_id")),
            )
            for i, v in enumerate(doc["vehicles"])
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UserInputError(f"bad script document: {exc}") from None
    return vehicles


def load_script(path) -> tuple[ScriptedVehicle, ...]:
    return load_json_document(path, "script", script_from_obj)
