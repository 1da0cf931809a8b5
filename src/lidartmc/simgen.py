"""Deterministic synthetic sessions with exact ground truth.

Each scripted vehicle drives a straight segment through its governing
zone at constant speed: the ingress zone whose primary binding matches
the vehicle's (approach, movement), or the egress surrogate for rights
counted on the exit side. The segment runs from ``path_lead`` meters
before the zone to ``path_lead`` meters after it, along the zone's yaw.

At every sensor frame tick, each active vehicle within the sensor's
visibility radius (and surviving i.i.d. dropout) emits one detection:
the true position plus isotropic Gaussian noise, expressed in that
sensor's own coordinate frame, with the matching sensor-frame heading.
Emitted logs use the ingest JSON-lines schema, so simulated and field
data are interchangeable downstream.

Each sensor's detections are built as one block of columns: the ticks,
positions, visibility and sensor-frame boxes of all vehicles are
computed at once, and only the random draws go vehicle by vehicle
(dropout, noise, length, score), so the random stream is that of
drawing each vehicle's boxes in turn. A sensor's log is one
:class:`~lidartmc.ingest.MergedStream` of that block, frame by frame.

The ground-truth table is tallied directly from the script (by zone
entry time), never from the emitted detections, which makes it an
independent oracle for the counting pipeline. Everything is driven by
one seeded generator, so identical inputs produce byte-identical logs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import orjson

from .classify import ClassTable, parse_class_id
from .errors import SchemaError, ScriptValidationError, json_number
from .geo import FrameRegistry, RigidTransform, compose, wrap_angles
from .ingest import BOX_COLUMNS, H, L, SCORE, W, X, YAW, Z, MergedStream
from .intersection import Approach, IntersectionConfig, Movement, Zone
from .report import TmcTable, empty_table
from .reference import build_long_range_config, build_reference_config

MAX_SPEED_MPS = 20.0
DEFAULT_VISIBILITY_M = 40.0
DEFAULT_PATH_LEAD_M = 10.0

# Plausible box width/height per default class id; only lengths matter
# downstream, but the logs should look like real detector output.
_CLASS_WIDTHS = {1: 0.6, 2: 0.8, 3: 1.9, 4: 2.0, 5: 2.6, 6: 2.6}
_CLASS_HEIGHTS = {1: 1.7, 2: 1.6, 3: 1.5, 4: 1.9, 5: 3.3, 6: 3.9}

# Proper rotation turning a z-up sensor frame into z-down handedness.
_FLIP_X = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])


@dataclass(frozen=True)
class SensorSpec:
    """A simulated LiDAR: NED pose plus detection limits."""

    frame_id: str
    north: float
    east: float
    height: float = 4.7
    yaw: float = 0.0
    visibility_radius: float = DEFAULT_VISIBILITY_M
    phase: float = 0.0  # tick offset in seconds

    def ned_transform(self) -> RigidTransform:
        """sensor -> NED rigid transform (sensor z points up)."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        yaw_rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return RigidTransform(yaw_rot @ _FLIP_X, np.array([self.north, self.east, -self.height]))


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
    length_sigma: float = 0.0
    session: tuple[float, float] = (0.0, 300.0)
    bin_seconds: float = 300.0
    sensors: tuple[SensorSpec, ...] = ()
    path_lead: float = DEFAULT_PATH_LEAD_M

    def __post_init__(self):
        if self.sensors == ():
            object.__setattr__(self, "sensors", default_sensors())
        if not 3.0 <= self.frame_rate_hz <= 5.0:
            raise ScriptValidationError(
                f"frame_rate_hz {self.frame_rate_hz} outside [3, 5]"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ScriptValidationError(f"dropout {self.dropout} outside [0, 1)")
        if self.noise_sigma < 0 or self.length_sigma < 0:
            raise ScriptValidationError("noise sigmas must be >= 0")
        if not self.session[1] > self.session[0]:
            raise ScriptValidationError("session end must follow start")
        ids = [s.frame_id for s in self.sensors]
        if not ids or len(set(ids)) != len(ids):
            raise ScriptValidationError("sensors must be non-empty with unique ids")


@dataclass(frozen=True)
class SyntheticSession:
    # Each sensor's sensor-frame stream; the benchmark reads this name.
    frames_by_sensor: dict[str, MergedStream]
    ground_truth: TmcTable
    script: tuple[ScriptedVehicle, ...]
    registry: FrameRegistry


def _governing_zone(v: ScriptedVehicle, cfg: IntersectionConfig, targets) -> Zone:
    """The zone that counts ``v``; ``targets`` is ``cfg.countable_targets()``."""
    binding = (v.approach, v.movement)
    if v.zone_id is not None:
        try:
            zone = cfg.zone_by_id(v.zone_id)
        except KeyError:
            raise ScriptValidationError(f"unknown zone_id {v.zone_id!r}") from None
        if (zone, binding) not in targets:
            raise ScriptValidationError(
                f"zone {v.zone_id!r} cannot count {v.approach.value}/{v.movement.value}"
            )
        return zone
    for zone, b in targets:
        if b == binding:
            return zone
    raise ScriptValidationError(
        f"no countable zone for {v.approach.value}/{v.movement.value}; "
        "the movement would be miscounted or missed"
    )


def _draw_length(v: ScriptedVehicle, table: ClassTable, rng: np.random.Generator) -> float:
    cls = table.by_id(v.vehicle_class)
    if v.length is not None:
        if table.classify(v.length).id != v.vehicle_class:
            raise ScriptValidationError(
                f"length {v.length} is not a class-{v.vehicle_class} length"
            )
        return v.length
    upper = cls.upper if math.isfinite(cls.upper) else cls.lower + 10.0
    return float(rng.uniform(cls.lower + 0.02, upper - 0.02))


def simulate(
    script: Sequence[ScriptedVehicle],
    cfg: IntersectionConfig,
    sim: SimConfig,
) -> SyntheticSession:
    """Generate per-sensor logs plus the exact scripted ground truth."""
    rng = np.random.default_rng(sim.seed)
    table = cfg.class_table
    t0, t1 = sim.session
    if not (cfg.schedule.session[0] <= t0 and t1 <= cfg.schedule.session[1]):
        raise ScriptValidationError(
            f"schedule session {cfg.schedule.session} does not cover "
            f"simulation session {sim.session}"
        )

    targets = cfg.countable_targets()
    # One row per vehicle: the constants its path and boxes are built from.
    per_vehicle = []
    for v in script:
        if not 1 <= v.vehicle_class <= table.n_classes:
            raise ScriptValidationError(f"vehicle class {v.vehicle_class} unknown")
        if not 0.0 < v.speed <= MAX_SPEED_MPS:
            raise ScriptValidationError(
                f"speed {v.speed} outside (0, {MAX_SPEED_MPS}]"
            )
        zone = _governing_zone(v, cfg, targets)
        length = _draw_length(v, table, rng)
        residence = 2.0 * zone.half_length / v.speed
        if not (t0 <= v.entry_time and v.entry_time + residence < t1):
            raise ScriptValidationError(
                f"vehicle at entry_time {v.entry_time} does not clear its zone "
                f"within session [{t0}, {t1})"
            )
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
            v.entry_time - sim.path_lead / v.speed,
            v.entry_time + (2.0 * zone.half_length + sim.path_lead) / v.speed,
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
        sensor_pos = np.array([sensor.north, sensor.east, -sensor.height])

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
        visible = np.linalg.norm(pos - sensor_pos[None, :], axis=1) <= sensor.visibility_radius
        veh, ks, pos = veh[visible], ks[visible], pos[visible]

        # The random draws, vehicle by vehicle in script order, so the
        # stream is that of drawing each vehicle's boxes in turn.
        kept, noise, drawn_lengths, scores = [], [], [], []
        for i, k in enumerate(np.bincount(veh, minlength=len(n_ticks)).tolist()):
            if not k:
                continue
            if sim.dropout > 0.0:
                kept.append(rng.random(k) >= sim.dropout)
                k = int(np.count_nonzero(kept[-1]))
                if not k:
                    continue
            if sim.noise_sigma > 0.0:
                noise.append(rng.normal(0.0, sim.noise_sigma, (k, 3)))
            if sim.length_sigma > 0.0:
                drawn_lengths.append(rng.normal(length[i], sim.length_sigma, k))
            scores.append(rng.uniform(0.5, 1.0, k))
        if kept:
            keep = np.concatenate(kept)
            veh, ks, pos = veh[keep], ks[keep], pos[keep]
        if noise:
            pos = pos + np.concatenate(noise)

        block = np.empty((len(veh), len(BOX_COLUMNS)))
        block[:, X : Z + 1] = pos @ from_ned_rot.T + from_ned_trans
        block[:, L] = (
            np.clip(np.concatenate(drawn_lengths), 0.1, 49.9) if drawn_lengths else length[veh]
        )
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
        ground_truth=tally_script(script, sim, classes=table.n_classes),
        script=tuple(script),
        registry=registry,
    )


def tally_script(
    script: Sequence[ScriptedVehicle],
    sim: SimConfig,
    classes: int = 6,
) -> TmcTable:
    """Ground truth straight from the script: one count per vehicle,
    binned by zone entry time. Deliberately shares no code with the
    counting pipeline so it can serve as an independent oracle."""
    table = empty_table(sim.bin_seconds, sim.session, classes)
    counts = np.array(table.counts)
    t0, t1 = sim.session
    approach_index = {a: i for i, a in enumerate(Approach)}
    movement_index = {m: i for i, m in enumerate(Movement)}
    for v in script:
        if not t0 <= v.entry_time < t1:
            raise ScriptValidationError(
                f"entry_time {v.entry_time} outside session [{t0}, {t1})"
            )
        b = int(math.floor((v.entry_time - t0) / sim.bin_seconds))
        counts[b, approach_index[v.approach], movement_index[v.movement],
               v.vehicle_class - 1] += 1
    return TmcTable(sim.bin_seconds, sim.session, counts)


@dataclass(frozen=True)
class Scenario:
    name: str
    script: tuple[ScriptedVehicle, ...]
    sim: SimConfig
    cfg: IntersectionConfig
    expects_exact: bool  # counting should reproduce ground truth exactly


def _v(cls, a, m, entry, speed, length=None, zone_id=None):
    return ScriptedVehicle(cls, a, m, entry, speed, length, zone_id)


def scenario_suite() -> tuple[Scenario, ...]:
    """Bundled stress scenarios for the counting engine."""
    ref = build_reference_config()
    nb, sb, eb, wb = Approach.NB, Approach.SB, Approach.EB, Approach.WB
    left, thru, right = Movement.LEFT, Movement.THRU, Movement.RIGHT

    ideal_script = (
        _v(3, nb, left, 5.02, 8.0, 4.5),
        _v(3, nb, thru, 20.03, 12.0, 4.4, "NB_T1"),
        _v(4, nb, thru, 24.11, 12.0, 6.0, "NB_T2"),
        _v(3, nb, thru, 28.19, 12.0, 4.7, "NB_T1"),
        _v(5, eb, right, 55.5, 7.0, 9.5),
        _v(3, eb, thru, 70.04, 9.0, 4.2),
        _v(3, eb, thru, 74.2, 9.0, 4.9),
        _v(3, nb, right, 90.1, 6.0, 4.6),
        _v(4, nb, right, 95.3, 6.0, 5.5),
        _v(3, sb, thru, 120.07, 10.0, 4.3),
        _v(3, sb, thru, 125.13, 10.0, 4.8),
        _v(3, wb, left, 152.2, 8.0, 4.1),
        _v(6, wb, thru, 171.2, 9.0, 14.0),
        _v(3, sb, right, 200.4, 8.0, 4.5),
    )

    slow_heavy_script = (
        _v(5, nb, thru, 16.05, 3.0, 9.5, "NB_T1"),
        _v(5, nb, thru, 21.07, 3.0, 10.5, "NB_T1"),
        _v(5, nb, thru, 26.09, 3.0, 11.0, "NB_T1"),
        _v(5, nb, thru, 31.11, 3.0, 9.8, "NB_T1"),
        _v(6, sb, thru, 116.03, 3.0, 14.0, "SB_T1"),
        _v(6, sb, thru, 121.05, 3.0, 16.0, "SB_T1"),
        _v(6, sb, thru, 126.07, 3.0, 15.0, "SB_T1"),
        _v(3, nb, thru, 40.013, 15.0, 4.5, "NB_T2"),
    )

    long_range_script = (
        _v(3, eb, thru, 67.1, 10.0, 4.5),
        _v(3, eb, thru, 71.3, 10.0, 4.6),
        _v(4, eb, thru, 75.5, 10.0, 6.2),
        _v(3, wb, thru, 167.2, 10.0, 4.4),
        _v(3, wb, thru, 171.4, 10.0, 4.7),
        _v(3, nb, thru, 20.1, 10.0, 4.5, "NB_T1"),
        _v(3, nb, thru, 24.3, 10.0, 4.8, "NB_T1"),
    )

    # Entry gaps sit just above residence + threshold, so the trigger
    # series lands barely on the "two vehicles" side of each split.
    burst_script = (
        _v(3, nb, thru, 20.03, 10.0, 4.5, "NB_T1"),
        _v(3, nb, thru, 22.08, 10.0, 4.6, "NB_T1"),
        _v(3, nb, thru, 24.13, 10.0, 4.4, "NB_T1"),
        _v(3, nb, thru, 26.18, 10.0, 4.7, "NB_T1"),
        _v(3, eb, right, 40.05, 8.0, 4.5),
        _v(3, eb, right, 43.25, 8.0, 4.6),
        _v(3, eb, right, 46.45, 8.0, 4.4),
    )

    dual_overlap_script = (
        _v(3, nb, thru, 18.07, 11.0, 4.5, "NB_T1"),
        _v(3, nb, thru, 23.11, 11.0, 4.6, "NB_T1"),
        _v(4, nb, thru, 28.15, 11.0, 6.1, "NB_T1"),
        _v(3, wb, thru, 70.09, 9.0, 4.4),
        _v(3, wb, thru, 75.17, 9.0, 4.8),
    )

    return (
        Scenario("ideal", ideal_script, SimConfig(seed=101), ref, True),
        Scenario("slow_heavy", slow_heavy_script, SimConfig(seed=202), ref, True),
        Scenario(
            "eb_wb_long_range",
            long_range_script,
            SimConfig(seed=303),
            build_long_range_config(),
            False,
        ),
        Scenario("burst", burst_script, SimConfig(seed=404), ref, True),
        Scenario(
            "dual_overlap",
            dual_overlap_script,
            SimConfig(seed=505, noise_sigma=0.05),
            ref,
            True,
        ),
    )


def scenario_by_name(name: str) -> Scenario:
    for sc in scenario_suite():
        if sc.name == name:
            return sc
    raise ScriptValidationError(
        f"unknown scenario {name!r}; available: "
        + ", ".join(sc.name for sc in scenario_suite())
    )


def random_script(
    cfg: IntersectionConfig,
    rng: np.random.Generator,
    n_vehicles: int,
    sim: SimConfig,
) -> list[ScriptedVehicle]:
    """Random script whose per-zone exit-to-entry headways stay >= 2.0 s,
    whose vehicles cross only during phases permitting their movement,
    and whose entries keep clear of bin boundaries. Under those
    constraints the counting pipeline must reproduce the ground truth
    exactly; the generator may return fewer vehicles if zones saturate.
    """
    targets = cfg.countable_targets()
    t0, t1 = sim.session
    boundaries = [
        t0 + k * sim.bin_seconds
        for k in range(1, int(math.ceil((t1 - t0) / sim.bin_seconds)))
    ]
    last_exit: dict[str, float] = {}
    vehicles: list[ScriptedVehicle] = []
    classes = cfg.class_table.n_classes
    for _ in range(n_vehicles):
        for _attempt in range(200):
            zone, (approach, movement) = targets[int(rng.integers(len(targets)))]
            speed = float(rng.uniform(3.0, 20.0))
            residence = 2.0 * zone.half_length / speed
            if movement is Movement.RIGHT:
                windows = [(t0, t1)]
            else:
                windows = [
                    (iv.start, iv.end)
                    for iv in cfg.schedule.intervals
                    if (approach, movement) in iv.permitted
                ]
                if not windows:
                    continue
            w0, w1 = windows[int(rng.integers(len(windows)))]
            lo = max(w0 + 0.05, t0 + 0.5, last_exit.get(zone.id, -math.inf) + 2.1)
            hi = min(w1, t1 - 0.5) - residence - 0.4
            if hi <= lo:
                continue
            entry = float(rng.uniform(lo, hi))
            # GT bins by entry; the first trigger may lag one frame, so
            # keep the whole residence away from bin boundaries.
            if any(b - 0.5 < entry <= b or entry < b < entry + residence + 0.5 for b in boundaries):
                continue
            vclass = int(rng.integers(1, classes + 1))
            vehicles.append(
                ScriptedVehicle(vclass, approach, movement, entry, speed, None, zone.id)
            )
            last_exit[zone.id] = entry + residence
            break
    vehicles.sort(key=lambda v: v.entry_time)
    return vehicles


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
                zone_id=None if v.get("zone_id") is None else str(v["zone_id"]),
            )
            for v in doc["vehicles"]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad script document: {exc}") from None
    return vehicles


def load_script(path) -> tuple[ScriptedVehicle, ...]:
    with open(path, encoding="utf-8") as fh:
        try:
            return script_from_obj(json.load(fh))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"script is not valid JSON: {exc}") from None
        except RecursionError as exc:  # decoding, or quoting a value in a reason
            raise SchemaError(f"script is nested too deeply: {exc}") from None
