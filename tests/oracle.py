"""Scalar restatements of the counting rules, used as test oracles.

The production pipeline works on columns; everything here goes one
point, one detection, one zone, one trigger, one simulated vehicle and
one written box at a time, so a test can check the two against each
other. The ECEF -> geodetic inverse lives here too: only tests need it.
"""

from __future__ import annotations

import json
import math

import numpy as np

from lidartmc import counting
from lidartmc.counting import (
    Events,
    LogTriggers,
    MovementEvent,
    Triggers,
    _events,
    extract_triggers,
)
from lidartmc.errors import UserInputError
from lidartmc.geo import (
    MAX_COORDINATE_M,
    WGS84_A,
    WGS84_E2,
    WGS84_F,
    FrameRegistry,
    GeodeticPoint,
    NedPoint,
    RigidTransform,
    compose,
    lla_to_ecef,
    ned_rotation,
    wrap_angle,
)
from lidartmc.ingest import merge_streams, open_detection_log
from lidartmc.intersection import (
    APPROACH_INDEX,
    MOVEMENT_INDEX,
    Approach,
    CountingParams,
    Movement,
    PhaseSchedule,
    Zone,
    ZoneKind,
)
from lidartmc.simgen import (
    MAX_SPEED_MPS,
    PATH_LEAD_M,
    SENSOR_HEIGHT_M,
    VISIBILITY_M,
    _CLASS_HEIGHTS,
    _CLASS_WIDTHS,
)
from lidartmc.stream import BOX_COLUMNS, MAX_DIMENSION_M, SCORE, Frame
from lidartmc.tables import TmcTable, render_tmc_csv, zero_grid


WGS84_B = WGS84_A * (1.0 - WGS84_F)


def ecef_to_lla(p) -> GeodeticPoint:
    """(3,) ECEF point -> WGS84 geodetic, Bowring start + fixed-point
    refinement.

    Accurate to well under 1e-6 m for any point near the Earth's surface.
    Longitude at the poles is 0 by convention.
    """
    x, y, z = (float(v) for v in p)
    rho = math.hypot(x, y)
    if rho < 1e-9:
        # On the polar axis; latitude sign follows z.
        return GeodeticPoint(math.copysign(90.0, z), 0.0, abs(z) - WGS84_B)
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


def sensor_to_ned(p, pose: RigidTransform, registry: FrameRegistry) -> np.ndarray:
    """One sensor-frame point in NED: R_ned @ (R_s @ p + t_s - origin_ecef)."""
    ecef = pose.rotation @ np.asarray(p, dtype=np.float64) + pose.translation
    return registry.ned_rotation().rotation @ (ecef - registry.origin_ecef())


def point_in_zone(p: NedPoint, z: Zone) -> bool:
    """Boundary-inclusive containment in the zone's local axes."""
    dn = p.north - z.center.north
    de = p.east - z.center.east
    c, s = math.cos(z.yaw), math.sin(z.yaw)
    u = dn * c + de * s
    v = -dn * s + de * c
    return abs(u) <= z.half_length and abs(v) <= z.half_width


def permissible(a: Approach, m: Movement, t: float, s: PhaseSchedule) -> bool:
    """Whether (a, m) may move at time t. Right turns always may."""
    s0, s1 = s.session
    if not (s0 <= t < s1):
        raise UserInputError(f"t={t} outside schedule session [{s0}, {s1})")
    if m is Movement.RIGHT:
        return True
    for iv in s.intervals:
        if iv.start <= t < iv.end:
            return (a, m) in iv.permitted
    return False


def classify(table, length: float) -> int:
    """The id of the class whose ``[lower, upper)`` band holds a box
    length, one band at a time."""
    if not (math.isfinite(length) and length > 0):
        raise UserInputError(f"length must be positive and finite, got {float(length)!r}")
    for class_id in range(1, table.n_classes + 1):
        lower, upper = table.band(class_id)
        if lower <= length < upper:
            return class_id
    raise AssertionError(f"no class holds length {length!r}")


BOX_FIELD_NAMES = ("x", "y", "z", "length", "width", "height", "heading")


def number_fault(value) -> str | None:
    """Why a decoded JSON value is not a number that a float holds, or None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        if isinstance(value, (list, dict)):
            return f"expected a number, got {'a list' if isinstance(value, list) else 'an object'}"
        return f"expected a number, got {value!r}"
    try:
        float(value)
    except OverflowError as exc:
        return str(exc)
    return None


def line_reason(line, sensor: str | None) -> str | None:
    """Why a detection log line is skipped, or None, one check and one
    value at a time, given the log's sensor so far (None before its first
    good line).

    The first failed check gives the reason, in this order: the line
    decodes to a JSON object; it has the keys t, frame_id and detections;
    t is a JSON number that a float holds, and finite; detections is a
    list; frame_id is a string, and the sensor. Then detection by
    detection: one that is not an object or lacks a required key; else
    its first value, x to heading and then a given score, that is not a
    number; else its first value that is not finite, the first of x, y
    and z further than MAX_COORDINATE_M from zero, the first of length,
    width and height outside (0, MAX_DIMENSION_M), and a given score
    outside [0, 1].
    """
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        return f"bad frame line: {exc}"
    if not isinstance(obj, dict):
        return "frame line must be a JSON object"
    for key in ("t", "frame_id", "detections"):
        if key not in obj:
            return f"bad frame line: {key!r}"
    fault = number_fault(obj["t"])
    if fault is not None:
        return f"bad frame line: {fault}"
    if not math.isfinite(obj["t"]):
        return f"non-finite timestamp {obj['t']!r}"
    if not isinstance(obj["detections"], list):
        return "detections must be a list"
    fid = obj["frame_id"]
    if not isinstance(fid, str):
        return f"frame_id must be a string, got {fid!r}"
    if sensor is not None and fid != sensor:
        return f"frame_id {fid!r} does not match expected {sensor!r}"
    for d in obj["detections"]:
        if not isinstance(d, dict):
            return f"detection must be an object, got {d!r}"
        missing = [k for k in BOX_COLUMNS[:SCORE] if k not in d]
        if missing:
            return f"detection missing keys {missing}"
        score = d.get("score")
        values = [d[k] for k in BOX_COLUMNS[:SCORE]] + ([] if score is None else [score])
        for v in values:
            fault = number_fault(v)
            if fault is not None:
                return f"non-numeric detection field: {fault}"
        vals = [float(v) for v in values[:SCORE]]
        for name, v in zip(BOX_FIELD_NAMES, vals):
            if not math.isfinite(v):
                return f"{name} must be finite, got {v!r}"
        for name, v in zip(BOX_FIELD_NAMES[:3], vals[:3]):
            if abs(v) > MAX_COORDINATE_M:
                return f"{name} must be within {MAX_COORDINATE_M:g} m of zero, got {v}"
        for name, v in zip(BOX_FIELD_NAMES[3:6], vals[3:6]):
            if not 0.0 < v < MAX_DIMENSION_M:
                return f"{name} must be in (0, {MAX_DIMENSION_M}), got {v}"
        if score is not None and not 0.0 <= float(score) <= 1.0:
            return f"score {float(score)} outside [0, 1]"
    return None


def box_rows(dets: list) -> list[list[float]]:
    """The rows of a line's valid boxes: the heading wrapped, an absent
    score NaN."""
    return [[*(float(d[k]) for k in BOX_COLUMNS[:6]), wrap_angle(float(d["yaw"])),
             math.nan if d.get("score") is None else float(d["score"])] for d in dets]


def read_frames(path) -> list[tuple[float, str, list[dict]]]:
    """(t, frame_id, detections) of every line of a clean log."""
    with open_detection_log(path) as fh:
        return [
            (float(obj["t"]), obj["frame_id"], obj["detections"])
            for obj in (json.loads(line) for line in fh if line.strip())
        ]


def ned_points(dets, fid, registry) -> list[NedPoint]:
    """The NED centre of each of one sensor's detections."""
    ned_rot = registry.ned_rotation().rotation
    pose = registry.transform_for(fid)
    rot = ned_rot @ pose.rotation
    trans = ned_rot @ (pose.translation - registry.origin_ecef())
    points = []
    for d in dets:
        p = rot @ np.array([d["x"], d["y"], d["z"]]) + trans
        points.append(NedPoint(float(p[0]), float(p[1]), float(p[2])))
    return points


def zone_triggers(logs, cfg, registry) -> dict[str, list[tuple[float, float, str]]]:
    """Per-zone (t, length, frame_id) triggers, one detection at a time."""
    frames = []
    for stream, path in enumerate(logs):
        for pos, (t, fid, dets) in enumerate(read_frames(path)):
            frames.append(((t, fid, stream, pos), dets))
    frames.sort(key=lambda kv: kv[0])
    out = {z.id: [] for z in cfg.zones}
    for (t, fid, _, _), dets in frames:
        for d, point in zip(dets, ned_points(dets, fid, registry)):
            for z in cfg.zones:
                if point_in_zone(point, z) and any(
                    permissible(a, m, t, cfg.schedule) for a, m in z.bindings
                ):
                    out[z.id].append((t, float(d["l"]), fid))
    return out


def point_triggers(north, east, t, cfg) -> tuple[list[tuple[int, int]], list[float]]:
    """``counting.zone_triggers`` one point and one zone at a time: the
    (row, zone index) of each trigger, and the time of each zone-contained
    point outside the schedule's session."""
    s0, s1 = cfg.schedule.session
    triggers, dropped = [], []
    for row, (n, e, ti) in enumerate(zip(north, east, t)):
        zones = [j for j, z in enumerate(cfg.zones) if point_in_zone(NedPoint(n, e, 0.0), z)]
        if zones and not s0 <= ti < s1:
            dropped.append(ti)
            continue
        triggers += [(row, j) for j in zones if any(
            permissible(a, m, ti, cfg.schedule) for a, m in cfg.zones[j].bindings)]
    return triggers, dropped


def outside_session_times(logs, cfg, registry) -> list[float]:
    """The frame time of each detection that lies in some zone at a time
    outside the schedule's session, log by log, one detection at a time.
    A sensor the registry lacks has none."""
    s0, s1 = cfg.schedule.session
    out = []
    for path in logs:
        for t, fid, dets in read_frames(path):
            if s0 <= t < s1 or fid not in registry.frame_ids:
                continue
            for point in ned_points(dets, fid, registry):
                if any(point_in_zone(point, z) for z in cfg.zones):
                    out.append(t)
    return out


def cluster(triggers, min_headway: float) -> list[tuple[float, float]]:
    """(first t, longest box) of each vehicle, one trigger at a time: a
    trigger joins the last vehicle when it comes less than
    ``min_headway`` after that vehicle's last trigger."""
    clusters = []
    for t, length, _fid in triggers:
        if clusters and t - clusters[-1][2] < min_headway:
            first_t, max_len, _ = clusters[-1]
            clusters[-1] = (first_t, max(max_len, length), t)
        else:
            clusters.append((t, length, t))
    return [(first_t, max_len) for first_t, max_len, _ in clusters]


def count_events(triggers, cfg, params: CountingParams) -> list[MovementEvent]:
    """The events of per-zone (t, length, frame_id) triggers of the
    ingress and right-surrogate zones, one vehicle at a time, ordered by
    time, then ingress before surrogate, then zone id."""
    groups = (
        [(z, z.primary_binding) for z in cfg.ingress_zones],
        [(z, z.bindings[0]) for z in cfg.right_surrogate_zones],
    )
    tagged = []
    for group, targets in enumerate(groups):
        for z, (approach, movement) in targets:
            for first_t, max_len in cluster(triggers[z.id], params.min_headway_for(z)):
                cls = classify(cfg.class_table, max_len)
                event = MovementEvent(approach, movement, first_t, cls, max_len)
                tagged.append((first_t, group, z.id, event))
    tagged.sort(key=lambda kv: kv[:3])
    return [kv[3] for kv in tagged]


def empty_table(bin_seconds: float, session, classes: int = 6) -> TmcTable:
    """The table of zero counts on a session."""
    return TmcTable(bin_seconds, session, zero_grid(bin_seconds, session, classes))


def bin_events(events, bin_seconds: float, session, classes: int = 6) -> TmcTable:
    """The count table of in-session events, one event at a time."""
    counts = zero_grid(bin_seconds, session, classes)
    for ev in events:
        b = min(math.floor((ev.t - session[0]) / bin_seconds), len(counts) - 1)
        counts[b, APPROACH_INDEX[ev.approach], MOVEMENT_INDEX[ev.movement],
               ev.vehicle_class - 1] += 1
    return TmcTable(bin_seconds, session, counts)


def events_csv(events) -> str:
    """The events.csv text, one event at a time."""
    return "".join(["t,approach,movement,class,length\n", *(
        f"{ev.t!r},{ev.approach.value},{ev.movement.value},{ev.vehicle_class},"
        f"{ev.representative_length!r}\n" for ev in events)])


def counting_meta(triggers, events, cfg) -> dict:
    """The manifest's ``counting`` block of per-zone triggers and events."""
    return {
        "triggers_per_zone": {zid: len(trigs) for zid, trigs in sorted(triggers.items())},
        "ignored_egress_zones": sorted(
            z.id for z in cfg.zones if z.kind is ZoneKind.EGRESS and not z.is_right_surrogate
        ),
        "shared_left_uturn_zones": sorted(
            z.id for z in cfg.ingress_zones
            if {m for _, m in z.bindings} >= {Movement.LEFT, Movement.UTURN}
        ),
        "events": len(events),
    }


def estimate(logs, cfg, registry, bin_seconds: float = 300.0):
    """What ``lidartmc estimate`` writes for clean logs: the tmc.csv and
    events.csv texts and the manifest's ``counting`` block."""
    params = cfg.params or CountingParams()
    triggers = zone_triggers(logs, cfg, registry)
    events = count_events(triggers, cfg, params)
    table = bin_events(events, bin_seconds, cfg.schedule.session, cfg.class_table.n_classes)
    return render_tmc_csv(table), events_csv(events), counting_meta(triggers, events, cfg)


def merge_frames(streams) -> list[Frame]:
    """``merge_streams`` one frame at a time: the frames of every input,
    input after input, through Python's stable sort by (time, frame_id)."""
    return sorted((f for s in streams for f in s), key=lambda f: (f.t, f.frame_id))


def merged_triggers(streams, cfg) -> Triggers:
    """The triggers of NED streams merged by ``merge_streams``: each zone's
    rows of ``extract_triggers``, zone after zone."""
    per_zone = extract_triggers(merge_streams(streams), cfg).values()
    return Triggers(*map(np.concatenate, zip(*(vars(rows).values() for rows in per_zone))))


def count_merged(streams, cfg) -> tuple[Events, dict]:
    """What ``count_session`` gives for the :func:`sensor_logs` of NED
    streams, by the path that merges boxes: the triggers of the merged stream
    (:func:`merged_triggers`), then the events of the ingress and
    right-surrogate zones."""
    triggers = merged_triggers(streams, cfg)
    per_zone = {z.id: triggers.take(triggers.zone == i) for i, z in enumerate(cfg.zones)}
    counted = [cfg.zones.index(z) for z in cfg.ingress_zones + cfg.right_surrogate_zones]
    events = _events(triggers.take(np.isin(triggers.zone, counted)), cfg, cfg.params)
    return events, counting_meta(per_zone, events, cfg)


def sensor_logs(streams, cfg) -> list[LogTriggers]:
    """What the parse cut gives for NED streams: the triggers of each
    sensor of each stream by ``counting.zone_triggers`` over its rows,
    one ``LogTriggers`` a sensor, stream after stream."""
    logs = []
    for stream in streams:
        row_t = np.repeat(stream.t, np.diff(stream.offsets))
        row_sensor = np.repeat(stream.sensor, np.diff(stream.offsets))
        for code, fid in enumerate(stream.sensors):
            rows = row_sensor == code
            triggers, dropped = counting.zone_triggers(stream.boxes[rows], row_t[rows], 0, cfg)
            logs.append(LogTriggers(fid, stream.t[stream.sensor == code], triggers, dropped))
    return logs


def trigger_table(triggers, cfg) -> Triggers:
    """One table of per-zone lists of (t, length, frame_id) triggers, zone
    after zone in the config's order, each frame id coded by its index in
    the sorted ids."""
    rows = [(i, *trig) for i, z in enumerate(cfg.zones) for trig in triggers.get(z.id, ())]
    zone, t, length, sensor = zip(*rows) if rows else ((), (), (), ())
    code = {fid: i for i, fid in enumerate(sorted(set(sensor)))}
    return Triggers(np.array(zone, dtype=np.intp), np.array(t, dtype=float),
                    np.array(length, dtype=float),
                    np.array([code[fid] for fid in sensor], dtype=np.intp))


def trigger_series(triggers, cfg, zone_id: str) -> Triggers:
    """The table of one zone's (t, length, frame_id) triggers."""
    return trigger_table({zone_id: triggers}, cfg)


def frame_to_json_line(frame: Frame) -> str:
    """One log line: a dict per box and one ``json.dumps``; a NaN score
    is left out."""
    dets = []
    for row in frame.detections.tolist():
        obj = dict(zip(BOX_COLUMNS, row))
        if math.isnan(row[SCORE]):
            del obj["score"]
        dets.append(obj)
    return json.dumps({"t": frame.t, "frame_id": frame.frame_id, "detections": dets})


def governing_zone(v, cfg) -> Zone:
    """The zone that counts a scripted vehicle: its named zone, which must
    count its binding, else the first countable zone with that binding."""
    targets = cfg.countable_targets()
    binding = (v.approach, v.movement)
    movement = f"{v.approach.value}/{v.movement.value}"
    if v.zone_id is not None:
        named = [z for z in cfg.zones if z.id == v.zone_id]
        if not named:
            raise UserInputError(f"unknown zone_id {v.zone_id!r}")
        if (named[0], binding) not in targets:
            raise UserInputError(f"zone {v.zone_id!r} cannot count {movement}")
        return named[0]
    for zone, b in targets:
        if b == binding:
            return zone
    raise UserInputError(f"no countable zone for {movement}; "
                         "the movement would be miscounted or missed")


def resolve_script(script, cfg, rng) -> list[tuple]:
    """(vehicle, zone, length) of each scripted vehicle, checked and drawn
    one vehicle at a time in script order: class, speed, governing zone,
    length (of the class and below the box limit; drawn from inside the
    class band, 10 m long for the last class, when the script leaves it
    out, and then the band must draw only below the limit), then whether
    the vehicle clears its zone within the session. The first failure
    raises."""
    table = cfg.class_table
    t0, t1 = cfg.schedule.session
    resolved = []
    for v in script:
        if not 1 <= v.vehicle_class <= table.n_classes:
            raise UserInputError(f"vehicle class {v.vehicle_class} unknown")
        if not 0.0 < v.speed <= MAX_SPEED_MPS:
            raise UserInputError(f"speed {v.speed} outside (0, {MAX_SPEED_MPS}]")
        zone = governing_zone(v, cfg)
        lower, upper = table.band(v.vehicle_class)
        if v.length is None:
            upper = upper if math.isfinite(upper) else lower + 10.0
            if upper - 0.02 >= MAX_DIMENSION_M:
                raise UserInputError(f"class-{v.vehicle_class} lengths are drawn up to "
                                     f"the box limit {MAX_DIMENSION_M} m")
            length = float(rng.uniform(lower + 0.02, upper - 0.02))
        elif classify(table, v.length) != v.vehicle_class:
            raise UserInputError(
                f"length {v.length} is not a class-{v.vehicle_class} length")
        elif v.length >= MAX_DIMENSION_M:
            raise UserInputError(
                f"length {v.length} is not below the box limit {MAX_DIMENSION_M} m")
        else:
            length = v.length
        exit_time = v.entry_time + 2.0 * zone.half_length / v.speed
        if not (t0 <= v.entry_time < t1 and t0 <= exit_time < t1):
            raise UserInputError(
                f"vehicle at entry_time {v.entry_time} does not clear its zone "
                f"within session [{t0}, {t1})")
        resolved.append((v, zone, length))
    return resolved


def simulate_frames(script, cfg, sim) -> dict[str, tuple[Frame, ...]]:
    """``simgen.simulate``'s frames, built one vehicle at a time."""
    rng = np.random.default_rng(sim.seed)
    t0, t1 = cfg.schedule.session
    resolved = []  # (vehicle, zone, length, entry_pos, direction, t_start, t_end)
    for v, zone, length in resolve_script(script, cfg, rng):
        direction = np.array([math.cos(zone.yaw), math.sin(zone.yaw), 0.0])
        entry_pos = np.array(
            [zone.center.north, zone.center.east, 0.0]
        ) - direction * zone.half_length
        t_start = v.entry_time - PATH_LEAD_M / v.speed
        t_end = v.entry_time + (2.0 * zone.half_length + PATH_LEAD_M) / v.speed
        resolved.append((v, zone, length, entry_pos, direction, t_start, t_end))

    registry = FrameRegistry(cfg.ned_origin)
    ecef_from_ned = RigidTransform(
        ned_rotation(cfg.ned_origin).rotation.T,
        lla_to_ecef(cfg.ned_origin),
    )
    period = 1.0 / sim.frame_rate_hz
    frames_by_sensor = {}
    for sensor in sim.sensors:
        to_ned = sensor.ned_transform()
        registry.register(sensor.frame_id, compose(ecef_from_ned, to_ned))
        rot_total = ned_rotation(cfg.ned_origin).rotation @ registry.transform_for(
            sensor.frame_id
        ).rotation
        yaw_corr = math.atan2(rot_total[1, 0], rot_total[0, 0])
        from_ned_rot = to_ned.rotation.T
        from_ned_trans = -from_ned_rot @ to_ned.translation
        sensor_pos = np.array([sensor.north, sensor.east, -SENSOR_HEIGHT_M])

        boxes_at = {}  # frame tick -> boxes, in script order
        for v, zone, length, entry_pos, direction, t_start, t_end in resolved:
            lo = max(t_start, t0)
            hi = min(t_end, t1 - 1e-9)
            k_lo = int(math.ceil((lo - t0 - sensor.phase) / period - 1e-12))
            k_hi = int(math.floor((hi - t0 - sensor.phase) / period + 1e-12))
            k_lo = max(k_lo, 0)
            if k_hi < k_lo:
                continue
            ks = np.arange(k_lo, k_hi + 1)
            ts = t0 + sensor.phase + ks * period
            pos = entry_pos[None, :] + direction[None, :] * (
                v.speed * (ts - v.entry_time)
            )[:, None]
            height = _CLASS_HEIGHTS.get(v.vehicle_class, 1.8)
            width = _CLASS_WIDTHS.get(v.vehicle_class, 2.0)
            pos[:, 2] = -height / 2.0
            visible = np.linalg.norm(pos - sensor_pos[None, :], axis=1) <= VISIBILITY_M
            ks, ts, pos = ks[visible], ts[visible], pos[visible]
            if len(ks) and sim.dropout > 0.0:
                keep = rng.random(len(ks)) >= sim.dropout
                ks, ts, pos = ks[keep], ts[keep], pos[keep]
            if not len(ks):
                continue
            if sim.noise_sigma > 0.0:
                pos = pos + rng.normal(0.0, sim.noise_sigma, pos.shape)
            lengths = np.full(len(ks), length)
            scores = rng.uniform(0.5, 1.0, len(ks))
            local = pos @ from_ned_rot.T + from_ned_trans
            heading_sensor = wrap_angle(zone.yaw - yaw_corr)
            for k, xyz, l, s in zip(ks.tolist(), local.tolist(), lengths.tolist(),
                                    scores.tolist()):
                boxes_at.setdefault(k, []).append([*xyz, l, width, height, heading_sensor, s])
        frames_by_sensor[sensor.frame_id] = tuple(
            Frame(sensor.frame_id, t0 + sensor.phase + k * period,
                  np.array(boxes_at[k], dtype=np.float64))
            for k in sorted(boxes_at)
        )
    return frames_by_sensor

