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

from lidartmc.counting import (
    MovementEvent,
    TriggerSeries,
    estimate_tmc,
    events_to_csv,
)
from lidartmc.errors import TimeOutsideScheduleError
from lidartmc.geo import (
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
from lidartmc.ingest import BOX_COLUMNS, SCORE, Frame, open_detection_log
from lidartmc.intersection import (
    Approach,
    CountingParams,
    Movement,
    PhaseSchedule,
    Zone,
    ZoneKind,
)
from lidartmc.report import render_tmc_csv
from lidartmc.simgen import (
    _CLASS_HEIGHTS,
    _CLASS_WIDTHS,
    _draw_length,
    _governing_zone,
)


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
        raise TimeOutsideScheduleError(t, s.session)
    if m is Movement.RIGHT:
        return True
    for iv in s.intervals:
        if iv.start <= t < iv.end:
            return (a, m) in iv.permitted
    return False


def read_frames(path) -> list[tuple[float, str, list[dict]]]:
    """(t, frame_id, detections) of every line of a clean log."""
    with open_detection_log(path) as fh:
        return [
            (float(obj["t"]), obj["frame_id"], obj["detections"])
            for obj in (json.loads(line) for line in fh if line.strip())
        ]


def zone_triggers(logs, cfg, registry) -> dict[str, list[tuple[float, float, str]]]:
    """Per-zone (t, length, frame_id) triggers, one detection at a time."""
    frames = []
    for stream, path in enumerate(logs):
        for pos, (t, fid, dets) in enumerate(read_frames(path)):
            frames.append(((t, fid, stream, pos), dets))
    frames.sort(key=lambda kv: kv[0])
    ned_rot = registry.ned_rotation().rotation
    origin = registry.origin_ecef()
    out = {z.id: [] for z in cfg.zones}
    for (t, fid, _, _), dets in frames:
        pose = registry.transform_for(fid)
        rot = ned_rot @ pose.rotation
        trans = ned_rot @ (pose.translation - origin)
        for d in dets:
            p = rot @ np.array([d["x"], d["y"], d["z"]]) + trans
            point = NedPoint(float(p[0]), float(p[1]), float(p[2]))
            for z in cfg.zones:
                if point_in_zone(point, z) and any(
                    permissible(a, m, t, cfg.schedule) for a, m in z.bindings
                ):
                    out[z.id].append((t, float(d["l"]), fid))
    return out


def cluster(triggers, min_headway: float, params: CountingParams) -> list[tuple[float, float]]:
    """(first t, longest box) of each vehicle, one trigger at a time."""
    clusters = []
    for t, length, fid in triggers:
        if clusters:
            first_t, max_len, last_t, last_fid = clusters[-1]
            gap = t - last_t
            if (
                gap < params.cluster_gap
                or (params.absorb and gap < min_headway)
                or (fid != last_fid and gap < params.dedup_window)
            ):
                clusters[-1] = (first_t, max(max_len, length), t, fid)
                continue
        clusters.append((t, length, t, fid))
    return [(first_t, max_len) for first_t, max_len, _, _ in clusters]


def estimate(logs, cfg, registry, bin_seconds: float = 300.0):
    """What ``lidartmc estimate`` writes for clean logs: the tmc.csv and
    events.csv texts and the manifest's ``counting`` block."""
    params = cfg.params or CountingParams()
    triggers = zone_triggers(logs, cfg, registry)
    groups = (
        [(z, z.primary_binding) for z in cfg.ingress_zones],
        [(z, z.bindings[0]) for z in cfg.right_surrogate_zones],
    )
    tagged = []  # ingress events before surrogate events at one time
    for group, targets in enumerate(groups):
        for z, (approach, movement) in targets:
            for first_t, max_len in cluster(triggers[z.id], params.min_headway_for(z), params):
                cls = cfg.class_table.classify(max_len).id
                event = MovementEvent(approach, movement, first_t, cls, max_len)
                tagged.append((first_t, group, z.id, event))
    tagged.sort(key=lambda kv: kv[:3])
    events = [kv[3] for kv in tagged]
    table = estimate_tmc(events, bin_seconds, cfg.schedule.session, cfg.class_table.n_classes)
    meta = {
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
    return render_tmc_csv(table), events_to_csv(events), meta


def trigger_series(triggers) -> TriggerSeries:
    """Columns of (t, length, frame_id) triggers."""
    t, length, sensor = zip(*triggers) if triggers else ((), (), ())
    return TriggerSeries(np.array(t, dtype=float), np.array(length, dtype=float),
                         np.array(sensor, dtype=str))


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


def simulate_frames(script, cfg, sim) -> dict[str, tuple[Frame, ...]]:
    """``simgen.simulate``'s frames, built one vehicle at a time."""
    rng = np.random.default_rng(sim.seed)
    table = cfg.class_table
    t0, t1 = sim.session
    resolved = []  # (vehicle, zone, length, entry_pos, direction, t_start, t_end)
    targets = cfg.countable_targets()
    for v in script:
        zone = _governing_zone(v, cfg, targets)
        length = _draw_length(v, table, rng)
        direction = np.array([math.cos(zone.yaw), math.sin(zone.yaw), 0.0])
        entry_pos = np.array(
            [zone.center.north, zone.center.east, 0.0]
        ) - direction * zone.half_length
        t_start = v.entry_time - sim.path_lead / v.speed
        t_end = v.entry_time + (2.0 * zone.half_length + sim.path_lead) / v.speed
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
        sensor_pos = np.array([sensor.north, sensor.east, -sensor.height])

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
            visible = np.linalg.norm(pos - sensor_pos[None, :], axis=1) <= sensor.visibility_radius
            ks, ts, pos = ks[visible], ts[visible], pos[visible]
            if len(ks) and sim.dropout > 0.0:
                keep = rng.random(len(ks)) >= sim.dropout
                ks, ts, pos = ks[keep], ts[keep], pos[keep]
            if not len(ks):
                continue
            if sim.noise_sigma > 0.0:
                pos = pos + rng.normal(0.0, sim.noise_sigma, pos.shape)
            if sim.length_sigma > 0.0:
                lengths = np.clip(
                    rng.normal(length, sim.length_sigma, len(ks)), 0.1, 49.9
                )
            else:
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

