"""Scalar restatements of the counting rules, used as test oracles.

The production pipeline works on columns; everything here goes one
detection, one zone and one trigger at a time, so a test can check the
two against each other.
"""

from __future__ import annotations

import json
import math

import numpy as np

from lidartmc.counting import (
    CountingParams,
    MovementEvent,
    TriggerSeries,
    estimate_tmc,
    events_to_csv,
)
from lidartmc.errors import TimeOutsideScheduleError
from lidartmc.geo import NedPoint
from lidartmc.ingest import open_detection_log
from lidartmc.intersection import Approach, Movement, PhaseSchedule, Zone, ZoneKind
from lidartmc.report import render_tmc_csv


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
