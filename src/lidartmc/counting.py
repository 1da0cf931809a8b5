"""Zone triggers, temporal clustering, and count-table assembly.

The pipeline: a merged NED detection stream is reduced to per-zone
trigger series (a trigger = one detection centroid inside a zone, by
:func:`~lidartmc.intersection.zone_hits`, at a time when some binding of
the zone is permissible). Each zone's series is then clustered into
vehicles by :func:`cluster_triggers`:

* a trigger within ``cluster_gap`` of the cluster's last trigger is the
  same vehicle;
* a gap of at least the zone's minimum headway (2.0 s for right-turn
  zones, 1.2 s otherwise) starts a new vehicle;
* anything in between is absorbed into the current cluster — it extends
  the cluster without being counted, which is what stops slow, long
  vehicles from being counted once per re-trigger;
* a trigger from a *different sensor* within ``dedup_window`` always
  joins the current cluster, so dual coverage of one zone never double
  counts.

Setting ``absorb=False`` disables the third rule (every gap >=
cluster_gap then opens a new cluster); that is the diagnostic "raw
re-trigger" mode and is deliberately prone to overcounting.

One event per cluster, labelled with the zone's primary binding (a
right surrogate's one binding) and timestamped at the cluster's first
trigger; the representative length is the cluster maximum (the longest
box seen is closest to the true length under partial occlusion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import MisconfiguredSurrogateError, TimeOutsideScheduleError, UserInputError
from .ingest import FRAME_NED, L, X, Y, MergedStream
from .intersection import (
    APPROACH_INDEX,
    MOVEMENT_INDEX,
    Approach,
    CountingParams,
    IntersectionConfig,
    Movement,
    PhaseSchedule,
    Zone,
    ZoneKind,
    zone_hits,
)
from .report import TmcTable, empty_table


@dataclass(frozen=True, eq=False)
class TriggerSeries:
    """One zone's triggers in time order, as columns: frame time, box
    length, and frame id of the sensor that saw the box."""

    t: np.ndarray
    length: np.ndarray
    sensor: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class MovementEvent:
    """One counted vehicle."""

    approach: Approach
    movement: Movement
    t: float
    vehicle_class: int
    representative_length: float


def _permission_table(zones: Sequence[Zone], schedule: PhaseSchedule) -> np.ndarray:
    """(zones, intervals): does the interval permit a non-right binding
    of the zone?"""
    return np.array([
        [any(m is not Movement.RIGHT and (a, m) in iv.permitted for a, m in z.bindings)
         for iv in schedule.intervals]
        for z in zones
    ], dtype=bool)


def drop_outside_session(
    stream: MergedStream, cfg: IntersectionConfig
) -> tuple[MergedStream, int]:
    """The zone-row stream of :func:`~lidartmc.ingest.parse_logs`, merged,
    without the rows of its frames outside the schedule's session, and
    how many rows those were.

    Every row of such a stream lies in some zone, so each of them would
    make :func:`extract_triggers` raise; the frames keep their times. The
    stream is returned unchanged when nothing is dropped.
    """
    s0, s1 = cfg.schedule.session
    outside = np.repeat((stream.t < s0) | (stream.t >= s1), np.diff(stream.offsets))
    if not outside.any():
        return stream, 0
    kept_before = np.concatenate(([0], np.cumsum(~outside)))
    return (
        replace(stream, boxes=stream.boxes[~outside], offsets=kept_before[stream.offsets]),
        int(np.count_nonzero(outside)),
    )


def extract_triggers(
    stream: MergedStream, cfg: IntersectionConfig
) -> dict[str, TriggerSeries]:
    """Per-zone, time-ordered trigger series from a NED stream.

    A (detection, zone) pair triggers when the centroid is inside the
    zone and at least one of the zone's bindings is permissible at the
    frame time. A contained detection with a timestamp outside the
    schedule's session raises :class:`TimeOutsideScheduleError`.
    """
    if stream.coordinate_frame != FRAME_NED:
        raise ValueError("extract_triggers requires a NED stream")
    zones = cfg.zones
    empty = TriggerSeries(np.empty(0), np.empty(0), np.empty(0, dtype=str))
    out: dict[str, TriggerSeries] = {z.id: empty for z in zones}
    boxes = stream.boxes
    if len(boxes) == 0 or not zones:
        return out

    hits = zone_hits(boxes[:, X], boxes[:, Y], zones)
    rows = np.flatnonzero(hits.any(axis=1))
    hits = hits[rows]
    frames = stream.frame_of(rows)
    ts = stream.t[frames]

    schedule = cfg.schedule
    s0, s1 = schedule.session
    outside = (ts < s0) | (ts >= s1)
    if np.any(outside):
        raise TimeOutsideScheduleError(float(ts[np.argmax(outside)]), schedule.session)

    starts = np.array([iv.start for iv in schedule.intervals])
    ends = np.array([iv.end for iv in schedule.intervals])
    idx = np.maximum(np.searchsorted(starts, ts, side="right") - 1, 0)
    in_interval = (starts[idx] <= ts) & (ts < ends[idx])
    zone_has_right = np.array(
        [any(m is Movement.RIGHT for _, m in z.bindings) for z in zones]
    )
    permitted = zone_has_right | (
        in_interval[:, None] & _permission_table(zones, schedule).T[idx]
    )
    trig = hits & permitted
    lengths = boxes[rows, L]
    sensors = np.asarray(stream.sensors)[stream.sensor[frames]]
    for zi, z in enumerate(zones):
        r = np.flatnonzero(trig[:, zi])
        out[z.id] = TriggerSeries(ts[r], lengths[r], sensors[r])
    return out


def cluster_triggers(
    series: Mapping[str, TriggerSeries],
    cfg: IntersectionConfig,
    params: CountingParams | None = None,
) -> list[MovementEvent]:
    """One event per cluster of each zone's series, labelled with the
    zone's primary binding, merged by (timestamp, zone id) so ordering is
    deterministic. Each series is scanned once, greedily, by the rules of
    the module docstring."""
    params = params or cfg.params
    tagged: list[tuple[float, str, MovementEvent]] = []
    for zone_id, triggers in series.items():
        zone = cfg.zone_by_id(zone_id)
        approach, movement = zone.primary_binding
        min_headway = params.min_headway_for(zone)
        clusters: list[list[float]] = []  # [first t, longest box] of each vehicle
        last_t = last_sensor = None
        for t, length, sensor in zip(
            triggers.t.tolist(), triggers.length.tolist(), triggers.sensor.tolist()
        ):
            gap = t - last_t if clusters else math.inf
            if (
                gap < params.cluster_gap
                or (params.absorb and gap < min_headway)
                or (sensor != last_sensor and gap < params.dedup_window)
            ):
                clusters[-1][1] = max(clusters[-1][1], length)
            else:
                clusters.append([t, length])
            last_t, last_sensor = t, sensor
        for first_t, max_len in clusters:
            event = MovementEvent(
                approach=approach,
                movement=movement,
                t=first_t,
                vehicle_class=cfg.class_table.classify(max_len).id,
                representative_length=max_len,
            )
            tagged.append((first_t, zone_id, event))
    tagged.sort(key=lambda kv: (kv[0], kv[1]))
    return [e for _, _, e in tagged]


def count_rights_from_egress(
    series: Mapping[str, TriggerSeries],
    cfg: IntersectionConfig,
    params: CountingParams | None = None,
) -> list[MovementEvent]:
    """Count right turns from egress-side surrogate zones.

    Used where the ingress corner is outside sensor coverage. Each zone
    must carry exactly one (approach, Right) binding; anything else is
    ambiguous (thru traffic into the same egress would be counted) and
    raises :class:`MisconfiguredSurrogateError`.
    """
    for zone_id in series:
        zone = cfg.zone_by_id(zone_id)
        if not zone.is_right_surrogate:
            raise MisconfiguredSurrogateError(
                f"zone {zone.id!r} is not a single-binding right-turn egress "
                f"surrogate (kind={zone.kind.value}, bindings={len(zone.bindings)})"
            )
    return cluster_triggers(series, cfg, params)


def count_session(
    stream: MergedStream,
    cfg: IntersectionConfig,
    params: CountingParams | None = None,
) -> tuple[list[MovementEvent], dict]:
    """Full counting pass: triggers -> ingress events + surrogate events.

    Egress zones that are not right surrogates are observational only;
    their triggers are extracted but never counted. Returns the merged,
    time-ordered event list (at one timestamp, ingress events first) and
    a metadata dict recording trigger counts and any shared Left/UTurn
    zones (whose events are labeled with the primary binding because
    ingress triggers cannot tell the two apart).
    """
    triggers = extract_triggers(stream, cfg)
    ingress = {z.id: triggers[z.id] for z in cfg.ingress_zones}
    surrogates = {z.id: triggers[z.id] for z in cfg.right_surrogate_zones}
    events = cluster_triggers(ingress, cfg, params)
    events += count_rights_from_egress(surrogates, cfg, params)
    events.sort(key=lambda ev: ev.t)
    shared = [
        z.id
        for z in cfg.ingress_zones
        if {m for _, m in z.bindings} >= {Movement.LEFT, Movement.UTURN}
    ]
    meta = {
        "triggers_per_zone": {zid: len(trigs) for zid, trigs in sorted(triggers.items())},
        "ignored_egress_zones": sorted(
            z.id
            for z in cfg.zones
            if z.kind is ZoneKind.EGRESS and not z.is_right_surrogate
        ),
        "shared_left_uturn_zones": sorted(shared),
        "events": len(events),
    }
    return events, meta


def estimate_tmc(
    events: Sequence[MovementEvent],
    bin_seconds: float = 300.0,
    session: tuple[float, float] = (0.0, 0.0),
    classes: int = 6,
) -> TmcTable:
    """Bin events into a count table. Bins are [start, start + bin);
    an event exactly on a boundary belongs to the later bin."""
    table = empty_table(bin_seconds, session, classes)
    counts = np.array(table.counts)
    t0, t1 = session
    for ev in events:
        if not t0 <= ev.t < t1:
            raise UserInputError(f"event at t={ev.t} outside session [{t0}, {t1})")
        if not 1 <= ev.vehicle_class <= classes:
            raise UserInputError(f"event class {ev.vehicle_class} outside 1..{classes}")
        b = int(math.floor((ev.t - t0) / bin_seconds))
        b = min(b, counts.shape[0] - 1)  # guard the t1-epsilon float edge
        counts[b, APPROACH_INDEX[ev.approach], MOVEMENT_INDEX[ev.movement], ev.vehicle_class - 1] += 1
    return TmcTable(bin_seconds, session, counts)


def events_to_csv(events: Sequence[MovementEvent]) -> str:
    """Event list export: ``t,approach,movement,class,length``."""
    lines = ["t,approach,movement,class,length"]
    for ev in events:
        lines.append(
            f"{ev.t!r},{ev.approach.value},{ev.movement.value},"
            f"{ev.vehicle_class},{ev.representative_length!r}"
        )
    return "\n".join(lines) + "\n"
