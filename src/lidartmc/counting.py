"""Zone triggers, temporal clustering, and count-table assembly.

A trigger is one detection centroid inside a zone
(:func:`~lidartmc.intersection.zone_hits`) at a time in the session when
some binding of the zone is permissible. :func:`zone_triggers` is that
rule (its phase gate indexes tables that the config builds once), and
it gives trigger rows their one form, :class:`Triggers`. The parse cut
runs it on each chunk, so each log reaches counting as one table
(:class:`LogTriggers`), not boxes. :func:`merge_triggers` codes each
log's sensor and joins the tables, grouped by zone and within a zone in
:func:`~lidartmc.stream.merge_order`, the order in which
``ingest.merge_streams`` merges frames. Each zone's
rows are clustered into vehicles by one rule: a trigger joins its zone
predecessor's vehicle when the gap between the two is below the zone's
minimum headway (2.0 s for right-turn zones, 1.2 s otherwise); every
other trigger starts a vehicle. The one clause has three readings: the
same vehicle in the next frame; a slow, long vehicle that re-triggers,
not counted again; and the other sensor's box of the same vehicle where
two sensors cover the zone, never counted twice. One event per vehicle,
labelled with the zone's primary binding and timed at its first trigger;
its length is its longest box (closest to the true length under partial
occlusion). Events are columns (:class:`Events`), so the rule, the
binning and the CSV text each run once over all zones; the per-zone dict
of :func:`extract_triggers` and the list form (:class:`MovementEvent`)
are for the per-layer benchmark and the tests. :func:`estimate_tmc`
fills a ``tables.zero_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import UserInputError
from .intersection import (
    APPROACH_INDEX,
    APPROACHES,
    MOVEMENT_INDEX,
    MOVEMENTS,
    Approach,
    CountingParams,
    IntersectionConfig,
    Movement,
    ZoneKind,
    outside_session,
    outside_session_error,
    zone_hits,
)
from .stream import FRAME_NED, L, X, Y, MergedStream
from .tables import TmcTable, zero_grid


@dataclass(frozen=True)
class MovementEvent:
    """One counted vehicle."""

    approach: Approach
    movement: Movement
    t: float
    vehicle_class: int
    representative_length: float


class _Columns:
    """Rows as equal-length column arrays, one field a column."""

    def __len__(self) -> int:
        return len(self.t)

    def take(self, index):
        """The rows at ``index`` (a slice, mask or index array)."""
        return type(self)(*(column[index] for column in vars(self).values()))


@dataclass(frozen=True, eq=False)
class Triggers(_Columns):
    """Triggers as columns: index into the config's zones, frame time, box
    length, and the code of the sensor that saw the box (its index in the
    sorted frame ids)."""

    zone: np.ndarray
    t: np.ndarray
    length: np.ndarray
    sensor: np.ndarray

    def in_merge_order(self) -> Triggers:
        """The rows grouped by zone and in :func:`~lidartmc.stream.merge_order`
        within each zone: one stable sort by zone, then time, then sensor."""
        return self.take(np.lexsort((self.sensor, self.t, self.zone)))


@dataclass(frozen=True, eq=False)
class LogTriggers:
    """One detection log as ``ingest.parse_logs`` cuts it: its sensor (None
    if it keeps no line), the time of every frame, its triggers in row
    order (:func:`zone_triggers`, sensor code 0), and the frame times of
    its zone rows outside the session."""

    sensor: str | None
    frame_t: np.ndarray
    triggers: Triggers
    dropped: np.ndarray


@dataclass(frozen=True, eq=False)
class Events(_Columns):
    """Counted vehicles as columns, ordered by time, then ingress before
    surrogate, then zone id: first trigger time, index into the config's
    zones (-1 when built from the list form), indices into ``APPROACHES``
    and ``MOVEMENTS``, class id and representative length."""

    t: np.ndarray
    zone: np.ndarray
    approach: np.ndarray
    movement: np.ndarray
    vehicle_class: np.ndarray
    length: np.ndarray

    @classmethod
    def from_list(cls, events: Sequence[MovementEvent]) -> Events:
        fields = attrgetter("t", "approach", "movement", "vehicle_class", "representative_length")
        t, a, m, c, length = list(zip(*map(fields, events))) or [()] * 5
        return cls(np.array(t, dtype=np.float64), np.full(len(t), -1, dtype=np.intp),
                   np.array(list(map(APPROACHES.index, a)), dtype=np.intp),
                   np.array(list(map(MOVEMENTS.index, m)), dtype=np.intp),
                   np.array(c, dtype=np.int64), np.array(length, dtype=np.float64))

    def to_list(self) -> list[MovementEvent]:
        columns = (self.approach, self.movement, self.t, self.vehicle_class, self.length)
        return [MovementEvent(APPROACHES[a], MOVEMENTS[m], t, c, length)
                for a, m, t, c, length in zip(*(col.tolist() for col in columns))]


def zone_triggers(boxes: np.ndarray, t: np.ndarray, sensor,
                  cfg: IntersectionConfig) -> tuple[Triggers, np.ndarray]:
    """The triggers of NED ``boxes`` seen at frame times ``t`` by sensor
    code ``sensor`` (one for all rows, or one a row), a row for each (box,
    zone) pair that triggers, in box order; and the times of the
    zone-contained boxes outside the schedule's session. A pair triggers
    when the zone contains the box, its time is in the session and a
    binding of the zone is permissible then: a right binding always,
    another one when its interval permits it (the config's tables)."""
    hits = zone_hits(boxes[:, X], boxes[:, Y], cfg.zones)
    inside = hits.any(axis=1)
    outside = outside_session(t, cfg.schedule.session)
    rows = np.flatnonzero(inside & ~outside)
    ts = t[rows]
    idx = np.searchsorted(cfg.starts, ts, side="right") - 1  # >= 0 in the session
    gated = (ts < cfg.ends[idx])[:, None] & cfg.permits[idx]  # False in a gap between intervals
    row, zone = np.nonzero(hits[rows] & (cfg.right_zones | gated))
    rows = rows[row]
    triggers = Triggers(zone, t[rows], boxes[rows, L], np.broadcast_to(sensor, t.shape)[rows])
    return triggers, t[inside & outside]


def joined(tables: Iterable[Triggers]) -> Triggers:
    """The rows of ``tables``, one table after another."""
    empty = (np.empty(0, np.intp), np.empty(0), np.empty(0), np.empty(0, np.intp))
    return Triggers(*map(np.concatenate, zip(empty, *(vars(t).values() for t in tables))))


def merge_triggers(logs: Sequence[LogTriggers]) -> Triggers:
    """The triggers of per-sensor logs as one table in merge order, each
    sensor coded by its index in the sorted frame ids: the triggers of the
    frames merged by :func:`~lidartmc.ingest.merge_streams`, without
    merging boxes."""
    code = {fid: i for i, fid in enumerate(sorted({log.sensor for log in logs} - {None}))}
    return joined(  # a log with no kept line has no code
        replace(log.triggers, sensor=np.full(len(log.triggers), code[log.sensor]))
        for log in logs if len(log.triggers)).in_merge_order()


def extract_triggers(stream: MergedStream, cfg: IntersectionConfig) -> dict[str, Triggers]:
    """Each zone id's rows of the triggers of one NED stream in merge
    order, from one :func:`zone_triggers` over all its rows. A contained
    detection outside the schedule's session raises a
    :class:`~lidartmc.errors.UserInputError` naming the earliest time."""
    if stream.coordinate_frame != FRAME_NED:
        raise ValueError("counting requires NED streams")
    sizes = np.diff(stream.offsets)
    tr, outside = zone_triggers(stream.boxes, np.repeat(stream.t, sizes),
                                np.repeat(stream.sensor, sizes), cfg)
    if len(outside):
        raise outside_session_error(float(outside.min()), cfg.schedule.session)
    tr = tr.in_merge_order()
    bounds = np.searchsorted(tr.zone, np.arange(len(cfg.zones) + 1)).tolist()
    return {z.id: tr.take(slice(*bounds[i:i + 2])) for i, z in enumerate(cfg.zones)}


def _events(triggers: Triggers, cfg: IntersectionConfig, params: CountingParams) -> Events:
    """The events of a table of triggers grouped by zone and time-ordered
    within each zone, by the rule of the module docstring."""
    zones = cfg.zones
    zone, t, length = triggers.zone, triggers.t, triggers.length
    headway = np.array([params.min_headway_for(z) for z in zones])
    join = np.diff(t) < headway[zone[1:]]
    # A zone's first trigger and each trigger that does not join start a vehicle.
    first = np.flatnonzero(np.r_[len(t) > 0, ~join | (zone[1:] != zone[:-1])])
    longest = np.maximum.reduceat(length, first) if len(first) else length
    classes = cfg.class_table.class_ids(longest)

    rank = np.argsort(sorted(range(len(zones)), key=lambda i: zones[i].id))  # of zone ids
    surrogate = np.array([z.kind is ZoneKind.EGRESS for z in zones], dtype=bool)
    order = np.lexsort((rank[zone[first]], surrogate[zone[first]], t[first]))
    z = zone[first[order]]
    binding = np.array([(APPROACH_INDEX[a], MOVEMENT_INDEX[m])
                        for a, m in (zn.primary_binding for zn in zones)], dtype=np.intp)
    return Events(t[first[order]], z, binding[z, 0], binding[z, 1], classes[order], longest[order])


def cluster_triggers(series: Mapping[str, Triggers], cfg: IntersectionConfig,
                     params: CountingParams | None = None) -> list[MovementEvent]:
    """One event per vehicle of each zone's rows (as :func:`extract_triggers`
    gives them), labelled with the zone's primary binding, in the order of
    :class:`Events`."""
    return _events(joined(series.values()), cfg, params or cfg.params).to_list()


def count_rights_from_egress(series: Mapping[str, Triggers], cfg: IntersectionConfig,
                             params: CountingParams | None = None) -> list[MovementEvent]:
    """Count right turns from egress-side surrogate zones.

    Used where the ingress corner is outside sensor coverage. Each zone
    must carry exactly one (approach, Right) binding; anything else is
    ambiguous (thru traffic into the same egress would be counted) and
    raises a :class:`~lidartmc.errors.UserInputError`.
    """
    for zone_id in series:
        zone = cfg.zone_by_id(zone_id)
        if not zone.is_right_surrogate:
            raise UserInputError(
                f"zone {zone.id!r} is not a single-binding right-turn egress "
                f"surrogate (kind={zone.kind.value}, bindings={len(zone.bindings)})")
    return cluster_triggers(series, cfg, params)


def count_session(logs: Sequence[LogTriggers],
                  cfg: IntersectionConfig) -> tuple[Events, dict]:
    """Full counting pass over the per-sensor trigger tables that
    :func:`~lidartmc.ingest.parse_logs` gives: the events of the merged
    triggers (:func:`merge_triggers`) of the ingress and right-surrogate
    zones, with the thresholds of ``cfg.params``. Other egress zones are
    observational only: their triggers are counted in the metadata, never
    as events. Returns the events and a metadata dict recording trigger
    counts and any shared Left/UTurn zones (whose events are labeled with
    the primary binding because ingress triggers cannot tell the two apart).
    """
    triggers = merge_triggers(logs)
    ignored = np.array([z.kind is ZoneKind.EGRESS and not z.is_right_surrogate for z in cfg.zones],
                       dtype=bool)
    events = _events(triggers.take(~ignored[triggers.zone]), cfg, cfg.params)
    per_zone = np.bincount(triggers.zone, minlength=len(cfg.zones)).tolist()
    shared = [z.id for z in cfg.ingress_zones
              if {m for _, m in z.bindings} >= {Movement.LEFT, Movement.UTURN}]
    meta = {
        "triggers_per_zone": dict(sorted(zip((z.id for z in cfg.zones), per_zone))),
        "ignored_egress_zones": sorted(z.id for z, i in zip(cfg.zones, ignored.tolist()) if i),
        "shared_left_uturn_zones": sorted(shared),
        "events": len(events),
    }
    return events, meta


def estimate_tmc(
    events: Events | Sequence[MovementEvent],
    bin_seconds: float = 300.0,
    session: tuple[float, float] = (0.0, 0.0),
    classes: int = 6,
) -> TmcTable:
    """Bin events into a count table. Bins are [start, start + bin);
    an event exactly on a boundary belongs to the later bin."""
    if not isinstance(events, Events):
        events = Events.from_list(events)
    counts = zero_grid(bin_seconds, session, classes)
    t0, t1 = session
    outside = outside_session(events.t, session)
    if outside.any():
        raise UserInputError(f"event at t={events.t[outside][0]} outside session [{t0}, {t1})")
    bad = (events.vehicle_class < 1) | (events.vehicle_class > classes)
    if bad.any():
        raise UserInputError(f"event class {events.vehicle_class[bad][0]} outside 1..{classes}")
    # The minimum guards the t1-epsilon float edge.
    b = np.minimum(np.floor((events.t - t0) / bin_seconds), len(counts) - 1).astype(np.intp)
    np.add.at(counts, (b, events.approach, events.movement, events.vehicle_class - 1), 1)
    return TmcTable(bin_seconds, session, counts)


def events_to_csv(events: Events | Sequence[MovementEvent]) -> str:
    """Event export: ``t,approach,movement,class,length``, floats spelled by ``repr``."""
    if not isinstance(events, Events):
        events = Events.from_list(events)
    t, length = (list(map(repr, c.tolist())) for c in (events.t, events.length))
    approach = np.array([a.value for a in APPROACHES])[events.approach].tolist()
    movement = np.array([m.value for m in MOVEMENTS])[events.movement].tolist()
    rows = zip(t, approach, movement, map(str, events.vehicle_class.tolist()), length)
    return "\n".join(["t,approach,movement,class,length", *map(",".join, rows)]) + "\n"
