"""Zone triggers, temporal clustering, and count-table assembly.

Each sensor's NED detection stream is reduced to per-zone trigger series
(a trigger = one detection centroid inside a zone, by
:func:`~lidartmc.intersection.zone_hits`, at a time when some binding of
the zone is permissible). A zone's series of all streams are merged as
columns (time, length, sensor) in :func:`~lidartmc.stream.merge_order`,
the order in which ``ingest.merge_streams`` merges frames, so counting
never holds a merged copy of the boxes. Each zone's series is clustered
into vehicles by one pairwise rule: a trigger joins its predecessor's
vehicle when the gap between the two is

* below ``cluster_gap``: the same vehicle;
* below the zone's minimum headway (2.0 s for right-turn zones, 1.2 s
  otherwise) and ``absorb`` is set: a re-trigger, absorbed uncounted, so
  slow, long vehicles are not counted once per re-trigger;
* below ``dedup_window`` and the sensor changed: dual coverage of one
  zone never double counts.

Every other trigger starts a vehicle (``absorb=False`` is the diagnostic,
overcounting "raw re-trigger" mode). One event per vehicle, labelled with
the zone's primary binding and timed at its first trigger; its length is
its longest box (closest to the true length under partial occlusion).
Events are columns (:class:`Events`), so the rule, the binning and the
CSV text each run once over all zones; the list form
(:class:`MovementEvent`) is a conversion for the per-layer benchmark and
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .stream import FRAME_NED, L, X, Y, MergedStream, merge_order
from .tables import TmcTable, empty_table


@dataclass(frozen=True, eq=False)
class TriggerSeries:
    """One zone's triggers in time order, as columns: frame time, box
    length, and frame id of the sensor that saw the box."""

    t: np.ndarray
    length: np.ndarray
    sensor: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def take(self, index) -> TriggerSeries:
        return TriggerSeries(self.t[index], self.length[index], self.sensor[index])

    @classmethod
    def join(cls, series: Iterable[TriggerSeries]) -> TriggerSeries:
        """The triggers of ``series``, one series after another."""
        series = list(series)
        return cls(*(np.concatenate([np.empty(0, dtype), *(getattr(s, name) for s in series)])
                     for name, dtype in (("t", float), ("length", float), ("sensor", str))))


@dataclass(frozen=True)
class MovementEvent:
    """One counted vehicle."""

    approach: Approach
    movement: Movement
    t: float
    vehicle_class: int
    representative_length: float


@dataclass(frozen=True, eq=False)
class Events:
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

    def __len__(self) -> int:
        return len(self.t)

    def take(self, index) -> Events:
        return Events(*(column[index] for column in vars(self).values()))

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


def _binding_mask(binding_sets) -> np.ndarray:
    """(sets, approaches * movements): the (approach, movement) pairs each set holds."""
    out = np.zeros((len(binding_sets), len(APPROACHES) * len(MOVEMENTS)), dtype=bool)
    for i, bindings in enumerate(binding_sets):
        for a, m in bindings:
            out[i, APPROACH_INDEX[a] * len(MOVEMENTS) + MOVEMENT_INDEX[m]] = True
    return out


def _stream_triggers(stream: MergedStream,
                     cfg: IntersectionConfig) -> tuple[dict[str, TriggerSeries], np.ndarray]:
    """Per-zone trigger series of one NED stream, in its own order, and
    the frame times of its zone-contained rows outside the session."""
    if stream.coordinate_frame != FRAME_NED:
        raise ValueError("counting requires NED streams")
    zones, boxes, schedule = cfg.zones, stream.boxes, cfg.schedule
    hits = zone_hits(boxes[:, X], boxes[:, Y], zones)
    rows = np.flatnonzero(hits.any(axis=1))
    frames = stream.frame_of(rows)
    ts = stream.t[frames]
    starts = np.array([iv.start for iv in schedule.intervals])
    ends = np.array([iv.end for iv in schedule.intervals])
    idx = np.maximum(np.searchsorted(starts, ts, side="right") - 1, 0)
    in_interval = (starts[idx] <= ts) & (ts < ends[idx])
    # A right binding is always permissible, another one when its interval permits it.
    bound = _binding_mask([z.bindings for z in zones])
    right = np.arange(bound.shape[1]) % len(MOVEMENTS) == MOVEMENT_INDEX[Movement.RIGHT]
    permits = _binding_mask([iv.permitted for iv in schedule.intervals]) @ (bound & ~right).T
    trig = hits[rows] & ((bound & right).any(axis=1) | (in_interval[:, None] & permits[idx]))
    lengths = boxes[rows, L]
    sensors = np.asarray(stream.sensors, dtype=str)[stream.sensor[frames]]
    out = {}
    for zi, z in enumerate(zones):
        r = np.flatnonzero(trig[:, zi])
        out[z.id] = TriggerSeries(ts[r], lengths[r], sensors[r])
    return out, ts[outside_session(ts, schedule.session)]


def merge_triggers(streams: Sequence[MergedStream],
                   cfg: IntersectionConfig) -> dict[str, TriggerSeries]:
    """Per-zone, time-ordered trigger series of NED streams, one zone's
    triggers of all streams merged in :func:`~lidartmc.stream.merge_order`.

    A (detection, zone) pair triggers when the centre is inside the zone
    and at least one of the zone's bindings is permissible at the frame
    time. Each series is the one that the frames merged by
    :func:`~lidartmc.ingest.merge_streams` would give, without merging
    their boxes. A contained detection with a timestamp outside the
    schedule's session raises a :class:`~lidartmc.errors.UserInputError`
    that names the earliest such time.
    """
    taken = [_stream_triggers(s, cfg) for s in streams]
    outside = np.concatenate([np.empty(0), *(times for _, times in taken)])
    if len(outside):
        raise outside_session_error(float(outside.min()), cfg.schedule.session)
    out = {}
    for z in cfg.zones:
        joined = TriggerSeries.join(series[z.id] for series, _ in taken)
        out[z.id] = joined.take(merge_order(joined.t, joined.sensor))
    return out


def extract_triggers(stream: MergedStream, cfg: IntersectionConfig) -> dict[str, TriggerSeries]:
    """:func:`merge_triggers` of one stream."""
    return merge_triggers([stream], cfg)


def _events(series: Mapping[str, TriggerSeries], cfg: IntersectionConfig,
            params: CountingParams) -> Events:
    """The events of each zone's series by the rule of the module
    docstring, over the series joined zone after zone."""
    zones, series = cfg.zones, list(series.items())
    index = {z.id: i for i, z in enumerate(zones)}
    zone = np.repeat(np.array([index[zid] for zid, _ in series], dtype=np.intp),
                     [len(s) for _, s in series])
    joined = TriggerSeries.join(s for _, s in series)
    t, length, sensor = joined.t, joined.length, joined.sensor
    headway = np.array([params.min_headway_for(z) for z in zones])
    gap = np.diff(t)
    join = (
        (gap < params.cluster_gap)
        | (params.absorb & (gap < headway[zone[1:]]))
        | ((sensor[1:] != sensor[:-1]) & (gap < params.dedup_window))
    )
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


def cluster_triggers(
    series: Mapping[str, TriggerSeries],
    cfg: IntersectionConfig,
    params: CountingParams | None = None,
) -> list[MovementEvent]:
    """One event per vehicle of each zone's series, labelled with the
    zone's primary binding, in the order of :class:`Events`."""
    return _events(series, cfg, params or cfg.params).to_list()


def count_rights_from_egress(
    series: Mapping[str, TriggerSeries],
    cfg: IntersectionConfig,
    params: CountingParams | None = None,
) -> list[MovementEvent]:
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


def count_session(streams: Sequence[MergedStream],
                  cfg: IntersectionConfig) -> tuple[Events, dict]:
    """Full counting pass over per-sensor NED streams, as
    :func:`~lidartmc.ingest.parse_logs` gives them: merged triggers
    (:func:`merge_triggers`) -> ingress events + surrogate events, with
    the thresholds of ``cfg.params``.

    Egress zones that are not right surrogates are observational only;
    their triggers are extracted but never counted. Returns the events
    and a metadata dict recording trigger counts and any shared
    Left/UTurn zones (whose events are labeled with the primary binding
    because ingress triggers cannot tell the two apart).
    """
    triggers = merge_triggers(streams, cfg)
    counted = {z.id: triggers[z.id] for z in cfg.ingress_zones + cfg.right_surrogate_zones}
    events = _events(counted, cfg, cfg.params)
    shared = [z.id for z in cfg.ingress_zones
              if {m for _, m in z.bindings} >= {Movement.LEFT, Movement.UTURN}]
    meta = {
        "triggers_per_zone": {zid: len(trigs) for zid, trigs in sorted(triggers.items())},
        "ignored_egress_zones": sorted(z.id for z in cfg.zones
                                       if z.kind is ZoneKind.EGRESS and not z.is_right_surrogate),
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
    counts = np.array(empty_table(bin_seconds, session, classes).counts)
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
