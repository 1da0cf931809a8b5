"""Intersection geometry and signal-phase gating.

Zones are oriented rectangles in the local NED plane (the down component
is ignored; the intersection is treated as planar). Each zone is tagged
ingress or egress and bound to one or more (approach, movement) pairs;
the first listed binding is the zone's primary label for counting.
:func:`zone_hits` is the one containment rule, which
``counting.zone_triggers`` runs on each parse chunk.

The phase schedule lists non-overlapping [start, end) intervals with the
set of permitted (approach, movement) pairs. Right turns are permitted
at all times regardless of schedule content (right on red). A config
turns its zones' bindings and its intervals' permitted pairs into
binding masks (:func:`binding_mask`) once, when it is built, and keeps
the interval edges and the interval x zone permission table that the
phase gate of ``counting.zone_triggers`` indexes. The
schedule's session, from its first start to its last end, is the one
session of a run: ``simulate`` covers it, ``estimate`` counts on it.
:func:`outside_session` is the one session rule, for the parse cut
(``counting.zone_triggers``), ``counting``, ``simgen`` and ``cli`` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .classify import ClassTable, DEFAULT_CLASS_TABLE, class_table_from_obj
from .errors import UserInputError, json_number, json_string
from .geo import GeodeticPoint, NedPoint, load_json_document

DEFAULT_MIN_HEADWAY_RIGHT_S = 2.0
DEFAULT_MIN_HEADWAY_OTHER_S = 1.2
DEFAULT_CLUSTER_GAP_S = 0.6


class Approach(Enum):
    NB = "NB"
    SB = "SB"
    EB = "EB"
    WB = "WB"


class Movement(Enum):
    LEFT = "Left"
    THRU = "Thru"
    RIGHT = "Right"
    UTURN = "UTurn"


APPROACHES = tuple(Approach)
MOVEMENTS = tuple(Movement)
APPROACH_INDEX = {a: i for i, a in enumerate(APPROACHES)}
MOVEMENT_INDEX = {m: i for i, m in enumerate(MOVEMENTS)}

Binding = tuple[Approach, Movement]


def binding_mask(binding_sets) -> np.ndarray:
    """(sets, approaches * movements): the (approach, movement) pairs each set holds."""
    out = np.zeros((len(binding_sets), len(APPROACHES) * len(MOVEMENTS)), dtype=bool)
    for i, bindings in enumerate(binding_sets):
        for a, m in bindings:
            out[i, APPROACH_INDEX[a] * len(MOVEMENTS) + MOVEMENT_INDEX[m]] = True
    return out


class ZoneKind(Enum):
    INGRESS = "Ingress"
    EGRESS = "Egress"


@dataclass(frozen=True)
class Zone:
    """Oriented rectangle: half_length along the travel axis at ``yaw``.

    ``yaw`` is measured about down, from north toward east, and points in
    the direction of travel through the zone.
    """

    id: str
    kind: ZoneKind
    center: NedPoint
    half_length: float
    half_width: float
    yaw: float
    bindings: tuple[Binding, ...]

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.half_length, self.half_width)):
            raise UserInputError(f"zone {self.id!r}: half extents must be finite and > 0")
        if not math.isfinite(self.yaw):
            raise UserInputError(f"zone {self.id!r}: yaw must be finite")
        if not self.bindings:
            raise UserInputError(f"zone {self.id!r}: bindings must be non-empty")
        if len(set(self.bindings)) != len(self.bindings):
            raise UserInputError(f"zone {self.id!r}: duplicate bindings")

    @property
    def primary_binding(self) -> Binding:
        return self.bindings[0]

    @property
    def right_only(self) -> bool:
        return all(m is Movement.RIGHT for _, m in self.bindings)

    @property
    def is_right_surrogate(self) -> bool:
        """Egress zone standing in for a blind right-turn ingress."""
        return (
            self.kind is ZoneKind.EGRESS
            and len(self.bindings) == 1
            and self.bindings[0][1] is Movement.RIGHT
        )


def zone_hits(north: np.ndarray, east: np.ndarray, zones: Sequence[Zone]) -> np.ndarray:
    """(points, zones): is each NED point (north, east) inside each of
    ``zones``? Boundary-inclusive.

    Each point is expressed in zone-local axes (u along the zone's length
    at angle ``yaw`` from north, v across) and tested against the half
    extents. One zone at a time, so the temporaries stay the size of one
    column. The cosines and sines are taken over the array of yaws: a
    scalar ``np.cos`` may differ from it in the last bit, which would
    move boundary hits.
    """
    yaw = np.array([z.yaw for z in zones])
    cos, sin = np.cos(yaw), np.sin(yaw)
    out = np.empty((len(north), len(zones)), dtype=bool)
    for j, z in enumerate(zones):
        dn = north - z.center.north
        de = east - z.center.east
        u = dn * cos[j] + de * sin[j]
        v = -dn * sin[j] + de * cos[j]
        np.logical_and(np.abs(u) <= z.half_length, np.abs(v) <= z.half_width, out=out[:, j])
    return out


def outside_session(t, session: tuple[float, float]):
    """Whether each time ``t`` (a number or an array) is outside the
    half-open ``session`` [s0, s1); a NaN time is."""
    return np.logical_not((session[0] <= t) & (t < session[1]))


def outside_session_error(t: float, session: tuple[float, float]) -> UserInputError:
    """The error for a zone-contained detection at ``t`` outside ``session``."""
    return UserInputError(f"t={t} outside schedule session [{session[0]}, {session[1]})")


@dataclass(frozen=True)
class CountingParams:
    """Clustering thresholds; defaults derive from a 1.5 s minimum
    observed headway between vehicles."""

    min_headway_right: float = DEFAULT_MIN_HEADWAY_RIGHT_S
    min_headway_other: float = DEFAULT_MIN_HEADWAY_OTHER_S
    cluster_gap: float = DEFAULT_CLUSTER_GAP_S
    dedup_window: float | None = None  # None -> cluster_gap
    absorb: bool = True

    def __post_init__(self):
        if self.dedup_window is None:
            object.__setattr__(self, "dedup_window", self.cluster_gap)
        if not isinstance(self.absorb, bool):
            raise UserInputError(f"absorb must be true or false, got {self.absorb!r}")
        thresholds = tuple(json_number(v) for v in (
            self.min_headway_right, self.min_headway_other, self.cluster_gap,
            self.dedup_window))
        if not all(math.isfinite(v) for v in thresholds):
            raise UserInputError(f"counting thresholds must be finite, got {thresholds}")
        if min(self.min_headway_right, self.min_headway_other, self.cluster_gap) <= 0:
            raise UserInputError("counting thresholds must be positive")
        if self.dedup_window <= 0:
            raise UserInputError("dedup_window must be positive")
        if not self.cluster_gap < self.min_headway_other <= self.min_headway_right:
            raise UserInputError(
                "need cluster_gap < min_headway_other <= min_headway_right, got "
                f"{self.cluster_gap}, {self.min_headway_other}, {self.min_headway_right}"
            )

    def min_headway_for(self, zone: Zone) -> float:
        return self.min_headway_right if zone.right_only else self.min_headway_other


@dataclass(frozen=True)
class PhaseInterval:
    start: float
    end: float
    permitted: frozenset[Binding]

    def __post_init__(self):
        if not self.end > self.start:
            raise UserInputError(
                f"phase interval [{self.start}, {self.end}) is empty"
            )


@dataclass(frozen=True)
class PhaseSchedule:
    """Non-overlapping phase intervals, stored sorted by start. They are
    the run's one session: from the first start to the last end."""

    intervals: tuple[PhaseInterval, ...]

    def __post_init__(self):
        ivs = tuple(sorted(self.intervals, key=lambda iv: iv.start))
        if not ivs:
            raise UserInputError("schedule must contain at least one interval")
        for prev, iv in zip(ivs, ivs[1:]):
            if iv.start < prev.end:
                raise UserInputError(f"phase intervals overlap at t={iv.start}")
        object.__setattr__(self, "intervals", ivs)

    @property
    def session(self) -> tuple[float, float]:
        return (self.intervals[0].start, self.intervals[-1].end)


@dataclass(frozen=True)
class IntersectionConfig:
    """A validated config. Construction also builds the tables the trigger
    rule (``counting.zone_triggers``) reads: the schedule's interval
    ``starts`` and ``ends``; ``permits``, whether interval i permits a
    binding of zone j that is not a right turn; and ``right_zones``,
    whether zone j has a right binding, which is always permitted."""

    ned_origin: GeodeticPoint
    zones: tuple[Zone, ...]
    schedule: PhaseSchedule
    params: CountingParams = CountingParams()
    class_table: ClassTable = DEFAULT_CLASS_TABLE
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    ends: np.ndarray = field(init=False, repr=False, compare=False)
    permits: np.ndarray = field(init=False, repr=False, compare=False)
    right_zones: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_config_structure(self.zones)
        intervals = self.schedule.intervals
        bound = binding_mask([z.bindings for z in self.zones])
        right = np.arange(bound.shape[1]) % len(MOVEMENTS) == MOVEMENT_INDEX[Movement.RIGHT]
        tables = {
            "starts": np.array([iv.start for iv in intervals]),
            "ends": np.array([iv.end for iv in intervals]),
            "permits": binding_mask([iv.permitted for iv in intervals]) @ (bound & ~right).T,
            "right_zones": (bound & right).any(axis=1),
        }
        for name, table in tables.items():
            object.__setattr__(self, name, table)

    def zone_by_id(self, zone_id: str) -> Zone:
        for z in self.zones:
            if z.id == zone_id:
                return z
        raise KeyError(zone_id)

    @property
    def ingress_zones(self) -> tuple[Zone, ...]:
        return tuple(z for z in self.zones if z.kind is ZoneKind.INGRESS)

    @property
    def right_surrogate_zones(self) -> tuple[Zone, ...]:
        return tuple(z for z in self.zones if z.is_right_surrogate)

    def countable_targets(self) -> tuple[tuple[Zone, Binding], ...]:
        """(zone, binding) pairs the counting pipeline can attribute:
        ingress zones, then right-surrogate egress zones, each counted as
        its primary binding (a surrogate's only one).
        """
        zones = self.ingress_zones + self.right_surrogate_zones
        return tuple((z, z.primary_binding) for z in zones)


def validate_config_structure(zones: Sequence[Zone]) -> None:
    ids = [z.id for z in zones]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise UserInputError(f"duplicate zone ids: {dupes}")
    ingress_bindings = {b for z in zones if z.kind is ZoneKind.INGRESS for b in z.bindings}
    surrogate_bindings = {
        z.bindings[0]: z.id for z in zones if z.is_right_surrogate
    }
    # Every counted movement needs an ingress zone or a right surrogate,
    # and never both (that would double count).
    for z in zones:
        for b in z.bindings:
            covered_by_ingress = b in ingress_bindings
            covered_by_surrogate = b in surrogate_bindings
            if covered_by_ingress and covered_by_surrogate:
                raise UserInputError(
                    f"movement {b[0].value}/{b[1].value} has both an ingress "
                    f"zone and egress surrogate {surrogate_bindings[b]!r}"
                )
            if not covered_by_ingress and not covered_by_surrogate:
                raise UserInputError(
                    f"zone {z.id!r} binds {b[0].value}/{b[1].value} which has "
                    "no ingress zone and no egress surrogate"
                )


def _binding_from_obj(obj) -> Binding:
    try:
        a, m = obj
        return (Approach(a), Movement(m))
    except (ValueError, TypeError) as exc:
        raise UserInputError(f"bad (approach, movement) pair {obj!r}: {exc}") from None


def config_from_obj(doc) -> IntersectionConfig:
    """Build a validated config from a decoded JSON document."""
    try:
        ned_origin = GeodeticPoint.from_obj(doc["ned_origin"])
        zones = []
        for i, zobj in enumerate(doc["zones"]):
            n, e = zobj["center"]
            zones.append(
                Zone(
                    id=json_string(zobj["id"], f"zones[{i}].id"),
                    kind=ZoneKind(zobj["kind"]),
                    center=NedPoint(json_number(n), json_number(e), 0.0),
                    half_length=json_number(zobj["half_length"]),
                    half_width=json_number(zobj["half_width"]),
                    yaw=json_number(zobj["yaw"]),
                    bindings=tuple(_binding_from_obj(b) for b in zobj["bindings"]),
                )
            )
        intervals = tuple(
            PhaseInterval(
                start=json_number(iobj["start"]),
                end=json_number(iobj["end"]),
                permitted=frozenset(_binding_from_obj(b) for b in iobj["permitted"]),
            )
            for iobj in doc["schedule"]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UserInputError(f"bad intersection config: {exc}") from None
    schedule = PhaseSchedule(intervals)
    params = CountingParams()
    if "params" in doc:
        try:
            params = CountingParams(**doc["params"])
        except (TypeError, OverflowError) as exc:
            raise UserInputError(f"bad counting params: {exc}") from None
    class_table = DEFAULT_CLASS_TABLE
    if "class_table" in doc:
        class_table = class_table_from_obj(doc["class_table"])
    return IntersectionConfig(
        ned_origin=ned_origin,
        zones=tuple(zones),
        schedule=schedule,
        params=params,
        class_table=class_table,
    )


def load_intersection_config(path) -> IntersectionConfig:
    return load_json_document(path, "config", config_from_obj)

