import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartmc import counting
from lidartmc.counting import (
    MovementEvent,
    cluster_triggers,
    count_rights_from_egress,
    count_session,
    estimate_tmc,
    events_to_csv,
    extract_triggers,
)
from lidartmc.errors import UserInputError
from lidartmc.geo import GeodeticPoint, NedPoint
from lidartmc.stream import BOX_COLUMNS, FRAME_NED, Frame, MergedStream
from lidartmc.stream import L as BOX_L, X as BOX_X, Y as BOX_Y
from lidartmc.intersection import (
    Approach,
    CountingParams,
    IntersectionConfig,
    Movement,
    PhaseInterval,
    PhaseSchedule,
    Zone,
    ZoneKind,
)
from oracle import (bin_events, count_events, events_csv, point_triggers, sensor_logs,
                    trigger_series, trigger_table)
from oracle import cluster as oracle_cluster

NB, SB, EB, WB = Approach.NB, Approach.SB, Approach.EB, Approach.WB
L, T, R, U = Movement.LEFT, Movement.THRU, Movement.RIGHT, Movement.UTURN


def small_config():
    """One thru ingress, one right ingress, one right egress surrogate."""
    zones = (
        Zone("THRU", ZoneKind.INGRESS, NedPoint(-19.0, 5.25, 0.0), 4.0, 1.75, 0.0, ((NB, T),)),
        Zone("RIGHT", ZoneKind.INGRESS, NedPoint(-8.75, -19.0, 0.0), 4.0, 1.75, math.pi / 2, ((EB, R),)),
        Zone("SURR", ZoneKind.EGRESS, NedPoint(-5.25, 19.0, 0.0), 4.0, 1.75, math.pi / 2, ((NB, R),)),
        Zone("OUT", ZoneKind.EGRESS, NedPoint(19.0, 7.0, 0.0), 4.0, 3.5, 0.0, ((NB, T),)),
    )
    schedule = PhaseSchedule(
        (
            PhaseInterval(0.0, 60.0, frozenset({(NB, T), (SB, T)})),
            PhaseInterval(60.0, 120.0, frozenset({(EB, T), (WB, T)})),
        )
    )
    return IntersectionConfig(
        ned_origin=GeodeticPoint(34.05, -117.4, 350.0),
        zones=zones,
        schedule=schedule,
    )


def trig(t, length=4.5, frame_id="L1"):
    return (t, length, frame_id)


def cluster(series, cfg, params=None):
    return cluster_triggers({z: trigger_series(ts, cfg, z) for z, ts in series.items()}, cfg,
                            params)


def egress(series, cfg):
    return count_rights_from_egress({z: trigger_series(ts, cfg, z) for z, ts in series.items()},
                                    cfg)


def ned_frame(t, *dets, frame_id="L1"):
    rows = [[n, e, -0.75, length, 1.9, 1.5, 0.0, math.nan] for n, e, length in dets]
    return Frame(frame_id, t, np.array(rows).reshape(-1, 8))


def ned_stream(*frames):
    return MergedStream.from_frames(frames, FRAME_NED)


class TestCountingParams:
    def test_defaults(self):
        p = CountingParams()
        assert (p.min_headway_right, p.min_headway_other) == (2.0, 1.2)
        assert asdict(p) == {"min_headway_right": 2.0, "min_headway_other": 1.2}

    def test_ordering_invariant(self):
        assert CountingParams(min_headway_other=2.0).min_headway_other == 2.0
        for other, right in ((2.5, 2.0), (0.0, 2.0), (-0.1, 2.0), (-1.0, -0.5)):
            with pytest.raises(UserInputError, match="^need 0 < min_headway_other"):
                CountingParams(min_headway_other=other, min_headway_right=right)

    def test_thresholds_must_be_finite(self):
        for field in ("min_headway_right", "min_headway_other"):
            for value in (math.nan, math.inf):
                with pytest.raises(UserInputError):
                    CountingParams(**{field: value})

    def test_thresholds_must_be_numbers(self):
        for field in ("min_headway_right", "min_headway_other"):
            for value in (True, "1.0"):
                with pytest.raises(TypeError):
                    CountingParams(**{field: value})


class TestExtractTriggers:
    def test_detection_in_zone_during_phase(self):
        cfg = small_config()
        stream = ned_stream(ned_frame(10.0, (-19.0, 5.25, 4.5)))
        out = extract_triggers(stream, cfg)
        assert len(out["THRU"]) == 1
        tr = out["THRU"]
        assert (tr.t.tolist(), tr.length.tolist(), tr.sensor.tolist()) == ([10.0], [4.5], [0])

    def test_gated_by_phase(self):
        cfg = small_config()
        # EB-only interval: the NB thru zone must not trigger.
        stream = ned_stream(ned_frame(70.0, (-19.0, 5.25, 4.5)))
        out = extract_triggers(stream, cfg)
        assert len(out["THRU"]) == 0

    def test_right_zone_triggers_on_red(self):
        cfg = small_config()
        # 10 s is the NB/SB phase, but rights are always permitted.
        stream = ned_stream(ned_frame(10.0, (-8.75, -19.0, 4.5)))
        out = extract_triggers(stream, cfg)
        assert len(out["RIGHT"]) == 1

    def test_detection_outside_all_zones(self):
        cfg = small_config()
        stream = ned_stream(ned_frame(10.0, (0.0, 0.0, 4.5)))
        out = extract_triggers(stream, cfg)
        assert all(not v for v in out.values())

    def test_contained_detection_outside_session_raises(self):
        cfg = small_config()
        stream = ned_stream(ned_frame(500.0, (-19.0, 5.25, 4.5)))
        with pytest.raises(UserInputError,
                           match=r"^t=500.0 outside schedule session \[0.0, 120.0\)$"):
            extract_triggers(stream, cfg)

    def test_uncontained_detection_outside_session_ok(self):
        cfg = small_config()
        stream = ned_stream(ned_frame(500.0, (0.0, 0.0, 4.5)))
        out = extract_triggers(stream, cfg)
        assert all(not v for v in out.values())

    def test_requires_ned(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            extract_triggers(MergedStream.from_frames(()), cfg)


class TestClusterThresholds:
    """The acceptance threshold fixtures, trigger-pair level."""

    @pytest.mark.parametrize(
        "gap,expected", [(0.5, 1), (1.1, 1), (1.2, 2), (1.5, 2)]
    )
    def test_thru_zone_pairs(self, gap, expected):
        # Pairs start at t=0 so the gap is the exact float threshold.
        cfg = small_config()
        series = {"THRU": [trig(0.0), trig(gap)]}
        events = cluster(series, cfg)
        assert len(events) == expected

    @pytest.mark.parametrize("gap,expected", [(1.8, 1), (2.0, 2), (2.5, 2)])
    def test_right_zone_pairs(self, gap, expected):
        cfg = small_config()
        series = {"RIGHT": [trig(0.0), trig(gap)]}
        events = cluster(series, cfg)
        assert len(events) == expected

    def test_dense_triggers_single_event(self):
        cfg = small_config()
        series = {"THRU": [trig(t) for t in (0.0, 0.25, 0.5)]}
        events = cluster(series, cfg)
        assert len(events) == 1
        assert events[0].t == 0.0  # first trigger of the cluster

    def test_absorbed_chain_stays_one_vehicle(self):
        # Each 0.9 s gap is below the thru headway and extends the vehicle,
        # so a slow vehicle re-triggering for 3.6 s still counts once.
        cfg = small_config()
        series = {"THRU": [trig(i * 0.9) for i in range(5)]}
        assert len(cluster(series, cfg)) == 1

    def test_absorb_off_counts_every_gap(self):
        cfg = small_config()
        # A tiny headway joins no re-trigger: the overcounting raw mode.
        params = CountingParams(min_headway_right=1e-6, min_headway_other=1e-6)
        series = {"THRU": [trig(i * 0.9) for i in range(5)]}
        assert len(cluster(series, cfg, params)) == 5

    def test_representative_length_is_cluster_max(self):
        cfg = small_config()
        series = {
            "THRU": [
                trig(0.0, 3.0),
                trig(0.3, 6.2),
                trig(0.5, 4.0),
            ]
        }
        events = cluster(series, cfg)
        assert events[0].representative_length == 6.2
        assert events[0].vehicle_class == 4

    def test_vehicle_without_a_positive_length_raises(self):
        # Only a vehicle's longest box is classified: a bad box inside a
        # vehicle with a good one counts, a vehicle of bad boxes raises.
        cfg = small_config()
        assert len(cluster({"THRU": [trig(0.0, 0.0), trig(0.3, 4.5)]}, cfg)) == 1
        series = {"THRU": [trig(0.0, 4.5), trig(5.0, -2.0), trig(5.3, -1.0)]}
        with pytest.raises(UserInputError, match="^length must be positive and finite, got -1.0$"):
            cluster(series, cfg)

    def test_cross_sensor_dedup(self):
        # Two sensors' triggers within the thru headway (1.2 s) are one
        # vehicle and beyond it two, as one sensor's are: the sensor does
        # not enter the rule.
        cfg = small_config()
        for sensor in ("L1", "L2"):
            for gap, expected in ((0.9, 1), (1.1999, 1), (1.2, 2), (1.3, 2)):
                series = {"THRU": [trig(0.0, frame_id="L1"), trig(gap, frame_id=sensor)]}
                assert len(cluster(series, cfg)) == expected, (gap, sensor)

    def test_event_labeling_uses_primary_binding(self):
        cfg = small_config()
        events = cluster({"THRU": [trig(5.0)]}, cfg)
        assert events[0].approach is NB
        assert events[0].movement is T


class TestThresholdSanity:
    def test_all_gaps_above_headway_one_event_each(self):
        cfg = small_config()
        series = {"THRU": [trig(i * 1.3) for i in range(10)]}
        assert len(cluster(series, cfg)) == 10

    def test_all_gaps_below_cluster_gap_one_event(self):
        cfg = small_config()
        series = {"THRU": [trig(i * 0.2) for i in range(30)]}
        assert len(cluster(series, cfg)) == 1

    def test_determinism(self):
        cfg = small_config()
        rng = np.random.default_rng(55)
        ts = np.cumsum(rng.uniform(0.1, 3.0, 50))
        series = {"THRU": [trig(float(t)) for t in ts]}
        a = cluster(series, cfg)
        b = cluster(series, cfg)
        assert a == b

    def test_prefix_stability(self):
        # Greedy clustering is online: truncating the series never
        # changes the events already closed before the cut.
        cfg = small_config()
        rng = np.random.default_rng(56)
        ts = np.cumsum(rng.uniform(0.1, 3.0, 60))
        series = [trig(float(t)) for t in ts]
        full = cluster({"THRU": series}, cfg)
        for cut in (10, 25, 40):
            part = cluster({"THRU": series[:cut]}, cfg)
            assert len(part) <= len(full)
            # all but the last (possibly still-open) cluster agree
            assert [e.t for e in part[:-1]] == [e.t for e in full[: len(part) - 1]]

    def test_duplicate_stream_idempotent(self):
        cfg = small_config()
        rng = np.random.default_rng(57)
        ts = np.cumsum(rng.uniform(0.1, 3.0, 40))
        once = [trig(float(t), frame_id="L1") for t in ts]
        twice = sorted(once + once, key=lambda tr: tr[0])
        assert len(cluster({"THRU": once}, cfg)) == len(
            cluster({"THRU": twice}, cfg)
        )


class TestEgressSurrogate:
    def test_counts_rights(self):
        cfg = small_config()
        series = {"SURR": [trig(10.0), trig(10.3)]}
        events = egress(series, cfg)
        assert len(events) == 1
        assert events[0].approach is NB and events[0].movement is R

    def test_right_threshold_applies(self):
        cfg = small_config()
        series = {"SURR": [trig(0.0), trig(2.5)]}
        assert len(egress(series, cfg)) == 2
        series = {"SURR": [trig(0.0), trig(1.8)]}
        assert len(egress(series, cfg)) == 1

    def test_multi_binding_surrogate_rejected(self):
        # BAD binds (NB, Right) and (WB, Thru): thru traffic into the
        # same egress would be counted as rights, so it cannot serve as
        # a surrogate even though the config itself is consistent.
        zones = (
            Zone("IN", ZoneKind.INGRESS, NedPoint(0.0, 0.0, 0.0), 4.0, 1.75, 0.0, ((WB, T),)),
            Zone("SURR", ZoneKind.EGRESS, NedPoint(20.0, 0.0, 0.0), 4.0, 1.75, 0.0, ((NB, R),)),
            Zone(
                "BAD",
                ZoneKind.EGRESS,
                NedPoint(10.0, 0.0, 0.0),
                4.0,
                1.75,
                0.0,
                ((NB, R), (WB, T)),
            ),
        )
        schedule = PhaseSchedule((PhaseInterval(0.0, 60.0, frozenset({(WB, T)})),))
        cfg = IntersectionConfig(GeodeticPoint(0.0, 0.0, 0.0), zones, schedule)
        with pytest.raises(UserInputError, match="^zone 'BAD' is not a single-binding right-turn"):
            egress({"BAD": [trig(5.0)]}, cfg)

    def test_plain_ingress_zone_rejected_as_surrogate(self):
        cfg = small_config()
        with pytest.raises(UserInputError, match="^zone 'THRU' is not a single-binding right-turn"):
            egress({"THRU": []}, cfg)


class TestCountSession:
    def test_ignores_observational_egress(self):
        cfg = small_config()
        # Detection inside the OUT egress zone (not a surrogate).
        stream = ned_stream(ned_frame(10.0, (19.0, 7.0, 4.5)))
        events, meta = count_session(sensor_logs([stream], cfg), cfg)
        assert events.to_list() == []
        assert meta["ignored_egress_zones"] == ["OUT"]
        assert meta["triggers_per_zone"]["OUT"] == 1

    def test_full_pass(self):
        cfg = small_config()
        stream = ned_stream(
            ned_frame(10.0, (-19.0, 5.25, 4.5)),  # NB thru
            ned_frame(20.0, (-5.25, 19.0, 4.5)),  # NB right via surrogate
            ned_frame(70.0, (-8.75, -19.0, 9.0)),  # EB right ingress
        )
        events, meta = count_session(sensor_logs([stream], cfg), cfg)
        assert [(e.approach, e.movement) for e in events.to_list()] == [
            (NB, T),
            (NB, R),
            (EB, R),
        ]
        assert meta["events"] == 3


class TestEstimateTmc:
    def test_zero_events(self):
        table = estimate_tmc([], 300.0, (0.0, 1200.0))
        assert table.counts.shape == (4, 4, 4, 6)
        assert table.counts.sum() == 0

    def test_bin_boundary_goes_to_later_bin(self):
        ev = MovementEvent(NB, T, 300.0, 3, 4.5)
        table = estimate_tmc([ev], 300.0, (0.0, 600.0))
        assert table.counts[0].sum() == 0
        assert table.counts[1, 0, 1, 2] == 1

    def test_event_outside_session_rejected(self):
        ev = MovementEvent(NB, T, 700.0, 3, 4.5)
        with pytest.raises(UserInputError):
            estimate_tmc([ev], 300.0, (0.0, 600.0))

    @pytest.mark.parametrize("vehicle_class", [0, 7])
    def test_event_class_out_of_range_rejected(self, vehicle_class):
        ev = MovementEvent(NB, T, 10.0, vehicle_class, 4.5)
        with pytest.raises(UserInputError, match="outside 1..6"):
            estimate_tmc([ev], 300.0, (0.0, 600.0))

    def test_movement_split_row(self):
        # 49 NB class-3 events in bin 0 split 3/38/6/2 over L/T/R/U.
        events = []
        t = 0.0
        for movement, n in ((L, 3), (T, 38), (R, 6), (U, 2)):
            for _ in range(n):
                events.append(MovementEvent(NB, movement, t, 3, 4.5))
                t += 5.0
        table = estimate_tmc(events, 300.0, (0.0, 300.0))
        assert table.counts[0, 0, :, 2].tolist() == [3, 38, 6, 2]
        assert table.counts.sum() == 49


def test_events_csv_schema():
    events = [MovementEvent(NB, T, 12.5, 3, 4.5)]
    text = events_to_csv(events)
    lines = text.strip().splitlines()
    assert lines[0] == "t,approach,movement,class,length"
    assert lines[1] == "12.5,NB,Thru,3,4.5"


@pytest.mark.parametrize("t,length", [(5e-05, 1e16), (-0.0, 123456.789), (0.1, math.inf),
                                      (math.nan, 4.5)])
def test_events_csv_spells_floats_by_repr(t, length):
    events = [MovementEvent(NB, T, 12.5, 3, 4.5), MovementEvent(SB, L, t, 2, length)]
    assert events_to_csv(events) == events_csv(events)


DAY_CYCLES = 864  # 100 s cycles: 24 h, 3,456 intervals


@pytest.mark.parametrize("all_red", [0.0, 2.0])
def test_zone_triggers_on_a_day_long_schedule(reference_config, all_red):
    """The reference config's first cycle repeated to 24 h, each interval
    cut ``all_red`` seconds short: at every zone's centre and outside all
    zones, at times on and next to interval edges and session edges in
    the first, a middle and the last cycle, the triggers are the
    oracle's."""
    cycle = reference_config.schedule.intervals[:4]
    schedule = PhaseSchedule(tuple(
        PhaseInterval(iv.start + 100.0 * k, iv.end + 100.0 * k - all_red, iv.permitted)
        for k in range(DAY_CYCLES) for iv in cycle))
    cfg = replace(reference_config, schedule=schedule)
    assert len(cfg.schedule.intervals) == 3456 and cfg.schedule.session[1] == 86400.0 - all_red
    edges = [e + 100.0 * k for k in (0, DAY_CYCLES // 2, DAY_CYCLES - 1)
             for iv in cycle for e in (iv.start, iv.end - all_red)]
    edges += [0.0, cfg.schedule.session[1]]
    times = sorted({x for e in edges for x in (e - 0.25, np.nextafter(e, -math.inf), e, e + 0.25)})
    times.append(math.nan)
    points = [(z.center.north, z.center.east) for z in cfg.zones] + [(0.0, 0.0)]
    north, east, t = (np.array(c) for c in zip(*((n, e, ti) for ti in times for n, e in points)))
    boxes = np.zeros((len(t), len(BOX_COLUMNS)))
    boxes[:, BOX_X], boxes[:, BOX_Y], boxes[:, BOX_L] = north, east, np.arange(len(t)) + 0.5
    # Each row's own sensor code is its index, so a trigger names its row.
    found, dropped = counting.zone_triggers(boxes, t, np.arange(len(t)), cfg)
    triggers, expected_dropped = point_triggers(north, east, t, cfg)
    assert list(zip(found.sensor.tolist(), found.zone.tolist())) == triggers
    rows = found.sensor
    assert found.t.tolist() == t[rows].tolist() and found.length.tolist() == (rows + 0.5).tolist()
    assert any(cfg.zones[j].right_only for _, j in triggers)
    assert np.array_equal(dropped, expected_dropped, equal_nan=True) and len(dropped)


# Gaps on and next to each headway of HEADWAYS: 0.6, 1.2, 1.5 and 2.0 s.
GAPS = [0.0, 0.3, 0.5999, 0.6, 0.6001, 1.1999, 1.2, 1.2001, 1.4999, 1.5, 1.5001,
        1.9999, 2.0, 2.0001, 3.0]
# Class boundaries and values between them.
LENGTHS = [0.5, 1.0, 2.2, 4.5, 5.0, 6.9, 7.0, 12.0, 15.0]


@st.composite
def zone_triggers(draw):
    """(t, length, frame_id) triggers of each zone of ``small_config``,
    time-ordered, at times taken from one grid so zones share times."""
    grid = np.cumsum(draw(st.lists(st.sampled_from(GAPS), min_size=1, max_size=30))).tolist()
    out = {}
    for zone_id in ("THRU", "RIGHT", "SURR", "OUT"):
        picks = sorted(draw(st.lists(st.integers(0, len(grid) - 1), max_size=15)))
        out[zone_id] = [(grid[i], draw(st.sampled_from(LENGTHS)),
                         draw(st.sampled_from(["L1", "L2"]))) for i in picks]
    return out


# (other, right) headway pairs on the GAPS grid: the defaults first, and
# ``other == right`` among the rest.
HEADWAYS = [(1.2, 2.0), (0.6, 1.5), (1.5, 1.5), (1.2, 1.2), (0.6, 2.0)]


@settings(max_examples=200, deadline=None)
@given(zone_triggers(), st.sampled_from(HEADWAYS), st.sampled_from([0.1, 1.0, 7.0, 300.0]))
def test_array_clustering_equals_the_oracle(triggers, headways, bin_seconds):
    """The columns give the oracle's clusters in the oracle's event
    order, and the list form bins and spells them as the columns do."""
    cfg = small_config()
    other, right = headways
    params = CountingParams(min_headway_right=right, min_headway_other=other)
    series = {zone_id: trigger_series(ts, cfg, zone_id) for zone_id, ts in triggers.items()}
    for zone_id in ("THRU", "RIGHT"):
        got = cluster_triggers({zone_id: series[zone_id]}, cfg, params)
        min_headway = params.min_headway_for(cfg.zone_by_id(zone_id))
        assert [(e.t, e.representative_length) for e in got] == oracle_cluster(
            triggers[zone_id], min_headway)
    counted = {z.id: triggers[z.id] for z in cfg.ingress_zones + cfg.right_surrogate_zones}
    events = counting._events(trigger_table(counted, cfg), cfg, params)
    expected = count_events(triggers, cfg, params)
    assert events.to_list() == expected
    assert [cfg.zones[i].primary_binding for i in events.zone.tolist()] == [
        (e.approach, e.movement) for e in expected]
    session = (0.0, float(math.floor(max([0.0, *events.t.tolist()]))) + 1.0)
    table = estimate_tmc(events, bin_seconds, session)
    assert table == estimate_tmc(expected, bin_seconds, session)
    assert table == bin_events(expected, bin_seconds, session)
    assert events_to_csv(events) == events_to_csv(expected) == events_csv(expected)
