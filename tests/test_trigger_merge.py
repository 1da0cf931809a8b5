"""``counting.count_session`` over the trigger columns of per-sensor NED
streams (``oracle.sensor_logs``, what the parse cut gives) against the
box merge it replaced (``oracle.count_merged``: ``merge_streams``, the
triggers of the merged stream, then the events): the same trigger
table, the same events and the same ``counting`` metadata on every
bundled scenario and on drawn logs with a sensor split across two logs,
jittered frames, equal frame times across sensors and a duplicated
frame."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartmc.counting import count_session, merge_triggers
from lidartmc.errors import UserInputError
from lidartmc.ingest import check_order, frames_to_ned
from lidartmc.intersection import PhaseInterval, PhaseSchedule, outside_session_error
from lidartmc.reference import build_reference_config
from lidartmc.scenarios import scenario_suite
from lidartmc.simgen import simulate
from lidartmc.stream import FRAME_NED, Frame, MergedStream
from oracle import count_merged, merged_triggers, sensor_logs

CFG = build_reference_config()
# The reference zones with every binding permitted for the whole session,
# so that every drawn box in a zone triggers.
OPEN_CFG = replace(CFG, schedule=PhaseSchedule((PhaseInterval(
    *CFG.schedule.session, frozenset(b for z in CFG.zones for b in z.bindings)),)))
REORDER_WINDOW = 1.0
# Frame times lie on a grid of binary fractions, so equal times are exact.
TICK = 0.125
LENGTHS = (0.8, 1.5, 4.5, 6.0, 9.0, 13.0)


def assert_same_count(streams, cfg):
    logs = sensor_logs(streams, cfg)
    triggers, want_triggers = merge_triggers(logs), merged_triggers(streams, cfg)
    for name, column in vars(want_triggers).items():
        got = getattr(triggers, name)
        assert got.dtype == column.dtype and got.tolist() == column.tolist(), name
    events, meta = count_session(logs, cfg)
    want, want_meta = count_merged(streams, cfg)
    assert meta == want_meta
    for name, column in vars(want).items():
        got = getattr(events, name)
        assert got.dtype == column.dtype and got.tolist() == column.tolist(), name
    return meta


def ned_stream(frames) -> MergedStream:
    return MergedStream.from_frames(frames, FRAME_NED)


def box(zone, length: float) -> list[float]:
    """A row at the centre of ``zone``."""
    return [zone.center.north, zone.center.east, 0.0, length, 1.9, 1.5, 0.0, np.nan]


@pytest.mark.parametrize("scenario", scenario_suite(), ids=lambda sc: sc.name)
def test_scenario_matches_box_merge(scenario):
    session = simulate(scenario.script, scenario.cfg, replace(scenario.sim, seed=17))
    streams = [frames_to_ned(s, session.registry) for s in session.frames_by_sensor.values()]
    # A rotated log: the first sensor's frames in two streams.
    frames = streams[0].frames
    half = len(frames) // 2
    rotated = [ned_stream(frames[:half]), ned_stream(frames[half:]), *streams[1:]]
    for case in (streams, streams[::-1], rotated):
        assert assert_same_count(case, scenario.cfg)["events"] > 0


@st.composite
def logs(draw):
    """Two or three NED streams: the frames of one sensor split across
    two of them, and, with three, another sensor's. Frames lie on a
    shared grid, the split sensor's each jittered by at most 3/8 s, one
    of them is duplicated, and the other sensor has frames at some of
    the same times. A grid starting at 0 s can jitter frames before the
    session."""
    split_sensor, other = draw(st.permutations(["L1", "L2"]))
    zones = draw(st.lists(st.sampled_from(CFG.zones), min_size=1, max_size=3))
    start = draw(st.integers(0, 280))
    jitter = st.sampled_from([0.0, 0.0, 0.0, -3 * TICK, -TICK, TICK, 2 * TICK, 3 * TICK])

    def grid(max_size):
        ticks = draw(st.sets(st.integers(0, 60), max_size=max_size))
        return [start + k * TICK for k in sorted(ticks)]

    def frames(sensor, times):
        return [Frame(sensor, t, np.array([
            box(draw(st.sampled_from(zones)), draw(st.sampled_from(LENGTHS)))
            for _ in range(draw(st.integers(0, 3)))]).reshape(-1, 8)) for t in times]

    times = [t + draw(jitter) for t in grid(40)] or [float(start)]
    split = frames(split_sensor, times)
    dup = draw(st.integers(0, len(split) - 1))
    split.insert(dup + 1, split[dup])
    cut = draw(st.integers(0, len(split)))
    streams = [ned_stream(split[:cut]), ned_stream(split[cut:])]
    if draw(st.booleans()):
        shared = draw(st.sets(st.sampled_from(times), min_size=1))
        streams.append(ned_stream(frames(other, sorted(shared.union(grid(20))))))
    return draw(st.permutations(streams))


@settings(max_examples=150, deadline=None)
@given(streams=logs(), cfg=st.sampled_from([CFG, OPEN_CFG]))
def test_drawn_logs_match_box_merge(streams, cfg):
    logs = sensor_logs(streams, cfg)
    check_order(logs, REORDER_WINDOW)
    dropped = np.concatenate([log.dropped for log in logs])
    if len(dropped):
        # A frame jittered before the session's start: the box merge
        # refuses the earliest dropped time of the logs.
        message = str(outside_session_error(float(dropped.min()), cfg.schedule.session))
        with pytest.raises(UserInputError, match=f"^{re.escape(message)}$"):
            count_merged(streams, cfg)
    else:
        assert_same_count(streams, cfg)


def test_outside_session_raises_with_the_earliest_time():
    # The session is [0, 300). Each stream's earliest contained row
    # outside it is not its first, the second stream holds the earliest
    # of all, and an earlier row in no zone does not count. The earliest
    # dropped time of the logs, which ``estimate --strict`` refuses, is the
    # one that the box merge refuses.
    zone, session = CFG.zone_by_id("NB_T1"), CFG.schedule.session
    assert session == (0.0, 300.0)
    far = [900.0, 900.0, *box(zone, 4.5)[2:]]
    first = ned_stream([Frame("L1", -9.0, np.array([far])),
                        Frame("L1", 305.0, np.array([box(zone, 4.5)])),
                        Frame("L1", 304.5, np.array([box(zone, 4.5)]))])
    second = ned_stream([Frame("L2", -1.5, np.array([box(zone, 4.5)])),
                         Frame("L2", -2.25, np.array([box(zone, 4.5)])),
                         Frame("L2", 20.0, np.array([box(zone, 4.5)]))])
    message = r"^t=-2\.25 outside schedule session \[0\.0, 300\.0\)$"
    for streams in ([first, second], [second, first]):
        logs = sensor_logs(streams, CFG)
        check_order(logs, REORDER_WINDOW)
        dropped = np.concatenate([log.dropped for log in logs])
        assert sorted(dropped.tolist()) == [-2.25, -1.5, 304.5, 305.0]
        assert re.match(message, str(outside_session_error(float(dropped.min()), session)))
        with pytest.raises(UserInputError, match=message):
            count_merged(streams, CFG)
        assert count_session(logs, CFG)[1]["triggers_per_zone"]["NB_T1"] == 1
