import gzip
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_rows, random_rotation
from lidartmc import ingest, stream
from lidartmc.errors import MalformedLineError, UserInputError
from lidartmc.geo import (
    FrameRegistry,
    GeodeticPoint,
    RigidTransform,
    lla_to_ecef,
    ned_rotation,
)
from lidartmc.ingest import frames_to_ned, merge_streams, open_detection_log, parse_detection_log
from lidartmc.stream import (
    BOX_COLUMNS,
    FRAME_NED,
    SCORE,
    YAW,
    H,
    L,
    W,
    X,
    Y,
    Z,
    Frame,
    MergedStream,
    write_detection_log,
)
from oracle import box_rows, frame_to_json_line, line_reason, sensor_to_ned

FIXTURE_LINE = json.dumps(
    {
        "t": 1710968460.25,
        "frame_id": "L1",
        "detections": [
            {"x": 3.1, "y": -12.0, "z": 0.8, "l": 4.6, "w": 1.9, "h": 1.5, "yaw": 0.12}
        ],
    }
)


def boxes(*rows):
    """(k, 8) block; a row may leave out its score."""
    return np.array([list(r) + [math.nan] * (8 - len(r)) for r in rows]).reshape(-1, 8)


def make_frame(frame_id, t, *xy):
    return Frame(frame_id, t, boxes(*((x, y, 0.5, 4.5, 1.9, 1.5, 0.0) for x, y in xy)))


def first_error(source) -> MalformedLineError:
    """The lowest skipped line of a log: the error ``estimate --strict`` exits 2 on."""
    errors = []
    parse_detection_log(source, error_sink=errors)
    return errors[0]


class TestParse:
    def test_empty_source(self):
        assert list(parse_detection_log(io.StringIO(""))) == []

    def test_single_fixture_line(self):
        frames = list(parse_detection_log(io.StringIO(FIXTURE_LINE)))
        assert len(frames) == 1
        f = frames[0]
        assert f.frame_id == "L1"
        assert f.t == 1710968460.25
        assert len(f.detections) == 1
        d = f.detections[0]
        assert (d[X], d[Y], d[Z]) == (3.1, -12.0, 0.8)
        assert (d[L], d[W], d[H]) == (4.6, 1.9, 1.5)
        assert d[YAW] == 0.12
        assert math.isnan(d[SCORE])

    def test_negative_dimension_is_invalid_field(self):
        line = FIXTURE_LINE.replace('"l": 4.6', '"l": -1')
        assert first_error(io.StringIO(line)).reason == "length must be in (0, 50.0), got -1.0"

    def test_strict_raises_on_garbage(self):
        assert first_error(io.StringIO("{broken\n")).line_no == 1

    def test_skip_and_collect_by_default(self):
        source = io.StringIO("{broken\n" + FIXTURE_LINE + "\n")
        errors = []
        frames = list(parse_detection_log(source, error_sink=errors))
        assert len(frames) == 1
        assert len(errors) == 1
        assert errors[0].line_no == 1

    def test_frame_id_mismatch(self):
        other = FIXTURE_LINE.replace('"L1"', '"L2"')
        source = io.StringIO(FIXTURE_LINE + "\n" + other + "\n")
        errors = []
        frames = list(parse_detection_log(source, error_sink=errors))
        assert len(frames) == 1
        assert len(errors) == 1
        assert "does not match expected 'L1'" in errors[0].reason

    def test_groups_consecutive_same_timestamp(self):
        lines = [FIXTURE_LINE, FIXTURE_LINE]
        frames = list(parse_detection_log(io.StringIO("\n".join(lines))))
        assert len(frames) == 1
        assert len(frames[0].detections) == 2

    def test_yaw_wrapped(self):
        line = FIXTURE_LINE.replace('"yaw": 0.12', f'"yaw": {2 * math.pi + 0.12}')
        frames = list(parse_detection_log(io.StringIO(line)))
        assert frames[0].detections[0, YAW] == pytest.approx(0.12)

    def test_score_validation(self):
        line = FIXTURE_LINE.replace('"yaw": 0.12', '"yaw": 0.12, "score": 1.5')
        assert first_error(io.StringIO(line)).reason == "score 1.5 outside [0, 1]"

    def test_round_trip_fixed_point(self):
        frames = [
            Frame(
                "L1",
                1710968460.25,
                boxes(
                    (3.1, -12.0, 0.8, 4.6, 1.9, 1.5, 0.12, 0.87),
                    (-1.0, 2.0, 0.3, 9.5, 2.5, 3.3, -3.0),
                ),
            ),
            Frame("L1", 1710968460.5, boxes()),
        ]
        buf = io.StringIO()
        write_detection_log(MergedStream.from_frames(frames), buf)
        text = buf.getvalue()
        reparsed = list(parse_detection_log(io.StringIO(text)))
        assert frame_rows(reparsed) == frame_rows(frames)
        buf2 = io.StringIO()
        write_detection_log(MergedStream.from_frames(reparsed), buf2)
        assert buf2.getvalue() == text

    def test_gzip_transparent(self, tmp_path):
        plain = tmp_path / "log.jsonl"
        plain.write_text(FIXTURE_LINE + "\n")
        gz = tmp_path / "log.jsonl.gz"
        with gzip.open(gz, "wt", encoding="utf-8") as fh:
            fh.write(FIXTURE_LINE + "\n")
        for path in (plain, gz):
            with open_detection_log(path) as fh:
                assert len(list(parse_detection_log(fh))) == 1


GOOD_DET = {"x": 3.1, "y": -12.0, "z": 0.8, "l": 4.6, "w": 1.9, "h": 1.5, "yaw": 0.12}


def frame_line(t, *dets, frame_id="L1"):
    return json.dumps({"t": t, "frame_id": frame_id, "detections": list(dets)})


def bad_det(**fields):
    det = {**GOOD_DET, **fields}
    return {k: v for k, v in det.items() if v is not None}


# One line of every kind, each after a good box on the same line.
BAD_LINES = [
    ("bad JSON", frame_line(1.0, GOOD_DET)[:-5], "bad frame line: Expecting"),
    ("missing key", frame_line(2.0, GOOD_DET, bad_det(y=None)),
     "detection missing keys ['y']"),
    ("non-numeric", frame_line(3.0, GOOD_DET, bad_det(w="n/a")),
     "non-numeric detection field: expected a number, got 'n/a'"),
    ("non-finite", frame_line(4.0, GOOD_DET, bad_det(z=math.nan)), "z must be finite, got nan"),
    ("dimension", frame_line(5.0, GOOD_DET, bad_det(l=75.0)),
     "length must be in (0, 50.0), got 75.0"),
    ("score", frame_line(6.0, GOOD_DET, bad_det(score=1.5)), "score 1.5 outside [0, 1]"),
    ("infinite heading", frame_line(6.5, GOOD_DET, bad_det(yaw=-math.inf)),
     "heading must be finite, got -inf"),
    ("frame_id", frame_line(7.0, GOOD_DET, frame_id="L2"),
     "frame_id 'L2' does not match expected 'L1'"),
]


class TestBadLines:
    def test_every_kind_keeps_line_number_and_reason(self):
        lines = [frame_line(0.0, GOOD_DET)]
        for _, line, _ in BAD_LINES:
            lines += [line, frame_line(len(lines) + 10.0, GOOD_DET)]
        errors = []
        frames = list(parse_detection_log(lines, error_sink=errors))
        got = [(e.line_no, e.reason) for e in errors]
        assert [n for n, _ in got] == [2 + 2 * i for i in range(len(BAD_LINES))]
        for (kind, _, reason), (_, text) in zip(BAD_LINES, got):
            assert text.startswith(reason), kind
        # A bad box drops its whole line: only the good lines' boxes remain.
        assert [f.t for f in frames] == [0.0] + [11.0 + 2 * i for i in range(len(BAD_LINES))]
        assert all(len(f.detections) == 1 for f in frames)

    def test_strict_raises_lowest_bad_line(self):
        lines = [frame_line(0.0, GOOD_DET)] + [line for _, line, _ in BAD_LINES[::-1]]
        err = first_error(lines)
        assert (err.line_no, err.reason) == (2, "frame_id 'L2' does not match expected 'L1'")

    def test_sensor_adopted_from_first_good_line(self):
        lines = [
            frame_line(0.0, bad_det(h=0.0), frame_id="L2"),
            frame_line(1.0, GOOD_DET),
            frame_line(2.0, GOOD_DET, frame_id="L2"),
        ]
        errors = []
        frames = parse_detection_log(lines, error_sink=errors)
        assert [(f.frame_id, f.t) for f in frames] == [("L1", 1.0)]
        assert [e.reason for e in errors] == [
            "height must be in (0, 50.0), got 0.0",
            "frame_id 'L2' does not match expected 'L1'",
        ]

    def test_null_score_is_absent_but_nan_score_is_bad(self):
        lines = [frame_line(0.0, {**GOOD_DET, "score": None}),
                 frame_line(1.0, {**GOOD_DET, "score": math.nan})]
        errors = []
        frames = parse_detection_log(lines, error_sink=errors)
        assert [f.t for f in frames] == [0.0]
        assert math.isnan(frames[0].detections[0, SCORE])
        assert [e.reason for e in errors] == ["score nan outside [0, 1]"]

    def test_box_far_from_its_sensor_is_a_bad_line(self):
        # Checked after finiteness and before the dimensions; 1e7 m is kept.
        edge = math.nextafter(1e7, math.inf)
        lines = [frame_line(0.0, bad_det(x=1e7, y=-1e7, z=1e7)),
                 frame_line(1.0, GOOD_DET, bad_det(x=1.7e308, y=-1.7e308)),
                 frame_line(2.0, bad_det(y=-edge, l=75.0)),
                 frame_line(3.0, bad_det(x=10**20, z=math.inf)),
                 frame_line(4.0, bad_det(z=edge))]
        errors = []
        frames = parse_detection_log(lines, error_sink=errors)
        assert [f.t for f in frames] == [0.0]
        assert [e.reason for e in errors] == [
            "x must be within 1e+07 m of zero, got 1.7e+308",
            f"y must be within 1e+07 m of zero, got {-edge}",
            "z must be finite, got inf",
            f"z must be within 1e+07 m of zero, got {edge}",
        ]

    def test_huge_integer_is_a_bad_line(self):
        lines = [frame_line(10**400, GOOD_DET), frame_line(1.0, bad_det(x=10**400)),
                 frame_line(1.5, bad_det(score=10**400)), frame_line(2.0, GOOD_DET)]
        errors = []
        frames = parse_detection_log(lines, error_sink=errors)
        assert [f.t for f in frames] == [2.0]
        assert [(e.line_no, e.reason) for e in errors] == [
            (1, "bad frame line: int too large to convert to float"),
            (2, "non-numeric detection field: int too large to convert to float"),
            (3, "non-numeric detection field: int too large to convert to float"),
        ]

    def test_invalid_utf8_is_a_bad_line(self):
        good = frame_line(0.0, GOOD_DET).encode()
        errors = []
        frames = parse_detection_log([good, b"\xff" + good, good], error_sink=errors)
        assert len(frames) == 1 and len(frames[0].detections) == 2
        assert errors[0].line_no == 2
        assert errors[0].reason.startswith("bad frame line: 'utf-8' codec can't decode")

    def test_truncated_gzip_keeps_lines_before_the_break(self, tmp_path):
        text = "".join(frame_line(float(t), GOOD_DET) + "\n" for t in range(2000))
        data = gzip.compress(text.encode())
        path = tmp_path / "cut.jsonl.gz"
        path.write_bytes(data[: len(data) // 2])
        errors = []
        with open_detection_log(path) as fh:
            frames = parse_detection_log(fh, error_sink=errors)
        assert 0 < len(frames) < 2000
        assert [f.t for f in frames] == [float(t) for t in range(len(frames))]
        assert len(errors) == 1
        assert errors[0].reason.startswith("log ends in a broken block")


# A string or boolean where a number belongs, or a frame_id that is not a
# string: each line was kept before, read as the number or the sensor name
# it spells. (line, reason)
SPOOFED = {
    "t string": (frame_line("12.5", GOOD_DET), "bad frame line: expected a number, got '12.5'"),
    "t true": (frame_line(True, GOOD_DET), "bad frame line: expected a number, got True"),
    "x string": (frame_line(1.0, GOOD_DET, bad_det(x="3.1")),
                 "non-numeric detection field: expected a number, got '3.1'"),
    "l true": (frame_line(1.0, bad_det(l=True)),
               "non-numeric detection field: expected a number, got True"),
    "score true": (frame_line(1.0, bad_det(score=True)),
                   "non-numeric detection field: expected a number, got True"),
    "frame_id 7": (frame_line(1.0, GOOD_DET, frame_id=7), "frame_id must be a string, got 7"),
    "frame_id null": (frame_line(1.0, GOOD_DET, frame_id=None),
                      "frame_id must be a string, got None"),
}


class TestStrictNumbers:
    @pytest.mark.parametrize("name", SPOOFED)
    def test_spoofed_value_is_a_skipped_line(self, name):
        line, reason = SPOOFED[name]
        errors = []
        frames = parse_detection_log([line, frame_line(2.0, GOOD_DET)], error_sink=errors)
        assert [(f.frame_id, f.t) for f in frames] == [("L1", 2.0)]
        assert [(e.line_no, e.reason) for e in errors] == [(1, reason)]

    def test_integral_numbers_are_numbers(self):
        frames = parse_detection_log([frame_line(3, {**GOOD_DET, "x": -2, "l": 4, "score": 1})])
        assert frames[0].t == 3.0
        assert frames[0].detections[0, [X, L, SCORE]].tolist() == [-2.0, 4.0, 1.0]

    def test_other_reasons_come_first(self):
        # Each line has the reason of its first failed check: t before
        # frame_id before the boxes, and a box's values are numbers before
        # they are checked. A non-string frame_id is never a sensor mismatch.
        lines = [
            frame_line(0.0, GOOD_DET),
            frame_line("12.5", bad_det(l=75.0)),
            frame_line(2.0, bad_det(x="3.1"), bad_det(w="n/a")),
            frame_line(3.0, bad_det(x=True), bad_det(z=math.nan)),
            frame_line(4.0, bad_det(score="0.5"), bad_det(y=None)),
            frame_line(5.0, GOOD_DET, frame_id=7),
            frame_line("6.0", GOOD_DET, frame_id="L2"),
            frame_line(True, bad_det(x=[1.0])),
        ]
        errors = []
        frames = parse_detection_log(lines, error_sink=errors)
        assert [f.t for f in frames] == [0.0]
        assert [e.reason for e in errors] == [
            "bad frame line: expected a number, got '12.5'",
            "non-numeric detection field: expected a number, got '3.1'",
            "non-numeric detection field: expected a number, got True",
            "non-numeric detection field: expected a number, got '0.5'",
            "frame_id must be a string, got 7",
            "bad frame line: expected a number, got '6.0'",
            "bad frame line: expected a number, got True",
        ]

    def test_non_string_frame_id_is_not_adopted(self):
        # Before and after L1 is adopted, a non-string frame_id reads the
        # same; only a string one is checked against the adopted sensor.
        lines = [frame_line(0.0, GOOD_DET, frame_id=7), frame_line(1.0, GOOD_DET),
                 frame_line(2.0, GOOD_DET, frame_id="7"), frame_line(3.0, GOOD_DET, frame_id=3),
                 frame_line(4.0, GOOD_DET, frame_id=None)]
        errors = []
        frames = parse_detection_log(lines, error_sink=errors)
        assert [(f.frame_id, f.t) for f in frames] == [("L1", 1.0)]
        assert [e.reason for e in errors] == ["frame_id must be a string, got 7",
                                              "frame_id '7' does not match expected 'L1'",
                                              "frame_id must be a string, got 3",
                                              "frame_id must be a string, got None"]


DEEP = "[" * 100_000 + "]" * 100_000


class TestNesting:
    # orjson stops at 1,024 levels and json.loads near the recursion
    # limit: the first depth is past json's only, the second past both.
    @pytest.mark.parametrize("depth", [1_010, 100_000])
    @pytest.mark.parametrize("where", ["frame_id", "detection", "box field", "line"])
    def test_too_deep_a_line_is_a_skipped_line(self, depth, where):
        deep = "[" * depth + "]" * depth
        line = {
            "frame_id": '{"t": 1.0, "frame_id": %s, "detections": []}' % deep,
            "detection": '{"t": 1.0, "frame_id": "L1", "detections": [%s]}' % deep,
            "box field": frame_line(1.0, bad_det(x=0.5)).replace("0.5", deep),
            "line": deep,
        }[where]
        errors = []
        frames = parse_detection_log([frame_line(0.0, GOOD_DET), line,
                                      frame_line(2.0, GOOD_DET)], error_sink=errors)
        assert [f.t for f in frames] == [0.0, 2.0]
        assert [e.line_no for e in errors] == [2]

    def test_reason_of_a_line_past_both_decoders(self):
        errors = []
        parse_detection_log([DEEP], error_sink=errors)
        assert errors[0].reason.startswith("bad frame line: maximum recursion depth exceeded")

    @pytest.mark.parametrize("line", [
        "b'[' * 1_000_000 + b']' * 1_000_000",
        "b'{\"t\": 1.0, \"frame_id\": ' + b'{\"a\": ' * 200_000 + b'1' + b'}' * 200_001",
    ], ids=["array", "object"])
    def test_nesting_past_orjsons_stack_is_a_skipped_line(self, line):
        # A line this deep overflows orjson's stack (a crash, not an
        # exception), so the parse runs in a child process.
        code = ("import sys; from lidartmc.ingest import parse_detection_log; errors = []; "
                f"frames = parse_detection_log([{line}], error_sink=errors); "
                "print(len(frames), len(errors))")
        env = {**os.environ, "PYTHONPATH": str(Path(ingest.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout.split() == ["0", "1"]


def parse_outcome(lines):
    """Frames and skipped lines of a parse."""
    errors = []
    frames = parse_detection_log(lines, error_sink=errors)
    return frame_rows(frames), [(e.line_no, e.reason) for e in errors]


def chunked_outcomes(monkeypatch, lines, chunks=(1, 2, 3, 7)):
    """``parse_outcome`` with each chunk size, and with one chunk."""
    got = {}
    for rows in (*chunks, 10**9):
        monkeypatch.setattr(ingest, "CHUNK_ROWS", rows)
        got[rows] = parse_outcome(lines)
    return got.pop(10**9), got


def every_bad_kind():
    lines = [frame_line(0.0, GOOD_DET)]
    for _, line, _ in BAD_LINES:
        lines += [line, frame_line(len(lines) + 10.0, GOOD_DET)]
    return lines


# The inputs of TestBadLines.
BAD_LINE_INPUTS = {
    "every kind": every_bad_kind(),
    "lowest first": [frame_line(0.0, GOOD_DET)] + [line for _, line, _ in BAD_LINES[::-1]],
    "sensor adopted": [frame_line(0.0, bad_det(h=0.0), frame_id="L2"),
                       frame_line(1.0, GOOD_DET),
                       frame_line(2.0, GOOD_DET, frame_id="L2")],
    "null and nan score": [frame_line(0.0, {**GOOD_DET, "score": None}),
                           frame_line(1.0, {**GOOD_DET, "score": math.nan})],
    "huge integer": [frame_line(10**400, GOOD_DET), frame_line(1.0, bad_det(x=10**400)),
                     frame_line(1.5, bad_det(score=10**400)), frame_line(2.0, GOOD_DET)],
    "invalid utf-8": [frame_line(0.0, GOOD_DET).encode(),
                      b"\xff" + frame_line(0.0, GOOD_DET).encode(),
                      frame_line(0.0, GOOD_DET).encode()],
    "spoofed numbers": ([frame_line(0.0, GOOD_DET, frame_id=7)]
                        + [frame_line(1.0 + i, GOOD_DET, GOOD_DET) for i in range(3)]
                        + [line for line, _ in SPOOFED.values()]),
}


class TestChunks:
    """Parsing in chunks of CHUNK_ROWS boxes gives the result of one chunk."""

    @pytest.mark.parametrize("name", BAD_LINE_INPUTS)
    def test_bad_line_inputs(self, monkeypatch, name):
        whole, chunked = chunked_outcomes(monkeypatch, BAD_LINE_INPUTS[name])
        assert all(got == whole for got in chunked.values())

    def test_frame_straddling_a_chunk_boundary_stays_one_frame(self, monkeypatch):
        lines = [frame_line(1.0, GOOD_DET, GOOD_DET)] * 3 + [frame_line(2.0, GOOD_DET)]
        whole, chunked = chunked_outcomes(monkeypatch, lines)
        assert [(t, len(rows)) for _, t, rows in whole[0]] == [(1.0, 6), (2.0, 1)]
        assert all(got == whole for got in chunked.values())

    def test_bad_line_between_lines_of_one_frame(self, monkeypatch):
        lines = [frame_line(1.0, GOOD_DET, GOOD_DET), frame_line(1.0, bad_det(l=75.0)),
                 frame_line(1.0, GOOD_DET)]
        whole, chunked = chunked_outcomes(monkeypatch, lines)
        assert [(t, len(rows)) for _, t, rows in whole[0]] == [(1.0, 3)]
        assert whole[1] == [(2, "length must be in (0, 50.0), got 75.0")]
        assert all(got == whole for got in chunked.values())

    def test_strict_raises_lowest_bad_line_of_a_later_chunk(self, monkeypatch):
        # Line 6's bad box is found when its chunk is converted, after
        # line 7's bad JSON was read; line 6 must still win.
        lines = [frame_line(float(t), GOOD_DET) for t in range(5)]
        lines += [frame_line(5.0, bad_det(w=0.0)), "{broken", frame_line(6.0, GOOD_DET)]
        whole, chunked = chunked_outcomes(monkeypatch, lines)
        assert whole[1][0] == (6, "width must be in (0, 50.0), got 0.0")
        assert all(got == whole for got in chunked.values())

    def test_gzip_truncated_mid_chunk(self, monkeypatch, tmp_path):
        text = "".join(frame_line(float(t), GOOD_DET, GOOD_DET) + "\n" for t in range(600))
        data = gzip.compress(text.encode())
        path = tmp_path / "cut.jsonl.gz"
        path.write_bytes(data[: len(data) // 2])

        got = {}
        for rows in (1, 2, 3, 7, 10**9):
            monkeypatch.setattr(ingest, "CHUNK_ROWS", rows)
            with open_detection_log(path) as fh:
                got[rows] = parse_outcome(fh)
        frames, errors = got.pop(10**9)
        assert all(g == (frames, errors) for g in got.values())
        assert 0 < len(frames) < 600
        assert len(errors) == 1 and errors[0][1].startswith("log ends in a broken block")

    def test_sensor_adoption_carries_across_chunks(self, monkeypatch):
        lines = [frame_line(0.0, bad_det(h=0.0), frame_id="L2"),
                 frame_line(1.0, GOOD_DET), frame_line(2.0, GOOD_DET, frame_id="L2"),
                 frame_line(3.0, GOOD_DET, GOOD_DET), frame_line(4.0, GOOD_DET, frame_id="L2")]
        whole, chunked = chunked_outcomes(monkeypatch, lines)
        assert {fid for fid, *_ in whole[0]} == {"L1"}
        assert [n for n, _ in whole[1]] == [1, 3, 5]
        assert all(got == whole for got in chunked.values())
        monkeypatch.setattr(ingest, "CHUNK_ROWS", 1)
        frames = parse_detection_log(lines)
        assert frames[0].detections.base is frames[-1].detections.base

    @settings(max_examples=80, deadline=None)
    @given(
        chunk_rows=st.integers(1, 12),
        kinds=st.lists(st.sampled_from(["good", "same t", "empty", "bad json", "not object",
                                        "nan t", "bad box", "other sensor", "blank",
                                        "bool box", "string t"]),
                       max_size=25),
    )
    def test_any_chunk_size_matches_one_chunk(self, chunk_rows, kinds):
        lines, t = [], 0.0
        for i, kind in enumerate(kinds):
            if kind != "same t":
                t += 0.25
            lines.append({
                "good": frame_line(t, GOOD_DET, bad_det(x=float(i))),
                "same t": frame_line(t, GOOD_DET),
                "empty": frame_line(t),
                "bad json": "{broken",
                "not object": "[1]",
                "nan t": frame_line(math.nan, GOOD_DET),
                "bad box": frame_line(t, GOOD_DET, bad_det(score=2.0)),
                "other sensor": frame_line(t, GOOD_DET, frame_id="L2"),
                "blank": "",
                "bool box": frame_line(t, GOOD_DET, bad_det(l=True)),
                "string t": frame_line(str(t), GOOD_DET),
            }[kind])
        with pytest.MonkeyPatch.context() as mp:
            whole, chunked = chunked_outcomes(mp, lines, (chunk_rows,))
            assert chunked[chunk_rows] == whole


# Values that orjson and json.loads may read differently, or that one of
# them refuses: NaN and infinities (json.dumps writes NaN and Infinity),
# integers past 64 bits (orjson reads them as floats) and past the float
# range, a lone surrogate, and values that are not numbers.
ODD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), "\ud800", "\udfff",
                     "3.1", "n/a", True, False, None, [], {}, [2**64], -0.0, 0]),
    st.integers(2**63 - 2, 2**64 + 2**12),
    st.integers(-(2**64) - 2**12, -(2**63) + 2),
    st.integers(2**64, 2**1100),
)
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-(10**6), 10**6))
VALUES = st.one_of(NUMBERS, NUMBERS, NUMBERS, ODD_VALUES)
GOOD_BOXES = st.fixed_dictionaries(
    {"x": NUMBERS, "y": NUMBERS, "z": NUMBERS, "l": st.floats(0.1, 49.9),
     "w": st.floats(0.1, 49.9), "h": st.floats(0.1, 49.9), "yaw": st.floats(-10.0, 10.0)},
    optional={"score": st.one_of(st.none(), st.floats(0.0, 1.0))},
)
BOXES = st.one_of(
    GOOD_BOXES, GOOD_BOXES, GOOD_BOXES,
    st.builds(lambda box, key, value: {**box, key: value}, GOOD_BOXES,
              st.sampled_from([*BOX_COLUMNS, "extra"]), VALUES),
    ODD_VALUES,  # a detection that is not an object
)
FRAMES = st.fixed_dictionaries({
    "t": st.one_of(st.floats(0.0, 1e9), VALUES),
    "frame_id": st.one_of(st.just("L1"), st.just("L1"), st.sampled_from(["L2", "L\u00e9"]),
                          VALUES),
    "detections": st.one_of(st.lists(BOXES, max_size=4), VALUES),
})


@st.composite
def log_lines(draw):
    """One JSON line of a log, as bytes: mostly a frame, sometimes with a
    key repeated, a byte that is not UTF-8, or a value that is not an
    object in its place."""
    obj = draw(st.one_of(FRAMES, FRAMES, FRAMES, VALUES))
    text = json.dumps(obj).encode()
    how = draw(st.sampled_from(["as is", "as is", "duplicate key", "invalid utf-8"]))
    if how == "duplicate key" and text.startswith(b"{"):
        key = draw(st.sampled_from(["t", "frame_id", "detections"]))
        text = b"{" + json.dumps(key).encode() + b": " + json.dumps(draw(VALUES)).encode() + (
            b", " + text[1:] if len(text) > 2 else b"}")
    elif how == "invalid utf-8":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + text[at:]
    return text


def exact_outcome(lines):
    """``parse_outcome`` with every float as its bit pattern."""
    errors = []
    frames = parse_detection_log(lines, error_sink=errors)
    return ([(f.frame_id, struct.pack("<d", f.t), f.detections.tobytes()) for f in frames],
            [(e.line_no, e.reason) for e in errors])


class TestDecoder:
    """orjson with its json.loads fallback parses a log exactly as
    json.loads alone does."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(log_lines(), max_size=12))
    def test_same_outcome_as_json_loads_alone(self, lines):
        got = exact_outcome(lines)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orjson, "loads", json.loads)
            assert exact_outcome(lines) == got

    def test_integer_past_64_bits_is_quoted_as_written(self):
        big = 2**64 + 1
        lines = [frame_line(0.0, GOOD_DET), frame_line(1.0, GOOD_DET, frame_id=big),
                 frame_line(2.0, big)]
        errors = []
        parse_detection_log(lines, error_sink=errors)
        assert [e.reason for e in errors] == [
            f"frame_id must be a string, got {big}",
            f"detection must be an object, got {big}",
        ]


# Boxes as BOXES draws them, and also with a key left out, several values
# replaced at once, an odd score, an infinite heading, or coordinates at
# and past the coordinate bound.
ORACLE_BOXES = st.one_of(
    BOXES,
    st.builds(lambda box, values: {**box, **values}, GOOD_BOXES,
              st.dictionaries(st.sampled_from(BOX_COLUMNS[:3]), st.sampled_from(
                  [1e7, -1e7, math.nextafter(1e7, math.inf), -1.7e308, 10**8]), max_size=3)),
    st.builds(lambda box, score: {**box, "score": score}, GOOD_BOXES,
              st.sampled_from([None, math.nan, math.inf, -0.0, 1.5, "0.5", True])),
    st.builds(lambda box, key: {k: v for k, v in box.items() if k != key}, GOOD_BOXES,
              st.sampled_from(BOX_COLUMNS)),
    st.builds(lambda box, values: {**box, **values}, GOOD_BOXES,
              st.dictionaries(st.sampled_from(BOX_COLUMNS), VALUES, max_size=3)),
    st.builds(lambda box, yaw, values: {**box, **values, "yaw": yaw}, GOOD_BOXES,
              st.sampled_from([math.inf, -math.inf]),
              st.dictionaries(st.sampled_from(BOX_COLUMNS[:YAW]), VALUES, max_size=2)),
)


# Frames whose boxes ORACLE_BOXES draws and whose t and frame_id are
# mostly good; the others are a string, boolean or huge-integer t, and a
# non-string or foreign frame_id.
ORACLE_FRAMES = st.fixed_dictionaries({
    "t": st.one_of(*[st.floats(0.0, 1e9)] * 6,
                   st.sampled_from(["12.5", True, False, 10**400, 2**64 + 1])),
    "frame_id": st.one_of(*[st.just("L1")] * 6,
                          st.sampled_from(["L2", 7, None, True, 2**64 + 1, ["L1"]])),
    "detections": st.lists(ORACLE_BOXES, max_size=4),
})


class TestLineRuleAgainstOracle:
    """The parse gives each line the reason, and keeps the rows, that
    ``oracle.line_reason`` gives one check at a time, in any chunk size."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ORACLE_FRAMES, min_size=1, max_size=8))
    def test_same_reasons_and_rows_as_the_oracle(self, frames):
        lines = [json.dumps(frame) for frame in frames]
        sensor, want_errors, want_rows = None, [], []
        for line_no, line in enumerate(lines, start=1):
            reason = line_reason(line, sensor)
            if reason is None:
                sensor = json.loads(line)["frame_id"]
                want_rows += box_rows(json.loads(line)["detections"])
            else:
                want_errors.append((line_no, reason))
        want = np.array(want_rows, dtype=np.float64).reshape(-1, len(BOX_COLUMNS))
        for chunk_rows in (1, 7, ingest.CHUNK_ROWS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "CHUNK_ROWS", chunk_rows)
                got, errors = ingest._parse_columns(lines)
            assert [(e.line_no, e.reason) for e in errors] == want_errors
            # Bit for bit, every NaN taken as one.
            assert (np.where(np.isnan(got.boxes), np.nan, got.boxes).tobytes()
                    == np.where(np.isnan(want), np.nan, want).tobytes())


def test_parse_peak_memory_stays_near_two_blocks():
    """Peak traced memory of a parse of a log of more than 8 chunks.

    The block is 64 bytes a box; the kept chunk blocks and their join
    are two of those, and one chunk of raw tuples comes on top. Holding
    the whole log as tuples, as a one-pass parse does, takes about 7.5.
    """
    rng = random.Random(5)
    dets = json.dumps([
        dict(zip(BOX_COLUMNS, (rng.uniform(-40, 40), rng.uniform(-40, 40), rng.uniform(0, 2),
                             rng.uniform(1, 12), rng.uniform(1, 2.5), rng.uniform(1, 4),
                             rng.uniform(-3, 3), rng.uniform(0, 1))))
        for _ in range(30)
    ])
    lines = [f'{{"t": {i * 0.25}, "frame_id": "L1", "detections": {dets}}}'.encode()
             for i in range(2400)]
    tracemalloc.start()
    try:
        frames = parse_detection_log(lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = frames[0].detections.base
    assert peak < 3.5 * block.nbytes
    assert len(block) == 72_000 >= 8 * ingest.CHUNK_ROWS


class TestMerge:
    def test_single_stream_identity(self):
        frames = [make_frame("L1", t, (0.0, 0.0)) for t in (0.0, 0.25, 0.5)]
        merged = merge_streams([frames])
        assert frame_rows(merged) == frame_rows(frames)

    def test_strict_interleaving_at_offset(self):
        # Two 4 Hz streams offset by 0.125 s alternate exactly.
        a = [make_frame("L1", i * 0.25) for i in range(8)]
        b = [make_frame("L2", 0.125 + i * 0.25) for i in range(8)]
        merged = merge_streams([a, b])
        ids = [f.frame_id for f in merged]
        assert ids == ["L1", "L2"] * 8

    def test_far_out_of_order_rejected(self):
        frames = [make_frame("L1", 10.0), make_frame("L1", 5.0)]
        with pytest.raises(UserInputError) as exc:
            merge_streams([frames], reorder_window=1.0)
        assert str(exc.value) == "frame from sensor 'L1' at t=5.0 is more than 1.0s out of order"

    def test_jitter_within_window_sorted(self):
        frames = [make_frame("L1", t) for t in (0.0, 0.5, 0.4, 0.9)]
        merged = merge_streams([frames], reorder_window=1.0)
        assert [f.t for f in merged] == [0.0, 0.4, 0.5, 0.9]

    def test_columns_merge_like_frames_and_keep_their_frame(self):
        a = [make_frame("L2", t, (t, 1.0)) for t in (0.0, 0.5, 1.0)]
        b = [make_frame("L1", t, (t, 2.0), (t, 3.0)) for t in (0.25, 0.5)] + [
            Frame("L1", 0.75, boxes())]
        merged = merge_streams([MergedStream.from_frames(a, FRAME_NED),
                                MergedStream.from_frames(b, FRAME_NED)])
        assert merged.coordinate_frame == FRAME_NED
        assert frame_rows(merged) == frame_rows(merge_streams([a, b]))
        with pytest.raises(ValueError):
            merge_streams([MergedStream.from_frames(a, FRAME_NED), b])

    def test_tie_break_by_frame_id(self):
        a = [make_frame("L2", 1.0)]
        b = [make_frame("L1", 1.0)]
        merged = merge_streams([a, b])
        assert [f.frame_id for f in merged] == ["L1", "L2"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(0, 100), min_size=0, max_size=30),
            min_size=1,
            max_size=4,
        )
    )
    def test_merge_nondecreasing_property(self, raw_streams):
        streams = []
        for i, ts in enumerate(raw_streams):
            ts.sort()  # precondition: each stream individually ordered enough
            streams.append([make_frame(f"L{i}", t) for t in ts])
        merged = merge_streams(streams)
        out = [f.t for f in merged]
        assert out == sorted(out)
        assert len(out) == sum(len(s) for s in raw_streams)

    def test_merge_random_jitter_within_window(self):
        # Streams jittered by less than half the window stay valid and
        # come out globally sorted.
        rng = np.random.default_rng(33)
        streams = []
        for i in range(3):
            base = np.sort(rng.uniform(0, 60, 40))
            jittered = base + rng.uniform(-0.4, 0.4, base.size)
            streams.append([make_frame(f"L{i}", float(t)) for t in jittered])
        merged = merge_streams(streams, reorder_window=1.0)
        out = [f.t for f in merged]
        assert out == sorted(out)
        assert len(out) == 120


def _ned_aligned_registry():
    """Registry where the sensor frame coincides with the NED frame."""
    origin = GeodeticPoint(34.05, -117.4, 350.0)
    registry = FrameRegistry(origin)
    registry.register("L1", RigidTransform(ned_rotation(origin).rotation.T, lla_to_ecef(origin)))
    return registry


class TestFramesToNed:
    def test_ned_aligned_sensor_is_identity(self):
        registry = _ned_aligned_registry()
        frames = [make_frame("L1", 0.0, (3.0, -2.0), (10.0, 5.0))]
        out = frames_to_ned(MergedStream.from_frames(frames), registry)
        assert out.coordinate_frame == FRAME_NED
        for orig, conv in zip(frames[0].detections, out.frames[0].detections):
            assert conv[X] == pytest.approx(orig[X], abs=1e-9)
            assert conv[Y] == pytest.approx(orig[Y], abs=1e-9)
            assert conv[YAW] == pytest.approx(orig[YAW], abs=1e-12)

    def test_detection_at_ned_origin(self):
        # A sensor placed arbitrarily; the detection sits exactly at the
        # NED origin, so it must land on (0, 0, 0).
        rng = np.random.default_rng(31)
        origin = GeodeticPoint(34.05, -117.4, 350.0)
        registry = FrameRegistry(origin)
        t = RigidTransform(random_rotation(rng), lla_to_ecef(origin) + rng.uniform(-20, 20, 3))
        registry.register("L1", t)
        # the sensor point that the pose takes to the origin's ECEF point:
        p = t.rotation.T @ (lla_to_ecef(origin) - t.translation)
        assert sensor_to_ned(p, t, registry) == pytest.approx(np.zeros(3), abs=1e-6)
        frame = Frame("L1", 0.0, boxes((p[0], p[1], p[2], 4.5, 1.9, 1.5, 0.0)))
        out = frames_to_ned(MergedStream.from_frames([frame]), registry)
        d = out.frames[0].detections[0]
        assert abs(d[X]) < 1e-6 and abs(d[Y]) < 1e-6 and abs(d[Z]) < 1e-6

    def test_preserves_count_grouping_and_distances(self):
        rng = np.random.default_rng(32)
        origin = GeodeticPoint(34.05, -117.4, 350.0)
        registry = FrameRegistry(origin)
        base = lla_to_ecef(origin)
        registry.register(
            "L1", RigidTransform(random_rotation(rng), base + rng.uniform(-20, 20, 3))
        )
        frames = [
            make_frame("L1", float(i) * 0.25, *(tuple(rng.uniform(-30, 30, 2)) for _ in range(3)))
            for i in range(5)
        ]
        out = frames_to_ned(MergedStream.from_frames(frames), registry)
        assert len(out.frames) == len(frames)
        for before, after in zip(frames, out.frames):
            assert len(after.detections) == len(before.detections)
            assert after.frame_id == before.frame_id
            assert after.t == before.t
            # rigidity: pairwise distances preserved
            for i in range(3):
                for j in range(i + 1, 3):
                    db = math.dist(before.detections[i, :3], before.detections[j, :3])
                    da = math.dist(after.detections[i, :3], after.detections[j, :3])
                    assert da == pytest.approx(db, abs=1e-9)

    def test_matches_per_point_oracle(self):
        rng = np.random.default_rng(34)
        origin = GeodeticPoint(34.05, -117.4, 350.0)
        registry = FrameRegistry(origin)
        for fid in ("L1", "L2"):
            registry.register(fid, RigidTransform(
                random_rotation(rng), lla_to_ecef(origin) + rng.uniform(-50, 50, 3)))
        frames = [
            make_frame(f"L{1 + i % 2}", i * 0.1, *(tuple(rng.uniform(-60, 60, 2)) for _ in range(4)))
            for i in range(6)
        ]
        out = frames_to_ned(MergedStream.from_frames(frames), registry)
        for before, after in zip(frames, out.frames):
            pose = registry.transform_for(before.frame_id)
            for src, dst in zip(before.detections, after.detections):
                assert dst[:3] == pytest.approx(sensor_to_ned(src[:3], pose, registry), abs=1e-6)

    def test_row_maps_to_the_same_bits_in_any_block(self):
        rng = np.random.default_rng(35)
        origin = GeodeticPoint(34.05, -117.4, 350.0)
        registry = FrameRegistry(origin)
        registry.register("L1", RigidTransform(
            random_rotation(rng), lla_to_ecef(origin) + rng.uniform(-50, 50, 3)))
        pose = registry.ned_pose("L1")
        block = boxes(*((*rng.uniform(-80, 80, 3), 4.5, 1.9, 1.5, rng.uniform(-3, 3))
                        for _ in range(2000)))
        whole = ingest.ned_boxes(block, pose)
        rows = np.concatenate([ingest.ned_boxes(block[i : i + 1], pose) for i in range(2000)])
        assert whole.tobytes() == rows.tobytes()
        stream = frames_to_ned(MergedStream.from_frames([Frame("L1", 0.0, block)]), registry)
        assert stream.boxes.tobytes() == whole.tobytes()

    def test_dimensions_and_scores_unchanged(self):
        registry = _ned_aligned_registry()
        frame = Frame("L1", 0.0, boxes((1.0, 2.0, 0.5, 4.6, 1.9, 1.5, 0.3, 0.75)))
        out = frames_to_ned(MergedStream.from_frames([frame]), registry)
        d = out.frames[0].detections[0]
        assert (d[L], d[W], d[H], d[SCORE]) == (4.6, 1.9, 1.5, 0.75)

    def test_unregistered_frame(self):
        registry = _ned_aligned_registry()
        with pytest.raises(UserInputError, match="^sensor frame 'L9' is not registered$"):
            frames_to_ned(MergedStream.from_frames([make_frame("L9", 0.0, (0.0, 0.0))]), registry)

    def test_rejects_already_converted(self):
        registry = _ned_aligned_registry()
        stream = MergedStream.from_frames((), FRAME_NED)
        with pytest.raises(ValueError):
            frames_to_ned(stream, registry)


def test_box_validation():
    def parses(**box):
        det = {"x": 0.0, "y": 0.0, "z": 0.0, "l": 4.0, "w": 1.0, "h": 1.0, "yaw": 0.0, **box}
        line = json.dumps({"t": 0.0, "frame_id": "L1", "detections": [det]})
        return bool(parse_detection_log([line]))

    assert parses()
    assert not parses(l=-1.0)
    assert not parses(l=60.0)
    assert not parses(x=math.nan)
    assert parses(yaw=4.0)  # wrapped, not rejected


def test_frame_json_line_is_compact_single_line():
    frame = make_frame("L1", 1.5, (0.0, 0.0))
    buf = io.StringIO()
    write_detection_log(MergedStream.from_frames([frame]), buf)
    line = buf.getvalue()
    assert line.endswith("\n") and "\n" not in line[:-1]
    assert json.loads(line)["frame_id"] == "L1"


# Float64 values a log may hold: signed zeros, subnormals, the extremes,
# NaNs with other payloads and signs, infinities, and both sides of the
# magnitudes 1e-4 and 1e16, where ``repr`` turns to exponent form (and
# the writer from orjson's spelling to json's).
SPELLING_SWITCHES = [1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), -1e-4,
                     1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf)]
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1.7976931348623157e308,
                  1.0, -1.0, 0.1, math.nan, math.inf, -math.inf, *SPELLING_SWITCHES,
                  *np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64)
                  .view(np.float64).tolist()]
any_float = st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def frame_lists(draw):
    """Frames of 0-6 boxes whose values repeat within and across columns."""
    pool = draw(st.lists(any_float, min_size=1, max_size=6)) + SPECIAL_FLOATS
    value = st.one_of(any_float, st.sampled_from(pool))
    frames = []
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.integers(0, 6))
        values = draw(st.lists(value, min_size=8 * n, max_size=8 * n))
        frame_id = draw(st.sampled_from(["L1", "L2", 'quo"te', "ünï"]))
        block = np.array(values, dtype=np.float64).reshape(n, len(BOX_COLUMNS))
        frames.append(Frame(frame_id, draw(st.one_of(any_float, st.sampled_from(pool))), block))
    return frames


class TestWriter:
    """``write_detection_log`` against ``oracle.frame_to_json_line``, which
    builds a dict per box and calls ``json.dumps`` per frame."""

    @settings(max_examples=150, deadline=None)
    @given(frames=frame_lists(), chunk_rows=st.integers(1, 9))
    def test_matches_json_dumps_per_frame(self, frames, chunk_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stream, "WRITE_CHUNK_ROWS", chunk_rows)
            buf = io.StringIO()
            write_detection_log(MergedStream.from_frames(frames), buf)
        assert buf.getvalue() == "".join(frame_to_json_line(f) + "\n" for f in frames)

    def test_frames_across_chunk_boundaries(self, monkeypatch):
        # Every value repeats in each chunk with both zero signs and a
        # NaN score, and frames end before, on and after each boundary.
        row = (0.0, -0.0, 5e-324, 1.5, 1.5, -0.0, math.inf, math.nan)
        frames = [Frame("L1", 0.25 * i, boxes(*[row] * n, (-0.0, 0.0, 1.5, -math.inf)))
                  for i, n in enumerate((0, 1, 2, 0, 3, 5, 1))]
        want = "".join(frame_to_json_line(f) + "\n" for f in frames)
        for chunk_rows in (1, 2, 3, 4, 7, 1024):
            monkeypatch.setattr(stream, "WRITE_CHUNK_ROWS", chunk_rows)
            buf = io.StringIO()
            write_detection_log(MergedStream.from_frames(frames), buf)
            assert buf.getvalue() == want, chunk_rows
        assert '"z": 5e-324' in want and '"y": -0.0' in want and '"x": -0.0' in want

    def test_no_frames(self):
        buf = io.StringIO()
        write_detection_log(MergedStream.from_frames([]), buf)
        assert buf.getvalue() == ""

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.one_of(any_float, st.sampled_from(SPECIAL_FLOATS)), max_size=40),
           exponent=st.integers(-8, 20))
    def test_float_spelling_is_json_dumps(self, values, exponent):
        # Scaled draws cover the magnitudes around both switches densely.
        values = np.array(values + [v * 10.0 ** exponent for v in values], dtype=np.float64)
        assert stream._json_floats(values) == [json.dumps(v) for v in values.tolist()]
        assert stream._json_floats(np.array(SPELLING_SWITCHES)) == [
            "0.0001", "9.999999999999999e-05", "0.00010000000000000002", "-0.0001",
            "1e+16", "9999999999999998.0", "1.0000000000000002e+16"]
