"""Detection-log parsing, multi-sensor merge, and NED conversion.

Wire format: JSON lines, one frame per line, plain or gzip-compressed:

    {"t": 1710968460.25, "frame_id": "L1",
     "detections": [{"x": 3.1, "y": -12.0, "z": 0.8,
                     "l": 4.6, "w": 1.9, "h": 1.5,
                     "yaw": 0.12, "score": 0.87}, ...]}

``score`` is optional. Box dimensions are meters, ``yaw`` is radians and
is wrapped into (-pi, pi] on parse. ``t``, the box fields and a present
``score`` must be JSON numbers (a string or a boolean is not one, as in
:func:`~lidartmc.errors.json_number`) and ``frame_id`` a string.
Malformed lines are skipped and collected by default (field loggers are
routinely dirty); ``strict=True`` raises the error of the lowest bad line
instead.

Each line is decoded by ``orjson.loads``. A line that orjson refuses (NaN
or Infinity literals, a number past the float range, a lone surrogate
escape, invalid UTF-8) goes to ``json.loads``, which decides whether it
is kept and, if not, its reason; so does a line that may nest deeper than
:data:`ORJSON_MAX_DEPTH`, which could overflow orjson's stack. Every line
thus has the fate it has under ``json.loads`` alone, except that a line
nested past ``json.loads``' reach (Python's recursion limit, about 1,000
levels) but not past :data:`ORJSON_MAX_DEPTH` is decoded; a line nested
too deeply for its decoder is skipped.

Detections are parsed into the column form of :mod:`lidartmc.stream`:
one float64 block of :data:`~lidartmc.stream.BOX_COLUMNS` per
:class:`~lidartmc.stream.MergedStream`. That module also holds the log
writer, so ``simulate``, which writes logs and parses none, never loads
this one.

A log is parsed in chunks of about :data:`CHUNK_ROWS` (2,048) boxes:
each line's boxes are taken by one ``operator.itemgetter``, and each
chunk is converted, checked and cut down to its kept rows before the
next one is read. The chunk blocks are joined once at the end, so a
parse holds about two copies of its block rather than every box as
Python objects, and the Python objects of one chunk at a time.

A chunk of JSON numbers takes one type check and one float64
conversion; in another, only the boxes with some other value go through
``float`` one at a time. The box rule is one ordered table,
:data:`_CHECKS`: one array pass over a chunk tells which boxes fail and
why, and a heading is wrapped only once it is finite. ``box_reason`` in
``tests/oracle.py`` restates the rule one value at a time for the tests.

:func:`parse_logs`, which ``estimate`` runs, cuts further: each chunk is
mapped sensor -> NED with its log's one pose (:func:`ned_boxes`) and cut
to its trigger rows (:func:`~lidartmc.counting.zone_triggers`) before
the next chunk is read, so no box outlives its chunk. A log comes back
as trigger columns (:class:`~lidartmc.counting.LogTriggers`) and the
time of every frame. The logs are parsed concurrently, each after the
first in a forked child, with the results, skipped lines, warnings and
errors of parsing them one after the other.

A parse does not log: its caller logs the skipped lines it returns, so
only one loads ``logging``.
"""

from __future__ import annotations

import gzip
import json
import math
import operator
import os
import pickle
import signal
import zlib
from dataclasses import replace
from itertools import chain, repeat
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np
import orjson

from .counting import LogTriggers, zone_triggers
from .errors import MalformedLineError, UserInputError, json_number
from .geo import MAX_COORDINATE_M, FrameRegistry, wrap_angles
from .intersection import IntersectionConfig
from .stream import (
    BOX_COLUMNS, FRAME_NED, FRAME_SENSOR, MAX_DIMENSION_M, L, SCORE, X, Y, YAW, Z, Frame,
    MergedStream, merge_order,
)
# Not used here: the per-layer benchmark imports the writer from this
# module until it runs the CLI's own stages (ROADMAP item 2).
from .stream import write_detection_log  # noqa: F401

# Raw boxes read before they are converted to a block: bounds the memory
# that the Python-object form of a log takes (about 0.3 KB a box).
CHUNK_ROWS = 2048

# Names of the columns in skipped-line reasons.
_FIELD_NAMES = ("x", "y", "z", "length", "width", "height", "heading", "score")
# A box's required values.
_BOX = operator.itemgetter(*BOX_COLUMNS[:SCORE])
# orjson decodes without a depth limit and overflows the C stack on a
# deep enough document (about 50,000 levels of objects on an 8 MB stack,
# 6,400 on a 1 MB one). It decodes a line only if the line cannot nest
# deeper than this: it is at most twice as long, or holds at most this
# many brackets. ``json.loads`` raises RecursionError instead.
ORJSON_MAX_DEPTH = 4096
# The exact types of a decoded JSON number; ``bool`` is not one of them.
_NUMBER = frozenset((int, float))
_SCORE_TYPES = _NUMBER | {type(None)}
# Stands in for a box that is converted one value at a time.
_NAN_BOX = (math.nan,) * SCORE
# The box checks in order: the columns each tests, its test and the
# reason of a value that fails it. A box's reason is that of its first
# failed check; a score the log leaves out passes.
_CHECKS = (
    (slice(X, SCORE), np.isfinite, "{name} must be finite, got {value!r}"),
    (slice(X, L), lambda v: np.abs(v) <= MAX_COORDINATE_M,
     f"{{name}} must be within {MAX_COORDINATE_M:g} m of zero, got {{value}}"),
    (slice(L, YAW), lambda v: (v > 0.0) & (v < MAX_DIMENSION_M),
     f"{{name}} must be in (0, {MAX_DIMENSION_M}), got {{value}}"),
    (slice(SCORE, None), lambda v: (v >= 0.0) & (v <= 1.0), "{name} {value} outside [0, 1]"),
)
# The column and reason of each single check, in the same order.
_CHECK_REASONS = [(c, reason) for cols, _, reason in _CHECKS for c in range(SCORE + 1)[cols]]


def _detection_fault(d, line_no: int) -> MalformedLineError:
    """Why a detection is not a box: it is not an object, or it lacks a required key."""
    if not isinstance(d, dict):
        return MalformedLineError(line_no, f"detection must be an object, got {d!r}")
    missing = [c for c in BOX_COLUMNS[:SCORE] if c not in d]
    return MalformedLineError(line_no, f"detection missing keys {missing}")


def _brackets(line: bytes | str) -> int:
    """The number of '[' and '{' in a line: a bound on its nesting depth."""
    if isinstance(line, str):
        return line.count("[") + line.count("{")
    return line.count(b"[") + line.count(b"{")


def _to_block(rows: list[tuple], scores: list, lines: list[tuple],
              faults: dict) -> tuple[np.ndarray, dict]:
    """The (n, 8) float64 block of a chunk's raw boxes, and the reason of
    each line with a bad box, by index into ``lines``: that of its first
    box that ``float`` refuses or that fails :data:`_CHECKS`, else its
    fault in ``faults``, else its first value that is not a JSON number.
    Boxes of JSON numbers are converted at once, the others one by one.
    """
    n = len(rows)
    block = np.full((n, len(BOX_COLUMNS)), np.nan)
    values, score, odd = rows, scores, []
    if not (_NUMBER.issuperset(map(type, chain.from_iterable(rows)))
            and _SCORE_TYPES.issuperset(map(type, scores))):
        odd = [i for i, (row, s) in enumerate(zip(rows, scores))
               if not (_NUMBER.issuperset(map(type, row)) and type(s) in _SCORE_TYPES)]
        values, score = rows.copy(), scores.copy()
        for i in odd:
            values[i], score[i] = _NAN_BOX, None
    try:
        block[:, :SCORE] = np.fromiter(chain.from_iterable(values), np.float64,
                                       n * SCORE).reshape(n, SCORE)
        block[:, SCORE] = np.array(score, dtype=np.float64)  # None is NaN
    except OverflowError:  # an integer past the float range
        odd = range(n)
    refused = {}
    for i in odd:
        try:
            block[i] = (*map(float, rows[i]), math.nan if scores[i] is None else float(scores[i]))
        except (TypeError, ValueError, OverflowError) as exc:
            block[i] = math.nan
            refused[i] = f"non-numeric detection field: {exc}"

    ok = np.hstack([test(block[:, cols]) for cols, test, _ in _CHECKS])
    # A NaN score is an absent one only when the log said so.
    nan = np.flatnonzero(np.isnan(block[:, SCORE]))
    ok[nan, -1] = [scores[i] is None for i in nan.tolist()]
    bad = np.flatnonzero(~ok.all(axis=1))
    ends = np.array([line[4] for line in lines], dtype=np.intp)
    reasons: dict[int, MalformedLineError] = {}
    for r, check, i in zip(bad.tolist(), ok[bad].argmin(axis=1).tolist(),
                           np.searchsorted(ends, bad, side="right").tolist()):
        if i not in reasons:
            col, reason = _CHECK_REASONS[check]
            reasons[i] = MalformedLineError(lines[i][0], refused.get(r) or reason.format(
                name=_FIELD_NAMES[col], value=block[r, col].item()))
    for i, fault in faults.items():
        reasons.setdefault(i, fault)
    for r, i in zip(odd, np.searchsorted(ends, odd, side="right").tolist()):
        if i not in reasons:
            try:
                for v in rows[r] if scores[r] is None else (*rows[r], scores[r]):
                    json_number(v)
            except TypeError as exc:
                reasons[i] = MalformedLineError(lines[i][0], f"non-numeric detection field: {exc}")
    return block, reasons


def _chunks(
    source: IO[bytes] | IO[str] | Iterable[bytes | str],
    strict: bool,
    errors: list[MalformedLineError],
) -> Iterator[tuple[str | None, np.ndarray, np.ndarray, np.ndarray]]:
    """Each chunk of a detection log as :func:`parse_detection_log` parses
    it: the log's sensor (None until a line is kept), the block of its kept
    rows, and each kept line's frame time and rows. The skipped lines go
    to ``errors``, in line order once the log is read."""
    if isinstance(source, (bytes, str)):
        raise TypeError("source must be a file object or an iterable of lines")
    expected = None
    # (line_no, frame_id, t, first row, end row, error checked last) of the chunk
    lines: list[tuple] = []
    # Why a line's detection is not a box, by index into ``lines``
    faults: dict[int, MalformedLineError] = {}
    rows: list[tuple] = []  # required values of each box of the chunk
    scores: list = []  # score of each box of the chunk, None when absent

    def flush() -> tuple[str | None, np.ndarray, np.ndarray, np.ndarray]:
        # The sensor check of a string frame_id precedes the box checks of
        # a line, and the sensor is adopted from the first good line.
        nonlocal expected
        block, box_errors = _to_block(rows, scores, lines, faults)
        keep = np.zeros(len(lines), dtype=bool)
        for i, (line_no, fid, t, a, b, late) in enumerate(lines):
            err = box_errors.get(i)
            if expected is not None and type(fid) is str and fid != expected:
                err = MalformedLineError(
                    line_no, f"frame_id {fid!r} does not match expected {expected!r}"
                )
            if err is None:
                err = late
            if err is not None:
                errors.append(err)
            else:
                keep[i] = True
                expected = fid
        # Chunks run in line order, so the first chunk with a bad line
        # holds the lowest one.
        if errors and strict:
            raise min(errors, key=lambda e: e.line_no)
        n = np.array([line[4] - line[3] for line in lines], dtype=np.intp)
        block = block[np.repeat(keep, n)]
        block[:, YAW] = wrap_angles(block[:, YAW])
        t = np.array([line[2] for line in lines], dtype=np.float64)[keep]
        for pending in (lines, faults, rows, scores):
            pending.clear()
        return expected, block, t, n[keep]

    line_no = 0
    try:
        for line_no, raw in enumerate(source, start=1):
            line = raw.strip()
            if not line:
                continue
            a = len(rows)
            try:
                if len(line) > 2 * ORJSON_MAX_DEPTH and _brackets(line) > ORJSON_MAX_DEPTH:
                    obj = json.loads(line)
                else:
                    try:
                        obj = orjson.loads(line)
                    except orjson.JSONDecodeError:
                        obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise MalformedLineError(line_no, "frame line must be a JSON object")
                t = float(obj["t"])
                fid = obj["frame_id"]
                dets = obj["detections"]
                if not math.isfinite(t):
                    raise MalformedLineError(line_no, f"non-finite timestamp {t!r}")
                if not isinstance(dets, list):
                    raise MalformedLineError(line_no, "detections must be a list")
                late = None
                if type(obj["t"]) not in _NUMBER:
                    late = MalformedLineError(line_no, f"non-numeric timestamp {obj['t']!r}")
                # orjson reads an integer past 64 bits as a float: where a
                # reason quotes a value that is not a number, it quotes
                # json's, decoded again.
                if type(fid) is not str:
                    fid = json.loads(line)["frame_id"]
                    late = late or MalformedLineError(
                        line_no, f"frame_id must be a string, got {fid!r}")
                try:
                    rows.extend(map(_BOX, dets))
                except (KeyError, TypeError):
                    # The boxes before the first detection that is not one
                    # stay (extend keeps them); its fault quotes json's value.
                    dets = dets[:len(rows) - a]
                    faults[len(lines)] = _detection_fault(
                        json.loads(line)["detections"][len(dets)], line_no)
                scores.extend(map(dict.get, dets, repeat("score")))
            except MalformedLineError as err:
                errors.append(err)
                continue
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                del rows[a:]
                errors.append(MalformedLineError(line_no, f"bad frame line: {exc}"))
                continue
            lines.append((line_no, fid, t, a, len(rows), late))
            if len(rows) >= CHUNK_ROWS:
                yield flush()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        errors.append(MalformedLineError(line_no + 1, f"log ends in a broken block: {exc}"))
    yield flush()
    errors.sort(key=lambda e: e.line_no)


def _frame_starts(t: np.ndarray) -> np.ndarray:
    """The first of each run of equal (finite) kept-line times: one frame."""
    return np.flatnonzero(np.diff(t, prepend=np.nan) != 0)


def _parse_columns(
    source: IO[bytes] | IO[str] | Iterable[bytes | str],
    strict: bool,
) -> tuple[MergedStream, list[MalformedLineError]]:
    """A detection log as :func:`parse_detection_log` parses it, and its skipped lines."""
    errors: list[MalformedLineError] = []
    chunks = list(_chunks(source, strict, errors))
    sensors, blocks, times, sizes = zip(*chunks)  # the last sensor is the log's
    boxes = np.concatenate(blocks)
    del chunks, blocks  # the chunk blocks are no longer needed once joined
    t = np.concatenate(times)
    first = _frame_starts(t)
    offsets = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))[np.append(first, len(t))]
    return MergedStream(boxes, t[first], np.zeros(len(first), dtype=np.intp),
                        sensors[-1:] if len(first) else (), offsets), errors


def _report_skipped(errors: list[MalformedLineError], error_sink: list | None) -> None:
    """Add a log's skipped lines to ``error_sink`` and log each."""
    if error_sink is not None:
        error_sink.extend(errors)
    if errors:  # only a skipped line loads logging
        import logging

        log = logging.getLogger(__name__)
        for err in errors:
            log.warning("skipping detection log %s", err)


def parse_detection_log(
    source: IO[bytes] | IO[str] | Iterable[bytes | str],
    *,
    strict: bool = False,
    error_sink: list[MalformedLineError] | None = None,
) -> list[Frame]:
    """Parse a JSON-lines detection log into frames.

    The first good line's ``frame_id`` is adopted as the log's sensor and
    enforced thereafter. Consecutive good lines sharing (frame_id, t) are
    grouped into one frame. A line with one bad box is dropped whole. In
    non-strict mode bad lines are appended to ``error_sink`` (if
    provided) and logged, in line order; strict mode raises the error of
    the lowest bad line. A compressed log that breaks off keeps the lines
    before the break and counts one bad line. Every frame's detections
    are rows of one block for the whole log.

    A string or boolean where a number belongs and a non-string
    ``frame_id`` are checked after every other check of their line, so
    a line that another check refuses has that check's reason.
    """
    stream, errors = _parse_columns(source, strict)
    _report_skipped(errors, error_sink)
    return list(stream.frames)


def open_detection_log(path) -> IO[bytes]:
    """Open a detection log for binary line reading, transparently
    handling gzip by magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _zone_cut(registry: FrameRegistry, cfg: IntersectionConfig) -> Callable:
    """The chunk cut of :func:`parse_logs`: the zone, frame time and box
    length of each trigger (:func:`~lidartmc.counting.zone_triggers`) of a
    chunk's rows mapped to NED by its sensor's pose, and the frame times of
    its zone rows outside the session. The poses are composed here, before
    any fork: once, and with no BLAS product in a parse child, whatever
    BLAS threads its parent has. A sensor the registry lacks gives no
    triggers and drops no rows."""
    poses = {fid: registry.ned_pose(fid) for fid in registry.frame_ids}
    none = (np.empty(0, dtype=np.intp), np.empty(0), np.empty(0), np.empty(0))

    def cut(block: np.ndarray, sensor: str | None, t: np.ndarray) -> tuple:
        pose = poses.get(sensor)
        if pose is None:
            return none
        ned = ned_boxes(block, pose)
        rows, zone, outside = zone_triggers(ned[:, X], ned[:, Y], t, cfg)
        return zone, t[rows], ned[rows, L], outside

    return cut


def _parse_path(path, strict: bool, cut: Callable) -> tuple:
    """The :class:`~lidartmc.counting.LogTriggers` of the detection log at
    ``path``, each chunk cut by ``cut`` as it is read, and its skipped lines."""
    errors: list[MalformedLineError] = []
    with open_detection_log(path) as fh:
        cuts = [(sensor, t, *cut(block, sensor, np.repeat(t, n)))
                for sensor, block, t, n in _chunks(fh, strict, errors)]
    sensors, times, *columns = zip(*cuts)  # the last sensor is the log's
    t = np.concatenate(times)
    return LogTriggers(sensors[-1], t[_frame_starts(t)], *map(np.concatenate, columns)), errors


def _child_parse(path, strict: bool, cut: Callable, fd: int) -> None:
    """Body of a forked parse: writes one pickled header to ``fd``;
    never returns.

    The header is ``(error,)`` on failure and ``(None, log triggers,
    skipped lines)`` on success. The child runs no BLAS product (the
    poses were composed before the fork), does not log (a parse does
    not; the parent logs the skipped lines in log order) and ends with
    ``os._exit``, so nothing of the parent's state is flushed or run.
    """
    status = 1
    try:
        with open(fd, "wb") as pipe:
            try:
                parsed = _parse_path(path, strict, cut)
            except Exception as exc:
                try:
                    header = pickle.dumps((exc,))
                except Exception:  # an error that does not pickle
                    header = pickle.dumps((RuntimeError(f"parsing {path}: {exc!r}"),))
                pipe.write(header)
            else:
                pickle.dump((None, *parsed), pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _fork_parse(path, strict: bool, cut: Callable) -> tuple[int, IO[bytes]] | None:
    """Start parsing ``path`` in a forked child: its pid and the read end
    of its result pipe, or None when no process can be started."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        os.close(r)
        _child_parse(path, strict, cut, w)
    os.close(w)
    return pid, open(r, "rb")


def _receive(pipe: IO[bytes], path) -> tuple:
    """The log triggers and skipped lines of a forked parse; raises its error."""
    try:
        error, *result = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(f"the process parsing {path} ended without a result") from None
    if error is not None:
        raise error
    return result


def parse_logs(
    paths: Sequence,
    registry: FrameRegistry,
    cfg: IntersectionConfig,
    *,
    strict: bool = False,
    error_sink: list[MalformedLineError] | None = None,
) -> list[LogTriggers]:
    """The :class:`~lidartmc.counting.LogTriggers` of each detection log
    at ``paths``.

    Each log is parsed as by :func:`parse_detection_log`, and each chunk
    of its kept rows is mapped sensor -> NED (:func:`ned_boxes`, with the
    log's pose from ``registry``) and cut to its triggers by
    :func:`~lidartmc.counting.zone_triggers` before the next chunk is
    read. A log keeps the time of every frame, also of one with no
    trigger, for :func:`check_order`. A log whose sensor ``registry``
    lacks has no triggers and drops no rows: the caller raises
    :class:`~lidartmc.errors.UserInputError` for it after the order
    check, where :func:`frames_to_ned` would.

    The calling process parses the first log, and each later one, up to
    one process per usable CPU, is parsed by a forked child that sends
    back one pickled header of its result and skipped lines; the rest
    are parsed here after the first. Results are taken in argument
    order, so the results, the skipped lines in ``error_sink`` and the
    logged warnings are in log order, and the error raised is that of
    the first log that fails. No child outlives the call: on an error
    each is killed and reaped.
    """
    paths = list(paths)
    cut = _zone_cut(registry, cfg)
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(paths), len(os.sched_getaffinity(0)))
    else:  # no fork, or no count of the usable CPUs: parse every log here
        workers = 1
    children: dict[int, tuple[int, IO[bytes]]] = {}
    try:
        for i in range(1, workers):
            child = _fork_parse(paths[i], strict, cut)
            if child is None:  # the logs left are parsed here
                break
            children[i] = child
        logs = []
        for i, path in enumerate(paths):
            if i in children:
                pid, pipe = children[i]
                log, errors = _receive(pipe, path)
                del children[i]
                pipe.close()
                os.waitpid(pid, 0)
            else:
                log, errors = _parse_path(path, strict, cut)
            _report_skipped(errors, error_sink)
            logs.append(log)
        return logs
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _check_order(t: np.ndarray, sensor_of: Callable, reorder_window: float) -> None:
    """Raise a :class:`~lidartmc.errors.UserInputError` for the first time
    of ``t`` more than ``reorder_window`` seconds older than the newest
    one before it, naming the sensor ``sensor_of`` gives for its index."""
    newest = np.maximum.accumulate(np.concatenate(([-math.inf], t)))[:-1]
    late = np.flatnonzero(t < newest - reorder_window)
    if late.size:
        i = late[0]
        raise UserInputError(f"frame from sensor {sensor_of(i)!r} at t={float(t[i])} is more "
                             f"than {reorder_window}s out of order")


def check_order(logs: Sequence[LogTriggers], reorder_window: float) -> None:
    """:func:`_check_order` of each log's frame times, log by log."""
    for log in logs:
        _check_order(log.frame_t, lambda i: log.sensor, reorder_window)


def merge_streams(
    streams: Sequence[MergedStream | Iterable[Frame]],
    reorder_window: float = 1.0,
) -> MergedStream:
    """Merge per-sensor streams into one nondecreasing stream.

    Each input is a :class:`MergedStream` or a sequence of frames, as
    :func:`parse_detection_log` gives. Each may be locally jittered by up
    to ``reorder_window`` seconds, as :func:`check_order` allows. The order is
    :func:`~lidartmc.stream.merge_order`'s: by time, then frame_id, then
    input stream, then position within the stream, so the merge is fully
    deterministic. The inputs must share one coordinate frame, which the
    result keeps. ``estimate`` merges trigger columns instead
    (:func:`~lidartmc.counting.count_session`); this box merge serves the
    per-layer benchmark and the tests.
    """
    streams = [s if isinstance(s, MergedStream) else MergedStream.from_frames(list(s))
               for s in streams]
    for s in streams:
        _check_order(s.t, lambda i: s.sensors[s.sensor[i]], reorder_window)
    if not streams:
        return MergedStream.from_frames(())
    coords = {s.coordinate_frame for s in streams}
    if len(coords) > 1:
        raise ValueError(f"cannot merge streams in {sorted(coords)} coordinates")
    sensors = tuple(sorted({fid for s in streams for fid in s.sensors}))
    code = {fid: i for i, fid in enumerate(sensors)}
    t = np.concatenate([s.t for s in streams])
    sensor = np.concatenate(
        [np.array([code[fid] for fid in s.sensors], dtype=np.intp)[s.sensor] for s in streams])
    # The rows of all inputs, and where each input frame's rows start in them.
    boxes = np.concatenate([s.boxes for s in streams])
    base = np.cumsum([0] + [len(s.boxes) for s in streams])
    starts = np.concatenate([s.offsets[:-1] + b for s, b in zip(streams, base)])
    sizes = np.concatenate([np.diff(s.offsets) for s in streams])
    order = merge_order(t, sensor)
    sizes = sizes[order]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    rows = np.repeat(starts[order] - offsets[:-1], sizes) + np.arange(offsets[-1])
    return MergedStream(boxes[rows], t[order], sensor[order], sensors, offsets,
                        coords.pop())


def ned_boxes(boxes: np.ndarray, pose: tuple[np.ndarray, np.ndarray, float]) -> np.ndarray:
    """One sensor's boxes mapped sensor -> ECEF -> NED by its composed
    ``pose``, as :meth:`~lidartmc.geo.FrameRegistry.ned_pose` gives it.

    Centres turn by the rotation and move by the translation; headings
    turn by the yaw correction; box dimensions and scores are unchanged.
    Each NED coordinate is a multiply-add over the three centre columns
    in a fixed order, so a row maps to the same bits in a block of any
    size (a BLAS product does not promise that).
    """
    rot, trans, yaw_corr = pose
    out = boxes.copy()
    x, y, z = boxes[:, X], boxes[:, Y], boxes[:, Z]
    for i in range(3):
        out[:, i] = x * rot[i, 0] + y * rot[i, 1] + z * rot[i, 2] + trans[i]
    out[:, YAW] = wrap_angles(boxes[:, YAW] + yaw_corr)
    return out


def frames_to_ned(stream: MergedStream, registry: FrameRegistry) -> MergedStream:
    """Map every detection centre sensor -> ECEF -> NED by
    :func:`ned_boxes`, with one composed pose per sensor.

    Frame grouping, order, and originating frame_id are preserved
    exactly.
    """
    if stream.coordinate_frame != FRAME_SENSOR:
        raise ValueError(f"stream is already in {stream.coordinate_frame!r} coordinates")
    boxes = np.empty_like(stream.boxes)
    row_sensor = np.repeat(stream.sensor, np.diff(stream.offsets))
    for code, fid in enumerate(stream.sensors):
        rows = row_sensor == code
        boxes[rows] = ned_boxes(stream.boxes[rows], registry.ned_pose(fid))
    return replace(stream, boxes=boxes, coordinate_frame=FRAME_NED)
