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

In memory, detections are columns: one float64 block of shape (n, 8)
whose columns are :data:`BOX_COLUMNS` (a missing score is NaN). A
:class:`MergedStream`, the package's one stream form, holds one block
plus per-frame time, sensor and row offset arrays. :class:`Frame` and
the frame API built on it serve only the per-layer benchmark.

A log is parsed in chunks of about :data:`CHUNK_ROWS` boxes: each line's
boxes are taken by one ``operator.itemgetter``, and each chunk gets one
type check and one float64 conversion, is validated and is cut down to
its kept rows before the next one is read. The chunk blocks are joined
once at the end, so a parse holds about two copies of its block rather
than every box as Python objects.

:func:`parse_logs`, which ``estimate`` runs, cuts further: each chunk is
mapped sensor -> NED with its log's one pose (:func:`ned_boxes`) and cut
to the rows whose centre lies in some counting zone before the next
chunk is read. A log's result is then its zone rows, in NED, plus the
time of every frame, kept even when none of its rows is, so the merge's
order check sees every frame. The logs are parsed concurrently: the
first in the calling process and each later one, up to one process per
usable CPU, in a forked child that sends back one pickled header of its
skipped lines and its zone-row stream through a pipe. Results, skipped
lines, warnings and errors are those of parsing the logs one after the
other.

:func:`write_detection_log` writes a stream from its columns, and no
per-box dict is built: ``orjson`` spells each column of a chunk of rows
in one call. Its spelling is ``json.dumps``' for every finite value ``x``
with ``1e-4 <= |x| < 1e16`` and for ±0.0; each other value (exponent
form, NaN, infinities) is spelled by ``json.dumps`` itself, so every line
is the one ``json.dumps`` gives.

The stdlib modules that only a parse uses (``gzip``, ``logging``,
``signal``) are imported in the functions that use them, so ``simulate``,
which imports this module to write logs, does not load them.
"""

from __future__ import annotations

import json
import math
import operator
import os
import pickle
import zlib
from dataclasses import dataclass, replace
from itertools import chain, repeat
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np
import orjson

from .errors import InvalidFieldError, MalformedLineError, OutOfOrderError, json_number
from .geo import FrameRegistry, wrap_angle, wrap_angles
from .intersection import Zone, zone_hits

MAX_DIMENSION_M = 50.0
DEFAULT_REORDER_WINDOW_S = 1.0
# Raw boxes read before they are converted to a block: bounds the memory
# that the Python-object form of a log takes.
CHUNK_ROWS = 8192
# Boxes formatted at a time when a log is written: bounds the text held.
WRITE_CHUNK_ROWS = 1024

FRAME_SENSOR = "sensor"
FRAME_NED = "ned"

BOX_COLUMNS = ("x", "y", "z", "l", "w", "h", "yaw", "score")
X, Y, Z, L, W, H, YAW, SCORE = range(len(BOX_COLUMNS))
# Names of the columns in skipped-line reasons.
_FIELD_NAMES = ("x", "y", "z", "length", "width", "height", "heading")
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


@dataclass(frozen=True, eq=False)
class Frame:
    """All detections from one sensor at one timestamp, as (k, 8) rows."""

    frame_id: str
    t: float
    detections: np.ndarray


@dataclass(frozen=True, eq=False)
class MergedStream:
    """Time-ordered frames, possibly interleaving several sensors.

    Frame ``i`` was taken at ``t[i]`` by sensor ``sensors[sensor[i]]`` and
    owns rows ``offsets[i]:offsets[i + 1]`` of ``boxes``.
    """

    boxes: np.ndarray
    t: np.ndarray
    sensor: np.ndarray
    sensors: tuple[str, ...]
    offsets: np.ndarray
    coordinate_frame: str = FRAME_SENSOR

    @classmethod
    def from_frames(
        cls, frames: Sequence[Frame], coordinate_frame: str = FRAME_SENSOR
    ) -> "MergedStream":
        """The columns of ``frames``, kept in the given order."""
        fids = [f.frame_id for f in frames]
        sensors = tuple(sorted(set(fids)))
        code = {fid: i for i, fid in enumerate(sensors)}
        blocks = [f.detections for f in frames]
        return cls(
            boxes=np.concatenate(blocks) if blocks else np.empty((0, len(BOX_COLUMNS))),
            t=np.array([f.t for f in frames], dtype=np.float64),
            sensor=np.array([code[fid] for fid in fids], dtype=np.intp),
            sensors=sensors,
            offsets=np.cumsum([0] + [len(b) for b in blocks]),
            coordinate_frame=coordinate_frame,
        )

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    @property
    def frames(self) -> tuple[Frame, ...]:
        off = self.offsets.tolist()
        return tuple(
            Frame(self.sensors[s], t, self.boxes[off[i] : off[i + 1]])
            for i, (t, s) in enumerate(zip(self.t.tolist(), self.sensor.tolist()))
        )

    def frame_of(self, rows: np.ndarray) -> np.ndarray:
        """Index of the frame that owns each of ``rows``."""
        return np.searchsorted(self.offsets, rows, side="right") - 1


def _row_error(row: tuple, score, line_no: int) -> InvalidFieldError | None:
    """Why one box's raw required values and score are not a valid box,
    or None.

    Checks run in a fixed order, so a line's reason does not depend on
    how it was detected as bad. A value that ``float`` converts passes
    here even if it is not a JSON number: :func:`_detections_error`
    checks that last.
    """
    try:
        vals = [float(v) for v in row]
        score = None if score is None else float(score)
    except (TypeError, ValueError, OverflowError) as exc:
        return InvalidFieldError(line_no, f"non-numeric detection field: {exc}")
    try:
        vals[YAW] = wrap_angle(vals[YAW])
    except ValueError as exc:  # infinite yaw
        return InvalidFieldError(line_no, str(exc))
    for name, v in zip(_FIELD_NAMES, vals):
        if not math.isfinite(v):
            return InvalidFieldError(line_no, f"{name} must be finite, got {v!r}")
    for name, v in zip(_FIELD_NAMES[L:YAW], vals[L:YAW]):
        if not 0.0 < v < MAX_DIMENSION_M:
            return InvalidFieldError(
                line_no, f"{name} must be in (0, {MAX_DIMENSION_M}), got {v}"
            )
    if score is not None and not 0.0 <= score <= 1.0:
        return InvalidFieldError(line_no, f"score {score} outside [0, 1]")
    return None


def _detections_error(dets: list, line_no: int) -> MalformedLineError | None:
    """Why a line's detections are not valid boxes, or None: the first
    detection that is not an object, lacks a required key or that
    :func:`_row_error` refuses, else the first value, box by box, that is
    not a JSON number (a string or a boolean)."""
    for d in dets:
        if not isinstance(d, dict):
            return MalformedLineError(line_no, f"detection must be an object, got {d!r}")
        missing = [k for k in BOX_COLUMNS[:SCORE] if k not in d]
        if missing:
            return MalformedLineError(line_no, f"detection missing keys {missing}")
        err = _row_error(_BOX(d), d.get("score"), line_no)
        if err is not None:
            return err
    for d in dets:
        score = d.get("score")
        try:
            for v in _BOX(d) if score is None else (*_BOX(d), score):
                json_number(v)
        except TypeError as exc:
            return InvalidFieldError(line_no, f"non-numeric detection field: {exc}")
    return None


def _brackets(line: bytes | str) -> int:
    """The number of '[' and '{' in a line: a bound on its nesting depth."""
    if isinstance(line, str):
        return line.count("[") + line.count("{")
    return line.count(b"[") + line.count(b"{")


def _fill(block: np.ndarray, rows: list[tuple], scores: list, a: int, b: int) -> bool:
    """Convert boxes ``a:b`` into ``block[a:b]``; False, leaving them as
    they are, if some value is not a JSON number or does not convert."""
    if not (_NUMBER.issuperset(map(type, chain.from_iterable(rows[a:b])))
            and _SCORE_TYPES.issuperset(map(type, scores[a:b]))):
        return False
    try:
        values = np.fromiter(chain.from_iterable(rows[a:b]), np.float64, (b - a) * SCORE)
        score = np.array(scores[a:b], dtype=np.float64)  # None is NaN
    except OverflowError:  # an integer past the float range
        return False
    block[a:b, :SCORE] = values.reshape(-1, SCORE)
    block[a:b, SCORE] = score
    return True


def _to_block(rows: list[tuple], scores: list, lines: list[tuple],
              box_errors: dict) -> np.ndarray:
    """The (n, 8) float64 block of raw boxes. A line with a bad box gets
    its reason in ``box_errors`` (see :func:`_detections_error`)."""
    block = np.full((len(rows), len(BOX_COLUMNS)), np.nan)
    if not _fill(block, rows, scores, 0, len(rows)):
        # Some value is not a number: retry by groups of lines, then line
        # by line in a group that fails. A line that fails stays NaN and
        # so fails validation.
        for g in range(0, len(lines), 64):
            group = lines[g : g + 64]
            if not _fill(block, rows, scores, group[0][3], group[-1][4]):
                for _, _, _, a, b, _ in group:
                    _fill(block, rows, scores, a, b)
    dims = block[:, L:YAW]
    score = block[:, SCORE]
    bad = ~(
        np.isfinite(block[:, :SCORE]).all(axis=1)
        & ((dims > 0.0) & (dims < MAX_DIMENSION_M)).all(axis=1)
        & (((score >= 0.0) & (score <= 1.0)) | np.isnan(score))
    )
    # A NaN score is an absent one only when the log said so.
    for i in np.flatnonzero(np.isnan(score) & ~bad).tolist():
        bad[i] = scores[i] is not None
    ends = np.array([line[4] for line in lines], dtype=np.intp)
    for i in set(np.searchsorted(ends, np.flatnonzero(bad), side="right").tolist()):
        line_no, _, _, a, b, _ = lines[i]
        dets = [dict(zip(BOX_COLUMNS, (*row, s))) for row, s in zip(rows[a:b], scores[a:b])]
        box_errors[i] = _detections_error(dets, line_no)
    return block


def _parse_columns(
    source: IO[bytes] | IO[str] | Iterable[bytes | str],
    strict: bool,
    error_sink: list[MalformedLineError] | None,
    cut: Callable[[np.ndarray, str], tuple[np.ndarray, np.ndarray]] | None = None,
) -> MergedStream:
    """The stream of a detection log, as :func:`parse_detection_log`
    parses it.

    ``cut(block, sensor)``, if given, takes each chunk's kept rows and
    the log's sensor and returns the rows to keep, in the stream's
    coordinates, and a mask of the rows they are; the stream is then in
    NED. A frame keeps its time when the cut keeps none of its rows.
    """
    import gzip

    if isinstance(source, (bytes, str)):
        raise TypeError("source must be a file object or an iterable of lines")
    errors: list[MalformedLineError] = []
    blocks: list[np.ndarray] = []  # kept rows of each chunk
    sizes: list[np.ndarray] = []  # rows of each kept line, by chunk
    kept_t: list[float] = []  # t of every kept line
    expected = None
    # (line_no, frame_id, t, first row, end row, error checked last) of the chunk
    lines: list[tuple] = []
    box_errors: dict[int, MalformedLineError] = {}  # by index into ``lines``
    rows: list[tuple] = []  # required values of each box of the chunk
    scores: list = []  # score of each box of the chunk, None when absent

    def flush() -> None:
        # The sensor check precedes the box checks of a line, and the
        # sensor is adopted from the first good line.
        nonlocal expected
        block = _to_block(rows, scores, lines, box_errors)
        keep = np.zeros(len(lines), dtype=bool)
        for i, (line_no, fid, t, a, b, late) in enumerate(lines):
            err = box_errors.get(i)
            if expected is not None and fid != expected:
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
                kept_t.append(t)
        # Chunks run in line order, so the first chunk with a bad line
        # holds the lowest one.
        if errors and strict:
            raise min(errors, key=lambda e: e.line_no)
        n = np.array([line[4] - line[3] for line in lines], dtype=np.intp)
        block = block[np.repeat(keep, n)]
        block[:, YAW] = wrap_angles(block[:, YAW])
        n = n[keep]
        if cut is not None and len(block):
            block, inside = cut(block, expected)
            inside_before = np.concatenate(([0], np.cumsum(inside)))
            ends = np.cumsum(n)
            n = inside_before[ends] - inside_before[ends - n]
        blocks.append(block)
        sizes.append(n)
        lines.clear()
        box_errors.clear()
        rows.clear()
        scores.clear()

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
                    raise InvalidFieldError(line_no, f"non-finite timestamp {t!r}")
                if not isinstance(dets, list):
                    raise MalformedLineError(line_no, "detections must be a list")
                late = None
                if type(obj["t"]) not in _NUMBER:
                    late = InvalidFieldError(line_no, f"non-numeric timestamp {obj['t']!r}")
                # orjson reads an integer past 64 bits as a float: where a
                # reason quotes a value that is not a number, it quotes
                # json's, decoded again.
                if type(fid) is not str:
                    fid = json.loads(line)["frame_id"]
                    late = late or InvalidFieldError(
                        line_no, f"frame_id must be a string, got {fid!r}")
                    fid = str(fid)
                try:
                    rows.extend(map(_BOX, dets))
                except (KeyError, TypeError):
                    del rows[a:]
                    box_errors[len(lines)] = _detections_error(
                        json.loads(line)["detections"], line_no)
                else:
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
                flush()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        errors.append(MalformedLineError(line_no + 1, f"log ends in a broken block: {exc}"))
    flush()

    errors.sort(key=lambda e: e.line_no)
    _report_skipped(errors, error_sink)

    boxes = np.concatenate(blocks)
    del blocks  # the chunk blocks are no longer needed once joined
    # Consecutive kept lines at one t are one frame (their sensor is one).
    t = np.array(kept_t, dtype=np.float64)
    first = np.ones(len(t), dtype=bool)
    first[1:] = t[1:] != t[:-1]
    first = np.flatnonzero(first)
    line_start = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))
    return MergedStream(
        boxes=boxes,
        t=t[first],
        sensor=np.zeros(len(first), dtype=np.intp),
        sensors=(expected,) if len(first) else (),
        offsets=line_start[np.append(first, len(t))],
        coordinate_frame=FRAME_SENSOR if cut is None else FRAME_NED,
    )


def _report_skipped(errors: list[MalformedLineError], error_sink: list | None) -> None:
    """Add a log's skipped lines to ``error_sink`` and log each."""
    import logging

    if error_sink is not None:
        error_sink.extend(errors)
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

    Lines are read in chunks of about :data:`CHUNK_ROWS` boxes; each
    chunk is converted, checked and cut down to its kept rows before the
    next one is read, so the raw box tuples never outlive their chunk.
    """
    return list(_parse_columns(source, strict, error_sink).frames)


def open_detection_log(path) -> IO[bytes]:
    """Open a detection log for binary line reading, transparently
    handling gzip by magic bytes."""
    import gzip

    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _zone_cut(registry: FrameRegistry, zones: Sequence[Zone]) -> Callable:
    """The chunk cut of :func:`parse_logs`: a chunk's rows mapped to NED
    by its sensor's pose, then only those whose centre is in some zone by
    :func:`~lidartmc.intersection.zone_hits`, as ``counting`` tests them.

    Every registered pose is composed here, before any fork, so a parse
    child does no BLAS work (the parent's BLAS threads do not exist
    there). A sensor the registry lacks keeps no rows.
    """
    poses = {fid: registry.ned_pose(fid) for fid in registry.frame_ids}

    def cut(block: np.ndarray, sensor: str) -> tuple[np.ndarray, np.ndarray]:
        pose = poses.get(sensor)
        if pose is None:
            return block[:0], np.zeros(len(block), dtype=bool)
        ned = ned_boxes(block, pose)
        inside = zone_hits(ned[:, X], ned[:, Y], zones).any(axis=1)
        return ned[inside], inside

    return cut


def _parse_path(path, strict: bool, error_sink: list | None, cut: Callable) -> MergedStream:
    with open_detection_log(path) as fh:
        return _parse_columns(fh, strict, error_sink, cut)


def _child_parse(path, strict: bool, cut: Callable, fd: int) -> None:
    """Body of a forked parse: writes one pickled header to ``fd``;
    never returns.

    The header is ``(error,)`` on failure and ``(None, skipped lines,
    zone-row stream)`` on success. The child does no BLAS work, does not
    log (the parent logs its skipped lines in log order) and ends with
    ``os._exit``, so nothing of the parent's state is flushed or run.
    """
    import logging

    status = 1
    try:
        logging.disable(logging.CRITICAL)
        with open(fd, "wb") as pipe:
            errors: list[MalformedLineError] = []
            try:
                stream = _parse_path(path, strict, errors, cut)
            except Exception as exc:
                try:
                    header = pickle.dumps((exc,))
                except Exception:  # an error that does not pickle
                    header = pickle.dumps((RuntimeError(f"parsing {path}: {exc!r}"),))
                pipe.write(header)
            else:
                pickle.dump((None, errors, stream), pipe, protocol=pickle.HIGHEST_PROTOCOL)
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


def _receive(pipe: IO[bytes], path, error_sink: list | None) -> MergedStream:
    """The stream of a forked parse of ``path``; raises its error."""
    try:
        error, *result = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        error = result = None
    if error is not None:
        raise error
    if result:
        errors, stream = result
        _report_skipped(errors, error_sink)
        return stream
    raise RuntimeError(f"the process parsing {path} ended without a result")


def parse_logs(
    paths: Sequence,
    registry: FrameRegistry,
    zones: Sequence[Zone],
    *,
    strict: bool = False,
    error_sink: list[MalformedLineError] | None = None,
) -> list[MergedStream]:
    """The zone rows of each detection log at ``paths``, in NED.

    Each log is parsed as by :func:`parse_detection_log`, and each chunk
    of its kept rows is mapped sensor -> NED (:func:`ned_boxes`, with the
    log's pose from ``registry``) and cut to the rows whose centre lies
    in some of ``zones`` before the next chunk is read. A log's stream
    holds those rows and the time of every frame, also of a frame left
    with no rows, so :func:`merge_streams` checks the order of every
    frame. A log whose sensor ``registry`` lacks keeps no rows: the
    caller raises :class:`~lidartmc.errors.UnregisteredFrameError` for it
    after the merge, where :func:`frames_to_ned` would.

    The logs are parsed concurrently: the calling process parses the
    first, and each later log, up to one process per usable CPU, is
    parsed by a forked child that sends back one pickled header holding
    its skipped lines and its zone-row stream; the rest are parsed here
    after the first. Results are taken in argument order, so the
    streams, the skipped lines in ``error_sink`` and the logged warnings
    are in log order, and the error raised is that of the first log that
    fails. No child outlives the call: on an error each is killed and
    reaped.
    """
    # Loaded before the forks, so no parse child loads them again.
    import gzip, logging, signal  # noqa: E401, F401

    paths = list(paths)
    cut = _zone_cut(registry, zones)
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
        streams = []
        for i, path in enumerate(paths):
            if i not in children:
                streams.append(_parse_path(path, strict, error_sink, cut))
                continue
            pid, pipe = children[i]
            streams.append(_receive(pipe, path, error_sink))
            del children[i]
            pipe.close()
            os.waitpid(pid, 0)
        return streams
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _json_floats(values: np.ndarray) -> list[str]:
    """``json.dumps``' spelling of each value of the float64 array ``values``.

    ``orjson`` spells every value in one call. For a finite ``x`` with
    ``1e-4 <= |x| < 1e16``, and for ±0.0, that is ``repr(x)``, which is
    ``json.dumps``' spelling; each other value (``5e-05``, ``1e+16``,
    ``NaN``, ``Infinity``, which orjson spells ``5e-5``, ``1e16`` and
    ``null``) is spelled by ``json.dumps``.
    """
    if not len(values):
        return []
    text = orjson.dumps(np.ascontiguousarray(values),
                        option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    mag = np.abs(values)
    for i in np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16)) & (values != 0.0)).tolist():
        text[i] = json.dumps(values[i].item())
    return text


def _frame_lines(stream: MergedStream, a: int, b: int) -> str:
    """The log lines of frames ``a:b`` of ``stream``, column by column."""
    off = stream.offsets[a : b + 1]
    cols = [_json_floats(col) for col in stream.boxes[off[0] : off[-1]].T]
    # A NaN score is an absent one: omitted.
    cols[SCORE] = ["" if s == "NaN" else ', "score": ' + s for s in cols[SCORE]]
    boxes = [
        f'{{"x": {x}, "y": {y}, "z": {z}, "l": {l}, "w": {w}, "h": {h}, "yaw": {yaw}{score}}}'
        for x, y, z, l, w, h, yaw, score in zip(*cols)
    ]
    frame_ids = [json.dumps(fid) for fid in stream.sensors]
    lines = []
    start = 0
    for code, t, end in zip(stream.sensor[a:b].tolist(), _json_floats(stream.t[a:b]),
                            (off[1:] - off[0]).tolist()):
        lines.append(f'{{"t": {t}, "frame_id": {frame_ids[code]}, '
                     f'"detections": [{", ".join(boxes[start:end])}]}}\n')
        start = end
    return "".join(lines)


def write_detection_log(stream: MergedStream, fh: IO[str]) -> None:
    """Write ``stream`` to ``fh`` as JSON lines, one frame per line.

    Each line is what ``json.dumps`` gives for the frame's ``t``,
    ``frame_id`` and ``detections`` (a NaN score is omitted). The block is
    formatted in chunks of whole frames that hold about
    :data:`WRITE_CHUNK_ROWS` boxes; within a chunk each column is spelled
    by :func:`_json_floats`, and the rows and frames are joined from
    string templates.
    """
    off = stream.offsets
    a = 0
    while a < len(stream):
        b = min(int(np.searchsorted(off, off[a] + WRITE_CHUNK_ROWS)), len(stream))
        fh.write(_frame_lines(stream, a, b))
        a = b


def merge_streams(
    streams: Sequence[MergedStream | Iterable[Frame]],
    reorder_window: float = DEFAULT_REORDER_WINDOW_S,
) -> MergedStream:
    """Merge per-sensor streams into one nondecreasing stream.

    Each input is a :class:`MergedStream`, as :func:`parse_logs` gives,
    or a sequence of frames. Each may be locally jittered by up to
    ``reorder_window`` seconds; a frame older than that relative to the
    newest already seen in its own stream raises
    :class:`OutOfOrderError`. The order is by time, then frame_id, then
    input stream, then position within the stream, so the merge is fully
    deterministic. The inputs must share one coordinate frame, which the
    result keeps.
    """
    streams = [s if isinstance(s, MergedStream) else MergedStream.from_frames(list(s))
               for s in streams]
    for s in streams:
        newest = np.maximum.accumulate(np.concatenate(([-math.inf], s.t)))[:-1]
        late = np.flatnonzero(s.t < newest - reorder_window)
        if late.size:
            i = late[0]
            raise OutOfOrderError(s.sensors[s.sensor[i]], float(s.t[i]), reorder_window)
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
    order = np.lexsort((sensor, t))  # stable: ties keep the input order
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
