"""Detection-log parsing, multi-sensor merge, and NED conversion.

Wire format: JSON lines, one frame per line, plain or gzip-compressed:

    {"t": 1710968460.25, "frame_id": "L1",
     "detections": [{"x": 3.1, "y": -12.0, "z": 0.8,
                     "l": 4.6, "w": 1.9, "h": 1.5,
                     "yaw": 0.12, "score": 0.87}, ...]}

``score`` is optional. Box dimensions are meters, ``yaw`` is radians and
is wrapped into (-pi, pi] on parse. Malformed lines are skipped and
collected by default (field loggers are routinely dirty); ``strict=True``
raises the error of the lowest bad line instead.

In memory, detections are columns: one float64 block of shape (n, 8)
whose columns are :data:`BOX_COLUMNS` (a missing score is NaN). A
:class:`Frame` holds a row view of its file's block; a
:class:`MergedStream` holds one block for all sensors plus per-frame
time, sensor and row offset arrays.

A log is parsed in chunks of about :data:`CHUNK_ROWS` boxes: each chunk
is converted, validated and cut down to its kept rows before the next
one is read, and the chunk blocks are joined once at the end, so a parse
holds about two copies of its block rather than every box as Python
objects.

:func:`parse_logs` parses several logs concurrently: the first in the
calling process and each later one, up to one process per usable CPU,
in a forked child that sends back its block and frame columns through a
pipe. Results, skipped lines, warnings and errors are those of parsing
the logs one after the other.
"""

from __future__ import annotations

import gzip
import json
import logging
import math
import os
import pickle
import signal
import zlib
from dataclasses import dataclass, replace
from itertools import groupby
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidFieldError, MalformedLineError, OutOfOrderError
from .geo import FrameRegistry, wrap_angle, wrap_angles

log = logging.getLogger(__name__)

MAX_DIMENSION_M = 50.0
DEFAULT_REORDER_WINDOW_S = 1.0
# Raw boxes read before they are converted to a block: bounds the memory
# that the Python-object form of a log takes.
CHUNK_ROWS = 8192

FRAME_SENSOR = "sensor"
FRAME_NED = "ned"

BOX_COLUMNS = ("x", "y", "z", "l", "w", "h", "yaw", "score")
X, Y, Z, L, W, H, YAW, SCORE = range(len(BOX_COLUMNS))
# Names of the columns in skipped-line reasons.
_FIELD_NAMES = ("x", "y", "z", "length", "width", "height", "heading")


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


def _row_error(row: tuple, line_no: int) -> InvalidFieldError | None:
    """Why one raw ``BOX_COLUMNS`` tuple is not a valid box, or None.

    Checks run in a fixed order, so a line's reason does not depend on
    how it was detected as bad.
    """
    try:
        vals = [float(v) for v in row[:SCORE]]
        score = None if row[SCORE] is None else float(row[SCORE])
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


def _raw_row(d: dict) -> tuple:
    return (d["x"], d["y"], d["z"], d["l"], d["w"], d["h"], d["yaw"], d.get("score"))


def _detections_error(dets: list, line_no: int) -> MalformedLineError | None:
    """The first bad detection of a line whose boxes could not be read."""
    for d in dets:
        if not isinstance(d, dict):
            return MalformedLineError(line_no, f"detection must be an object, got {d!r}")
        missing = [k for k in BOX_COLUMNS[:SCORE] if k not in d]
        if missing:
            return MalformedLineError(line_no, f"detection missing keys {missing}")
        err = _row_error(_raw_row(d), line_no)
        if err is not None:
            return err
    return None


def _fill(block: np.ndarray, rows: list[tuple], a: int, b: int) -> bool:
    """Convert ``rows[a:b]`` into ``block[a:b]``; False if some value does not."""
    try:
        block[a:b] = np.array(rows[a:b], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _to_block(rows: list[tuple], lines: list[tuple], box_errors: dict) -> np.ndarray:
    """The (n, 8) float64 block of raw box tuples. A line with a bad box
    gets the reason of its first one in ``box_errors``: not finite, a
    dimension outside (0, MAX_DIMENSION_M), or a score outside [0, 1]."""
    block = np.full((len(rows), len(BOX_COLUMNS)), np.nan)
    if not _fill(block, rows, 0, len(rows)):
        # Some value does not convert: retry by groups of lines, then line
        # by line in a group that fails. A line that fails stays NaN and
        # so fails validation.
        for g in range(0, len(lines), 64):
            group = lines[g : g + 64]
            if not _fill(block, rows, group[0][3], group[-1][4]):
                for *_, a, b in group:
                    _fill(block, rows, a, b)
    dims = block[:, L:YAW]
    score = block[:, SCORE]
    bad = ~(
        np.isfinite(block[:, :SCORE]).all(axis=1)
        & ((dims > 0.0) & (dims < MAX_DIMENSION_M)).all(axis=1)
        & (((score >= 0.0) & (score <= 1.0)) | np.isnan(score))
    )
    # A NaN score is an absent one only when the log said so.
    for i in np.flatnonzero(np.isnan(score) & ~bad).tolist():
        bad[i] = rows[i][SCORE] is not None
    ends = np.array([end for *_, end in lines], dtype=np.intp)
    for i in set(np.searchsorted(ends, np.flatnonzero(bad), side="right").tolist()):
        line_no, _, _, a, b = lines[i]
        box_errors[i] = next(e for e in (_row_error(r, line_no) for r in rows[a:b]) if e)
    return block


def parse_detection_log(
    source: IO[bytes] | IO[str] | Iterable[bytes | str],
    frame_id: str | None = None,
    *,
    strict: bool = False,
    error_sink: list[MalformedLineError] | None = None,
) -> list[Frame]:
    """Parse a JSON-lines detection log into frames.

    ``frame_id``, when given, pins the sensor this log must belong to;
    otherwise the first good line's id is adopted and enforced
    thereafter. Consecutive good lines sharing (frame_id, t) are grouped
    into one frame. A line with one bad box is dropped whole. In
    non-strict mode bad lines are appended to ``error_sink`` (if
    provided) and logged, in line order; strict mode raises the error of
    the lowest bad line. A compressed log that breaks off keeps the lines
    before the break and counts one bad line. Every frame's detections
    are rows of one block for the whole log.

    Lines are read in chunks of about :data:`CHUNK_ROWS` boxes; each
    chunk is converted, checked and cut down to its kept rows before the
    next one is read, so the raw box tuples never outlive their chunk.
    """
    if isinstance(source, (bytes, str)):
        raise TypeError("source must be a file object or an iterable of lines")
    errors: list[MalformedLineError] = []
    blocks: list[np.ndarray] = []  # kept rows of each chunk
    kept: list[tuple] = []  # (frame_id, t, rows) of every kept line
    expected = frame_id
    lines: list[tuple] = []  # (line_no, frame_id, t, first row, end row) of the chunk
    box_errors: dict[int, MalformedLineError] = {}  # by index into ``lines``
    rows: list[tuple] = []

    def flush() -> None:
        # The sensor check precedes the box checks of a line, and the
        # sensor is adopted from the first good line.
        nonlocal expected
        block = _to_block(rows, lines, box_errors)
        keep = np.zeros(len(lines), dtype=bool)
        for i, (line_no, fid, t, a, b) in enumerate(lines):
            err = box_errors.get(i)
            if expected is not None and fid != expected:
                err = MalformedLineError(
                    line_no, f"frame_id {fid!r} does not match expected {expected!r}"
                )
            if err is not None:
                errors.append(err)
            else:
                keep[i] = True
                expected = fid
                kept.append((fid, t, b - a))
        # Chunks run in line order, so the first chunk with a bad line
        # holds the lowest one.
        if errors and strict:
            raise min(errors, key=lambda e: e.line_no)
        block = block[np.repeat(keep, [b - a for *_, a, b in lines])]
        block[:, YAW] = wrap_angles(block[:, YAW])
        blocks.append(block)
        lines.clear()
        box_errors.clear()
        rows.clear()

    line_no = 0
    try:
        for line_no, raw in enumerate(source, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise MalformedLineError(line_no, "frame line must be a JSON object")
                t = float(obj["t"])
                fid = str(obj["frame_id"])
                dets = obj["detections"]
                if not math.isfinite(t):
                    raise InvalidFieldError(line_no, f"non-finite timestamp {t!r}")
                if not isinstance(dets, list):
                    raise MalformedLineError(line_no, "detections must be a list")
            except MalformedLineError as err:
                errors.append(err)
                continue
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                errors.append(MalformedLineError(line_no, f"bad frame line: {exc}"))
                continue
            try:
                line_rows = [_raw_row(d) for d in dets]
            except (KeyError, TypeError):
                box_errors[len(lines)] = _detections_error(dets, line_no)
                line_rows = []
            lines.append((line_no, fid, t, len(rows), len(rows) + len(line_rows)))
            rows.extend(line_rows)
            if len(rows) >= CHUNK_ROWS:
                flush()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        errors.append(MalformedLineError(line_no + 1, f"log ends in a broken block: {exc}"))
    flush()

    errors.sort(key=lambda e: e.line_no)
    if error_sink is not None:
        error_sink.extend(errors)
    for err in errors:
        log.warning("skipping detection log %s", err)

    block = np.concatenate(blocks)
    del blocks  # the chunk blocks are no longer needed once joined
    frames: list[Frame] = []
    n = 0
    for (fid, t), group in groupby(kept, key=lambda line: line[:2]):
        k = sum(size for *_, size in group)
        frames.append(Frame(fid, t, block[n : n + k]))
        n += k
    return frames


def open_detection_log(path) -> IO[bytes]:
    """Open a detection log for binary line reading, transparently
    handling gzip by magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _parse_path(path, strict: bool, error_sink: list | None) -> list[Frame]:
    with open_detection_log(path) as fh:
        return parse_detection_log(fh, strict=strict, error_sink=error_sink)


def _child_parse(path, strict: bool, fd: int) -> None:
    """Body of a forked parse: writes one pickled header to ``fd`` and,
    on success, the raw bytes of the block after it; never returns.

    The header is ``(error, skipped lines, t, sensor, sensors, offsets,
    block shape)``, with ``error`` None on success. The child does no
    BLAS work (the parent's BLAS threads do not exist here), does not
    log (the parent logs its skipped lines in log order) and ends with
    ``os._exit``, so nothing of the parent's state is flushed or run.
    """
    status = 1
    try:
        logging.disable(logging.CRITICAL)
        with open(fd, "wb") as pipe:
            errors: list[MalformedLineError] = []
            try:
                stream = MergedStream.from_frames(_parse_path(path, strict, errors))
            except Exception as exc:
                try:
                    header = pickle.dumps((exc,))
                except Exception:  # an error that does not pickle
                    header = pickle.dumps((RuntimeError(f"parsing {path}: {exc!r}"),))
                pipe.write(header)
            else:
                pickle.dump((None, errors, stream.t, stream.sensor, stream.sensors,
                             stream.offsets, stream.boxes.shape), pipe)
                pipe.write(stream.boxes.reshape(-1).view(np.uint8))
        status = 0
    finally:
        os._exit(status)


def _fork_parse(path, strict: bool) -> tuple[int, IO[bytes]] | None:
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
        _child_parse(path, strict, w)
    os.close(w)
    return pid, open(r, "rb")


def _receive(pipe: IO[bytes], path, error_sink: list | None) -> list[Frame]:
    """The frames of a forked parse of ``path``; raises its error."""
    try:
        error, *columns = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        columns = error = None
    if error is not None:
        raise error
    if columns:
        errors, t, sensor, sensors, offsets, shape = columns
        boxes = np.empty(shape)
        buf = boxes.reshape(-1).view(np.uint8)
        if pipe.readinto(buf) == len(buf):
            if error_sink is not None:
                error_sink.extend(errors)
            for err in errors:
                log.warning("skipping detection log %s", err)
            return list(MergedStream(boxes, t, sensor, sensors, offsets).frames)
    raise RuntimeError(f"the process parsing {path} ended without a result")


def parse_logs(
    paths: Sequence,
    *,
    strict: bool = False,
    error_sink: list[MalformedLineError] | None = None,
) -> list[list[Frame]]:
    """Parse each detection log at ``paths``, as :func:`parse_detection_log`
    on each opened log in turn.

    The logs are parsed concurrently: the calling process parses the
    first, and each later log, up to one process per usable CPU, is
    parsed by a forked child; the rest are parsed here after the first.
    Results are taken in argument order, so the frames, the skipped
    lines in ``error_sink`` and the logged warnings are in log order,
    and the error raised is that of the first log that fails. No child
    outlives the call: on an error each is killed and reaped.
    """
    paths = list(paths)
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(paths), len(os.sched_getaffinity(0)))
    else:  # no fork, or no count of the usable CPUs: parse every log here
        workers = 1
    children: dict[int, tuple[int, IO[bytes]]] = {}
    try:
        for i in range(1, workers):
            child = _fork_parse(paths[i], strict)
            if child is None:  # the logs left are parsed here
                break
            children[i] = child
        streams = []
        for i, path in enumerate(paths):
            if i not in children:
                streams.append(_parse_path(path, strict, error_sink))
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


def frame_to_json_line(frame: Frame) -> str:
    dets = []
    for row in frame.detections.tolist():
        obj = dict(zip(BOX_COLUMNS, row))
        if math.isnan(row[SCORE]):
            del obj["score"]
        dets.append(obj)
    return json.dumps({"t": frame.t, "frame_id": frame.frame_id, "detections": dets})


def write_detection_log(frames: Iterable[Frame], fh: IO[str]) -> None:
    for frame in frames:
        fh.write(frame_to_json_line(frame))
        fh.write("\n")


def merge_streams(
    streams: Sequence[Iterable[Frame]],
    reorder_window: float = DEFAULT_REORDER_WINDOW_S,
    coordinate_frame: str = FRAME_SENSOR,
) -> MergedStream:
    """Merge per-sensor frame sequences into one nondecreasing stream.

    Each input may be locally jittered by up to ``reorder_window``
    seconds; a frame older than that relative to the newest already seen
    in its own stream raises :class:`OutOfOrderError`. The order is by
    time, then frame_id, then input stream, then position within the
    stream, so the merge is fully deterministic.
    """
    frames: list[Frame] = []
    for stream in streams:
        stream = list(stream)
        t = np.array([f.t for f in stream], dtype=np.float64)
        newest = np.maximum.accumulate(np.concatenate(([-math.inf], t)))[:-1]
        late = np.flatnonzero(t < newest - reorder_window)
        if late.size:
            f = stream[late[0]]
            raise OutOfOrderError(f.frame_id, f.t, reorder_window)
        frames.extend(stream)
    if not frames:
        return MergedStream.from_frames((), coordinate_frame)
    fid_rank = np.unique([f.frame_id for f in frames], return_inverse=True)[1]
    t = np.array([f.t for f in frames], dtype=np.float64)
    order = np.lexsort((np.arange(len(frames)), fid_rank, t))
    return MergedStream.from_frames([frames[i] for i in order.tolist()], coordinate_frame)


def frames_to_ned(stream: MergedStream, registry: FrameRegistry) -> MergedStream:
    """Map every detection center sensor -> ECEF -> NED.

    Headings are rotated by the yaw component of the composed rotation;
    box dimensions and scores are unchanged. Frame grouping, order, and
    originating frame_id are preserved exactly.
    """
    if stream.coordinate_frame != FRAME_SENSOR:
        raise ValueError(f"stream is already in {stream.coordinate_frame!r} coordinates")
    ned_rot = registry.ned_rotation().rotation
    origin = registry.origin_ecef()
    src = stream.boxes
    boxes = src.copy()
    row_sensor = np.repeat(stream.sensor, np.diff(stream.offsets))
    # One composed sensor->NED transform per sensor, applied to all its rows.
    for code, fid in enumerate(stream.sensors):
        t = registry.transform_for(fid)
        rot = ned_rot @ t.rotation
        trans = ned_rot @ (t.translation - origin)
        yaw_corr = math.atan2(rot[1, 0], rot[0, 0])
        rows = row_sensor == code
        boxes[rows, :3] = src[rows, :3] @ rot.T + trans
        boxes[rows, YAW] = wrap_angles(src[rows, YAW] + yaw_corr)
    return replace(stream, boxes=boxes, coordinate_frame=FRAME_NED)
