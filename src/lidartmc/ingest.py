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
"""

from __future__ import annotations

import gzip
import json
import logging
import math
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
    """
    if isinstance(source, (bytes, str)):
        raise TypeError("source must be a file object or an iterable of lines")
    errors: list[MalformedLineError] = []
    lines: list[tuple] = []  # (line_no, frame_id, t, first row, end row)
    box_errors: dict[int, MalformedLineError] = {}  # by index into ``lines``
    rows: list[tuple] = []
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
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        errors.append(MalformedLineError(line_no + 1, f"log ends in a broken block: {exc}"))
    block = _to_block(rows, lines, box_errors)
    del rows  # the raw tuples are no longer needed; free them before the copies below

    # The sensor check precedes the box checks of a line, and the sensor
    # is adopted from the first good line.
    keep = np.zeros(len(lines), dtype=bool)
    expected = frame_id
    for i, (line_no, fid, *_) in enumerate(lines):
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
    errors.sort(key=lambda e: e.line_no)
    if errors and strict:
        raise errors[0]
    if error_sink is not None:
        error_sink.extend(errors)
    for err in errors:
        log.warning("skipping detection log %s", err)

    block = block[np.repeat(keep, [b - a for *_, a, b in lines])]
    block[:, YAW] = wrap_angles(block[:, YAW])
    frames: list[Frame] = []
    n = 0
    kept = (lines[i] for i in np.flatnonzero(keep).tolist())
    for (fid, t), group in groupby(kept, key=lambda line: line[1:3]):
        k = sum(b - a for *_, a, b in group)
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
