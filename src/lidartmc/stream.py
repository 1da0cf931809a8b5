"""The in-memory detection stream and the detection-log writer.

In memory, detections are columns: one float64 block of shape (n, 8)
whose columns are :data:`BOX_COLUMNS` (a missing score is NaN). A
:class:`MergedStream`, the package's one stream form, holds one block
plus per-frame time, sensor and row offset arrays. :func:`merge_order`
is the one order in which several sensors' frames, or the triggers taken
from them, are merged. :class:`Frame` and the frame API built on it
serve only the per-layer benchmark.
:data:`MAX_DIMENSION_M` bounds a box for the parse and the simulator.

:func:`write_detection_log` writes a stream in the wire format that
``ingest`` parses, from its columns, and no per-box dict is built:
``orjson`` spells each column of a chunk of rows in one call. Its
spelling is ``json.dumps``' for every finite value ``x`` with ``1e-4 <=
|x| < 1e16`` and for ±0.0; each other value (exponent form, NaN,
infinities) is spelled by ``json.dumps`` itself, so every line is the one
``json.dumps`` gives.

``simulate`` builds and writes streams but parses none, so this module
holds no parse code: a ``simulate`` call compiles only what it runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

import numpy as np
import orjson

# Boxes formatted at a time when a log is written: bounds the text held.
WRITE_CHUNK_ROWS = 1024

FRAME_SENSOR = "sensor"
FRAME_NED = "ned"

BOX_COLUMNS = ("x", "y", "z", "l", "w", "h", "yaw", "score")
X, Y, Z, L, W, H, YAW, SCORE = range(len(BOX_COLUMNS))
# A box's length, width and height lie in (0, MAX_DIMENSION_M).
MAX_DIMENSION_M = 50.0


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


def merge_order(t: np.ndarray, sensor: np.ndarray) -> np.ndarray:
    """The merge order of rows of several streams joined one stream after
    another: by time ``t``, then ``sensor`` (frame ids, or their codes in
    sorted order), then input stream, then position within the stream.
    The sort is stable, so the last two are the order of the join."""
    return np.lexsort((sensor, t))


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
