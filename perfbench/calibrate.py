"""Fixed reference job that measures how fast the machine is right now.

``run.py`` times this script as a child process between CLI calls. It does
the same kinds of work as a CLI call (interpreter start, the numpy import,
JSON parsing, float conversion, small objects, one matrix product) but never
changes, so its wall clock tracks only the machine: on a shared host,
neighbours can slow every call of a run by 1.5x or more for minutes at a time.
"""

import json

import numpy as np

LINE = json.dumps({
    "t": 1.25,
    "frame_id": "L1",
    "detections": [
        {"x": 1.2345 + i, "y": -3.4567, "z": -1.0, "l": 4.5, "w": 1.9, "h": 1.5,
         "yaw": 0.123, "score": 0.9}
        for i in range(30)
    ],
})


def main() -> None:
    rows = []
    for _ in range(1500):
        frame = json.loads(LINE)
        rows.extend((float(d["x"]), float(d["y"]), float(d["z"])) for d in frame["detections"])
    points = np.array(rows)
    if not np.isfinite((points @ np.eye(3)).sum()):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
