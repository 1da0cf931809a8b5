import math

import numpy as np
import pytest

from lidartmc.reference import build_reference_config
from lidartmc.simgen import ScriptedVehicle


@pytest.fixture(scope="session")
def reference_config():
    return build_reference_config()


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def frame_rows(frames):
    """Comparable form of frames: (frame_id, t, rows), absent scores as None."""
    return [
        (f.frame_id, f.t, [[None if math.isnan(v) else v for v in row]
                           for row in f.detections.tolist()])
        for f in frames
    ]


def dense_script(cfg, rng, session_end=300.0):
    """Vehicles back to back in every countable zone, with entry gaps
    around the headway thresholds and no regard for the phases, so that
    gating, absorption and splits all happen."""
    vehicles = []
    for zone, (approach, movement) in cfg.countable_targets():
        entry = float(rng.uniform(0.5, 3.0))
        while True:
            speed = float(rng.uniform(3.0, 20.0))
            if entry + 2.0 * zone.half_length / speed >= session_end - 1.0:
                break
            vehicle_class = int(rng.integers(1, cfg.class_table.n_classes + 1))
            vehicles.append(ScriptedVehicle(vehicle_class, approach, movement, entry, speed,
                                            None, zone.id))
            entry += float(rng.uniform(1.0, 5.0))
    return sorted(vehicles, key=lambda v: v.entry_time)
