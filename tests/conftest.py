import math

import numpy as np
import pytest

from lidartmc.reference import build_reference_config


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
