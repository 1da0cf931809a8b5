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
