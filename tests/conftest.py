import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from lidartmc.intersection import config_from_obj, load_intersection_config
from lidartmc.reference import build_reference_config, long_range_document, reference_config_path
from lidartmc.simgen import ScriptedVehicle, script_from_obj

WORKLOAD = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"

# The default class table as a config's ``class_table`` document, for
# tests that edit it (test_classify checks that it reads back as
# DEFAULT_CLASS_TABLE).
DEFAULT_CLASS_TABLE_DOC = [
    {"id": 1, "label": "Pedestrians", "lower": 0.0, "upper": 1.0, "fhwa": []},
    {"id": 2, "label": "Bicycles, scooters, motorbikes", "lower": 1.0, "upper": 2.2,
     "fhwa": ["1"]},
    {"id": 3, "label": "Hatchbacks, sedans, small-medium SUVs", "lower": 2.2, "upper": 5.0,
     "fhwa": ["2 (No Trailer)"]},
    {"id": 4, "label": "Large SUVs, vans, pickup trucks", "lower": 5.0, "upper": 7.0,
     "fhwa": ["2 (Trailer)", "3"]},
    {"id": 5, "label": "Trucks, buses", "lower": 7.0, "upper": 12.0,
     "fhwa": ["4", "5", "6", "7"]},
    {"id": 6, "label": "Trailers, combination trucks", "lower": 12.0, "upper": None,
     "fhwa": ["8", "9", "10"]},
]


@pytest.fixture(scope="session")
def reference_config():
    return build_reference_config()


def scenario_config_path(scenario, directory) -> str:
    """A config file of a bundled scenario, for ``estimate --config``:
    the packaged reference file, or the long-range document written into
    ``directory``."""
    path = reference_config_path()
    if scenario.name == "eb_wb_long_range":
        path = directory / "config.json"
        path.write_text(json.dumps(long_range_document()))
    assert load_intersection_config(path) == scenario.cfg
    return str(path)


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


def load_workload():
    """The benchmark's workload generator, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location("workload", WORKLOAD)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workload = load_workload()


def reference_document() -> dict:
    return json.loads(Path(reference_config_path()).read_text())


def fill_script(rng, doc=None, n=None):
    """The benchmark's phase-by-phase fill of every countable zone of the
    config document ``doc`` (the reference one by default) over its
    schedule's session, read back as a script. Its traffic is countable
    exactly: per zone, exit-to-entry gaps of at least 2.1 s, crossings
    inside a phase that permits them and clear of bin boundaries. With
    ``n``, a random ``n`` of its vehicles are kept, which only widens the
    gaps."""
    doc = reference_document() if doc is None else doc
    vehicles = workload.schedule_traffic(doc, config_from_obj(doc).schedule.session, rng)
    if n is not None:
        vehicles = [vehicles[i] for i in np.sort(rng.choice(len(vehicles), n, replace=False))]
    return script_from_obj(workload.script_doc(vehicles))
