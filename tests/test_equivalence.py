"""``lidartmc estimate`` against the scalar oracle in ``oracle.py``: the
same tmc.csv, events.csv and manifest counting block, on every bundled
scenario and on one dense random script."""

import json
from dataclasses import replace

import numpy as np
import pytest

from lidartmc import cli
from lidartmc.counting import CountingParams
from lidartmc.geo import load_registry
from lidartmc.intersection import PhaseSchedule, save_intersection_config
from lidartmc.reference import build_reference_config
from lidartmc.simgen import ScriptedVehicle, scenario_suite, script_to_obj
from oracle import estimate as oracle_estimate


def assert_estimate_matches_oracle(tmp_path, sim_out, cfg):
    config = tmp_path / "config.json"
    save_intersection_config(cfg, config)
    logs = sorted(str(p) for p in sim_out.glob("log_*.jsonl"))
    out = tmp_path / "est"
    assert cli.main(["estimate", *logs, "--config", str(config),
                     "--registry", str(sim_out / "registry.json"), "--out-dir", str(out)]) == 0
    tmc, events, counting = oracle_estimate(logs, cfg, load_registry(sim_out / "registry.json"))
    assert (out / "tmc.csv").read_text() == tmc
    assert (out / "events.csv").read_text() == events
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counting"] == counting
    assert manifest["warnings"] == {"skipped_lines": 0}
    return counting


@pytest.mark.parametrize("scenario", scenario_suite(), ids=lambda sc: sc.name)
def test_scenario_matches_oracle(tmp_path, scenario):
    sim_out = tmp_path / "sim"
    assert cli.main(["simulate", "--scenario", scenario.name, "--seed", "17",
                     "--noise-sigma", "0.1", "--out-dir", str(sim_out)]) == 0
    counting = assert_estimate_matches_oracle(tmp_path, sim_out, scenario.cfg)
    assert counting["events"] > 0


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


def test_dense_random_script_matches_oracle(tmp_path):
    # All-red gaps between the phases, and a dedup window wider than the
    # thru headway, so that every rule has a case of its own.
    ref = build_reference_config()
    *phases, last = ref.schedule.intervals
    schedule = PhaseSchedule(
        tuple(replace(iv, end=iv.end - 2.0) for iv in phases) + (last,), ref.schedule.session
    )
    cfg = replace(ref, schedule=schedule, params=CountingParams(dedup_window=1.5))
    script = dense_script(cfg, np.random.default_rng(91))
    assert len(script) > 500
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script_to_obj(script)))
    sim_out = tmp_path / "sim"
    assert cli.main(["simulate", "--script", str(path), "--seed", "92", "--dropout", "0.1",
                     "--noise-sigma", "0.2", "--out-dir", str(sim_out)]) == 0
    counting = assert_estimate_matches_oracle(tmp_path, sim_out, cfg)
    # Gating and absorption take out a good share of the script.
    assert 300 < counting["events"] < len(script)
