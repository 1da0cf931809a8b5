"""``lidartmc estimate`` against the scalar oracle in ``oracle.py``: the
same tmc.csv, events.csv and manifest counting block, on every bundled
scenario and on one dense random script."""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_script, scenario_config_path
from lidartmc import cli
from lidartmc.geo import load_registry
from lidartmc.intersection import config_from_obj, load_intersection_config
from lidartmc.reference import reference_config_path
from lidartmc.scenarios import scenario_suite
from lidartmc.simgen import script_to_obj
from oracle import estimate as oracle_estimate


def assert_estimate_matches_oracle(tmp_path, sim_out, config):
    cfg = load_intersection_config(config)
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
    counting = assert_estimate_matches_oracle(tmp_path, sim_out,
                                              scenario_config_path(scenario, tmp_path))
    assert counting["events"] > 0


def test_dense_random_script_matches_oracle(tmp_path):
    # All-red gaps between the phases, and a thru headway of 1.5 s instead
    # of 1.2 s, so that clustering runs at a threshold of the config's own.
    doc = json.loads(Path(reference_config_path()).read_text())
    for iv in doc["schedule"][:-1]:
        iv["end"] -= 2.0
    doc["params"] = {"min_headway_other": 1.5}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    cfg = config_from_obj(doc)
    script = dense_script(cfg, np.random.default_rng(91))
    assert len(script) > 500
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script_to_obj(script)))
    sim_out = tmp_path / "sim"
    assert cli.main(["simulate", "--script", str(path), "--seed", "92", "--dropout", "0.1",
                     "--noise-sigma", "0.2", "--out-dir", str(sim_out)]) == 0
    counting = assert_estimate_matches_oracle(tmp_path, sim_out, config)
    # Gating and absorption take out a good share of the script.
    assert 300 < counting["events"] < len(script)
