"""Invariants of the benchmark's workload generator.

Run with ``python -m pytest perfbench/tests``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import workload as w

ROOT = Path(__file__).resolve().parents[2]
SHORT_FIELD = w.Spec("estimate", cycles=3, clutter=10, pedestrians_per_min=20.0,
                     gzip=True, bad_lines=True)


@pytest.fixture(scope="module")
def doc():
    return w.extend_schedule(w.load_reference(ROOT), 9)


@pytest.fixture(scope="module", params=[1, 2, 3])
def traffic(request, doc):
    session = (0.0, 9 * w.CYCLE_S)
    return session, w.schedule_traffic(doc, session, np.random.default_rng(request.param))


def zones_by_id(doc):
    return {z.id: z for z in w.zones_of(doc)}


def test_every_countable_zone_is_near_saturation(doc, traffic):
    session, vehicles = traffic
    per_zone = {z.id: 0 for z, _ in w.countable_targets(w.zones_of(doc))}
    for v in vehicles:
        per_zone[v.zone_id] += 1
    assert min(per_zone.values()) >= 9 * 3  # >= 3 per permitted phase


def test_exit_to_entry_gap_per_zone(doc, traffic):
    _, vehicles = traffic
    zones = zones_by_id(doc)
    last_exit = {}
    for v in sorted(vehicles, key=lambda v: v.entry):
        if v.zone_id in last_exit:
            assert v.entry - last_exit[v.zone_id] >= w.MIN_GAP_S
        last_exit[v.zone_id] = v.entry + v.residence(zones[v.zone_id])


def test_crossing_inside_a_permitting_phase(doc, traffic):
    session, vehicles = traffic
    zones = zones_by_id(doc)
    for v in vehicles:
        exit_t = v.entry + v.residence(zones[v.zone_id])
        assert session[0] <= v.entry and exit_t < session[1]
        if v.movement == "Right":
            continue
        assert any(
            [v.approach, v.movement] in iv["permitted"]
            and iv["start"] + w.WINDOW_LEAD_S <= v.entry
            and exit_t <= iv["end"] - w.WINDOW_TAIL_S
            for iv in doc["schedule"]
        ), v


def test_entry_and_residence_clear_of_bin_boundaries(doc, traffic):
    session, vehicles = traffic
    zones = zones_by_id(doc)
    boundaries = np.arange(session[0], session[1] + 1, w.BIN_S)
    for v in vehicles:
        end = v.entry + v.residence(zones[v.zone_id]) + w.BIN_CLEAR_S
        assert not np.any((boundaries > v.entry - w.BIN_CLEAR_S) & (boundaries < end)), v


def test_clutter_and_pedestrians_stay_outside_every_zone(doc):
    rng = np.random.default_rng(5)
    zones = w.zones_of(doc)
    session = (0.0, 300.0)
    clutter = w.clutter_objects(zones, 40, rng)
    peds = w.pedestrians(session, 30.0, rng)
    for sensor in w.SENSORS:
        dets = w.Dets([], [], [])
        w.static_detections(clutter, session, sensor, dets, 0, rng)
        w.pedestrian_detections(peds, session, sensor, dets, len(clutter), rng)
        cols = np.concatenate(dets.cols)
        assert len(cols) > 1000
        for z in zones:
            assert not z.contains(cols[:, 0], cols[:, 1]).any(), z.id


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    a = w.generate(ROOT, "field", 7, tmp_path / "a", SHORT_FIELD)
    b = w.generate(ROOT, "field", 7, tmp_path / "b", SHORT_FIELD)
    c = w.generate(ROOT, "field", 8, tmp_path / "c", SHORT_FIELD)
    assert a["digest"] == b["digest"]
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert c["digest"] != a["digest"]
    assert (tmp_path / "a" / "log_L1.jsonl.gz").read_bytes() != (
        tmp_path / "c" / "log_L1.jsonl.gz").read_bytes()


def test_table_csv_round_trip_and_error():
    counts = np.zeros((2, 4, 4, 6), dtype=np.int64)
    counts[1, 2, 1, 2] = 3
    text = w.table_csv(counts, 0.0)
    assert w.read_table_csv(text) == {(300.0, "EB", 3): (0, 3, 0, 0)}
    other = counts.copy()
    other[0, 0, 0, 0] = 2
    other[1, 2, 1, 2] = 1
    assert w.table_abs_error(w.table_csv(other, 0.0), text) == 4


def test_cli_counts_a_short_field_session_exactly(tmp_path):
    """The CLI reproduces the tally and skips exactly the injected lines."""
    from lidartmc.cli import main

    manifest = w.generate(ROOT, "field", 3, tmp_path / "in", SHORT_FIELD)
    job = manifest["jobs"][0]
    assert job["skipped_lines"] >= len(w.BAD_LINE_KINDS)
    out = tmp_path / "out"
    argv = ["estimate", *(str(tmp_path / "in" / n) for n in job["logs"]),
            "--config", str(tmp_path / "in" / "config.json"),
            "--registry", str(tmp_path / "in" / "registry.json"), "--out-dir", str(out)]
    assert main(argv) == 0
    got = (out / "tmc.csv").read_text()
    assert w.table_abs_error(got, (tmp_path / "in" / "gt.csv").read_text()) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["warnings"]["skipped_lines"] == job["skipped_lines"]
    assert sum(sum(r) for r in w.read_table_csv(got).values()) == job["vehicles"]


def test_registry_poses_are_proper_rotations(doc):
    reg = w.registry_doc(doc)
    for frame in reg["frames"].values():
        r = np.array(frame["rotation"]).reshape(3, 3)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert math.isclose(np.linalg.det(r), 1.0, abs_tol=1e-12)


def test_benchmark_json_names_every_reported_metric():
    import run
    from trace_layers import PER_LAYER_UNITS

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(w.WORKLOADS)
