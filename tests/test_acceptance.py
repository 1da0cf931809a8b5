"""Acceptance suite: every criterion prints one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import random_rotation
from lidartmc import cli
from lidartmc.classify import DEFAULT_CLASS_TABLE
from lidartmc.counting import cluster_triggers, count_session, estimate_tmc
from lidartmc.geo import GeodeticPoint, estimate_transform_from_gcps, lla_to_ecef
from lidartmc.ingest import frames_to_ned, merge_streams
from lidartmc.intersection import CountingParams
from lidartmc.report import aggregate, load_tmc_csv
from lidartmc.scenarios import random_script, scenario_suite
from lidartmc.simgen import SimConfig, simulate
from oracle import ecef_to_lla, sensor_logs, trigger_series

GT_FIXTURE = Path(__file__).parent / "data" / "gt_drone_reference.csv"


def ok(criterion: str) -> None:
    print(f"[PASS] {criterion}")


def run_counting(session, cfg, extra_streams=()):
    streams = list(session.frames_by_sensor.values()) + list(extra_streams)
    merged = merge_streams(streams)
    ned = frames_to_ned(merged, session.registry)
    events, _ = count_session(sensor_logs([ned], cfg), cfg)
    gt = session.ground_truth
    return estimate_tmc(events, gt.bin_seconds, gt.session, cfg.class_table.n_classes)


def test_criterion_1_oracle_equivalence_ideal(reference_config):
    """100 seeded random scripts reproduce ground truth cell for cell."""
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        sim = SimConfig(
            seed=2000 + seed, frame_rate_hz=float(rng.uniform(3.0, 5.0))
        )
        n = int(rng.integers(5, 51))
        script = random_script(reference_config, rng, n)
        assert len(script) >= 5
        session = simulate(script, reference_config, sim)
        est = run_counting(session, reference_config)
        assert est == session.ground_truth, f"script seed {seed} mismatched"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.2f}s"
    ok(f"criterion 1: oracle equivalence on 100 random scripts ({elapsed:.2f}s)")


def test_criterion_2_threshold_fixtures(reference_config):
    """Trigger pairs split exactly at the configured headway thresholds."""
    thru = reference_config.zone_by_id("NB_T1")
    right = reference_config.zone_by_id("EB_R")
    for gap, expected in ((0.5, 1), (1.1, 1), (1.2, 2), (1.5, 2)):
        series = {thru.id: trigger_series([(0.0, 4.5, "L1"), (gap, 4.5, "L1")],
                                        reference_config, thru.id)}
        events = cluster_triggers(series, reference_config)
        assert len(events) == expected, f"thru gap {gap}"
    for gap, expected in ((1.8, 1), (2.0, 2), (2.5, 2)):
        series = {right.id: trigger_series([(0.0, 4.5, "L1"), (gap, 4.5, "L1")],
                                        reference_config, right.id)}
        events = cluster_triggers(series, reference_config)
        assert len(events) == expected, f"right gap {gap}"
    ok("criterion 2: headway threshold fixtures (1.2 s thru, 2.0 s right)")


def test_criterion_3_classification_sweep():
    """Every length in (0, 60] maps to exactly one class; fixtures hold."""
    lengths = np.arange(1, 6001) / 100.0
    ids = DEFAULT_CLASS_TABLE.class_ids(lengths)
    for length, cls in zip(lengths.tolist(), ids.tolist()):
        lower, upper = DEFAULT_CLASS_TABLE.band(cls)
        assert lower <= length < upper  # exactly one interval
    assert (np.diff(ids) >= 0).all()
    fixtures = {0.5: 1, 1.5: 2, 3.0: 3, 6.0: 4, 9.0: 5, 15.0: 6}
    assert DEFAULT_CLASS_TABLE.class_ids(np.array(list(fixtures))).tolist() == list(
        fixtures.values())
    ok("criterion 3: classification sweep 0.01-60 m plus fixture lengths")


def test_criterion_4_ground_truth_table_fixture():
    """The bundled drone ground-truth file reproduces the known block."""
    table = load_tmc_csv(GT_FIXTURE)
    nb = 0  # approach index of NB
    assert table.counts[0, nb, :, 2].tolist() == [3, 38, 6, 2]
    assert table.counts[0, nb, :, 3].tolist() == [1, 11, 2, 1]
    marg = aggregate(table, ("time", "approach", "class"))
    assert marg.counts[(0.0, "NB", 3)] == 49
    assert marg.counts[(0.0, "NB", 4)] == 15
    ok("criterion 4: ground-truth fixture rows (49 and 15 totals)")


def test_criterion_5_georeferencing():
    """Exact GCP recovery, noisy rmse bound, geodetic round-trip."""
    start = time.perf_counter()
    rng = np.random.default_rng(3001)
    # noiseless recovery: rotation < 1e-9 rad, translation < 1e-9 m
    for _ in range(25):
        rot = random_rotation(rng)
        trans = rng.uniform(-1000.0, 1000.0, 3)
        src = rng.uniform(-40.0, 40.0, (10, 3))
        dst = src @ rot.T + trans
        est, rmse = estimate_transform_from_gcps(src, dst)
        angle = np.linalg.norm(est.rotation - rot) / math.sqrt(2.0)
        assert angle < 1e-9
        assert np.linalg.norm(est.translation - trans) < 1e-9
        assert rmse < 1e-9
    # sigma = 0.05 noise: pooled rmse over 100 seeded trials <= 0.10 m
    squares = []
    for _ in range(100):
        rot = random_rotation(rng)
        trans = rng.uniform(-1000.0, 1000.0, 3)
        src = rng.uniform(-40.0, 40.0, (10, 3))
        dst = src @ rot.T + trans + rng.normal(0.0, 0.05, (10, 3))
        _, rmse = estimate_transform_from_gcps(src, dst)
        squares.append(rmse**2)
    assert math.sqrt(sum(squares) / len(squares)) <= 0.10
    # geodetic round-trip < 1e-6 m over 1000 samples
    for _ in range(1000):
        p = GeodeticPoint(
            float(rng.uniform(-89.9, 89.9)),
            float(rng.uniform(-179.99, 180.0)),
            float(rng.uniform(-100.0, 4000.0)),
        )
        q = ecef_to_lla(lla_to_ecef(p))
        err = np.linalg.norm(lla_to_ecef(p) - lla_to_ecef(q))
        assert err < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"georeferencing checks took {elapsed:.2f}s"
    ok(f"criterion 5: georeferencing recovery, noise bound, round-trip ({elapsed:.2f}s)")


def test_criterion_6_dedup_idempotence():
    """Duplicating one sensor's log verbatim never changes any count."""
    for sc in scenario_suite():
        session = simulate(sc.script, sc.cfg, sc.sim)
        baseline = run_counting(session, sc.cfg)
        first_sensor = next(iter(session.frames_by_sensor))
        duplicated = run_counting(
            session, sc.cfg, extra_streams=[session.frames_by_sensor[first_sensor]]
        )
        assert duplicated == baseline, sc.name
    ok("criterion 6: dedup idempotence across the scenario suite")


def test_criterion_7a_slow_heavy_overcount():
    """Clustering off: strict overcount. Default params: exact."""
    sc = next(s for s in scenario_suite() if s.name == "slow_heavy")
    session = simulate(sc.script, sc.cfg, sc.sim)
    gt = session.ground_truth
    exact = run_counting(session, sc.cfg)
    assert exact == gt
    raw = run_counting(
        session, replace(sc.cfg, params=CountingParams(cluster_gap=1e-6, absorb=False)))
    assert int(raw.counts.sum()) > int(gt.counts.sum())
    ratio = raw.counts.sum() / gt.counts.sum()
    ok(
        "criterion 7a: slow-heavy overcounts "
        f"{int(raw.counts.sum())} vs {int(gt.counts.sum())} (x{ratio:.1f}) raw; exact by default"
    )


def test_criterion_7b_long_range_undercount():
    """Out-of-range zones undercount; in-range placement restores truth."""
    from lidartmc.reference import build_reference_config

    sc = next(s for s in scenario_suite() if s.name == "eb_wb_long_range")
    session = simulate(sc.script, sc.cfg, sc.sim)
    gt = session.ground_truth
    est = run_counting(session, sc.cfg)
    assert int(est.counts.sum()) < int(gt.counts.sum())
    # same script over the reference geometry (zones back within range)
    restored_cfg = build_reference_config()
    restored = simulate(sc.script, restored_cfg, sc.sim)
    assert restored.ground_truth == gt
    est_restored = run_counting(restored, restored_cfg)
    assert est_restored == gt
    ok(
        "criterion 7b: long-range undercounts "
        f"{int(est.counts.sum())} vs {int(gt.counts.sum())}; in-range placement exact"
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    """simulate -> estimate -> compare twice: byte-identical outputs."""
    bases = []
    for run in ("r1", "r2"):
        base = tmp_path / run
        sim_out, est_out, cmp_out = base / "sim", base / "est", base / "cmp"
        assert cli.main(
            ["simulate", "--scenario", "dual_overlap", "--seed", "99",
             "--out-dir", str(sim_out)]
        ) == 0
        assert cli.main(
            [
                "estimate",
                str(sim_out / "log_L1.jsonl"),
                str(sim_out / "log_L2.jsonl"),
                "--registry",
                str(sim_out / "registry.json"),
                "--out-dir",
                str(est_out),
            ]
        ) == 0
        assert cli.main(
            [
                "compare",
                str(est_out / "tmc.csv"),
                str(sim_out / "gt.csv"),
                "--out-dir",
                str(cmp_out),
            ]
        ) == 0
        bases.append(base)
    a, b = bases
    byte_identical = (
        "sim/log_L1.jsonl",
        "sim/log_L2.jsonl",
        "sim/gt.csv",
        "sim/registry.json",
        "sim/script.json",
        "est/tmc.csv",
        "est/events.csv",
        "cmp/report.csv",
    )
    for rel in byte_identical:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    for rel in ("sim/manifest.json", "est/manifest.json", "cmp/manifest.json"):
        ma = json.loads((a / rel).read_text().replace(str(a), "BASE"))
        mb = json.loads((b / rel).read_text().replace(str(b), "BASE"))
        ma.pop("wall_clock_utc")
        mb.pop("wall_clock_utc")
        assert ma == mb, rel
    ok("criterion 8: end-to-end determinism (wall clock excluded)")
