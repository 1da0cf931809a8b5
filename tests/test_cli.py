import copy
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation
from lidartmc import cli
from lidartmc.classify import DEFAULT_CLASS_TABLE, class_table_to_obj
from lidartmc.errors import SchemaError
from lidartmc.geo import GeodeticPoint, NedPoint, lla_to_ecef, load_registry
from lidartmc.ingest import MergedStream, frames_to_ned, parse_detection_log
from lidartmc.intersection import CountingParams, load_intersection_config
from lidartmc.report import TmcTable, load_tmc_csv, save_tmc_csv
from lidartmc.simgen import SimConfig, load_script, random_script, script_to_obj
from lidartmc.reference import reference_config_path
from oracle import point_in_zone

GT_FIXTURE = Path(__file__).parent / "data" / "gt_drone_reference.csv"


def write_gcp_file(path, rng, n=5, frame_id="L1"):
    """Noiseless synthetic GCPs: geodetic points first, sensor side derived."""
    base = GeodeticPoint(34.05, -117.4, 350.0)
    geos = [
        GeodeticPoint(
            base.lat + float(rng.uniform(-3e-4, 3e-4)),
            base.lon + float(rng.uniform(-3e-4, 3e-4)),
            base.alt + float(rng.uniform(0.0, 6.0)),
        )
        for _ in range(n)
    ]
    ecef = np.array([lla_to_ecef(g) for g in geos])
    rot = random_rotation(rng)
    trans = ecef.mean(axis=0) + rng.normal(0.0, 20.0, 3)
    sensor = (ecef - trans) @ rot
    lines = ["frame_id,sx,sy,sz,lat,lon,alt"]
    for s, g in zip(sensor, geos):
        lines.append(
            f"{frame_id},{float(s[0])!r},{float(s[1])!r},{float(s[2])!r},"
            f"{g.lat!r},{g.lon!r},{g.alt!r}"
        )
    path.write_text("\n".join(lines) + "\n")


class TestGeoref:
    def test_writes_registry_and_prints_rmse(self, tmp_path, capsys):
        gcp = tmp_path / "gcps.csv"
        write_gcp_file(gcp, np.random.default_rng(61))
        code = cli.main(
            [
                "georef",
                str(gcp),
                "--registry",
                str(tmp_path / "registry.json"),
                "--ned-origin",
                "34.05,-117.4,350.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rmse" in out
        reg = load_registry(tmp_path / "registry.json")
        assert reg.frame_ids == ("L1",)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        # noiseless synthesis: rmse at the float floor for ECEF magnitudes
        assert manifest["rmse_m"]["L1"] < 1e-8

    def test_two_point_file_exits_2(self, tmp_path):
        gcp = tmp_path / "gcps.csv"
        write_gcp_file(gcp, np.random.default_rng(62), n=2)
        code = cli.main(
            [
                "georef",
                str(gcp),
                "--registry",
                str(tmp_path / "registry.json"),
                "--ned-origin",
                "34.05,-117.4,350.0",
            ]
        )
        assert code == 2

    def test_new_registry_needs_origin(self, tmp_path):
        gcp = tmp_path / "gcps.csv"
        write_gcp_file(gcp, np.random.default_rng(63))
        code = cli.main(
            ["georef", str(gcp), "--registry", str(tmp_path / "registry.json")]
        )
        assert code == 2

    def test_origin_from_config(self, tmp_path):
        gcp = tmp_path / "gcps.csv"
        write_gcp_file(gcp, np.random.default_rng(64))
        code = cli.main(
            [
                "georef",
                str(gcp),
                "--registry",
                str(tmp_path / "registry.json"),
                "--config",
                reference_config_path(),
            ]
        )
        assert code == 0

    def test_missing_file_exits_2(self, tmp_path):
        code = cli.main(["georef", str(tmp_path / "nope.csv")])
        assert code == 2


class TestSimulate:
    def test_seed_required(self, tmp_path):
        code = cli.main(
            ["simulate", "--scenario", "ideal", "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_scenario_outputs(self, tmp_path):
        code = cli.main(
            [
                "simulate",
                "--scenario",
                "ideal",
                "--seed",
                "7",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        for name in ("log_L1.jsonl", "log_L2.jsonl", "gt.csv", "registry.json",
                     "script.json", "manifest.json"):
            assert (tmp_path / name).exists(), name
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["command"] == "simulate"

    def test_script_mode(self, tmp_path, reference_config):
        rng = np.random.default_rng(65)
        script = random_script(reference_config, rng, 8, SimConfig(seed=1))
        spath = tmp_path / "script.json"
        spath.write_text(json.dumps(script_to_obj(script)))
        code = cli.main(
            [
                "simulate",
                "--script",
                str(spath),
                "--seed",
                "3",
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        gt = load_tmc_csv(tmp_path / "out" / "gt.csv")
        assert int(gt.counts.sum()) == len(script)

    def test_unknown_zone_id_exits_2(self, tmp_path, capsys):
        spath = tmp_path / "script.json"
        spath.write_text(json.dumps({"vehicles": [
            {"class": 3, "approach": "NB", "movement": "Thru", "entry_time": 20.0,
             "speed": 10.0, "zone_id": "NOPE"},
        ]}))
        code = cli.main(["simulate", "--script", str(spath), "--seed", "3",
                         "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "'NOPE'" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("log_*"))

    def test_script_and_scenario_conflict(self, tmp_path):
        code = cli.main(
            [
                "simulate",
                "--script",
                "x.json",
                "--scenario",
                "ideal",
                "--seed",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 2

    def test_same_seed_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert (
                cli.main(
                    [
                        "simulate",
                        "--scenario",
                        "burst",
                        "--seed",
                        "11",
                        "--out-dir",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(out)
        for name in ("log_L1.jsonl", "log_L2.jsonl", "gt.csv", "registry.json", "script.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def simulate_ideal(tmp_path, seed=7):
    out = tmp_path / "sim"
    assert (
        cli.main(
            ["simulate", "--scenario", "ideal", "--seed", str(seed), "--out-dir", str(out)]
        )
        == 0
    )
    return out


class TestEstimate:
    def test_ideal_scenario_matches_ground_truth(self, tmp_path):
        sim_out = simulate_ideal(tmp_path)
        est_out = tmp_path / "est"
        code = cli.main(
            [
                "estimate",
                str(sim_out / "log_L1.jsonl"),
                str(sim_out / "log_L2.jsonl"),
                "--registry",
                str(sim_out / "registry.json"),
                "--out-dir",
                str(est_out),
            ]
        )
        assert code == 0
        est = load_tmc_csv(est_out / "tmc.csv")
        gt = load_tmc_csv(sim_out / "gt.csv")
        assert est == gt
        events = (est_out / "events.csv").read_text().splitlines()
        assert events[0] == "t,approach,movement,class,length"
        assert len(events) == 1 + int(gt.counts.sum())

    def test_gzip_logs_accepted(self, tmp_path):
        import gzip

        sim_out = simulate_ideal(tmp_path)
        gz = tmp_path / "log_L1.jsonl.gz"
        gz.write_bytes(gzip.compress((sim_out / "log_L1.jsonl").read_bytes()))
        est_out = tmp_path / "est_gz"
        code = cli.main(
            [
                "estimate",
                str(gz),
                str(sim_out / "log_L2.jsonl"),
                "--registry",
                str(sim_out / "registry.json"),
                "--out-dir",
                str(est_out),
            ]
        )
        assert code == 0
        est = load_tmc_csv(est_out / "tmc.csv")
        gt = load_tmc_csv(sim_out / "gt.csv")
        assert est == gt

    def test_empty_logs_zero_table(self, tmp_path):
        sim_out = simulate_ideal(tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        est_out = tmp_path / "est"
        code = cli.main(
            [
                "estimate",
                str(empty),
                "--registry",
                str(sim_out / "registry.json"),
                "--out-dir",
                str(est_out),
            ]
        )
        assert code == 0
        est = load_tmc_csv(est_out / "tmc.csv")
        assert est.counts.sum() == 0

    def test_corrupt_line_skipped_with_warning(self, tmp_path):
        sim_out = simulate_ideal(tmp_path)
        log = sim_out / "log_L1.jsonl"
        log.write_text("{broken json\n" + log.read_text())
        est_out = tmp_path / "est"
        code = cli.main(
            [
                "estimate",
                str(log),
                str(sim_out / "log_L2.jsonl"),
                "--registry",
                str(sim_out / "registry.json"),
                "--out-dir",
                str(est_out),
            ]
        )
        assert code == 0
        manifest = json.loads((est_out / "manifest.json").read_text())
        assert manifest["warnings"]["skipped_lines"] == 1

    def test_strict_aborts_on_corrupt_line(self, tmp_path):
        sim_out = simulate_ideal(tmp_path)
        log = sim_out / "log_L1.jsonl"
        log.write_text("{broken json\n" + log.read_text())
        code = cli.main(
            [
                "estimate",
                str(log),
                "--strict",
                "--registry",
                str(sim_out / "registry.json"),
                "--out-dir",
                str(tmp_path / "est"),
            ]
        )
        assert code == 2

    def estimate_args(self, sim_out, log, out):
        return ["estimate", str(log), str(sim_out / "log_L2.jsonl"),
                "--registry", str(sim_out / "registry.json"), "--out-dir", str(out)]

    def test_invalid_utf8_line_skipped_or_strict_exit_2(self, tmp_path):
        sim_out = simulate_ideal(tmp_path)
        log = sim_out / "log_L1.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        lines.insert(3, b'{"t": 1.0, "frame_id": "L1\xff", "detections": []}\n')
        log.write_bytes(b"".join(lines))
        est_out = tmp_path / "est"
        assert cli.main(self.estimate_args(sim_out, log, est_out)) == 0
        manifest = json.loads((est_out / "manifest.json").read_text())
        assert manifest["warnings"]["skipped_lines"] == 1
        assert load_tmc_csv(est_out / "tmc.csv") == load_tmc_csv(sim_out / "gt.csv")
        assert cli.main(self.estimate_args(sim_out, log, tmp_path / "strict") + ["--strict"]) == 2

    def test_truncated_gzip_keeps_decoded_lines(self, tmp_path):
        import gzip

        sim_out = simulate_ideal(tmp_path)
        data = gzip.compress((sim_out / "log_L1.jsonl").read_bytes())
        gz = tmp_path / "log_L1.jsonl.gz"
        gz.write_bytes(data[: len(data) // 2])
        est_out = tmp_path / "est"
        assert cli.main(self.estimate_args(sim_out, gz, est_out)) == 0
        manifest = json.loads((est_out / "manifest.json").read_text())
        assert manifest["warnings"]["skipped_lines"] == 1
        assert sum(manifest["counting"]["triggers_per_zone"].values()) > 0
        assert cli.main(self.estimate_args(sim_out, gz, tmp_path / "strict") + ["--strict"]) == 2

    @pytest.mark.filterwarnings("error")
    def test_registry_with_huge_rotation_entries_exits_2(self, tmp_path, capsys):
        # Under warnings as errors, an overflow warning would exit 1.
        sim_out = simulate_ideal(tmp_path)
        doc = json.loads((sim_out / "registry.json").read_text())
        doc["frames"]["L1"]["rotation"] = [1e308] * 9
        registry = tmp_path / "huge.json"
        registry.write_text(json.dumps(doc))
        code = cli.main(["estimate", str(sim_out / "log_L1.jsonl"), "--registry",
                         str(registry), "--out-dir", str(tmp_path / "est")])
        assert code == 2
        assert "rotation entries must be finite" in capsys.readouterr().err

    def test_out_of_session_detections_dropped_and_counted(self, tmp_path, capsys):
        sim_out = simulate_ideal(tmp_path)
        log = sim_out / "log_L1.jsonl"
        clean = tmp_path / "clean"
        assert cli.main(self.estimate_args(sim_out, log, clean)) == 0
        lines = log.read_text().splitlines()
        # The same detections again, long after the schedule session ends,
        # then a frame whose detections lie outside every zone.
        late = [json.dumps({**json.loads(line), "t": json.loads(line)["t"] + 1e4})
                for line in lines]
        box = {"x": 900.0, "y": 900.0, "z": 0.0, "l": 4.0, "w": 2.0, "h": 1.5, "yaw": 0.0}
        far = json.dumps({"t": 2e4, "frame_id": "L1", "detections": [box, box]})
        cfg = load_intersection_config(reference_config_path())
        ned = frames_to_ned(MergedStream.from_frames(parse_detection_log(late + [far])),
                            load_registry(sim_out / "registry.json"))
        in_zone = [any(point_in_zone(NedPoint(n, e, d), z) for z in cfg.zones)
                   for n, e, d in ned.boxes[:, :3].tolist()]
        assert not any(in_zone[-2:])
        contained = sum(in_zone)
        assert contained > 0
        for extra, dropped in (([far], 0), (late + [far], contained)):
            log.write_text("\n".join(lines + extra) + "\n")
            capsys.readouterr()
            est_out = tmp_path / f"est{dropped}"
            assert cli.main(self.estimate_args(sim_out, log, est_out)) == 0
            for name in ("tmc.csv", "events.csv"):
                assert (est_out / name).read_bytes() == (clean / name).read_bytes()
            warnings = json.loads((est_out / "manifest.json").read_text())["warnings"]
            err = capsys.readouterr().err
            if dropped:
                assert warnings == {"skipped_lines": 0, "outside_session_detections": dropped}
                assert err == (f"warning: dropped {dropped} zone-contained detection(s) "
                               "outside the schedule session\n")
            else:
                assert warnings == {"skipped_lines": 0}
                assert err == ""
        strict = self.estimate_args(sim_out, log, tmp_path / "strict") + ["--strict"]
        assert cli.main(strict) == 2
        assert "outside schedule session" in capsys.readouterr().err

    def test_params_flags_accepted(self, tmp_path):
        sim_out = simulate_ideal(tmp_path)
        code = cli.main(
            [
                "estimate",
                str(sim_out / "log_L1.jsonl"),
                "--registry",
                str(sim_out / "registry.json"),
                "--out-dir",
                str(tmp_path / "est"),
                "--min-headway-right",
                "2.5",
                "--min-headway-other",
                "1.5",
                "--cluster-gap",
                "0.5",
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "est" / "manifest.json").read_text())
        assert manifest["arguments"]["params"]["min_headway_right"] == 2.5

    @pytest.mark.parametrize("config_params,flags,cluster_gap,dedup_window", [
        (None, ["--cluster-gap", "0.4"], 0.4, 0.4),
        ({"cluster_gap": 0.4}, [], 0.4, 0.4),
        ({"cluster_gap": 0.5}, ["--cluster-gap", "0.4"], 0.4, 0.4),
        ({"dedup_window": 0.6}, ["--cluster-gap", "0.4"], 0.4, 0.6),
        ({"cluster_gap": 0.4, "dedup_window": 0.4}, ["--cluster-gap", "0.5"], 0.5, 0.4),
        (None, ["--cluster-gap", "0.4", "--dedup-window", "0.5"], 0.4, 0.5),
        ({"dedup_window": 0.6}, ["--dedup-window", "0.3"], 0.6, 0.3),
    ])
    def test_dedup_window_follows_cluster_gap_unless_set(
            self, ideal_sim, tmp_path, config_params, flags, cluster_gap, dedup_window):
        """``--cluster-gap`` moves ``dedup_window`` with it, as the config's
        ``cluster_gap`` does, unless the config or ``--dedup-window`` sets
        ``dedup_window``."""
        doc = json.loads(Path(reference_config_path()).read_text())
        if config_params is not None:
            doc["params"] = config_params
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["estimate", str(ideal_sim / "log_L1.jsonl"),
                         str(ideal_sim / "log_L2.jsonl"), "--config", str(config),
                         "--registry", str(ideal_sim / "registry.json"),
                         "--out-dir", str(tmp_path / "est"), *flags]) == 0
        params = json.loads((tmp_path / "est" / "manifest.json").read_text())[
            "arguments"]["params"]
        assert (params["cluster_gap"], params["dedup_window"]) == (cluster_gap, dedup_window)


class TestCompare:
    def test_identical_files_zero_error(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = cli.main(
            [
                "compare",
                str(GT_FIXTURE),
                str(GT_FIXTURE),
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        report = (out / "report.csv").read_text().splitlines()
        for line in report[1:]:
            assert line.endswith(",0,0.0") or line.endswith(",0,n/a")

    def test_known_delta(self, tmp_path):
        est = tmp_path / "est.csv"
        text = GT_FIXTURE.read_text().replace("3,3,38,6,2", "3,3,40,6,2")
        est.write_text(text)
        out = tmp_path / "cmp"
        code = cli.main(
            ["compare", str(est), str(GT_FIXTURE), "--out-dir", str(out),
             "--group-by", "approach,movement"]
        )
        assert code == 0
        rows = (out / "report.csv").read_text().splitlines()
        nb_thru = next(r for r in rows if r.startswith("NB/Thru"))
        parts = nb_thru.split(",")
        assert int(parts[1]) - int(parts[2]) == 2

    def test_mismatched_bins_exit_2(self, tmp_path):
        other = tmp_path / "other.csv"
        other.write_text(
            "bin_start,approach,class,left,thru,right,uturn\n0.0,NB,3,1,2,3,4\n"
        )
        code = cli.main(["compare", str(GT_FIXTURE), str(other), "--out-dir", str(tmp_path)])
        assert code == 2

    def test_sparse_ground_truth_without_leading_zero_bins(self, tmp_path):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 5, (6, 4, 4, 6))
        counts[:2] = 0
        full, sparse, est = tmp_path / "full.csv", tmp_path / "sparse.csv", tmp_path / "est.csv"
        save_tmc_csv(TmcTable(300.0, (0.0, 1800.0), counts), full)
        save_tmc_csv(TmcTable(300.0, (0.0, 1800.0), rng.integers(0, 5, (6, 4, 4, 6))), est)
        rows = full.read_text().splitlines()
        sparse.write_text("\n".join(r for r in rows if not r.startswith(("0.0,", "300.0,")))
                          + "\n")
        reports = []
        for estimated, truth in ((est, full), (est, sparse), (full, est), (sparse, est)):
            out = tmp_path / f"{estimated.stem}-{truth.stem}"
            assert cli.main(["compare", str(estimated), str(truth), "--out-dir", str(out),
                             "--group-by", "time,approach"]) == 0
            reports.append((out / "report.csv").read_text())
        assert reports[0] == reports[1]
        assert reports[2] == reports[3]

    def test_seven_class_estimate_compares_with_itself(self, ideal_sim, tmp_path):
        doc = json.loads(Path(reference_config_path()).read_text())
        classes = class_table_to_obj(DEFAULT_CLASS_TABLE)
        classes[-1]["upper"] = 20.0
        doc["class_table"] = classes + [{"id": 7, "label": "Long combinations",
                                         "lower": 20.0, "upper": None, "fhwa": []}]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        est = tmp_path / "est"
        assert cli.main(["estimate", str(ideal_sim / "log_L1.jsonl"),
                         str(ideal_sim / "log_L2.jsonl"), "--config", str(config),
                         "--registry", str(ideal_sim / "registry.json"),
                         "--out-dir", str(est)]) == 0
        assert load_tmc_csv(est / "tmc.csv").n_classes == 7
        out = tmp_path / "cmp"
        assert cli.main(["compare", str(est / "tmc.csv"), str(est / "tmc.csv"),
                         "--out-dir", str(out)]) == 0
        for line in (out / "report.csv").read_text().splitlines()[1:]:
            assert line.endswith(",0,0.0") or line.endswith(",0,n/a")

    def test_huge_class_id_exit_2(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(GT_FIXTURE.read_text() + f"0.0,NB,{10**12},1,0,0,0\n")
        assert cli.main(["compare", str(table), str(GT_FIXTURE),
                         "--out-dir", str(tmp_path / "cmp")]) == 2
        assert "classes is larger than" in capsys.readouterr().err

    def test_bad_group_by_exit_1_or_2(self, tmp_path):
        code = cli.main(
            ["compare", str(GT_FIXTURE), str(GT_FIXTURE), "--group-by", "bogus",
             "--out-dir", str(tmp_path)]
        )
        assert code != 0


class TestEndToEnd:
    def test_simulate_estimate_compare_deterministic(self, tmp_path):
        """Full pipeline twice with one seed: byte-identical outputs
        (manifests compared modulo the wall-clock field)."""
        results = []
        for run in ("r1", "r2"):
            base = tmp_path / run
            sim_out = base / "sim"
            est_out = base / "est"
            cmp_out = base / "cmp"
            assert cli.main(
                ["simulate", "--scenario", "ideal", "--seed", "42", "--out-dir", str(sim_out)]
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
            results.append(base)

        a, b = results
        for rel in (
            "sim/log_L1.jsonl",
            "sim/log_L2.jsonl",
            "sim/gt.csv",
            "sim/registry.json",
            "sim/script.json",
            "est/tmc.csv",
            "est/events.csv",
            "cmp/report.csv",
        ):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
        for rel in ("sim/manifest.json", "est/manifest.json", "cmp/manifest.json"):
            ma = json.loads((a / rel).read_text())
            mb = json.loads((b / rel).read_text())
            # estimate/compare manifests embed input paths under tmp_path
            sa = json.dumps(ma, sort_keys=True).replace(str(a), "BASE")
            sb = json.dumps(mb, sort_keys=True).replace(str(b), "BASE")
            ja, jb = json.loads(sa), json.loads(sb)
            ja.pop("wall_clock_utc")
            jb.pop("wall_clock_utc")
            assert ja == jb, rel

    def test_estimated_tmc_comparable_zero_error(self, tmp_path):
        base = tmp_path
        sim_out = base / "sim"
        est_out = base / "est"
        cmp_out = base / "cmp"
        cli.main(["simulate", "--scenario", "ideal", "--seed", "5", "--out-dir", str(sim_out)])
        cli.main(
            [
                "estimate",
                str(sim_out / "log_L1.jsonl"),
                str(sim_out / "log_L2.jsonl"),
                "--registry",
                str(sim_out / "registry.json"),
                "--out-dir",
                str(est_out),
            ]
        )
        cli.main(
            [
                "compare",
                str(est_out / "tmc.csv"),
                str(sim_out / "gt.csv"),
                "--out-dir",
                str(cmp_out),
            ]
        )
        rows = (cmp_out / "report.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[3] == "0" for row in rows)


@pytest.fixture(scope="module")
def ideal_sim(tmp_path_factory):
    return simulate_ideal(tmp_path_factory.mktemp("ideal"))


BAD_FLAG_VALUES = [
    ("estimate", ["--bin-seconds", "0"]),
    ("estimate", ["--bin-seconds", "-5"]),
    ("estimate", ["--bin-seconds", "nan"]),
    ("estimate", ["--bin-seconds", "inf"]),
    ("estimate", ["--session-start", "100", "--session-end", "50"]),
    ("estimate", ["--session-start", "nan"]),
    ("estimate", ["--session-end", "1e12"]),
    ("estimate", ["--bin-seconds", "1e-9"]),
    ("estimate", ["--reorder-window", "nan"]),
    ("estimate", ["--reorder-window", "-1"]),
    ("estimate", ["--dedup-window", "nan"]),
    ("estimate", ["--min-headway-right", "inf"]),
    ("compare", ["--bin-seconds", "0"]),
    ("compare", ["--bin-seconds", "nan"]),
    ("compare", ["--group-by", "foo"]),
    ("simulate", ["--noise-sigma", "nan"]),
    ("simulate", ["--seed", "-1"]),
]


@pytest.mark.parametrize("command,flags", BAD_FLAG_VALUES,
                         ids=[" ".join([c, *f]) for c, f in BAD_FLAG_VALUES])
def test_bad_numeric_flag_exits_2(ideal_sim, tmp_path, command, flags):
    out = ["--out-dir", str(tmp_path / "out")]
    argv = {
        "estimate": ["estimate", str(ideal_sim / "log_L1.jsonl"),
                     "--registry", str(ideal_sim / "registry.json")],
        "compare": ["compare", str(GT_FIXTURE), str(GT_FIXTURE)],
        "simulate": ["simulate", "--scenario", "ideal", "--seed", "1"],
    }[command]
    assert cli.main(argv + flags + out) == 2
    assert not (tmp_path / "out").exists()


def test_version_flag(capsys):
    code = cli.main(["--version"])
    assert code == 0
    from lidartmc import __version__

    assert __version__ in capsys.readouterr().out


def test_no_command_exits_2():
    assert cli.main([]) == 2


def test_internal_error_returns_1(monkeypatch):
    # build_parser binds the module attribute at build time, so patching
    # the command function exercises the exit-1 contract.
    def boom(args):
        raise RuntimeError("synthetic internal failure")

    monkeypatch.setattr(cli, "cmd_compare", boom)
    assert cli.main(["compare", "a.csv", "b.csv"]) == 1


@pytest.fixture(scope="module")
def log_pair(ideal_sim):
    """The two simulated sensor logs and their registry."""
    return [ideal_sim / f"log_{s}.jsonl" for s in ("L1", "L2")], ideal_sim / "registry.json"


def estimate_logs(logs, registry, *flags):
    """Exit code, tmc.csv, events.csv and manifest of ``estimate`` on the
    logs given as bytes, run with two usable CPUs so the second log is
    parsed in a forked child."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        paths = []
        for i, data in enumerate(logs):
            paths.append(Path(tmp) / f"log{i}.jsonl")
            paths[-1].write_bytes(data)
        out = Path(tmp) / "est"
        code = cli.main(["estimate", *map(str, paths), "--registry", str(registry),
                         "--out-dir", str(out), *flags])
        if code != 0:
            return code, None, None, None
        return (code, (out / "tmc.csv").read_text(), (out / "events.csv").read_text(),
                json.loads((out / "manifest.json").read_text()))


MUTATIONS = st.tuples(
    st.sampled_from(["flip byte", "insert byte", "delete byte", "drop line",
                     "duplicate line", "swap lines", "cut line"]),
    st.integers(0, 1),  # which log
    st.integers(0, 10**6),  # where
    st.integers(0, 255),  # byte value, or how far away or how much
)


def mutate(data, op, pos, byte):
    if op.endswith("byte"):
        at = pos % (len(data) + 1)
        keep = data[at + (op != "insert byte"):]
        return data[:at] + (b"" if op == "delete byte" else bytes([byte])) + keep
    lines = data.splitlines(keepends=True)
    if not lines:
        return data
    i = pos % len(lines)
    j = (i + 1 + byte) % len(lines)
    if op == "drop line":
        del lines[i]
    elif op == "duplicate line":
        lines.insert(j, lines[i])
    elif op == "swap lines":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i] = lines[i][: byte % len(lines[i])]
    return b"".join(lines)


@settings(max_examples=40, deadline=None)
@given(st.lists(MUTATIONS, min_size=1, max_size=6), st.booleans())
def test_mutated_logs_exit_0_or_2(log_pair, mutations, strict):
    paths, registry = log_pair
    logs = [p.read_bytes() for p in paths]
    for op, which, pos, byte in mutations:
        logs[which] = mutate(logs[which], op, pos, byte)
    assert estimate_logs(logs, registry, *["--strict"] * strict)[0] in (0, 2)


def garbled_lines(n_lines):
    """Line index -> how the line is garbled: cut to that fraction of its
    length, replaced by junk that starts with '#' (neither is a JSON
    object), or one of its numbers, picked by position, replaced by a
    string or a boolean. Each is one skipped line."""
    return st.dictionaries(
        st.integers(0, n_lines - 1),
        st.one_of(st.floats(0.0, 1.0),
                  st.binary(max_size=20).map(lambda b: b"#" + b.replace(b"\n", b"")),
                  st.tuples(st.integers(0, 10**6), st.sampled_from(["string", True, False]))),
        max_size=6,
    )


def garble(line, how):
    if isinstance(how, bytes):
        return how + b"\n"
    if isinstance(how, tuple):
        pos, value = how
        doc = json.loads(line)
        numbers = [p for p in json_paths(doc) if type(node_at(doc, p)) in (int, float)]
        *head, key = numbers[pos % len(numbers)]
        parent = node_at(doc, head)
        parent[key] = str(parent[key]) if value == "string" else value
        return json.dumps(doc).encode() + b"\n"
    text = line.rstrip()
    return text[: min(len(text) - 1, max(1, int(how * len(text))))] + b"\n"


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_garbled_lines_skipped_and_counted(log_pair, data):
    paths, registry = log_pair
    garbled, deleted, n_bad = [], [], 0
    for path in paths:
        lines = path.read_bytes().splitlines(keepends=True)
        bad = data.draw(garbled_lines(len(lines)))
        n_bad += len(bad)
        garbled.append(b"".join(garble(line, bad[i]) if i in bad else line
                                for i, line in enumerate(lines)))
        deleted.append(b"".join(line for i, line in enumerate(lines) if i not in bad))
    code, tmc, events, manifest = estimate_logs(garbled, registry)
    assert code == 0
    assert manifest["warnings"]["skipped_lines"] == n_bad
    assert estimate_logs(deleted, registry)[1:3] == (tmc, events)
    assert estimate_logs(garbled, registry, "--strict")[0] == (2 if n_bad else 0)


GCP_ROW = "L1,1.0,2.0,3.0,34.05,-117.4,350.0"


@pytest.mark.parametrize("row,origin", [
    ("L1,nan,2.0,3.0,34.05,-117.4,350.0", "34.05,-117.4,350.0"),
    ("L1,1.0,2.0,3.0,95.0,-117.4,350.0", "34.05,-117.4,350.0"),
    (GCP_ROW, "34,1"),
    (GCP_ROW, "a,b,c"),
    (GCP_ROW, "100,0,0"),
    (GCP_ROW, "nan,0,0"),
], ids=["nan sensor value", "lat 95", "two origin values", "non-numeric origin",
        "origin lat 100", "nan origin"])
def test_georef_bad_input_exits_2(tmp_path, capsys, row, origin):
    gcp = tmp_path / "gcps.csv"
    write_gcp_file(gcp, np.random.default_rng(66))
    gcp.write_text(gcp.read_text() + row + "\n")
    registry = tmp_path / "registry.json"
    code = cli.main(["georef", str(gcp), "--registry", str(registry), "--ned-origin", origin])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not registry.exists()


def test_georef_file_not_utf8_exits_2(tmp_path):
    gcp = tmp_path / "gcps.csv"
    gcp.write_bytes(b"frame_id,sx,sy,sz,lat,lon,alt\nL1,\xff,0,0,34,-117,0\n")
    code = cli.main(["georef", str(gcp), "--registry", str(tmp_path / "registry.json"),
                     "--ned-origin", "34.05,-117.4,350.0"])
    assert code == 2


def test_registry_frames_list_exits_2(ideal_sim, tmp_path):
    registry = tmp_path / "registry.json"
    doc = json.loads((ideal_sim / "registry.json").read_text())
    registry.write_text(json.dumps({**doc, "frames": []}))
    code = cli.main(["estimate", str(ideal_sim / "log_L1.jsonl"), "--registry", str(registry),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("vehicle_class", ["3.7", "Infinity", "NaN"])
def test_script_class_must_be_an_integer(tmp_path, capsys, vehicle_class):
    spath = tmp_path / "script.json"
    spath.write_text('{"vehicles": [{"class": %s, "approach": "NB", "movement": "Thru", '
                     '"entry_time": 20.0, "speed": 10.0}]}' % vehicle_class)
    code = cli.main(["simulate", "--script", str(spath), "--seed", "3",
                     "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "bad script document" in capsys.readouterr().err


def test_unbounded_session_exits_2(ideal_sim, tmp_path):
    doc = json.loads(Path(reference_config_path()).read_text())
    doc["schedule"][-1]["end"] = math.inf
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = cli.main(["estimate", str(ideal_sim / "log_L1.jsonl"), "--config", str(config),
                     "--registry", str(ideal_sim / "registry.json"),
                     "--out-dir", str(tmp_path / "est")])
    assert code == 2
    table = tmp_path / "table.csv"
    table.write_text(GT_FIXTURE.read_text() + "inf,NB,1,0,0,0,0\n")
    assert cli.main(["compare", str(table), str(GT_FIXTURE),
                     "--out-dir", str(tmp_path / "cmp")]) == 2


BAD_CONFIG_NODES = {
    "half_length NaN": (("zones", 0, "half_length"), math.nan),
    "half_width NaN": (("zones", 0, "half_width"), math.nan),
    "yaw Infinity": (("zones", 0, "yaw"), math.inf),
    "class id 1.5": (("class_table",), [{**c, "id": 1.5} if c["id"] == 1 else c
                                        for c in class_table_to_obj(DEFAULT_CLASS_TABLE)]),
    "absorb string": (("params",), {"absorb": "x"}),
}


@pytest.mark.parametrize("path,value", BAD_CONFIG_NODES.values(), ids=BAD_CONFIG_NODES)
def test_bad_config_value_exits_2(ideal_sim, tmp_path, path, value):
    doc = json.loads(Path(reference_config_path()).read_text())
    *head, key = path
    node = doc
    for k in head:
        node = node[k]
    node[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["estimate", str(ideal_sim / "log_L1.jsonl"), "--config", str(config),
                     "--registry", str(ideal_sim / "registry.json"),
                     "--out-dir", str(tmp_path / "est")]) == 2


# Four rows of 2**62 in one cell would wrap int64 to a count of 0; the second
# row already passes the limit.
@pytest.mark.parametrize("rows,bad_line", [(["0.0,NB,1,99999999999999999999999,0,0,0"], 2),
                                           (["0.0,NB,3,0,4611686018427387904,0,0"] * 4, 3)],
                         ids=["one count", "cell total"])
def test_count_past_int64_exits_2(tmp_path, capsys, rows, bad_line):
    table = tmp_path / "table.csv"
    table.write_text("\n".join(["bin_start,approach,class,left,thru,right,uturn", *rows]) + "\n")
    assert cli.main(["compare", str(table), str(table), "--out-dir", str(tmp_path / "cmp")]) == 2
    assert f"line {bad_line}: " in capsys.readouterr().err


# Values that replace one node of a JSON document: every JSON type, and
# numbers at and past the float64 limits.
ODD_VALUES = [None, True, False, 0, -1, 3.7, -0.0, 1e308, 10**400, math.nan, math.inf,
              -math.inf, "", "x", "NB", [], [1.0], {}, {"x": 1}]
DOC_MUTATIONS = st.tuples(
    st.sampled_from(["replace", "delete", "wrap", "duplicate"]),
    st.integers(0, 10**6),  # which node
    st.sampled_from(ODD_VALUES),
)


def json_paths(doc, prefix=()):
    """The path of every node of a JSON document, the root's first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def mutate_doc(doc, op, pos, value):
    """``doc`` with one node replaced by ``value``, deleted, wrapped in a
    list, or, in a list, repeated."""
    doc = copy.deepcopy(doc)
    paths = list(json_paths(doc))
    *head, key = paths[pos % len(paths)] or [None]
    if key is None:  # the root
        return value if op == "replace" else [doc]
    parent = doc
    for k in head:
        parent = parent[k]
    if op == "replace":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [parent[key]]
    return doc


def mutated_doc_exit_code(doc, mutations, tmp, argv):
    """Exit code of ``argv`` with ``{doc}`` in it replaced by the path of
    ``doc`` after ``mutations``."""
    for mutation in mutations:
        doc = mutate_doc(doc, *mutation)
    path = Path(tmp) / "doc.json"
    path.write_text(json.dumps(doc))
    return cli.main([str(path) if a == "{doc}" else a for a in argv]
                    + ["--out-dir", str(Path(tmp) / "out")])


@settings(max_examples=40, deadline=None)
@given(st.lists(DOC_MUTATIONS, min_size=1, max_size=3))
def test_mutated_config_exits_0_or_2(ideal_sim, mutations):
    doc = json.loads(Path(reference_config_path()).read_text())
    with tempfile.TemporaryDirectory() as tmp:
        code = mutated_doc_exit_code(doc, mutations, tmp, [
            "estimate", str(ideal_sim / "log_L1.jsonl"), str(ideal_sim / "log_L2.jsonl"),
            "--registry", str(ideal_sim / "registry.json"), "--config", "{doc}"])
    assert code in (0, 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(DOC_MUTATIONS, min_size=1, max_size=3))
def test_mutated_registry_exits_0_or_2(ideal_sim, mutations):
    doc = json.loads((ideal_sim / "registry.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        code = mutated_doc_exit_code(doc, mutations, tmp, [
            "estimate", str(ideal_sim / "log_L1.jsonl"), str(ideal_sim / "log_L2.jsonl"),
            "--registry", "{doc}"])
    assert code in (0, 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(DOC_MUTATIONS, min_size=1, max_size=3))
def test_mutated_script_exits_0_or_2(reference_config, mutations):
    script = random_script(reference_config, np.random.default_rng(67), 4, SimConfig(seed=1))
    with tempfile.TemporaryDirectory() as tmp:
        code = mutated_doc_exit_code(script_to_obj(script), mutations, tmp, [
            "simulate", "--script", "{doc}", "--seed", "3"])
    assert code in (0, 2)


def config_doc():
    """The reference config with its optional params and class table
    written out, so that their numbers are there to mutate too."""
    doc = json.loads(Path(reference_config_path()).read_text())
    return {**doc, "params": CountingParams().to_obj(),
            "class_table": class_table_to_obj(DEFAULT_CLASS_TABLE)}


SCRIPT_DOC = {"vehicles": [{"class": 3, "approach": "NB", "movement": "Thru",
                            "entry_time": 20.0, "speed": 10.0, "length": 4.5}]}
LOADERS = {"config": load_intersection_config, "registry": load_registry,
           "script": load_script}


def document_and_argv(kind, sim):
    """A valid document of ``kind`` and the command that reads it as ``{doc}``."""
    logs = [str(sim / "log_L1.jsonl"), str(sim / "log_L2.jsonl")]
    if kind == "config":
        return config_doc(), ["estimate", *logs, "--registry", str(sim / "registry.json"),
                              "--config", "{doc}"]
    if kind == "registry":
        return (json.loads((sim / "registry.json").read_text()),
                ["estimate", *logs, "--registry", "{doc}"])
    return copy.deepcopy(SCRIPT_DOC), ["simulate", "--script", "{doc}", "--seed", "3"]


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# A string or a boolean where a JSON number belongs: (document, node, value).
# Each loaded before, read as the number it spells (true is 1, false 0).
SPOOFED_NUMBERS = {
    "zone center strings": ("config", ("zones", 0, "center"), ["1", "2"]),
    "params cluster_gap true": ("config", ("params", "cluster_gap"), True),
    "schedule start false": ("config", ("schedule", 0, "start"), False),
    "class id true": ("config", ("class_table", 0, "id"), True),
    "class id string": ("config", ("class_table", 0, "id"), "1"),
    "script entry_time string": ("script", ("vehicles", 0, "entry_time"), "10"),
    "script speed true": ("script", ("vehicles", 0, "speed"), True),
    "registry translation strings": ("registry", ("frames", "L1", "translation"),
                                     ["1", "2", "3"]),
}


@pytest.mark.parametrize("kind,path,value", SPOOFED_NUMBERS.values(), ids=SPOOFED_NUMBERS)
def test_spoofed_number_is_a_schema_error(ideal_sim, tmp_path, kind, path, value):
    doc, argv = document_and_argv(kind, ideal_sim)
    pos = list(json_paths(doc)).index(path)
    assert mutated_doc_exit_code(doc, [("replace", pos, value)], tmp_path, argv) == 2
    with pytest.raises(SchemaError):
        LOADERS[kind](tmp_path / "doc.json")


@pytest.mark.parametrize("kind", LOADERS)
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_number_replaced_by_string_or_bool_exits_2(ideal_sim, kind, data):
    doc, argv = document_and_argv(kind, ideal_sim)
    paths = list(json_paths(doc))
    numbers = [i for i, path in enumerate(paths) if type(node_at(doc, path)) in (int, float)]
    pos = data.draw(st.sampled_from(numbers), label="node")
    value = data.draw(st.sampled_from([True, False, str(node_at(doc, paths[pos]))]),
                      label="replacement")
    with tempfile.TemporaryDirectory() as tmp:
        assert mutated_doc_exit_code(doc, [("replace", pos, value)], tmp, argv) == 2


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("kind", ["log", *LOADERS])
def test_deeply_nested_input_exits_0_or_2(ideal_sim, tmp_path, capsys, kind):
    """A log line nested too deeply is a skipped line; a config, registry
    or script nested too deeply is a schema error."""
    if kind == "log":
        logs = [(ideal_sim / f"log_{s}.jsonl").read_bytes() for s in ("L1", "L2")]
        logs[0] += ('{"t": 1.0, "frame_id": "L1", "detections": [%s]}\n' % DEEP).encode()
        code, _, _, manifest = estimate_logs(logs, ideal_sim / "registry.json")
        assert code == 0
        assert manifest["warnings"]["skipped_lines"] == 1
        return
    _, argv = document_and_argv(kind, ideal_sim)
    doc = tmp_path / "doc.json"
    doc.write_text(DEEP)
    code = cli.main([str(doc) if a == "{doc}" else a for a in argv]
                    + ["--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    with pytest.raises(SchemaError):
        LOADERS[kind](doc)


GCP_CELLS = ["", " ", "x", "nan", "inf", "-inf", "1e999", "1e308", "-1e308", "0", "95",
             "-181", "180", "L2", "1,2"]
GCP_MUTATIONS = st.one_of(
    MUTATIONS,
    st.tuples(st.just("cell"), st.integers(0, 1), st.integers(0, 10**6),
              st.sampled_from(GCP_CELLS)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(GCP_MUTATIONS, min_size=1, max_size=4))
def test_mutated_gcp_file_exits_0_or_2(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        gcp = Path(tmp) / "gcps.csv"
        write_gcp_file(gcp, np.random.default_rng(68))
        data = gcp.read_bytes()
        for op, _, pos, what in mutations:
            if op == "cell":
                lines = data.split(b"\n")
                row = lines[pos % len(lines)].split(b",")
                row[pos // len(lines) % len(row)] = what.encode()
                lines[pos % len(lines)] = b",".join(row)
                data = b"\n".join(lines)
            else:
                data = mutate(data, op, pos, what)
        gcp.write_bytes(data)
        code = cli.main(["georef", str(gcp), "--registry", str(Path(tmp) / "registry.json"),
                         "--ned-origin", "34.05,-117.4,350.0"])
    assert code in (0, 2)
