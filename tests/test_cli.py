import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DEFAULT_CLASS_TABLE_DOC, fill_script, random_rotation, reference_document,
                      scenario_config_path, workload)
from lidartmc import cli, ingest
from lidartmc.classify import DEFAULT_CLASS_TABLE
from lidartmc.errors import UserInputError
from lidartmc.geo import GeodeticPoint, NedPoint, lla_to_ecef, load_registry
from lidartmc.ingest import frames_to_ned, parse_detection_log
from lidartmc.intersection import CountingParams, load_intersection_config
from lidartmc.reference import reference_config_path
from lidartmc.report import load_tmc_csv
from lidartmc.scenarios import scenario_suite
from lidartmc.simgen import load_script, script_to_obj
from lidartmc.stream import MergedStream
from lidartmc.tables import GT_CSV_HEADER, TmcTable, save_tmc_csv
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

    @pytest.mark.parametrize("frame_id,code", [("L2", 0), ("L3", 2)])
    def test_frame_id_picks_one_frame(self, tmp_path, capsys, frame_id, code):
        gcp = tmp_path / "gcps.csv"
        write_gcp_file(gcp, np.random.default_rng(66), frame_id="L1")
        other = tmp_path / "l2.csv"
        write_gcp_file(other, np.random.default_rng(67), frame_id="L2")
        with open(gcp, "a") as fh:
            fh.writelines(other.read_text().splitlines(keepends=True)[1:])
        registry = tmp_path / "registry.json"
        assert cli.main(["georef", str(gcp), "--frame-id", frame_id, "--registry",
                         str(registry), "--ned-origin", "34.05,-117.4,350.0"]) == code
        if code == 0:
            assert load_registry(registry).frame_ids == ("L2",)
        else:
            assert "no GCP rows for frame 'L3'" in capsys.readouterr().err
            assert not registry.exists()

    def test_updates_an_existing_registry(self, tmp_path, capsys):
        registry = tmp_path / "registry.json"
        for frame_id, seed in (("L1", 68), ("L2", 69)):
            gcp = tmp_path / f"{frame_id}.csv"
            write_gcp_file(gcp, np.random.default_rng(seed), frame_id=frame_id)
            # The origin is needed only to create the registry.
            origin = ["--ned-origin", "34.05,-117.4,350.0"] if frame_id == "L1" else []
            assert cli.main(["georef", str(gcp), "--registry", str(registry), *origin]) == 0
        reg = load_registry(registry)
        assert reg.frame_ids == ("L1", "L2")
        assert reg.ned_origin == GeodeticPoint(34.05, -117.4, 350.0)
        # An update may name the registry's own origin, and no other.
        update = ["georef", str(gcp), "--registry", str(registry)]
        saved = registry.read_bytes()
        capsys.readouterr()
        assert cli.main(update + ["--ned-origin", "10,10,0"]) == 2
        assert capsys.readouterr().err == (
            "error: registry NED origin GeodeticPoint(lat=34.05, lon=-117.4, alt=350.0) "
            "is not the given GeodeticPoint(lat=10.0, lon=10.0, alt=0.0)\n")
        assert cli.main(update + ["--config", str(tmp_path / "missing.json")]) == 2
        assert registry.read_bytes() == saved
        assert cli.main(update + ["--config", reference_config_path()]) == 0

    @pytest.mark.parametrize("existing", [False, True], ids=["new registry", "update"])
    def test_origin_and_config_together_exit_2(self, tmp_path, capsys, existing):
        """Each of the two flags gives the origin, so both are refused
        rather than one of them left unread."""
        gcp = tmp_path / "gcps.csv"
        write_gcp_file(gcp, np.random.default_rng(70))
        registry = tmp_path / "registry.json"
        origin = ["--ned-origin", "34.05,-117.4,350.0"]
        if existing:
            assert cli.main(["georef", str(gcp), "--registry", str(registry), *origin]) == 0
        before = registry.read_bytes() if existing else None
        capsys.readouterr()
        assert cli.main(["georef", str(gcp), "--registry", str(registry), *origin,
                         "--config", reference_config_path()]) == 2
        assert "argument --config: not allowed with argument --ned-origin" in (
            capsys.readouterr().err)
        assert (registry.read_bytes() if registry.exists() else None) == before


    def test_far_origin_exits_2_and_writes_nothing(self, tmp_path, capsys):
        """Each sensor lies within MAX_COORDINATE_M of the NED origin: an
        origin at the GCPs' antipode puts L1 about 1.27e7 m away."""
        gcp = tmp_path / "gcps.csv"
        write_gcp_file(gcp, np.random.default_rng(71))
        registry = tmp_path / "registry.json"
        assert cli.main(["georef", str(gcp), "--registry", str(registry),
                         "--ned-origin=-34.05,62.6,350.0"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: sensor frame 'L1' lies 1\.27\d*e\+07 m from the NED "
                            r"origin, more than 1e\+07 m\n", err), err
        assert not registry.exists()


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
        assert manifest["arguments"]["frame_rate_hz"] == 4.0
        assert len((tmp_path / "log_L1.jsonl").read_text().splitlines()) == 153

    def test_frame_rate(self, tmp_path):
        assert cli.main(["simulate", "--scenario", "ideal", "--seed", "7",
                         "--frame-rate", "5", "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["arguments"]["frame_rate_hz"] == 5.0
        assert len((tmp_path / "log_L1.jsonl").read_text().splitlines()) == 192

    def test_script_mode(self, tmp_path):
        script = fill_script(np.random.default_rng(65))
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
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["inputs"]["config"] == reference_config_path()

    def test_truck_past_the_box_limit_exits_2(self, tmp_path, capsys):
        sim = simulate_ideal(tmp_path)
        doc = json.loads((sim / "script.json").read_text())
        truck = next(v for v in doc["vehicles"] if v["class"] == 6)
        truck["length"] = 60.0
        spath = tmp_path / "script.json"
        spath.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--script", str(spath), "--seed", "7",
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert "length 60.0 is not below the box limit 50.0 m" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_scenario_refuses_a_config(self, tmp_path, capsys):
        """A scenario brings its own config, so an explicit one is an error
        rather than a file that is silently not read."""
        assert cli.main(["simulate", "--scenario", "ideal", "--config",
                         str(tmp_path / "missing.json"), "--seed", "7",
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert "--scenario brings its own config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
    def test_box_far_from_its_sensor_is_a_skipped_line(self, ideal_sim, capsys):
        # Kept, a box at 1.7e308 m overflows the NED map: under warnings as
        # errors that exits 1. L1 is parsed in this process, L2 in a child.
        logs, deleted = [], []
        for s in ("L1", "L2"):
            lines = (ideal_sim / f"log_{s}.jsonl").read_bytes().splitlines(keepends=True)
            doc = json.loads(lines[10])
            doc["detections"][0].update(x=1.7e308, y=-1.7e308)
            logs.append(b"".join(lines[:10]) + json.dumps(doc).encode() + b"\n"
                        + b"".join(lines[11:]))
            deleted.append(b"".join(lines[:10] + lines[11:]))
        code, tmc, events, manifest = estimate_logs(logs, ideal_sim / "registry.json")
        assert code == 0
        assert manifest["warnings"]["skipped_lines"] == 2
        assert capsys.readouterr().err.splitlines() == [
            "skipping detection log line 11: x must be within 1e+07 m of zero, got 1.7e+308"
        ] * 2 + ["warning: skipped 2 malformed line(s)"]
        assert estimate_logs(deleted, ideal_sim / "registry.json")[1:3] == (tmc, events)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_registry_translation_past_the_bound_exits_2(self, ideal_sim, tmp_path, capsys):
        # Loaded, L1 at 1e308 m from the origin silently counted nothing.
        doc = json.loads((ideal_sim / "registry.json").read_text())
        doc["frames"]["L1"]["translation"] = [1e308, 0, 0]
        registry = tmp_path / "far.json"
        registry.write_text(json.dumps(doc))
        code = cli.main(["estimate", *(str(ideal_sim / f"log_{s}.jsonl") for s in ("L1", "L2")),
                         "--registry", str(registry), "--out-dir", str(tmp_path / "est")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: sensor frame 'L1' lies 1e+308 m from the NED origin, more than 1e+07 m\n")
        assert not (tmp_path / "est").exists()

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

    @pytest.mark.parametrize("flag", ["--min-headway-right", "--min-headway-other",
                                      "--cluster-gap", "--dedup-window"])
    def test_threshold_flags_are_refused(self, ideal_sim, tmp_path, capsys, flag):
        """The counting thresholds are set in the config's ``params`` only."""
        assert cli.main(["estimate", str(ideal_sim / "log_L1.jsonl"),
                         "--registry", str(ideal_sim / "registry.json"),
                         "--out-dir", str(tmp_path / "est"), flag, "0.5"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("key,value", [("cluster_gap", 0.4), ("dedup_window", 0.5),
                                           ("absorb", False)])
    def test_removed_param_key_exits_2(self, ideal_sim, tmp_path, capsys, key, value):
        """A params key other than the two headways, such as one of the
        thresholds the rule once had, exits 2 naming the key instead of
        being accepted and ignored."""
        doc = json.loads(Path(reference_config_path()).read_text())
        doc["params"] = {"min_headway_other": 1.0, key: value}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["estimate", str(ideal_sim / "log_L1.jsonl"), "--config", str(config),
                         "--registry", str(ideal_sim / "registry.json"),
                         "--out-dir", str(tmp_path / "est")]) == 2
        assert capsys.readouterr().err == (
            f"error: bad counting params: unknown keys [{key!r}] "
            "(known: ['min_headway_right', 'min_headway_other'])\n")
        assert not (tmp_path / "est").exists()

    def test_manifest_records_the_params_used(self, ideal_sim, tmp_path):
        doc = json.loads(Path(reference_config_path()).read_text())
        doc["params"] = {"min_headway_other": 1.0}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["estimate", str(ideal_sim / "log_L1.jsonl"), "--config", str(config),
                         "--registry", str(ideal_sim / "registry.json"),
                         "--out-dir", str(tmp_path / "est")]) == 0
        manifest = json.loads((tmp_path / "est" / "manifest.json").read_text())
        assert manifest["arguments"]["params"] == {"min_headway_right": 2.0,
                                                   "min_headway_other": 1.0}

    def test_registry_origin_not_the_configs_exits_2(self, ideal_sim, tmp_path, capsys):
        """Detections are mapped into the registry's NED frame and the zones
        lie in the config's, so the two origins must be the same point."""
        doc = json.loads((ideal_sim / "registry.json").read_text())
        doc["ned_origin"]["lat"] += 0.001  # about 111 m north
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(doc))
        assert cli.main(["estimate", str(ideal_sim / "log_L1.jsonl"),
                         "--registry", str(registry), "--out-dir", str(tmp_path / "est")]) == 2
        err = capsys.readouterr().err
        assert str(GeodeticPoint.from_obj(doc["ned_origin"])) in err
        assert str(load_intersection_config(reference_config_path()).ned_origin) in err
        assert not (tmp_path / "est").exists()


def seven_class_config(tmp_path) -> Path:
    """The reference config with a seventh class of vehicles over 20 m."""
    doc = json.loads(Path(reference_config_path()).read_text())
    doc["class_table"] = [*DEFAULT_CLASS_TABLE_DOC[:-1],
                          {**DEFAULT_CLASS_TABLE_DOC[-1], "upper": 20.0},
                          {"id": 7, "label": "Long combinations", "lower": 20.0,
                           "upper": None, "fhwa": []}]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    return config


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

    @staticmethod
    def seven_class_estimate(ideal_sim, tmp_path):
        """The estimate directory of the ``ideal`` logs counted with a
        seven-class table."""
        config = seven_class_config(tmp_path)
        est = tmp_path / "est"
        assert cli.main(["estimate", str(ideal_sim / "log_L1.jsonl"),
                         str(ideal_sim / "log_L2.jsonl"), "--config", str(config),
                         "--registry", str(ideal_sim / "registry.json"),
                         "--out-dir", str(est)]) == 0
        assert load_tmc_csv(est / "tmc.csv").n_classes == 7
        return est

    def test_seven_class_estimate_compares_with_itself(self, ideal_sim, tmp_path):
        est = self.seven_class_estimate(ideal_sim, tmp_path)
        out = tmp_path / "cmp"
        assert cli.main(["compare", str(est / "tmc.csv"), str(est / "tmc.csv"),
                         "--out-dir", str(out)]) == 0
        for line in (out / "report.csv").read_text().splitlines()[1:]:
            assert line.endswith(",0,0.0") or line.endswith(",0,n/a")

    def test_different_class_counts_exit_2(self, ideal_sim, tmp_path, capsys):
        est = self.seven_class_estimate(ideal_sim, tmp_path)
        capsys.readouterr()
        assert cli.main(["compare", str(est / "tmc.csv"), str(ideal_sim / "gt.csv"),
                         "--out-dir", str(tmp_path / "cmp")]) == 2
        assert capsys.readouterr().err == (
            "error: estimate has 7 vehicle classes, ground truth 6\n")

    def test_huge_class_id_exit_2(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(GT_FIXTURE.read_text() + f"0.0,NB,{10**12},1,0,0,0\n")
        assert cli.main(["compare", str(table), str(GT_FIXTURE),
                         "--out-dir", str(tmp_path / "cmp")]) == 2
        assert "classes is larger than" in capsys.readouterr().err

    def test_common_grid_past_the_bound_exits_2_unallocated(self, tmp_path, capsys):
        # Padded onto one session, the tables would be 100,000 bins of
        # 100,000 classes: 1.16 TiB of int64. Loaded, the first is one bin
        # of them, 12.8 MB, and the peak holds little beyond it.
        one_bin, last_bin = tmp_path / "class_100000.csv", tmp_path / "bin_29999700.csv"
        one_bin.write_text(",".join(GT_CSV_HEADER) + "\n0,NB,100000,1,0,0,0\n")
        last_bin.write_text(",".join(GT_CSV_HEADER) + "\n29999700,NB,1,1,0,0,0\n")
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = cli.main(["compare", str(one_bin), str(last_bin),
                             "--out-dir", str(tmp_path / "cmp")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            "error: a table of 100000 bins of 100000 classes is larger than "
            "100000 bins of 6 classes\n")
        assert peak < 100_000 * 16 * 8 + 2 * 2**20

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

    def test_long_schedule_round_trip(self, tmp_path):
        """simulate, estimate and compare all take their session from a
        schedule of twelve 100 s cycles (1,200 s, four 300 s bins)."""
        doc = workload.extend_schedule(reference_document(), 12)
        config, script = tmp_path / "config.json", tmp_path / "script.json"
        config.write_text(json.dumps(doc))
        script.write_text(json.dumps(script_to_obj(fill_script(np.random.default_rng(12), doc))))
        sim, est = tmp_path / "sim", tmp_path / "est"
        assert cli.main(["simulate", "--script", str(script), "--config", str(config),
                         "--seed", "5", "--out-dir", str(sim)]) == 0
        assert cli.main(["estimate", str(sim / "log_L1.jsonl"), str(sim / "log_L2.jsonl"),
                         "--config", str(config), "--registry", str(sim / "registry.json"),
                         "--out-dir", str(est)]) == 0
        assert cli.main(["compare", str(est / "tmc.csv"), str(sim / "gt.csv"),
                         "--out-dir", str(tmp_path / "cmp")]) == 0
        gt = load_tmc_csv(sim / "gt.csv")
        assert gt.counts.shape[0] == 4
        assert gt.counts[1:].sum() > 0
        assert (est / "tmc.csv").read_bytes() == (sim / "gt.csv").read_bytes()
        manifest = json.loads((sim / "manifest.json").read_text())
        assert manifest["arguments"]["session"] == [0.0, 1200.0]
        assert manifest["arguments"]["bin_seconds"] == 300.0

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
    ("estimate", ["--session-start", "-1"]),
    ("estimate", ["--bin-seconds", "1e-9"]),
    ("estimate", ["--reorder-window", "nan"]),
    ("estimate", ["--reorder-window", "-1"]),
    ("compare", ["--bin-seconds", "0"]),
    ("compare", ["--bin-seconds", "nan"]),
    ("compare", ["--group-by", "foo"]),
    ("simulate", ["--frame-rate", "6"]),
    ("simulate", ["--frame-rate", "nan"]),
    ("simulate", ["--noise-sigma", "nan"]),
    ("simulate", ["--noise-sigma", "1e308"]),
    ("simulate", ["--seed", "-1"]),
    ("simulate", ["--seed", "1.5"]),
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


def test_class_table_of_bare_bands_counts_as_the_default(ideal_sim, tmp_path):
    """A class table whose entries leave out ``label`` and ``fhwa`` loads
    as the default table and gives the default run's outputs."""
    doc = json.loads(Path(reference_config_path()).read_text())
    doc["class_table"] = [{k: entry[k] for k in ("id", "lower", "upper")}
                          for entry in DEFAULT_CLASS_TABLE_DOC]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert load_intersection_config(config).class_table == DEFAULT_CLASS_TABLE
    argv = ["estimate", str(ideal_sim / "log_L1.jsonl"), str(ideal_sim / "log_L2.jsonl"),
            "--registry", str(ideal_sim / "registry.json")]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "default")]) == 0
    assert cli.main([*argv, "--config", str(config), "--out-dir", str(tmp_path / "bands")]) == 0
    for name in ("tmc.csv", "events.csv"):
        assert (tmp_path / "bands" / name).read_text() == (tmp_path / "default" / name).read_text()


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


def test_session_window_inside_the_schedule(ideal_sim, tmp_path, capsys):
    """The session flags select a window inside the schedule session and
    tabulate its events; a window reaching past it exits 2."""
    logs = [str(ideal_sim / f"log_{s}.jsonl") for s in ("L1", "L2")]
    argv = ["estimate", *logs, "--registry", str(ideal_sim / "registry.json")]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "full")]) == 0
    full = (tmp_path / "full" / "events.csv").read_text().splitlines()
    for flags, lo, hi in ((["--session-start", "100", "--session-end", "200"], 100.0, 200.0),
                          (["--session-end", "200"], 0.0, 200.0)):
        out = tmp_path / "_".join(flags)
        assert cli.main(argv + flags + ["--out-dir", str(out)]) == 0
        events = (out / "events.csv").read_text().splitlines()
        assert events == full[:1] + [e for e in full[1:] if lo <= float(e.split(",")[0]) < hi]
        assert 1 < len(events) < len(full)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["arguments"]["session"] == [lo, hi]
        assert manifest["counting"]["events"] == len(full) - 1
        assert manifest["warnings"]["events_outside_window"] == len(full) - len(events)
        assert load_tmc_csv(out / "tmc.csv").counts.sum() == len(events) - 1
    capsys.readouterr()
    assert cli.main(argv + ["--session-end", "900", "--out-dir", str(tmp_path / "wide")]) == 2
    assert "schedule session [0.0, 300.0)" in capsys.readouterr().err
    assert not (tmp_path / "wide").exists()


WINDOW_BINS = (50, 60, 100)


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    """Each bundled scenario's seed-7 logs, its registry and config flags,
    and the tmc.csv and events.csv of ``estimate`` on the whole session
    at each of :data:`WINDOW_BINS`."""
    runs = {}
    for sc in scenario_suite():
        out = tmp_path_factory.mktemp(sc.name)
        assert cli.main(["simulate", "--scenario", sc.name, "--seed", "7",
                         "--out-dir", str(out)]) == 0
        config = scenario_config_path(sc, out)
        logs = [(out / f"log_{s}.jsonl").read_bytes() for s in ("L1", "L2")]
        for b in WINDOW_BINS:
            flags = ["--config", config, "--bin-seconds", str(b)]
            code, tmc, events, _ = estimate_logs(logs, out / "registry.json", *flags)
            assert code == 0
            runs[sc.name, b] = (logs, out / "registry.json", flags, tmc, events)
    return runs


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_window_tabulates_the_full_runs_bins(full_runs, data):
    """A window [k*b, m*b) on the bin grid gives the full run's rows of
    bins k..m-1 and its events in the window; the rest are counted."""
    name = data.draw(st.sampled_from([sc.name for sc in scenario_suite()]))
    b = data.draw(st.sampled_from(WINDOW_BINS))
    k = data.draw(st.integers(0, 300 // b))
    m = data.draw(st.integers(k, 300 // b))
    logs, registry, flags, full_tmc, full_events = full_runs[name, b]
    code, tmc, events, manifest = estimate_logs(
        logs, registry, *flags, "--session-start", str(k * b), "--session-end", str(m * b))
    assert code == 0
    rows = full_tmc.splitlines()
    per_bin = (len(rows) - 1) // (300 // b)
    assert tmc.splitlines() == rows[:1] + rows[1 + k * per_bin:1 + m * per_bin]
    want = [e for e in full_events.splitlines()[1:] if k * b <= float(e.split(",")[0]) < m * b]
    assert events.splitlines()[1:] == want
    outside = manifest["warnings"].get("events_outside_window", 0)
    assert outside > 0 or "events_outside_window" not in manifest["warnings"]
    assert manifest["counting"]["events"] == len(want) + outside
    assert manifest["counting"]["events"] == len(full_events.splitlines()) - 1


@pytest.mark.parametrize("flags", [["--bin-seconds", "1e12"],
                                   ["--session-start", "5.125", "--session-end", "5.1250000001"]])
def test_non_empty_window_gets_one_bin(ideal_sim, tmp_path, flags):
    """However narrow a window is against its bins, it gets one bin, which
    counts each of its events."""
    argv = ["estimate", *(str(ideal_sim / f"log_{s}.jsonl") for s in ("L1", "L2")),
            "--registry", str(ideal_sim / "registry.json")]
    assert cli.main(argv + flags + ["--out-dir", str(tmp_path / "narrow")]) == 0
    bin_seconds = float(flags[1]) if flags[0] == "--bin-seconds" else 300.0
    narrow = load_tmc_csv(tmp_path / "narrow" / "tmc.csv", bin_seconds)
    assert narrow.counts.shape[0] == 1
    events = (tmp_path / "narrow" / "events.csv").read_text().splitlines()[1:]
    assert narrow.counts.sum() == len(events) > 0
    if flags[0] == "--bin-seconds":
        assert cli.main(argv + ["--out-dir", str(tmp_path / "default")]) == 0
        default = load_tmc_csv(tmp_path / "default" / "tmc.csv")
        assert narrow.counts[0].tolist() == default.counts.sum(axis=0).tolist()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_any_grid_exits_0_or_2_and_counts_every_event(full_runs, data):
    """Bins from 0.1 s to 1e15 s and windows inside the session, some
    narrower than 1e-9 bins and starting on an event: exit 0 or 2, never a
    traceback, and on exit 0 the table counts each event once. Windows
    span at most 3,000 bins, so each run stays small."""
    logs, registry, _, _, full_events = full_runs["ideal", WINDOW_BINS[0]]
    times = [float(e.split(",")[0]) for e in full_events.splitlines()[1:]]
    bin_seconds = 10 ** data.draw(st.floats(-1.0, 15.0))
    start = data.draw(st.one_of(st.floats(0.0, 300.0), st.sampled_from(times)))
    width = data.draw(st.one_of(st.floats(0.0, 3000.0), st.floats(0.0, 1e-9))) * bin_seconds
    window = ["--session-start", repr(start), "--session-end", repr(min(start + width, 300.0))]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code, tmc, events, _ = estimate_logs(logs, registry, "--bin-seconds",
                                             repr(bin_seconds), *window)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        counts = [int(v) for row in tmc.splitlines()[1:] for v in row.split(",")[3:]]
        assert sum(counts) == len(events.splitlines()) - 1


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
    ("L1," + "1" * 140_000 + ",2.0,3.0,34.05,-117.4,350.0", "34.05,-117.4,350.0"),
], ids=["nan sensor value", "lat 95", "two origin values", "non-numeric origin",
        "origin lat 100", "nan origin", "field past the csv limit"])
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
    # simulate covers the schedule session, so it refuses an unbounded one
    # at either end before it builds any detection.
    script = tmp_path / "script.json"
    script.write_text(json.dumps(SCRIPT_DOC))
    doc["schedule"][0]["start"] = -math.inf
    for end in (math.inf, 300.0):
        doc["schedule"][-1]["end"] = end
        config.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--script", str(script), "--config", str(config),
                         "--seed", "1", "--out-dir", str(tmp_path / "sim")]) == 2
        assert not (tmp_path / "sim").exists()


def test_unbounded_session_exits_2_before_the_parse(ideal_sim, tmp_path, capsys,
                                                    monkeypatch):
    doc = json.loads(Path(reference_config_path()).read_text())
    doc["schedule"][-1]["end"] = math.inf
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))

    def no_parse(*args, **kwargs):
        raise AssertionError("parse_logs called")

    monkeypatch.setattr(ingest, "parse_logs", no_parse)
    code = cli.main(["estimate", str(ideal_sim / "log_L1.jsonl"), "--config", str(config),
                     "--registry", str(ideal_sim / "registry.json"),
                     "--out-dir", str(tmp_path / "est")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: session [0.0, inf] must span at most 100000 bins of 300.0 s\n")


def test_oversized_table_exits_2_before_any_work(ideal_sim, tmp_path, capsys, monkeypatch):
    """estimate and simulate size the table with the config's class count
    before they parse or simulate."""
    def no_parse(*args, **kwargs):
        raise AssertionError("parse_logs called")

    monkeypatch.setattr(ingest, "parse_logs", no_parse)
    config = seven_class_config(tmp_path)
    estimate = ["estimate", str(ideal_sim / "log_L1.jsonl"), str(ideal_sim / "log_L2.jsonl"),
                "--config", str(config), "--registry", str(ideal_sim / "registry.json"),
                "--out-dir", str(tmp_path / "est")]
    assert cli.main(estimate + ["--bin-seconds", "0.0035"]) == 2
    assert capsys.readouterr().err == (
        "error: a table of 85715 bins of 7 classes is larger than 100000 bins of 6 classes\n")
    # A schedule of 90,000 bins of 300 s: within the bin bound, past the cell bound.
    doc = json.loads(config.read_text())
    doc["schedule"][-1]["end"] = 90_000 * 300.0
    config.write_text(json.dumps(doc))
    script = tmp_path / "script.json"
    script.write_text(json.dumps(SCRIPT_DOC))
    simulate = ["simulate", "--script", str(script), "--config", str(config), "--seed", "1",
                "--out-dir", str(tmp_path / "sim")]
    for argv in (estimate, simulate):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: a table of 90000 bins of 7 classes is larger than 100000 bins of 6 classes\n")
    assert not (tmp_path / "est").exists() and not (tmp_path / "sim").exists()


BAD_CONFIG_NODES = {
    "half_length NaN": (("zones", 0, "half_length"), math.nan),
    "half_width NaN": (("zones", 0, "half_width"), math.nan),
    "yaw Infinity": (("zones", 0, "yaw"), math.inf),
    "class id 1.5": (("class_table",), [{**DEFAULT_CLASS_TABLE_DOC[0], "id": 1.5},
                                        *DEFAULT_CLASS_TABLE_DOC[1:]]),
    "min_headway_other string": (("params",), {"min_headway_other": "x"}),
    "min_headway_other 0": (("params",), {"min_headway_other": 0.0}),
    "empty phase interval": (("schedule", 0, "end"), 0.0),
    "no zones": (("zones",), []),
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
# row already passes the limit. The other rows are bad in other ways.
@pytest.mark.parametrize("rows,bad_line", [(["0.0,NB,1,99999999999999999999999,0,0,0"], 2),
                                           (["0.0,NB,3,0,4611686018427387904,0,0"] * 4, 3),
                                           (["0.0,NB,3,1,0,0"], 2),
                                           (["0.0,NB,3,1,x,0,0"], 2),
                                           (["0.0,NB,0,1,0,0,0"], 2),
                                           (["0.0,NB,3,1,0,0,0", "0.0,NB,3," + "1" * 140_000], 3),
                                           *((["0.0,NB,3,1,0,0,0", f"{v},NB,3,1,0,0,0"], 3)
                                             for v in ("nan", "inf", "-inf", "1e400"))],
                         ids=["one count", "cell total", "field count", "non-numeric",
                              "class 0", "field past the csv limit", "bin_start nan",
                              "bin_start inf", "bin_start -inf", "bin_start 1e400"])
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
def test_mutated_script_exits_0_or_2(mutations):
    script = fill_script(np.random.default_rng(67), n=4)
    with tempfile.TemporaryDirectory() as tmp:
        code = mutated_doc_exit_code(script_to_obj(script), mutations, tmp, [
            "simulate", "--script", "{doc}", "--seed", "3"])
    assert code in (0, 2)


def config_doc():
    """The reference config with its optional params and class table
    written out, so that their numbers are there to mutate too."""
    doc = json.loads(Path(reference_config_path()).read_text())
    return {**doc, "params": asdict(CountingParams()),
            "class_table": DEFAULT_CLASS_TABLE_DOC}


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
    "params min_headway_other true": ("config", ("params", "min_headway_other"), True),
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
    with pytest.raises(UserInputError, match="expected a number, got "):
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


# JSON text that is not a document: (text, what the message names). An
# integer of more than 4,300 digits is refused by the decoder itself.
INVALID_JSON = [('{"vehicles": [', "Expecting value"),
                ('{"vehicles": [%s]}' % ("9" * 5000), "Exceeds the limit (4300 digits)")]


@pytest.mark.parametrize("kind", LOADERS)
def test_invalid_json_exits_2(ideal_sim, tmp_path, capsys, kind):
    _, argv = document_and_argv(kind, ideal_sim)
    doc = tmp_path / "doc.json"
    for text, reason in INVALID_JSON:
        doc.write_text(text)
        assert cli.main([str(doc) if a == "{doc}" else a for a in argv]
                        + ["--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind} is not valid JSON: ") and reason in err
        with pytest.raises(UserInputError, match=re.escape(reason)):
            LOADERS[kind](doc)


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
    with pytest.raises(UserInputError, match=f"^{kind} is nested too deeply: maximum recursion"):
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


def config_text(path, value):
    """The reference config as JSON text, with the node at ``path`` replaced."""
    doc = json.loads(Path(reference_config_path()).read_text())
    *head, key = path
    node_at(doc, head)[key] = value
    return json.dumps(doc)


def class_entry(i, **fields):
    """Entry ``i`` of the default class table document, with ``fields`` replaced."""
    return {**DEFAULT_CLASS_TABLE_DOC[i], **fields}


def class_table_text(i, **fields):
    """The reference config whose class table has entry ``i`` edited."""
    table = [class_entry(j, **fields) if j == i else entry
             for j, entry in enumerate(DEFAULT_CLASS_TABLE_DOC)]
    return config_text(("class_table",), table)


def script_text(**fields):
    return json.dumps({"vehicles": [{**SCRIPT_DOC["vehicles"][0], **fields}]})


FRAME_LINE = '{{"t": {}, "frame_id": "L1", "detections": []}}\n'
GCP_HEADER = "frame_id,sx,sy,sz,lat,lon,alt\n"
GCP_ROWS = ["L1,0,0,0,34.05,-117.4,350", "L1,1,0,0,34.0501,-117.4,350",
            "L1,2,0,0,34.0502,-117.4,350"]
ESTIMATE = ["estimate", "{sim}/log_L1.jsonl", "--registry", "{sim}/registry.json"]
GEOREF = ["georef", "{doc}", "--ned-origin", "34.05,-117.4,350.0"]
SIMULATE = ["simulate", "--script", "{doc}", "--seed", "3"]

# The exact stderr of user errors through main: (command, the text of the
# file "{doc}", stderr). An unregistered sensor, a --strict out-of-session
# detection (both in test_parse_logs) and tables of different class counts
# (TestCompare) are pinned where they are tested.
USER_ERRORS = {
    "out-of-order log": (
        ["estimate", "{doc}", "--registry", "{sim}/registry.json"],
        FRAME_LINE.format(10.0) + FRAME_LINE.format(5.0),
        "error: frame from sensor 'L1' at t=5.0 is more than 1.0s out of order\n"),
    "duplicate zone ids": (
        [*ESTIMATE, "--config", "{doc}"], config_text(("zones", 1, "id"), "NB_L"),
        "error: duplicate zone ids: ['NB_L']\n"),
    "params a list": (
        [*ESTIMATE, "--config", "{doc}"], config_text(("params",), [1]),
        "error: bad counting params: expected an object, got a list\n"),
    "string zone centre": (
        [*ESTIMATE, "--config", "{doc}"], config_text(("zones", 0, "center", 0), "-19.0"),
        "error: bad intersection config: expected a number, got '-19.0'\n"),
    # String fields are JSON strings, not coerced by str().
    "number zone id": (
        [*ESTIMATE, "--config", "{doc}"], config_text(("zones", 0, "id"), 5),
        "error: bad intersection config: zones[0].id must be a string, got 5\n"),
    "number class label": (
        [*ESTIMATE, "--config", "{doc}"], class_table_text(0, label=7),
        f"error: bad class table entry {class_entry(0, label=7)!r}: label must be a string, "
        "got 7\n"),
    "string fhwa list": (
        [*ESTIMATE, "--config", "{doc}"], class_table_text(1, fhwa="abc"),
        f"error: bad class table entry {class_entry(1, fhwa='abc')!r}: fhwa must be a list "
        "of strings, got 'abc'\n"),
    "number fhwa entry": (
        [*ESTIMATE, "--config", "{doc}"], class_table_text(1, fhwa=[1]),
        f"error: bad class table entry {class_entry(1, fhwa=[1])!r}: fhwa entry must be a "
        "string, got 1\n"),
    "number script zone_id": (
        SIMULATE, script_text(zone_id=5),
        "error: bad script document: vehicles[0].zone_id must be a string, got 5\n"),
    "collinear GCPs": (
        GEOREF, GCP_HEADER + "\n".join(GCP_ROWS) + "\n",
        "error: sensor-side GCPs are collinear within tolerance\n"),
    "two GCPs": (
        GEOREF, GCP_HEADER + "\n".join(GCP_ROWS[:2]) + "\n",
        "error: need at least 3 GCP pairs, got 2\n"),
    "script speed 99": (
        SIMULATE, script_text(speed=99), "error: speed 99.0 outside (0, 20.0]\n"),
    "off-class script length": (
        SIMULATE, script_text(length=12.0), "error: length 12.0 is not a class-3 length\n"),
    "non-positive script length": (
        SIMULATE, script_text(length=-1.0),
        "error: length must be positive and finite, got -1.0\n"),
    "repeated count-table row": (
        ["compare", "{doc}", "{doc}"],
        "bin_start,approach,class,left,thru,right,uturn\n0.0,NB,1,0,0,0,0\n0.0,NB,1,1,0,0,0\n",
        "error: line 3: bin 0.0, approach NB, class 1 repeats line 2\n"),
    "bin that ends where it starts": (
        ["compare", "{doc}", "{doc}"],
        "bin_start,approach,class,left,thru,right,uturn\n1e300,NB,1,1,0,0,0\n",
        "error: line 2: a 300.0 s bin at 1e+300 ends where it starts\n"),
    "off-grid bin_start": (
        ["compare", "{doc}", "{doc}"],
        "bin_start,approach,class,left,thru,right,uturn\n0.0,NB,3,1,0,0,0\n17.0,NB,3,1,0,0,0\n",
        "error: line 3: bin_start 17.0 is not on the 300.0s bin grid\n"),
    "bin stretched by float spacing": (
        ["compare", "{doc}", "{doc}", "--bin-seconds", "12"],
        "bin_start,approach,class,left,thru,right,uturn\n1e17,NB,1,1,0,0,0\n",
        "error: line 2: a 12.0 s bin at 1e+17 ends 16.0 s after it starts\n"),
    "tables of different sessions": (
        ["compare", str(GT_FIXTURE), "{doc}"],
        "bin_start,approach,class,left,thru,right,uturn\n0.0,NB,3,1,2,3,4\n",
        "error: estimate and ground truth have different bin duration or session\n"),
}


@pytest.mark.parametrize("argv,doc,stderr", USER_ERRORS.values(), ids=USER_ERRORS)
def test_user_error_message(ideal_sim, tmp_path, capsys, argv, doc, stderr):
    path = tmp_path / "doc"
    path.write_text(doc)
    capsys.readouterr()
    argv = [a.format(sim=ideal_sim, doc=path) for a in argv]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == stderr
