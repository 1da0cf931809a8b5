import json
from pathlib import Path

import numpy as np

from conftest import random_rotation
from lidartmc import cli
from lidartmc.geo import GeodeticPoint, lla_to_ecef, load_registry
from lidartmc.report import load_tmc_csv
from lidartmc.simgen import SimConfig, random_script, script_to_obj
from lidartmc.reference import reference_config_path

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
    ecef = np.array([lla_to_ecef(g).as_array() for g in geos])
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
