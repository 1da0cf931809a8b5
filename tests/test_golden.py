"""Output bytes pinned: the sha256 of every file ``simulate`` and
``estimate`` write for the bundled scenarios.

For each scenario, ``simulate --scenario <s> --seed 7`` writes the logs,
``gt.csv``, ``registry.json``, ``script.json`` and the manifest (pinned
with its ``wall_clock_utc`` line taken out), and ``estimate`` on those
logs, with the scenario's config, writes ``tmc.csv`` and ``events.csv``.
A dirty log pins the skipped-line reasons: ``estimate``'s stderr,
``tmc.csv``, ``events.csv`` and manifest on the ``ideal`` logs with a
line of every bad kind put into the first.

A speed or refactoring change must leave every digest as it is. A change
that alters output bytes on purpose updates the digests here and says
which files changed, and why, in ``CHANGES.md``.
"""

import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import scenario_config_path
from lidartmc import cli
from lidartmc.reference import reference_config_path
from lidartmc.scenarios import scenario_by_name, scenario_suite
from test_ingest import BAD_LINES, GOOD_DET, SPOOFED, bad_det, frame_line

SEED = 7

SIMULATE_DIGESTS = {
    "burst": {
        "gt.csv":
            "6b9a8e0d368d73cce59fcc78b763679f97bd2e22a1685760934a979ab50022fd",
        "log_L1.jsonl":
            "d432cb99f46e59f7f0e0779f255c813618c3da3dcad66038a6df13ddd50cf75e",
        "log_L2.jsonl":
            "cbc4a6fa33f9a733ae73ed5af4bd570f640eeb10b0b2c925029b06c0b1d507f9",
        "manifest.json":
            "e00b364803681b6dea63bed9b7987b6abd55db9f5f05fd52b9268f4911b80ee4",
        "registry.json":
            "fc26569ec7ea5742330b0aefb365fee5993ca027818210252de11ff88e1c35a1",
        "script.json":
            "abb80a666f35063f2dbd612634003737a74227528c976b85fda2143743dad114",
    },
    "dual_overlap": {
        "gt.csv":
            "ed82d2fb873d6654a33a6609445f0b9095074db32985e8d7cd60b5f57c5913a7",
        "log_L1.jsonl":
            "22bbade4d15b1189c0d08ec396189550b7025e41951d3ead0ff4610250a09e90",
        "log_L2.jsonl":
            "2c24bec76340d49a6b72bd269ed9aa58234c9637b8fee65ab70fce13ef870a2b",
        "manifest.json":
            "4da560605ffbd5ed6973db168fd166329054c413c788b39e923bebecf22ecdec",
        "registry.json":
            "fc26569ec7ea5742330b0aefb365fee5993ca027818210252de11ff88e1c35a1",
        "script.json":
            "27e180dbc63b782f10d5e358e0cba916066b0340607199bac3cb46270369ce0e",
    },
    "eb_wb_long_range": {
        "gt.csv":
            "cff2de80ade098a984af28fca32cee92f5dafb61b6c0f4d7d4491a83b9b18e3d",
        "log_L1.jsonl":
            "a69b740a867378a68655eeb2104d607194aa65f351e030a5e50845eaef0f1fb6",
        "log_L2.jsonl":
            "0569ad29f35251bb506bb60b528f07c7c72541bc125724f5209b9ead16e6223a",
        "manifest.json":
            "d1a9c5a64aefacfed0f994d37a9f21a96131ec97deb687e6a92167a38fddde27",
        "registry.json":
            "fc26569ec7ea5742330b0aefb365fee5993ca027818210252de11ff88e1c35a1",
        "script.json":
            "3e6acb0553d5849281edc1ccb12fa1ba8b9ec33e163b1f6ec9ed485bc796d297",
    },
    "ideal": {
        "gt.csv":
            "5b7c08036a14ff33662db3993bd857eba188a8d818ebf93aacaaa9d1c189816d",
        "log_L1.jsonl":
            "8c7c36f50f59263c659810269937cace76e496e2dbacbf47b3fcfb744f21ec81",
        "log_L2.jsonl":
            "c4890e9e236da4713f31c66b402a50f6dd306c3c25fddff4abf385f6fedb3da9",
        "manifest.json":
            "abb9d1eb9c32c8745f57deb30482a271d8710aedbc6501a523f2aa7daa6bbd5d",
        "registry.json":
            "fc26569ec7ea5742330b0aefb365fee5993ca027818210252de11ff88e1c35a1",
        "script.json":
            "93b515f08ff940f76989711071fd6c952a2b3c88a5a0c1921ac2863d7c00cd3b",
    },
    "slow_heavy": {
        "gt.csv":
            "b7535a33126d305a10a648c9f1dad8511186804b6f17a9771420aa58d53c5630",
        "log_L1.jsonl":
            "980706a487567bc688fad3ee8de19cafea659e2fed97c844420d7e3d8dcbb4e0",
        "log_L2.jsonl":
            "6f37a0653f5cdd964ba2f6f754dce590cf34d39a3aaf923751e61b530320e727",
        "manifest.json":
            "97e1ac1ede0bdb23c2d3edf79a696ed347d6d5ee5637a811110bdb59f8da7358",
        "registry.json":
            "fc26569ec7ea5742330b0aefb365fee5993ca027818210252de11ff88e1c35a1",
        "script.json":
            "f97ff72c5524d7891c219e02f1d1be3356b84ab86daea0dfb03ac34cc7a4fd97",
    },
}

ESTIMATE_DIGESTS = {
    "burst": {
        "events.csv":
            "352397d6e676578ea3fe0a4a0573a499cad11caecd65e49600bf362f9d0cb64c",
        "tmc.csv":
            "6b9a8e0d368d73cce59fcc78b763679f97bd2e22a1685760934a979ab50022fd",
    },
    "dual_overlap": {
        "events.csv":
            "40121ded7fe89786348f40bb69bc5f83eac8372e4495ad5d5e3fcf6373271c36",
        "tmc.csv":
            "ed82d2fb873d6654a33a6609445f0b9095074db32985e8d7cd60b5f57c5913a7",
    },
    "eb_wb_long_range": {
        "events.csv":
            "08ee8350ddeb0ac4455009b0b8ec1c23488de16dd507267465efc53a815c0e1c",
        "tmc.csv":
            "15204cea56585003d7527e758cdb33436576b785dbc7d33c1fd09acae38b10ee",
    },
    "ideal": {
        "events.csv":
            "30f76c3c7c6cf402026cb23aca46552e26840b4d543894d86b66a14b7e1b7f29",
        "tmc.csv":
            "5b7c08036a14ff33662db3993bd857eba188a8d818ebf93aacaaa9d1c189816d",
    },
    "slow_heavy": {
        "events.csv":
            "d0405514e78d13448bf5e56ac6e5a6864c842e6aa52990a460b1b66c5e666c4e",
        "tmc.csv":
            "b7535a33126d305a10a648c9f1dad8511186804b6f17a9771420aa58d53c5630",
    },
}

_WALL_CLOCK = re.compile(rb'\n  "wall_clock_utc": "[^"]*"')


def digest(path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = _WALL_CLOCK.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def run_scenario(tmp_path, name):
    """The digests of what ``simulate`` and then ``estimate`` write."""
    sim, est = tmp_path / "sim", tmp_path / "est"
    assert cli.main(["simulate", "--scenario", name, "--seed", str(SEED),
                     "--out-dir", str(sim)]) == 0
    config = scenario_config_path(scenario_by_name(name), tmp_path)
    logs = sorted(str(p) for p in sim.glob("log_*.jsonl"))
    assert cli.main(["estimate", *logs, "--config", config,
                     "--registry", str(sim / "registry.json"), "--out-dir", str(est)]) == 0
    return ({p.name: digest(p) for p in sorted(sim.iterdir())},
            {name: digest(est / name) for name in ("tmc.csv", "events.csv")})


@pytest.mark.parametrize("name", sorted(SIMULATE_DIGESTS))
def test_output_bytes_unchanged(tmp_path, name):
    simulated, estimated = run_scenario(tmp_path, name)
    assert simulated == SIMULATE_DIGESTS[name]
    assert estimated == ESTIMATE_DIGESTS[name]


def test_every_scenario_is_pinned():
    assert sorted(SIMULATE_DIGESTS) == sorted(ESTIMATE_DIGESTS) == sorted(
        sc.name for sc in scenario_suite())


# A line of every bad kind, each skipped: the kinds of the parse tests, an
# infinite heading, a detection that is not a box after a bad box, and a
# NaN score next to a null one.
DIRTY_LINES = [
    *(line for _, line, _ in BAD_LINES),
    *(line for line, _ in SPOOFED.values()),
    frame_line(1.0, bad_det(yaw=math.inf)),
    frame_line(1.0, GOOD_DET, bad_det(l=0.0), bad_det(x=None)),
    frame_line(1.0, GOOD_DET, bad_det(x="3.1"), [1.0], bad_det(w=-1.0)),
    frame_line(1.0, {**GOOD_DET, "score": None}, {**GOOD_DET, "score": math.nan}),
]

DIRTY_DIGESTS = {
    "stderr": "dc1c80147453c0fe354b4e34d50005e05889010f7fd572757a6924199ea5a464",
    "tmc.csv": "5b7c08036a14ff33662db3993bd857eba188a8d818ebf93aacaaa9d1c189816d",
    "events.csv": "30f76c3c7c6cf402026cb23aca46552e26840b4d543894d86b66a14b7e1b7f29",
    "manifest.json": "8867fc5445afd56dd9496396eca3e85cf758bdae3175a438431140ac3b8f19b0",
}


def test_dirty_log_outputs_unchanged(tmp_path):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--scenario", "ideal", "--seed", str(SEED),
                     "--out-dir", str(sim)]) == 0
    shutil.copy(reference_config_path(), tmp_path / "config.json")
    lines = (sim / "log_L1.jsonl").read_text().splitlines(keepends=True)
    # Never before line 2, so the log's sensor is adopted from a clean line.
    for i, line in enumerate(DIRTY_LINES):
        lines.insert(1 + 3 * i, line + "\n")
    (tmp_path / "dirty_L1.jsonl").write_text("".join(lines))
    # A fresh process with relative paths: stderr holds the skipped-line
    # warnings, and the manifest names no temporary directory.
    proc = subprocess.run(
        [sys.executable, "-m", "lidartmc.cli", "estimate", "dirty_L1.jsonl", "sim/log_L2.jsonl",
         "--config", "config.json", "--registry", "sim/registry.json", "--out-dir", "est"],
        cwd=tmp_path, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count(b"skipping detection log line") == len(DIRTY_LINES)
    got = {"stderr": hashlib.sha256(proc.stderr).hexdigest()}
    got.update({name: digest(tmp_path / "est" / name)
                for name in ("tmc.csv", "events.csv", "manifest.json")})
    assert got == DIRTY_DIGESTS, proc.stderr.decode()
