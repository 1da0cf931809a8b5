"""What a CLI call pays before and after its work.

Each command imports only its own modules (``cli``'s import rule), and
``entrypoint`` freezes the import-time heap before running ``main``,
which itself never freezes.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lidartmc import cli

GT_FIXTURE = Path(__file__).parent / "data" / "gt_drone_reference.csv"

# The stdlib modules that only a log parse uses, and with orjson, the
# modules outside the package whose loading a command pays for.
PARSE_ONLY = {"logging", "gzip", "signal"}
WATCHED = {"orjson", *PARSE_ONLY}

# Runs one command through cli.main in a fresh interpreter, then prints
# its exit code, the package modules it loaded and which of WATCHED it
# loaded.
LOADED_MODULES = f"""
import json, sys
from lidartmc import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("lidartmc.") or m in {sorted(WATCHED)})]))
"""

ONE_VEHICLE = {"vehicles": [{"class": 3, "approach": "NB", "movement": "Thru",
                             "entry_time": 20.0, "speed": 10.0}]}

# Four non-coplanar sensor points and their surveyed positions near the
# reference origin; the fit need not be exact.
GCP_CSV = """frame_id,sx,sy,sz,lat,lon,alt
L1,0.0,0.0,0.0,34.05,-117.4,350.0
L1,10.0,0.0,0.0,34.05009,-117.4,350.0
L1,0.0,10.0,0.0,34.05,-117.39989,350.0
L1,0.0,0.0,5.0,34.05,-117.4,355.0
"""


def loaded_modules(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *map(str, argv)],
                          env=env, capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return {m.removeprefix("lidartmc.") for m in modules}


@pytest.fixture(scope="module")
def import_sets(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("startup")
    script, gcps = tmp / "script.json", tmp / "gcps.csv"
    script.write_text(json.dumps(ONE_VEHICLE))
    gcps.write_text(GCP_CSV)
    sim, est = tmp / "sim", tmp / "est"
    return {
        "simulate": loaded_modules("simulate", "--script", script, "--seed", 1,
                                   "--out-dir", sim),
        "estimate": loaded_modules("estimate", sim / "log_L1.jsonl", sim / "log_L2.jsonl",
                                   "--registry", sim / "registry.json", "--out-dir", est),
        "compare": loaded_modules("compare", est / "tmc.csv", sim / "gt.csv",
                                  "--out-dir", tmp / "cmp"),
        "georef": loaded_modules("georef", gcps, "--ned-origin", "34.05,-117.4,350.0",
                                 "--out-dir", tmp / "geo"),
    }


# command: (modules it must load, modules it must not load). ``simulate``
# writes its logs and script with orjson, but parses no log. No command
# loads ``_kernels``, which only the benchmark reads.
IMPORT_RULES = {
    "estimate": ({"ingest", "counting", "report", "orjson", *PARSE_ONLY},
                 {"simgen", "_kernels"}),
    "simulate": ({"simgen", "ingest", "report", "orjson"},
                 {"counting", "_kernels", *PARSE_ONLY}),
    "compare": ({"report"}, {"counting", "_kernels", "ingest", "simgen", "orjson"}),
    "georef": ({"geo"}, {"counting", "_kernels", "ingest", "report", "simgen", "orjson",
                         "intersection", "classify"}),
}


@pytest.mark.parametrize("command", IMPORT_RULES)
def test_command_loads_only_its_modules(import_sets, command):
    runs, skips = IMPORT_RULES[command]
    assert runs <= import_sets[command]
    assert not skips & import_sets[command]


def test_entrypoint_freezes_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or 3)
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == 3
    assert calls == ["freeze", "main"]


def test_main_does_not_freeze(tmp_path):
    before = gc.get_freeze_count()
    assert cli.main(["compare", str(GT_FIXTURE), str(GT_FIXTURE),
                     "--out-dir", str(tmp_path)]) == 0
    assert cli.main(["simulate", "--scenario", "ideal", "--seed", "1",
                     "--out-dir", str(tmp_path / "sim")]) == 0
    assert gc.get_freeze_count() == before
