"""What a CLI call pays before and after its work.

Each command imports only its own modules (``cli``'s import rule), and
``entrypoint`` turns the collector off before running ``main``, which
itself leaves the collector as it found it, and ends the process once
``main`` has returned and stdout and stderr are flushed.
"""

import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from lidartmc import cli

GT_FIXTURE = Path(__file__).parent / "data" / "gt_drone_reference.csv"

# The stdlib modules that only a log parse uses, and with orjson, logging
# (which no command loads) and traceback (which only an internal error
# loads), the modules outside the package whose loading a command pays for.
PARSE_ONLY = {"gzip", "signal"}
WATCHED = {"orjson", "logging", "traceback", *PARSE_ONLY}

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


def pythonpath_env():
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def loaded_modules(*argv):
    """The modules a command loads, and its stderr."""
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *map(str, argv)],
                          env=pythonpath_env(), capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return {m.removeprefix("lidartmc.") for m in modules}, proc.stderr


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(modules loaded, stderr) of one call of each command, and of an
    ``estimate`` whose first log has one bad line."""
    tmp = tmp_path_factory.mktemp("startup")
    script, gcps = tmp / "script.json", tmp / "gcps.csv"
    script.write_text(json.dumps(ONE_VEHICLE))
    gcps.write_text(GCP_CSV)
    sim, est = tmp / "sim", tmp / "est"
    out = {"simulate": loaded_modules("simulate", "--script", script, "--seed", 1,
                                      "--out-dir", sim),
           "simulate --scenario": loaded_modules("simulate", "--scenario", "ideal", "--seed",
                                                 1, "--out-dir", tmp / "scenario")}
    logs = [sim / "log_L1.jsonl", sim / "log_L2.jsonl"]
    bad = tmp / "bad_L1.jsonl"
    bad.write_bytes(logs[0].read_bytes() + b"not a frame\n")
    for name, first in (("estimate", logs[0]), ("estimate, a bad line", bad)):
        out[name] = loaded_modules("estimate", first, logs[1], "--registry",
                                   sim / "registry.json", "--out-dir", est)
    out["compare"] = loaded_modules("compare", est / "tmc.csv", sim / "gt.csv",
                                    "--out-dir", tmp / "cmp")
    out["georef"] = loaded_modules("georef", gcps, "--ned-origin", "34.05,-117.4,350.0",
                                   "--out-dir", tmp / "geo")
    return out


# command: (modules it must load, modules it must not load). ``simulate``
# (with ``--script`` unless named) writes its logs and script with
# orjson, but parses, counts and compares nothing; only ``--scenario``
# loads the bundled scenarios. A skipped line is printed, so no command
# loads ``logging``. No command loads ``_kernels``, which only the
# benchmark reads.
IMPORT_RULES = {
    "estimate": ({"ingest", "counting", "stream", "tables", "orjson", *PARSE_ONLY},
                 {"simgen", "report", "scenarios", "_kernels", "logging", "traceback"}),
    "estimate, a bad line": ({"ingest", "counting", "tables", "orjson", *PARSE_ONLY},
                             {"simgen", "report", "_kernels", "logging", "traceback"}),
    "simulate": ({"stream", "tables", "simgen", "orjson"},
                 {"ingest", "report", "counting", "scenarios", "_kernels", "logging",
                  "traceback", *PARSE_ONLY}),
    "simulate --scenario": ({"stream", "tables", "simgen", "scenarios"},
                            {"ingest", "report", "counting", "_kernels", "logging",
                             "traceback", *PARSE_ONLY}),
    "compare": ({"report"}, {"counting", "_kernels", "ingest", "simgen", "orjson",
                             "logging", "traceback"}),
    "georef": ({"geo"}, {"counting", "_kernels", "ingest", "report", "simgen", "orjson",
                         "intersection", "classify", "logging", "traceback"}),
}


@pytest.mark.parametrize("command", IMPORT_RULES)
def test_command_loads_only_its_modules(runs, command):
    loads, skips = IMPORT_RULES[command]
    assert loads <= runs[command][0]
    assert not skips & runs[command][0]


def test_a_bad_line_is_logged_after_the_parse(runs):
    assert runs["estimate"][1] == ""
    logged, summary = runs["estimate, a bad line"][1].splitlines()
    assert logged.startswith("skipping detection log line ")
    assert summary == "warning: skipped 1 malformed line(s)"


class Stream:
    """A stand-in for stdout or stderr that records its flushes."""

    def __init__(self, name, calls, error=None):
        self.name, self.calls, self.error = name, calls, error

    def flush(self):
        self.calls.append(f"flush {self.name}")
        if self.error is not None:
            raise self.error


def patch_exit_path(monkeypatch, stdout_error=None):
    # entrypoint sets the BLAS thread count in the environment: restore it.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    calls = []
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or 3)
    monkeypatch.setattr(sys, "stdout", Stream("stdout", calls, stdout_error))
    monkeypatch.setattr(sys, "stderr", Stream("stderr", calls))
    monkeypatch.setattr(os, "_exit", lambda code: calls.append(("_exit", code)))
    return calls


def test_entrypoint_disables_the_collector_before_main(monkeypatch):
    calls = patch_exit_path(monkeypatch)
    cli.entrypoint()
    assert calls == ["disable", "main", "flush stdout", "flush stderr", ("_exit", 3)]


def test_failed_flush_leaves_the_exit_to_the_interpreter(monkeypatch):
    calls = patch_exit_path(monkeypatch, BrokenPipeError(32, "Broken pipe"))
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == 3
    assert calls == ["disable", "main", "flush stdout"]


# entrypoint with main replaced by one that loads numpy and prints the
# number of threads of its process.
COUNT_THREADS = """
import os
from lidartmc import cli

def main():
    import numpy  # noqa: F401
    print(len(os.listdir("/proc/self/task")))
    return 0

cli.main = main
cli.entrypoint()
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="one usable CPU starts no BLAS threads")
def test_entrypoint_starts_no_blas_threads():
    env = pythonpath_env()
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    proc = subprocess.run([sys.executable, "-c", COUNT_THREADS], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "1\n"


def run_cli(*argv, stdout=subprocess.PIPE, buffered=True, program=("-m", "lidartmc.cli")):
    """``python -m lidartmc.cli`` in a fresh process, stdout block-buffered
    unless ``buffered`` is false."""
    env = pythonpath_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *program, *map(str, argv)], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


def test_console_exit_0_keeps_stdout(tmp_path, capsys):
    proc = run_cli("compare", GT_FIXTURE, GT_FIXTURE, "--out-dir", tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert cli.main(["compare", str(GT_FIXTURE), str(GT_FIXTURE),
                     "--out-dir", str(tmp_path / "here")]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.startswith("group ")


def test_console_user_error_exits_2(tmp_path):
    proc = run_cli("compare", tmp_path / "missing.csv", GT_FIXTURE, "--out-dir", tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


# The parent's exit path: main() and then the interpreter's own shutdown.
SYS_EXIT_MAIN = ("-c", "import sys; from lidartmc import cli; sys.exit(cli.main())")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_as_before(tmp_path, buffered):
    outcomes = []
    for program in (("-m", "lidartmc.cli"), SYS_EXIT_MAIN):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = run_cli("compare", GT_FIXTURE, GT_FIXTURE, "--out-dir", tmp_path,
                           stdout=w, buffered=buffered, program=program)
        finally:
            os.close(w)
        outcomes.append((proc.returncode, proc.stderr))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] != 0 and "Broken pipe" in outcomes[0][1]


def test_main_closes_every_file(tmp_path):
    """Each command closes what it opens before main returns: the process
    ends without teardown, which would lose an unclosed file's buffer."""
    gcps = tmp_path / "gcps.csv"
    gcps.write_text(GCP_CSV)
    sim = tmp_path / "sim"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert cli.main(["simulate", "--scenario", "ideal", "--seed", "7",
                         "--out-dir", str(sim)]) == 0
        assert cli.main(["estimate", str(sim / "log_L1.jsonl"), str(sim / "log_L2.jsonl"),
                         "--registry", str(sim / "registry.json"),
                         "--out-dir", str(tmp_path / "est")]) == 0
        assert cli.main(["compare", str(tmp_path / "est" / "tmc.csv"), str(sim / "gt.csv"),
                         "--out-dir", str(tmp_path / "cmp")]) == 0
        assert cli.main(["georef", str(gcps), "--ned-origin", "34.05,-117.4,350.0",
                         "--out-dir", str(tmp_path / "geo")]) == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_main_does_not_freeze(tmp_path):
    before = gc.get_freeze_count()
    assert cli.main(["compare", str(GT_FIXTURE), str(GT_FIXTURE),
                     "--out-dir", str(tmp_path)]) == 0
    assert cli.main(["simulate", "--scenario", "ideal", "--seed", "1",
                     "--out-dir", str(tmp_path / "sim")]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert cli.main(["simulate", "--scenario", "ideal", "--seed", "1",
                         "--out-dir", str(tmp_path)]) == 0
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_importing_the_cli_loads_no_numpy():
    # The whole import of a command then runs with the collector off.
    code = ("import sys; import lidartmc.cli; "
            "print(sorted(m for m in ('numpy', 'orjson') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=pythonpath_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
