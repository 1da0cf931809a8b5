"""The per-layer trace of the benchmark (``perfbench/trace_layers.py``)
calls each module's public functions in the order the CLI commands do. On
the ``ideal`` scenario, its simulate, estimate and compare write the bytes
that ``cli.main`` writes for the same inputs."""

import importlib.util
import shutil
from collections import Counter
from pathlib import Path

from lidartmc import cli
from lidartmc.cli import reference_config_path

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"
LOGS = ["log_L1.jsonl", "log_L2.jsonl"]


def load_trace_layers():
    spec = importlib.util.spec_from_file_location("trace_layers", TRACE_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def same_files(a: Path, b: Path, names) -> None:
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_traced_layers_write_what_the_cli_writes(tmp_path, capsys):
    trace = load_trace_layers()
    tracer, counts = trace.Tracer(), Counter()
    inputs, traced = tmp_path / "inputs", tmp_path / "traced"
    assert cli.main(["simulate", "--scenario", "ideal", "--seed", "11",
                     "--out-dir", str(inputs)]) == 0
    shutil.copy(reference_config_path(), inputs / "config.json")
    (traced / "sim").mkdir(parents=True)

    # simulate --script, as the benchmark's simulate jobs run it
    gt_text = trace.traced_simulate(tracer, {"script": "script.json", "sim_seed": 11},
                                    inputs, traced / "sim", counts)
    assert cli.main(["simulate", "--script", str(inputs / "script.json"),
                     "--config", str(inputs / "config.json"), "--seed", "11",
                     "--out-dir", str(tmp_path / "sim")]) == 0
    same_files(traced / "sim", tmp_path / "sim", ["gt.csv", *LOGS])
    same_files(traced / "sim", inputs, ["gt.csv", *LOGS])
    assert gt_text == (inputs / "gt.csv").read_text()

    tmc_text, skipped = trace.traced_estimate(tracer, {"logs": LOGS}, inputs, traced, counts)
    trace.traced_compare(tracer, inputs, traced, "gt.csv")
    assert cli.main(["estimate", *(str(inputs / name) for name in LOGS),
                     "--config", str(inputs / "config.json"),
                     "--registry", str(inputs / "registry.json"),
                     "--out-dir", str(tmp_path / "est")]) == 0
    assert cli.main(["compare", str(tmp_path / "est" / "tmc.csv"), str(inputs / "gt.csv"),
                     "--out-dir", str(tmp_path / "est")]) == 0
    same_files(traced, tmp_path / "est", ["tmc.csv", "events.csv", "report.csv"])
    assert (tmc_text, skipped) == ((inputs / "gt.csv").read_text(), 0)
    assert counts["counting.events_out"] > 0
    assert {s["name"] for s in tracer.spans} >= {
        "cli.simulate", "cli.estimate", "cli.compare", "counting.triggers", "counting.cluster"}
