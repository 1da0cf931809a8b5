#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the lidartmc CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload queue --seed 1 --seconds 30 --trace 0

Each run generates its workload from ``--seed`` (``workload.py``, outside
every timer), then works as a closed loop with one client: the CLI runs
as a subprocess, one invocation after another, until ``--seconds`` have
passed. Every invocation is checked against the generator's tally.

``--trace 0`` reports the end-to-end metrics from these untraced runs,
with times scaled by ``calibrate.py`` runs in between (see README.md).
``--trace 1`` instead runs ``trace_layers.py`` in fresh processes for the
same time; it calls each module's public functions in the order the CLI
does, with a span around each call, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it name every metric with its unit, the digest of the generated inputs
and the machine and build facts; the same record, with the raw samples
and the spans, is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workload
from trace_layers import PER_LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPS = 7
# Timings are scaled to a machine on which calibrate.py takes this long.
# A calibration runs after each setup call and after every
# CALIBRATE_EVERY_S of timed CLI calls.
CALIBRATION_REF_S = 0.40
CALIBRATE_EVERY_S = 2.0
# Children still running this long after start are killed (and count as
# failed), so that a hung program cannot hold a run past its time limit.
RUN_DEADLINE_S = 150.0
_START = time.monotonic()

END_TO_END_UNITS = {
    "det_per_s": "det/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "count_accuracy": "frac",
    "ok_frac": "frac",
}


def fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def build_facts() -> dict:
    """Machine and build facts, so each number names the code path behind it."""
    sys.path.insert(0, str(SRC))
    from lidartmc import _kernels

    if not Path(_kernels.__file__).resolve().is_relative_to(SRC.resolve()):
        fail_setup(f"lidartmc resolved outside the checkout: {_kernels.__file__}")
    h = hashlib.sha256()
    for p in sorted((SRC / "lidartmc").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return {
        "commit": git_head(),
        "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
        "machine": platform.machine(),
    }


def git_head() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(argv: list[str], log: Path) -> tuple[int, float, float, str]:
    """Run ``argv`` from the checkout root, output to ``log``.

    Returns the exit code (negative when killed at the run deadline), the
    wall clock, the child's own peak RSS in MB (``os.wait4``) and the tail
    of its output.
    """
    with open(log, "w+b") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, _START + RUN_DEADLINE_S - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fh.seek(0)
        tail = fh.read()[-1000:].decode("utf-8", errors="replace").strip()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, tail


class Invocation:
    """One CLI subprocess: its wall clock, peak RSS and the result of its checks."""

    def __init__(self, argv: list[str], out: Path):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        self.returncode, self.wall, self.peak_rss_mb, tail = spawn(argv, out.with_suffix(".log"))
        self.problems: list[str] = []
        self.abs_error = 0
        self.expected_total = 0
        self.detections = 0
        if self.returncode != 0:
            self.problems.append(f"exit {self.returncode}: {tail[-500:]}")

    @property
    def ok(self) -> bool:
        return not self.problems

    def check_table(self, got: Path, expected: Path) -> None:
        try:
            got_text = got.read_text()
        except OSError as exc:
            self.problems.append(f"missing output: {exc}")
            return
        expected_text = expected.read_text()
        self.expected_total = sum(sum(r) for r in workload.read_table_csv(expected_text).values())
        try:
            self.abs_error = workload.table_abs_error(got_text, expected_text)
        except (ValueError, IndexError) as exc:
            self.problems.append(f"unreadable count table {got.name}: {exc}")
            self.abs_error = self.expected_total
            return
        if self.abs_error:
            self.problems.append(f"{got.name}: count error {self.abs_error}")


def estimate(inputs: Path, job: dict, out: Path) -> Invocation:
    argv = [sys.executable, "-m", "lidartmc.cli", "estimate",
            *(str(inputs / name) for name in job["logs"]),
            "--config", str(inputs / "config.json"),
            "--registry", str(inputs / "registry.json"), "--out-dir", str(out)]
    inv = Invocation(argv, out)
    if inv.returncode != 0:
        return inv
    inv.detections = job.get("detections", 0)
    inv.check_table(out / "tmc.csv", inputs / job["expected"])
    try:
        skipped = json.loads((out / "manifest.json").read_text())["warnings"]["skipped_lines"]
    except (OSError, KeyError, ValueError) as exc:
        inv.problems.append(f"manifest unreadable: {exc}")
    else:
        if skipped != job["skipped_lines"]:
            inv.problems.append(f"skipped_lines {skipped}, injected {job['skipped_lines']}")
    return inv


def simulate(inputs: Path, job: dict, out: Path) -> Invocation:
    argv = [sys.executable, "-m", "lidartmc.cli", "simulate",
            "--script", str(inputs / job["script"]),
            "--config", str(inputs / "config.json"),
            "--seed", str(job["sim_seed"]), "--out-dir", str(out)]
    inv = Invocation(argv, out)
    if inv.returncode != 0:
        return inv
    inv.check_table(out / "gt.csv", inputs / job["expected"])
    for fid, *_ in workload.SENSORS:
        try:
            with open(out / f"log_{fid}.jsonl", encoding="utf-8") as fh:
                for line in fh:
                    frame = json.loads(line)
                    if frame["frame_id"] != fid:
                        raise ValueError(f"frame_id {frame['frame_id']!r}")
                    inv.detections += len(frame["detections"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            inv.problems.append(f"log_{fid}.jsonl: {exc}")
    if not inv.detections:
        inv.problems.append("no detections written")
    return inv


def more_time(start: float, walls: list[float], seconds: float) -> bool:
    """Whether another call, as long as the median one so far, should end
    by about ``seconds`` after ``start``. There is always a first call."""
    return not walls or time.perf_counter() - start + 0.5 * statistics.median(walls) < seconds


def run_untraced(manifest: dict, inputs: Path, work: Path, seconds: float):
    """Setup runs on the near-empty input, then the timed closed loop, with
    calibration runs in between.

    Each call's time is scaled by the first calibration after it, so a
    slow or fast spell of the machine scales both alike.
    """
    call = estimate if manifest["command"] == "estimate" else simulate
    calibrations: list[float] = []

    def calibrate() -> float:
        rc, wall, _, tail = spawn([sys.executable, str(BENCH / "calibrate.py")],
                                  work / "calibrate.log")
        if rc != 0:
            fail_setup(f"calibration failed: {tail}")
        calibrations.append(wall)
        return wall

    setup: list[Invocation] = []
    setup_scaled: list[float] = []
    for _ in range(SETUP_REPS):
        setup.append(call(inputs, manifest["setup"], work / "out_setup"))
        setup_scaled.append(setup[-1].wall * CALIBRATION_REF_S / calibrate())
    timed: list[Invocation] = []
    pending: list[Invocation] = []
    rates: list[float] = []

    def scale_pending() -> None:
        speed = calibrate() / CALIBRATION_REF_S  # > 1 while slower than the reference
        rates.extend(inv.detections / inv.wall * speed for inv in pending if inv.ok)
        pending.clear()

    start = time.perf_counter()
    while more_time(start, [inv.wall for inv in timed], seconds):
        job = manifest["jobs"][len(timed) % len(manifest["jobs"])]
        timed.append(call(inputs, job, work / "out"))
        pending.append(timed[-1])
        if sum(inv.wall for inv in pending) >= CALIBRATE_EVERY_S:
            scale_pending()
    if pending:
        scale_pending()
    every = setup + timed
    failed = sum(not inv.ok for inv in every)
    expected = sum(inv.expected_total for inv in timed)
    abs_error = sum(inv.abs_error for inv in timed)
    raw_rates = [inv.detections / inv.wall for inv in timed if inv.ok]
    metrics = {
        "det_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": max(inv.peak_rss_mb for inv in timed),
        "setup_s": statistics.median(setup_scaled),
        "count_accuracy": 1.0 - abs_error / expected if expected else 0.0,
        "ok_frac": 1.0 - failed / len(every),
    }
    extra = {
        "count_abs_error": abs_error,
        "failed_frac": failed / len(every),
        "det_per_s_raw": statistics.median(raw_rates) if raw_rates else 0.0,
        "setup_s_raw": statistics.median(inv.wall for inv in setup),
        "calibration_s": statistics.median(calibrations),
        "samples": {
            "calibration_s": calibrations,
            "setup_wall_s": [inv.wall for inv in setup],
            "wall_s": [inv.wall for inv in timed],
            "peak_rss_mb": [inv.peak_rss_mb for inv in timed],
            "detections": [inv.detections for inv in timed],
        },
        "problems": [p for inv in every for p in inv.problems],
    }
    return len(every), failed, metrics, extra


def run_traced(manifest_path: Path, inputs: Path, work: Path, seconds: float):
    """Fresh traced processes until ``seconds`` have passed; medians per metric."""
    reps, walls = [], []
    start = time.perf_counter()
    while more_time(start, walls, seconds):
        result = work / f"trace_{len(reps)}.json"
        argv = [sys.executable, str(BENCH / "trace_layers.py"),
                "--manifest", str(manifest_path), "--inputs", str(inputs),
                "--out", str(work / "out"), "--result", str(result)]
        rc, wall, _, tail = spawn(argv, work / "trace.log")
        walls.append(wall)
        if rc == 0:
            reps.append(json.loads(result.read_text()))
        else:
            reps.append({"attempted": 1, "failed": 1, "metrics": {}, "spans": [],
                         "problems": [f"tracer exit {rc}: {tail[-500:]}"]})
    names = list(PER_LAYER_UNITS)
    metrics = {k: statistics.median(r["metrics"].get(k, 0.0) for r in reps) for k in names}
    extra = {
        "samples": {k: [r["metrics"].get(k) for r in reps] for k in names},
        "problems": [p for r in reps for p in r["problems"]],
        "spans": [r["spans"] for r in reps],
    }
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return attempted, failed, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    for needed in (SRC / "lidartmc" / "cli.py", ROOT / workload.REFERENCE_CONFIG):
        if not needed.is_file():
            fail_setup(f"{needed.relative_to(ROOT)} not found; run from a full checkout")
    facts = build_facts()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = STATE / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = work / "inputs"
    manifest_path = work / "manifest.json"
    # A child process generates, so this process stays small: every CLI
    # child inherits its peak RSS as a floor for its own.
    rc, _, _, tail = spawn([sys.executable, str(BENCH / "workload.py"), "--workload",
                            args.workload, "--seed", str(args.seed), "--out", str(inputs),
                            "--manifest", str(manifest_path)], work / "generate.log")
    if rc != 0:
        fail_setup(f"workload generation failed: {tail}")
    manifest = json.loads(manifest_path.read_text())

    if args.trace:
        attempted, failed, metrics, extra = run_traced(manifest_path, inputs, work, args.seconds)
        units = PER_LAYER_UNITS
    else:
        attempted, failed, metrics, extra = run_untraced(manifest, inputs, work, args.seconds)
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": manifest["digest"], "facts": facts,
        "attempted": attempted, "failed": failed, "metrics": metrics, **extra,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for problem in extra["problems"][:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} inputs sha256 {manifest['digest']}")
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, unit in (("count_abs_error", "count"), ("failed_frac", "frac"),
                       ("det_per_s_raw", "det/s"), ("setup_s_raw", "s"), ("calibration_s", "s")):
        if name in extra:
            print(f"{name} {extra[name]!r} {unit}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {units.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
