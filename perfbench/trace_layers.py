"""Traced in-process run of one generated workload.

Run by ``run.py --trace 1`` in a fresh interpreter:

    python3 perfbench/trace_layers.py --manifest M --inputs DIR --out DIR --result FILE

It imports the CLI, then calls each module's public functions in the
order ``cmd_estimate`` / ``cmd_compare`` / ``cmd_simulate`` use, with a
span around every call (name, start, end, parent span, invocation id and
the rise of peak RSS across the call). The spans stay in memory and are
written to ``--result`` at the end, with the per-layer metrics derived
from them. The same jobs then run untraced through ``cli.main`` in this
process, which gives ``cli.main_s``, the glue time outside the layer
spans, and the tracing overhead.

A layer that the workload never calls reports 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
from pathlib import Path

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.glue_s": "s",
    "intersection.load_config_s": "s",
    "geo.load_registry_s": "s",
    "ingest.parse_s": "s",
    "ingest.parse_dps": "det/s",
    "ingest.parse_rss_growth_mb": "MB",
    "ingest.lines_in": "count",
    "ingest.lines_skipped": "count",
    "ingest.frames_out": "count",
    "ingest.detections_out": "count",
    "ingest.merge_s": "s",
    "ingest.ned_s": "s",
    "ingest.ned_dps": "det/s",
    "ingest.ned_rss_growth_mb": "MB",
    "ingest.write_s": "s",
    "ingest.write_dps": "det/s",
    "counting.triggers_s": "s",
    "counting.triggers_out": "count",
    "counting.triggers_rss_growth_mb": "MB",
    "counting.trigger_frac": "frac",
    "counting.cluster_s": "s",
    "counting.events_out": "count",
    "counting.events_per_trigger": "frac",
    "counting.bin_s": "s",
    "report.render_s": "s",
    "report.compare_s": "s",
    "simgen.simulate_s": "s",
    "simgen.vehicles_in": "count",
    "trace.overhead_frac": "frac",
}

ROOT_SPANS = ("cli.estimate", "cli.compare", "cli.simulate")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans; one invocation id per CLI-equivalent call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.invocation: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "invocation": self.invocation, "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rss0 = _maxrss_mb()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["rss_growth_mb"] = _maxrss_mb() - rss0
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum((s["end"] - s["start"] for s in self.spans if s["name"] == name), 0.0)

    def rss_growth(self, name: str) -> float:
        return sum((s["rss_growth_mb"] for s in self.spans if s["name"] == name), 0.0)


def _counted(lines, counter: list[int]):
    for line in lines:
        counter[0] += 1
        yield line


def traced_estimate(tr: Tracer, job: dict, inputs: Path, out: Path, counts: dict):
    """cmd_estimate, call by call; returns the rendered count table and the
    number of skipped lines."""
    from lidartmc.counting import (cluster_triggers, count_rights_from_egress,
                                   estimate_tmc, events_to_csv, extract_triggers)
    from lidartmc.geo import atomic_write_text, load_registry
    from lidartmc.ingest import (frames_to_ned, merge_streams, open_detection_log,
                                 parse_detection_log)
    from lidartmc.intersection import load_intersection_config
    from lidartmc.report import render_tmc_csv

    with tr.span("cli.estimate"):
        with tr.span("intersection.load_config"):
            cfg = load_intersection_config(inputs / "config.json")
        with tr.span("geo.load_registry"):
            registry = load_registry(inputs / "registry.json")
        errors: list = []
        streams = []
        lines_in = [0]
        for name in job["logs"]:
            with tr.span("ingest.parse"):
                with open_detection_log(inputs / name) as fh:
                    streams.append(list(parse_detection_log(_counted(fh, lines_in),
                                                            error_sink=errors)))
        counts["ingest.lines_in"] += lines_in[0]
        counts["ingest.lines_skipped"] += len(errors)
        counts["ingest.frames_out"] += sum(len(s) for s in streams)
        counts["ingest.detections_out"] += sum(len(f.detections) for s in streams for f in s)
        with tr.span("ingest.merge"):
            merged = merge_streams(streams, reorder_window=1.0)
        with tr.span("ingest.ned"):
            ned = frames_to_ned(merged, registry)
        with tr.span("counting.triggers"):
            triggers = extract_triggers(ned, cfg)
        with tr.span("counting.cluster"):
            ingress = {z.id: triggers[z.id] for z in cfg.ingress_zones}
            surrogates = {z.id: triggers[z.id] for z in cfg.right_surrogate_zones}
            events = cluster_triggers(ingress, cfg, cfg.params)
            events += count_rights_from_egress(surrogates, cfg, cfg.params)
            events.sort(key=lambda ev: ev.t)
        counts["counting.triggers_out"] += sum(len(t) for t in triggers.values())
        counts["counting.events_out"] += len(events)
        with tr.span("counting.bin"):
            table = estimate_tmc(events, 300.0, cfg.schedule.session, cfg.class_table.n_classes)
        with tr.span("report.render"):
            tmc_text = render_tmc_csv(table)
            events_text = events_to_csv(events)
        atomic_write_text(out / "tmc.csv", tmc_text)
        atomic_write_text(out / "events.csv", events_text)
    return tmc_text, len(errors)


def traced_compare(tr: Tracer, inputs: Path, out: Path, expected: str) -> None:
    """cmd_compare of the estimate against the generator's table."""
    from lidartmc.geo import atomic_write_text
    from lidartmc.report import compare, load_tmc_csv, render_report

    with tr.span("cli.compare"):
        with tr.span("report.compare"):
            est = load_tmc_csv(out / "tmc.csv")
            gt = load_tmc_csv(inputs / expected)
            report = compare(est, gt, ("approach", "movement"))
            render_report(report, "text")
            csv_text = render_report(report, "csv")
        atomic_write_text(out / "report.csv", csv_text)


def traced_simulate(tr: Tracer, job: dict, inputs: Path, out: Path, counts: dict) -> str:
    """cmd_simulate, call by call; returns the rendered ground truth."""
    from lidartmc.geo import atomic_write_text, save_registry
    from lidartmc.ingest import write_detection_log
    from lidartmc.intersection import load_intersection_config
    from lidartmc.report import render_tmc_csv
    from lidartmc.simgen import SimConfig, load_script, script_to_obj, simulate

    with tr.span("cli.simulate"):
        with tr.span("simgen.load_script"):
            script = load_script(inputs / job["script"])
        with tr.span("intersection.load_config"):
            cfg = load_intersection_config(inputs / "config.json")
        sim = SimConfig(seed=job["sim_seed"])
        with tr.span("simgen.simulate"):
            session = simulate(script, cfg, sim)
        counts["simgen.vehicles_in"] += len(script)
        for fid, frames in session.frames_by_sensor.items():
            with tr.span("ingest.write"):
                buf = io.StringIO()
                write_detection_log(frames, buf)
            counts["ingest.write_det"] += sum(len(f.detections) for f in frames)
            atomic_write_text(out / f"log_{fid}.jsonl", buf.getvalue())
        with tr.span("report.render"):
            gt_text = render_tmc_csv(session.ground_truth)
        atomic_write_text(out / "gt.csv", gt_text)
        save_registry(session.registry, out / "registry.json")
        atomic_write_text(out / "script.json",
                          json.dumps(script_to_obj(session.script), indent=2) + "\n")
    return gt_text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    manifest = json.loads(args.manifest.read_text())
    inputs, out = args.inputs, args.out
    out.mkdir(parents=True, exist_ok=True)

    tr = Tracer()
    with tr.span("cli.import"):
        from lidartmc import cli
    import workload  # after the import span: it loads numpy too

    counts = dict.fromkeys(
        ("ingest.lines_in", "ingest.lines_skipped", "ingest.frames_out",
         "ingest.detections_out", "counting.triggers_out", "counting.events_out",
         "simgen.vehicles_in", "ingest.write_det"), 0)
    problems: list[str] = []
    abs_error = 0

    def check(what: str, table: str, expected: str, skipped: int, job: dict) -> None:
        nonlocal abs_error
        err = workload.table_abs_error(table, expected)
        abs_error += err
        if err or skipped != job.get("skipped_lines", 0):
            problems.append(f"{what}: count error {err}, skipped {skipped} lines")

    untraced = []  # (CLI argv, job or None when the output is not a count table)
    for n, job in enumerate(manifest["jobs"]):
        expected = (inputs / job["expected"]).read_text()
        if manifest["command"] == "estimate":
            tr.invocation = f"estimate#{n}"
            table, skipped = traced_estimate(tr, job, inputs, out, counts)
            check(tr.invocation, table, expected, skipped, job)
            tr.invocation = f"compare#{n}"
            traced_compare(tr, inputs, out, job["expected"])
            logs = [str(inputs / name) for name in job["logs"]]
            untraced.append((["estimate", *logs, "--config", str(inputs / "config.json"),
                              "--registry", str(inputs / "registry.json"),
                              "--out-dir", str(out)], job))
            untraced.append((["compare", str(out / "tmc.csv"), str(inputs / job["expected"]),
                              "--out-dir", str(out)], None))
        else:
            tr.invocation = f"simulate#{n}"
            table = traced_simulate(tr, job, inputs, out, counts)
            check(tr.invocation, table, expected, 0, job)
            untraced.append((["simulate", "--script", str(inputs / job["script"]),
                              "--config", str(inputs / "config.json"),
                              "--seed", str(job["sim_seed"]), "--out-dir", str(out)], job))
    tr.invocation = None

    main_s = 0.0
    for cli_argv, job in untraced:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(cli_argv)
        main_s += time.perf_counter() - t0
        if rc != 0:
            problems.append(f"cli.main {cli_argv[0]}: exit {rc}")
        elif job is not None:
            table_name = "tmc.csv" if cli_argv[0] == "estimate" else "gt.csv"
            doc = json.loads((out / "manifest.json").read_text())
            check(f"cli.main {cli_argv[0]}", (out / table_name).read_text(),
                  (inputs / job["expected"]).read_text(),
                  doc.get("warnings", {}).get("skipped_lines", 0), job)

    roots = {s["id"] for s in tr.spans if s["name"] in ROOT_SPANS}
    traced_s = sum(s["end"] - s["start"] for s in tr.spans if s["id"] in roots)
    layers_s = sum(s["end"] - s["start"] for s in tr.spans if s["parent"] in roots)
    det = counts["ingest.detections_out"]
    triggers = counts["counting.triggers_out"]
    parse_s, ned_s, write_s = tr.total("ingest.parse"), tr.total("ingest.ned"), tr.total("ingest.write")
    metrics = {
        "cli.import_s": tr.total("cli.import"),
        "cli.main_s": main_s,
        "cli.glue_s": main_s - layers_s,
        "intersection.load_config_s": tr.total("intersection.load_config"),
        "geo.load_registry_s": tr.total("geo.load_registry"),
        "ingest.parse_s": parse_s,
        "ingest.parse_dps": det / parse_s if parse_s else 0.0,
        "ingest.parse_rss_growth_mb": tr.rss_growth("ingest.parse"),
        "ingest.merge_s": tr.total("ingest.merge"),
        "ingest.ned_s": ned_s,
        "ingest.ned_dps": det / ned_s if ned_s else 0.0,
        "ingest.ned_rss_growth_mb": tr.rss_growth("ingest.ned"),
        "ingest.write_s": write_s,
        "ingest.write_dps": counts["ingest.write_det"] / write_s if write_s else 0.0,
        "counting.triggers_s": tr.total("counting.triggers"),
        "counting.trigger_frac": triggers / det if det else 0.0,
        "counting.triggers_rss_growth_mb": tr.rss_growth("counting.triggers"),
        "counting.cluster_s": tr.total("counting.cluster"),
        "counting.events_per_trigger": counts["counting.events_out"] / triggers if triggers else 0.0,
        "counting.bin_s": tr.total("counting.bin"),
        "report.render_s": tr.total("report.render"),
        "report.compare_s": tr.total("report.compare"),
        "simgen.simulate_s": tr.total("simgen.simulate"),
        "trace.overhead_frac": (traced_s - main_s) / main_s,
    }
    metrics.update({k: float(v) for k, v in counts.items() if k in PER_LAYER_UNITS})
    args.result.write_text(json.dumps({
        "attempted": 2 * len(untraced),
        "failed": len(problems),
        "count_abs_error": abs_error,
        "metrics": {k: metrics[k] for k in PER_LAYER_UNITS},
        "problems": problems,
        "spans": tr.spans,
    }) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
