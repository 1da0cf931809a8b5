"""Command-line pipeline: georef, estimate, compare, simulate.

Exit codes: 0 success, 1 internal error, 2 user/input error. Every
command writes a ``manifest.json`` next to its outputs with the inputs,
parameters, and seed needed to reproduce the run; apart from the
wall-clock field, reruns with identical inputs are byte-identical.
All files are written atomically (temp + rename) and closed before
``main`` returns; ``entrypoint`` then flushes stdout and stderr and ends
the process without the interpreter's teardown, unless a flush fails.

A run's session is its config's schedule session. ``simulate`` covers
it; ``estimate`` counts on it, and ``--session-start``/``--session-end``
only select the window inside it whose events are tabulated.

``estimate`` keeps no box past its parse chunk: each chunk is cut to its
trigger rows (``ingest.parse_logs``), the frame order of each log and
the registry are checked, and each zone's trigger columns of all logs
are merged and counted (``counting.count_session``).

Import rule: module level imports only what argument parsing and the
exit-code mapping need (``errors``, and ``reference`` for the default
``--config``), and nothing that loads numpy; ``traceback`` is imported
only on the exit-1 path. Each ``cmd_*`` and each
argparse type imports the package modules it runs inside its own body,
so one call compiles and runs only the code of its command: ``estimate``
never loads ``simgen`` or ``report``; ``simulate --script`` loads
``stream``, ``tables`` and ``simgen`` but not ``ingest``, ``report``,
``counting`` or ``scenarios`` (only ``--scenario`` loads that one); and
``compare`` never loads ``ingest`` or ``counting``.

The collector and BLAS: ``entrypoint`` turns the collector off and sets
``OPENBLAS_NUM_THREADS=1`` before ``main``, while numpy is not loaded,
so neither the command's imports, its run nor its forked parse children
make collector passes or start a BLAS thread pool. The only BLAS
products are 3x3 poses and ``simulate``'s (n, 3) @ (3, 3); the parse
maps to NED without BLAS (``ingest.ned_boxes``). Nothing is lost without
the collector: a run builds no cyclic garbage that it needs freed (chunk
data sits in arrays and lists that reference counting frees, and the
stored skipped-line errors, whose tracebacks are cycles, stay reachable
until the process ends). ``main`` touches neither setting, so in-process
callers keep theirs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import UserInputError
from .reference import reference_config_path


def _write_manifest(out_dir: Path, command: str, payload: dict) -> None:
    from .geo import atomic_write_text

    doc = {
        "tool": "lidartmc",
        "version": __version__,
        "command": command,
        **payload,
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
    }
    atomic_write_text(out_dir / "manifest.json", json.dumps(doc, indent=2) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_georef(args) -> int:
    from .geo import (
        FrameRegistry,
        estimate_transform_from_gcps,
        load_gcp_csv,
        load_registry,
        save_registry,
    )

    groups = load_gcp_csv(args.gcp_file)
    if args.frame_id is not None:
        if args.frame_id not in groups:
            raise UserInputError(
                f"no GCP rows for frame {args.frame_id!r} in {args.gcp_file}"
            )
        groups = {args.frame_id: groups[args.frame_id]}
    registry_path = Path(args.registry) if args.registry else _out_dir(args) / "registry.json"
    registry = load_registry(registry_path) if registry_path.exists() else None
    origin = args.ned_origin  # argparse allows at most one of the two flags
    if args.config is not None:
        from .intersection import load_intersection_config

        origin = load_intersection_config(args.config).ned_origin
    if registry is None:
        if origin is None:
            raise UserInputError(
                "creating a new registry needs --ned-origin lat,lon,alt or --config"
            )
        registry = FrameRegistry(origin)
    elif origin is not None and origin != registry.ned_origin:
        raise UserInputError(f"registry NED origin {registry.ned_origin} is not the "
                             f"given {origin}")
    rmses = {}
    for frame_id in sorted(groups):
        src, dst = groups[frame_id]
        transform, rmse = estimate_transform_from_gcps(src, dst)
        registry.register(frame_id, transform)
        rmses[frame_id] = rmse
        print(f"{frame_id}: {len(src)} GCPs, rmse {rmse:.6g} m")
    save_registry(registry, registry_path)
    _write_manifest(
        registry_path.parent,
        "georef",
        {
            "inputs": {"gcp_file": str(args.gcp_file)},
            "arguments": {"frame_id": args.frame_id},
            "outputs": [registry_path.name],
            "rmse_m": rmses,
        },
    )
    return 0


def cmd_estimate(args) -> int:
    from .counting import count_session, estimate_tmc, events_to_csv
    from .geo import atomic_write_text, load_registry
    from .ingest import check_order, parse_logs
    from .intersection import load_intersection_config, outside_session, outside_session_error
    from .tables import n_bins, save_tmc_csv

    cfg = load_intersection_config(args.config)
    registry = load_registry(args.registry)
    if registry.ned_origin != cfg.ned_origin:  # the zones lie in the config's NED frame
        raise UserInputError(f"registry NED origin {registry.ned_origin} is not the "
                             f"config's {cfg.ned_origin}")
    s0, s1 = cfg.schedule.session
    window = (
        s0 if args.session_start is None else args.session_start,
        s1 if args.session_end is None else args.session_end,
    )
    if not s0 <= window[0] <= window[1] <= s1:
        raise UserInputError(f"session window [{window[0]}, {window[1]}) must lie inside "
                             f"the schedule session [{s0}, {s1})")
    # A window or grid past the table bounds exits 2 before the parse.
    n_bins(args.bin_seconds, window, cfg.class_table.n_classes)
    if args.reorder_window < 0:
        raise UserInputError(f"--reorder-window must be >= 0, got {args.reorder_window}")
    errors: list = []
    # Each log comes back as its trigger columns and every frame time; its
    # zone rows outside the session come back as their times.
    logs = parse_logs(args.logs, registry, cfg, strict=args.strict, error_sink=errors)
    check_order(logs, args.reorder_window)
    # A log of an unregistered sensor fails after the order check.
    for fid in sorted({log.sensor for log in logs} - {None}):
        registry.transform_for(fid)
    outside = sum(len(log.dropped) for log in logs)
    if outside and args.strict:  # the earliest one, after the order and registry checks
        earliest = min(float(log.dropped.min()) for log in logs if len(log.dropped))
        raise outside_session_error(earliest, cfg.schedule.session)
    events, meta = count_session(logs, cfg)
    del logs
    events = events.take(~outside_session(events.t, window))
    table = estimate_tmc(events, args.bin_seconds, window, cfg.class_table.n_classes)
    warnings = {"skipped_lines": len(errors)}
    if outside:
        warnings["outside_session_detections"] = outside
    if meta["events"] > len(events):
        warnings["events_outside_window"] = meta["events"] - len(events)
    out = _out_dir(args)
    save_tmc_csv(table, out / "tmc.csv")
    atomic_write_text(out / "events.csv", events_to_csv(events))
    _write_manifest(
        out,
        "estimate",
        {
            "inputs": {"logs": [str(p) for p in args.logs], "config": str(args.config),
                       "registry": str(args.registry)},
            "arguments": {
                "bin_seconds": args.bin_seconds,
                "session": list(window),
                "reorder_window": args.reorder_window,
                "strict": args.strict,
                "params": asdict(cfg.params),
            },
            "outputs": ["tmc.csv", "events.csv"],
            "warnings": warnings,
            "counting": meta,
        },
    )
    if errors:
        print(f"warning: skipped {len(errors)} malformed line(s)", file=sys.stderr)
    if outside:
        print(f"warning: dropped {outside} zone-contained detection(s) outside the "
              "schedule session", file=sys.stderr)
    print(f"estimated {len(events)} movement events -> {out / 'tmc.csv'}")
    return 0


def cmd_compare(args) -> int:
    from .geo import atomic_write_text
    from .report import DIMS, compare, load_tmc_csv, render_report

    est = load_tmc_csv(args.estimated, args.bin_seconds)
    gt = load_tmc_csv(args.ground_truth, args.bin_seconds)
    group_by = tuple(s.strip() for s in args.group_by.split(",") if s.strip())
    unknown = [d for d in group_by if d not in DIMS]
    if unknown or not group_by:
        raise UserInputError(
            f"--group-by needs a comma list from {','.join(DIMS)}, got {args.group_by!r}"
        )
    report = compare(est, gt, group_by)
    print(render_report(report, "text"), end="")
    out = _out_dir(args)
    atomic_write_text(out / "report.csv", render_report(report, "csv"))
    _write_manifest(
        out,
        "compare",
        {
            "inputs": {
                "estimated": str(args.estimated),
                "ground_truth": str(args.ground_truth),
            },
            "arguments": {"group_by": list(group_by), "bin_seconds": args.bin_seconds},
            "outputs": ["report.csv"],
        },
    )
    return 0


def cmd_simulate(args) -> int:
    from .geo import atomic_text_writer, atomic_write_text, save_registry
    from .intersection import load_intersection_config
    from .simgen import SimConfig, load_script, script_json, simulate
    from .stream import write_detection_log
    from .tables import save_tmc_csv

    if (args.script is None) == (args.scenario is None):
        raise UserInputError("simulate needs exactly one of --script or --scenario")
    config = None
    if args.scenario is not None:
        if args.config is not None:
            raise UserInputError("--scenario brings its own config, so it takes no --config")
        from .scenarios import scenario_by_name

        sc = scenario_by_name(args.scenario)
        script, cfg, sim = sc.script, sc.cfg, sc.sim
    else:
        config = reference_config_path() if args.config is None else args.config
        script = load_script(args.script)
        cfg = load_intersection_config(config)
        sim = SimConfig(seed=args.seed)
    overrides = {"seed": args.seed}
    if args.frame_rate is not None:
        overrides["frame_rate_hz"] = args.frame_rate
    if args.dropout is not None:
        overrides["dropout"] = args.dropout
    if args.noise_sigma is not None:
        overrides["noise_sigma"] = args.noise_sigma
    sim = replace(sim, **overrides)
    session = simulate(script, cfg, sim)
    out = _out_dir(args)
    log_names = []
    for frame_id, frames in session.frames_by_sensor.items():
        name = f"log_{frame_id}.jsonl"
        with atomic_text_writer(out / name) as fh:
            write_detection_log(frames, fh)
        log_names.append(name)
    save_tmc_csv(session.ground_truth, out / "gt.csv")
    save_registry(session.registry, out / "registry.json")
    atomic_write_text(out / "script.json", script_json(session.script))
    _write_manifest(
        out,
        "simulate",
        {
            "inputs": {
                "script": str(args.script) if args.script else None,
                "scenario": args.scenario,
                "config": config,
            },
            "arguments": {
                "frame_rate_hz": sim.frame_rate_hz,
                "dropout": sim.dropout,
                "noise_sigma": sim.noise_sigma,
                "session": list(session.ground_truth.session),
                "bin_seconds": session.ground_truth.bin_seconds,
            },
            "seed": sim.seed,
            "outputs": sorted(log_names) + ["gt.csv", "registry.json", "script.json"],
        },
    )
    n_frames = sum(len(f) for f in session.frames_by_sensor.values())
    print(f"simulated {len(script)} vehicles, {n_frames} frames -> {out}")
    return 0


def _finite_float(text: str) -> float:
    """argparse type: a finite number, so a bad flag value exits 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _geodetic(text: str):
    """argparse type: ``lat,lon,alt``, three finite numbers that form a
    valid :class:`~lidartmc.geo.GeodeticPoint`."""
    from .geo import GeodeticPoint

    try:
        lat, lon, alt = map(_finite_float, text.split(","))
        return GeodeticPoint(lat, lon, alt)
    except ValueError as exc:  # not three values, or not a point
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(text: str) -> int:
    """argparse type: a non-negative integer, as the RNG requires."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidartmc",
        description="Turning movement counts from roadside LiDAR detection logs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("georef", help="estimate a sensor pose from GCP pairs")
    p.add_argument("gcp_file", help="CSV: frame_id,sx,sy,sz,lat,lon,alt")
    p.add_argument("--frame-id", help="only solve this sensor (default: all in file)")
    p.add_argument("--registry", help="registry JSON to create or update")
    origin = p.add_mutually_exclusive_group()
    origin.add_argument("--ned-origin", type=_geodetic, help="lat,lon,alt for a new registry")
    origin.add_argument("--config", help="intersection config supplying the NED origin")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_georef)

    p = sub.add_parser("estimate", help="estimate counts from detection logs")
    p.add_argument("logs", nargs="+", help="JSON-lines detection logs (.jsonl or .gz)")
    p.add_argument("--config", default=reference_config_path())
    p.add_argument("--registry", required=True, help="sensor pose registry JSON")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--strict", action="store_true", help="abort on malformed lines")
    p.add_argument("--bin-seconds", type=_positive_float, default=300.0)
    p.add_argument("--session-start", type=_finite_float)
    p.add_argument("--session-end", type=_finite_float)
    p.add_argument("--reorder-window", type=_finite_float, default=1.0)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("compare", help="compare an estimate against ground truth")
    p.add_argument("estimated")
    p.add_argument("ground_truth")
    p.add_argument("--group-by", default="approach,movement",
                   help="comma list from: time,approach,movement,class")
    p.add_argument("--bin-seconds", type=_positive_float, default=300.0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="generate synthetic logs + ground truth")
    p.add_argument("--script", help="script JSON")
    p.add_argument("--scenario", help="bundled scenario name")
    p.add_argument("--config", help="config for --script (default: the reference one)")
    p.add_argument("--seed", type=_seed, required=True,
                   help="explicit RNG seed (required for reproducibility)")
    p.add_argument("--frame-rate", type=_finite_float)
    p.add_argument("--dropout", type=_finite_float)
    p.add_argument("--noise-sigma", type=_finite_float)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    # A UnicodeDecodeError comes from reading a text input that is not UTF-8.
    except (UserInputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # internal error contract
        import traceback

        traceback.print_exc()
        return 1


def entrypoint() -> None:
    # No collector passes and no BLAS thread pool in a CLI process (why:
    # module docstring). main() touches neither and does not end the
    # process, because tests and the per-layer benchmark call it in-process.
    gc.disable()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a failed write, or a closed stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
