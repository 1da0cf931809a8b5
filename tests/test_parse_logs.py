"""``ingest.parse_logs``: forked parsing gives the results of a serial one,
and each log comes back as its trigger columns, the time of every frame
and the frame times of the zone rows outside the session.

Each input runs with one usable CPU (every log parsed in this process)
and with two (the second log parsed in a forked child); the frames, the
dropped times, the skipped lines, the logged warnings, the raised error
and the CLI's exit code, stderr and outputs must be equal, and no child
may be left.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lidartmc import cli, ingest
from lidartmc.counting import count_session, extract_triggers
from lidartmc.errors import MalformedLineError
from lidartmc.geo import FrameRegistry, RigidTransform, load_registry
from lidartmc.intersection import zone_hits
from lidartmc.reference import build_reference_config
from oracle import outside_session_times

CFG = build_reference_config()


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert cli.main(["simulate", "--scenario", "ideal", "--seed", "7",
                     "--out-dir", str(out)]) == 0
    return out


def parse(sim, logs, **kwargs):
    """``parse_logs`` with the scenario's registry and the reference config."""
    return ingest.parse_logs(logs, load_registry(sim / "registry.json"), CFG, **kwargs)


def columns(log):
    """Comparable form of a log's ``LogTriggers``."""
    return {name: getattr(value, "tolist", lambda: value)() for name, value in vars(log).items()}


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def time_limit(seconds):
    """Turn a hang into an error after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def with_bad_lines(src, dst, bad):
    """``src`` with the line ``bad[i]`` inserted before each line ``i``."""
    lines = src.read_text().splitlines(keepends=True)
    for i in sorted(bad, reverse=True):
        lines.insert(i, bad[i] + "\n")
    dst.write_text("".join(lines))
    return dst


def out_of_order(src, dst):
    lines = src.read_text().splitlines(keepends=True)
    lines[1], lines[-2] = lines[-2], lines[1]
    dst.write_text("".join(lines))
    return dst


def renamed(src, dst, sensor):
    """``src`` with its sensor renamed to one the registry lacks."""
    dst.write_text(src.read_text().replace('"frame_id": "L2"', f'"frame_id": "{sensor}"'))
    return dst


def late_far_frame(src, dst):
    """``src`` plus, at its end, a frame at its first time whose one box
    lies far outside every zone: out of order, with no zone row."""
    lines = src.read_text().splitlines(keepends=True)
    first = json.loads(lines[0])
    box = {"x": 900.0, "y": 900.0, "z": 0.5, "l": 4.5, "w": 1.9, "h": 1.5, "yaw": 0.0}
    lines.append(json.dumps({"t": first["t"], "frame_id": first["frame_id"],
                             "detections": [box]}) + "\n")
    dst.write_text("".join(lines))
    return dst


def shifted_copy(src, dst, shift):
    """``src`` with its frames copied ``shift`` seconds away, far outside
    the session: the copy goes before the frames when ``shift`` is
    negative and after them otherwise, so the log stays in order."""
    lines = src.read_text().splitlines()
    copy = [json.dumps({**json.loads(line), "t": json.loads(line)["t"] + shift})
            for line in lines]
    dst.write_text("\n".join(copy + lines if shift < 0 else lines + copy) + "\n")
    return dst


def outcome(monkeypatch, caplog, capsys, tmp_path, cpus, logs, registry, strict):
    """Everything a parse and an estimate run show of ``logs``, and the
    number of processes they forked."""
    use_cpus(monkeypatch, cpus)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    caplog.clear()
    sink = []
    try:
        parsed = [columns(log) for log in ingest.parse_logs(
            logs, load_registry(registry), CFG, strict=strict, error_sink=sink)]
    except Exception as exc:
        parsed = (type(exc), str(exc), getattr(exc, "line_no", None))
    skipped = [(type(e), e.line_no, e.reason) for e in sink]
    parse_warnings = list(caplog.messages)
    assert_no_children()

    caplog.clear()
    out = tmp_path / "est"
    code = cli.main(["estimate", *map(str, logs), "--registry", str(registry),
                     "--out-dir", str(out)] + ["--strict"] * strict)
    std = capsys.readouterr()
    files = {}
    if out.exists():
        for f in sorted(out.iterdir()):
            files[f.name] = f.read_text()
            f.unlink()
        manifest = json.loads(files.pop("manifest.json"))
        del manifest["wall_clock_utc"]
        files["manifest"] = manifest
    assert_no_children()
    return {"parsed": parsed, "skipped": skipped, "parse_warnings": parse_warnings,
            "code": code, "stdout": std.out, "stderr": std.err,
            "cli_warnings": list(caplog.messages), "files": files}, len(forks)


BAD = {
    "first": {3: "{broken json", 40: '{"t": 1.0, "frame_id": "L1"}'},
    "second": {5: '{"t": "x", "frame_id": "L2", "detections": []}',
               90: '{"t": 2.0, "frame_id": "L9", "detections": []}'},
}


def case_logs(sim, tmp_path, name):
    l1, l2 = sim / "log_L1.jsonl", sim / "log_L2.jsonl"
    bad1 = with_bad_lines(l1, tmp_path / "bad_L1.jsonl", BAD["first"])
    bad2 = with_bad_lines(l2, tmp_path / "bad_L2.jsonl", BAD["second"])
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    return {
        "bad lines in both logs": ([bad1, bad2], False),
        "strict, bad lines in both logs": ([bad1, bad2], True),
        "strict, bad lines in the second log only": ([l1, bad2], True),
        "missing first log": ([tmp_path / "missing.jsonl", l2], False),
        "missing second log": ([bad1, tmp_path / "missing.jsonl"], False),
        "directory as second log": ([bad1, tmp_path], False),
        "out-of-order second log": ([bad1, out_of_order(l2, tmp_path / "ooo.jsonl")], False),
        "empty second log": ([bad1, empty], False),
        "three logs on two CPUs": ([bad1, bad2, l1], False),
        "three logs on two CPUs, strict": ([l1, l2, bad1], True),
        "out-of-order frame outside every zone":
            ([bad1, late_far_frame(l2, tmp_path / "far.jsonl")], False),
        "unregistered second log": ([bad1, renamed(l2, tmp_path / "L7.jsonl", "L7")], False),
        "strict, unregistered second log, bad lines in the first":
            ([bad1, renamed(l2, tmp_path / "L7.jsonl", "L7")], True),
        "strict, unregistered first log, bad lines in the second":
            ([renamed(l2, tmp_path / "L7.jsonl", "L7"), bad2], True),
        "zone detections after the session in the second log":
            ([bad1, shifted_copy(l2, tmp_path / "late.jsonl", 1e4)], False),
        "strict, zone detections after the session in the second log":
            ([l1, shifted_copy(l2, tmp_path / "late.jsonl", 1e4)], True),
    }[name]


CASES = [
    "bad lines in both logs",
    "strict, bad lines in both logs",
    "strict, bad lines in the second log only",
    "missing first log",
    "missing second log",
    "directory as second log",
    "out-of-order second log",
    "empty second log",
    "three logs on two CPUs",
    "three logs on two CPUs, strict",
    "out-of-order frame outside every zone",
    "unregistered second log",
    "strict, unregistered second log, bad lines in the first",
    "strict, unregistered first log, bad lines in the second",
    "zone detections after the session in the second log",
    "strict, zone detections after the session in the second log",
]


@pytest.mark.parametrize("name", CASES)
def test_forked_parse_equals_serial(monkeypatch, caplog, capsys, tmp_path, sim, name):
    logs, strict = case_logs(sim, tmp_path, name)
    (serial, no_forks), (forked, forks) = (
        outcome(monkeypatch, caplog, capsys, tmp_path, cpus, logs, sim / "registry.json",
                strict)
        for cpus in (1, 2))
    assert forked == serial
    assert (no_forks, forks) == (0, 2)  # one for the parse, one for the estimate
    # Each case must show what it is named for.
    if name == "out-of-order frame outside every zone":
        assert serial["code"] == 2 and "out of order" in serial["stderr"]
        frame_t = serial["parsed"][1]["frame_t"]
        assert frame_t[-1] == frame_t[0] and len(frame_t) == len(logs[1].read_text().splitlines())
    elif name == "unregistered second log":
        assert serial["code"] == 2
        assert "error: sensor frame 'L7' is not registered" in serial["stderr"]
    elif "after the session" in name:
        if strict:
            assert serial["code"] == 2 and "outside schedule session" in serial["stderr"]
        else:
            assert serial["code"] == 0
            assert serial["files"]["manifest"]["warnings"]["outside_session_detections"] > 0
    elif "missing" in name or "directory" in name or "order" in name:
        assert serial["code"] == 2
    elif strict:
        assert serial["code"] == 2 and serial["parsed"][0] is MalformedLineError
    else:
        assert serial["code"] == 0 and serial["skipped"] and serial["cli_warnings"]


# ``estimate`` in a fresh interpreter, where the skipped-line warnings
# reach stderr through logging's default handler, with N usable CPUs.
FRESH_ESTIMATE = """\
import os, sys
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
from lidartmc import cli
sys.exit(cli.main(["estimate", *sys.argv[2:]]))
"""


def test_fresh_process_stderr_equals_serial(sim, tmp_path):
    bad1 = with_bad_lines(sim / "log_L1.jsonl", tmp_path / "bad_L1.jsonl", BAD["first"])
    bad2 = with_bad_lines(sim / "log_L2.jsonl", tmp_path / "bad_L2.jsonl", BAD["second"])
    env = {**os.environ, "PYTHONPATH": str(Path(ingest.__file__).parents[1])}
    runs = [subprocess.run(
        [sys.executable, "-c", FRESH_ESTIMATE, str(cpus), str(bad1), str(bad2),
         "--registry", str(sim / "registry.json"), "--out-dir", str(tmp_path / "est")],
        env=env, capture_output=True, text=True) for cpus in (1, 2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[1].stderr == runs[0].stderr
    assert runs[0].stderr.count("skipping detection log line") == 4


def test_strict_raises_the_first_failing_log(monkeypatch, sim, tmp_path):
    use_cpus(monkeypatch, 2)
    bad1 = with_bad_lines(sim / "log_L1.jsonl", tmp_path / "a.jsonl", {50: "{"})
    bad2 = with_bad_lines(sim / "log_L2.jsonl", tmp_path / "b.jsonl", {2: "{"})
    with pytest.raises(MalformedLineError) as info:
        parse(sim, [bad1, bad2], strict=True)
    assert info.value.line_no == 51
    with pytest.raises(MalformedLineError) as info:
        parse(sim, [sim / "log_L1.jsonl", bad2, bad1], strict=True)
    assert info.value.line_no == 3
    assert_no_children()


def test_one_log_or_one_cpu_never_forks(monkeypatch, sim):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    logs = [sim / "log_L1.jsonl", sim / "log_L2.jsonl"]
    use_cpus(monkeypatch, 2)
    assert len(parse(sim, logs[:1])) == 1
    use_cpus(monkeypatch, 1)
    assert len(parse(sim, logs)) == 2


def test_failed_fork_parses_here(monkeypatch, sim):
    logs = [sim / "log_L1.jsonl", sim / "log_L2.jsonl"]
    use_cpus(monkeypatch, 1)
    serial = [columns(log) for log in parse(sim, logs)]

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    use_cpus(monkeypatch, 2)
    assert [columns(log) for log in parse(sim, logs)] == serial


def test_dead_child_is_an_internal_error(monkeypatch, capsys, sim, tmp_path):
    parent = os.getpid()
    parse_path = ingest._parse_path

    def dies_in_child(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return parse_path(*args, **kwargs)

    monkeypatch.setattr(ingest, "_parse_path", dies_in_child)
    use_cpus(monkeypatch, 2)
    second = sim / "log_L2.jsonl"
    with time_limit(20):
        code = cli.main(["estimate", str(sim / "log_L1.jsonl"), str(second),
                         "--registry", str(sim / "registry.json"),
                         "--out-dir", str(tmp_path / "est")])
    assert code == 1
    assert f"the process parsing {second} ended without a result" in capsys.readouterr().err
    assert_no_children()


def zone_columns(log, cfg):
    """A log's trigger columns, zone by zone: (t, length) of each zone id."""
    return {z.id: (log.t[log.zone == i].tolist(), log.length[log.zone == i].tolist())
            for i, z in enumerate(cfg.zones)}


def series_columns(series):
    """(t, length) of each zone's rows of ``extract_triggers``."""
    return {zone_id: (s.t.tolist(), s.length.tolist()) for zone_id, s in series.items()}


def ned_of(path, registry):
    """The log at ``path`` parsed whole and mapped to NED."""
    with ingest.open_detection_log(path) as fh:
        frames = ingest.parse_detection_log(fh)
    return ingest.frames_to_ned(ingest.MergedStream.from_frames(frames), registry)


@pytest.mark.parametrize("chunk_rows", [7, ingest.CHUNK_ROWS, 8192])
def test_rows_are_the_zone_contained_ones(monkeypatch, sim, tmp_path, chunk_rows):
    """Each log's triggers are those of its in-session zone rows, and its
    dropped times those of its other zone rows, whatever the chunking."""
    logs = [with_bad_lines(sim / "log_L1.jsonl", tmp_path / "bad_L1.jsonl", BAD["first"]),
            shifted_copy(sim / "log_L2.jsonl", tmp_path / "late.jsonl", 1e4)]
    registry = load_registry(sim / "registry.json")
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk_rows)
    parsed = parse(sim, logs)
    s0, s1 = CFG.schedule.session
    want_dropped = []
    for log, path in zip(parsed, logs):
        ned = ned_of(path, registry)
        inside = zone_hits(ned.boxes[:, ingest.X], ned.boxes[:, ingest.Y], CFG.zones).any(axis=1)
        row_t = np.repeat(ned.t, np.diff(ned.offsets))
        outside = (row_t < s0) | (row_t >= s1)
        want_dropped += row_t[inside & outside].tolist()
        keep = inside & ~outside
        off = ned.offsets
        kept = ingest.MergedStream.from_frames(
            [ingest.Frame(f.frame_id, f.t, f.detections[keep[off[i]:off[i + 1]]])
             for i, f in enumerate(ned.frames)], ingest.FRAME_NED)
        assert zone_columns(log, CFG) == series_columns(extract_triggers(kept, CFG))
        assert log.frame_t.tolist() == ned.t.tolist()
        assert 0 < len(log.zone) < len(ned.boxes)
    assert want_dropped
    assert [t for log in parsed for t in log.dropped.tolist()] == want_dropped
    assert want_dropped == outside_session_times(logs[1:], CFG, registry)


# The reference config plus a zone around NB_T1 with its binding: a row in
# NB_T1 is in both.
NB_T1 = CFG.zone_by_id("NB_T1")
OVERLAP_CFG = replace(CFG, zones=CFG.zones + (replace(
    NB_T1, id="NB_T1_WIDE", half_length=NB_T1.half_length + 1.0,
    half_width=NB_T1.half_width + 1.0),))


@pytest.mark.parametrize("chunk_rows", [1, 7, 2048, 8192])
def test_a_row_in_two_zones_gives_two_triggers(monkeypatch, sim, chunk_rows):
    """Overlapping zones: each log's trigger columns and frame times are
    those of ``extract_triggers`` on the whole log in NED, whatever the
    chunking, and every trigger of NB_T1 is one of NB_T1_WIDE too."""
    logs = [sim / "log_L1.jsonl", sim / "log_L2.jsonl"]
    registry = load_registry(sim / "registry.json")
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk_rows)
    parsed = ingest.parse_logs(logs, registry, OVERLAP_CFG)
    for log, path in zip(parsed, logs):
        ned = ned_of(path, registry)
        got = zone_columns(log, OVERLAP_CFG)
        assert got == series_columns(extract_triggers(ned, OVERLAP_CFG))
        assert log.frame_t.tolist() == ned.t.tolist()
        assert log.dropped.tolist() == []
        pairs = {zone_id: list(zip(*columns)) for zone_id, columns in got.items()}
        assert pairs["NB_T1"] and set(pairs["NB_T1"]) <= set(pairs["NB_T1_WIDE"])
        assert len(pairs["NB_T1_WIDE"]) > len(pairs["NB_T1"])


def test_chunk_size_does_not_change_estimate(monkeypatch, caplog, capsys, tmp_path):
    """Dual coverage, bad lines and zone detections after the session: the
    outputs do not depend on where chunks end, down to one box a chunk."""
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--scenario", "dual_overlap", "--seed", "7",
                     "--out-dir", str(sim)]) == 0
    capsys.readouterr()
    logs = [with_bad_lines(sim / "log_L1.jsonl", tmp_path / "bad_L1.jsonl", BAD["first"]),
            with_bad_lines(shifted_copy(sim / "log_L2.jsonl", tmp_path / "late.jsonl", 1e4),
                           tmp_path / "bad_L2.jsonl", BAD["second"])]
    runs = []
    for chunk_rows in (1, 7, ingest.CHUNK_ROWS):
        monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk_rows)
        runs.append(outcome(monkeypatch, caplog, capsys, tmp_path, 2, logs,
                            sim / "registry.json", False))
    assert runs[0] == runs[1] == runs[2]
    manifest = runs[0][0]["files"]["manifest"]
    assert manifest["warnings"]["skipped_lines"] == 4
    assert manifest["warnings"]["outside_session_detections"] > 0
    assert manifest["counting"]["events"] == 5


def test_estimate_builds_no_frame_and_merges_no_boxes(monkeypatch, tmp_path, sim):
    def fail(what):
        def raises(*args, **kwargs):
            raise AssertionError(what)
        return raises

    monkeypatch.setattr(ingest, "Frame", fail("a Frame was built"))
    monkeypatch.setattr(ingest, "merge_streams", fail("the boxes were merged"))
    use_cpus(monkeypatch, 2)
    logs = [sim / "log_L1.jsonl", sim / "log_L2.jsonl"]
    assert cli.main(["estimate", *map(str, logs), "--registry", str(sim / "registry.json"),
                     "--out-dir", str(tmp_path / "est")]) == 0


def ned_log(tmp_path, frames, sensor="L1", registry=None):
    """A log of ``sensor`` whose frames are (t, [(north, east, length), ...])
    and a registry (``registry``, or a new one) whose pose for ``sensor``
    is the NED frame itself."""
    registry = registry or FrameRegistry(CFG.ned_origin)
    registry.register(sensor, RigidTransform(registry.ned_rotation().rotation.T,
                                             registry.origin_ecef()))
    log = tmp_path / f"ned_{sensor}.jsonl"
    log.write_text("".join(
        json.dumps({"t": t, "frame_id": sensor, "detections": [
            {"x": n, "y": e, "z": 0.5, "l": length, "w": 1.9, "h": 1.5, "yaw": 0.0}
            for n, e, length in boxes]}) + "\n"
        for t, boxes in frames))
    return log, registry


def test_drops_only_contained_detections_outside_the_session(tmp_path):
    nb_t1, eb_r = (-19.0, 5.25), (-8.75, -19.0)
    log, registry = ned_log(tmp_path, [
        (20.0, [(*nb_t1, 4.5)]),
        (300.0, [(*nb_t1, 6.0)]),  # the session is [0, 300)
        (500.0, [(*eb_r, 4.5), (*nb_t1, 7.0), (900.0, 900.0, 4.5)]),
        (501.0, []),
    ])
    [parsed] = ingest.parse_logs([log], registry, CFG)
    assert parsed.dropped.tolist() == [300.0, 500.0, 500.0]
    assert parsed.frame_t.tolist() == [20.0, 300.0, 500.0, 501.0]
    assert (parsed.zone.tolist(), parsed.t.tolist(), parsed.length.tolist()) == (
        [CFG.zones.index(CFG.zone_by_id("NB_T1"))], [20.0], [4.5])


def test_nothing_is_dropped_inside_the_session(tmp_path):
    log, registry = ned_log(tmp_path, [(20.0, [(-19.0, 5.25, 4.5)]), (500.0, [])])
    [parsed] = ingest.parse_logs([log], registry, CFG)
    assert parsed.dropped.tolist() == []
    assert parsed.frame_t.tolist() == [20.0, 500.0]
    assert parsed.length.tolist() == [4.5]


def test_counting_holds_no_second_copy_of_the_zone_rows(tmp_path):
    """The traced peak of counting two parsed logs stays under 1.5 times
    the bytes of their zone rows as 8-column float64 boxes: no merged
    copy of the boxes."""
    boxes = [(z.center.north, z.center.east, 4.5) for z in CFG.zones[::3]]
    registry, logs = None, []
    for sensor, phase in (("L1", 0.0), ("L2", 0.05)):
        log, registry = ned_log(tmp_path, [(k * 0.1 + phase, boxes) for k in range(2500)],
                                sensor, registry)
        logs.append(log)
    parsed = ingest.parse_logs(logs, registry, CFG)
    zone_rows = 2 * 2500 * len(boxes) * 8 * 8
    tracemalloc.start()
    try:
        events, _ = count_session(parsed, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) > 0
    assert peak < 1.5 * zone_rows


def session_case_logs(sim, tmp_path, name):
    """The logs of one case of zone rows outside the session: the ideal
    logs with all their frames copied 1e4 s before or after them."""
    l1, l2 = sim / "log_L1.jsonl", sim / "log_L2.jsonl"
    early1 = shifted_copy(l1, tmp_path / "early_L1.jsonl", -1e4)
    late1 = shifted_copy(l1, tmp_path / "late_L1.jsonl", 1e4)
    early2 = shifted_copy(l2, tmp_path / "early_L2.jsonl", -1e4)
    late2 = shifted_copy(l2, tmp_path / "late_L2.jsonl", 1e4)
    return {
        "before the session in the first log": [early1, l2],
        "after the session in the first log": [late1, l2],
        "before the session in the second log": [l1, early2],
        "after the session in the second log": [l1, late2],
        # The earliest dropped time is not the first one in log order.
        "after the session in the first log, before it in the second": [late1, early2],
        "before the session in the first log, bad line in the second":
            [early1, with_bad_lines(l2, tmp_path / "bad_L2.jsonl", {90: "{"})],
        "before the session in the first log, unregistered late second log":
            [early1, renamed(late2, tmp_path / "L7.jsonl", "L7")],
    }[name]


# Each case's exit code and stderr of ``estimate`` and, when it counts,
# the manifest's warnings.
SESSION_CASES = {
    ("before the session in the first log", False): (0, (
        "warning: dropped 51 zone-contained detection(s) outside the schedule session\n"),
        {"skipped_lines": 0, "outside_session_detections": 51}),
    ("before the session in the first log", True):
        (2, "error: t=-9994.75 outside schedule session [0.0, 300.0)\n", None),
    ("after the session in the first log", False): (0, (
        "warning: dropped 51 zone-contained detection(s) outside the schedule session\n"),
        {"skipped_lines": 0, "outside_session_detections": 51}),
    ("after the session in the first log", True):
        (2, "error: t=10005.25 outside schedule session [0.0, 300.0)\n", None),
    ("before the session in the second log", False): (0, (
        "warning: dropped 53 zone-contained detection(s) outside the schedule session\n"),
        {"skipped_lines": 0, "outside_session_detections": 53}),
    ("before the session in the second log", True):
        (2, "error: t=-9994.875 outside schedule session [0.0, 300.0)\n", None),
    ("after the session in the second log", False): (0, (
        "warning: dropped 53 zone-contained detection(s) outside the schedule session\n"),
        {"skipped_lines": 0, "outside_session_detections": 53}),
    ("after the session in the second log", True):
        (2, "error: t=10005.125 outside schedule session [0.0, 300.0)\n", None),
    ("after the session in the first log, before it in the second", False): (0, (
        "warning: dropped 104 zone-contained detection(s) outside the schedule session\n"),
        {"skipped_lines": 0, "outside_session_detections": 104}),
    ("after the session in the first log, before it in the second", True):
        (2, "error: t=-9994.875 outside schedule session [0.0, 300.0)\n", None),
    ("before the session in the first log, bad line in the second", True): (2, (
        "error: line 91: bad frame line: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)\n"), None),
    ("before the session in the first log, unregistered late second log", True):
        (2, "error: sensor frame 'L7' is not registered\n", None),
}


@pytest.mark.parametrize("name,strict", SESSION_CASES)
def test_zone_rows_outside_the_session(monkeypatch, caplog, capsys, tmp_path, sim, name,
                                       strict):
    """On one and two CPUs, in whole and in 7-box chunks: the dropped
    times are the scalar oracle's, ``--strict`` refuses the earliest one
    unless a bad line or an unregistered sensor fails first, and counting
    sees only the in-session rows."""
    logs = session_case_logs(sim, tmp_path, name)
    registry = sim / "registry.json"
    runs = []
    default_chunk = ingest.CHUNK_ROWS
    for cpus, chunk_rows in ((1, default_chunk), (2, default_chunk), (1, 7), (2, 7)):
        monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk_rows)
        runs.append(outcome(monkeypatch, caplog, capsys, tmp_path, cpus, logs, registry,
                            strict)[0])
    assert all(run == runs[0] for run in runs[1:])
    run = runs[0]
    code, stderr, warnings = SESSION_CASES[name, strict]
    assert (run["code"], run["stderr"]) == (code, stderr)
    if "bad line" in name:
        assert run["parsed"][0] is MalformedLineError
    else:
        times = outside_session_times(logs, CFG, load_registry(registry))
        assert times and [t for log in run["parsed"] for t in log["dropped"]] == times
    if code:
        assert run["files"] == {}
        return
    # Counting sees only the in-session rows: all but the warnings is
    # what the logs without their copies give.
    monkeypatch.setattr(ingest, "CHUNK_ROWS", default_chunk)
    clean = outcome(monkeypatch, caplog, capsys, tmp_path, 1,
                    [sim / "log_L1.jsonl", sim / "log_L2.jsonl"], registry, False)[0]["files"]
    for files in (run["files"], clean):
        del files["manifest"]["inputs"]
    assert run["files"]["manifest"].pop("warnings") == warnings
    clean["manifest"].pop("warnings")
    assert run["files"] == clean
