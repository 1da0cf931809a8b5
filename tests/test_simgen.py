import io
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartmc.classify import class_table_from_obj
from lidartmc.counting import count_session, estimate_tmc
from lidartmc.errors import UserInputError
from lidartmc.ingest import frames_to_ned, merge_streams
from lidartmc.intersection import Approach, Movement, config_from_obj
from lidartmc.geo import NedPoint
from lidartmc.reference import long_range_document
from conftest import dense_script
from lidartmc.simgen import (
    SENSOR_HEIGHT_M,
    VISIBILITY_M,
    ScriptedVehicle,
    SensorSpec,
    SimConfig,
    default_sensors,
    load_script,
    script_from_obj,
    script_json,
    script_to_obj,
    simulate,
    tally_script,
)
from lidartmc.scenarios import random_script, scenario_by_name, scenario_suite
from lidartmc.stream import BOX_COLUMNS, MAX_DIMENSION_M, X, Y, write_detection_log
import oracle
from oracle import point_in_zone, sensor_logs, simulate_frames

NB, EB = Approach.NB, Approach.EB
T = Movement.THRU


def run_counting(session, cfg):
    merged = merge_streams(list(session.frames_by_sensor.values()))
    ned = frames_to_ned(merged, session.registry)
    events, meta = count_session(sensor_logs([ned], cfg), cfg)
    sim_bin = session.ground_truth.bin_seconds
    est = estimate_tmc(
        events, sim_bin, session.ground_truth.session, cfg.class_table.n_classes
    )
    return est, events, meta


def single_sensor_sim(**kwargs):
    sensors = (SensorSpec("L1", -12.0, 12.0, yaw=0.7),)
    defaults = dict(seed=1, sensors=sensors)
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestSimulateBasics:
    def test_empty_script(self, reference_config):
        session = simulate([], reference_config, SimConfig(seed=5))
        assert all(len(f) == 0 for f in session.frames_by_sensor.values())
        assert session.ground_truth.counts.sum() == 0

    def test_one_thru_vehicle_trigger_count(self, reference_config):
        # 10 m/s through an 8 m zone at 4 Hz: the center is inside for
        # 0.8 s, so a single sensor sees 3 or 4 in-zone detections.
        sim = single_sensor_sim()
        script = [ScriptedVehicle(3, NB, T, 20.03, 10.0, 4.5, "NB_T1")]
        session = simulate(script, reference_config, sim)
        merged = merge_streams(list(session.frames_by_sensor.values()))
        ned = frames_to_ned(merged, session.registry)
        from lidartmc.counting import extract_triggers

        triggers = extract_triggers(ned, reference_config)
        assert len(triggers["NB_T1"]) in (3, 4)
        assert session.ground_truth.counts.sum() == 1
        est, _, _ = run_counting(session, reference_config)
        assert est == session.ground_truth

    def test_two_vehicles_tallied(self, reference_config):
        script = [
            ScriptedVehicle(3, NB, T, 20.03, 10.0, 4.5, "NB_T1"),
            ScriptedVehicle(3, NB, T, 24.07, 10.0, 4.5, "NB_T1"),
        ]
        session = simulate(script, reference_config, SimConfig(seed=6))
        gt = session.ground_truth
        assert gt.counts.sum() == 2
        assert gt.counts[0, 0, 1, 2] == 2  # bin 0, NB, Thru, class 3

    def test_determinism_byte_identical(self, reference_config):
        sc = scenario_by_name("ideal")
        logs = []
        for _ in range(2):
            session = simulate(sc.script, reference_config, sc.sim)
            buf = io.StringIO()
            for fid in sorted(session.frames_by_sensor):
                write_detection_log(session.frames_by_sensor[fid], buf)
            logs.append(buf.getvalue())
        assert logs[0] == logs[1]

    def test_different_seed_changes_logs(self, reference_config):
        sc = scenario_by_name("ideal")
        outs = []
        for seed in (1, 2):
            sim = SimConfig(**{**sc.sim.__dict__, "seed": seed})
            session = simulate(sc.script, reference_config, sim)
            buf = io.StringIO()
            for fid in sorted(session.frames_by_sensor):
                write_detection_log(session.frames_by_sensor[fid], buf)
            outs.append(buf.getvalue())
        assert outs[0] != outs[1]  # scores differ even in the ideal setup

    def test_noise_free_geometry_on_path(self, reference_config):
        # With zero noise every detection lies exactly on the scripted
        # segment (up to the double round trip through ECEF).
        sim = single_sensor_sim()
        script = [ScriptedVehicle(3, NB, T, 20.03, 10.0, 4.5, "NB_T1")]
        session = simulate(script, reference_config, sim)
        merged = merge_streams(list(session.frames_by_sensor.values()))
        ned = frames_to_ned(merged, session.registry)
        zone = reference_config.zone_by_id("NB_T1")
        for frame in ned:
            for d in frame.detections:
                # path: east fixed at the zone center, north varies
                assert d[Y] == pytest.approx(zone.center.east, abs=1e-6)
                u = d[X] - zone.center.north
                expected_u = -zone.half_length + 10.0 * (frame.t - 20.03)
                assert u == pytest.approx(expected_u, abs=1e-6)

    def test_ground_truth_consistency_dual_path(self, reference_config):
        # Independent tally: count script rows per cell with a Counter.
        rng = np.random.default_rng(71)
        sim = SimConfig(seed=8)
        script = random_script(reference_config, rng, 30)
        session = simulate(script, reference_config, sim)
        expected = Counter(
            (v.approach, v.movement, v.vehicle_class) for v in script
        )
        gt = session.ground_truth
        approaches = list(Approach)
        movements = list(Movement)
        for (a, m, c), n in expected.items():
            total = gt.counts[:, approaches.index(a), movements.index(m), c - 1].sum()
            assert total == n
        assert gt.counts.sum() == len(script)

    def test_dropout_thins_detections(self, reference_config):
        script = [ScriptedVehicle(3, NB, T, 20.03, 10.0, 4.5, "NB_T1")]
        n_full = sum(
            len(f.detections)
            for f in simulate(script, reference_config, SimConfig(seed=9)).frames_by_sensor["L1"]
        )
        thinned = simulate(
            script, reference_config, SimConfig(seed=9, dropout=0.7)
        )
        n_thin = sum(len(f.detections) for f in thinned.frames_by_sensor["L1"])
        assert n_thin < n_full

    def test_visibility_radius_limits(self, reference_config):
        # A sensor 100 m away sees nothing within a 40 m radius.
        sim = SimConfig(
            seed=10, sensors=(SensorSpec("L1", 100.0, 100.0),)
        )
        script = [ScriptedVehicle(3, NB, T, 20.03, 10.0, 4.5, "NB_T1")]
        session = simulate(script, reference_config, sim)
        assert_frames_identical(session.frames_by_sensor["L1"], ())


class TestScriptValidation:
    def test_sensor_far_from_the_origin_rejected(self, reference_config):
        sim = SimConfig(seed=1, sensors=(SensorSpec("L1", 2e7, 0.0),))
        with pytest.raises(UserInputError, match="^sensor frame 'L1' lies 2e\\+07 m from the NED"):
            simulate([], reference_config, sim)

    def test_speed_bounds(self, reference_config):
        with pytest.raises(UserInputError, match=r"^speed 25.0 outside \(0, 20.0\]$"):
            simulate(
                [ScriptedVehicle(3, NB, T, 20.0, 25.0, 4.5)],
                reference_config,
                SimConfig(seed=1),
            )

    def test_entry_outside_session(self, reference_config):
        with pytest.raises(UserInputError, match="^vehicle at entry_time 299.9 does not clear"):
            simulate(
                [ScriptedVehicle(3, NB, T, 299.9, 10.0, 4.5)],
                reference_config,
                SimConfig(seed=1),
            )

    def test_uncountable_movement_rejected(self, reference_config):
        # NB UTurn shares the left zone: it cannot be counted as itself.
        with pytest.raises(UserInputError, match="^no countable zone for NB/UTurn;"):
            simulate(
                [ScriptedVehicle(3, NB, Movement.UTURN, 5.0, 8.0, 4.5)],
                reference_config,
                SimConfig(seed=1),
            )

    def test_unknown_zone_id_rejected(self, reference_config):
        with pytest.raises(UserInputError, match="^unknown zone_id 'NOPE'$"):
            simulate(
                [ScriptedVehicle(3, NB, T, 20.0, 10.0, 4.5, "NOPE")],
                reference_config,
                SimConfig(seed=1),
            )

    def test_zone_binding_mismatch_rejected(self, reference_config):
        with pytest.raises(UserInputError, match="^zone 'EB_T' cannot count NB/Thru$"):
            simulate(
                [ScriptedVehicle(3, NB, T, 20.0, 10.0, 4.5, "EB_T")],
                reference_config,
                SimConfig(seed=1),
            )

    @pytest.mark.parametrize("zone_id, approach, movement", [
        ("NB_L", NB, Movement.UTURN),  # a shared zone counts its primary binding only
        ("NB_T1", NB, Movement.LEFT),
        ("NB_T_EGRESS", NB, T),  # egress, not a right surrogate
        ("NB_R_EGRESS", Approach.SB, Movement.RIGHT),  # a surrogate of another binding
    ])
    def test_zone_that_cannot_count_the_movement_rejected(
        self, reference_config, zone_id, approach, movement
    ):
        message = f"zone '{zone_id}' cannot count {approach.value}/{movement.value}"
        with pytest.raises(UserInputError, match=f"^{message}$"):
            simulate(
                [ScriptedVehicle(3, approach, movement, 20.0, 8.0, 4.5, zone_id)],
                reference_config,
                SimConfig(seed=1),
            )

    def test_right_surrogate_zone_counts_its_binding(self, reference_config):
        session = simulate(
            [ScriptedVehicle(3, NB, Movement.RIGHT, 20.0, 8.0, 4.5, "NB_R_EGRESS")],
            reference_config,
            SimConfig(seed=1),
        )
        assert session.ground_truth.counts.sum() == 1
        assert session.frames_by_sensor["L1"].boxes.size

    def test_length_class_mismatch_rejected(self, reference_config):
        with pytest.raises(UserInputError, match="^length 9.5 is not a class-3 length$"):
            simulate(
                [ScriptedVehicle(3, NB, T, 20.0, 10.0, 9.5)],
                reference_config,
                SimConfig(seed=1),
            )

    def test_frame_rate_bounds(self):
        with pytest.raises(UserInputError, match=r"^frame_rate_hz 2.0 outside \[3, 5\]$"):
            SimConfig(seed=1, frame_rate_hz=2.0)
        with pytest.raises(UserInputError, match=r"^frame_rate_hz 6.0 outside \[3, 5\]$"):
            SimConfig(seed=1, frame_rate_hz=6.0)

    @pytest.mark.parametrize("field,value", [
        ("dropout", -0.1), ("dropout", 1.0), ("noise_sigma", -1.0), ("noise_sigma", math.nan),
        ("noise_sigma", math.nextafter(VISIBILITY_M, math.inf)), ("noise_sigma", 1e308),
        ("sensors", (SensorSpec("L1", 0.0, 0.0), SensorSpec("L1", 5.0, 5.0))),
    ])
    def test_sim_config_bounds(self, field, value):
        # Each message starts with the field's name: dropout, noise sigma, sensors.
        with pytest.raises(UserInputError, match=f"^{field.replace('_', ' ')} "):
            SimConfig(seed=1, **{field: value})

    def test_noise_up_to_the_sensor_range_is_accepted(self):
        assert SimConfig(seed=1, noise_sigma=VISIBILITY_M).noise_sigma == VISIBILITY_M

    @pytest.mark.parametrize("upper,refused", [(None, True), (50.02, True), (50.01, False)])
    def test_class_band_that_can_draw_past_the_box_limit_rejected(
            self, reference_config, upper, refused):
        table = class_table_from_obj([
            {"id": 1, "label": "short", "lower": 0.0, "upper": 45.0, "fhwa": []},
            {"id": 2, "label": "long", "lower": 45.0, "upper": upper, "fhwa": []},
            *([] if upper is None else
              [{"id": 3, "label": "longer", "lower": upper, "upper": None, "fhwa": []}]),
        ])
        cfg = replace(reference_config, class_table=table)
        # A scripted length of the class passes; one left to the band may not.
        simulate([ScriptedVehicle(2, NB, T, 20.0, 10.0, 46.0)], cfg, SimConfig(seed=1))
        script = [ScriptedVehicle(1, NB, T, 20.0, 10.0), ScriptedVehicle(2, NB, T, 30.0, 10.0)]
        want = outcome(lambda: oracle.resolve_script(script, cfg, np.random.default_rng(1)))
        got = outcome(lambda: simulate(script, cfg, SimConfig(seed=1)))
        assert got == want
        assert (got is not None) == refused
        if not refused:
            boxes = simulate(script, cfg, SimConfig(seed=1)).frames_by_sensor["L1"].boxes
            assert boxes[:, BOX_COLUMNS.index("l")].max() < MAX_DIMENSION_M


# A length inside each default class, and the ways a scripted vehicle
# can fail its checks.
CLASS_LENGTHS = {1: 0.5, 2: 1.5, 3: 4.5, 4: 6.0, 5: 9.0, 6: 15.0}
SCRIPT_FAULTS = ("class", "speed", "unknown zone", "zone cannot count", "no countable zone",
                 "length of another class", "bad length", "too long", "does not clear its zone")


@st.composite
def checked_vehicles(draw, cfg):
    """A scripted vehicle with none, one or several of ``SCRIPT_FAULTS``."""
    zone, (approach, movement) = draw(st.sampled_from(cfg.countable_targets()))
    vehicle_class = draw(st.integers(1, 6))
    zone_id = draw(st.sampled_from([zone.id, None]))
    entry = draw(st.floats(0.5, 290.0))
    speed = draw(st.floats(3.0, 20.0))
    length = draw(st.sampled_from([None, CLASS_LENGTHS[vehicle_class]]))
    for fault in draw(st.lists(st.sampled_from(SCRIPT_FAULTS), max_size=3, unique=True)):
        if fault == "class":
            vehicle_class = draw(st.sampled_from([-1, 0, 7]))
        elif fault == "speed":
            speed = draw(st.sampled_from([0.0, -3.0, 20.5, math.nan, math.inf]))
        elif fault == "unknown zone":
            zone_id = "NOPE"
        elif fault == "zone cannot count":
            zone_id = draw(st.sampled_from([z.id for z in cfg.zones
                                            if (z, (approach, movement))
                                            not in cfg.countable_targets()]))
        elif fault == "no countable zone":
            zone_id, movement = None, Movement.UTURN
        elif fault == "length of another class":
            length = CLASS_LENGTHS[draw(st.sampled_from(
                [c for c in CLASS_LENGTHS if c != vehicle_class]))]
        elif fault == "bad length":
            length = draw(st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]))
        elif fault == "too long":  # of class 6, or also of another class
            vehicle_class = draw(st.sampled_from([6, vehicle_class]))
            length = draw(st.sampled_from([MAX_DIMENSION_M, 60.0, 1e300]))
        else:
            entry = draw(st.sampled_from([-1.0, 299.9, 300.0, math.nan, 1e9]))
    return ScriptedVehicle(vehicle_class, approach, movement, entry, speed, length, zone_id)


def outcome(run):
    """None, or the type and message of the error that ``run()`` raised."""
    try:
        run()
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestScriptChecksAgainstPerVehicleOracle:
    """``simulate`` resolves each zone binding once and classes every
    scripted length at once; a bad script still fails as the per-vehicle
    loop of ``oracle.resolve_script`` fails: on the first failing vehicle,
    with the first of its checks that fails."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_error_as_the_per_vehicle_loop(self, reference_config, data):
        script = data.draw(st.lists(checked_vehicles(reference_config), max_size=6))
        want = outcome(lambda: oracle.resolve_script(script, reference_config,
                                                     np.random.default_rng(1)))
        got = outcome(lambda: simulate(script, reference_config, SimConfig(seed=1)))
        assert got == want


class TestPathGeometry:
    def test_paths_touch_only_their_governing_zone(self, reference_config):
        """No scripted path may clip a second counted zone; that would
        silently break the ground-truth oracle."""
        for cfg in (reference_config, config_from_obj(long_range_document())):
            counted = {z.id for z in cfg.ingress_zones}
            counted |= {z.id for z in cfg.right_surrogate_zones}
            for zone, _binding in cfg.countable_targets():
                d = np.array([math.cos(zone.yaw), math.sin(zone.yaw)])
                center = np.array([zone.center.north, zone.center.east])
                for u in np.linspace(-zone.half_length - 10.0, zone.half_length + 10.0, 400):
                    p = center + u * d
                    point = NedPoint(float(p[0]), float(p[1]), 0.0)
                    for other in cfg.zones:
                        if other.id == zone.id or other.id not in counted:
                            continue
                        assert not point_in_zone(point, other), (
                            f"path of {zone.id} clips {other.id} at u={u:.2f}"
                        )

    def test_zone_kinematics_guarantee(self, reference_config):
        # At most 20 m/s and at least 3 Hz, every crossing leaves at
        # least one trigger in an 8 m zone.
        from lidartmc.counting import extract_triggers

        for entry in (20.037, 21.41, 22.883):
            sim = single_sensor_sim(frame_rate_hz=3.0)
            script = [ScriptedVehicle(3, NB, T, entry, 20.0, 4.5, "NB_T1")]
            session = simulate(script, reference_config, sim)
            merged = merge_streams(list(session.frames_by_sensor.values()))
            ned = frames_to_ned(merged, session.registry)
            triggers = extract_triggers(ned, reference_config)
            assert len(triggers["NB_T1"]) >= 1

    def test_default_sensor_coverage(self, reference_config):
        # Every counted zone is fully visible to at least one default
        # sensor, corners included; otherwise ideal scenarios undercount.
        sensors = default_sensors()
        for zone, _ in reference_config.countable_targets():
            d = np.array([math.cos(zone.yaw), math.sin(zone.yaw)])
            w = np.array([-d[1], d[0]])
            center = np.array([zone.center.north, zone.center.east])
            corners = [
                center + su * zone.half_length * d + sv * zone.half_width * w
                for su in (-1, 1)
                for sv in (-1, 1)
            ]
            covered = any(
                all(
                    math.dist((c[0], c[1], -0.75), (s.north, s.east, -SENSOR_HEIGHT_M))
                    <= VISIBILITY_M
                    for c in corners
                )
                for s in sensors
            )
            assert covered, f"zone {zone.id} is not fully covered by any sensor"


class TestScenarioSuite:
    def test_suite_names(self):
        names = [sc.name for sc in scenario_suite()]
        assert names == [
            "ideal",
            "slow_heavy",
            "eb_wb_long_range",
            "burst",
            "dual_overlap",
        ]

    def test_exact_scenarios_recover_ground_truth(self):
        for sc in scenario_suite():
            if not sc.expects_exact:
                continue
            session = simulate(sc.script, sc.cfg, sc.sim)
            est, _, _ = run_counting(session, sc.cfg)
            assert est == session.ground_truth, sc.name

    def test_long_range_undercounts(self):
        sc = scenario_by_name("eb_wb_long_range")
        session = simulate(sc.script, sc.cfg, sc.sim)
        est, _, _ = run_counting(session, sc.cfg)
        assert int(est.counts.sum()) < int(session.ground_truth.counts.sum())

    def test_unknown_scenario(self):
        with pytest.raises(UserInputError, match="^unknown scenario 'nope'; available: ideal,"):
            scenario_by_name("nope")


def assert_frames_identical(got, want):
    """The stream ``got`` holds the frames ``want``, bit for bit: frame_id,
    t and every box value."""
    assert [got.sensors[s] for s in got.sensor.tolist()] == [f.frame_id for f in want]
    assert [t.hex() for t in got.t.tolist()] == [f.t.hex() for f in want]
    assert np.diff(got.offsets).tolist() == [len(f.detections) for f in want]
    assert all(f.detections.dtype == np.float64 for f in want)
    assert got.boxes.dtype == np.float64
    assert got.boxes.shape == (got.offsets[-1], len(BOX_COLUMNS))
    assert got.boxes.tobytes() == b"".join(f.detections.tobytes() for f in want)


NOISY = dict(dropout=0.2, noise_sigma=0.1)


class TestAgainstPerVehicleOracle:
    """The columnar simulate against ``oracle.simulate_frames``, which
    builds each vehicle's boxes in turn."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["default", "noisy"])
    @pytest.mark.parametrize("scenario", scenario_suite(), ids=lambda sc: sc.name)
    def test_scenarios(self, scenario, noisy):
        sim = replace(scenario.sim, **NOISY) if noisy else scenario.sim
        session = simulate(scenario.script, scenario.cfg, sim)
        want = simulate_frames(scenario.script, scenario.cfg, sim)
        assert list(session.frames_by_sensor) == list(want)
        for fid, frames in want.items():
            assert_frames_identical(session.frames_by_sensor[fid], frames)

    @pytest.mark.parametrize("noisy", [False, True], ids=["default", "noisy"])
    def test_dense_script(self, reference_config, noisy):
        sim = SimConfig(seed=31, **(NOISY if noisy else {}))
        script = dense_script(reference_config, np.random.default_rng(32))
        assert len(script) > 500
        session = simulate(script, reference_config, sim)
        want = simulate_frames(script, reference_config, sim)
        for fid, frames in want.items():
            assert_frames_identical(session.frames_by_sensor[fid], frames)

    def test_empty_script(self, reference_config):
        sim = SimConfig(seed=5, **NOISY)
        session = simulate([], reference_config, sim)
        want = simulate_frames([], reference_config, sim)
        assert want == {"L1": (), "L2": ()}
        assert list(session.frames_by_sensor) == ["L1", "L2"]
        for fid, stream in session.frames_by_sensor.items():
            assert_frames_identical(stream, want[fid])


class TestRandomScript:
    def test_constraints_hold(self, reference_config):
        rng = np.random.default_rng(81)
        script = random_script(reference_config, rng, 40)
        assert 5 <= len(script) <= 40
        per_zone = {}
        for v in script:
            assert 3.0 <= v.speed <= 20.0
            per_zone.setdefault(v.zone_id, []).append(v)
        for zone_id, vs in per_zone.items():
            zone = reference_config.zone_by_id(zone_id)
            vs.sort(key=lambda v: v.entry_time)
            for a, b in zip(vs, vs[1:]):
                exit_a = a.entry_time + 2 * zone.half_length / a.speed
                assert b.entry_time - exit_a >= 2.0

    def test_script_json_round_trip(self, reference_config):
        rng = np.random.default_rng(82)
        script = random_script(reference_config, rng, 10)
        assert script_from_obj(script_to_obj(script)) == tuple(script)


# Floats that ``repr`` spells in exponent form, and so orjson differently.
EXPONENT_FORM = [5e-05, -3e-07, 1e-300, 5e-324, 1e16, 2.5e22, 1.7976931348623157e308]
script_float = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from(EXPONENT_FORM))
scripted_vehicles = st.builds(
    ScriptedVehicle,
    vehicle_class=st.integers(1, 6),
    approach=st.sampled_from(list(Approach)),
    movement=st.sampled_from(list(Movement)),
    entry_time=script_float,
    speed=script_float,
    length=st.none() | script_float,
    zone_id=st.none() | st.text(max_size=6) | st.sampled_from(["NB_T1", "zoné", "北口", "🚗"]),
)


class TestScriptJson:
    @settings(max_examples=100, deadline=None)
    @given(script=st.lists(scripted_vehicles, max_size=6))
    def test_reads_back_to_script_values(self, script):
        doc = json.loads(script_json(script))
        assert doc == script_to_obj(script)
        assert script_from_obj(doc) == tuple(script)

    def test_bundled_scenarios_keep_json_dumps_bytes(self):
        for sc in scenario_suite():
            assert script_json(sc.script) == json.dumps(script_to_obj(sc.script), indent=2) + "\n"

    def test_script_orjson_refuses_is_written_by_json(self):
        script = [ScriptedVehicle(3, NB, T, 20.0, 10.0, None, "\ud800")]
        text = script_json(script)
        assert text == json.dumps(script_to_obj(script), indent=2) + "\n"
        assert json.loads(text) == script_to_obj(script)


def test_tally_script_respects_bins(reference_config):
    script = [
        ScriptedVehicle(3, NB, T, 20.0, 10.0, 4.5, "NB_T1"),
        ScriptedVehicle(3, NB, T, 120.0, 10.0, 4.5, "NB_T1"),
        ScriptedVehicle(4, EB, T, 220.0, 10.0, 6.0, "EB_T"),
    ]
    gt = tally_script(script, (0.0, 300.0), 6, bin_seconds=100.0)
    assert gt.counts.shape[0] == 3
    assert gt.counts[0].sum() == 1
    assert gt.counts[1].sum() == 1
    assert gt.counts[2].sum() == 1


def test_load_script_file(tmp_path, reference_config):
    rng = np.random.default_rng(83)
    script = random_script(reference_config, rng, 8)
    path = tmp_path / "script.json"
    import json

    path.write_text(json.dumps(script_to_obj(script)))
    assert load_script(path) == tuple(script)
