import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartmc.errors import UserInputError
from lidartmc.geo import NedPoint
from lidartmc.intersection import (
    Approach,
    CountingParams,
    IntersectionConfig,
    Movement,
    PhaseInterval,
    PhaseSchedule,
    Zone,
    ZoneKind,
    config_from_obj,
    load_intersection_config,
    zone_hits,
)
from lidartmc.reference import long_range_document, reference_config_path
from oracle import permissible, point_in_zone

NB, SB, EB, WB = Approach.NB, Approach.SB, Approach.EB, Approach.WB
L, T, R, U = Movement.LEFT, Movement.THRU, Movement.RIGHT, Movement.UTURN


def make_zone(**kwargs):
    defaults = dict(
        id="Z",
        kind=ZoneKind.INGRESS,
        center=NedPoint(0.0, 0.0, 0.0),
        half_length=4.0,
        half_width=1.75,
        yaw=0.0,
        bindings=((NB, T),),
    )
    defaults.update(kwargs)
    return Zone(**defaults)


class TestPointInZone:
    def test_center_inside(self):
        z = make_zone()
        assert point_in_zone(NedPoint(0.0, 0.0, 0.0), z)

    def test_boundary_inclusive(self):
        z = make_zone()  # 8 x 3.5 m, axis-aligned
        assert point_in_zone(NedPoint(4.0, 0.0, 0.0), z)
        assert point_in_zone(NedPoint(0.0, 1.75, 0.0), z)
        assert not point_in_zone(NedPoint(4.0001, 0.0, 0.0), z)

    def test_yawed_45_degrees(self):
        # Hand-rotated: u = (3+3)/sqrt(2) = 4.243, v = 0 for (3, 3);
        # u = 0, v = 4.243 for (-3, 3).
        z45 = make_zone(yaw=math.pi / 4, half_length=8.0, half_width=1.75)
        assert point_in_zone(NedPoint(3.0, 3.0, 0.0), z45)
        assert not point_in_zone(NedPoint(-3.0, 3.0, 0.0), z45)

    def test_down_component_ignored(self):
        z = make_zone()
        assert point_in_zone(NedPoint(0.0, 0.0, 123.0), z)

    @settings(max_examples=100, deadline=None)
    @given(
        px=st.floats(-10, 10),
        py=st.floats(-10, 10),
        angle=st.floats(-math.pi, math.pi),
        tn=st.floats(-50, 50),
        te=st.floats(-50, 50),
    )
    def test_rigid_invariance(self, px, py, angle, tn, te):
        # Containment is preserved when point and zone move together.
        z = make_zone(yaw=0.3)
        p = NedPoint(px, py, 0.0)
        c, s = math.cos(angle), math.sin(angle)
        moved_center = NedPoint(
            c * z.center.north - s * z.center.east + tn,
            s * z.center.north + c * z.center.east + te,
            0.0,
        )
        moved_zone = make_zone(yaw=z.yaw + angle, center=moved_center)
        moved_p = NedPoint(c * px - s * py + tn, s * px + c * py + te, 0.0)
        assert point_in_zone(p, z) == point_in_zone(moved_p, moved_zone)

    def test_zone_validation(self):
        with pytest.raises(UserInputError, match="^zone 'Z': half extents must be finite"):
            make_zone(half_length=0.0)
        with pytest.raises(UserInputError, match="^zone 'Z': bindings must be non-empty$"):
            make_zone(bindings=())
        with pytest.raises(UserInputError, match="^zone 'Z': duplicate bindings$"):
            make_zone(bindings=((NB, T), (NB, T)))


class TestZoneHits:
    def test_containment_matches_numpy_reference(self):
        # The rule against the scalar oracle, point by point and zone by zone.
        rng = np.random.default_rng(21)
        for _ in range(5):
            pn, pe = rng.uniform(-60, 60, (2, 500))
            zn, ze = rng.uniform(-30, 30, (2, 8))
            yaw, hl, hw = rng.uniform(-np.pi, np.pi, 8), rng.uniform(2, 8, 8), rng.uniform(1, 4, 8)
            zones = [make_zone(id=f"Z{j}", center=NedPoint(zn[j], ze[j], 0.0), yaw=yaw[j],
                               half_length=hl[j], half_width=hw[j]) for j in range(8)]
            got = zone_hits(pn, pe, zones)
            assert got.shape == (500, 8)
            ref = [[point_in_zone(NedPoint(n, e, 0.0), z) for z in zones] for n, e in zip(pn, pe)]
            assert got.tolist() == ref

    def test_containment_boundary_inclusive(self):
        # Axis-aligned zone, point exactly on the length and width boundaries.
        pn = np.array([4.0, 4.0000001, 0.0, 0.0])
        pe = np.array([0.0, 0.0, 1.75, 1.7500001])
        got = zone_hits(pn, pe, [make_zone()])
        assert got[:, 0].tolist() == [True, False, True, False]


def simple_schedule():
    return PhaseSchedule(
        [
            PhaseInterval(0.0, 30.0, frozenset({(NB, T), (SB, T)})),
            PhaseInterval(30.0, 60.0, frozenset({(EB, T), (WB, T)})),
        ]
    )


class TestPermissible:
    def test_right_always_true(self):
        s = simple_schedule()
        for t in (0.0, 15.0, 45.0, 59.9):
            assert permissible(NB, R, t, s)
            assert permissible(WB, R, t, s)

    def test_phase_gating(self):
        s = simple_schedule()
        assert permissible(NB, T, 10.0, s)
        assert not permissible(EB, L, 10.0, s)
        assert not permissible(NB, T, 40.0, s)
        assert permissible(EB, T, 40.0, s)

    def test_interval_boundaries_half_open(self):
        s = simple_schedule()
        assert permissible(NB, T, 0.0, s)
        assert not permissible(NB, T, 30.0, s)
        assert permissible(EB, T, 30.0, s)

    def test_outside_session_raises(self):
        s = simple_schedule()
        with pytest.raises(UserInputError, match=r"^t=60.0 outside schedule session \[0.0, 60"):
            permissible(NB, T, 60.0, s)
        with pytest.raises(UserInputError, match=r"^t=-1.0 outside schedule session \[0.0, 60"):
            permissible(NB, R, -1.0, s)

    def test_gap_between_intervals_not_permissible(self):
        s = PhaseSchedule(
            (
                PhaseInterval(0.0, 10.0, frozenset({(NB, T)})),
                PhaseInterval(20.0, 30.0, frozenset({(NB, T)})),
            )
        )
        assert permissible(NB, T, 5.0, s)
        assert not permissible(NB, T, 15.0, s)  # all-red gap
        assert permissible(NB, R, 15.0, s)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(UserInputError, match="^phase intervals overlap at t=10.0$"):
            PhaseSchedule(
                [
                    PhaseInterval(0.0, 20.0, frozenset({(NB, T)})),
                    PhaseInterval(10.0, 30.0, frozenset({(SB, T)})),
                ]
            )

    def test_intervals_stored_sorted_and_give_the_session(self):
        early = PhaseInterval(0.0, 30.0, frozenset({(NB, T)}))
        late = PhaseInterval(40.0, 60.0, frozenset({(EB, T)}))
        s = PhaseSchedule([late, early])
        assert s.intervals == (early, late)
        assert s.session == (0.0, 60.0)
        with pytest.raises(UserInputError, match="at least one interval"):
            PhaseSchedule(())


def minimal_config_obj():
    return {
        "ned_origin": {"lat": 34.05, "lon": -117.4, "alt": 350.0},
        "zones": [
            {
                "id": "NB_T",
                "kind": "Ingress",
                "center": [-19.0, 5.0],
                "half_length": 4.0,
                "half_width": 1.75,
                "yaw": 0.0,
                "bindings": [["NB", "Thru"]],
            }
        ],
        "schedule": [
            {"start": 0.0, "end": 60.0, "permitted": [["NB", "Thru"]]},
        ],
    }


class TestConfig:
    def test_minimal_loads(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config_obj()))
        cfg = load_intersection_config(path)
        assert len(cfg.zones) == 1
        assert cfg.schedule.session == (0.0, 60.0)
        assert cfg.params == CountingParams()
        # Empty params are the default ones.
        assert config_from_obj({**minimal_config_obj(), "params": {}}) == cfg

    def test_bundled_reference_loads(self):
        cfg = load_intersection_config(reference_config_path())
        assert len(cfg.ingress_zones) == 12
        assert len([z for z in cfg.zones if z.kind is ZoneKind.EGRESS]) == 4
        assert {z.id for z in cfg.right_surrogate_zones} == {
            "NB_R_EGRESS",
            "SB_R_EGRESS",
        }
        assert len(cfg.schedule.intervals) == 12
        assert cfg.schedule.session == (0.0, 300.0)
        # The long-range variant moves the EB/WB thru ingress out and
        # changes nothing else.
        far = config_from_obj(long_range_document())
        assert [z.id for z in far.zones] == [z.id for z in cfg.zones]
        moved = {z.id: z.center for z, before in zip(far.zones, cfg.zones) if z != before}
        assert moved == {"EB_T": NedPoint(-5.25, -55.0, 0.0), "WB_T": NedPoint(5.25, 55.0, 0.0)}
        assert replace(far, zones=cfg.zones) == cfg

    def test_overlapping_schedule_rejected(self, tmp_path):
        obj = minimal_config_obj()
        obj["schedule"] = [
            {"start": 0.0, "end": 40.0, "permitted": [["NB", "Thru"]]},
            {"start": 30.0, "end": 60.0, "permitted": [["NB", "Thru"]]},
        ]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(UserInputError, match="^phase intervals overlap at t=30.0$"):
            load_intersection_config(path)

    def test_duplicate_zone_ids_rejected(self):
        obj = minimal_config_obj()
        obj["zones"].append(dict(obj["zones"][0]))
        with pytest.raises(UserInputError, match="duplicate zone ids"):
            config_from_obj(obj)

    def test_uncovered_movement_rejected(self):
        # An egress-only binding with no ingress zone and no surrogate.
        obj = minimal_config_obj()
        obj["zones"].append(
            {
                "id": "SB_T_OUT",
                "kind": "Egress",
                "center": [-19.0, -5.0],
                "half_length": 4.0,
                "half_width": 1.75,
                "yaw": 3.14159,
                "bindings": [["SB", "Thru"]],
            }
        )
        with pytest.raises(UserInputError, match="no ingress zone"):
            config_from_obj(obj)

    def test_double_coverage_rejected(self):
        # Same movement with both an ingress zone and an egress surrogate.
        obj = minimal_config_obj()
        obj["zones"][0]["bindings"] = [["NB", "Right"]]
        obj["zones"].append(
            {
                "id": "NB_R_OUT",
                "kind": "Egress",
                "center": [-5.0, 19.0],
                "half_length": 4.0,
                "half_width": 1.75,
                "yaw": 1.5707963,
                "bindings": [["NB", "Right"]],
            }
        )
        with pytest.raises(UserInputError, match="both an ingress"):
            config_from_obj(obj)

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(UserInputError, match="^config is not valid JSON: Expecting property"):
            load_intersection_config(path)
        path.write_text(json.dumps({"zones": []}))
        with pytest.raises(UserInputError, match="^bad intersection config: 'ned_origin'$"):
            load_intersection_config(path)

    def test_custom_class_table_and_params(self, tmp_path):
        obj = minimal_config_obj()
        obj["class_table"] = [
            {"id": 1, "label": "small", "lower": 0.0, "upper": 6.0, "fhwa": []},
            {"id": 2, "label": "large", "lower": 6.0, "upper": None, "fhwa": ["9"]},
        ]
        obj["params"] = {"min_headway_right": 2.5, "min_headway_other": 1.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        cfg = load_intersection_config(path)
        assert cfg.class_table.n_classes == 2
        assert cfg.class_table.class_ids(np.array([7.0])).tolist() == [2]
        assert cfg.params.min_headway_right == 2.5
        assert cfg.params.min_headway_other == 1.0
