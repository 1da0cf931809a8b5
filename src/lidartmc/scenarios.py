"""Bundled stress scenarios: short hand-written scripts for the counting's
headway thresholds and its known field error modes.

``simulate --scenario`` takes its script from here; ``simulate
--script`` reads its script from a file and never loads this module.
Randomized traffic for the tests comes from the benchmark's
phase-by-phase fill (``perfbench/workload.py``), not from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UserInputError
from .intersection import Approach, IntersectionConfig, Movement, config_from_obj
from .reference import build_reference_config, long_range_document
from .simgen import ScriptedVehicle, SimConfig


@dataclass(frozen=True)
class Scenario:
    name: str
    script: tuple[ScriptedVehicle, ...]
    sim: SimConfig
    cfg: IntersectionConfig
    expects_exact: bool  # counting should reproduce ground truth exactly


def _v(cls, a, m, entry, speed, length=None, zone_id=None):
    return ScriptedVehicle(cls, a, m, entry, speed, length, zone_id)


def scenario_suite() -> tuple[Scenario, ...]:
    """Bundled stress scenarios for the counting engine."""
    ref = build_reference_config()
    nb, sb, eb, wb = Approach.NB, Approach.SB, Approach.EB, Approach.WB
    left, thru, right = Movement.LEFT, Movement.THRU, Movement.RIGHT

    ideal_script = (
        _v(3, nb, left, 5.02, 8.0, 4.5),
        _v(3, nb, thru, 20.03, 12.0, 4.4, "NB_T1"),
        _v(4, nb, thru, 24.11, 12.0, 6.0, "NB_T2"),
        _v(3, nb, thru, 28.19, 12.0, 4.7, "NB_T1"),
        _v(5, eb, right, 55.5, 7.0, 9.5),
        _v(3, eb, thru, 70.04, 9.0, 4.2),
        _v(3, eb, thru, 74.2, 9.0, 4.9),
        _v(3, nb, right, 90.1, 6.0, 4.6),
        _v(4, nb, right, 95.3, 6.0, 5.5),
        _v(3, sb, thru, 120.07, 10.0, 4.3),
        _v(3, sb, thru, 125.13, 10.0, 4.8),
        _v(3, wb, left, 152.2, 8.0, 4.1),
        _v(6, wb, thru, 171.2, 9.0, 14.0),
        _v(3, sb, right, 200.4, 8.0, 4.5),
    )

    slow_heavy_script = (
        _v(5, nb, thru, 16.05, 3.0, 9.5, "NB_T1"),
        _v(5, nb, thru, 21.07, 3.0, 10.5, "NB_T1"),
        _v(5, nb, thru, 26.09, 3.0, 11.0, "NB_T1"),
        _v(5, nb, thru, 31.11, 3.0, 9.8, "NB_T1"),
        _v(6, sb, thru, 116.03, 3.0, 14.0, "SB_T1"),
        _v(6, sb, thru, 121.05, 3.0, 16.0, "SB_T1"),
        _v(6, sb, thru, 126.07, 3.0, 15.0, "SB_T1"),
        _v(3, nb, thru, 40.013, 15.0, 4.5, "NB_T2"),
    )

    long_range_script = (
        _v(3, eb, thru, 67.1, 10.0, 4.5),
        _v(3, eb, thru, 71.3, 10.0, 4.6),
        _v(4, eb, thru, 75.5, 10.0, 6.2),
        _v(3, wb, thru, 167.2, 10.0, 4.4),
        _v(3, wb, thru, 171.4, 10.0, 4.7),
        _v(3, nb, thru, 20.1, 10.0, 4.5, "NB_T1"),
        _v(3, nb, thru, 24.3, 10.0, 4.8, "NB_T1"),
    )

    # Entry gaps sit just above residence + threshold, so the trigger
    # series lands barely on the "two vehicles" side of each split.
    burst_script = (
        _v(3, nb, thru, 20.03, 10.0, 4.5, "NB_T1"),
        _v(3, nb, thru, 22.08, 10.0, 4.6, "NB_T1"),
        _v(3, nb, thru, 24.13, 10.0, 4.4, "NB_T1"),
        _v(3, nb, thru, 26.18, 10.0, 4.7, "NB_T1"),
        _v(3, eb, right, 40.05, 8.0, 4.5),
        _v(3, eb, right, 43.25, 8.0, 4.6),
        _v(3, eb, right, 46.45, 8.0, 4.4),
    )

    dual_overlap_script = (
        _v(3, nb, thru, 18.07, 11.0, 4.5, "NB_T1"),
        _v(3, nb, thru, 23.11, 11.0, 4.6, "NB_T1"),
        _v(4, nb, thru, 28.15, 11.0, 6.1, "NB_T1"),
        _v(3, wb, thru, 70.09, 9.0, 4.4),
        _v(3, wb, thru, 75.17, 9.0, 4.8),
    )

    return (
        Scenario("ideal", ideal_script, SimConfig(seed=101), ref, True),
        Scenario("slow_heavy", slow_heavy_script, SimConfig(seed=202), ref, True),
        Scenario(
            "eb_wb_long_range",
            long_range_script,
            SimConfig(seed=303),
            config_from_obj(long_range_document()),
            False,
        ),
        Scenario("burst", burst_script, SimConfig(seed=404), ref, True),
        Scenario(
            "dual_overlap",
            dual_overlap_script,
            SimConfig(seed=505, noise_sigma=0.05),
            ref,
            True,
        ),
    )


def scenario_by_name(name: str) -> Scenario:
    for sc in scenario_suite():
        if sc.name == name:
            return sc
    raise UserInputError(
        f"unknown scenario {name!r}; available: "
        + ", ".join(sc.name for sc in scenario_suite())
    )

