"""Bundled stress scenarios and the random script generator.

``simulate --scenario`` and the tests take their scripts from here;
``simulate --script`` reads its script from a file and never loads this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UserInputError
from .intersection import Approach, IntersectionConfig, Movement, config_from_obj
from .reference import build_reference_config, long_range_document
from .simgen import ScriptedVehicle, SimConfig
from .tables import DEFAULT_BIN_SECONDS


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


def random_script(
    cfg: IntersectionConfig,
    rng: np.random.Generator,
    n_vehicles: int,
) -> list[ScriptedVehicle]:
    """Random script over the schedule's session whose per-zone
    exit-to-entry headways stay >= 2.0 s, whose vehicles cross only during
    phases permitting their movement, and whose entries keep clear of the
    boundaries of :data:`~lidartmc.tables.DEFAULT_BIN_SECONDS` bins. Under
    those constraints the counting pipeline must reproduce the ground
    truth exactly; the generator may return fewer vehicles if zones saturate.
    """
    targets = cfg.countable_targets()
    t0, t1 = cfg.schedule.session
    boundaries = np.arange(t0 + DEFAULT_BIN_SECONDS, t1, DEFAULT_BIN_SECONDS).tolist()
    last_exit: dict[str, float] = {}
    vehicles: list[ScriptedVehicle] = []
    classes = cfg.class_table.n_classes
    for _ in range(n_vehicles):
        for _attempt in range(200):
            zone, (approach, movement) = targets[int(rng.integers(len(targets)))]
            speed = float(rng.uniform(3.0, 20.0))
            residence = 2.0 * zone.half_length / speed
            if movement is Movement.RIGHT:
                windows = [(t0, t1)]
            else:
                windows = [
                    (iv.start, iv.end)
                    for iv in cfg.schedule.intervals
                    if (approach, movement) in iv.permitted
                ]
                if not windows:
                    continue
            w0, w1 = windows[int(rng.integers(len(windows)))]
            lo = max(w0 + 0.05, t0 + 0.5, last_exit.get(zone.id, -math.inf) + 2.1)
            hi = min(w1, t1 - 0.5) - residence - 0.4
            if hi <= lo:
                continue
            entry = float(rng.uniform(lo, hi))
            # GT bins by entry; the first trigger may lag one frame, so
            # keep the whole residence away from bin boundaries.
            if any(b - 0.5 < entry <= b or entry < b < entry + residence + 0.5 for b in boundaries):
                continue
            vclass = int(rng.integers(1, classes + 1))
            vehicles.append(
                ScriptedVehicle(vclass, approach, movement, entry, speed, None, zone.id)
            )
            last_exit[zone.id] = entry + residence
            break
    vehicles.sort(key=lambda v: v.entry_time)
    return vehicles
