"""Length-based vehicle classification.

Six classes partition (0, inf) meters of detected bounding-box length.
Intervals are half-open [lower, upper) so every positive length maps to
exactly one class. Each class also carries the FHWA class labels it
covers (empty for pedestrians).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UserInputError, json_number


@dataclass(frozen=True)
class VehicleClass:
    """One length band: [lower, upper) meters."""

    id: int
    label: str
    lower: float
    upper: float
    fhwa: frozenset[str]


@dataclass(frozen=True)
class ClassTable:
    """An ordered set of classes partitioning (0, inf)."""

    classes: tuple[VehicleClass, ...]

    def __post_init__(self):
        if not self.classes:
            raise UserInputError("class table must not be empty")
        prev_upper = 0.0
        for i, c in enumerate(self.classes):
            if c.id != i + 1:
                raise UserInputError(f"class ids must be 1..n consecutive, got {c.id}")
            if c.lower != prev_upper:
                raise UserInputError(
                    f"class {c.id} lower bound {c.lower} leaves a gap/overlap "
                    f"after {prev_upper}"
                )
            if not c.upper > c.lower:
                raise UserInputError(f"class {c.id} has empty interval")
            prev_upper = c.upper
        if not math.isinf(prev_upper):
            raise UserInputError("last class must extend to infinity")
        object.__setattr__(self, "_bounds", tuple(c.lower for c in self.classes))

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_ids(self, lengths: np.ndarray) -> np.ndarray:
        """Map bounding-box lengths to their class ids."""
        bad = lengths[~(np.isfinite(lengths) & (lengths > 0))]
        if len(bad):
            raise UserInputError(f"length must be positive and finite, got {float(bad[0])!r}")
        return np.searchsorted(self._bounds, lengths, side="right")

    def classify(self, length: float) -> VehicleClass:
        """Map a bounding-box length to its vehicle class."""
        return self.by_id(int(self.class_ids(np.array([float(length)]))[0]))

    def by_id(self, class_id: int) -> VehicleClass:
        return self.classes[class_id - 1]


_DEFAULT_CLASSES = (
    VehicleClass(1, "Pedestrians", 0.0, 1.0, frozenset()),
    VehicleClass(2, "Bicycles, scooters, motorbikes", 1.0, 2.2, frozenset({"1"})),
    VehicleClass(
        3, "Hatchbacks, sedans, small-medium SUVs", 2.2, 5.0,
        frozenset({"2 (No Trailer)"}),
    ),
    VehicleClass(
        4, "Large SUVs, vans, pickup trucks", 5.0, 7.0,
        frozenset({"2 (Trailer)", "3"}),
    ),
    VehicleClass(5, "Trucks, buses", 7.0, 12.0, frozenset({"4", "5", "6", "7"})),
    VehicleClass(
        6, "Trailers, combination trucks", 12.0, math.inf,
        frozenset({"8", "9", "10"}),
    ),
)

DEFAULT_CLASS_TABLE = ClassTable(_DEFAULT_CLASSES)


def parse_class_id(value) -> int:
    """A class id from a JSON document: 3.7, NaN, infinity, "1" and true
    are not one."""
    number = json_number(value)
    if not number.is_integer():
        raise ValueError(f"class id must be an integer, got {value!r}")
    return int(number)


def class_table_from_obj(obj) -> ClassTable:
    """Build a class table from decoded JSON (``upper: null`` means inf)."""
    if not isinstance(obj, list):
        raise UserInputError("class table must be a list of class objects")
    classes = []
    for entry in obj:
        try:
            upper = entry["upper"]
            classes.append(
                VehicleClass(
                    id=parse_class_id(entry["id"]),
                    label=str(entry["label"]),
                    lower=json_number(entry["lower"]),
                    upper=math.inf if upper is None else json_number(upper),
                    fhwa=frozenset(str(v) for v in entry.get("fhwa", [])),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise UserInputError(f"bad class table entry {entry!r}: {exc}") from None
    return ClassTable(tuple(classes))

