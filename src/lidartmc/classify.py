"""Length-based vehicle classification.

Classes partition (0, inf) meters of detected bounding-box length into
half-open bands [lower, upper), so every positive length maps to exactly
one class. A table holds only the lower edge of each band: class ``i``
runs from its own lower edge to the next one, and the last class is
open-ended. The default is the paper's six classes; README "File
formats" lists their labels and FHWA classes, which no code reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UserInputError, json_number, json_string


@dataclass(frozen=True)
class ClassTable:
    """The lower edges of the classes' length bands, in meters: class
    ``i`` (from 1) is ``[lower[i-1], lower[i])``, and the last band is
    open-ended."""

    lower: tuple[float, ...]

    @property
    def n_classes(self) -> int:
        return len(self.lower)

    def band(self, class_id: int) -> tuple[float, float]:
        """The ``[lower, upper)`` band of a class id."""
        edges = (*self.lower, math.inf)
        return edges[class_id - 1], edges[class_id]

    def class_ids(self, lengths: np.ndarray) -> np.ndarray:
        """Map bounding-box lengths to their class ids."""
        bad = lengths[~(np.isfinite(lengths) & (lengths > 0))]
        if len(bad):
            raise UserInputError(f"length must be positive and finite, got {float(bad[0])!r}")
        return np.searchsorted(self.lower, lengths, side="right")


DEFAULT_CLASS_TABLE = ClassTable((0.0, 1.0, 2.2, 5.0, 7.0, 12.0))


def parse_class_id(value) -> int:
    """A class id from a JSON document: 3.7, NaN, infinity, "1" and true
    are not one."""
    number = json_number(value)
    if not number.is_integer():
        raise ValueError(f"class id must be an integer, got {value!r}")
    return int(number)


def class_table_from_obj(obj) -> ClassTable:
    """Build a class table from decoded JSON: a list of ``{"id", "lower",
    "upper"}`` bands (``upper: null`` means inf). An optional ``label``
    string and ``fhwa`` list of strings are checked and not kept."""
    if not isinstance(obj, list):
        raise UserInputError("class table must be a list of class objects")
    bands = []
    for entry in obj:
        try:
            upper = entry["upper"]
            fhwa = entry.get("fhwa", [])
            if not isinstance(fhwa, list):
                raise TypeError(f"fhwa must be a list of strings, got {fhwa!r}")
            class_id = parse_class_id(entry["id"])
            if "label" in entry:
                json_string(entry["label"], "label")
            lower = json_number(entry["lower"])
            upper = math.inf if upper is None else json_number(upper)
            for v in fhwa:
                json_string(v, "fhwa entry")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise UserInputError(f"bad class table entry {entry!r}: {exc}") from None
        bands.append((class_id, lower, upper))
    if not bands:
        raise UserInputError("class table must not be empty")
    prev_upper = 0.0
    for i, (class_id, lower, upper) in enumerate(bands):
        if class_id != i + 1:
            raise UserInputError(f"class ids must be 1..n consecutive, got {class_id}")
        if lower != prev_upper:
            raise UserInputError(
                f"class {class_id} lower bound {lower} leaves a gap/overlap after {prev_upper}"
            )
        if not upper > lower:
            raise UserInputError(f"class {class_id} has empty interval")
        prev_upper = upper
    if not math.isinf(prev_upper):
        raise UserInputError("last class must extend to infinity")
    return ClassTable(tuple(lower for _, lower, _ in bands))
