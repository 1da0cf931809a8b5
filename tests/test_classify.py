import math
import re

import numpy as np
import pytest

from conftest import DEFAULT_CLASS_TABLE_DOC
from lidartmc.classify import DEFAULT_CLASS_TABLE, class_table_from_obj
from lidartmc.errors import UserInputError
from oracle import classify


def class_id(table, length):
    """The class id ``class_ids`` gives one length."""
    return int(table.class_ids(np.array([length]))[0])


@pytest.mark.parametrize(
    "length,expected",
    [(0.5, 1), (1.5, 2), (3.0, 3), (6.0, 4), (9.0, 5), (15.0, 6)],
)
def test_fixture_lengths(length, expected):
    assert class_id(DEFAULT_CLASS_TABLE, length) == expected


@pytest.mark.parametrize(
    "length,expected",
    [
        (0.8, 1),  # pedestrian
        (4.5, 3),  # sedan
        (12.0, 6),  # boundary resolves upward: half-open intervals
        (1.0, 2),
        (2.2, 3),
        (5.0, 4),
        (7.0, 5),
    ],
)
def test_boundaries_half_open(length, expected):
    assert class_id(DEFAULT_CLASS_TABLE, length) == expected
    assert classify(DEFAULT_CLASS_TABLE, length) == expected


def test_sweep_totality_and_monotonicity():
    # 0.01 m steps from 0.01 to 60 m: exactly one class, ids nondecreasing,
    # and class_ids gives the oracle's ids for the whole array.
    lengths = [i / 100.0 for i in range(1, 6001)]
    ids = []
    for length in lengths:
        cls = classify(DEFAULT_CLASS_TABLE, length)
        lower, upper = DEFAULT_CLASS_TABLE.band(cls)
        assert lower <= length < upper
        assert cls >= (ids[-1] if ids else 0)
        ids.append(cls)
    assert ids[-1] == 6
    assert DEFAULT_CLASS_TABLE.class_ids(np.array(lengths)).tolist() == ids


def test_nonpositive_length():
    for bad in (0.0, -1.0, math.nan, math.inf):
        message = f"^{re.escape(f'length must be positive and finite, got {bad!r}')}$"
        with pytest.raises(UserInputError, match=message):
            classify(DEFAULT_CLASS_TABLE, bad)
        for lengths in ([bad], [3.0, bad, -5.0]):  # the first bad length is named
            with pytest.raises(UserInputError, match=message):
                DEFAULT_CLASS_TABLE.class_ids(np.array(lengths))


def test_default_class_table_document():
    assert class_table_from_obj(DEFAULT_CLASS_TABLE_DOC) == DEFAULT_CLASS_TABLE


def test_bands():
    assert [DEFAULT_CLASS_TABLE.band(c) for c in range(1, 7)] == [
        (0.0, 1.0), (1.0, 2.2), (2.2, 5.0), (5.0, 7.0), (7.0, 12.0), (12.0, math.inf)]


def test_custom_table():
    table = class_table_from_obj(
        [
            {"id": 1, "label": "small", "lower": 0.0, "upper": 6.0, "fhwa": []},
            {"id": 2, "label": "large", "lower": 6.0, "upper": None, "fhwa": ["9"]},
        ]
    )
    assert table.class_ids(np.array([5.9, 6.0])).tolist() == [1, 2]


@pytest.mark.parametrize(
    "rows",
    [
        # gap between intervals
        [
            {"id": 1, "label": "a", "lower": 0.0, "upper": 2.0, "fhwa": []},
            {"id": 2, "label": "b", "lower": 3.0, "upper": None, "fhwa": []},
        ],
        # does not start at zero
        [{"id": 1, "label": "a", "lower": 1.0, "upper": None, "fhwa": []}],
        # does not reach infinity
        [{"id": 1, "label": "a", "lower": 0.0, "upper": 9.0, "fhwa": []}],
        # wrong id numbering
        [{"id": 2, "label": "a", "lower": 0.0, "upper": None, "fhwa": []}],
        # no classes
        [],
        # an empty interval
        [
            {"id": 1, "label": "a", "lower": 0.0, "upper": 0.0, "fhwa": []},
            {"id": 2, "label": "b", "lower": 0.0, "upper": None, "fhwa": []},
        ],
        # not a list
        {"id": 1, "label": "a", "lower": 0.0, "upper": None, "fhwa": []},
    ],
)
def test_invalid_tables_rejected(rows):
    with pytest.raises(UserInputError, match="^(last )?class"):
        class_table_from_obj(rows)
