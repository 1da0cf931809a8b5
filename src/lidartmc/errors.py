"""The two exception types of the exit-code contract.

A ``UserInputError`` is a problem with a user-supplied file, flag or
configuration: the CLI prints its message and exits 2, and whatever else
escapes is an internal error (exit 1). The message says what is wrong,
so only one kind is told apart by type: a ``MalformedLineError``, the
detection-log line that the parse skips and counts. Both pickle
to an equal error, so a forked parse can hand its error to the parent.

``json_number`` is the one reader of a number from a decoded JSON
document and ``json_string`` that of a string; each loader turns their
``TypeError`` into a ``UserInputError``.
"""

from __future__ import annotations


class UserInputError(Exception):
    """Bad input data, configuration, or arguments."""


class MalformedLineError(UserInputError):
    """A detection-log line that could not be parsed or carried an
    invalid field value; the parse skips it and records this."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.line_no, self.reason)


def json_number(value) -> float:
    """A number from a decoded JSON document, as a float.

    ``json`` decodes a number to an int or a float. A string or a boolean
    (``bool`` is an ``int`` subclass) where a number belongs raises
    ``TypeError`` instead of being coerced, and so does ``null``; the
    message names a list or an object, whose repr could nest too deep to
    print. An integer past the float range raises ``OverflowError``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        what = {list: "a list", dict: "an object"}.get(type(value)) or repr(value)
        raise TypeError(f"expected a number, got {what}")
    return float(value)


def json_string(value, name: str) -> str:
    """A string from a decoded JSON document. Anything else, a number or
    a list included, raises ``TypeError`` naming the field ``name``
    instead of being coerced by ``str``."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value
