"""Exception hierarchy.

``UserInputError`` and its subclasses mark problems with user-supplied
files, flags, or configuration; the CLI maps them to exit code 2.
Everything else that escapes is treated as an internal error (exit 1).

Every error pickles to an equal one (type, message and attributes), so a
forked parse can hand its error to the parent process.

``json_number`` is the one reader of a number from a decoded JSON
document; each loader turns its ``TypeError`` into a ``SchemaError``.
"""

from __future__ import annotations


class TmcError(Exception):
    """Base class for all package errors."""


class UserInputError(TmcError):
    """Bad input data, configuration, or arguments."""


class SchemaError(UserInputError):
    """A file does not match its documented schema."""


class MalformedLineError(UserInputError):
    """A detection-log line could not be parsed.

    Recoverable: non-strict parsing skips the line and records the error.
    """

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.line_no, self.reason)


class InvalidFieldError(MalformedLineError):
    """A detection-log line parsed but carried an invalid field value."""


class OutOfOrderError(UserInputError):
    """A frame arrived more than the reorder window out of order."""

    def __init__(self, frame_id: str, t: float, window: float):
        super().__init__(
            f"frame from sensor {frame_id!r} at t={t} is more than "
            f"{window}s out of order"
        )
        self.frame_id = frame_id
        self.t = t
        self.window = window

    def __reduce__(self):
        return type(self), (self.frame_id, self.t, self.window)


class UnregisteredFrameError(UserInputError):
    """A sensor frame id has no transform in the registry."""

    def __init__(self, frame_id: str):
        super().__init__(f"sensor frame {frame_id!r} is not registered")
        self.frame_id = frame_id

    def __reduce__(self):
        return type(self), (self.frame_id,)


class InsufficientPointsError(UserInputError):
    """Fewer correspondence pairs than the solver requires."""


class CollinearPointsError(UserInputError):
    """Sensor-side control points are collinear; pose is unobservable."""


class TimeOutsideScheduleError(UserInputError):
    """Permissibility queried outside the schedule's session bounds."""

    def __init__(self, t: float, session: tuple[float, float]):
        super().__init__(
            f"t={t} outside schedule session [{session[0]}, {session[1]})"
        )
        self.t = t
        self.session = session

    def __reduce__(self):
        return type(self), (self.t, self.session)


class ConfigInvariantError(UserInputError):
    """An intersection config violates a structural invariant."""


class MisconfiguredSurrogateError(UserInputError):
    """An egress zone used for right-turn counting has ambiguous bindings."""


class IncompatibleBinningError(UserInputError):
    """Two count tables have different bin duration or session bounds."""


class NonpositiveLengthError(UserInputError):
    """A vehicle length must be a positive finite number."""


class ScriptValidationError(UserInputError):
    """A simulation script is inconsistent with the intersection config."""


def json_number(value) -> float:
    """A number from a decoded JSON document, as a float.

    ``json`` decodes a number to an int or a float. A string or a boolean
    (``bool`` is an ``int`` subclass) where a number belongs raises
    ``TypeError`` instead of being coerced, and so does ``null``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)
