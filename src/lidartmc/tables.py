"""Count tables and their CSV text.

A :class:`TmcTable` indexes nonnegative counts by (time bin, approach,
movement, vehicle class). Estimates and ground truth share the type and
the CSV schema, so either side of a comparison can come from a file:

    bin_start,approach,class,left,thru,right,uturn

Bins are left-closed right-open; ``bin_start`` is the absolute start
time in seconds. Exports write the full grid including zero rows so a
table round-trips exactly through :func:`~lidartmc.report.load_tmc_csv`.

:func:`n_bins` is the one size rule of a table and :func:`zero_grid`
the one allocator of its counts, which applies the rule first.
``estimate`` and ``simulate`` write tables and compare none, so they
import this module and never ``report``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import UserInputError
from .geo import atomic_write_text
from .intersection import APPROACHES, MOVEMENTS

# One count column per movement, in the order of the table's movement axis.
GT_CSV_HEADER = ("bin_start", "approach", "class", *(m.value.lower() for m in MOVEMENTS))

DEFAULT_BIN_SECONDS = 300.0
# Bins of one table: 10**5 bins of 300 s is almost a year, and the int64
# grid of six classes is then 77 MB. A table of more classes holds at most
# as many bin-class cells.
MAX_BINS = 10**5


@dataclass(frozen=True)
class TmcTable:
    """Counts on a (bins, approaches, movements, classes) grid."""

    bin_seconds: float
    session: tuple[float, float]
    counts: np.ndarray  # int64, shape (n_bins, 4, 4, n_classes)

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 4 or c.shape[1] != len(APPROACHES) or c.shape[2] != len(MOVEMENTS):
            raise ValueError(f"counts has wrong shape {c.shape}")
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        expected_bins = n_bins(self.bin_seconds, self.session, c.shape[3])
        if c.shape[0] != expected_bins:
            raise ValueError(
                f"counts has {c.shape[0]} bins, session implies {expected_bins}"
            )
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def n_classes(self) -> int:
        return self.counts.shape[3]

    def bin_start(self, index: int) -> float:
        return self.session[0] + index * self.bin_seconds

    def __eq__(self, other) -> bool:
        if not isinstance(other, TmcTable):
            return NotImplemented
        return (
            self.bin_seconds == other.bin_seconds
            and self.session == other.session
            and bool(np.array_equal(self.counts, other.counts))
        )


def n_bins(bin_seconds: float, session: tuple[float, float], classes: int) -> int:
    """The bins of a table of ``classes`` classes on ``session``: at least
    one if the session is not empty, at most MAX_BINS, and at most
    ``MAX_BINS * 6`` bin-class cells. Past a bound, a UserInputError."""
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    span = session[1] - session[0]
    if span < 0:
        raise ValueError("session end precedes start")
    if not span / bin_seconds <= MAX_BINS:  # also false for an infinite or NaN span
        raise UserInputError(
            f"session {list(session)} must span at most {MAX_BINS} bins of {bin_seconds} s"
        )
    bins = max(math.ceil(span / bin_seconds - 1e-9), int(span > 0))
    if bins * classes > MAX_BINS * 6:
        raise UserInputError(f"a table of {bins} bins of {classes} classes is larger than "
                             f"{MAX_BINS} bins of 6 classes")
    return bins


def zero_grid(bin_seconds: float, session: tuple[float, float], classes: int) -> np.ndarray:
    """The writeable zero counts of a table, allocated once :func:`n_bins` passes."""
    bins = n_bins(bin_seconds, session, classes)
    return np.zeros((bins, len(APPROACHES), len(MOVEMENTS), classes), dtype=np.int64)


def save_tmc_csv(table: TmcTable, path) -> None:
    atomic_write_text(path, render_tmc_csv(table))


def render_tmc_csv(table: TmcTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(GT_CSV_HEADER)
    for b in range(table.counts.shape[0]):
        for a_i, a in enumerate(APPROACHES):
            for c in range(table.n_classes):
                writer.writerow(
                    [repr(table.bin_start(b)), a.value, c + 1,
                     *table.counts[b, a_i, :, c].tolist()]
                )
    return buf.getvalue()
