"""Count tables, aggregation, ground-truth ingestion, and error reports.

A :class:`TmcTable` indexes nonnegative counts by (time bin, approach,
movement, vehicle class). Estimates and ground truth share the type and
the CSV schema, so either side of a comparison can come from a file:

    bin_start,approach,class,left,thru,right,uturn

Bins are left-closed right-open; ``bin_start`` is the absolute start
time in seconds. Exports write the full grid including zero rows so a
table round-trips exactly; loads accept sparse rows (missing = zero).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import IncompatibleBinningError, SchemaError, UserInputError
from .geo import atomic_write_text
from .intersection import APPROACH_INDEX, APPROACHES, MOVEMENTS, Approach

DIMS = ("time", "approach", "movement", "class")
# One count column per movement, in the order of the table's movement axis.
GT_CSV_HEADER = ("bin_start", "approach", "class", *(m.value.lower() for m in MOVEMENTS))
REPORT_CSV_HEADER = ("group", "estimated", "ground_truth", "abs_error", "pct_error")

DEFAULT_BIN_SECONDS = 300.0
# Bins of one table: 10**5 bins of 300 s is almost a year, and the int64
# grid of six classes is then 77 MB. A loaded table holds at most as many
# bins times classes.
MAX_BINS = 10**5
INT64_MAX = int(np.iinfo(np.int64).max)


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
        expected_bins = n_bins(self.bin_seconds, self.session)
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


def n_bins(bin_seconds: float, session: tuple[float, float]) -> int:
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    span = session[1] - session[0]
    if span < 0:
        raise ValueError("session end precedes start")
    if not span / bin_seconds <= MAX_BINS:  # also false for an infinite or NaN span
        raise UserInputError(
            f"session {list(session)} must span at most {MAX_BINS} bins of {bin_seconds} s"
        )
    return max(int(math.ceil(span / bin_seconds - 1e-9)), 0)


def empty_table(
    bin_seconds: float, session: tuple[float, float], classes: int = 6
) -> TmcTable:
    return TmcTable(
        bin_seconds,
        session,
        np.zeros((n_bins(bin_seconds, session), len(APPROACHES), len(MOVEMENTS), classes), dtype=np.int64),
    )


@dataclass(frozen=True)
class Marginal:
    """A table summed down to ``dims``; keys follow DIMS order."""

    dims: tuple[str, ...]
    counts: dict[tuple, int]


def aggregate(table: TmcTable, keep: Iterable[str]) -> Marginal:
    """Sum over every dimension not in ``keep``; grand total is preserved."""
    keep_set = list(dict.fromkeys(keep))
    bad = [k for k in keep_set if k not in DIMS]
    if bad:
        raise ValueError(f"unknown dimensions {bad}; valid: {DIMS}")
    if not keep_set:
        raise ValueError("keep must name at least one dimension")
    kept = tuple(d for d in DIMS if d in keep_set)
    axes = tuple(i for i, d in enumerate(DIMS) if d not in keep_set)
    reduced = table.counts.sum(axis=axes) if axes else table.counts
    labels = {
        "time": [table.bin_start(i) for i in range(table.counts.shape[0])],
        "approach": [a.value for a in APPROACHES],
        "movement": [m.value for m in MOVEMENTS],
        "class": list(range(1, table.n_classes + 1)),
    }
    counts: dict[tuple, int] = {}
    for idx in np.ndindex(reduced.shape):
        key = tuple(labels[d][i] for d, i in zip(kept, idx))
        counts[key] = int(reduced[idx])
    return Marginal(kept, counts)


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


def load_tmc_csv(path, bin_seconds: float = DEFAULT_BIN_SECONDS) -> TmcTable:
    """Load a count table from CSV (ground truth or a prior estimate).

    Session bounds are inferred as [min bin_start, max bin_start +
    bin_seconds]; rows may appear in any order and missing rows are zero.
    The class axis holds six classes, or up to the highest class id in
    the file if that is more. A header-only file yields an empty zero-bin
    table. The counts of the whole file must sum within int64, so no
    cell or marginal can wrap.
    """
    rows: list[tuple[float, Approach, int, list[int]]] = []
    total = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != GT_CSV_HEADER:
            raise SchemaError(
                f"count table must start with header {','.join(GT_CSV_HEADER)}"
            )
        for i, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(GT_CSV_HEADER):
                raise SchemaError(f"line {i}: expected {len(GT_CSV_HEADER)} fields, got {len(row)}")
            try:
                bin_start = float(row[0])
                approach = Approach(row[1].strip())
                class_id = int(row[2])
                counts = [int(v) for v in row[3:]]
            except ValueError as exc:
                raise SchemaError(f"line {i}: {exc}") from None
            if class_id < 1:
                raise SchemaError(f"line {i}: class {class_id} must be at least 1")
            for v in counts:
                if v < 0:
                    raise UserInputError(f"line {i}: negative count {v}")
            total += sum(counts)
            if total > INT64_MAX:
                raise SchemaError(f"line {i}: counts so far sum past the int64 limit {INT64_MAX}")
            rows.append((bin_start, approach, class_id, counts))
    if not rows:
        return empty_table(bin_seconds, (0.0, 0.0))
    starts = sorted({r[0] for r in rows})
    session = (starts[0], starts[-1] + bin_seconds)
    bins = n_bins(bin_seconds, session)
    classes = max(6, max(r[2] for r in rows))
    if bins * classes > MAX_BINS * 6:
        raise UserInputError(
            f"a table of {bins} bins of {classes} classes is larger than "
            f"{MAX_BINS} bins of 6 classes"
        )
    table = np.zeros((bins, len(APPROACHES), len(MOVEMENTS), classes), dtype=np.int64)
    for bin_start, approach, class_id, counts in rows:
        b = (bin_start - session[0]) / bin_seconds
        if abs(b - round(b)) > 1e-6:
            raise SchemaError(
                f"bin_start {bin_start} is not on the {bin_seconds}s bin grid"
            )
        b = int(round(b))
        table[b, APPROACH_INDEX[approach], :, class_id - 1] += counts
    return TmcTable(bin_seconds, session, table)


@dataclass(frozen=True)
class ErrorRow:
    key: tuple
    estimated: int
    ground_truth: int

    @property
    def abs_error(self) -> int:
        return abs(self.estimated - self.ground_truth)

    @property
    def pct_error(self) -> float | None:
        if self.ground_truth == 0:
            return None
        return abs(self.estimated - self.ground_truth) / self.ground_truth * 100.0


@dataclass(frozen=True)
class ErrorReport:
    dims: tuple[str, ...]
    rows: tuple[ErrorRow, ...]
    volume_share_est: tuple[float, ...] | None  # per class 1..n, percent
    volume_share_gt: tuple[float, ...] | None


def _volume_shares(table: TmcTable) -> tuple[float, ...] | None:
    per_class = table.counts.sum(axis=(0, 1, 2))
    grand = int(per_class.sum())
    if grand == 0:
        return None
    return tuple(float(v) / grand * 100.0 for v in per_class)


def _on_common_grid(a: TmcTable, b: TmcTable) -> tuple[TmcTable, TmcTable]:
    """Both tables padded with zero bins onto one session that covers both,
    or both unchanged when their bins do not line up."""
    step = a.bin_seconds
    shift = (b.session[0] - a.session[0]) / step
    if abs(shift - round(shift)) > 1e-6:
        return a, b
    start = min(a.session[0], b.session[0])
    bins = max(
        round((t.session[0] - start) / step) + t.counts.shape[0] for t in (a, b)
    )
    session = (start, start + bins * step)

    def pad(t: TmcTable) -> TmcTable:
        lead = round((t.session[0] - start) / step)
        width = [(lead, bins - lead - t.counts.shape[0])] + [(0, 0)] * 3
        return TmcTable(step, session, np.pad(t.counts, width))

    return pad(a), pad(b)


def compare(
    est: TmcTable,
    gt: TmcTable,
    group_by: Sequence[str] = ("approach", "movement"),
) -> ErrorReport:
    """Per-group estimated vs ground-truth errors plus class volume shares.

    A loaded table's session runs from its first to its last row, so a
    sparse file that leaves out its leading all-zero bins starts late.
    When the two sessions start a whole number of bins apart, both
    tables are padded with zero bins onto the grid that covers both.
    """
    if est.bin_seconds == gt.bin_seconds and est.session[0] != gt.session[0]:
        est, gt = _on_common_grid(est, gt)
    if (
        est.bin_seconds != gt.bin_seconds
        or est.session != gt.session
        or est.n_classes != gt.n_classes
    ):
        raise IncompatibleBinningError(
            "estimate and ground truth have different bin duration or session"
        )
    est_m = aggregate(est, group_by)
    gt_m = aggregate(gt, group_by)
    rows = tuple(
        ErrorRow(key, est_m.counts[key], gt_m.counts[key]) for key in est_m.counts
    )
    return ErrorReport(
        dims=est_m.dims,
        rows=rows,
        volume_share_est=_volume_shares(est),
        volume_share_gt=_volume_shares(gt),
    )


def _key_str(key: tuple) -> str:
    return "/".join(str(k) for k in key)


def render_report(report: ErrorReport, fmt: str = "text") -> str:
    """Render as ``csv`` (rows only) or ``text`` (table plus shares)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_CSV_HEADER)
        for row in report.rows:
            pct = "n/a" if row.pct_error is None else repr(row.pct_error)
            writer.writerow(
                [_key_str(row.key), row.estimated, row.ground_truth, row.abs_error, pct]
            )
        return buf.getvalue()
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = []
    header = f"{'group':<24} {'est':>8} {'gt':>8} {'abs':>6} {'pct':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.rows:
        pct = "n/a" if row.pct_error is None else f"{row.pct_error:.3f}%"
        lines.append(
            f"{_key_str(row.key):<24} {row.estimated:>8} {row.ground_truth:>8} "
            f"{row.abs_error:>6} {pct:>10}"
        )
    for label, shares in (
        ("estimated", report.volume_share_est),
        ("ground truth", report.volume_share_gt),
    ):
        if shares is not None:
            parts = ", ".join(
                f"class {i + 1}: {s:.2f}%" for i, s in enumerate(shares)
            )
            lines.append(f"volume shares ({label}): {parts}")
    return "\n".join(lines) + "\n"
