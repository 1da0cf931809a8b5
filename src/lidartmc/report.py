"""Count-table loading, aggregation, and error reports: what ``compare`` runs.

:func:`load_tmc_csv` reads a :class:`~lidartmc.tables.TmcTable` from the
CSV schema that :mod:`lidartmc.tables` writes, and accepts sparse rows
(missing = zero), so either side of a comparison can come from a file.
:func:`compare` reports the per-group error of an estimate against
ground truth. Grids it loads or pads come from ``tables.zero_grid``.
``estimate`` and ``simulate`` only write tables, so they never load it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import UserInputError
from .geo import csv_rows
from .intersection import APPROACH_INDEX, APPROACHES, MOVEMENTS, Approach
from .tables import DEFAULT_BIN_SECONDS, GT_CSV_HEADER, TmcTable, zero_grid
# Not used here: the per-layer benchmark imports the table renderer from
# this module until it runs the CLI's own stages (ROADMAP item 2).
from .tables import render_tmc_csv  # noqa: F401

DIMS = ("time", "approach", "movement", "class")
REPORT_CSV_HEADER = ("group", "estimated", "ground_truth", "abs_error", "pct_error")

INT64_MAX = int(np.iinfo(np.int64).max)


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


def load_tmc_csv(path, bin_seconds: float = DEFAULT_BIN_SECONDS) -> TmcTable:
    """Load a count table from CSV (ground truth or a prior estimate).

    Session bounds are inferred as [min bin_start, max bin_start +
    bin_seconds]; rows may appear in any order and missing rows are zero.
    The class axis holds six classes, or up to the highest class id in
    the file if that is more. A header-only file yields an empty zero-bin
    table. Each row's bin must end after it starts, and float spacing may not
    stretch the last one into two (12 s bins at 1e17 end 16 s on). The counts
    of the whole file must sum within int64, so no cell or marginal can wrap.
    A second row of one (bin, approach, class) is refused, not added in.
    """
    rows: list[tuple[float, Approach, int, list[int], int]] = []
    total = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for i, row in csv_rows(fh, GT_CSV_HEADER, "count table"):
            if len(row) != len(GT_CSV_HEADER):
                raise UserInputError(
                    f"line {i}: expected {len(GT_CSV_HEADER)} fields, got {len(row)}")
            try:
                bin_start = float(row[0])
                approach = Approach(row[1].strip())
                class_id = int(row[2])
                counts = [int(v) for v in row[3:]]
            except ValueError as exc:
                raise UserInputError(f"line {i}: {exc}") from None
            if not math.isfinite(bin_start):
                raise UserInputError(f"line {i}: bin_start must be finite, got {row[0]!r}")
            if bin_start + bin_seconds == bin_start:
                raise UserInputError(
                    f"line {i}: a {bin_seconds} s bin at {bin_start} ends where it starts")
            if class_id < 1:
                raise UserInputError(f"line {i}: class {class_id} must be at least 1")
            for v in counts:
                if v < 0:
                    raise UserInputError(f"line {i}: negative count {v}")
            total += sum(counts)
            if total > INT64_MAX:
                raise UserInputError(
                    f"line {i}: counts so far sum past the int64 limit {INT64_MAX}")
            rows.append((bin_start, approach, class_id, counts, i))
    starts = [r[0] for r in rows]
    session = (min(starts), max(starts) + bin_seconds) if rows else (0.0, 0.0)
    table = zero_grid(bin_seconds, session, max([6, *(r[2] for r in rows)]))
    first_rows: dict[tuple, int] = {}
    for bin_start, approach, class_id, counts, i in rows:
        b = (bin_start - session[0]) / bin_seconds
        if abs(b - round(b)) > 1e-6:
            raise UserInputError(
                f"line {i}: bin_start {bin_start} is not on the {bin_seconds}s bin grid")
        b = int(round(b))
        if bin_start + bin_seconds == session[1] and b + 1 < len(table):  # a stretched last bin
            raise UserInputError(f"line {i}: a {bin_seconds} s bin at {bin_start} ends "
                                 f"{session[1] - bin_start} s after it starts")
        first = first_rows.setdefault((b, approach, class_id), i)
        if first != i:
            raise UserInputError(f"line {i}: bin {bin_start}, approach {approach.value}, "
                                 f"class {class_id} repeats line {first}")
        table[b, APPROACH_INDEX[approach], :, class_id - 1] = counts
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
        counts = zero_grid(step, session, t.n_classes)
        lead = round((t.session[0] - start) / step)
        counts[lead:lead + t.counts.shape[0]] = t.counts
        return TmcTable(step, session, counts)

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
    if est.bin_seconds != gt.bin_seconds or est.session != gt.session:
        raise UserInputError(
            "estimate and ground truth have different bin duration or session"
        )
    if est.n_classes != gt.n_classes:
        raise UserInputError(
            f"estimate has {est.n_classes} vehicle classes, ground truth {gt.n_classes}"
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
