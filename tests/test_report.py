from pathlib import Path

import numpy as np
import pytest

from lidartmc.errors import UserInputError
from lidartmc.intersection import Approach, Movement
from lidartmc.report import DIMS, aggregate, compare, load_tmc_csv, render_report
from lidartmc.tables import MAX_BINS, TmcTable, n_bins, render_tmc_csv, save_tmc_csv, zero_grid
from oracle import empty_table

GT_FIXTURE = Path(__file__).parent / "data" / "gt_drone_reference.csv"

A = {a.value: i for i, a in enumerate(Approach)}
M = {m.value: i for i, m in enumerate(Movement)}


def random_table(rng, bins=2, classes=6):
    counts = rng.integers(0, 20, (bins, 4, 4, classes))
    return TmcTable(300.0, (0.0, bins * 300.0), counts)


class TestTableFixture:
    def test_table_block_rows(self):
        table = load_tmc_csv(GT_FIXTURE)
        assert table.session == (0.0, 1200.0)
        assert table.counts.shape == (4, 4, 4, 6)
        nb0_c3 = table.counts[0, A["NB"], :, 2]
        assert nb0_c3.tolist() == [3, 38, 6, 2]
        nb0_c4 = table.counts[0, A["NB"], :, 3]
        assert nb0_c4.tolist() == [1, 11, 2, 1]

    def test_aggregate_over_movements_matches_totals(self):
        table = load_tmc_csv(GT_FIXTURE)
        marg = aggregate(table, ("time", "approach", "class"))
        assert marg.counts[(0.0, "NB", 3)] == 49
        assert marg.counts[(0.0, "NB", 4)] == 15

    def test_round_trip_exact(self, tmp_path):
        table = load_tmc_csv(GT_FIXTURE)
        out = tmp_path / "tmc.csv"
        save_tmc_csv(table, out)
        again = load_tmc_csv(out)
        assert again == table

    def test_empty_file_all_zero(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("bin_start,approach,class,left,thru,right,uturn\n")
        table = load_tmc_csv(path)
        assert table.counts.size == 0

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "bin_start,approach,class,left,thru,right,uturn\n0.0,NB,3,-1,0,0,0\n"
        )
        with pytest.raises(UserInputError):
            load_tmc_csv(path)

    @pytest.mark.parametrize("shape,fill,reason", [
        ((1, 4, 4), 0, "wrong shape"), ((1, 4, 3, 6), 0, "wrong shape"),
        ((1, 4, 4, 6), -1, "nonnegative"), ((2, 4, 4, 6), 0, "session implies 1"),
    ])
    def test_bad_counts_rejected(self, shape, fill, reason):
        with pytest.raises(ValueError, match=reason):
            TmcTable(300.0, (0.0, 300.0), np.full(shape, fill))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(UserInputError, match="^count table must start with header bin_start,"):
            load_tmc_csv(path)

    def test_off_grid_bin_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "bin_start,approach,class,left,thru,right,uturn\n"
            "0.0,NB,3,1,0,0,0\n17.0,NB,3,1,0,0,0\n"
        )
        with pytest.raises(UserInputError, match="^bin_start 17.0 is not on the 300.0s bin grid$"):
            load_tmc_csv(path)

    def test_bin_stretched_by_float_spacing_rejected(self, tmp_path):
        """Floats at 1e17 are 16 s apart, so a 12 s bin there would end 16 s
        on and size a second, empty bin: refused, naming the line."""
        path = tmp_path / "big.csv"
        path.write_text("bin_start,approach,class,left,thru,right,uturn\n1e17,NB,1,1,0,0,0\n")
        with pytest.raises(UserInputError,
                           match=r"^line 2: a 12.0 s bin at 1e\+17 ends 16.0 s after it starts$"):
            load_tmc_csv(path, 12.0)
        assert load_tmc_csv(path, 16.0).counts.shape[0] == 1

    @pytest.mark.parametrize("bin_seconds", [0.1, 1.0, 12.0, 300.0, 3600.0])
    def test_epoch_time_tables_load_bin_for_bin(self, tmp_path, bin_seconds):
        """Unix-epoch bin starts keep one bin a row, the last one with zero counts too."""
        epoch = 1_700_000_000.0
        path = tmp_path / "epoch.csv"
        path.write_text("bin_start,approach,class,left,thru,right,uturn\n"
                        f"{epoch + 2 * bin_seconds!r},SB,2,0,1,0,0\n{epoch!r},NB,1,1,0,0,0\n"
                        f"{epoch + 5 * bin_seconds!r},NB,1,0,0,0,0\n")
        table = load_tmc_csv(path, bin_seconds)
        assert table.session == (epoch, epoch + 6 * bin_seconds)
        assert table.counts.shape[0] == 6
        assert table.counts.sum() == 2 and table.counts[2, A["SB"], M["Thru"], 1] == 1


class TestGridRule:
    """One size rule for every table: at least one bin for a non-empty
    session, at most MAX_BINS bins and MAX_BINS * 6 bin-class cells."""

    def test_a_non_empty_session_gets_at_least_one_bin(self):
        assert n_bins(300.0, (5.0, 5.0), 6) == 0
        assert n_bins(300.0, (5.125, 5.1250000001), 6) == 1
        assert n_bins(1e12, (0.0, 300.0), 6) == 1
        assert n_bins(300.0, (0.0, 600.0 + 1e-7), 6) == 2
        assert n_bins(300.0, (0.0, 600.0 + 1e-6), 6) == 3

    def test_the_cell_bound_counts_the_classes(self):
        assert n_bins(0.0035, (0.0, 300.0), 6) == 85715
        with pytest.raises(UserInputError, match=r"^a table of 85715 bins of 7 classes is "
                                                 r"larger than 100000 bins of 6 classes$"):
            n_bins(0.0035, (0.0, 300.0), 7)
        assert n_bins(300.0, (0.0, 300.0), MAX_BINS * 6) == 1
        with pytest.raises(UserInputError, match="of 600001 classes is larger"):
            n_bins(300.0, (0.0, 300.0), MAX_BINS * 6 + 1)
        with pytest.raises(UserInputError, match="must span at most 100000 bins"):
            n_bins(300.0, (0.0, 300.0 * (MAX_BINS + 1)), 1)

    def test_table_checks_the_rule_with_its_own_classes(self):
        with pytest.raises(UserInputError, match="of 600001 classes is larger"):
            TmcTable(300.0, (0.0, 300.0), np.broadcast_to(np.int64(0), (1, 4, 4, 600001)))

    def test_zero_grid_is_writeable_and_sized_by_the_rule(self):
        grid = zero_grid(300.0, (5.125, 5.1250000001), 7)
        assert grid.shape == (1, 4, 4, 7) and grid.dtype == np.int64 and not grid.any()
        grid[0, 0, 0, 6] = 1
        with pytest.raises(UserInputError, match="85715 bins of 7 classes"):
            zero_grid(0.0035, (0.0, 300.0), 7)


class TestAggregate:
    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(41)
        table = random_table(rng)
        marg = aggregate(table, DIMS)
        assert sum(marg.counts.values()) == int(table.counts.sum())
        assert marg.counts[(0.0, "NB", "Left", 1)] == int(
            table.counts[0, A["NB"], M["Left"], 0]
        )

    def test_every_marginal_preserves_grand_total(self):
        rng = np.random.default_rng(42)
        table = random_table(rng)
        grand = int(table.counts.sum())
        for dim in DIMS:
            assert sum(aggregate(table, (dim,)).counts.values()) == grand

    def test_linear_in_tables(self):
        rng = np.random.default_rng(43)
        a, b = random_table(rng), random_table(rng)
        left = aggregate(TmcTable(a.bin_seconds, a.session, a.counts + b.counts),
                         ("approach", "class"))
        right_a = aggregate(a, ("approach", "class"))
        right_b = aggregate(b, ("approach", "class"))
        for key in left.counts:
            assert left.counts[key] == right_a.counts[key] + right_b.counts[key]

    def test_empty_keep_rejected(self):
        rng = np.random.default_rng(44)
        with pytest.raises(ValueError):
            aggregate(random_table(rng), ())


class TestCompare:
    def test_identical_tables_zero_errors(self):
        table = load_tmc_csv(GT_FIXTURE)
        report = compare(table, table)
        assert all(r.abs_error == 0 for r in report.rows)
        assert all(r.pct_error in (None, 0.0) for r in report.rows)

    def test_known_percentage(self):
        est = empty_table(300.0, (0.0, 300.0))
        gt = empty_table(300.0, (0.0, 300.0))
        e = np.array(est.counts)
        g = np.array(gt.counts)
        e[0, A["NB"], M["Thru"], 2] = 40
        g[0, A["NB"], M["Thru"], 2] = 38
        report = compare(
            TmcTable(300.0, (0.0, 300.0), e),
            TmcTable(300.0, (0.0, 300.0), g),
        )
        row = next(r for r in report.rows if r.key == ("NB", "Thru"))
        assert row.abs_error == 2
        assert abs(row.pct_error - 100.0 * 2 / 38) < 1e-9

    def test_zero_ground_truth_is_na(self):
        est = empty_table(300.0, (0.0, 300.0))
        e = np.array(est.counts)
        e[0, A["EB"], M["Left"], 0] = 3
        report = compare(
            TmcTable(300.0, (0.0, 300.0), e), empty_table(300.0, (0.0, 300.0))
        )
        row = next(r for r in report.rows if r.key == ("EB", "Left"))
        assert row.pct_error is None
        assert row.abs_error == 3

    def test_volume_shares_sum_to_100(self):
        rng = np.random.default_rng(45)
        table = random_table(rng)
        report = compare(table, table)
        assert abs(sum(report.volume_share_est) - 100.0) < 1e-9
        assert abs(sum(report.volume_share_gt) - 100.0) < 1e-9

    def test_incompatible_binning(self):
        a = empty_table(300.0, (0.0, 600.0))
        b = empty_table(60.0, (0.0, 600.0))
        with pytest.raises(UserInputError, match="different bin duration or session"):
            compare(a, b)
        c = empty_table(300.0, (0.0, 300.0))
        with pytest.raises(UserInputError, match="different bin duration or session"):
            compare(a, c)

    def test_start_a_whole_number_of_bins_later_is_padded(self):
        rng = np.random.default_rng(46)
        full = random_table(rng, bins=4)
        counts = np.array(full.counts)
        counts[:2] = 0
        gt = TmcTable(300.0, (0.0, 1200.0), counts)
        late = TmcTable(300.0, (600.0, 1200.0), counts[2:])
        for keep in (("time", "class"), ("approach", "movement")):
            assert compare(full, late, keep) == compare(full, gt, keep)
            assert compare(late, full, keep) == compare(gt, full, keep)

    def test_start_off_the_bin_grid_still_incompatible(self):
        a = empty_table(300.0, (0.0, 600.0))
        with pytest.raises(UserInputError, match="different bin duration or session"):
            compare(a, empty_table(300.0, (150.0, 750.0)))


GOLDEN_REPORT_CSV = """\
group,estimated,ground_truth,abs_error,pct_error
NB/Left,0,0,0,n/a
NB/Thru,40,38,2,5.263157894736842
NB/Right,0,0,0,n/a
NB/UTurn,0,0,0,n/a
SB/Left,0,0,0,n/a
SB/Thru,0,0,0,n/a
SB/Right,0,0,0,n/a
SB/UTurn,0,0,0,n/a
EB/Left,3,0,3,n/a
EB/Thru,0,0,0,n/a
EB/Right,0,0,0,n/a
EB/UTurn,0,0,0,n/a
WB/Left,0,0,0,n/a
WB/Thru,0,0,0,n/a
WB/Right,0,0,0,n/a
WB/UTurn,0,0,0,n/a
"""


class TestRender:
    def fixture_report(self):
        e = np.zeros((1, 4, 4, 6), dtype=np.int64)
        g = np.zeros((1, 4, 4, 6), dtype=np.int64)
        e[0, A["NB"], M["Thru"], 2] = 40
        g[0, A["NB"], M["Thru"], 2] = 38
        e[0, A["EB"], M["Left"], 0] = 3
        return compare(
            TmcTable(300.0, (0.0, 300.0), e), TmcTable(300.0, (0.0, 300.0), g)
        )

    def test_golden_csv(self):
        assert render_report(self.fixture_report(), "csv") == GOLDEN_REPORT_CSV

    def test_render_deterministic(self):
        report = self.fixture_report()
        assert render_report(report, "csv") == render_report(report, "csv")
        assert render_report(report, "text") == render_report(report, "text")

    def test_empty_report_header_only(self):
        # A zero-bin session grouped by time has no groups at all.
        empty = compare(
            empty_table(300.0, (0.0, 0.0)),
            empty_table(300.0, (0.0, 0.0)),
            group_by=("time",),
        )
        assert render_report(empty, "csv") == "group,estimated,ground_truth,abs_error,pct_error\n"

    def test_text_contains_shares(self):
        text = render_report(self.fixture_report(), "text")
        assert "volume shares (estimated)" in text
        assert "n/a" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(self.fixture_report(), "xml")


def test_render_tmc_csv_full_grid():
    table = empty_table(300.0, (0.0, 600.0))
    text = render_tmc_csv(table)
    # header + 2 bins x 4 approaches x 6 classes
    assert len(text.strip().splitlines()) == 1 + 2 * 4 * 6
