from itertools import product

import pytest

from qpair import frobenius
from qpair.counts import BoundExceededError, CountTable, cell_shift, shift_add, tally
from qpair.frobenius import (
    FrobeniusSymbol,
    canonical_row,
    count_rank_bounded,
    joichi_stanton,
    joichi_stanton_inverse,
    rank_bounded_symbols,
    rank_interval,
    rows_of,
    successive_ranks,
    symbols_of,
    symbols_up_to,
)
from qpair.overpartitions import count_frequency_pairs, least_left, pairs_of


def row(*parts):
    """Entries as ints, negative meaning overlined (use ~0 spelled as None)."""
    out = []
    for p in parts:
        if isinstance(p, tuple):
            out.append(p)
        else:
            out.append((abs(p), p < 0))
    return out


# The worked rank example: top (7~,4,2~,0), bottom (3~,3,1,0~).
RANKS_SYMBOL = FrobeniusSymbol(
    row(-7, 4, -2, 0),
    row(-3, 3, 1, (0, True)),
)

# The worked eight-column symbol and its row decompositions.
PI = FrobeniusSymbol(
    row(12, 12, -8, 7, 6, -3, 2, -1),
    row(14, 12, -10, -8, 6, 5, -3, 2),
)


class TestSuccessiveRanks:
    def test_worked_example(self):
        assert successive_ranks(RANKS_SYMBOL) == (4, 1, 2, 0)

    def test_single_overlined_column(self):
        f = FrobeniusSymbol([(5, True)], [(2, True)])
        assert successive_ranks(f) == (3,)

    def test_empty_symbol(self):
        assert successive_ranks(FrobeniusSymbol([], [])) == ()


class TestSymbolBasics:
    def test_weight(self):
        assert RANKS_SYMBOL.weight() == 4 + (7 + 4 + 2 + 0) + (3 + 3 + 1 + 0)
        assert PI.weight() == 8 + 51 + 60

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            FrobeniusSymbol([(1, False)], [])

    def test_stats_of_worked_rank_window_example(self):
        # The eight-column symbol counted at (s, t, n) = (3, 4, 115).
        f = FrobeniusSymbol(
            row(14, -12, 12, 8, -7, -4, -3, 2),
            row(-9, -8, 8, -7, -5, -4, 3, 1),
        )
        assert f.weight() == 115
        assert f.s_stat() == 3
        assert f.t_stat() == 4
        lo, hi = rank_interval(5, 3)
        assert (lo, hi) == (-1, 6)
        assert all(lo <= r <= hi for r in successive_ranks(f))

    def test_json_round_trip(self):
        obj = PI.to_obj()
        assert FrobeniusSymbol.from_obj(obj) == PI


class TestEnumeration:
    def test_weight_zero(self):
        assert symbols_of(0) == (FrobeniusSymbol([], []),)

    def test_weight_one(self):
        symbols = symbols_of(1)
        assert len(symbols) == 4
        for f in symbols:
            assert f.columns == 1
            assert f.top[0][0] == 0 and f.bottom[0][0] == 0

    def test_equinumerous_with_pairs(self):
        for n in range(9):
            assert len(symbols_of(n)) == len(pairs_of(n))

    def test_cached_symbols_are_read_only(self):
        # symbols_of is cached and shared: no caller can change the symbol a
        # later one gets, and the lazy rank range still fills in.
        f = symbols_of(2)[0]
        for field in ("top", "bottom"):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(f, field, ((5, False),))
            with pytest.raises(AttributeError, match="read-only"):
                delattr(f, field)
        assert symbols_of(2)[0].weight() == 2
        fresh = FrobeniusSymbol(f.top, f.bottom)
        assert fresh._rank_range is None
        assert fresh._ranks_within(-2, 2) and fresh._rank_range == (-1, -1)

    def test_rows_allow_overlined_zero(self):
        rows = rows_of(2, 0)
        assert ((0, True), (0, False)) in rows
        assert ((0, False), (0, False)) in rows
        assert len(rows) == 2

    def test_bound_guard(self):
        with pytest.raises(BoundExceededError):
            count_rank_bounded(2, 1, 15)
        with pytest.raises(BoundExceededError):
            count_rank_bounded(2, 1, 4, bound=3)
        assert count_rank_bounded(2, 1, 3, bound=3).n_max == 3


class TestJoichiStanton:
    def test_worked_top_row(self):
        assoc, marks = joichi_stanton(PI.top)
        assert assoc == (9, 9, 6, 5, 4, 2, 1, 1)
        assert marks == (7, 5, 2)

    def test_worked_bottom_row(self):
        assoc, marks = joichi_stanton(PI.bottom)
        assert assoc == (11, 9, 8, 7, 5, 4, 3, 2)
        assert marks == (6, 3, 2)

    def test_no_overlines_is_identity(self):
        assoc, marks = joichi_stanton([(4, False), (2, False), (2, False)])
        assert assoc == (4, 2, 2)
        assert marks == ()

    def test_round_trip_small(self):
        for total in range(13):
            for length in range(9):
                for r in rows_of(length, total):
                    assoc, marks = joichi_stanton(r)
                    assert sum(assoc) + sum(marks) == total
                    assert joichi_stanton_inverse(assoc, marks) == r

    def test_inverse_rejects_bad_marks(self):
        with pytest.raises(ValueError, match="distinct"):
            joichi_stanton_inverse((1, 0), (0, 0))
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            joichi_stanton_inverse((1, 0), (2,))


class TestRankBoundedCounts:
    def test_empty_symbol_counted(self):
        t = count_rank_bounded(2, 2, 0)
        assert t.entries[0, 0, 0] == 1

    def test_matches_frequency_family(self):
        # Rank-window counts agree with the frequency-condition counts.
        for k, i in ((2, 1), (2, 2), (3, 2)):
            c = count_rank_bounded(k, i, 8)
            b = count_frequency_pairs(k, i, 8)
            assert c.first_mismatch(b) is None

    def test_tilde_interval_nested(self):
        plain = count_rank_bounded(3, 2, 8)
        tilde = count_rank_bounded(3, 2, 8, tilde=True)
        for key, w in tilde.entries.items():
            assert w <= plain.entries.get(key, 0)


class TestColumnScan:
    """The column scan against the tally of the symbols it counts, which
    ties the C tables to the objects."""

    @pytest.mark.parametrize("tilde", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_equals_tally_of_the_stream(self, k, tilde):
        # At k 6 six starts share one row; the tally stops at weight 8 there.
        for i in range(1, k + 1):
            for n in (0, 1, 5, 8) if k == 6 else (0, 1, 5, 10, 12):
                want = tally(rank_bounded_symbols(k, i, n, tilde), n)
                assert count_rank_bounded(k, i, n, tilde) == want, (i, n)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_equals_tally_in_the_widened_window(self, k, monkeypatch):
        from qpair.verify import _mutated_interval

        monkeypatch.setenv("QPAIR_SELFTEST_MUTATION", "rank-interval")
        for i in range(1, k + 1):
            for tilde in (False, True):
                lo, hi = rank_interval(k, i, tilde)
                window = _mutated_interval(k, i, tilde)
                assert window == (lo, hi + 1)
                want = tally(ref_rank_bounded(10, *window), 10)
                assert count_rank_bounded(k, i, 10, tilde, interval=window) == want, (i, tilde)

    def test_empty_window_admits_only_the_empty_symbol(self):
        # No rank lies in [1, 0], and the empty symbol has no ranks.
        only_empty = CountTable(10, {(0, 0, 0): 1})
        assert tally(ref_rank_bounded(10, 1, 0), 10) == only_empty
        assert count_rank_bounded(3, 2, 10, interval=(1, 0)) == only_empty

    @pytest.mark.parametrize("tilde", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_shared_scan_equals_the_one_start_scan(self, k, tilde):
        # A table reads start i of the scan shared by every i, for the (k, i)
        # window and for one widened as by the verify self-test hook; the
        # scan of the same window from the one start d' = 0 counts the same.
        for i in range(1, k + 1):
            lo, hi = rank_interval(k, i, tilde)
            for n in range(13):
                assert count_rank_bounded(k, i, n, tilde) == one_start_table(lo, hi, n), (i, n)
                assert count_rank_bounded(k, i, n, tilde, interval=(lo, hi + 1)) == \
                    one_start_table(lo, hi + 1, n), (i, n)

    @pytest.mark.parametrize("tilde", [False, True])
    def test_every_i_shares_one_scan(self, tilde):
        frobenius._rank_rows.cache_clear()
        tables = [count_rank_bounded(4, i, 9, tilde) for i in range(1, 5)]
        assert frobenius._rank_rows.cache_info().misses == 1
        assert len(set(map(CountTable.to_json, tables))) == 4
        # So do the self-test hook's windows, one wider than each (k, i) window.
        frobenius._rank_rows.cache_clear()
        for i in range(1, 5):
            lo, hi = rank_interval(4, i, tilde)
            count_rank_bounded(4, i, 9, tilde, interval=(lo, hi + 1))
        assert frobenius._rank_rows.cache_info().misses == 1

    def test_scan_caches_ints_not_tables(self):
        count_rank_bounded(3, 2, 7)
        rows = frobenius._rank_rows(*rank_interval(3, 0), 3, 7)
        assert len(rows) == 3 and all(type(row) is tuple and len(row) == 8 for row in rows)
        assert all(type(cell) is int for row in rows for cell in row)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_half_steps_equal_the_pair_scan(self, k):
        # Both windows and the widened ones, from the starts d' = 1 .. k of
        # the reference as in the walk, every i at once.
        starts = tuple(range(1, k + 1))
        for tilde in (False, True):
            lo, hi = rank_interval(k, 0, tilde)
            for n in range(15):
                for widen in (0, 1):
                    want = reference_tables(lo, hi + widen, starts, n)
                    got = [count_rank_bounded(k, i, n, tilde, interval=(lo - i, hi + widen - i))
                           for i in starts]
                    assert got == want, (tilde, widen, n)

    @pytest.mark.parametrize("window", [(0, 3), (-1, 2), (1, 4), (2, 2), (1, 0)])
    def test_half_steps_equal_the_pair_scan_from_one_start(self, window):
        for n in range(15):
            assert count_rank_bounded(2, 1, n, interval=window) == one_start_table(*window, n), n

    def test_interval_given_as_a_list(self):
        window = rank_interval(3, 2, True)
        assert count_rank_bounded(3, 2, 9, interval=list(window)) == \
            count_rank_bounded(3, 2, 9, interval=window) == count_rank_bounded(3, 2, 9, tilde=True)

    def test_bound_is_checked_before_ki(self):
        with pytest.raises(BoundExceededError):
            count_rank_bounded(1, 1, 8, bound=5)
        with pytest.raises(ValueError, match="need k >= 2") as err:
            count_rank_bounded(1, 1, 8)
        assert not isinstance(err.value, BoundExceededError)


def one_start_table(lo, hi, n_max):
    """The table of the ranks in [lo, hi] from the reference scan of that
    window from the one start d' = 0, where d' is d."""
    return reference_tables(lo, hi, (0,), n_max)[0]


def reference_tables(lo, hi, starts, n_max):
    """The table of each start of :func:`reference_scan_rows`, read from its
    totals by d': start j keeps s in the t slots of its high slot j, and t is
    s + d' less the start."""
    scan = reference_scan_rows(lo, hi, starts, n_max)
    mask = (1 << cell_shift(1, 0, n_max)) - 1
    tables = []
    for j, start in enumerate(starts):
        entries = {}
        for d, rows in scan:
            slot = [(row >> cell_shift(j, 0, n_max)) & mask for row in rows]
            for (_zero, s, n), c in CountTable.from_rows(slot, n_max).entries.items():
                entries[s, s + d - start, n] = c
        tables.append(CountTable(n_max, entries))
    return tables


def reference_scan_rows(lo, hi, starts, n_max):
    """The column scan one (top entry, bottom entry, overlines) choice at a
    time: each state (least top, least bottom, d') steps to every column
    whose rank e_top - e_bot + d' lies in [lo, hi]."""
    size = n_max + 1
    shift_s = (cell_shift(0, 1, n_max), 0)
    totals = {d: [1 << cell_shift(j, 0, n_max)] + [0] * n_max for j, d in enumerate(starts)}
    states = {(0, 0, d): row.copy() for d, row in totals.items()}
    while states:
        following = {}
        for (least_top, least_bot, d), row in states.items():
            low = next(n for n, cell in enumerate(row) if cell)
            room, row = n_max - 1 - low, row[low:]
            for e_top in range(least_top, room + 1):
                for e_bot in range(max(least_bot, e_top + d - hi),
                                   min(room - e_top, e_top + d - lo) + 1):
                    for o_top, o_bot in product((False, True), repeat=2):
                        state = (least_left(e_top, o_top), least_left(e_bot, o_bot),
                                 d + o_bot - o_top)
                        if state not in following:
                            following[state] = [0] * size
                        shift_add(following[state], row, shift_s[o_bot], low + 1 + e_top + e_bot)
        states = following
        for (_least_top, _least_bot, d), row in states.items():
            shift_add(totals.setdefault(d, [0] * size), row, 0, 0)
    return tuple((d, tuple(rows)) for d, rows in totals.items())


def ref_rank_bounded(n_max, lo, hi):
    """Cache-free rank window: every successive rank of the symbol in [lo, hi]."""
    return [(n, f) for n, f in symbols_up_to(n_max)
            if all(lo <= r <= hi for r in successive_ranks(f))]


class TestRankRangeOracle:
    def test_windows_match_cache_free_reference(self):
        for k in (2, 3, 4):
            for i in range(1, k + 1):
                for tilde in (False, True):
                    lo, hi = rank_interval(k, i, tilde)
                    got = list(rank_bounded_symbols(k, i, 8, tilde))
                    assert got == ref_rank_bounded(8, lo, hi), (k, i, tilde)
                    # A window widened as by the verify self-test hook, read
                    # through the cached rank range of the shared listing.
                    got = [(n, f) for n, f in symbols_up_to(8) if f._ranks_within(lo, hi + 1)]
                    assert got == ref_rank_bounded(8, lo, hi + 1), (k, i, tilde)

    def test_empty_symbol_in_every_window(self):
        empty = FrobeniusSymbol([], [])
        assert symbols_of(0) == (empty,)
        for k in (2, 3, 4):
            for i in range(1, k + 1):
                for tilde in (False, True):
                    assert list(rank_bounded_symbols(k, i, 0, tilde)) == [(0, empty)]

    def test_filled_range_keeps_identity(self):
        list(rank_bounded_symbols(3, 1, 6))
        for n in range(7):
            for f in symbols_of(n):
                fresh = FrobeniusSymbol(f.top, f.bottom)
                assert fresh._rank_range is None
                assert fresh == f and hash(fresh) == hash(f)
                assert type(f._rank_range) is tuple
                fresh._ranks_within(0, 0)
                # Equal ranges are one shared tuple.
                assert fresh._rank_range is f._rank_range


def reference_successive_ranks(top, bottom):
    """Cache-free per-column ranks, right-to-left suffix counts."""
    ranks = []
    top_after = bottom_after = 0
    for (t, t_over), (b, b_over) in zip(reversed(top), reversed(bottom)):
        ranks.append(t - b - bottom_after + top_after)
        top_after += not t_over
        bottom_after += not b_over
    return tuple(reversed(ranks))


class TestCanonicalRows:
    def test_list_built_symbols_match_enumeration(self):
        for n in range(9):
            for f in symbols_of(n):
                rebuilt = FrobeniusSymbol(list(reversed(f.top)), [list(p) for p in f.bottom])
                assert rebuilt == f and hash(rebuilt) == hash(f)
                assert rebuilt.top is f.top and rebuilt.bottom is f.bottom
                for r in (f.top, f.bottom):
                    assoc, marks = joichi_stanton(list(reversed(r)))
                    assert (assoc, marks) == reference_joichi_stanton(r)
                    assert type(assoc) is tuple and type(marks) is tuple
                ranks = successive_ranks(f)
                assert type(ranks) is tuple
                assert ranks == reference_successive_ranks(f.top, f.bottom)

    def test_inverse_returns_the_shared_row(self):
        r = rows_of(3, 4)[5]
        assert joichi_stanton_inverse(*joichi_stanton(r)) is r

    def test_a_new_canonical_row_is_its_own_key(self):
        # No second copy of a row that is already canonical.
        r = tuple((size, over) for size, over in [(103, True), (103, False), (101, False)])
        assert canonical_row(r) is r
        assert canonical_row(list(r)) is r

    @pytest.mark.parametrize("top", [[(2.9, "no")], [(2.9, True)], [(2, "no")], [(False, True)]])
    def test_entries_are_not_coerced(self, top):
        with pytest.raises(ValueError, match="integer size and a boolean overline"):
            FrobeniusSymbol(top, [(0, 0)])

    def test_int_flags_come_back_as_bools(self):
        # (3, 1) == (3, True), so the canonical form must not be the key.
        r = canonical_row(((3, 1),))
        assert r == ((3, True),) and type(r[0][1]) is bool
        assert canonical_row([(3, True)]) is r


def reference_joichi_stanton(row):
    """Cache-free row split, as first written."""
    n = len(row)
    marked = [m for m in range(1, n + 1) if row[m - 1][1]]
    assoc = tuple(row[p - 1][0] - sum(1 for m in marked if m > p) for p in range(1, n + 1))
    return assoc, tuple(sorted((m - 1 for m in marked), reverse=True))
