import pytest

from qpair.counts import BoundExceededError
from qpair.frobenius import (
    FrobeniusSymbol,
    count_rank_bounded,
    enumerate_symbols,
    joichi_stanton,
    joichi_stanton_inverse,
    rank_interval,
    rows_of,
    successive_ranks,
    symbols_of,
)
from qpair.overpartitions import count_frequency_pairs, pairs_of


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
        assert list(enumerate_symbols(0)) == [FrobeniusSymbol([], [])]

    def test_weight_one(self):
        symbols = list(enumerate_symbols(1))
        assert len(symbols) == 4
        for f in symbols:
            assert f.columns == 1
            assert f.top[0][0] == 0 and f.bottom[0][0] == 0

    def test_equinumerous_with_pairs(self):
        for n in range(9):
            assert len(symbols_of(n)) == len(pairs_of(n))

    def test_rows_allow_overlined_zero(self):
        rows = rows_of(2, 0)
        assert ((0, True), (0, False)) in rows
        assert ((0, False), (0, False)) in rows
        assert len(rows) == 2

    def test_bound_guard(self):
        with pytest.raises(BoundExceededError):
            list(enumerate_symbols(15))


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
        assert t.get(0, 0, 0) == 1

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


def reference_joichi_stanton(row):
    """Cache-free row split, as first written."""
    n = len(row)
    marked = [m for m in range(1, n + 1) if row[m - 1][1]]
    assoc = tuple(row[p - 1][0] - sum(1 for m in marked if m > p) for p in range(1, n + 1))
    return assoc, tuple(sorted((m - 1 for m in marked), reverse=True))
