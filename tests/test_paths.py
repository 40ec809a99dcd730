import gc
import tracemalloc
from functools import lru_cache

import pytest

from qpair import paths
from qpair.counts import CountTable, cell_shift, state_rows, tally
from qpair.frobenius import FrobeniusSymbol, successive_ranks
from qpair.overpartitions import count_frequency_pairs
from qpair.paths import (
    E,
    NE,
    _AT_PEAK,
    _OFF_PEAK,
    LatticePath,
    _breaks_parity,
    _gf_tables,
    _paths_up_to,
    _start,
    _step,
    count_paths,
    gf_closed,
    gf_gamma_closed,
    gf_gamma_recurrence,
    gf_recurrence,
    path_to_symbol,
    paths_up_to,
    satisfies_even_conditions,
    satisfies_odd_conditions,
    symbol_to_path,
)
from qpair.hyperg import r_exponent
from qpair.qtools import f_poly, inv_qfactors, inv_qpoch
from qpair.series import TruncatedSeries, mono

MARKS = ("one", "a", "b", "ab")


def row(*parts):
    return [(abs(p), p < 0) for p in parts]


FIG1 = LatticePath(
    2,
    ["SE", "NE", "S", "SE", "NE", "SE", "NE", "S", "NE", "SW", "NE", "SE"],
    ["a", "one", "b", "ab", "one"],
)

FIG2 = LatticePath(
    1,
    ["NE", "SW", "NE", "SW", "NE", "SE", "NE", "S", "SE", "NE", "NE", "SW", "SE", "NE", "SW"],
    ["ab", "ab", "one", "a", "ab", "ab"],
)

FIG3 = LatticePath(
    2,
    "SE SE NE NE SW SE NE NE NE S NE NE SE SE SE NE SE NE NE S SE SE E NE NE SW NE SE NE NE S SE SE".split(),
    ["ab", "a", "one", "one", "b", "ab", "one", "b"],
)

FIG3_SYMBOL = FrobeniusSymbol(
    row(14, -12, 12, 8, -7, -4, -3, 2),
    row(-9, -8, 8, -7, -5, -4, 3, 1),
)


class TestMajorIndex:
    def test_first_worked_path(self):
        assert FIG1.major_index() == 26
        assert [p.x for p in FIG1.peaks()] == [2, 4, 6, 7, 7]

    def test_second_worked_path(self):
        assert FIG2.major_index() == 19
        assert [p.x for p in FIG2.peaks()] == [1, 1, 1, 3, 6, 7]

    def test_peakless_descent(self):
        p = LatticePath(3, ["SE", "SE", "SE"], [])
        assert p.major_index() == 0

    def test_third_worked_path(self):
        assert FIG3.major_index() == 115
        assert FIG3.marked_a() == 3
        assert FIG3.marked_b() == 4


class TestValidation:
    def test_south_needs_northeast(self):
        with pytest.raises(ValueError, match="follow"):
            LatticePath(1, ["SE", "S"], ["a"])

    def test_east_only_at_zero(self):
        with pytest.raises(ValueError, match="height 0"):
            LatticePath(1, ["E", "SE"], [])

    def test_must_end_on_axis(self):
        with pytest.raises(ValueError, match="x-axis"):
            LatticePath(0, ["NE"], [])

    def test_no_trailing_east(self):
        with pytest.raises(ValueError, match="E step"):
            LatticePath(1, ["SE", "E"], [])

    def test_mark_consistency(self):
        with pytest.raises(ValueError, match="ab"):
            LatticePath(0, ["NE", "SW"], ["a"])
        with pytest.raises(ValueError, match="marked a or b"):
            LatticePath(0, ["NE", "S"], ["one"])
        with pytest.raises(ValueError, match="marked a or b"):  # a peak missing from JSON
            LatticePath(0, ["NE", "S"], [None])

    def test_fault_order(self):
        # A bad step, then the end point, then the mark count come before an
        # ill-fitting mark, whichever lies first along the path.
        with pytest.raises(ValueError, match="must follow"):
            LatticePath(0, ["NE", "SW", "S"], ["a"])
        with pytest.raises(ValueError, match="x-axis"):
            LatticePath(0, ["NE", "S", "NE"], ["one"])
        with pytest.raises(ValueError, match="expected 1 peak marks"):
            LatticePath(0, ["NE", "S"], [])

    @pytest.mark.parametrize("height", [True, False, 1.7, 1.0, "1", None, -1])
    def test_start_height_is_an_int(self, height):
        # All but -1 would once have read as int(height).
        with pytest.raises(ValueError, match="must be a nonnegative integer"):
            LatticePath(height, ["SE"], [])

    def test_json_round_trip(self):
        for p in (FIG1, FIG2, FIG3):
            assert LatticePath.from_obj(p.to_obj()) == p

    def test_json_marks_in_any_order(self):
        obj = FIG1.to_obj()
        obj["marks"].reverse()
        assert LatticePath.from_obj(obj) == FIG1

    @pytest.mark.parametrize("peaks", [[-1], [True], [1], [0.0], ["0"], [None], [0, 0], [1, 1], [0, 2],
                                       [-1, 1], [False, True]])
    def test_json_mark_peaks_are_distinct_indices(self, peaks):
        # A peak is a position in the mark list: not counted from its end,
        # not a bool, not a float, and not named twice.
        obj = {"start_height": 0, "steps": ["NE", "S"] * len(peaks),
               "marks": [{"peak": p, "mark": "a"} for p in peaks]}
        with pytest.raises(ValueError, match="mark peaks"):
            LatticePath.from_obj(obj)


class TestConditions:
    def test_third_path_satisfies_odd(self):
        assert satisfies_odd_conditions(FIG3, 5, 3)

    def test_peakless_path_satisfies(self):
        p = LatticePath(1, ["SE"], [])
        assert satisfies_odd_conditions(p, 3, 2)
        assert satisfies_even_conditions(p, 3, 2)

    def test_wrong_start_height(self):
        p = LatticePath(1, ["SE"], [])
        assert not satisfies_odd_conditions(p, 3, 1)

    def test_even_subset_of_odd(self):
        for _, p in paths_up_to(3, 2, 7):
            if satisfies_even_conditions(p, 3, 2):
                assert satisfies_odd_conditions(p, 3, 2)


class TestEnumeration:
    def test_major_zero_unique(self):
        for k, i in ((2, 1), (2, 2), (3, 2), (4, 4)):
            paths = [p for _, p in paths_up_to(k, i, 0)]
            assert len(paths) == 1
            assert paths[0].major_index() == 0
            assert not paths[0].marks

    def test_matches_frequency_family(self):
        for k, i in ((2, 2), (2, 1), (3, 2)):
            e = count_paths(k, i, 8)
            b = count_frequency_pairs(k, i, 8)
            assert e.first_mismatch(b) is None

    def test_even_matches_parity_family(self):
        for k, i in ((2, 2), (3, 3)):
            e = count_paths(k, i, 8, even=True)
            b = count_frequency_pairs(k, i, 8, parity=True)
            assert e.first_mismatch(b) is None


class TestMemoisedWalk:
    """The walk's count rows against the tally of the paths it counts, which
    ties the E tables to the objects, and against the stepwise walk."""

    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_equals_tally_of_the_stream(self, k, even):
        # At k 6 six starts share one walk; the tally stops at weight 8 there.
        for i in range(1, k + 1):
            for n in (0, 1, 5, 8) if k == 6 else (0, 1, 5, 10):
                want = tally(paths_up_to(k, i, n, even), n)
                assert count_paths(k, i, n, even) == want, (i, n)

    @pytest.mark.parametrize("even", [False, True])
    def test_every_i_shares_one_walk(self, even):
        paths._walk_rows.cache_clear()
        tables = [count_paths(4, i, 9, even) for i in range(1, 5)]
        assert paths._walk_rows.cache_info().misses == 1
        assert len(set(map(CountTable.to_json, tables))) == 4

    def test_walk_caches_ints_not_tables(self):
        rows = paths._walk_rows(3, True, 7)
        assert len(rows) == 3 and all(type(row) is tuple and len(row) == 8 for row in rows)
        assert all(type(cell) is int for row in rows for cell in row)

    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_step_tables_equal_the_stepwise_walk(self, k, even):
        for n in range(17):
            assert paths._walk_rows(k, even, n) == reference_walk_rows(k, even, n), n

    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_each_budget_is_a_prefix_of_the_state_row(self, k, even, monkeypatch):
        # The reference's completions of a state within budget b are the
        # first b + 1 cells of the state's one row, which is as long as the
        # largest budget the reference visits the state with.
        built = []
        monkeypatch.setattr(paths, "state_rows", lambda *args: built.append(state_rows(*args)) or built[-1])
        for n in range(17):
            visited = reference_completions(k, even, n)
            paths._walk_rows.cache_clear()
            paths._walk_rows(k, even, n)
            rows = built[-1]
            longest = {}
            for (*state, budget), want in visited.items():
                assert rows[tuple(state)][:budget + 1] == want, (n, state, budget)
                longest[tuple(state)] = max(longest.get(tuple(state), 0), budget + 1)
            assert {state: len(row) for state, row in rows.items()} == longest, n

    def test_memo_does_not_outlive_the_call(self):
        # With the cycle collector off, a memo of the walk that referred to
        # itself held 3.7 MB after this call.  The rows are cached per
        # (k, parity, n_max), so the walk is built afresh, and all it may
        # keep is the rows of the starts.
        paths._walk_rows.cache_clear()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            count_paths(3, 2, 16, bound=16)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 1_000_000


def shift_add(into, row, shift, dn):
    """Add ``row`` into ``into`` with its cells moved by ``shift`` bits (a
    ``cell_shift``) and its weights by dn; weights past ``into`` are dropped."""
    for n, cell in zip(range(dn, len(into)), row):
        if cell:
            into[n] += cell << shift


def reference_completions(k, even, n_max):
    """The completions of each (state, budget) the stepwise walk visits,
    with every step taken afresh for each major index left to spend."""

    @lru_cache(maxsize=None)
    def completions(x, y, last, odd, budget):
        out = [int(y == 0 and last != E)] + [0] * budget
        prefix = (x, y, last, False, odd, 0) + _start(y)[6:]
        for step, mark in _AT_PEAK if last == NE else _OFF_PEAK:
            extended = _step(prefix, step, mark)
            if type(extended) is str or extended[1] >= k:
                continue
            end_x, major = extended[0], extended[6][0]
            if major + (end_x if step == NE else end_x + 1 if step == E else 0) > budget:
                continue
            peaks = extended[7]
            if even and peaks and _breaks_parity(peaks[0], k, 1):
                continue
            major, ds, dt, _top = extended[6]
            odd_next = (extended[4] - extended[5]) % 2 if even else 0
            rest = completions(extended[0], extended[1], step, odd_next, budget - major)
            shift_add(out, rest, cell_shift(ds, dt, n_max), major)
        memo[x, y, last, odd, budget] = out
        return out

    memo = {}
    for i in range(1, k + 1):
        completions(0, k - i, None, (i - 1) % 2 if even else 0, n_max)
    return memo


def reference_walk_rows(k, even, n_max):
    """The count rows of the start states in :func:`reference_completions`."""
    memo = reference_completions(k, even, n_max)
    return tuple(tuple(memo[0, k - i, None, (i - 1) % 2 if even else 0, n_max])
                 for i in range(1, k + 1))


_REF_MOVES = {"NE": (1, 1), "SE": (1, -1), "S": (0, -1), "SW": (-1, -1), "E": (1, 0)}


def ref_peaks(path):
    """Cache-free peak scan: (x, y, mark, east_odd, u, v) for each peak."""
    out = []
    x, y = 0, path.start_height
    prev = None
    east = u = v = 0
    for step in path.steps:
        if prev == "NE" and step in ("S", "SW", "SE"):
            mark = path.marks[len(out)]
            out.append((x, y, mark, east % 2 == 1, u, v))
            u += mark == "a"
            v += mark == "b"
        east += step == "E"
        dx, dy = _REF_MOVES[step]
        x, y = x + dx, y + dy
        prev = step
    return out


def ref_max_height(path):
    y = top = path.start_height
    for step in path.steps:
        y += _REF_MOVES[step][1]
        top = max(top, y)
    return top


def ref_marks_fit(steps, marks):
    """Whether each peak's mark fits the step that leaves it."""
    allowed = {"S": ("a", "b"), "SW": ("ab",), "SE": ("one",)}
    leaving = [step for prev, step in zip(steps, steps[1:]) if prev == "NE" and step in allowed]
    return all(mark in allowed[step] for mark, step in zip(marks, leaving))


class TestScanOracle:
    def test_statistics_match_cache_free_reference(self):
        for k in (2, 3, 4):
            for i in range(1, k + 1):
                for path in _paths_up_to(k, i, 8):
                    peaks = ref_peaks(path)
                    assert list(path.peaks()) == peaks
                    assert path.major_index() == sum(p[0] for p in peaks)
                    assert path.marked_a() == sum(p[2] in ("a", "ab") for p in peaks)
                    assert path.marked_b() == sum(p[2] in ("b", "ab") for p in peaks)
                    assert path.max_height() == ref_max_height(path)
                    assert satisfies_even_conditions(path, k, i) == all(
                        (x - u + v - (i - 1)) % 2 == 0
                        for x, y, _mark, _east, u, v in peaks if y == k - 1)

    def test_every_mark_is_checked(self):
        # Re-mark each peak with every mark: the path is built iff each mark fits.
        for k, i in ((2, 1), (3, 2), (4, 4)):
            for path in _paths_up_to(k, i, 6):
                for idx in range(len(path.marks)):
                    for mark in MARKS:
                        marks = path.marks[:idx] + (mark,) + path.marks[idx + 1:]
                        if ref_marks_fit(path.steps, marks):
                            LatticePath(path.start_height, path.steps, marks)
                        else:
                            with pytest.raises(ValueError, match="must be marked"):
                                LatticePath(path.start_height, path.steps, marks)

    def test_scanned_path_keeps_identity(self):
        for path in _paths_up_to(3, 2, 6):
            fresh = LatticePath(path.start_height, list(path.steps), list(path.marks))
            assert fresh == path and hash(fresh) == hash(path)
            assert type(path._stats) is tuple and type(path._peaks) is tuple
            assert fresh._stats == path._stats and fresh._peaks == path._peaks


class TestBijection:
    def test_worked_path_maps_to_symbol(self):
        assert path_to_symbol(FIG3, 5, 3) == FIG3_SYMBOL

    def test_worked_symbol_maps_back(self):
        assert symbol_to_path(FIG3_SYMBOL, 5, 3) == FIG3

    def test_empty(self):
        empty_path = LatticePath(0, [], [])
        assert path_to_symbol(empty_path, 2, 2) == FrobeniusSymbol([], [])
        assert symbol_to_path(FrobeniusSymbol([], []), 2, 2) == empty_path

    def test_round_trip_exhaustive(self):
        for k, i in ((2, 2), (3, 2)):
            for n, path in paths_up_to(k, i, 8):
                f = path_to_symbol(path, k, i)
                assert f.weight() == n
                assert f.columns == len(path.peaks())
                assert f.s_stat() == path.marked_a()
                assert f.t_stat() == path.marked_b()
                assert symbol_to_path(f, k, i) == path

    def test_even_paths_avoid_top_rank(self):
        k, i = 3, 2
        top_rank = 2 * k - i - 1
        for _, path in paths_up_to(k, i, 8, even=True):
            ranks = successive_ranks(path_to_symbol(path, k, i))
            assert all(r != top_rank for r in ranks)

    def test_out_of_window_rank_rejected(self):
        bad = FrobeniusSymbol(row(5), row(0))
        with pytest.raises(ValueError, match="outside"):
            symbol_to_path(bad, 2, 2)


def whole_tables(k, even, q_cutoff, n_peaks):
    """Reference: the recurrence tables built for levels 0..n_peaks in one
    pass, each shifted operand formed whole and cut by the sum."""
    one = TruncatedSeries.one(q_cutoff)
    zero = TruncatedSeries.zero(q_cutoff)
    E, G = {}, {}
    for i in range(1, k + 1):
        E[(i, 0)] = one
    for N in range(0, n_peaks + 1):
        G[(0, N)] = zero
        if N == 0:
            for i in range(1, k):
                G[(i, 0)] = zero
            continue
        qN = mono(1, q=N)
        step_weights = TruncatedSeries.poly(
            [mono(1, a=1), mono(1, b=1), mono(1, q=N - 1), mono(1, a=1, b=1, q=1 - N)]
        )
        for i in range(1, k):
            G[(i, N)] = G[(i - 1, N)].times_monomial(qN) + step_weights * E[(i + 1, N - 1)]
        if not even:
            E[(k, N)] = G[(k - 1, N)].times_monomial(qN) * inv_qfactors((N,), q_cutoff)
        else:
            rhs = G[(k - 2, N)].times_monomial(qN) + G[(k - 1, N)].times_monomial(mono(1, q=2 * N))
            E[(k - 1, N)] = rhs * inv_qfactors((2 * N,), q_cutoff)
            E[(k, N)] = (E[(k - 1, N)] + G[(k - 1, N)]).times_monomial(qN)
        for i in range(k - 1 if not even else k - 2, 0, -1):
            E[(i, N)] = (G[(i - 1, N)] + E[(i + 1, N)]).times_monomial(qN)
    return E, G


def reference_closed_sum(n_peaks, summands, q_cutoff):
    """Summand by summand: f_poly(n_peaks) times the sum of
    ``(-1)^n q^e / ((q)_m1 (q)_m2)`` over the ``(m1, m2, n, e)`` with e below
    the cutoff, each product formed below ``q_cutoff - e``."""
    total = TruncatedSeries.zero(q_cutoff)
    for m1, m2, n, e in summands:
        if e >= q_cutoff:
            continue
        room = q_cutoff - e
        term = inv_qpoch(m1, q_cutoff).truncated(room) * inv_qpoch(m2, q_cutoff).truncated(room)
        total = total + term.times_monomial(mono(-1 if n % 2 else 1, q=e))
    return f_poly(n_peaks, q_cutoff) * total


def reference_gf_closed(k, i, n_peaks, q_cutoff, even):
    return reference_closed_sum(n_peaks, [(n_peaks - n, n_peaks + n, n, r_exponent(k, i, n, even) - n + n_peaks)
                                          for n in range(-n_peaks, n_peaks + 1)], q_cutoff)


def reference_gf_gamma_closed(k, i, n_peaks, q_cutoff, even):
    return reference_closed_sum(n_peaks, [(n_peaks - n - 1, n_peaks + n, n, r_exponent(k, i + 1, n, even) - n)
                                          for n in range(-n_peaks, n_peaks)], q_cutoff)


class TestGeneratingFunctions:
    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_closed_sums_are_the_summand_by_summand_sums(self, k, even):
        # == compares terms, floor and cutoff.
        for q_cutoff in range(1, 17):
            for n_peaks in range(8):
                for i in range(1, k + 1):
                    want = reference_gf_closed(k, i, n_peaks, q_cutoff, even)
                    assert gf_closed(k, i, n_peaks, q_cutoff, even=even) == want, (i, n_peaks, q_cutoff)
                for i in range(k):
                    want = reference_gf_gamma_closed(k, i, n_peaks, q_cutoff, even)
                    assert gf_gamma_closed(k, i, n_peaks, q_cutoff, even=even) == want, (i, n_peaks, q_cutoff)

    def test_closed_sum_exponents_are_nonnegative(self, monkeypatch):
        # _closed_sum builds its row on [0, q_cutoff): every exponent the two
        # closed forms give it is at least 0, for k 2-8, N < 40, both parities.
        least = []

        def spy(n_peaks, summands, q_cutoff):
            least.append(min(e for *_, e in summands))
            return TruncatedSeries.zero(q_cutoff)

        monkeypatch.setattr(paths, "_closed_sum", spy)
        for k in range(2, 9):
            for even in (False, True):
                for n_peaks in range(1, 40):
                    for i in range(1, k + 1):
                        gf_closed(k, i, n_peaks, 1, even=even)
                    for i in range(k):
                        gf_gamma_closed(k, i, n_peaks, 1, even=even)
        assert len(least) == 2 * 39 * sum(2 * k for k in range(2, 9)) and min(least) == 0

    @pytest.mark.parametrize("q_cutoff", [1, 6, 12])
    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_level_tables_equal_whole_build(self, k, even, q_cutoff):
        # == compares terms, floor and cutoff, so a shifted operand cut
        # too low shows even where the terms still agree.
        for n_peaks in range(7):
            E, G = _gf_tables(k, even, q_cutoff, n_peaks)
            ref_E, ref_G = whole_tables(k, even, q_cutoff, n_peaks)
            assert dict(E) == ref_E
            assert dict(G) == ref_G

    def test_zero_peaks_is_one(self):
        for k, i in ((2, 2), (3, 1), (4, 3)):
            for even in (False, True):
                g = gf_recurrence(k, i, 0, 8, even=even)
                assert g.terms == {(0, 0, 0, 0): 1}
                c = gf_closed(k, i, 0, 8, even=even)
                assert c.terms == {(0, 0, 0, 0): 1}

    def test_cached_tables_are_read_only(self):
        E, G = _gf_tables(3, False, 8, 2)
        for table in (E, G):
            with pytest.raises(TypeError):
                table[(1, 2)] = table[(1, 1)]

    def test_gamma_at_zero_index(self):
        assert not gf_gamma_recurrence(3, 0, 2, 8).terms
        assert not gf_gamma_closed(3, 0, 2, 8).terms

    def test_one_peak_matches_enumeration(self):
        # Oracle: brute-force paths with exactly one peak.
        cutoff = 8
        g = gf_recurrence(2, 2, 1, cutoff)
        by_marks = {}
        for n, p in paths_up_to(2, 2, cutoff - 1):
            if len(p.peaks()) == 1:
                key = (p.marked_a(), p.marked_b(), n)
                by_marks[key] = by_marks.get(key, 0) + 1
        for n in range(cutoff):
            for s in range(2):
                for t in range(2):
                    assert g.coeff(s, t, 0, n) == by_marks.get((s, t, n), 0)

    def test_closed_equals_recurrence(self):
        for k in (2, 3):
            for i in range(1, k + 1):
                for even in (False, True):
                    for n_peaks in range(4):
                        lhs = gf_recurrence(k, i, n_peaks, 10, even=even)
                        rhs = gf_closed(k, i, n_peaks, 10, even=even)
                        assert lhs.first_mismatch(rhs) is None, (k, i, even, n_peaks)

    def test_peak_count_refines_enumeration(self):
        # Summing the N-peak series over N reproduces the path table.
        cutoff = 8
        k, i = 3, 2
        total = gf_recurrence(k, i, 0, cutoff)
        for n_peaks in range(1, cutoff):
            total = total + gf_recurrence(k, i, n_peaks, cutoff)
        table = count_paths(k, i, cutoff - 1)
        for (s, t, n), w in table.entries.items():
            assert total.coeff(s, t, 0, n) == w
