import hashlib
import sys
from collections import Counter

import pytest

from qpair import counts, durfee, frobenius, overpartitions, paths, series
from qpair.counts import (BoundExceededError, CountTable, cell_shift, product_counts, slot_width,
                          state_rows, tally)
from qpair.frobenius import FrobeniusSymbol, count_rank_bounded
from qpair.overpartitions import Overpartition, OverpartitionPair, count_frequency_pairs, pairs_of
from qpair.paths import count_paths
from qpair.series import TruncatedSeries, mono
from qpair.verify import VerifyConfig, run_suite


def test_tally_keys_s_before_t():
    # Every family's table is symmetric in s and t, so only objects whose
    # statistics differ can tell the two apart.
    plain_top = FrobeniusSymbol([(0, False)], [(0, True)])
    mixed = FrobeniusSymbol([(3, False), (1, False)], [(2, True), (0, False)])
    pair = OverpartitionPair(Overpartition([(2, True)]), Overpartition([]))
    assert [(f.s_stat(), f.t_stat()) for f in (plain_top, mixed, pair)] == [(0, 1), (1, 2), (1, 0)]
    table = tally([(1, plain_top), (8, mixed), (8, mixed), (2, pair)], 8)
    assert table.entries == {(0, 1, 1): 1, (1, 2, 8): 2, (1, 0, 2): 1}


def test_from_series_reads_a_as_s_and_b_as_t():
    table = CountTable.from_series(TruncatedSeries.poly([mono(5, a=2, q=3), mono(1, b=1, x=4, q=2)]), 4)
    assert table.entries == {(2, 0, 3): 5, (0, 1, 2): 1}


def test_from_series_drops_entries_that_cancel_over_x():
    series = TruncatedSeries.poly([mono(1, a=1, q=1), mono(-1, a=1, x=1, q=1), mono(3, q=2)])
    assert CountTable.from_series(series, 4).entries == {(0, 0, 2): 3}


def test_table_is_read_only():
    pair = OverpartitionPair(Overpartition([(1, True)]), Overpartition([]))
    for table in (tally([(1, pair)], 1), CountTable.from_series(TruncatedSeries.poly([mono(2, q=1)]), 1)):
        with pytest.raises(TypeError):
            table.entries[(0, 0, 0)] = 1
        with pytest.raises(TypeError):
            del table.entries[next(iter(table.entries))]
    given = {(0, 0, 1): 1}
    table = CountTable(1, given)
    given[(0, 0, 0)] = 1
    assert table.entries == {(0, 0, 1): 1}


def test_first_mismatch_is_the_least_key_in_n_s_t_order():
    # Tuple order would pick (0, 0, 5) first; (n, s, t) order picks the
    # weight-2 key with the least s, then t.
    keys = [(0, 0, 5), (3, 0, 2), (1, 4, 2), (1, 2, 2)]
    lhs = CountTable(6, {(0, 0, 0): 1, **{key: 1 for key in keys}})
    rhs = CountTable(6, {(0, 0, 0): 1, **{key: 2 for key in keys}})
    assert lhs.first_mismatch(rhs) == ((1, 2, 2), 1, 2)
    assert rhs.first_mismatch(lhs) == ((1, 2, 2), 2, 1)


def test_first_mismatch_stops_at_the_smaller_n_max():
    lhs = CountTable(4, {(0, 0, 0): 1, (0, 0, 4): 2})
    rhs = CountTable(6, {(0, 0, 0): 1, (0, 0, 4): 2, (1, 0, 5): 3, (0, 0, 6): 1})
    assert lhs.first_mismatch(rhs) is None
    assert rhs.first_mismatch(lhs) is None
    assert CountTable(5, {(0, 0, 0): 1, (0, 0, 4): 2}).first_mismatch(rhs) == ((1, 0, 5), 0, 3)


def test_first_mismatch_reads_a_missing_entry_as_zero():
    lhs, rhs = CountTable(3, {(1, 1, 2): 4}), CountTable(3, {})
    assert lhs.first_mismatch(rhs) == ((1, 1, 2), 4, 0)
    assert rhs.first_mismatch(lhs) == ((1, 1, 2), 0, 4)


def test_first_mismatch_of_equal_tables():
    assert CountTable(3, {(1, 1, 2): 4}).first_mismatch(CountTable(5, {(1, 1, 2): 4})) is None
    assert CountTable(0, {}).first_mismatch(CountTable(0, {})) is None


# sha256 of to_json(), pinned from the Counter-keyed tables that B, C and E
# each built on their own.  The families share one table, so the digests at
# n 30 are also the D pins of tests/test_durfee.py.  Every pinned table has
# a cell above 2**16: (3, 3) at n 30 reaches 356,353.
PINNED_TABLES = {
    (3, 2, 30, False): "7a8d3cccdacee9b3a373e7214bd2b0fce264910773efb420958a5d2fc571a6b5",
    (3, 2, 30, True): "6d0ea342e7caec87374d164951d801b561191e84d2e3369dd9fe86bb2535615e",
    (3, 3, 30, False): "bdf6f41b17f4c71c7ada06e7f9c28b05bea5b76e699c2af59c2b7828d53e7c36",
    (3, 3, 30, True): "644d5b2b6dcc58f877e276261101310d46c63be196b3415c2f4bab3be5b91b28",
    (4, 3, 24, False): "c30d4e553a9217d551c126baa66badfb6a28b75d9f33ad0838e07742f1b2ddaf",
    (4, 3, 24, True): "4e6bbbdb9a223da6f7fd81e9de1e13c1292df68e77459967436a364788fef938",
    (4, 4, 24, False): "aa6b5aaa974424805f7de608b84a6a2a2eda185b084b4d69ceb43a2686c35db8",
    (4, 4, 24, True): "08177c0a691e5807e582c476381de6b1799bbd92b2722c76c8e982f0812d643a",
}
FAMILY_TABLES = {
    "B": lambda k, i, n, parity: count_frequency_pairs(k, i, n, parity=parity, bound=n),
    "C": lambda k, i, n, parity: count_rank_bounded(k, i, n, tilde=parity, bound=n),
    "E": lambda k, i, n, parity: count_paths(k, i, n, even=parity, bound=n),
}


@pytest.mark.parametrize("family,key", [
    (family, key) for key in PINNED_TABLES for family in ("BCE" if key[2] == 30 else "B")])
def test_pinned_tables(family, key):
    table = FAMILY_TABLES[family](*key)
    assert hashlib.sha256(table.to_json().encode()).hexdigest() == PINNED_TABLES[key]


def test_slot_width_counts_overpartition_pairs():
    sizes = range(1, 7)
    assert product_counts(6, [*sizes, *sizes], [*sizes, *sizes]) == [len(pairs_of(n)) for n in range(7)]
    # Sized from overpartitions, one kind of part per size, the slots are
    # too narrow for the pairs: a B cell at n 30 needs 19 bits.
    sizes = range(1, 31)
    too_narrow = max(product_counts(30, sizes, sizes)).bit_length() + 1
    cell = max(count_frequency_pairs(3, 3, 30, bound=30).entries.values())
    assert too_narrow <= cell.bit_length() == (356353).bit_length() < slot_width(30)


def shift_add(into, row, shift, dn):
    """Add ``row`` into ``into`` with its cells moved by ``shift`` bits (a
    ``cell_shift``) and its weights by dn; weights past ``into`` are dropped."""
    for n, cell in zip(range(dn, len(into)), row):
        if cell:
            into[n] += cell << shift


@pytest.mark.parametrize("n_max", [0, 1, 6, 30])
def test_full_cells_round_trip(n_max):
    # Full slots at s = t = n = n_max and beside it, and the pair-count
    # bound at the first cell, come back from the rows unchanged.
    full = (1 << slot_width(n_max)) - 1
    sizes = [*range(1, n_max + 1)] * 2
    bound = max(product_counts(n_max, sizes, sizes))
    rows = [0] * (n_max + 1)
    cells = {(n_max, n_max, n_max): full, (0, 0, n_max): bound}
    if n_max:
        cells.update({(n_max, n_max - 1, n_max): full, (n_max - 1, n_max, n_max): full})
    for (s, t, n), c in cells.items():
        shift_add(rows, [c], cell_shift(s, t, n_max), n)
    assert CountTable.from_rows(rows, n_max).entries == cells


def test_shift_add_drops_weights_past_the_row():
    rows = [0, 0, 0]
    shift_add(rows, [1, 2, 3], cell_shift(1, 0, 2), 1)
    shift_add(rows, [5], 0, 3)
    assert CountTable.from_rows(rows, 2).entries == {(1, 0, 1): 1, (1, 0, 2): 2}


@pytest.mark.parametrize("rows,message", [
    ([-1, 0, 0], "row 0 up to weight 2 is negative"),
    ([1, 0, -(1 << 90)], "row 2 up to weight 2 is negative"),
    # Bits past s = 1 at n = 1: the old unpacking read them as cell (13, 1, 1).
    ([0, 1 << 200, 0], "row 1 up to weight 2 is negative or has bits past its cells of s <= 1"),
    ([1 << cell_shift(1, 0, 2), 0, 0], "row 0 up to weight 2 is negative or has bits past"),
    ([-1], "needs 3 count rows, got 1"),
    ([1, 0, 0, 0], "needs 3 count rows, got 4"),
])
def test_from_rows_refuses_rows_that_hold_no_cells(rows, message):
    # A negative row once made the unpacking loop forever.
    with pytest.raises(ValueError, match=message):
        CountTable.from_rows(rows, 2)


def test_from_rows_takes_the_last_cell_of_each_weight():
    # s = n and t = n_max: the highest slot a row n may hold.
    rows = [1 << cell_shift(n, 2, 2) for n in range(3)]
    assert CountTable.from_rows(rows, 2).entries == {(n, 2, n): 1 for n in range(3)}


def planted(rows, s, t, n, by):
    """``rows`` with cell (s, t) of weight n moved by ``by``."""
    rows = list(rows)
    rows[n] += by << cell_shift(s, t, len(rows) - 1)
    return rows


@pytest.mark.parametrize("s,t,n,by", [(1, 1, 7, 1), (0, 0, 9, -1), (5, 0, 5, 1), (0, 12, 12, 1)])
def test_packed_comparison_reports_what_the_entries_report(s, t, n, by):
    rows = overpartitions._pair_rows(3, False, 12)[1]
    good, bad = CountTable.from_rows(rows, 12), CountTable.from_rows(planted(rows, s, t, n, by), 12)
    unpacked = [CountTable(12, table.entries) for table in (good, bad)]
    before = good.entries.get((s, t, n), 0)
    assert good.first_mismatch(bad) == unpacked[0].first_mismatch(unpacked[1]) == ((s, t, n), before, before + by)
    assert bad.first_mismatch(good) == unpacked[1].first_mismatch(unpacked[0])
    assert good != bad and bad != good and good == CountTable.from_rows(rows, 12) == unpacked[0]
    assert good.first_mismatch(CountTable.from_rows(list(rows), 12)) is None


def test_packed_comparison_needs_one_n_max():
    # The slot width grows with n_max, so the same cells pack to other rows.
    short, long = (CountTable.from_rows(overpartitions._pair_rows(2, False, n)[0], n) for n in (4, 6))
    assert short._packed != long._packed[:5]
    assert short.first_mismatch(long) is None and long.first_mismatch(short) is None
    assert short != long
    cut = CountTable(4, {key: c for key, c in long.entries.items() if key[2] <= 4})
    assert short == cut and cut == short


def test_four_way_suites_compare_packed_tables(monkeypatch):
    unpacked = []
    unpack = counts._unpack
    monkeypatch.setattr(counts, "_unpack", lambda rows, n_max: unpacked.append(n_max) or unpack(rows, n_max))
    cfg = VerifyConfig(k_values=(2, 3), n_max=30)
    reports = [run_suite("four-way", cfg), run_suite("four-way-even", cfg)]
    assert all(r.ok and r.checks_run == 15 for r in reports)
    assert unpacked == []
    assert count_paths(2, 1, 3).entries and unpacked == [3], "the spy sees an unpacking"


def label_correcting_rows(starts, table, order, n_max):
    """The count-row driver before it settled each state once: a LIFO
    label-correcting pass for the least weight spent to reach each state,
    then a plan of every state's kept steps, filled as the driver fills."""
    spent = dict.fromkeys(starts, 0)
    steps = {}
    todo = list(starts)
    while todo:
        state = todo.pop()
        if state not in steps:
            steps[state] = table(state)
        here = spent[state]
        for least, dn, _shift, nxt in steps[state][1]:
            if here + least <= n_max and here + dn < spent.get(nxt, n_max + 1):
                spent[nxt] = here + dn
                todo.append(nxt)
    rows = {state: [] for state in spent}
    plan = []
    for state in sorted(spent, key=order):
        room = n_max - spent[state]
        ends, moves = steps[state]
        kept = [(least, dn, shift, rows[nxt]) for least, dn, shift, nxt in moves if least <= room]
        plan.append((room, rows[state], ends, kept))
    for n in range(n_max + 1):
        for room, row, ends, moves in plan:
            if n > room:
                continue
            cell = ends if n == 0 else 0
            for least, dn, shift, rest in moves:
                if least <= n and (c := rest[n - dn]):
                    cell += c << shift
            row.append(cell)
    return rows


# Each walk's cached rows, with a call that builds them for (k, parity, n_max).
WALKS = {
    "B": (overpartitions, overpartitions._pair_rows,
          lambda k, parity, n: [count_frequency_pairs(k, i, n, parity=parity, bound=n)
                                for i in range(1, k + 1)]),
    "C": (frobenius, frobenius._rank_rows,
          lambda k, parity, n: [count_rank_bounded(k, i, n, tilde=parity, bound=n)
                                for i in range(1, k + 1)]),
    "D": (durfee, durfee._durfee_rows,
          lambda k, parity, n: [(durfee.count_self_conjugate if parity else durfee.count_admissible)(
              k, i, n, bound=n) for i in range(1, k + 1)]),
    "E": (paths, paths._walk_rows,
          lambda k, parity, n: [count_paths(k, i, n, even=parity, bound=n) for i in range(1, k + 1)]),
}


@pytest.mark.parametrize("family", WALKS)
def test_state_rows_settle_each_state_once_to_the_rows_of_label_correcting(family, monkeypatch):
    module, cached, build = WALKS[family]
    walks = []

    def spy(starts, table, order, n_max):
        reads = Counter()
        rows = state_rows(starts, lambda state: reads.update([state]) or table(state), order, n_max)
        walks.append((starts, table, order, n_max, reads, rows))
        return rows

    monkeypatch.setattr(module, "state_rows", spy)
    cached.cache_clear()
    for k in range(2, 6):
        for parity in (False, True):
            for n in (0, 1, 4, 9, 20):
                build(k, parity, n)
    cached.cache_clear()
    assert len(walks) >= 4 * 2 * 5
    for starts, table, order, n_max, reads, rows in walks:
        assert reads.keys() == rows.keys() and set(reads.values()) == {1}
        assert rows == label_correcting_rows(starts, table, order, n_max), (starts, n_max)


def test_state_rows_cut_each_row_at_the_weight_left():
    # "a" ends or steps to "b" by weight 1; "b" ends, with 2 of 3 left.
    table = {"a": (1, [(1, 1, cell_shift(0, 1, 3), "b")]), "b": (1, [])}
    rows = state_rows(["a"], table.__getitem__, "ab".index, 3)
    assert rows == {"a": [1, 1 << cell_shift(0, 1, 3), 0, 0], "b": [1, 0, 0]}


@pytest.mark.parametrize("step", [
    (0, 1, 0, "b"),  # least below dn: it would read rows["b"][-1]
    (0, 0, 0, "b"),  # no weight, to a state that sorts later: rows["b"][0] is not yet filled
])
def test_state_rows_refuse_a_step_that_reads_no_filled_cell(step):
    table = {"a": (0, [step]), "b": (1, [])}
    with pytest.raises(ValueError, match="would read a cell out of order"):
        state_rows(["a"], table.__getitem__, "ab".index, 3)


@pytest.mark.parametrize("count", [count_frequency_pairs, count_rank_bounded,
                                   durfee.count_admissible, durfee.count_self_conjugate,
                                   count_paths])
def test_negative_n_max_is_refused(count):
    # A negative n_max once gave packed rows of stride 0, whose unpacking never ended.
    with pytest.raises(ValueError, match="at least 0") as err:
        count(2, 1, -1)
    assert not isinstance(err.value, BoundExceededError)


def test_four_way_suites_call_no_series_kernel(monkeypatch):
    calls = []

    def spy(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs))

    for name in ("__mul__", "__add__", "times_monomial"):
        spy(TruncatedSeries, name)
    for name in ("over_one_minus", "_apply_factors", "_factor_layers"):
        fn = getattr(series, name)
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "qpair"]:
            if getattr(module, name, None) is fn:
                spy(module, name)
    overpartitions._pair_rows.cache_clear()
    durfee._durfee_rows.cache_clear()
    cfg = VerifyConfig(k_values=(2, 3), n_max=8)
    assert run_suite("four-way", cfg).ok and run_suite("four-way-even", cfg).ok
    assert calls == []
    series.over_one_minus(TruncatedSeries.one(3) * TruncatedSeries.one(3), mono(1, q=1))
    assert calls == ["__mul__", "over_one_minus", "_apply_factors", "_factor_layers"], \
        "the spies see a series build"
