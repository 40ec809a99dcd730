import pytest

from qpair.counts import CountTable, tally
from qpair.frobenius import FrobeniusSymbol
from qpair.overpartitions import Overpartition, OverpartitionPair
from qpair.series import TruncatedSeries, mono


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
