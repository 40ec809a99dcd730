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
