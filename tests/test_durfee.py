import gc
import hashlib
import tracemalloc
from collections import Counter
from functools import partial
from itertools import combinations

import pytest

from qpair import durfee, overpartitions
from qpair.durfee import (
    admissible_symbols,
    conjugate,
    conjugation_regions,
    count_admissible,
    count_self_conjugate,
    is_ki_admissible,
    is_self_ki_conjugate,
    k_conjugate,
    self_conjugate_symbols,
    successive_sizes,
)
from qpair.counts import BoundExceededError, tally
from qpair.durfee import _reduction, _remove_parts, _split
from qpair.frobenius import (
    FrobeniusSymbol,
    _plain_count,
    joichi_stanton,
    row_split,
    rows_of,
    symbols_of,
)
from qpair.overpartitions import canonical_parts, count_frequency_pairs, partitions
from qpair.series import TruncatedSeries, mono, over_one_minus


def row(*parts):
    return [(abs(p), p < 0) for p in parts]


PI = FrobeniusSymbol(
    row(12, 12, -8, 7, 6, -3, 2, -1),
    row(14, 12, -10, -8, 6, 5, -3, 2),
)

PI4 = FrobeniusSymbol(
    row(11, 9, -7, 7, 6, -3, 2, -1),
    row(15, 15, -11, -8, 6, 5, -3, 2),
)


class TestPartitionBasics:
    def test_conjugate_involution(self):
        for n in range(11):
            for p in partitions(n):
                assert conjugate(conjugate(p)) == p

    def test_durfee_empty_and_square(self):
        assert successive_sizes((), 2) == (0, 0)
        assert successive_sizes((2, 2), 2) == (2, 0)

    def test_worked_conjugates(self):
        assoc1, _ = joichi_stanton(PI.top)
        assoc2, _ = joichi_stanton(PI.bottom)
        assert conjugate(assoc1) == (8, 6, 5, 5, 4, 3, 2, 2, 2)
        assert conjugate(assoc2) == (8, 8, 7, 6, 5, 4, 4, 3, 2, 1, 1)

    def test_worked_successive_sizes(self):
        lam2p = (8, 8, 7, 6, 5, 4, 4, 3, 2, 1, 1)
        assert successive_sizes(lam2p, 2) == (5, 3)
        assert successive_sizes(lam2p, 6) == (5, 3, 1, 1, 1, 0)

    def test_durfee_size(self):
        assert durfee_size((5, 4, 3, 2)) == 3
        assert durfee_size(()) == 0


class TestKConjugation:
    def test_worked_regions(self):
        g1, g2 = conjugation_regions(PI, 4)
        assert g1 == (3, 2, 2, 2)
        assert g2 == (2, 1, 1)

    def test_worked_four_conjugate(self):
        assert k_conjugate(PI, 4) == PI4

    def test_involution_sweep(self):
        for n in range(9):
            for f in symbols_of(n):
                for k in (2, 3, 4):
                    g = k_conjugate(f, k)
                    assert g.weight() == f.weight()
                    assert g.columns == f.columns
                    assert g.s_stat() == f.s_stat()
                    assert g.t_stat() == f.t_stat()
                    assert k_conjugate(g, k) == f

    def test_identity_when_too_few_squares(self):
        # Bottom partition with fewer than k-2 = 2 squares.
        f = FrobeniusSymbol(row(2, 1, 0), row(1, 1, 0))
        assert conjugation_regions(f, 4) is None
        assert k_conjugate(f, 4) == f

    def test_regions_match_the_first_reading(self):
        # None exactly for the identity at k > 2; the empty symbol keeps its
        # empty regions at k = 2.
        empty = FrobeniusSymbol([], [])
        assert conjugation_regions(empty, 2) == ((), ())
        assert conjugation_regions(empty, 3) is None
        for n in range(9):
            for f in symbols_of(n):
                top = canonical_parts(list(f.top), min_part=0)
                bottom = canonical_parts(list(f.bottom), min_part=0)
                for k in (2, 3, 4, 5):
                    assert conjugation_regions(f, k) == ref_regions(top, bottom, k), (f, k)

    def test_self_conjugate_iff_regions_match(self):
        for n in range(8):
            for f in symbols_of(n):
                for k in (2, 3):
                    regions = conjugation_regions(f, k)
                    assert (k_conjugate(f, k) == f) == (regions is None or regions[0] == regions[1])


class TestAdmissibility:
    def test_empty_symbol(self):
        empty = FrobeniusSymbol([], [])
        for k in (2, 3, 4):
            for i in range(1, k + 1):
                assert is_ki_admissible(empty, k, i)
                assert is_self_ki_conjugate(empty, k, i)

    def test_matches_frequency_family(self):
        for k, i in ((2, 1), (2, 2), (3, 2), (3, 3)):
            d = count_admissible(k, i, 8)
            b = count_frequency_pairs(k, i, 8)
            assert d.first_mismatch(b) is None

    def test_self_conjugate_matches_parity_family(self):
        for k, i in ((2, 2), (3, 2), (3, 3)):
            d = count_self_conjugate(k, i, 8)
            b = count_frequency_pairs(k, i, 8, parity=True)
            assert d.first_mismatch(b) is None

    def test_zero_size_insertions_are_neutral(self):
        # With at most i-2 successive squares, the required insertion sizes
        # are all zero and admissibility holds with no actual insertion.
        for n in range(8):
            for f in symbols_of(n):
                squares = successive_sizes(conjugate(joichi_stanton(f.bottom)[0]), 3)
                for k in (3, 4):
                    for i in range(2, k + 1):
                        if not squares[i - 2]:
                            assert is_ki_admissible(f, k, i)

    def test_sequential_reading_comparison(self):
        # The one-at-a-time reading agrees with the static reading on the
        # verified range (observational; the static reading is the one
        # validated against the multisum generating function).
        diffs = 0
        for n in range(7):
            for f in symbols_of(n):
                for k, i in ((3, 2), (3, 3)):
                    if is_ki_admissible(f, k, i) != ref_seq_admissible(f.bottom, k, i):
                        diffs += 1
        assert diffs == 0


# A cache-free copy of the Durfee layer as first written, on plain rows:
# every row is split afresh and every Durfee decomposition recomputed.


def durfee_size(parts) -> int:
    """Side of the largest upper-left-justified square in the diagram."""
    d = 0
    for idx, p in enumerate(parts, start=1):
        if p >= idx:
            d = idx
        else:
            break
    return d


def ref_sizes(parts, count=None):
    rest = tuple(p for p in parts if p > 0)
    sizes = []
    while rest:
        d = durfee_size(rest)
        sizes.append(d)
        rest = rest[d:]
    return tuple(sizes) if count is None else (tuple(sizes) + (0,) * count)[:count]


def ref_lam_prime(row):
    return conjugate(row_split(canonical_parts(list(row), min_part=0))[0])


def ref_with_lam_prime(row, lam_p):
    marks = row_split(canonical_parts(list(row), min_part=0))[1]
    assoc = conjugate(lam_p)
    assoc += (0,) * (len(row) - len(assoc))
    rebuilt = [(a + sum(1 for m in marks if m >= p), p - 1 in marks)
               for p, a in enumerate(assoc, start=1)]
    return canonical_parts(rebuilt, min_part=0)


def ref_k_conjugate(top, bottom, k):
    lam1p, lam2p = ref_lam_prime(top), ref_lam_prime(bottom)
    if k == 2:
        new1p, new2p = lam2p, lam1p
    else:
        sizes = ref_sizes(lam2p)
        if len(sizes) < k - 2:
            return top, bottom
        cut, consumed = sizes[k - 3], sum(sizes[: k - 2])
        new1p = tuple(p for p in lam1p if p > cut) + lam2p[consumed:]
        new2p = lam2p[:consumed] + tuple(p for p in lam1p if p <= cut)
    return ref_with_lam_prime(top, new1p), ref_with_lam_prime(bottom, new2p)


def ref_square_tuples(n2_max, depth):
    """Weakly decreasing tuples (n2 >= ... >= n_{k-1} >= 0) of given depth,
    in descending lexicographic order."""
    if depth == 0:
        yield ()
        return
    for first in range(n2_max, -1, -1):
        for rest in ref_square_tuples(first, depth - 1):
            yield (first,) + rest


def ref_insertions(n1, k, i):
    for tup in ref_square_tuples(n1, k - 2):
        yield tup, list(tup[max(i, 2) - 2: k - 1]) + ([n1] if i == 1 else [])


def ref_reduction(lam2p, length, k, i):
    """The reduction by a search over every square tuple: the first tuple in
    descending order whose removals leave a residue reproducing it."""
    for tup, removals in ref_insertions(length, k, i):
        nu = _remove_parts(lam2p, removals)
        if nu is not None and ref_sizes(nu, k - 2) == tup:
            return nu
    return None


def ref_residue_admissible(nu, k):
    """Admissibility of a residue as first read: it has no (k-1)st square."""
    return nu is not None and not ref_sizes(nu, k - 1)[-1]


def ref_bottom_region(lam2p, k):
    """The cut and G2 of a bottom partition as first read, each square peeled
    afresh: None when the conjugation is the identity, and cut None at k = 2,
    where G1 is the whole top partition."""
    if k == 2:
        return None, lam2p
    sizes = ref_sizes(lam2p, k - 2)
    if not sizes[-1]:
        return None
    return sizes[-1], lam2p[sum(sizes):]


def ref_split(lam2p, length, k):
    """:func:`ref_bottom_region` in the form of ``_split``: the identity is
    cut 0 with no G2, and the k = 2 cut is the column count."""
    region = ref_bottom_region(lam2p, k)
    if region is None:
        return 0, ()
    cut, g2 = region
    return (length if cut is None else cut), g2


def ref_regions(top, bottom, k):
    """The conjugation regions as first read, or None for the identity."""
    region = ref_bottom_region(ref_lam_prime(bottom), k)
    if region is None:
        return None
    cut, g2 = region
    lam1p = ref_lam_prime(top)
    return (lam1p if cut is None else tuple(p for p in lam1p if p <= cut)), g2


def ref_admissible(bottom, k, i):
    lam2p = ref_lam_prime(bottom)
    for tup, removals in ref_insertions(len(bottom), k, i):
        nu = _remove_parts(lam2p, removals)
        if nu is not None and len(ref_sizes(nu)) <= k - 2 and ref_sizes(nu, k - 2) == tup:
            return True
    return False


def ref_seq_admissible(bottom, k, i):
    n1 = len(bottom)

    def peel(parts, j):
        if j > k - 1:
            return len(ref_sizes(parts)) <= k - 2
        for v in ({n1} if j == 1 else set(parts) | {0}):
            rest = _remove_parts(parts, [v])
            if rest is None:
                continue
            expected = n1 if j == 1 else ref_sizes(rest, k - 1)[j - 2]
            if v == expected and peel(rest, j + 1):
                return True
        return False

    return peel(ref_lam_prime(bottom), i)


def ref_self_ki_conjugate(top, bottom, k, i):
    if i == k:
        return ref_k_conjugate(top, bottom, k) == (top, bottom)
    lam2p = ref_lam_prime(bottom)
    for tup, removals in ref_insertions(len(bottom), k, i):
        reduced = _remove_parts(lam2p, removals)
        if reduced is None or ref_sizes(reduced, k - 2) != tup:
            continue
        candidate = ref_with_lam_prime(bottom, reduced)
        if ref_k_conjugate(top, candidate, k) == (top, candidate):
            return True
    return False


class TestRowPairing:
    """The D convolution and the D~ hash join against the tally of the
    symbols they count, which ties the D tables to the objects."""

    @pytest.mark.parametrize("count,stream", [(count_admissible, admissible_symbols),
                                              (count_self_conjugate, self_conjugate_symbols)])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_equals_tally_of_the_stream(self, k, count, stream):
        for i in range(1, k + 1):
            for n in (0, 1, 5, 10, 12):
                assert count(k, i, n) == tally(stream(k, i, n), n), (i, n)

    @pytest.mark.parametrize("count", [count_admissible, count_self_conjugate])
    def test_bound_is_checked_before_ki(self, count):
        with pytest.raises(BoundExceededError):
            count(1, 1, 8, bound=5)
        with pytest.raises(ValueError, match="need k >= 2") as err:
            count(1, 1, 8)
        assert not isinstance(err.value, BoundExceededError)


class TestCachedLayerOracle:
    def test_matches_cache_free_reference(self):
        for n in range(9):
            for f in symbols_of(n):
                top = canonical_parts(list(f.top), min_part=0)
                bottom = canonical_parts(list(f.bottom), min_part=0)
                for k in (2, 3, 4):
                    g = k_conjugate(f, k)
                    assert (g.top, g.bottom) == ref_k_conjugate(top, bottom, k)
                    for i in range(1, k + 1):
                        assert is_ki_admissible(f, k, i) == ref_admissible(bottom, k, i)
                        assert is_self_ki_conjugate(f, k, i) == ref_self_ki_conjugate(top, bottom, k, i)

    def test_tables_are_built_once_and_bounded_on_every_call(self):
        # D keeps its tables; B keeps its count rows and unpacks a table per call.
        rows = overpartitions._pair_rows.cache_info
        for count in (count_admissible, count_self_conjugate,
                      partial(count_frequency_pairs, parity=False),
                      partial(count_frequency_pairs, parity=True)):
            table, misses = count(3, 2, 6), rows().misses
            again = count(3, 2, 6, bound=6)
            assert again is table if count in (count_admissible, count_self_conjugate) else again == table
            assert rows().misses == misses
            with pytest.raises(BoundExceededError):
                count(3, 2, 6, bound=5)

    def test_cached_values_are_immutable(self):
        assert type(durfee._lam_prime(PI.bottom)) is tuple
        assert type(conjugation_regions(PI, 4)[0]) is tuple

    def test_tables_build_no_row(self, monkeypatch):
        calls = []
        for name in ("row_split", "_lam_prime", "_row_reduction"):
            fn = getattr(durfee, name)
            monkeypatch.setattr(durfee, name, lambda *args, fn=fn: calls.append(args) or fn(*args))
        durfee._durfee_tables.cache_clear()
        count_admissible(3, 2, 10)
        count_self_conjugate(3, 2, 10)
        assert calls == []
        is_ki_admissible(PI, 3, 2)
        assert calls, "the spies see the predicates, which read rows"

    def test_tables_reduce_each_bottom_partition_once(self, monkeypatch):
        # D and D~ of every i share one listing of the bottom partitions
        # lam' of each row length L, which reduces each once per i, and
        # list no top partition.
        listed, reduced = [], []
        listing, reduction = durfee.partitions, durfee._reduction
        monkeypatch.setattr(durfee, "partitions", lambda size, length:
                            listed.append((size, length)) or listing(size, length))
        monkeypatch.setattr(durfee, "_reduction", lambda lam, sizes, length, k, i:
                            reduced.append((lam, length, i)) or reduction(lam, sizes, length, k, i))
        durfee._durfee_tables.cache_clear()
        for i in (1, 2, 3):
            count_admissible(3, i, 12)
            count_self_conjugate(3, i, 12)
        assert sorted(listed) == [(size, length) for size in range(13) for length in range(13 - size)]
        bottoms = [(lam, length) for length in range(13)
                   for size in range(13 - length) for lam in partitions(size, length)]
        assert sorted(reduced) == sorted((lam, length, i) for lam, length in bottoms for i in (1, 2, 3))

    def test_tables_leave_no_reductions_behind(self):
        # Each (partition, length) is reduced for one table and not kept: a
        # process-wide cache of the reductions held 2.96 MB here, and a
        # cache of every residue's square sizes held 37,338 entries, about
        # 12 MB, after D at k 2-3 and n 40.
        durfee._durfee_tables.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in (2, 3):
                for i in range(1, k + 1):
                    count_admissible(k, i, 20, bound=20)
                    count_self_conjugate(k, i, 20, bound=20)
            durfee._durfee_tables.cache_clear()
            gc.collect()  # also empties the free lists, which keep freed tuples
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1_000_000

    def test_window_finds_what_the_full_search_finds(self):
        # _reduction tries only the square tuples of its window; on every
        # bottom row of a symbol of weight <= 20 it returns the residue, or
        # None, of the search over every tuple, with the residue's sizes.
        for length in range(21):
            lams = [lam for size in range(21 - length) for lam in partitions(size, length)]
            for k in (2, 3, 4, 5):
                for lam2p in lams:
                    sizes = successive_sizes(lam2p, k - 2)
                    assert sizes == ref_sizes(lam2p, k - 2)
                    for i in range(1, k + 1):
                        reduced = _reduction(lam2p, sizes, length, k, i)
                        nu = ref_reduction(lam2p, length, k, i)
                        assert (reduced if nu is None else reduced[0]) == nu, (lam2p, length, k, i)
                        if nu is not None:
                            assert reduced[1] == ref_sizes(nu, k - 2), (lam2p, length, k, i)

    def test_split_reads_what_peeling_afresh_reads(self):
        # On every bottom (lam', L) with L + |lam'| <= 20, the split of
        # lam' and of each residue gives the region, and the residue's split
        # the admissibility, that peeling the partition afresh gives.
        for length in range(21):
            lams = [lam for size in range(21 - length) for lam in partitions(size, length)]
            for k in (2, 3, 4, 5):
                for lam2p in lams:
                    sizes = successive_sizes(lam2p, k - 2)
                    assert _split(lam2p, sizes, length) == ref_split(lam2p, length, k), (lam2p, length, k)
                    for i in range(1, k + 1):
                        reduced = _reduction(lam2p, sizes, length, k, i)
                        split = None if reduced is None else _split(*reduced, length)
                        nu = None if reduced is None else reduced[0]
                        assert (split is not None and not split[1]) == ref_residue_admissible(nu, k), \
                            (lam2p, length, k, i)
                        if nu is not None:
                            assert split == ref_split(nu, length, k), (lam2p, length, k, i)

    def test_at_most_one_tuple_leaves_a_residue(self):
        # _reduction returns the first residue it finds.  No conjugated
        # associated partition of size w with parts <= L, so no bottom row
        # of length L and entry sum at least w, leaves two when
        # L + w <= 20: every bottom row of a symbol of weight <= 20.
        for length in range(21):
            lams = [lam for size in range(21 - length) for lam in partitions(size, length)]
            for k in (2, 3, 4, 5):
                for i in range(1, k + 1):
                    insertions = list(ref_insertions(length, k, i))
                    for lam2p in lams:
                        residues = [tup for tup, removals in insertions
                                    if (nu := _remove_parts(lam2p, removals)) is not None
                                    and ref_sizes(nu, k - 2) == tup]
                        assert len(residues) <= 1, (lam2p, length, k, i, residues)


class TestPartitionsAndMarks:
    """The row split that the Durfee tables count by, and the tables past
    the weights the symbol streams reach."""

    def test_rows_are_partitions_times_marks(self):
        # The rows of length L and entry sum w with p plain entries are the
        # partitions with parts <= L of size w - m times the sets of L - p
        # distinct marks below L of sum m: the coefficient of a^p q^w in
        # prod_{v<L} (a + q^v) / (q)_L, the row factor the D tables use.
        for length in range(13):
            gf = TruncatedSeries.one(13 - length)
            for v in range(length):
                gf = gf * TruncatedSeries.poly([mono(1, a=1), mono(1, q=v)])
            for j in range(1, length + 1):
                gf = over_one_minus(gf, mono(1, q=j))
            for total in range(13 - length):
                want = Counter()
                for c in range(length + 1):
                    for marks in combinations(range(length), c):
                        rest = total - sum(marks)
                        if rest >= 0:
                            want[length - c] += sum(1 for _ in partitions(rest, length))
                got = Counter(_plain_count(r) for r in rows_of(length, total))
                assert got == want, (length, total)
                assert {p: c for (p, _, _, w), c in gf.terms.items() if w == total} == got

    @pytest.mark.parametrize("count,k,i,digest", [
        (count_admissible, 2, 2, "3d2c5cd2c3d8ba5aaebd2823ff846797fabdc220f2441808d1e3feb279445b3c"),
        (count_admissible, 3, 2, "f4d9509412fb8cce1ac34b44cc3b12898015e2be89174e1b49e8ba652279fb99"),
        (count_admissible, 3, 3, "02536f5e62977036bbb993fa05547026b86238ab3a577f415a4addf8453afc16"),
        (count_self_conjugate, 2, 2, "59ca0bf04656992708fbfd6f969470ed3c189f8ec53a030b33d13285e9fd25a0"),
        (count_self_conjugate, 3, 2, "d769707dcc6d6019e496029ed44b6d6ac6ce2264012a0373bdeb1f39d2039b7b"),
        (count_self_conjugate, 3, 3, "354139b4995786e4b4078bc8851a4c82b10a1f3cf8993977bbf3a628e597a47a"),
    ])
    def test_pinned_tables_at_weight_20(self, count, k, i, digest):
        # Pinned from the row-by-row tables, which the tally tests above
        # tie to the symbol streams.
        table = count(k, i, 20, bound=20)
        assert hashlib.sha256(table.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize("count,k,i,digest", [
        (count_admissible, 2, 2, "6a714d4e0491a0063e41d79ff75840704a86e82e9ea83742f7d6968faa002462"),
        (count_admissible, 3, 2, "7a8d3cccdacee9b3a373e7214bd2b0fce264910773efb420958a5d2fc571a6b5"),
        (count_admissible, 3, 3, "bdf6f41b17f4c71c7ada06e7f9c28b05bea5b76e699c2af59c2b7828d53e7c36"),
        (count_self_conjugate, 2, 2, "e4fabb98ddfae6f555417d471f7dafb7dcdc26d1e8fc0a40cc0cbc9d4936fd39"),
        (count_self_conjugate, 3, 2, "6d0ea342e7caec87374d164951d801b561191e84d2e3369dd9fe86bb2535615e"),
        (count_self_conjugate, 3, 3, "644d5b2b6dcc58f877e276261101310d46c63be196b3415c2f4bab3be5b91b28"),
    ])
    def test_pinned_tables_at_weight_30(self, count, k, i, digest):
        # Pinned from the earlier tables, which listed every top partition:
        # past the weights the tally tests reach, an independent count.
        table = count(k, i, 30, bound=30)
        assert hashlib.sha256(table.to_json().encode()).hexdigest() == digest
