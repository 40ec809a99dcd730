import pytest

from qpair.durfee import (
    DurfeeDecomposition,
    conjugate,
    conjugation_regions,
    count_admissible,
    count_self_conjugate,
    durfee_size,
    durfee_squares,
    is_ki_admissible,
    is_self_k_conjugate,
    is_self_ki_conjugate,
    k_conjugate,
    successive_sizes,
)
from qpair.durfee import _lam_prime, _remove_parts, _square_tuples
from qpair.frobenius import FrobeniusSymbol, joichi_stanton, row_split, symbols_of
from qpair.overpartitions import canonical_parts, count_frequency_pairs, partitions


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
        assert durfee_squares(()).sizes == ()
        assert durfee_squares((2, 2)).sizes == (2,)

    def test_worked_conjugates(self):
        assoc1, _ = joichi_stanton(PI.top)
        assoc2, _ = joichi_stanton(PI.bottom)
        assert conjugate(assoc1) == (8, 6, 5, 5, 4, 3, 2, 2, 2)
        assert conjugate(assoc2) == (8, 8, 7, 6, 5, 4, 4, 3, 2, 1, 1)

    def test_worked_successive_sizes(self):
        lam2p = (8, 8, 7, 6, 5, 4, 4, 3, 2, 1, 1)
        assert durfee_squares(lam2p).sizes[:2] == (5, 3)
        assert successive_sizes(lam2p, 2) == (5, 3)

    def test_reassembly(self):
        for n in range(11):
            for p in partitions(n):
                assert durfee_squares(p).reassemble() == p
        dec = DurfeeDecomposition((2,), ((1,),))
        assert dec.reassemble() == (3, 2)

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

    def test_self_conjugate_iff_regions_match(self):
        for n in range(8):
            for f in symbols_of(n):
                for k in (2, 3):
                    regions = conjugation_regions(f, k)
                    if is_self_k_conjugate(f, k):
                        assert regions is None or regions[0] == regions[1]
                    elif regions is not None and regions[0] != regions[1]:
                        assert k_conjugate(f, k) != f


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
                squares = durfee_squares(conjugate(joichi_stanton(f.bottom)[0])).sizes
                for k in (3, 4):
                    for i in range(2, k + 1):
                        if len(squares) <= i - 2:
                            assert is_ki_admissible(f, k, i)

    def test_sequential_reading_comparison(self):
        # The one-at-a-time reading agrees with the static reading on the
        # verified range (observational; the static reading is the one
        # validated against the multisum generating function).
        diffs = 0
        for n in range(7):
            for f in symbols_of(n):
                for k, i in ((3, 2), (3, 3)):
                    if is_ki_admissible(f, k, i) != is_ki_admissible(f, k, i, sequential=True):
                        diffs += 1
        assert diffs == 0


# A cache-free copy of the Durfee layer as first written, on plain rows:
# every row is split afresh and every Durfee decomposition recomputed.


def ref_sizes(parts, count=None):
    rest = tuple(p for p in parts if p > 0)
    sizes = []
    while rest:
        d = durfee_size(rest)
        sizes.append(d)
        rest = rest[d:]
    return tuple(sizes) if count is None else (tuple(sizes) + (0,) * count)[:count]


def ref_lam_prime(row):
    return conjugate(row_split.__wrapped__(canonical_parts(list(row), min_part=0))[0])


def ref_with_lam_prime(row, lam_p):
    marks = row_split.__wrapped__(canonical_parts(list(row), min_part=0))[1]
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


def ref_insertions(n1, k, i):
    for tup in _square_tuples(n1, k - 2):
        yield tup, list(tup[max(i, 2) - 2: k - 1]) + ([n1] if i == 1 else [])


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


class TestCachedLayerOracle:
    def test_matches_cache_free_reference(self):
        for n in range(9):
            for f in symbols_of(n):
                top = canonical_parts(list(f.top), min_part=0)
                bottom = canonical_parts(list(f.bottom), min_part=0)
                for k in (2, 3, 4):
                    g = k_conjugate(f, k)
                    assert (g.top, g.bottom) == ref_k_conjugate(top, bottom, k)
                    assert is_self_k_conjugate(f, k) == (g == f)
                    for i in range(1, k + 1):
                        assert is_ki_admissible(f, k, i) == ref_admissible(bottom, k, i)
                        assert (is_ki_admissible(f, k, i, sequential=True)
                                == ref_seq_admissible(bottom, k, i))
                        assert is_self_ki_conjugate(f, k, i) == ref_self_ki_conjugate(top, bottom, k, i)

    def test_cached_values_are_immutable(self):
        dec = durfee_squares((5, 3, 3, 1))
        assert type(dec.sizes) is tuple and all(type(r) is tuple for r in dec.rights)
        with pytest.raises(AttributeError):
            dec.sizes = ()
        assert type(conjugation_regions(PI, 4)[0]) is tuple

    def test_row_split_runs_once_per_row(self):
        row_split.cache_clear()
        _lam_prime.cache_clear()
        count_self_conjugate(3, 2, 8)
        info = row_split.cache_info()
        rows = {r for n in range(9) for f in symbols_of(n) for r in (f.top, f.bottom)}
        assert info.misses == info.currsize == len(rows)
