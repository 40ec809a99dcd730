import gc
import tracemalloc

import pytest

from qpair import overpartitions
from qpair.counts import BoundExceededError, CountTable, tally
from qpair.gaussint import I, unit_pow
from qpair.overpartitions import (
    Overpartition,
    OverpartitionPair,
    overpartition_identity_sides,
    weighted_pair_identity_sides,
    partition_pair_identity_sides,
    count_frequency_pairs,
    even_modulus_image_weight,
    frequency_pairs,
    odd_modulus_image_weight,
    overpartitions_of,
    _image_counts,
    _unattached,
    pairs_of,
    partition_pair_product_side,
    root_of_unity_weight,
)

O = Overpartition


def op(*parts):
    """Parts written as ints, negative meaning overlined: op(-6, 4, 4, 3)."""
    return O([(abs(p), p < 0) for p in parts])


# The running example pair: ((6~,4,4,3), (6,4~,4,2~,2,1)).
LAM = op(-6, 4, 4, 3)
MU = op(6, -4, 4, -2, 2, 1)
PAIR = OverpartitionPair(LAM, MU)


class TestFreq:
    def test_plain_occurrences(self):
        assert LAM.plain.get(4, 0) == 2

    def test_empty(self):
        assert O(()).plain.get(3, 0) == 0
        assert 3 not in O(()).over

    def test_overlined_occurrence(self):
        assert 6 in LAM.over
        assert LAM.plain.get(6, 0) == 0


def unattached(pair, j):
    return _unattached(*pair._counts(j))


class TestUnattached:
    def test_only_one_unattached_in_example(self):
        attached = [j for j in range(1, 8) if unattached(PAIR, j)]
        assert attached == [1]

    def test_four_not_unattached(self):
        assert not unattached(PAIR, 4)

    def test_absent_value(self):
        assert not unattached(PAIR, 9)


class TestToObj:
    def test_running_example(self):
        assert PAIR.to_obj() == {
            "lam": [{"size": 6, "over": True}, {"size": 4, "over": False},
                    {"size": 4, "over": False}, {"size": 3, "over": False}],
            "mu": [{"size": 6, "over": False}, {"size": 4, "over": True},
                   {"size": 4, "over": False}, {"size": 2, "over": True},
                   {"size": 2, "over": False}, {"size": 1, "over": False}],
        }


class TestValuation:
    def test_example_at_one(self):
        assert PAIR.valuation(1) == 1

    def test_absent(self):
        assert PAIR.valuation(9) == 0

    def test_example_at_four(self):
        # f_4(lam) + f_4bar(lam) + f_4bar(mu) = 2 + 0 + 1
        assert PAIR.valuation(4) == 3

    def test_vanishes_beyond_max_part(self):
        for n in range(6):
            for pair in pairs_of(n):
                assert pair.valuation(pair.max_part() + 1) in (0, 1)
                assert pair.valuation(pair.max_part() + 2) == 0


class TestFrequencyConditions:
    def test_empty_pair_always_satisfies(self):
        empty = OverpartitionPair(O(()), O(()))
        for k in (2, 3, 4):
            for i in range(1, k + 1):
                assert empty.satisfies_frequency_conditions(k, i)

    def test_single_one_fails_at_i_one(self):
        pair = OverpartitionPair(op(1), O(()))
        assert not pair.satisfies_frequency_conditions(2, 1)
        assert pair.satisfies_frequency_conditions(2, 2)

    def test_rogers_ramanujan_column(self):
        # Oracle: s = t = 0 entries are plain partitions with parts
        # differing by at least two and at most one part equal to 1.
        def rr_count(n):
            count = 0
            from qpair.overpartitions import partitions

            for p in partitions(n):
                if all(p[j] - p[j + 1] >= 2 for j in range(len(p) - 1)) and p.count(1) <= 1:
                    count += 1
            return count

        table = count_frequency_pairs(2, 2, 8)
        got = [table.entries.get((0, 0, n), 0) for n in range(9)]
        assert got == [rr_count(n) for n in range(9)]
        assert got == [1, 1, 1, 1, 2, 2, 3, 3, 4]

    def test_monotone_in_i(self):
        for k in (2, 3):
            tables = {i: count_frequency_pairs(k, i, 7) for i in range(1, k + 1)}
            for i in range(1, k):
                lo, hi = tables[i], tables[i + 1]
                for key in set(lo.entries) | set(hi.entries):
                    assert lo.entries.get(key, 0) <= hi.entries.get(key, 0)


class TestParityConditions:
    def test_empty_pair(self):
        empty = OverpartitionPair(O(()), O(()))
        assert empty.satisfies_parity_conditions(2, 2)

    def test_implies_frequency_conditions(self):
        for n in range(7):
            for pair in pairs_of(n):
                for k, i in ((2, 1), (2, 2), (3, 2)):
                    if pair.satisfies_parity_conditions(k, i):
                        assert pair.satisfies_frequency_conditions(k, i)

    def test_refines_counts(self):
        plain = count_frequency_pairs(3, 2, 7)
        refined = count_frequency_pairs(3, 2, 7, parity=True)
        for key, w in refined.entries.items():
            assert w <= plain.entries[key]

    def test_equal_when_no_tight_level(self):
        # Pairs at which no level is tight are counted by both families.
        def never_tight(pair, k):
            top = pair.max_part() + 1
            return all(
                pair.lam.plain.get(j, 0) + pair.valuation(j + 1) < k - 1
                for j in range(1, top + 1)
            )

        for k, i in ((3, 2), (3, 3)):
            for n in range(7):
                for pair in pairs_of(n):
                    if pair.satisfies_frequency_conditions(k, i) and never_tight(pair, k):
                        assert pair.satisfies_parity_conditions(k, i)


def ref_frequency_conditions(pair, k, i):
    """Cache-free frequency conditions: one scan over j for each (k, i)."""
    if pair.valuation(1) > i - 1:
        return False
    for j in range(1, pair.max_part() + 2):
        if pair.lam.plain.get(j, 0) + pair.valuation(j + 1) > k - 1:
            return False
    return True


def ref_parity_conditions(pair, k, i):
    """Cache-free parity conditions: the parity test at every tight j."""
    if not ref_frequency_conditions(pair, k, i):
        return False
    for j in range(1, pair.max_part() + 2):
        fj = pair.lam.plain.get(j, 0)
        vj1 = pair.valuation(j + 1)
        if fj + vj1 == k - 1:
            over = sum(1 for v in pair.lam.over if v <= j) + sum(1 for v in pair.mu.over if v <= j)
            if (j * fj + (j + 1) * vj1 - (i - 1 + over)) % 2 != 0:
                return False
    return True


class TestProfileOracle:
    def test_predicates_match_cache_free_reference(self):
        for n in range(9):
            for pair in pairs_of(n):
                for k in (2, 3, 4):
                    for i in range(1, k + 1):
                        assert pair.satisfies_frequency_conditions(k, i) == \
                            ref_frequency_conditions(pair, k, i), (pair, k, i)
                        assert pair.satisfies_parity_conditions(k, i) == \
                            ref_parity_conditions(pair, k, i), (pair, k, i)

    def test_filled_profile_keeps_identity(self):
        for n in range(6):
            for pair in pairs_of(n):
                pair.satisfies_parity_conditions(3, 2)
                fresh = OverpartitionPair(O(pair.lam.parts), O(pair.mu.parts))
                assert fresh._profile is None
                assert fresh == pair and hash(fresh) == hash(pair)
                assert type(pair._profile) is tuple
                assert fresh._facts() == pair._profile


class TestEnumeration:
    def test_weight_zero(self):
        assert list(pairs_of(0)) == [OverpartitionPair(O(()), O(()))]

    def test_weight_one(self):
        pairs = list(pairs_of(1))
        assert len(pairs) == 4
        assert len(set(pairs)) == 4

    def test_overpartition_counts(self):
        assert [len(overpartitions_of(n)) for n in range(9)] == [1, 2, 4, 8, 14, 24, 40, 64, 100]

    def test_pair_count_matches_product_series(self):
        # Oracle: the square of the overpartition generating function.
        from qpair.series import mono, pochhammer_inf

        cutoff = 9
        single = pochhammer_inf(mono(-1, q=1), cutoff) * pochhammer_inf(mono(1, q=1), cutoff).invert()
        squared = single * single
        for n in range(cutoff):
            assert len(pairs_of(n)) == squared.coeff_q(n)

    def test_bound_guard(self):
        with pytest.raises(BoundExceededError):
            count_frequency_pairs(2, 1, 15)

    def test_canonical_overline_rules(self):
        with pytest.raises(ValueError):
            O([(3, True), (3, True)])
        with pytest.raises(ValueError):
            O([(0, False)])

    @pytest.mark.parametrize("part", [(3.5, 0), ("4", 1), (True, False), (3, 2), (3, 1.0), (3, "no"),
                                      (3, None)])
    def test_parts_are_not_coerced(self, part):
        # A size is an int and not a bool; an overline is a bool or 0 or 1.
        with pytest.raises(ValueError, match="integer size and a boolean overline"):
            O([part])
        assert O([(3, 1)]).parts == O([(3, True)]).parts == ((3, True),)

    def test_cached_listings_are_read_only(self):
        # The pair (1 | ∅) of the cached pairs_of(1) holds the cached
        # overpartition (1) itself, so a write to either would reach every
        # later caller; the pair's lazy profile still fills in.
        one = overpartitions_of(1)[0]
        [pair] = [p for p in pairs_of(1) if p.lam is one]
        with pytest.raises(TypeError):
            one.plain[1] = 3
        for obj, fields in ((one, ("parts", "plain", "over")), (pair, ("lam", "mu"))):
            for field in fields:
                with pytest.raises(AttributeError, match="read-only"):
                    setattr(obj, field, getattr(obj, field))
                with pytest.raises(AttributeError, match="read-only"):
                    delattr(obj, field)
        assert pair.valuation(1) == 1 and pair.satisfies_frequency_conditions(3, 3)
        fresh = OverpartitionPair(one, O(()))
        assert fresh._profile is None
        assert fresh.satisfies_frequency_conditions(3, 3) and fresh._profile == pair._profile


class TestTransferMatrix:
    """The transfer matrix against the tally of the pairs it counts, which
    ties the B tables to the objects."""

    @pytest.mark.parametrize("parity", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_equals_tally_of_the_stream(self, k, parity):
        for i in range(1, k + 1):
            for n in (0, 1, 5, 10):
                want = tally(frequency_pairs(k, i, n, parity), n)
                assert count_frequency_pairs(k, i, n, parity) == want, (i, n)

    @pytest.mark.parametrize("parity", [False, True])
    def test_every_i_shares_one_walk(self, parity):
        overpartitions._pair_rows.cache_clear()
        tables = [count_frequency_pairs(4, i, 9, parity) for i in range(1, 5)]
        assert overpartitions._pair_rows.cache_info().misses == 1
        assert len(set(map(CountTable.to_json, tables))) == 4

    def test_walk_caches_ints_not_tables(self):
        rows = overpartitions._pair_rows(3, True, 7)
        assert len(rows) == 3 and all(type(row) is tuple and len(row) == 8 for row in rows)
        assert all(type(cell) is int for row in rows for cell in row)

    def test_build_does_not_outlive_the_call(self):
        # The rows are cached per (k, parity, n_max), so all the walk may
        # keep after the call is the rows of the starts.
        overpartitions._pair_rows.cache_clear()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            count_frequency_pairs(3, 2, 16, bound=16)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 1_000_000


def _even_level_ok(lam, k, i):
    """The even-level frequency conditions, checked part by part on one
    overpartition."""

    def v_even(two_j):
        # The valuation at level 2j, with parts 2j - 1 in the role of mu.
        odd = two_j - 1
        plain, over = lam.plain.get, lam.over
        unattached = (plain(odd, 0) >= 1 and odd not in over
                      and plain(two_j, 0) == 0 and two_j not in over)
        return plain(two_j, 0) + (odd in over) + (two_j in over) + unattached

    return v_even(2) <= i - 1 and all(lam.plain.get(2 * j, 0) + v_even(2 * j + 2) <= k - 1
                                      for j in range(1, lam.max_part() // 2 + 2))


def _even_level_b_side(k, i, n_max):
    """Reference B side: overpartitions obeying the even-level frequency
    conditions."""
    return [sum(1 for lam in overpartitions_of(n) if _even_level_ok(lam, k, i))
            for n in range(n_max + 1)]


def _even_level_pair_ok(lam, mu, k, i):
    """The even-level frequency conditions on a pair of partitions with
    distinct odd parts, checked part by part."""

    def freq(p, v):
        return sum(1 for s in p if s == v)

    def v3(two_j):
        # An even part 2j - 2 of mu is unattached when 2j - 1 occurs in
        # neither component and 2j does not occur in lam.
        below = two_j - 2
        unattached = (below >= 2 and freq(mu, below) >= 1 and freq(lam, below + 1) == 0
                      and freq(mu, below + 1) == 0 and freq(lam, two_j) == 0)
        return freq(lam, two_j) + freq(lam, two_j - 1) + freq(mu, two_j - 1) + unattached

    if freq(lam, 1) + freq(lam, 2) + freq(mu, 1) > i - 1:
        return False
    top = max(lam[0] if lam else 0, mu[0] if mu else 0) // 2 + 2
    return all(freq(lam, 2 * j) + v3(2 * j + 2) <= k - 1 for j in range(1, top))


def partitions_odd_distinct(n):
    """Partitions of n whose odd parts are distinct."""
    def rec(m, max_part):
        if m == 0:
            yield ()
            return
        for first in range(min(m, max_part), 0, -1):
            cap = first - 1 if first % 2 == 1 else first
            for rest in rec(m - first, cap):
                yield (first,) + rest
    yield from rec(n, n)


def _pair_counts(parts_of, lam_ok, mu_ok, n_max):
    """Pairs (lam, mu) from ``parts_of`` of each weight n <= n_max with lam
    passing ``lam_ok`` and mu ``mu_ok``: a convolution of one-component counts."""
    lam = [sum(map(lam_ok, parts_of(n))) for n in range(n_max + 1)]
    mu = [sum(map(mu_ok, parts_of(n))) for n in range(n_max + 1)]
    return [sum(lam[w] * mu[n - w] for w in range(n + 1)) for n in range(n_max + 1)]


class TestASidesFromProducts:
    """Each A side, a product over part sizes, equals the count of the
    objects it stands for, enumerated and tested part by part."""

    N = 14  # the default enumeration bound, which the B tables of the sides obey

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_odd_modulus(self, k):
        want = [sum(1 for lam in overpartitions_of(n) if all(s % (2 * k - 1) for s, _ in lam.parts))
                for n in range(self.N + 1)]
        assert overpartition_identity_sides(k, self.N)[0] == want

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_root_of_unity(self, k):
        want = _pair_counts(overpartitions_of,
                            lambda lam: all(s % (k - 1) for s, _ in lam.parts),
                            lambda mu: all(s % 2 == 0 for s, _ in mu.parts), self.N)
        assert weighted_pair_identity_sides(k, self.N)[0] == want

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_even_modulus(self, k):
        mod = 4 * k - 2
        for i in range(2, k + 1):
            banned = {0, (2 * i - 2) % mod, -(2 * i - 2) % mod}
            want = _pair_counts(partitions_odd_distinct, lambda lam: True,
                                lambda mu: all(s % 2 or s % mod not in banned for s in mu), self.N + 1)
            assert partition_pair_product_side(k, i, self.N + 1) == want, i


def _partition_pair_b_side(k, i, n_max):
    """Reference B side of the partition-pair identity: every pair of
    partitions with distinct odd parts, checked part by part."""
    return [sum(1 for w in range(n + 1) for lam in partitions_odd_distinct(w)
                for mu in partitions_odd_distinct(n - w) if _even_level_pair_ok(lam, mu, k, i))
            for n in range(n_max + 1)]


def _odd_modulus_image(pair):
    """lam_j -> 2j, mu_j -> 2j - 1, overlines kept: one overpartition."""
    return O([(2 * s, o) for s, o in pair.lam.parts] + [(2 * s - 1, o) for s, o in pair.mu.parts])


def _even_modulus_image(pair):
    """lam_j -> 2j, lam~_j -> 2j - 1 and mu_j -> 2j - 2, mu~_j -> 2j - 1: a
    pair of partitions."""
    lam = [2 * s - o for s, o in pair.lam.parts]
    mu = [2 * s - 1 if o else 2 * s - 2 for s, o in pair.mu.parts]
    return tuple(sorted(lam, reverse=True)), tuple(sorted(mu, reverse=True))


def _odd_parts_distinct(p):
    odd = [s for s in p if s % 2]
    return len(odd) == len(set(odd))


def _stats(w, pair):
    """The (s, t, n) a count table files the pair of weight w under."""
    return pair.s_stat(), pair.t_stat(), w


def _with_plain_one(pair):
    """The pair with one more non-overlined 1 in mu."""
    return OverpartitionPair(pair.lam, O(pair.mu.parts + ((1, False),)))


def _fourth_root_weight(pair):
    """i^(overlined in lam) * (-i)^(overlined in mu), read off the parts."""
    return unit_pow(I, len(pair.lam.over)) * unit_pow(-I, len(pair.mu.over))


class TestPartMaps:
    # Each pair of weight <= 8 is mapped part by part, so the statistic
    # that the image weight subtracts is checked pair by pair, not only
    # through counts that are symmetric in (s, t).
    W = 8

    def test_odd_modulus_map(self):
        for w in range(self.W + 1):
            for pair in pairs_of(w):
                image = _odd_modulus_image(pair)
                assert image.weight() == odd_modulus_image_weight(*_stats(w, pair))
                for k in (2, 3, 4):
                    for i in range(1, k + 1):
                        assert (pair.satisfies_frequency_conditions(k, i)
                                == _even_level_ok(image, k, i)), (pair, k, i)

    def test_even_modulus_map(self):
        images = {}
        for w in range(self.W + 1):
            for pair in pairs_of(w):
                if pair.mu.plain.get(1):
                    continue
                lam, mu = _even_modulus_image(pair)
                weight = sum(lam) + sum(mu)
                assert weight == even_modulus_image_weight(*_stats(w, pair)) >= w
                assert 0 not in mu and _odd_parts_distinct(lam) and _odd_parts_distinct(mu)
                assert images.setdefault((lam, mu), pair) is pair, pair
                for k in (2, 3, 4):
                    for i in range(1, k + 1):
                        assert (pair.satisfies_frequency_conditions(k, i)
                                == _even_level_pair_ok(lam, mu, k, i)), (pair, k, i)
        # The images of weight <= W are all the pairs of partitions with
        # distinct odd parts of weight <= W.
        for m in range(self.W + 1):
            want = {(lam, mu) for w in range(m + 1) for lam in partitions_odd_distinct(w)
                    for mu in partitions_odd_distinct(m - w)}
            assert {im for im in images if sum(map(sum, im)) == m} == want, m

    def test_root_of_unity_weight(self):
        # s - t is the overlined parts of lam less those of mu.
        for w in range(self.W + 1):
            for pair in pairs_of(w):
                assert root_of_unity_weight(*_stats(w, pair)) == _fourth_root_weight(pair), pair

    def test_plain_one_in_mu_keeps_the_conditions(self):
        # For i >= 2, adding one plain 1 to mu keeps the (k, i) conditions
        # and shifts (s, t, n) by (1, 1, 1); every pair of weight <= W with a
        # plain 1 in mu is such an image, so removing one keeps them too.
        # The even-modulus side subtracts the shifted table.
        for w in range(self.W):
            for pair in pairs_of(w):
                more = _with_plain_one(pair)
                s, t, n = _stats(w, pair)
                assert _stats(w + 1, more) == (s + 1, t + 1, n + 1)
                for k in (2, 3, 4):
                    for i in range(2, k + 1):
                        assert (more.satisfies_frequency_conditions(k, i)
                                == pair.satisfies_frequency_conditions(k, i)), (pair, k, i)


def _stream_odd_side(k, i, n_max):
    """Reference odd-modulus B side: the images of the stream's pairs, mapped
    part by part and tallied by weight."""
    counts = [0] * (n_max + 1)
    for _, pair in frequency_pairs(k, i, n_max):
        image = _odd_modulus_image(pair).weight()
        if image <= n_max:
            counts[image] += 1
    return counts


def _table_odd_side(k, i, n_max):
    """The odd-modulus B side at any i, which the identity states only at
    i = k: the (k, i) count table's pairs by image weight."""
    return _image_counts(count_frequency_pairs(k, i, n_max).entries, odd_modulus_image_weight, n_max)


def _stream_even_side(k, i, n_max):
    """Reference even-modulus B side: the images of the stream's pairs with
    no plain 1 in mu, mapped part by part and tallied by weight."""
    counts = [0] * (n_max + 1)
    for _, pair in frequency_pairs(k, i, n_max):
        image = sum(map(sum, _even_modulus_image(pair)))
        if not pair.mu.plain.get(1) and image <= n_max:
            counts[image] += 1
    return counts


def _stream_weighted_sides(k, n_max):
    """Reference root-of-unity B sides: the parity-refined (k, k - 1) stream
    summed with its fourth-root weights, split by the parity of the
    overlined parts."""
    sums = {0: [0] * (n_max + 1), 1: [0] * (n_max + 1)}
    for n, pair in frequency_pairs(k, k - 1, n_max, parity=True):
        row = sums[(len(pair.lam.over) + len(pair.mu.over)) % 2]
        row[n] += _fourth_root_weight(pair)
    return sums[0], sums[1]


class TestBSidesFromTables:
    """Each B side, read from the count tables, equals the tally of the pair
    stream it replaces."""

    N = (0, 1, 5, 10, 12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_odd_modulus(self, k):
        for i in range(1, k + 1):
            for n in self.N:
                want = _stream_odd_side(k, i, n)
                assert _table_odd_side(k, i, n) == want, (i, n)
                if i == k:
                    assert overpartition_identity_sides(k, n)[1] == want, n

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_even_modulus(self, k):
        for i in range(2, k + 1):
            for n in self.N:
                assert partition_pair_identity_sides(k, i, n)[1] == _stream_even_side(k, i, n), (i, n)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_root_of_unity(self, k):
        for n in self.N:
            assert weighted_pair_identity_sides(k, n)[1:] == _stream_weighted_sides(k, n), n


class TestOddModulusIdentity:
    def test_b_side_is_the_even_level_count(self):
        # Side B is the image of the frequency pairs under lam_j -> 2j,
        # mu_j -> 2j - 1; it must count the overpartitions that obey the
        # even-level conditions directly.
        for k in (2, 3, 4):
            for i in range(1, k + 1):
                assert _table_odd_side(k, i, 10) == _even_level_b_side(k, i, 10), (k, i)

    def test_sides_agree(self):
        for k in (2, 3):
            a, b = overpartition_identity_sides(k, 10)
            assert a == b

    def test_k2_values(self):
        # Frozen from the enumeration oracle; matches the product
        # (-q)inf (q3;q3)inf / ((q)inf (-q3;q3)inf) expansion.
        a, _ = overpartition_identity_sides(2, 6)
        assert a == [1, 2, 4, 6, 10, 16, 24]


class TestRootOfUnityIdentity:
    def test_sides_agree_and_odd_class_vanishes(self):
        a, even, odd = weighted_pair_identity_sides(3, 9)
        assert even == a
        assert all(w == 0 for w in odd)
        assert all(isinstance(w, int) for w in even)

    def test_weights_are_gaussian_units(self):
        _, even, _ = weighted_pair_identity_sides(3, 5)
        assert even[0] == 1

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            weighted_pair_identity_sides(2, 5)


class TestEvenModulusIdentity:
    def test_trivial_weight_zero(self):
        a, b = partition_pair_identity_sides(2, 2, 0)
        assert a == [1] and b == [1]

    def test_sides_agree(self):
        for k, i in ((2, 2), (3, 2), (3, 3)):
            a, b = partition_pair_identity_sides(k, i, 10)
            assert a == b

    def test_b_side_is_the_even_level_count(self):
        for k in (2, 3, 4, 5):
            for i in range(2, k + 1):
                _, b = partition_pair_identity_sides(k, i, 10)
                assert b == _partition_pair_b_side(k, i, 10), (k, i)

    def test_odd_distinct_enumeration(self):
        # gf prod (1+q^(2j-1))/(1-q^(2j)) = sum of counts
        from qpair.series import mono, pochhammer_inf

        cutoff = 10
        g = pochhammer_inf(mono(-1, q=1), cutoff, step=2)
        g = g * pochhammer_inf(mono(1, q=2), cutoff, step=2).invert()
        for n in range(cutoff):
            assert len(list(partitions_odd_distinct(n))) == g.coeff_q(n)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            partition_pair_identity_sides(3, 1, 5)
