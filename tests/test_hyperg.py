import hashlib
from functools import partial
from itertools import count, takewhile

import pytest
from hypothesis import given, settings, strategies as st

from qpair.counts import CountTable
from qpair.gaussint import GaussInt
import qpair.hyperg as hyperg
from qpair.hyperg import (
    ABQ,
    NEG_AQ,
    NEG_BQ,
    Q,
    BaileyPair,
    _R_family,
    _alpha_demand,
    _beta_demand,
    _horner,
    _nested_multisum,
    bailey_chain_bilateral,
    bailey_lattice_rhs,
    bailey_lattice_sides,
    bailey_pair_b3,
    bailey_pair_e3,
    bailey_relation_mismatch,
    j_tilde_from_h,
    jacobi_triple_product,
    multisum_admissible,
    multisum_self_conjugate,
    q_gauss_sides,
    series_H_tilde,
    series_J_tilde,
    series_R,
    series_R_bilateral,
    series_R_tilde,
    series_R_tilde_bilateral,
)
from qpair.overpartitions import count_frequency_pairs, pairs_of
from qpair.paths import gf_closed, gf_gamma_closed
from qpair.qtools import f_poly, inv_qpoch
from qpair.series import TruncatedSeries, geometric, mono, over_one_minus, pochhammer_inf, qproduct
from qpair.verify import VerifyConfig, run_suite

C = 10
KI = [(k, i) for k in (2, 3, 4) for i in range(1, k + 1)]
X = TruncatedSeries.poly([mono(1, x=1)])
ONE_PLUS_X = TruncatedSeries.poly([mono(1), mono(1, x=1)])


class TestSeriesR:
    def test_constant_term(self):
        for k, i in ((2, 1), (3, 3)):
            assert series_R(k, i, 6).coeff(0, 0, 0, 0) == 1
            assert series_R_tilde(k, i, 6).coeff(0, 0, 0, 0) == 1

    def test_rogers_ramanujan_diagonal(self):
        s = series_R(2, 2, 9, x_one=True)
        got = [s.coeff(0, 0, 0, n) for n in range(9)]
        assert got == [1, 1, 1, 1, 2, 2, 3, 3, 4]

    def test_full_table_matches_enumeration(self):
        # Three-statistic refinement: coefficient of a^s b^t x^m q^n counts
        # pairs with m parts.
        s = series_R(2, 1, 7)
        for n in range(7):
            table = {}
            for p in pairs_of(n):
                if p.satisfies_frequency_conditions(2, 1):
                    key = (p.s_stat(), p.t_stat(), p.num_parts())
                    table[key] = table.get(key, 0) + 1
            for (da, db, dx, dq), c in s.terms.items():
                if dq == n:
                    assert table.get((da, db, dx), 0) == c
            for (da, db, dx), c in table.items():
                assert s.coeff(da, db, dx, n) == c

    def test_x_one_matches_specialized_full(self):
        for k, i in ((2, 2), (3, 1)):
            fast = series_R(k, i, 8, x_one=True)
            full = series_R(k, i, 8).specialize(sub_x=(1, 0))
            assert fast.first_mismatch(full) is None

    def test_tilde_table_matches_enumeration(self):
        for k, i in ((2, 2), (3, 3)):
            got = CountTable.from_series(series_R_tilde(k, i, 9, x_one=True), 8)
            want = count_frequency_pairs(k, i, 8, parity=True)
            assert got.first_mismatch(want) is None

    def test_each_member_built_once_per_run(self):
        _R_family.cache_clear()
        cfg = VerifyConfig()
        for suite in ("qdiff-R", "qdiff-Rtilde", "htilde-identities", "series-vs-enum"):
            assert run_suite(suite, cfg).ok
        # One R and one R-tilde per (k, i), k in {2, 3, 4}.
        assert _R_family.cache_info().misses == 18

    def test_cache_key_is_the_resolved_member(self):
        _R_family.cache_clear()
        assert series_R(3, 2, 8) is series_R(3, 2, 8)
        assert series_R_tilde(3, 2, 8) is series_R_tilde(3, 2, 8)
        assert series_R_tilde(3, 2, 8) != series_R(3, 2, 8)
        assert _R_family.cache_info().misses == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            series_R(2, 3, 6)
        with pytest.raises(ValueError):
            series_R_tilde(1, 1, 6)


def _j_from_h(k, i, c):
    """J~ from the shifted H~ relation, given freshly built H~ series."""
    return j_tilde_from_h(*(series_H_tilde(k, m, c) for m in (i, i - 1, i - 2)), i)


class TestAuxiliarySeries:
    def test_h_vanishes_at_index_zero(self):
        for k in (1, 2, 3):
            assert not series_H_tilde(k, 0, C).terms

    def test_h_negative_index_reflection(self):
        # The object returned at -i is x^i times the series, so the
        # reflection identity reads as plain negation.
        for k, i in ((1, 1), (2, 1), (2, 2), (3, 2)):
            lhs = series_H_tilde(k, -i, C)
            rhs = -series_H_tilde(k, i, C)
            assert lhs.first_mismatch(rhs) is None

    def test_h_difference_identity(self):
        for k in (2, 3):
            for i in range(1, k + 1):
                j = series_J_tilde(k, k - i + 1, C)
                if i >= 2:
                    lhs = series_H_tilde(k, i, C) - series_H_tilde(k, i - 2, C)
                    rhs = (ONE_PLUS_X * j).times_monomial(mono(1, x=i - 2))
                else:
                    lhs = X * series_H_tilde(k, 1, C) - series_H_tilde(k, -1, C)
                    rhs = ONE_PLUS_X * j
                assert lhs.first_mismatch(rhs) is None, (k, i)

    def test_j_dual_route(self):
        for k in (2, 3):
            for i in range(1, k + 1):
                prod = series_J_tilde(k, i, C)
                diff = _j_from_h(k, i, C)
                assert prod.first_mismatch(diff) is None, (k, i)

    H_SWEEP = [(k, i) for k in range(1, 6) for i in range(-k - 2, k + 3) if k > 1 or abs(i) < 2]

    def test_h_sweep_digest(self):
        # sha256 over the concatenated to_json() of every H~ in the sweep,
        # windows included.
        digest = hashlib.sha256()
        for k, i in self.H_SWEEP:
            for c in (1, 2, 5, 9, 13, 17):
                digest.update(series_H_tilde(k, i, c).to_json().encode())
        assert digest.hexdigest() == "695b02d675215acac37ef18beeb13ac869f7ad681349f3e268d08bcddb8c1c10"

    def test_h_sweep_agrees_across_cutoffs(self):
        # Every coefficient a window claims is the one a larger cutoff gives.
        for k, i in self.H_SWEEP:
            top = series_H_tilde(k, i, 17)
            for c in (1, 2, 5, 9, 13):
                assert series_H_tilde(k, i, c).first_mismatch(top) is None, (k, i, c)

    def test_h_negative_floors_keep_the_cutoff(self):
        # Past |i| = k + 1 the summand floors fall below q^0 (to q^-14 at
        # k 4, |i| 15), and each build still holds every coefficient below
        # the requested cutoff: the ones a cutoff-24 build gives.
        for k in (2, 3, 4):
            for i in (-3 * k - 3, -2 * k - 1, -k - 2, 3 * k + 3):
                top = series_H_tilde(k, i, 24)
                for c in (1, 5, 9, 13):
                    s = series_H_tilde(k, i, c)
                    assert s.q_cutoff == c and s.q_floor < c, (k, i, c)
                    assert s.first_mismatch(top) is None, (k, i, c)

    def test_h_rejects_nontruncating_parameters(self):
        with pytest.raises(ValueError, match="truncation"):
            series_H_tilde(1, 3, C)


class TestBilateral:
    def test_matches_x_one_specialization(self):
        # The two-sided sum is the only x = 1 builder: it must equal the full
        # series at x = 1, window and all.
        for bilateral, full in ((series_R_bilateral, series_R), (series_R_tilde_bilateral, series_R_tilde)):
            for k, i in KI:
                want = full(k, i, C).specialize(sub_x=(1, 0))
                assert bilateral(k, i, C) == want, (bilateral.__name__, k, i)

    def test_constant_term(self):
        assert series_R_bilateral(2, 2, 6).coeff(0, 0, 0, 0) == 1


class TestJacobiTripleProduct:
    @pytest.mark.parametrize("z", [mono(1), mono(-1), mono(1, q=1), mono(GaussInt(0, 1))])
    def test_sides_agree(self, z):
        lhs, rhs = jacobi_triple_product(z, 16)
        assert lhs.first_mismatch(rhs) is None

    def test_constant_terms(self):
        lhs, rhs = jacobi_triple_product(mono(1), 12)
        assert lhs.coeff_q(0) == 1
        assert rhs.coeff_q(0) == 1

    def test_square_counting(self):
        lhs, _ = jacobi_triple_product(mono(1), 17)
        assert [lhs.coeff_q(n) for n in range(10)] == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]


class TestQGauss:
    @pytest.mark.parametrize("n", [0, 1, 2, -1, -2])
    def test_sides_agree(self, n):
        lhs, rhs = q_gauss_sides(n, C)
        assert lhs.first_mismatch(rhs) is None

    def test_reflection(self):
        lhs_pos, _ = q_gauss_sides(2, C)
        lhs_neg, _ = q_gauss_sides(-2, C)
        assert lhs_pos.first_mismatch(lhs_neg) is None

    def test_rhs_constant_term(self):
        _, rhs = q_gauss_sides(0, 6)
        assert rhs.coeff(0, 0, 0, 0) == 1

    def test_suite_builds_one_rhs(self, monkeypatch):
        # The right side does not depend on n: the suite's five sides share
        # one build of it.
        builds = []
        monkeypatch.setattr(hyperg, "qproduct", lambda *args: builds.append(args) or qproduct(*args))
        hyperg._q_gauss_rhs.cache_clear()
        assert run_suite("q-gauss", VerifyConfig(cutoff=C)).ok
        assert len(builds) == 1
        assert len({id(q_gauss_sides(n, C)[1]) for n in range(-2, 3)}) == 1


def _recursive_multisum(depth, i_level, beta, q_cutoff):
    """The lattice multisum index tuple by index tuple: the reference for
    ``hyperg._nested_multisum``, which sums one level at a time."""
    if depth == 0:
        return beta(0).truncated(q_cutoff)
    total = TruncatedSeries.zero(q_cutoff)

    def rec(level, prev, expo, partial):
        nonlocal total
        # ``partial`` carries its shift q^expo, so each new factor is cut to
        # the room above it and the product stops at q_cutoff.
        if level > depth:
            total = total + partial * beta(prev).truncated(q_cutoff - expo)
            return
        for nj in range(prev, -1, -1):
            e = hyperg._level_exponent(level, nj, i_level)
            if expo + e >= q_cutoff:
                continue
            rec(level + 1, nj, expo + e, partial.times_monomial(mono(1, q=e))
                * inv_qpoch(prev - nj, q_cutoff).truncated(q_cutoff - expo - e))

    for n1 in takewhile(lambda n: hyperg._level_exponent(1, n, i_level) < q_cutoff, count()):
        e1 = hyperg._level_exponent(1, n1, i_level)
        rec(2, n1, e1, f_poly(n1, q_cutoff).truncated(q_cutoff - e1).times_monomial(mono(1, q=e1)))
    return total


class TestBaileyPairs:
    def test_constructors_verify_relation(self):
        b3 = bailey_pair_b3(4, 12)
        e3 = bailey_pair_e3(4, 12)
        assert b3.alphas[0].terms == {(0, 0, 0, 0): 1}
        assert e3.alphas[0].terms == {(0, 0, 0, 0): 1}
        assert bailey_relation_mismatch(b3) is None
        assert bailey_relation_mismatch(e3) is None

    def test_beta_zero_is_one(self):
        # beta_0 = alpha_0 = 1; the constant-in-n form 1/(q)_inf would
        # break the defining relation at n = 0 already.
        b3 = bailey_pair_b3(2, 10)
        assert b3.betas[0].terms == {(0, 0, 0, 0): 1}
        qinf_inv = pochhammer_inf(mono(1, q=1), 10).invert()
        assert b3.betas[0].first_mismatch(qinf_inv) is not None

    def test_beta_one_values(self):
        b3 = bailey_pair_b3(2, 10)
        e3 = bailey_pair_e3(2, 10)
        assert b3.betas[1].first_mismatch(geometric(mono(1, q=1), 10)) is None
        assert e3.betas[1].first_mismatch(geometric(mono(1, q=2), 10)) is None

    def test_corrupted_pair_rejected(self):
        b3 = bailey_pair_b3(3, 10)
        bad = BaileyPair("bad", b3.alphas, b3.alphas, 10)
        (n, *_), lhs, rhs = bailey_relation_mismatch(bad)
        assert n == 1 and lhs != rhs

    @pytest.mark.parametrize("make", [bailey_pair_b3, bailey_pair_e3])
    def test_planted_alpha_term_is_caught_where_planted(self, make):
        # alpha_r first enters the sum side at n = r, over (q)_0 (q^2; q)_2r
        # = 1 + O(q^2), so one extra term in alpha_r shows there, at its own
        # key and with its own coefficient.
        c = 12
        pair = make(6, c)
        for r in range(pair.depth() + 1):
            for term in (mono(1, q=0), mono(-2, a=1, x=1, q=r), mono(GaussInt(0, 1), b=2, q=c - 1)):
                alphas = list(pair.alphas)
                alphas[r] = alphas[r] + TruncatedSeries.poly([term])
                planted = BaileyPair("planted", tuple(alphas), pair.betas, c)
                (n, *key), lhs, rhs = bailey_relation_mismatch(planted)
                assert (n, tuple(key)) == (r, tuple(term[1:])), (r, term)
                assert lhs - rhs == term.coeff, (r, term)


class TestBaileyLattice:
    def test_identity_holds(self):
        b3 = bailey_pair_b3(9, 10)
        e3 = bailey_pair_e3(9, 10)
        for pair in (b3, e3):
            for k in (1, 2, 3):
                for i in range(k + 1):
                    lhs, rhs = bailey_lattice_sides(pair, k, i, 8)
                    assert lhs.first_mismatch(rhs) is None, (pair.label, k, i)

    def test_degenerate_depth_zero(self):
        b3 = bailey_pair_b3(9, 10)
        lhs, rhs = bailey_lattice_sides(b3, 0, 0, 8)
        assert lhs.first_mismatch(rhs) is None

    def test_empty_multisum_is_beta_0(self):
        # Depth 0 has no summation index, so it is beta_0 alone, not the
        # depth-1 sum.
        b3 = bailey_pair_b3(9, 12)
        beta = lambda m: b3.betas[m]
        assert _nested_multisum(0, 0, beta, 10) == b3.betas[0].truncated(10)
        assert _nested_multisum(0, 0, beta, 10) != _nested_multisum(1, 0, beta, 10)

    def test_rhs_is_the_alpha_side(self):
        b3, e3 = bailey_pair_b3(9, 9), bailey_pair_e3(9, 9)
        for pair in (b3, e3):
            for k in range(4):
                for i in range(k + 1):
                    assert bailey_lattice_rhs(pair, k, i, 9) == bailey_lattice_sides(pair, k, i, 9)[1]

    def test_chain_bilateral_is_the_dressed_alpha_side(self):
        # The alpha side closed by (-aq, -bq)_inf / (q, abq)_inf equals the
        # alpha side times (q, -aq, -bq)_inf / (abq)_inf, terms and window,
        # and from B3 (E3) the bilateral form one step up.
        for c in range(4, 21, 3):
            for pair, bilateral in ((bailey_pair_b3(c, c), series_R_bilateral),
                                    (bailey_pair_e3(c, c), series_R_tilde_bilateral)):
                for k in range(1, 5):
                    for i in range(k + 1):
                        got = bailey_chain_bilateral(pair, k, i, c)
                        assert got == qproduct(bailey_lattice_rhs(pair, k, i, c), (Q, NEG_AQ, NEG_BQ), (ABQ,))
                        assert got.first_mismatch(bilateral(k + 1, i + 1, c)) is None, (pair.label, k, i, c)
        with pytest.raises(ValueError, match="k >= 1"):
            bailey_chain_bilateral(bailey_pair_b3(4, 8), 0, 0, 8)

    def test_insufficient_depth_reported(self):
        b3 = bailey_pair_b3(1, 10)
        with pytest.raises(ValueError, match="n_max"):
            bailey_lattice_sides(b3, 2, 1, 10)

    @pytest.mark.parametrize("make", [bailey_pair_b3, bailey_pair_e3])
    def test_depth_demand_is_the_deepest_beta_read(self, make):
        # The beta side's demand is exactly the largest beta index the
        # multisum reads, and a pair one shallower is refused.
        for c in (6, 10, 16):
            deep = make(c, c)
            for k in range(4):
                for i in range(k + 1):
                    read = []
                    _nested_multisum(k, i, lambda m: read.append(m) or deep.betas[m], c)
                    need = _beta_demand(k, i, c)
                    assert max(read) == need, (c, k, i)
                    if need:
                        with pytest.raises(ValueError, match=f"need n_max >= {need}$"):
                            bailey_lattice_sides(make(need - 1, c), k, i, c)

    @pytest.mark.parametrize("make", [bailey_pair_b3, bailey_pair_e3])
    def test_alpha_demand_is_the_deepest_alpha_read(self, make, monkeypatch):
        # The alpha side's demand is exactly the largest alpha index it
        # reads.  A pair deep enough for the beta side but one short for the
        # alpha side is refused before the multisum is built.
        read = []

        class Reads(tuple):
            def __getitem__(self, n):
                read.append(n)
                return tuple.__getitem__(self, n)

        multisums = []
        monkeypatch.setattr(hyperg, "_nested_multisum", lambda *args: multisums.append(args))
        refused = set()
        for c in (6, 10, 16):
            deep = make(c, c)
            for k in range(1, 4):
                for i in range(k + 1):
                    read.clear()
                    bailey_lattice_rhs(BaileyPair(deep.label, Reads(deep.alphas), deep.betas, c), k, i, c)
                    need = _alpha_demand(k, i, c)
                    assert max(read) == need, (c, k, i)
                    if need > _beta_demand(k, i, c):
                        with pytest.raises(ValueError, match=f"alpha side: need n_max >= {need}$"):
                            bailey_lattice_sides(make(need - 1, c), k, i, c)
                        refused.add((c, k, i))
        assert not multisums
        assert refused == {(c, k, 0) for c in (6, 10, 16) for k in (1, 2, 3)} | {(10, 3, 1)}

    @pytest.mark.parametrize("make", [bailey_pair_b3, bailey_pair_e3, None], ids=["B3", "E3", "1/(q)_m"])
    def test_multisum_is_the_recursive_sum(self, make):
        # Terms and window equal the index-by-index sum, for the lattice's
        # pairs and the Durfee families' beta.
        pair = make(14, 14) if make else None
        for c in range(1, 15):
            beta = (lambda m: pair.betas[m]) if pair else (lambda m: inv_qpoch(m, c))
            for depth in range(5):
                for i_level in range(depth + 1):
                    want = _recursive_multisum(depth, i_level, beta, c)
                    assert _nested_multisum(depth, i_level, beta, c) == want, (c, depth, i_level)

    def test_one_product_per_innermost_index(self, monkeypatch):
        # beta is read, and multiplied in, once per innermost index: the
        # indices 0 to the demand.
        c = 14
        b3 = bailey_pair_b3(c, c)
        for m in range(c):
            f_poly(m, c)
        products = []
        mul = TruncatedSeries.__mul__
        monkeypatch.setattr(TruncatedSeries, "__mul__", lambda s, t: products.append(1) or mul(s, t))
        for depth in range(1, 5):
            for i_level in range(depth + 1):
                read = []
                products.clear()
                _nested_multisum(depth, i_level, lambda m: read.append(m) or b3.betas[m], c)
                assert read == list(range(_beta_demand(depth, i_level, c) + 1)), (depth, i_level)
                assert len(products) == len(read), (depth, i_level)

    def test_multisums_equal_bilaterals(self):
        for k, i in ((k, i) for k in range(2, 6) for i in range(1, k + 1)):
            d = multisum_admissible(k, i, C)
            assert d.first_mismatch(series_R_bilateral(k, i, C)) is None
            dt = multisum_self_conjugate(k, i, C)
            assert dt.first_mismatch(series_R_tilde_bilateral(k, i, C)) is None

    def test_multisum_constant_terms(self):
        assert multisum_admissible(3, 2, 6).coeff(0, 0, 0, 0) == 1
        assert multisum_self_conjugate(3, 2, 6).coeff(0, 0, 0, 0) == 1


def level_monomials(q_min, q_max):
    """A unit, 2 or i times a, b and x to degree at most 1 and a q-power: the
    shapes of a Horner level's polynomial and factors."""
    return st.builds(mono, st.sampled_from([1, -1, 2, GaussInt(0, 1)]), st.integers(0, 1),
                     st.integers(0, 1), st.integers(0, 1), st.integers(q_min, q_max))


class TestHornerDriver:
    # Euler's two sums and the q-binomial theorem, as level tables against
    # their products: sum x^n q^n / (q)_n = 1/(xq)_inf,
    # sum x^n q^(n(n+1)/2) / (q)_n = (-xq)_inf and
    # sum (a + 1)(a + q)...(a + q^(n-1)) x^n q^n / (q)_n = (-xq)_inf / (axq)_inf,
    # the last through Laurent numerators.
    @staticmethod
    def _levels(floor, num, c, planted=None):
        levels = [(0, TruncatedSeries.poly([mono(1)]), (), ())]
        for n in (n for n in range(1, c) if floor(n) < c):
            sign = -1 if n == planted else 1
            levels.append((floor(n), TruncatedSeries.poly([mono(1, x=n)]), num(n), (mono(sign, q=n),)))
        return levels

    CASES = [
        (lambda n: n, lambda n: (), (), (mono(1, x=1, q=1),)),
        (lambda n: n * (n + 1) // 2, lambda n: (), (mono(-1, x=1, q=1),), ()),
        (lambda n: n, lambda n: (mono(-1, a=1, q=1 - n),), (mono(-1, x=1, q=1),), (mono(1, a=1, x=1, q=1),)),
    ]

    @pytest.mark.parametrize("floor,num,prod_num,prod_den", CASES, ids=["euler-1", "euler-2", "q-binomial"])
    def test_sums_equal_products(self, floor, num, prod_num, prod_den):
        for c in range(1, 21):
            got = _horner(self._levels(floor, num, c), c)
            assert (got.q_floor, got.q_cutoff) == (0, c)
            assert got.first_mismatch(qproduct(TruncatedSeries.one(c), prod_num, prod_den)) is None, c

    def test_planted_wrong_sign_is_caught(self):
        # 1/(1 + q^3) in place of 1/(1 - q^3) on Euler's first sum.
        floor, num, prod_num, prod_den = self.CASES[0]
        got = _horner(self._levels(floor, num, 12, planted=3), 12)
        assert got.first_mismatch(qproduct(TruncatedSeries.one(12), prod_num, prod_den)) is not None

    @staticmethod
    def _summand_at_full_cutoff(levels, n, c):
        # The factors of levels 0 to n, one at a time on the series 1 at
        # cutoff c - min(floor_n, 0) (a Laurent numerator shifted back up),
        # times poly_n, shifted to floor_n: exact below the absolute cutoff c.
        floor, poly = levels[n][:2]
        s = TruncatedSeries.one(c - min(floor, 0))
        for _, _, num, den in levels[:n + 1]:
            for m in num:
                one_minus = TruncatedSeries.poly([mono(1), m._replace(coeff=-m.coeff)])
                s = (s * one_minus).times_monomial(mono(1, q=max(-m.q, 0)))
            for m in den:
                s = over_one_minus(s, m)
        return (s * poly).times_monomial(mono(1, q=floor))

    @pytest.mark.parametrize("floor", [lambda n: n * n - 4 * n, lambda n: n * (n + 1) // 2],
                             ids=["falling", "rising"])
    def test_sum_is_the_full_cutoff_summands(self, floor):
        # Terms and window are those of the summands built exactly to the
        # cutoff, also where the floors fall for several levels, so later
        # summands lie below earlier ones (as H~'s do for |i| >= 3k).
        for c in range(1, 13):
            levels = [(floor(n), TruncatedSeries.poly([mono(1, x=n), mono(-1, a=1, x=n, q=1)]),
                       (mono(-1, a=1, q=1 - n), mono(1, x=1, q=n)) if n else (),
                       (mono(1, q=n), mono(-1, b=1, q=n)) if n else (mono(-1, b=1, q=1),))
                      for n in takewhile(lambda n: floor(n) < c, count())]
            want = sum((self._summand_at_full_cutoff(levels, n, c) for n in range(len(levels))),
                       TruncatedSeries.zero(c))
            assert _horner(levels, c) == want, c

    def test_fused_close_is_the_product_of_the_sum(self, monkeypatch):
        # Each builder that closes its sum with an infinite product gives the
        # terms and window of qproduct on the unclosed sum.  Both keep the
        # sum's window, so neither raises, H~ at large |i| and small cutoffs
        # included; an error on either side would still have to match.
        tables = []

        def spy(levels, q_cutoff, close=((), ())):
            tables.append((levels, q_cutoff, close))
            return _horner(levels, q_cutoff, close)

        def outcome(build):
            try:
                s = build()
            except ValueError as exc:
                return str(exc)
            return dict(s.terms), s.q_floor, s.q_cutoff

        monkeypatch.setattr(hyperg, "_horner", spy)
        _R_family.cache_clear()
        hyperg._bilateral.cache_clear()
        for c in range(1, 17):
            pairs = (bailey_pair_b3(c, c), bailey_pair_e3(c, c))
            for k in range(1, 6):
                builds = [partial(series_H_tilde, k, i, c) for i in range(-3 * k - 3, 3 * k + 4)
                          if k > 1 or abs(i) < 2]
                builds += [partial(bailey_lattice_rhs, pair, k, i, c) for pair in pairs for i in range(k + 1)]
                builds += [partial(build, k, i, c) for build in (series_R, series_R_tilde, series_R_bilateral,
                                                                 series_R_tilde_bilateral)
                           for i in range(1, k + 1) if k > 1]
                for build in builds:
                    tables.clear()
                    got = outcome(build)
                    [(levels, q_cutoff, close)] = tables
                    assert close != ((), ())
                    want = outcome(lambda: qproduct(_horner(levels, q_cutoff), *close))
                    assert got == want, (build, c)
        _R_family.cache_clear()
        hyperg._bilateral.cache_clear()

    @staticmethod
    def _exact_summand(levels, n, far):
        # q^floor_n poly_n times the factors of levels 0 to n by general
        # products, each inverse taken far enough to be exact below ``far``.
        floor, poly = levels[n][:2]
        s = poly.times_monomial(mono(1, q=floor))
        for _, _, num, den in levels[:n + 1]:
            for m in num:
                # A Laurent numerator of degree -d stands for q^d (1 - m).
                s = s * TruncatedSeries.poly([mono(1, q=max(-m.q, 0)),
                                              m._replace(coeff=-m.coeff, q=max(m.q, 0))])
            for m in den:
                one_minus = TruncatedSeries.poly([mono(1), m._replace(coeff=-m.coeff)])
                s = s * one_minus.invert(far - min(s.q_floor, 0))
        return s

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 8), st.lists(level_monomials(0, 3), max_size=3),
                              st.lists(level_monomials(-3, 3), max_size=2),
                              st.lists(level_monomials(1, 4), max_size=2)),
                    min_size=1, max_size=4),
           st.integers(1, 8), st.lists(level_monomials(1, 2), max_size=1),
           st.lists(level_monomials(1, 2), max_size=1))
    def test_sum_keeps_every_known_coefficient(self, table, c, close_num, close_den):
        # A random table, closed or not, against the sum of its summands
        # built exactly to 12 degrees past the cutoff and closed there.
        levels = [(floor, TruncatedSeries.poly(monos), tuple(num), tuple(den))
                  for floor, monos, num, den in table]
        got = _horner(levels, c, (tuple(close_num), tuple(close_den)))
        lo = min(floor + poly.q_floor for floor, poly, *_ in levels)
        assert (got.q_floor, got.q_cutoff) == ((lo, c) if lo < c else (0, c))
        far = c + 12
        want = sum((self._exact_summand(levels, n, far) for n in range(len(levels))),
                   TruncatedSeries.zero(far))
        for bases, invert in ((close_num, False), (close_den, True)):
            for m in bases:
                for e in range(m.q, far - min(want.q_floor, 0)):
                    factor = TruncatedSeries.poly([mono(1), m._replace(coeff=-m.coeff, q=e)])
                    want = want * (factor.invert(far - min(want.q_floor, 0)) if invert else factor)
        assert want.q_cutoff >= far
        assert got.first_mismatch(want) is None

    @pytest.mark.parametrize("floor", [lambda n: n * n - 4 * n, lambda n: n * (n + 1) // 2],
                             ids=["falling", "rising"])
    def test_levels_past_the_cutoff_add_nothing(self, floor):
        # Innermost levels whose least floor is at or past the cutoff are
        # dropped: the table equals the one that stops before them, and a
        # table with no level below the cutoff sums to the zero series.
        def levels(c):
            return [(floor(n), TruncatedSeries.poly([mono(1, x=n), mono(-1, a=1, x=n, q=1)]),
                     (mono(-1, a=1, q=1 - n),) if n else (), (mono(1, q=n),) if n else ())
                    for n in takewhile(lambda n: floor(n) < c, count())]

        for c in range(1, 13):
            assert _horner(levels(c + 6), c) == _horner(levels(c), c), c
            past = [(c + n, poly, num, den) for n, (_, poly, num, den) in enumerate(levels(c + 6))]
            assert _horner(past, c) == TruncatedSeries.zero(c), c


# ---------------------------------------------------------------- summand windows
#
# The builders form each summand only up to the q-degree it can reach after
# its shift.  The identity checks compare two series on their common window,
# so a room one too small would only shrink a cutoff and still pass them.
# These two tests pin the windows themselves.

B3_DEEP, E3_DEEP = bailey_pair_b3(13, 13), bailey_pair_e3(13, 13)


def _all(builder, params):
    return lambda c: [builder(*p, c) for p in params]


def _sides(builder, params):
    return lambda c: [side for p in params for side in builder(*p, c)]


def _even(builder, params):
    return lambda c: [builder(*p[:-1], c, even=p[-1]) for p in params]


WINDOW_BUILDERS = {
    "R": _all(series_R, KI),
    "R-x-one": _all(lambda k, i, c: series_R(k, i, c, x_one=True), KI),
    "Rtilde": _all(series_R_tilde, KI),
    "Rtilde-x-one": _all(lambda k, i, c: series_R_tilde(k, i, c, x_one=True), KI),
    # Below i = -(k + 1) the summand floors dip under 0; the pinned
    # H~(3, -5) output and the negative-floor sweep cover that case.
    "Htilde": _all(series_H_tilde, [(1, i) for i in (-1, 0, 1)]
                   + [(k, i) for k in (2, 3, 4) for i in range(-k - 1, k + 1)]),
    # At small cutoffs H~ with |i| >= 3 has x-degrees above the cutoff,
    # which a window in q alone keeps.
    "Htilde-small-cutoffs": _all(series_H_tilde, [(k, i) for k in range(1, 6)
                                                  for i in range(-k, k + 1) if k > 1 or abs(i) < 2]),
    "Jtilde-difference": _all(_j_from_h, KI),
    "R-bilateral": _all(series_R_bilateral, KI),
    "Rtilde-bilateral": _all(series_R_tilde_bilateral, KI),
    "q-gauss": _sides(q_gauss_sides, [(n,) for n in range(-2, 4)]),
    "bailey-lattice": _sides(bailey_lattice_sides, [(pair, k, i) for pair in (B3_DEEP, E3_DEEP)
                                                    for k in (2, 3, 4) for i in range(k + 1)]),
    "multisum-admissible": _all(multisum_admissible, KI),
    "multisum-self-conjugate": _all(multisum_self_conjugate, KI),
    "gf-closed": _even(gf_closed, [(k, i, peaks, even) for k, i in KI for peaks in (1, 3)
                                   for even in (False, True)]),
    "gf-gamma-closed": _even(gf_gamma_closed, [(k, i, peaks, even) for k in (2, 3, 4) for i in range(k)
                                               for peaks in (1, 3) for even in (False, True)]),
}


WINDOW_CUTOFFS = {"Htilde-small-cutoffs": range(2, 7)}


@pytest.mark.parametrize("name", sorted(WINDOW_BUILDERS))
def test_window_oracle(name):
    # Built past the cutoff and cut back, every series equals the one built
    # at the cutoff: same terms, same floor and cutoff.
    build = WINDOW_BUILDERS[name]
    for c in WINDOW_CUTOFFS.get(name, (4, 7, 10)):
        want = build(c)
        for d in (1, 3):
            got = [s.truncated(c) for s in build(c + d)]
            assert got == want, (name, c, d)


# (label, builder, sha256 of to_json()).  Taken at the commit before the
# summand rule; re-recorded when the series format dropped its var_cap key,
# each from the earlier build's to_obj() with that key removed.
PINNED = [
    ("R(3,2,9)", lambda: series_R(3, 2, 9),
     "59e96a42ad1607698a7969b4e9f499de9aec426d82b03edccdfbbfc5c50cd2cd"),
    ("R(2,1,9,x_one)", lambda: series_R(2, 1, 9, x_one=True),
     "caa29eea3dcb9a2f44d1beccae89ac558ad23540a7794fd970b80d3f6635d740"),
    ("Rtilde(3,1,9)", lambda: series_R_tilde(3, 1, 9),
     "a8fcdfc357363acfd19aa71c3733eab95ee3b691f31ad87e4af889435a24c0f6"),
    ("Rtilde(2,2,9)", lambda: series_R_tilde(2, 2, 9),
     "e4d25ca1379dca07f8b5e93e3054af75d1a87f396d863d4172e9126935c48973"),
    ("Htilde(1,1,9)", lambda: series_H_tilde(1, 1, 9),
     "573db3853cd84b46ed284940c474bafad5682d37a3cd13aba3dda2db19c0e1cd"),
    ("Htilde(2,0,9)", lambda: series_H_tilde(2, 0, 9),
     "4cdb8a5a9655622040f8517f6bcdc8fb1d90d01e7740f06f0c72b73765c77ff7"),
    ("Htilde(3,2,9)", lambda: series_H_tilde(3, 2, 9),
     "b9dbee6868551b8480dc8e579d417074600627f3978f43cf17d25813bf7e7be1"),
    ("Htilde(2,-1,9)", lambda: series_H_tilde(2, -1, 9),
     "498df1c3162dfa6aa4c7dcd9f1ba3b6c65dab948727279bb917785b1a2d56605"),
    ("Htilde(3,-5,9)", lambda: series_H_tilde(3, -5, 9),
     "d5498ea1426d5c324581568abeec3f35447c666352a2bbfbe40f7aa5c19d339f"),
    ("Jtilde(3,2,9,difference)", lambda: _j_from_h(3, 2, 9),
     "17422304e557a8d627249004dca7f41e83055d1cab16466725efc09defad029a"),
    ("Rbilateral(3,1,9)", lambda: series_R_bilateral(3, 1, 9),
     "46dab774d165fbda772102bf76ef885e794187d63feff72c8d80506fcc45cd71"),
    ("Rtildebilateral(2,2,9)", lambda: series_R_tilde_bilateral(2, 2, 9),
     "ba54e425646527bd330bbf041c5b8b862543aa6c1dff02271ced56b32accbb4a"),
    ("qgauss(2,9)", lambda: q_gauss_sides(2, 9)[0],
     "bbc5e6465a1c6f998598b47e25fd916a02e56057a9e206ea722d762fc109b935"),
    ("qgauss(-1,9)", lambda: q_gauss_sides(-1, 9)[0],
     "bbc5e6465a1c6f998598b47e25fd916a02e56057a9e206ea722d762fc109b935"),
    ("bailey(B3,2,1,9)", lambda: bailey_lattice_sides(bailey_pair_b3(9, 9), 2, 1, 9)[0],
     "cdc3eeefe682ab750afd2574ec8a39fb7a12c276ea1ecd65ecf56a954ce32638"),
    ("bailey(B3,2,1,9).rhs", lambda: bailey_lattice_rhs(bailey_pair_b3(9, 9), 2, 1, 9),
     "cdc3eeefe682ab750afd2574ec8a39fb7a12c276ea1ecd65ecf56a954ce32638"),
    ("bailey(E3,3,0,9).rhs", lambda: bailey_lattice_rhs(bailey_pair_e3(9, 9), 3, 0, 9),
     "8585fd66b8e6e6e258caa34b2530528f07c1d346c6da0c6d41532ff670241d7d"),
    ("bailey(E3,3,3,9).rhs", lambda: bailey_lattice_rhs(bailey_pair_e3(9, 9), 3, 3, 9),
     "20c2d4a2a4563f9c901971dfed6cc490c446188014a91d461ec615ffc0285e40"),
    ("multisum_admissible(3,2,9)", lambda: multisum_admissible(3, 2, 9),
     "f983b17c3b476bc49d83579cc117b25ae289fdcd9d668c8acd8d901d6b0dae53"),
    ("multisum_self_conjugate(4,1,9)", lambda: multisum_self_conjugate(4, 1, 9),
     "99d1011d3996f58324ab7b8fe3a20ed89e25e334befac44cc75d7bb9e4d5abaf"),
    ("gf_closed(3,1,3,9)", lambda: gf_closed(3, 1, 3, 9),
     "a1c49474c06e6f44aa1ab888cd31507d9131f5202f01384bc07ee63b6d524470"),
    ("gf_closed(2,2,4,9,even)", lambda: gf_closed(2, 2, 4, 9, even=True),
     "e411813e594769dae0adc9182b404652ac4682838c53ac8641f1e523cd785801"),
    ("gf_gamma_closed(4,1,3,9)", lambda: gf_gamma_closed(4, 1, 3, 9),
     "e58bc4d93fd3aead00ae3e8d2ddb5e5bbf81658b5e7b5e62ba99d6727758419e"),
    ("gf_gamma_closed(3,2,4,9,even)", lambda: gf_gamma_closed(3, 2, 4, 9, even=True),
     "8ae37834ac58eb3b371f86e6ad4c401d6e392ff65167bb7bf293fee8de8be715"),
]


@pytest.mark.parametrize("label,build,digest", PINNED, ids=[case[0] for case in PINNED])
def test_pinned_builder_output(label, build, digest):
    # to_json() holds the terms, floor and cutoff, so these match byte
    # for byte or not at all.
    assert hashlib.sha256(build().to_json().encode()).hexdigest() == digest
