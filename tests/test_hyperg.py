import hashlib

import pytest

from qpair.counts import CountTable
from qpair.gaussint import GaussInt
from qpair.hyperg import (
    _R_family,
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
from qpair.series import TruncatedSeries, geometric, mono, pochhammer_inf
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
        assert series_R(3, 2, 8) is series_R(3, 2, 8, var_cap=8)
        assert series_R_tilde(3, 2, 8) is series_R_tilde(3, 2, 8, var_cap=8)
        assert series_R_tilde(3, 2, 8) != series_R(3, 2, 8)
        assert _R_family.cache_info().misses == 2
        assert series_R(3, 2, 8, var_cap=4) is not series_R(3, 2, 8)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            series_R(2, 3, 6)
        with pytest.raises(ValueError):
            series_R_tilde(1, 1, 6)


def _j_from_h(k, i, c, cap=None):
    """J~ from the shifted H~ relation, given freshly built H~ series."""
    return j_tilde_from_h(*(series_H_tilde(k, m, c, cap) for m in (i, i - 1, i - 2)), i)


class TestAuxiliarySeries:
    def test_h_vanishes_at_index_zero(self):
        for k in (1, 2, 3):
            assert series_H_tilde(k, 0, C).is_zero()

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

    def test_h_rejects_nontruncating_parameters(self):
        with pytest.raises(ValueError, match="truncation"):
            series_H_tilde(1, 3, C)


class TestBilateral:
    def test_matches_x_one_specialization(self):
        # The two-sided sum is the only x = 1 builder: it must equal the full
        # series at x = 1, window and all.  The full series is built at the
        # default cap, which clips no x-degree, and then cut to ``cap``.
        for bilateral, full in ((series_R_bilateral, series_R), (series_R_tilde_bilateral, series_R_tilde)):
            for k, i in KI:
                at_x_one = full(k, i, C).specialize(sub_x=(1, 0))
                for cap in (None, 3):
                    want = at_x_one.truncated(C, C if cap is None else cap)
                    assert bilateral(k, i, C, cap) == want, (bilateral.__name__, k, i, cap)

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
        assert b3.betas[1].first_mismatch(geometric(mono(1, q=1), 10, 10)) is None
        assert e3.betas[1].first_mismatch(geometric(mono(1, q=2), 10, 10)) is None

    def test_corrupted_pair_rejected(self):
        from qpair.hyperg import BaileyPair

        b3 = bailey_pair_b3(3, 10)
        bad = BaileyPair("bad", b3.alphas, b3.alphas, 10)
        (n, *_), lhs, rhs = bailey_relation_mismatch(bad)
        assert n == 1 and lhs != rhs


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

    def test_rhs_is_the_alpha_side(self):
        b3, e3 = bailey_pair_b3(9, 9), bailey_pair_e3(9, 9)
        for pair in (b3, e3):
            for k in range(4):
                for i in range(k + 1):
                    assert bailey_lattice_rhs(pair, k, i, 9) == bailey_lattice_sides(pair, k, i, 9)[1]

    def test_insufficient_depth_reported(self):
        b3 = bailey_pair_b3(1, 10)
        with pytest.raises(ValueError, match="n_max"):
            bailey_lattice_sides(b3, 2, 1, 10)

    def test_multisums_equal_bilaterals(self):
        for k, i in ((2, 1), (2, 2), (3, 2), (3, 3)):
            d = multisum_admissible(k, i, C)
            assert d.first_mismatch(series_R_bilateral(k, i, C)) is None
            dt = multisum_self_conjugate(k, i, C)
            assert dt.first_mismatch(series_R_tilde_bilateral(k, i, C)) is None

    def test_multisum_constant_terms(self):
        assert multisum_admissible(3, 2, 6).coeff(0, 0, 0, 0) == 1
        assert multisum_self_conjugate(3, 2, 6).coeff(0, 0, 0, 0) == 1


# ---------------------------------------------------------------- summand windows
#
# The builders form each summand only up to the q-degree it can reach after
# its shift.  The identity checks compare two series on their common window,
# so a room one too small would only shrink a cutoff and still pass them.
# These two tests pin the windows themselves.

B3_DEEP, E3_DEEP = bailey_pair_b3(13, 13), bailey_pair_e3(13, 13)


def _all(builder, params):
    return lambda c, cap: [builder(*p, c, cap) for p in params]


def _sides(builder, params):
    return lambda c, cap: [side for p in params for side in builder(*p, c, cap)]


def _capped(builder, params):
    # These builders cap a, b, x at the cutoff.
    return lambda c, cap: [builder(*p[:-1], c, even=p[-1]).truncated(c, cap) for p in params]


WINDOW_BUILDERS = {
    "R": _all(series_R, KI),
    "R-x-one": _all(lambda k, i, c, cap: series_R(k, i, c, cap, x_one=True), KI),
    "Rtilde": _all(series_R_tilde, KI),
    "Rtilde-x-one": _all(lambda k, i, c, cap: series_R_tilde(k, i, c, cap, x_one=True), KI),
    # Below i = -(k + 1) the summand floors dip under 0 and the cutoff
    # shrinks with them, so a cut-back series has a wider window by design;
    # the pinned H~(3, -5) output covers that case.
    "Htilde": _all(series_H_tilde, [(1, i) for i in (-1, 0, 1)]
                   + [(k, i) for k in (2, 3, 4) for i in range(-k - 1, k + 1)]),
    "Jtilde-difference": _all(_j_from_h, KI),
    "R-bilateral": _all(series_R_bilateral, KI),
    "Rtilde-bilateral": _all(series_R_tilde_bilateral, KI),
    "q-gauss": _sides(q_gauss_sides, [(n,) for n in range(-2, 4)]),
    "bailey-lattice": _sides(bailey_lattice_sides, [(pair, k, i) for pair in (B3_DEEP, E3_DEEP)
                                                    for k in (2, 3, 4) for i in range(k + 1)]),
    "multisum-admissible": _all(multisum_admissible, KI),
    "multisum-self-conjugate": _all(multisum_self_conjugate, KI),
    "gf-closed": _capped(gf_closed, [(k, i, peaks, even) for k, i in KI for peaks in (1, 3)
                                     for even in (False, True)]),
    "gf-gamma-closed": _capped(gf_gamma_closed, [(k, i, peaks, even) for k in (2, 3, 4) for i in range(k)
                                                 for peaks in (1, 3) for even in (False, True)]),
}


@pytest.mark.parametrize("name", sorted(WINDOW_BUILDERS))
def test_window_oracle(name):
    # Built past the cutoff and cut back, every series equals the one built
    # at the cutoff: same terms, same floor, cutoff and cap.
    build = WINDOW_BUILDERS[name]
    for c in (4, 7, 10):
        want = build(c, c)
        for d in (1, 3):
            got = [s.truncated(c) for s in build(c + d, c)]
            assert got == want, (name, c, d)


PINNED = [  # (label, builder, sha256 of to_json() at the commit before the summand rule)
    ("R(3,2,9)", lambda: series_R(3, 2, 9),
     "8a287b2b89fd76ae591c037b86e66ef1bb92ad8e615aea3d87395d0defcf0522"),
    ("R(2,1,9,x_one)", lambda: series_R(2, 1, 9, x_one=True),
     "78716406f535e14577224aa10bae584c6029ba73c11a3b9b3dec5daa7de925c2"),
    ("Rtilde(3,1,9)", lambda: series_R_tilde(3, 1, 9),
     "5919be2a97e2c20a61491b7d65ff5091c726152f66df7a60a19b90e2e0cb6405"),
    ("Rtilde(2,2,9,cap=4)", lambda: series_R_tilde(2, 2, 9, var_cap=4),
     "b7983037e257f0cdc3274d21c8e263e693fb32f5256c6fa065eb00aafaabb068"),
    ("Htilde(1,1,9)", lambda: series_H_tilde(1, 1, 9),
     "c199202ff0915107761c98d6d8c084b569e73db09d99db8af0b2a93e46be1252"),
    ("Htilde(2,0,9)", lambda: series_H_tilde(2, 0, 9),
     "50a16aa063641d7c668497f603f7063fcdc0e460bfb6ab8ffbab04f11fe9df38"),
    ("Htilde(3,2,9)", lambda: series_H_tilde(3, 2, 9),
     "587689739c1cf44458c6a679fee9e71f6b38b1bee0cdc426f85bb8ca1bcb908d"),
    ("Htilde(2,-1,9)", lambda: series_H_tilde(2, -1, 9),
     "d3dc1ed68905b9f600ec4923c61baeef6511c0fe5cfb7c094901f39a7947bdbf"),
    ("Htilde(3,-5,9)", lambda: series_H_tilde(3, -5, 9),
     "f8e16295efe613f6893fbd712c6f1de1ee9c6791add57693998a3d354ed2ba3f"),
    ("Jtilde(3,2,9,difference)", lambda: _j_from_h(3, 2, 9),
     "9474f3b6643c5d0361c448e2253f3793240bd36215e9d980ee684952903fb050"),
    ("Rbilateral(3,1,9)", lambda: series_R_bilateral(3, 1, 9),
     "c5c34917b8cba206164d698c077726df21a05969f01a1e5bc41385548c8c0d1a"),
    ("Rtildebilateral(2,2,9)", lambda: series_R_tilde_bilateral(2, 2, 9),
     "e10c97bbe179d86f2b3b79d8c5715aadb51d27e905f6f704b8c553c31436e115"),
    ("qgauss(2,9)", lambda: q_gauss_sides(2, 9)[0],
     "bd079ec03813c96c3b380f179f874cdb49442a4300d3393ba9c1e611f8925e56"),
    ("qgauss(-1,9)", lambda: q_gauss_sides(-1, 9)[0],
     "bd079ec03813c96c3b380f179f874cdb49442a4300d3393ba9c1e611f8925e56"),
    ("bailey(B3,2,1,9)", lambda: bailey_lattice_sides(bailey_pair_b3(9, 9), 2, 1, 9)[0],
     "f28b936b97df3161bdbf6e8b83c61ef9750949291a25c8d57e8cd12f33cabca3"),
    ("bailey(B3,2,1,9).rhs", lambda: bailey_lattice_rhs(bailey_pair_b3(9, 9), 2, 1, 9),
     "f28b936b97df3161bdbf6e8b83c61ef9750949291a25c8d57e8cd12f33cabca3"),
    ("bailey(E3,3,0,9).rhs", lambda: bailey_lattice_rhs(bailey_pair_e3(9, 9), 3, 0, 9),
     "914c2c35e9d8e44c8a8062e03b8037084e60e288868be7a95a27754573f62d54"),
    ("bailey(E3,3,3,9).rhs", lambda: bailey_lattice_rhs(bailey_pair_e3(9, 9), 3, 3, 9),
     "f1b2bf3bd84664534d1e7defc188cf54de17918abca6c8850f4ef18a8bb886d2"),
    ("multisum_admissible(3,2,9)", lambda: multisum_admissible(3, 2, 9),
     "7602f73b2196dfd450c794f302f8c44f57f24bb876952fa6ab1ee03e5ee78e0d"),
    ("multisum_self_conjugate(4,1,9)", lambda: multisum_self_conjugate(4, 1, 9),
     "b65da2a13754d36df22231d37840a9d77916979b5ccff579d11d8d4530d8ba28"),
    ("gf_closed(3,1,3,9)", lambda: gf_closed(3, 1, 3, 9),
     "5056501417624404da7200291cf83c11188a67f1e4f419174c23bfb70153cd9a"),
    ("gf_closed(2,2,4,9,even)", lambda: gf_closed(2, 2, 4, 9, even=True),
     "6038088aab5ac0292923075a659ce21c456aa8bd6e777e22018758813640f2cd"),
    ("gf_gamma_closed(4,1,3,9)", lambda: gf_gamma_closed(4, 1, 3, 9),
     "e5ca05b219d8cec9fe6e472905297182c05499585f64c82e2a0c6da123a0b986"),
    ("gf_gamma_closed(3,2,4,9,even)", lambda: gf_gamma_closed(3, 2, 4, 9, even=True),
     "6982511a9a43619b7782d8b33a6952107ca8b788d42856c2391219f044735320"),
]


@pytest.mark.parametrize("label,build,digest", PINNED, ids=[case[0] for case in PINNED])
def test_pinned_builder_output(label, build, digest):
    # to_json() holds the terms, floor, cutoff and cap, so these match byte
    # for byte or not at all.
    assert hashlib.sha256(build().to_json().encode()).hexdigest() == digest
