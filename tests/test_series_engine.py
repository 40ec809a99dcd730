import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from qpair import hyperg, series
from qpair.gaussint import GaussInt, unit_inverse, unit_pow
from qpair.hyperg import _horner
from qpair.series import (
    INF,
    TruncatedSeries,
    _apply_factors,
    geometric,
    mono,
    over_one_minus,
    pochhammer_inf,
    q_binomial,
    qproduct,
)
from qpair.qtools import f_poly, inv_qfactors
from qpair.verify import VerifyConfig, run_suite


def ts(*monomials, cutoff=10):
    return TruncatedSeries.poly([mono(*m) for m in monomials]).truncated(cutoff)


def poly(*monomials):
    return TruncatedSeries.poly([mono(*m) for m in monomials])


class TestGaussInt:
    Z = [0, 1, -2, 7]
    G = [GaussInt(0, 1), GaussInt(2, -3), GaussInt(-1, 5)]

    @staticmethod
    def pair(c):
        return (c.re, c.im) if isinstance(c, GaussInt) else (c, 0)

    def test_operators_on_every_mix(self):
        # Each of +, -, * agrees with the textbook formula on the real and
        # imaginary parts, with int and GaussInt operands on either side.
        for u in self.Z + self.G:
            for v in self.Z + self.G:
                if type(u) is int and type(v) is int:
                    continue
                (ur, ui), (vr, vi) = self.pair(u), self.pair(v)
                for got, want in ((u + v, (ur + vr, ui + vi)), (u - v, (ur - vr, ui - vi)),
                                  (u * v, (ur * vr - ui * vi, ur * vi + ui * vr))):
                    assert self.pair(got) == want, (u, v)
                    assert (type(got) is int) == (want[1] == 0), (u, v, got)

    def test_real_values_round_trip_as_ints(self):
        i = GaussInt(0, 1)
        for got, want in ((GaussInt(2, 3) + GaussInt(1, -3), 3), (i * i, -1),
                          (i - GaussInt(4, 1), -4), (GaussInt(5, 1) - i, 5),
                          (1 - (i + 1) + i, 0), (0 * i, 0), (i * 0, 0), (2 * i * i, -2)):
            assert got == want and type(got) is int

    def test_arithmetic(self):
        assert (GaussInt(1, 2) * GaussInt(3, -1)) == GaussInt(5, 5)
        assert -GaussInt(1, -2) == GaussInt(-1, 2)
        assert GaussInt(4, 0) == 4
        assert hash(GaussInt(4, 0)) == hash(4)

    def test_other_operand_types_not_absorbed(self):
        with pytest.raises(TypeError):
            GaussInt(0, 1) + 0.5
        with pytest.raises(TypeError):
            1.5 * GaussInt(0, 1)

    def test_units(self):
        for u in (1, -1, GaussInt(0, 1), GaussInt(0, -1)):
            assert u * unit_inverse(u) == 1
        with pytest.raises(ValueError):
            unit_inverse(GaussInt(1, 1))
        assert unit_pow(GaussInt(0, 1), 2) == -1
        assert unit_pow(GaussInt(0, 1), -1) == GaussInt(0, -1)


class TestAdd:
    def test_zero_is_identity(self):
        z = TruncatedSeries.zero(10)
        assert not z.terms
        s = ts((3, 1, 0, 0, 2), (1,))
        assert (z + s).terms == s.terms
        z1 = TruncatedSeries.zero(1)
        assert not z1.terms and z1.q_cutoff == 1

    def test_cancellation(self):
        one_plus_q = ts((1,), (1, 0, 0, 0, 1))
        one_minus_q = ts((1,), (-1, 0, 0, 0, 1))
        assert (one_plus_q + one_minus_q).terms == {(0, 0, 0, 0): 2}

    def test_additive_inverse(self):
        s = ts((2, 1, 1, 0, 3), (5, 0, 0, 2, 1))
        assert not (s + (-s)).terms

    def test_distinct_monomials_kept(self):
        aq = ts((1, 1, 0, 0, 1))
        bq = ts((1, 0, 1, 0, 1))
        assert (aq + bq).terms == {(1, 0, 0, 1): 1, (0, 1, 0, 1): 1}


class TestMul:
    def test_square_of_binomial(self):
        s = ts((1,), (1, 0, 0, 0, 1))
        assert (s * s).terms == {(0, 0, 0, 0): 1, (0, 0, 0, 1): 2, (0, 0, 0, 2): 1}

    def test_geometric_inverse_collapses(self):
        one_minus_q = ts((1,), (-1, 0, 0, 0, 1))
        geo = geometric(mono(1, q=1), 10)
        assert (one_minus_q * geo).terms == {(0, 0, 0, 0): 1}

    def test_four_term_product(self):
        a1 = ts((1, 1, 0, 0, 0), (1,))
        b1 = ts((1, 0, 1, 0, 0), (1,))
        assert (a1 * b1).terms == {
            (1, 1, 0, 0): 1,
            (1, 0, 0, 0): 1,
            (0, 1, 0, 0): 1,
            (0, 0, 0, 0): 1,
        }

    def test_window_accounts_for_valuation(self):
        # q^3 * s must stay trustworthy up to cutoff+3.
        s = ts((1,), (1, 0, 0, 0, 1), cutoff=5)
        shifted = s * poly((1, 0, 0, 0, 3))
        assert shifted.q_cutoff == 8
        assert shifted.coeff(0, 0, 0, 4) == 1

    def test_laurent_window(self):
        s = ts((1,), cutoff=5)
        qinv = poly((1, 0, 0, 0, -2))
        t = s * qinv
        assert t.q_floor == -2
        assert t.q_cutoff == 3
        assert t.coeff(0, 0, 0, -2) == 1


class TestInvert:
    def test_geometric_series(self):
        s = ts((1,), (-1, 0, 0, 0, 1), cutoff=8)
        inv = s.invert()
        assert inv.terms == {(0, 0, 0, j): 1 for j in range(8)}

    def test_invert_one(self):
        assert TruncatedSeries.one(6).invert().terms == {(0, 0, 0, 0): 1}

    def test_invert_multiply_back(self):
        # Oracle: s * invert(s) == 1 up to the cutoff.
        s = ts((1,), (-1, 1, 1, 1, 1), cutoff=9)
        inv = s.invert()
        assert (s * inv).terms == {(0, 0, 0, 0): 1}
        expected = {(m, m, m, m): 1 for m in range(0, 9, 1) if m <= 8}
        assert inv.terms == {k: v for k, v in expected.items() if k[3] < 9}

    def test_non_unit_errors(self):
        s = ts((2,), (1, 0, 0, 0, 1))
        with pytest.raises(ValueError, match="2"):
            s.invert()
        t = ts((1,), (1, 1, 0, 0, 0), (1, 0, 0, 0, 1))
        with pytest.raises(ValueError):
            t.invert()

    def test_gauss_unit_constant(self):
        s = ts((GaussInt(0, 1),), (1, 0, 0, 0, 1), cutoff=6)
        inv = s.invert()
        assert (s * inv).terms == {(0, 0, 0, 0): 1}


def binomials(*monomials, cutoff=INF):
    """``prod (1 - m)`` over the monomials, binomial by binomial with the general product."""
    out = TruncatedSeries.one(cutoff)
    for m in monomials:
        out = out * poly((1,), (-m.coeff, m.a, m.b, m.x, m.q))
    return out


class TestPochhammer:
    def test_small_product(self):
        p = _apply_factors(TruncatedSeries.one(10), (mono(1, q=1), mono(1, q=2)))
        assert p.terms == {(0, 0, 0, 0): 1, (0, 0, 0, 1): -1, (0, 0, 0, 2): -1, (0, 0, 0, 3): 1}
        assert p == binomials(mono(1, q=1), mono(1, q=2), cutoff=10)

    def test_empty_product(self):
        assert qproduct(TruncatedSeries.one(5), (mono(1, a=2, q=5),)).terms == {(0, 0, 0, 0): 1}

    def test_against_direct_three_term_multiplication(self):
        # Oracle: multiply the three binomials (1 + a x q^(1+j)) by hand.
        direct = TruncatedSeries.one(20)
        for j in range(3):
            direct = direct * poly((1,), (1, 1, 0, 1, 1 + j))
        bases = [mono(-1, a=1, x=1, q=1 + j) for j in range(3)]
        assert binomials(*bases, cutoff=20) == direct
        assert _apply_factors(TruncatedSeries.one(20), bases) == direct

    def test_inf_equals_stabilized_finite(self):
        # Oracle: (q;q)_inf to cutoff 6 equals the finite product with J = 6.
        inf = pochhammer_inf(mono(1, q=1), 6)
        fin = binomials(*(mono(1, q=1 + j) for j in range(6)), cutoff=6)
        assert inf.first_mismatch(fin) is None
        # Euler's pentagonal signs appear.
        assert [inf.coeff_q(n) for n in range(6)] == [1, -1, -1, 0, 0, 1]

    def test_inf_stabilizes_immediately(self):
        p = pochhammer_inf(mono(1, q=3), 3)
        assert p.terms == {(0, 0, 0, 0): 1}

    def test_inf_times_its_inverse(self):
        p = pochhammer_inf(mono(1, q=1), 12)
        assert (p * p.invert()).terms == {(0, 0, 0, 0): 1}

    def test_nonpositive_degree_errors(self):
        with pytest.raises(ValueError, match="positive q-degree"):
            pochhammer_inf(mono(1, q=0), 5)


def reference_qproduct(s, num, den, step):
    """Base by base, factor by factor: each (1 - m q^e) as a binomial and each
    inverse by ``invert``, for every e below the cutoff less any negative
    floor, past which a factor cannot reach the window.  The numerators go
    one step further, which only moves terms past the cutoff.  Each inverse
    is taken to that same width, so the general product keeps the whole
    window."""
    width = s.q_cutoff - min(s.q_floor, 0)
    out = s
    for m in num:
        for e in range(m.q, width + step, step):
            out = out * poly((1,), (-m.coeff, m.a, m.b, m.x, e))
    for m in den:
        for e in range(m.q, width, step):
            out = out * poly((1,), (-m.coeff, m.a, m.b, m.x, e)).invert(width)
    return out


KERNEL_CASES = {
    "x=1 prefactor": (TruncatedSeries.one(12), [(-1, 1, 0, 0, 1), (-1, 0, 1, 0, 1)],
                      [(1, 0, 0, 0, 1), (1, 1, 1, 0, 1)], 1),
    "x bases, cap below cutoff": (ts((1,), (2, 1, 0, 1, 3), (-1, 0, 1, 0, 2), cutoff=10),
                                  [(-1, 1, 0, 1, 1), (-1, 0, 1, 1, 1)],
                                  [(1, 0, 0, 1, 1), (1, 1, 1, 1, 1)], 1),
    "Laurent numerator, step 2": (TruncatedSeries.one(14),
                                  [(-1, 0, 0, 0, 4), (-1, 0, 0, 0, -2), (1, 0, 0, 0, 2)], [], 2),
    "units, step 3, positive floor": (ts((1, 0, 0, 0, 2), (3, 1, 0, 0, 4), cutoff=12),
                                      [(GaussInt(0, 1), 0, 0, 0, 1)],
                                      [(-1, 0, 0, 0, 3), (GaussInt(0, -1), 1, 0, 0, 2)], 3),
    "denominators only, repeated": (ts((1,), (1, 0, 1, 0, 1), cutoff=9), [],
                                    [(1, 0, 0, 0, 1), (1, 0, 0, 0, 1)], 1),
    "no factors": (ts((5, 0, 0, 1, 2), cutoff=7), [], [], 2),
    "Laurent numerator, then denominators": (TruncatedSeries.one(10), [(-1, 0, 0, 0, -1)],
                                             [(1, 0, 0, 0, 1), (1, 1, 0, 0, 2)], 2),
    "Laurent series, denominators": (ts((1, 0, 0, 0, -2), (3, 0, 1, 0, 1), cutoff=9), [],
                                     [(1, 0, 0, 0, 1), (-1, 1, 0, 0, 2)], 1),
}


class TestQProduct:
    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_matches_factor_by_factor_reference(self, name):
        s, num, den, step = KERNEL_CASES[name]
        num = tuple(mono(*m) for m in num)
        den = tuple(mono(*m) for m in den)
        got = qproduct(s, num, den, step=step)
        want = reference_qproduct(s, num, den, step)
        assert dict(got.terms) == dict(want.terms)
        assert (got.q_floor, got.q_cutoff) == (want.q_floor, want.q_cutoff)

    def test_rejects_bad_step_and_denominator(self):
        one = TruncatedSeries.one(8)
        with pytest.raises(ValueError, match="step"):
            qproduct(one, (mono(1, q=1),), step=0)
        with pytest.raises(ValueError, match="positive q-degree"):
            qproduct(one, (), (mono(1, a=1),))


class TestImmutability:
    def test_cached_series_reject_writes(self):
        for build in (lambda: f_poly(2, 6), lambda: inv_qfactors((1, 2), 6)):
            s = build()
            before = dict(s.terms)
            key = next(iter(before))
            with pytest.raises(TypeError):
                s.terms[key] = 7
            with pytest.raises(TypeError):
                del s.terms[key]
            assert dict(build().terms) == before


def _partitions_in_box(rows: int, cols: int):
    """All partitions fitting in a rows x cols box, as tuples."""
    def rec(r, maxpart):
        if r == 0:
            yield ()
            return
        for first in range(maxpart + 1):
            for rest in rec(r - 1, first):
                yield (first,) + rest
    return list(rec(rows, cols))


class TestQBinomial:
    def test_smallest_nontrivial(self):
        assert q_binomial(2, 1, 10).terms == {(0, 0, 0, 0): 1, (0, 0, 0, 1): 1}

    def test_k_zero(self):
        assert q_binomial(7, 0, 10).terms == {(0, 0, 0, 0): 1}

    def test_k_above_n_is_zero(self):
        assert not q_binomial(3, 4, 10).terms

    def test_box_counting_oracle(self):
        # Oracle: coefficient of q^n counts partitions of n inside a 2x2 box.
        counts = {}
        for p in _partitions_in_box(2, 2):
            counts[sum(p)] = counts.get(sum(p), 0) + 1
        g = q_binomial(4, 2, 10)
        assert [g.coeff_q(n) for n in range(5)] == [counts.get(n, 0) for n in range(5)]
        assert [g.coeff_q(n) for n in range(5)] == [1, 1, 2, 1, 1]

    def test_symmetry_and_q1_value(self):
        import math

        for n in range(7):
            for k in range(n + 1):
                g = q_binomial(n, k, 40)
                h = q_binomial(n, n - k, 40)
                assert g.first_mismatch(h) is None
                total = sum(g.coeff_q(j) for j in range(40) if (0, 0, 0, j) in g.terms)
                assert total == math.comb(n, k)
                assert all(c > 0 for c in g.terms.values())

    def test_sweep_digest(self):
        # sha256 over the concatenated to_json() of every q-binomial in the
        # sweep, recorded from the Pascal-table build.
        digest = hashlib.sha256()
        for n in range(12):
            for k in range(-1, n + 2):
                for c in (1, 3, 7, 20, 40):
                    digest.update(q_binomial(n, k, c).to_json().encode())
        assert digest.hexdigest() == "c3c47df4b69af18a6a5682894ade929d547d10622e5bdfc08e4028b63fa1d764"


class TestFirstMismatch:
    def test_least_key_in_q_a_b_x_order(self):
        # Tuple order would pick q^5 first; (q, a, b, x) order picks the
        # q^2 key with the least a, then b, then x.
        same = [(1,), (4, 0, 1, 0, 1)]
        lhs = poly(*same, (1, 0, 0, 0, 5), (1, 1, 0, 0, 2), (1, 0, 2, 0, 2), (1, 0, 1, 3, 2),
                   (1, 0, 1, 4, 2))
        rhs = poly(*same, (2, 0, 0, 0, 5), (2, 1, 0, 0, 2), (2, 0, 2, 0, 2), (2, 0, 1, 3, 2),
                   (2, 0, 1, 4, 2))
        assert lhs.first_mismatch(rhs) == ((0, 1, 3, 2), 1, 2)
        assert rhs.first_mismatch(lhs) == ((0, 1, 3, 2), 2, 1)

    def test_negative_q_degrees_come_first(self):
        lhs, rhs = poly((1, 0, 0, 0, -1), (1, 0, 0, 0, 0)), poly((1, 0, 0, 0, 0))
        assert lhs.first_mismatch(rhs) == ((0, 0, 0, -1), 1, 0)

    def test_differences_from_the_smaller_cutoff_on_are_ignored(self):
        lhs = ts((1,), (3, 0, 0, 0, 5), (1, 0, 0, 0, 7), cutoff=5)
        rhs = ts((1,), (7, 0, 0, 0, 5), (2, 1, 0, 0, 6), cutoff=8)
        assert lhs.first_mismatch(rhs) is None
        assert rhs.first_mismatch(lhs) is None
        assert ts((1,), cutoff=6).first_mismatch(rhs) == ((0, 0, 0, 5), 0, 7)

    def test_a_key_on_one_side_reads_zero_on_the_other(self):
        lhs, rhs = ts((1,), (7, 1, 0, 0, 2)), ts((1,))
        assert lhs.first_mismatch(rhs) == ((1, 0, 0, 2), 7, 0)
        assert rhs.first_mismatch(lhs) == ((1, 0, 0, 2), 0, 7)

    def test_gaussian_coefficients(self):
        lhs, rhs = ts((GaussInt(0, 1), 0, 0, 0, 1)), ts((GaussInt(0, -1), 0, 0, 0, 1))
        assert lhs.first_mismatch(rhs) == ((0, 0, 0, 1), GaussInt(0, 1), GaussInt(0, -1))

    def test_equal_maps(self):
        assert ts((1,), (2, 0, 1, 0, 3)).first_mismatch(ts((1,), (2, 0, 1, 0, 3), cutoff=4)) is None
        assert TruncatedSeries.zero(5).first_mismatch(TruncatedSeries.zero(3)) is None


class TestCoeff:
    def test_basic(self):
        s = ts((1,), (2, 1, 0, 0, 1))
        assert s.coeff(1, 0, 0, 1) == 2
        assert s.coeff(0, 0, 0, 5) == 0

    def test_beyond_cutoff_errors(self):
        s = ts((1,), cutoff=4)
        with pytest.raises(ValueError, match="cutoff"):
            s.coeff(0, 0, 0, 4)

    def test_below_floor_is_known_zero(self):
        s = ts((1, 0, 0, 0, 2), cutoff=4)
        assert s.q_floor == 2
        assert s.coeff(0, 0, 0, 1) == 0


class TestSpecialize:
    def test_exponent_bookkeeping(self):
        aq = poly((1, 1, 0, 0, 1))
        out = aq.specialize(sub_a=(1, -1))
        assert out.terms == {(0, 0, 0, 0): 1}

    def test_kill_variable(self):
        s = poly((1,), (1, 1, 0, 0, 1))
        out = s.specialize(sub_a=(0, 0))
        assert out.terms == {(0, 0, 0, 0): 1}

    def test_q_power_stretches(self):
        s = ts((1,), (3, 0, 0, 0, 2), cutoff=5)
        out = s.specialize(q_power=2)
        assert out.q_cutoff == 10
        assert out.coeff(0, 0, 0, 4) == 3
        assert out.coeff(0, 0, 0, 3) == 0

    def test_gauss_unit_substitution(self):
        s = ts((1, 2, 0, 0, 0),)
        out = s.specialize(sub_a=(GaussInt(0, 1), 0))
        assert out.terms == {(0, 0, 0, 0): -1}

    def test_negative_shift_needs_slack(self):
        s = ts((1, 1, 0, 0, 2), cutoff=8)
        with pytest.raises(ValueError, match="slack"):
            s.specialize(sub_a=(1, -1), q_power=2)
        # a q^2 has deg_a 1 > deg_q 2 + (-2): the slack is refuted.
        with pytest.raises(ValueError, match="contradicted"):
            s.specialize(sub_a=(1, -1), q_power=2, slack={"a": -2})

    def test_negative_shift_window(self):
        s = ts((1, 1, 0, 0, 2), cutoff=8)
        out = s.specialize(sub_a=(1, -1), q_power=2, slack={"a": 2})
        # provable cutoff: (2-1)*8 - 1*2 = 6
        assert out.q_cutoff == 6
        assert out.coeff(0, 0, 0, 3) == 1


class TestSerialization:
    def test_round_trip_and_canonical_order(self):
        s = ts((GaussInt(1, -2), 1, 0, 0, 2), (3, 0, 1, 1, 0), (1,))
        obj = s.to_obj()
        qs = [t["q"] for t in obj["terms"]]
        assert qs == sorted(qs)
        back = TruncatedSeries.from_obj(obj)
        assert back == s
        # Files written with a degree cap still read: only the needed keys count.
        assert TruncatedSeries.from_obj(dict(obj, var_cap=10)) == s

    def test_json_deterministic(self):
        s = ts((1, 1, 1, 0, 3), (2, 0, 0, 2, 1))
        assert s.to_json() == s.to_json()


small_coeff = st.one_of(
    st.integers(min_value=-4, max_value=4).filter(bool),
    st.builds(GaussInt, st.integers(-2, 2), st.integers(-2, 2).filter(bool)),
)


def small_monomials(coeffs=small_coeff, q_min=0, q_max=4):
    return st.builds(mono, coeffs, st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                     st.integers(q_min, q_max))


@st.composite
def small_series(draw, q_min=0, cutoff=st.just(8), max_size=5):
    monos = draw(st.lists(small_monomials(q_min=q_min), min_size=0, max_size=max_size))
    return TruncatedSeries.poly(monos).truncated(draw(cutoff))


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(small_series(), small_series(), small_series())
    def test_add_mul_laws(self, r, s, t):
        assert ((r + s) + t).first_mismatch(r + (s + t)) is None
        assert (r + s).first_mismatch(s + r) is None
        assert (r * s).first_mismatch(s * r) is None
        assert ((r * s) * t).first_mismatch(r * (s * t)) is None
        assert (r * (s + t)).first_mismatch(r * s + r * t) is None

    @settings(max_examples=40, deadline=None)
    @given(small_series(), small_series())
    def test_specialize_is_a_ring_morphism(self, s, t):
        spec = dict(sub_a=(1, 1), sub_b=(GaussInt(0, 1), 0), sub_x=(1, 0), q_power=2)
        lhs = (s * t).specialize(**spec)
        rhs = s.specialize(**spec) * t.specialize(**spec)
        assert lhs.first_mismatch(rhs) is None
        lhs2 = (s + t).specialize(**spec)
        rhs2 = s.specialize(**spec) + t.specialize(**spec)
        assert lhs2.first_mismatch(rhs2) is None


# Laurent floors and cutoffs from 1 to 10.
windowed_series = small_series(q_min=-3, cutoff=st.integers(1, 10), max_size=8)
unit = st.sampled_from([1, -1, GaussInt(0, 1), GaussInt(0, -1)])


def kernel_bases(q_min):
    """Gaussian-unit or small integer coefficient times a, b, x and q powers."""
    return small_monomials(st.one_of(unit, small_coeff), q_min=q_min, q_max=5)


def path_bases(q_min):
    """Pure powers of q (no a, b or x) or general bases, with unit coefficients
    and 2 and i beside them: the shapes of every closing product and Horner level."""
    coeff = st.sampled_from([1, -1, 2, GaussInt(0, 1)])
    return st.one_of(st.builds(mono, coeff, q=st.integers(q_min, 5)),
                     small_monomials(coeff, q_min=q_min, q_max=5))


def one_minus(m):
    """The exact polynomial ``1 - m``, the factor a numerator ``m`` of ``_apply_factors`` applies."""
    return TruncatedSeries.poly([mono(1), mono(-m.coeff, m.a, m.b, m.x, m.q)])


def same_window(got, want):
    return (got.q_floor, got.q_cutoff) == (want.q_floor, want.q_cutoff)


class TestSparseFactorKernels:
    """Each kernel is the general product with the factor it stands for."""

    @settings(max_examples=300, deadline=None)
    @given(windowed_series, kernel_bases(q_min=-3))
    def test_times_one_minus_is_the_product(self, s, base):
        want = s * one_minus(base)
        got = _apply_factors(s, (base,))
        assert same_window(got, want)
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(windowed_series, kernel_bases(q_min=1))
    def test_over_one_minus_is_the_product(self, s, base):
        # The geometric series long enough to cover the whole window.
        want = s * geometric(base, s.q_cutoff - min(s.q_floor, 0))
        got = over_one_minus(s, base)
        assert same_window(got, want)
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(kernel_bases(q_min=1), st.integers(1, 12))
    def test_geometric_is_the_power_list(self, base, cutoff):
        c, a, b, x, q = base
        want = {}
        m, coeff = 0, 1
        while m * q < cutoff:
            want[(m * a, m * b, m * x, m * q)] = coeff
            m, coeff = m + 1, coeff * c
        got = geometric(base, cutoff)
        assert dict(got.terms) == want
        assert (got.q_floor, got.q_cutoff) == (0, cutoff)

    @settings(max_examples=300, deadline=None)
    @given(windowed_series,
           st.lists(small_monomials(st.one_of(unit, small_coeff, st.just(0)), q_min=-3, q_max=5),
                    max_size=3),
           st.lists(kernel_bases(q_min=1), max_size=3), st.integers(1, 3))
    def test_qproduct_is_the_reference(self, s, num, den, step):
        got = qproduct(s, tuple(num), tuple(den), step=step)
        want = reference_qproduct(s, num, den, step)
        assert dict(got.terms) == dict(want.terms)
        assert same_window(got, want)

    @settings(max_examples=300, deadline=None)
    @given(windowed_series, st.lists(path_bases(q_min=-3), max_size=3),
           st.lists(path_bases(q_min=1), max_size=3), st.integers(1, 3))
    def test_pure_q_and_unit_factors_are_the_reference(self, s, num, den, step):
        got = qproduct(s, tuple(num), tuple(den), step=step)
        want = reference_qproduct(s, num, den, step)
        assert dict(got.terms) == dict(want.terms)
        assert same_window(got, want)

    def test_laurent_numerator_lowers_the_window(self):
        s = ts((1,), (2, 1, 0, 0, 3), cutoff=6)
        got = _apply_factors(s, (mono(GaussInt(0, 1), b=1, q=-2),))
        assert (got.q_floor, got.q_cutoff) == (-2, 4)
        assert got == s * one_minus(mono(GaussInt(0, 1), b=1, q=-2))

    def test_negative_floor_keeps_the_inverse_window(self):
        s = ts((1, 0, 0, 0, -2), (1,), cutoff=7)
        got = over_one_minus(s, mono(-1, a=1, q=1))
        assert (got.q_floor, got.q_cutoff) == (-2, 7)
        assert got == s * geometric(mono(-1, a=1, q=1), 9)

    def test_cancellation_leaves_no_zero_terms(self):
        s = ts((1,), (-1, 0, 0, 0, 1), cutoff=9)  # 1 - q
        assert over_one_minus(s, mono(1, q=1)).terms == {(0, 0, 0, 0): 1}
        assert _apply_factors(geometric(mono(1, q=2), 9), (mono(1, q=2),)).terms == {(0, 0, 0, 0): 1}

    def test_rejects_bases_that_do_not_raise_q(self):
        with pytest.raises(ValueError, match="positive q-degree"):
            over_one_minus(TruncatedSeries.one(5), mono(1, a=1))


class TestExactWindows:
    """Every coefficient a product of factors claims is the one the uncut
    series gives: the same factors on the series cut 20 degrees higher agree
    on the whole claimed window."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(small_monomials(q_min=-3, q_max=12), max_size=8), st.integers(-2, 10),
           st.lists(small_monomials(st.one_of(unit, small_coeff, st.just(0)), q_min=-3, q_max=5),
                    max_size=3),
           st.lists(kernel_bases(q_min=1), max_size=3))
    def test_apply_factors_keeps_every_known_coefficient(self, monos, c, num, den):
        p = TruncatedSeries.poly(monos)
        cut = p.truncated(c)
        got = _apply_factors(cut, num, den)
        shift = sum(m.q for m in num if m.coeff and m.q < 0)
        assert (got.q_floor, got.q_cutoff) == (cut.q_floor + shift, c + shift)
        far = _apply_factors(p.truncated(c + 20), num, den)
        assert far.q_cutoff == got.q_cutoff + 20
        assert got.first_mismatch(far) is None

    def test_exact_polynomials_are_refused(self):
        for build in (lambda: _apply_factors(poly((1,)), (mono(1, q=1),)),
                      lambda: qproduct(poly((1,)), (mono(1, q=1),))):
            with pytest.raises(ValueError, match="finite cutoff"):
                build()


class TestConstructor:
    """``TruncatedSeries(terms, floor, cutoff)`` holds exactly what its window can."""

    def test_term_below_the_floor_is_refused(self):
        with pytest.raises(ValueError, match="outside the window"):
            TruncatedSeries({(0, 0, 0, -2): 1}, 0, 5)

    def test_term_at_the_cutoff_is_refused(self):
        with pytest.raises(ValueError, match="outside the window"):
            TruncatedSeries({(0, 0, 0, 5): 1}, 0, 5)

    def test_zero_coefficients_are_dropped(self):
        s = TruncatedSeries({(0, 0, 0, 1): 0, (1, 0, 0, 0): 3}, 0, 5)
        assert s.terms == {(1, 0, 0, 0): 3}
        assert (TruncatedSeries({(0, 0, 0, 1): 0}, 0, 5) + TruncatedSeries.zero(5)) == TruncatedSeries.zero(5)

    @pytest.mark.parametrize("key", [(-1, 0, 0, 1), (0, -1, 0, 1), (0, 0, -1, 1)])
    def test_negative_degree_is_refused(self, key):
        with pytest.raises(ValueError, match="negative degree"):
            TruncatedSeries({key: 1}, 0, 5)


# The reference: the flat form, one {(a, b, x, q): coeff} dict per series, here
# (terms, floor, cutoff), and the operations on it.

def flat(s):
    return dict(s.terms), s.q_floor, s.q_cutoff


def flat_add(s, t):
    floor, cutoff = min(s[1], t[1]), min(s[2], t[2])
    terms = {}
    for src in (s[0], t[0]):
        for key, c in src.items():
            if key[3] >= cutoff:
                continue
            acc = terms.get(key, 0) + c
            if acc:
                terms[key] = acc
            else:
                del terms[key]
    return terms, floor, cutoff


def flat_mul(s, t):
    floor = series._sat_add(s[1], t[1])
    cutoff = min(series._sat_add(s[2], t[1]), series._sat_add(t[2], s[1]))
    lhs, rhs = s[0], t[0]
    if len(lhs) > len(rhs):
        lhs, rhs = rhs, lhs
    row = sorted(rhs.items(), key=lambda kv: kv[0][3])
    terms = {}
    for (a1, b1, x1, q1), c1 in lhs.items():
        room = cutoff - q1
        for (a2, b2, x2, q2), c2 in row:
            if q2 >= room:
                break
            key = (a1 + a2, b1 + b2, x1 + x2, q1 + q2)
            acc = terms.get(key, 0) + c1 * c2
            if acc:
                terms[key] = acc
            else:
                del terms[key]
    return terms, floor, cutoff


def flat_times_monomial(s, m):
    c0, da0, db0, dx0, dq0 = m
    cutoff, floor = series._sat_add(s[2], dq0), series._sat_add(s[1], dq0)
    if not c0:
        return {}, floor, cutoff
    terms = {}
    for (a, b, x, q), c in s[0].items():
        if q + dq0 < cutoff:
            terms[(a + da0, b + db0, x + dx0, q + dq0)] = c * c0
    return terms, floor, cutoff


def flat_truncated(s, q_cutoff):
    cutoff = min(s[2], q_cutoff)
    return {k: c for k, c in s[0].items() if k[3] < cutoff}, min(s[1], cutoff - 1), cutoff


def flat_shift_x(s):
    terms = {}
    for (a, b, x, q), c in s[0].items():
        if q + x < s[2]:
            terms[(a, b, x, q + x)] = c
    return terms, s[1], s[2]


def flat_first_difference(lhs, rhs, limit):
    if lhs == rhs:
        return None
    differ = (key for one, two in ((lhs, rhs), (rhs, lhs)) for key, c in one.items()
              if two.get(key, 0) != c)
    key = min((key for key in differ if key[3] < limit), key=lambda k: (k[3], *k[:3]), default=None)
    return None if key is None else (key, lhs.get(key, 0), rhs.get(key, 0))


def assert_stored_form(s):
    """No zero coefficient, no trailing empty layer, nothing outside the window."""
    layers = s._layers
    assert all(c for layer in layers for c in layer.values())
    assert not layers or layers[-1]
    assert len(layers) <= s.q_cutoff - s.q_floor
    assert all(min(key) >= 0 for layer in layers for key in layer)


def assert_is_flat(got, want):
    assert_stored_form(got)
    assert flat(got) == want
    assert got.first_mismatch(TruncatedSeries(*want)) is None


@st.composite
def layered_series(draw):
    """Floors -3..3, finite or INF cutoffs, Gaussian-integer coefficients (zeros too,
    which the constructor drops)."""
    floor = draw(st.integers(-3, 3))
    cutoff = draw(st.one_of(st.just(INF), st.integers(floor + 1, floor + 8)))
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                     st.integers(floor, min(cutoff, floor + 8) - 1))
    return TruncatedSeries(draw(st.dictionaries(keys, st.one_of(small_coeff, st.just(0)), max_size=8)),
                           floor, cutoff)


@st.composite
def finite_layered_series(draw):
    s = draw(layered_series())
    return s if s.q_cutoff < INF else s.truncated(s.q_floor + draw(st.integers(1, 8)))


multipliers = st.one_of(
    st.builds(mono, st.just(1), q=st.integers(-3, 3)),
    st.builds(mono, st.sampled_from([0, 1, -1, 2, GaussInt(0, 1)]), st.integers(0, 2), st.integers(0, 2),
              st.integers(0, 2), st.integers(-3, 3)),
)


class TestLayersAgainstTheFlatForm:
    """Each operation on the layers gives the flat form's terms, window and
    first mismatch, and leaves the stored form canonical."""

    @settings(max_examples=300, deadline=None)
    @given(layered_series(), layered_series())
    def test_add_and_mul(self, s, t):
        assert_stored_form(s)
        assert_is_flat(s + t, flat_add(flat(s), flat(t)))
        assert_is_flat(t + s, flat_add(flat(t), flat(s)))
        assert_is_flat(s * t, flat_mul(flat(s), flat(t)))
        assert_is_flat(s - s, flat_add(flat(s), ({k: -c for k, c in s.terms.items()}, s.q_floor, s.q_cutoff)))

    @settings(max_examples=300, deadline=None)
    @given(layered_series(), layered_series())
    def test_first_mismatch(self, s, t):
        limit = min(s.q_cutoff, t.q_cutoff)
        assert s.first_mismatch(t) == flat_first_difference(dict(s.terms), dict(t.terms), limit)
        assert t.first_mismatch(s) == flat_first_difference(dict(t.terms), dict(s.terms), limit)
        u = s + t
        assert u.first_mismatch(s) == flat_first_difference(dict(u.terms), dict(s.terms),
                                                            min(u.q_cutoff, s.q_cutoff))

    @settings(max_examples=300, deadline=None)
    @given(layered_series(), multipliers, st.integers(-6, 12))
    def test_times_monomial_truncated_and_shift_x(self, s, m, c):
        assert_is_flat(s.times_monomial(m), flat_times_monomial(flat(s), m))
        assert_is_flat(s.truncated(s.q_floor + c), flat_truncated(flat(s), s.q_floor + c))
        assert_is_flat(s.shift_x(), flat_shift_x(flat(s)))

    @settings(max_examples=100, deadline=None)
    @given(layered_series())
    def test_queries(self, s):
        top = min(s.q_cutoff, s.q_floor + 10)
        assert all(s.coeff(a, b, x, q) == s.terms.get((a, b, x, q), 0)
                   for a in range(3) for b in range(3) for x in range(3) for q in range(s.q_floor - 2, top))
        assert s.sorted_terms() == sorted(s.terms.items(), key=lambda kv: (kv[0][3], *kv[0][:3]))
        assert_stored_form(-s)
        assert TruncatedSeries.from_obj(s.to_obj()) == s


def stored(s):
    """A copy of what ``s`` stores."""
    return s.q_floor, s.q_cutoff, [dict(layer) for layer in s._layers]


def use_shared_layers(s, t):
    """Every operation that shares ``s``'s layers, and a write-in-place build on each result."""
    width = s.q_cutoff - s.q_floor
    base = mono(-1, a=1, q=1)
    sums = [s + t, t + s, s.times_monomial(mono(1, q=2)), s.truncated(s.q_floor + max(width - 1, 1))]
    for r in sums:
        qproduct(r, (base,), (mono(1, q=1),))
        _apply_factors(r, (mono(1, b=1, q=-1),))
        r + t
    qproduct(s, (base, mono(1, x=1, q=0)), (mono(1, q=2),))
    _horner([(0, s, (base,), ()), (1, t, (), (mono(1, q=1),)), (2, s, (mono(1, q=-1),), ())],
            max(min(s.q_cutoff, t.q_cutoff), 1), ((base,), (mono(1, q=1),)))


def sharing_add_layers(layers, start, src):
    """``_add_layers`` with its copy taken out: the kernel then writes stored layers."""
    for j, layer in enumerate(src[:max(len(layers) - start, 0)], start):
        if layers[j]:
            series._fold(layers[j], layer)
        else:
            layers[j] = layer


class TestSharedLayers:
    """Series share layers, so nothing may write a stored one."""

    @settings(max_examples=200, deadline=None)
    @given(finite_layered_series(), finite_layered_series())
    def test_operands_keep_their_layers(self, s, t):
        before = stored(s), stored(t)
        use_shared_layers(s, t)
        assert (stored(s), stored(t)) == before

    def test_a_write_into_a_shared_layer_is_seen(self, monkeypatch):
        monkeypatch.setattr(series, "_add_layers", sharing_add_layers)
        monkeypatch.setattr(hyperg, "_add_layers", sharing_add_layers)
        s, t = ts((1,), (2, 1, 0, 0, 1), (1, 0, 1, 1, 2), cutoff=6), ts((3,), (1, 0, 0, 1, 1), cutoff=7)
        before = stored(s), stored(t)
        use_shared_layers(s, t)
        assert (stored(s), stored(t)) != before

    def test_cached_families_keep_their_layers(self, monkeypatch):
        seen = {}
        for name in ("_R_family", "_bilateral"):
            cached = getattr(hyperg, name)
            cached.cache_clear()

            def spy(*args, cached=cached):
                s = cached(*args)
                seen.setdefault(id(s), (s, stored(s)))
                return s
            monkeypatch.setattr(hyperg, name, spy)
        cfg = VerifyConfig(k_values=(2, 3), cutoff=10, n_max=6)
        for _ in range(2):
            for suite in ("qdiff-R", "qdiff-Rtilde", "series-vs-enum", "gf-paths", "bailey", "corollaries"):
                assert run_suite(suite, cfg).ok
        assert len(seen) > 10
        assert all(stored(s) == before for s, before in seen.values())
