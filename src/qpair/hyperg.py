"""The named basic hypergeometric series and their identity machinery.

Builders for the two four-variable series families (plain and even-moduli),
their auxiliary H/J relatives, the bilateral forms at x = 1, the triple
product, the two-variable summation lemma, Bailey pairs with the lattice
transform, and the Durfee multisums.  Everything returns a
:class:`~qpair.series.TruncatedSeries`; identities are checked by callers
through ``first_mismatch``.

Sign conventions used throughout: ``(-ab)^n (-1/a, -1/b)_n`` is expanded as
``(-1)^n prod_{j<n} (a + q^j)(b + q^j)``, which keeps every numerator a
polynomial; denominators are unrolled into geometric inverse factors.

Summand rule: a summand shifted by ``q^shift`` is formed only at
``q_cutoff - shift`` (less any negative floor of its other factors), by
truncating its factors before they are multiplied, since nothing of it at or
above ``q_cutoff`` survives the sum.  A running chain (a Pochhammer product or
inverse carried from one summand to the next) is carried at the current
summand's room; the rooms never grow with the index.  Every builder returns
the series, window included, that full-cutoff summands would give.  The same
rule governs the path recurrence tables in :mod:`qpair.paths`: a series
shifted by ``q^e`` onto another is cut to the other's cutoff less e first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gaussint import is_unit, unit_pow
from .overpartitions import check_ki
from .qtools import f_poly, inv_qfactors, inv_qpoch
from .series import Monomial, TruncatedSeries, geometric, mono, over_one_minus, pochhammer, qproduct, times_one_minus

# Bases of (-aq, -bq; q)_inf / (q, abq; q)_inf, the x = 1 prefactor.  The
# Bailey lattice prefactor and its undoing in the verify suites regroup them.
NEG_AQ, NEG_BQ, Q, ABQ = mono(-1, a=1, q=1), mono(-1, b=1, q=1), mono(1, q=1), mono(1, a=1, b=1, q=1)


def r_exponent(k: int, i: int, n: int, tilde: bool) -> int:
    """The q-exponent of the n-th summand of the plain or even-moduli series,
    for every integer n.

    The bilateral forms take e(n) for n >= 0 and e(-m) + 2m for m >= 1; the
    path generating functions take e(n) - n.
    """
    if tilde:
        return k * n * n + (k - i) * n - n * (n - 1)
    return k * n * n + (k - i + 1) * n - n * (n - 1) // 2


def _bracket_numerator(n: int, i: int, q_cutoff: int) -> TruncatedSeries:
    """(1 + axq^(n+1))(1 + bxq^(n+1)) - x^i q^(2n(i-1)+i) (a + q^n)(b + q^n)."""
    g = 2 * n * (i - 1) + i
    monos = [
        mono(1),
        mono(1, a=1, x=1, q=n + 1),
        mono(1, b=1, x=1, q=n + 1),
        mono(1, a=1, b=1, x=2, q=2 * n + 2),
        mono(-1, a=1, b=1, x=i, q=g),
        mono(-1, a=1, x=i, q=g + n),
        mono(-1, b=1, x=i, q=g + n),
        mono(-1, x=i, q=g + 2 * n),
    ]
    return TruncatedSeries.poly(monos).truncated(q_cutoff)


@lru_cache(maxsize=None)
def _R_family(k: int, i: int, q_cutoff: int, tilde: bool) -> TruncatedSeries:
    """The plain (``tilde=False``) or even-moduli four-variable family member.

    The two differ in the summand exponent, the x-power (k or k-1), the
    factor (xq; q)_n or (x^2q^2; q^2)_n, and the q^n or q^2n step of the
    inverse chain.  Built once per process for the suites that share it;
    callers pass ``tilde`` positionally, one key each.
    """
    step = 2 if tilde else 1
    total = TruncatedSeries.zero(q_cutoff)
    x_poch = TruncatedSeries.one(q_cutoff)
    inv_chain = over_one_minus(geometric(mono(-1, a=1, x=1, q=1), q_cutoff), mono(-1, b=1, x=1, q=1))
    n = 0
    while True:
        e_n = r_exponent(k, i, n, tilde)
        if e_n >= q_cutoff:
            break
        room = q_cutoff - e_n
        x_poch, inv_chain = x_poch.truncated(room), inv_chain.truncated(room)
        term = f_poly(n, q_cutoff).truncated(room) * x_poch * inv_chain
        term = term * _bracket_numerator(n, i, room)
        total = total + term.times_monomial(mono(-1 if n % 2 else 1, x=(k - 1 if tilde else k) * n, q=e_n))
        n += 1
        x_poch = times_one_minus(x_poch, mono(1, x=step, q=step * n))
        inv_chain = over_one_minus(inv_chain, mono(1, q=step * n))
        inv_chain = over_one_minus(inv_chain, mono(-1, a=1, x=1, q=n + 1))
        inv_chain = over_one_minus(inv_chain, mono(-1, b=1, x=1, q=n + 1))
    # Times (-axq, -bxq)_inf / (xq, abxq)_inf.
    return qproduct(total, (mono(-1, a=1, x=1, q=1), mono(-1, b=1, x=1, q=1)),
                    (mono(1, x=1, q=1), mono(1, a=1, b=1, x=1, q=1)))


def series_R(k: int, i: int, q_cutoff: int, x_one: bool = False) -> TruncatedSeries:
    """The plain four-variable family member, truncated at ``q_cutoff``.

    At x = 1 (the flag) it is the two-sided sum :func:`series_R_bilateral`.
    """
    if x_one:
        return series_R_bilateral(k, i, q_cutoff)
    check_ki(k, i)
    return _R_family(k, i, q_cutoff, False)


def series_R_tilde(k: int, i: int, q_cutoff: int, x_one: bool = False) -> TruncatedSeries:
    """The even-moduli four-variable family member; at x = 1 (the flag),
    :func:`series_R_tilde_bilateral`."""
    if x_one:
        return series_R_tilde_bilateral(k, i, q_cutoff)
    check_ki(k, i)
    return _R_family(k, i, q_cutoff, True)


def series_H_tilde(k: int, i: int, q_cutoff: int) -> TruncatedSeries:
    """The auxiliary H-series (k >= 1, any integer i).

    The engine keeps x-degrees nonnegative, so for i < 0 the returned
    series is x^|i| times the H-series; identities involving negative i are
    checked in that multiplied-through form.  Parameters whose summand
    exponents do not grow (k = 1 with |i| >= 2) are rejected.

    Summand n carries (x^2q^2; q^2)_(n-1) (1 + x) (x^s - x^(s+i) q^(2ni)),
    s = max(-i, 0); at n = 0, where the first two are 1/(1 - x), it is
    sign(i) (1 + x + ... + x^(|i|-1)), empty at i = 0.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    absi = abs(i)
    if k == 1 and absi >= 2:
        raise ValueError(f"summand exponents do not grow for k=1, |i|={absi}: no truncation")
    xshift = absi if i < 0 else 0

    one_plus_x = TruncatedSeries.poly([mono(1), mono(1, x=1)])
    total = TruncatedSeries.zero(q_cutoff)
    x2q2_prev = TruncatedSeries.one(q_cutoff)  # (x^2 q^2; q^2)_{n-1}
    inv_chain = TruncatedSeries.one(q_cutoff)
    n = 0
    while True:
        low = (k - 1) * n * n + (2 - absi) * n
        if low >= q_cutoff and (k - 1) * (2 * n + 1) + 2 - absi >= 0:
            break
        d_n = (k - 1) * n * n + 2 * n - i * n
        # low is the summand's floor: d_n plus the floor 2ni of the i < 0
        # factor.  The break keeps it below the cutoff, and max(low, 0) never
        # falls as n grows, so the chains can be cut to each room in turn.
        room = q_cutoff - max(low, 0)
        x2q2_prev, inv_chain = x2q2_prev.truncated(room), inv_chain.truncated(room)
        if n == 0:
            t_n = TruncatedSeries.poly([mono(1 if i > 0 else -1, x=l) for l in range(absi)])
        else:
            factor = TruncatedSeries.poly([mono(1, x=xshift), mono(-1, x=xshift + i, q=2 * n * i)])
            t_n = x2q2_prev * one_plus_x * factor
        term = f_poly(n, q_cutoff).truncated(room) * t_n * inv_chain
        total = total + term.times_monomial(mono(-1 if n % 2 else 1, x=(k - 1) * n, q=d_n))
        n += 1
        if n >= 2:
            x2q2_prev = times_one_minus(x2q2_prev, mono(1, x=2, q=2 * (n - 1)))
        inv_chain = over_one_minus(inv_chain, mono(1, q=2 * n))
        inv_chain = over_one_minus(inv_chain, mono(-1, a=1, x=1, q=n))
        inv_chain = over_one_minus(inv_chain, mono(-1, b=1, x=1, q=n))
    # Times (-axq, -bxq)_inf / (xq)_inf.
    return qproduct(total, (mono(-1, a=1, x=1, q=1), mono(-1, b=1, x=1, q=1)), (mono(1, x=1, q=1),))


def series_J_tilde(k: int, i: int, q_cutoff: int) -> TruncatedSeries:
    """The J-series, (abxq)_inf times the even-moduli series."""
    return qproduct(series_R_tilde(k, i, q_cutoff), (mono(1, a=1, b=1, x=1, q=1),))


def j_tilde_from_h(h_i: TruncatedSeries, h_i1: TruncatedSeries, h_i2: TruncatedSeries,
                   i: int) -> TruncatedSeries:
    """The J-series at index i >= 1 from the shifted H-series three-term relation.

    ``h_i``, ``h_i1`` and ``h_i2`` are :func:`series_H_tilde` at i, i-1 and
    i-2 for the same k and cutoff.  For i = 1 the last is stored as
    x * H(-1), and abx^2q^2 H(-1)(xq) = abxq times it, shifted.
    """
    if i < 1:
        raise ValueError(f"need i >= 1, got i={i}")
    ab_xq = TruncatedSeries.poly([mono(1, a=1, x=1, q=1), mono(1, b=1, x=1, q=1)])
    lift = mono(1, a=1, b=1, x=2, q=2) if i >= 2 else mono(1, a=1, b=1, x=1, q=1)
    return h_i.shift_x(1) + h_i1.shift_x(1) * ab_xq + h_i2.shift_x(1).times_monomial(lift)


# ------------------------------------------------------------------ bilateral forms


@lru_cache(maxsize=None)
def _bilateral(k: int, i: int, q_cutoff: int, tilde: bool) -> TruncatedSeries:
    """The x = 1 form of the plain (``tilde=False``) or even-moduli member.

    Built once per process for the suites that share it; callers pass
    ``tilde`` positionally, one key each.
    """
    total = TruncatedSeries.zero(q_cutoff)
    inv_chain = TruncatedSeries.one(q_cutoff)
    n = 0
    while True:
        e_pos = r_exponent(k, i, n, tilde)
        e_neg = r_exponent(k, i, -n, tilde) + 2 * n if n >= 1 else None
        if e_pos >= q_cutoff and (e_neg is None or e_neg >= q_cutoff) and n >= 1:
            break
        sign = -1 if n % 2 else 1
        # Both exponents are nonnegative and only grow with n.
        room = q_cutoff - (e_pos if e_neg is None else min(e_pos, e_neg))
        inv_chain = inv_chain.truncated(room)
        term = f_poly(n, q_cutoff).truncated(room) * inv_chain
        if e_pos < q_cutoff:
            total = total + term.times_monomial(mono(sign, q=e_pos))
        if e_neg is not None and e_neg < q_cutoff:
            total = total + term.times_monomial(mono(sign, q=e_neg))
        n += 1
        inv_chain = over_one_minus(inv_chain, mono(-1, a=1, q=n))
        inv_chain = over_one_minus(inv_chain, mono(-1, b=1, q=n))
    return qproduct(total, (NEG_AQ, NEG_BQ), (Q, ABQ))


def series_R_bilateral(k: int, i: int, q_cutoff: int) -> TruncatedSeries:
    """The x = 1 form as a two-sided sum in three variables."""
    check_ki(k, i)
    return _bilateral(k, i, q_cutoff, False)


def series_R_tilde_bilateral(k: int, i: int, q_cutoff: int) -> TruncatedSeries:
    check_ki(k, i)
    return _bilateral(k, i, q_cutoff, True)


# ------------------------------------------------------------------ classic identities


def jacobi_triple_product(z: Monomial, q_cutoff: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the triple product for z a unit times a q-power.

    Returns (sum side, product side): sum over all integers n of
    z^n q^(n^2) against (-zq, -q/z, q^2; q^2)_inf, each truncated.
    """
    u, e = z.coeff, z.q
    if z.a or z.b or z.x or not is_unit(u):
        raise ValueError("z must be a Gaussian unit times a power of q")
    terms = []
    n = 0
    while True:
        hit = False
        for s in ((n,) if n == 0 else (n, -n)):
            expo = s * s + e * s
            if expo < q_cutoff:
                terms.append(mono(unit_pow(u, s), q=expo))
                hit = True
        if not hit and n * n - abs(e) * n >= q_cutoff:
            break
        n += 1
    lhs = TruncatedSeries.poly(terms).truncated(q_cutoff)
    rhs = qproduct(TruncatedSeries.one(q_cutoff),
                   (mono(-u, q=e + 1), mono(-unit_pow(u, -1), q=1 - e), mono(1, q=2)), step=2)
    return lhs, rhs


def q_gauss_sides(n: int, q_cutoff: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the two-variable summation lemma, for any integer n.

    The left side sums over N >= |n|.  The negative-index product
    conversions reduce the n < 0 summand to the n > 0 one, so both sides
    are built from m = |n| alone: the sides at -n and n are one computation,
    and comparing them cannot fail.
    """
    m = abs(n)
    poch_ab_m = pochhammer(NEG_AQ, m, q_cutoff) * pochhammer(NEG_BQ, m, q_cutoff)
    lhs = TruncatedSeries.zero(q_cutoff)
    running = TruncatedSeries.one(q_cutoff)  # prod_{j=m}^{N-1} (a+q^j)(b+q^j)
    inv_lo = TruncatedSeries.one(q_cutoff)  # 1/(q)_{N-m}
    inv_hi = inv_qpoch(2 * m, q_cutoff)  # 1/(q)_{N+m}
    big_n = m
    while big_n - m < q_cutoff:
        room = q_cutoff - (big_n - m)
        poch_ab_m, running = poch_ab_m.truncated(room), running.truncated(room)
        inv_lo, inv_hi = inv_lo.truncated(room), inv_hi.truncated(room)
        term = (poch_ab_m * running * inv_lo * inv_hi).times_monomial(mono(1, q=big_n - m))
        lhs = lhs + term
        big_n += 1
        j = big_n - 1
        running = running * TruncatedSeries.poly([mono(1, a=1), mono(1, q=j)])
        running = running * TruncatedSeries.poly([mono(1, b=1), mono(1, q=j)])
        inv_lo = over_one_minus(inv_lo, mono(1, q=big_n - m))
        inv_hi = over_one_minus(inv_hi, mono(1, q=big_n + m))
    return lhs, qproduct(TruncatedSeries.one(q_cutoff), (NEG_AQ, NEG_BQ), (Q, ABQ))


# ------------------------------------------------------------------ Bailey machinery


@dataclass(frozen=True)
class BaileyPair:
    """A pair of alpha/beta sequences relative to base q, meant to satisfy
    the defining relation that :func:`bailey_relation_mismatch` checks."""

    label: str
    alphas: tuple[TruncatedSeries, ...]
    betas: tuple[TruncatedSeries, ...]
    q_cutoff: int

    def depth(self) -> int:
        return len(self.alphas) - 1


def bailey_relation_mismatch(pair: BaileyPair) -> tuple | None:
    """The first failure of beta_n = sum_r alpha_r / ((q)_{n-r} (q^2; q)_{n+r})
    over the stored indices n, as ``((n, a, b, x, q), sum side, beta_n)``;
    None when the relation holds at every n."""
    c = pair.q_cutoff
    for n in range(pair.depth() + 1):
        acc = TruncatedSeries.zero(c)
        for r in range(n + 1):
            term = pair.alphas[r] * inv_qpoch(n - r, c)
            term = term * inv_qfactors(tuple(range(2, n + r + 2)), c)
            acc = acc + term
        bad = acc.first_mismatch(pair.betas[n])
        if bad is not None:
            key, lhs, rhs = bad
            return (n,) + key, lhs, rhs
    return None


def _make_pair(label: str, valuation, step: int, n_max: int, q_cutoff: int) -> BaileyPair:
    """alpha_n = (-1)^n q^valuation(n) (1-q^(2n+1))/(1-q), beta_n = 1/(q^step; q^step)_n."""
    alphas = []
    for n in range(n_max + 1):
        sign = -1 if n % 2 else 1
        monos = [mono(sign, q=valuation(n) + l) for l in range(2 * n + 1)]
        alphas.append(TruncatedSeries.poly(monos).truncated(q_cutoff))
    betas = [inv_qpoch(n, q_cutoff, step=step) for n in range(n_max + 1)]
    return BaileyPair(label, tuple(alphas), tuple(betas), q_cutoff)


def bailey_pair_b3(n_max: int, q_cutoff: int) -> BaileyPair:
    """Slater's pair B3: alpha_n = (-1)^n q^(n(3n+1)/2) (1-q^(2n+1))/(1-q),
    beta_n = 1/(q)_n."""
    return _make_pair("B3", lambda n: n * (3 * n + 1) // 2, 1, n_max, q_cutoff)


def bailey_pair_e3(n_max: int, q_cutoff: int) -> BaileyPair:
    """Slater's pair E3: alpha_n = (-1)^n q^(n^2) (1-q^(2n+1))/(1-q),
    beta_n = 1/(q^2;q^2)_n."""
    return _make_pair("E3", lambda n: n * n, 2, n_max, q_cutoff)


def _level_exponent(level: int, n: int, i_level: int) -> int:
    """What index ``n_level = n`` adds to the multisum exponent: n at level 1
    and n^2 below it, plus n at every level past ``i_level``."""
    return (n if level == 1 else n * n) + (n if level > i_level else 0)


def _beta_demand(depth: int, i_level: int, q_cutoff: int) -> int:
    """The largest index :func:`_nested_multisum` reads from ``beta``.

    The exponents grow with each index, so n_depth = m is reached exactly
    when n_1 = ... = n_depth = m stays below the cutoff; at depth 0 it is 0.
    """
    m = 0
    while depth and sum(_level_exponent(j, m + 1, i_level) for j in range(1, depth + 1)) < q_cutoff:
        m += 1
    return m


def _nested_multisum(depth: int, i_level: int, beta, q_cutoff: int) -> TruncatedSeries:
    """``sum_{n_1 >= ... >= n_depth >= 0}`` of the standard lattice summand.

    The exponent adds :func:`_level_exponent` over the levels; between
    levels the difference Pochhammer inverses appear, and the innermost
    index feeds ``beta``.  At depth 0 the sum has no index: it is
    ``beta(0)`` cut to the cutoff.
    """
    if depth == 0:
        return beta(0).truncated(q_cutoff)
    total = TruncatedSeries.zero(q_cutoff)

    def rec(level: int, prev: int, expo: int, partial: TruncatedSeries):
        nonlocal total
        # ``partial`` carries its shift q^expo, so each new factor is cut to
        # the room above it and the product stops at q_cutoff.
        if level > depth:
            total = total + partial * beta(prev).truncated(q_cutoff - expo)
            return
        for nj in range(prev, -1, -1):
            e = _level_exponent(level, nj, i_level)
            if expo + e >= q_cutoff:
                continue
            rec(level + 1, nj, expo + e, partial.times_monomial(mono(1, q=e))
                * inv_qpoch(prev - nj, q_cutoff).truncated(q_cutoff - expo - e))

    n1 = 0
    while True:
        e1 = _level_exponent(1, n1, i_level)
        if e1 >= q_cutoff:
            break
        rec(2, n1, e1, f_poly(n1, q_cutoff).truncated(q_cutoff - e1).times_monomial(mono(1, q=e1)))
        n1 += 1
    return total


def bailey_lattice_rhs(pair: BaileyPair, k: int, i: int, q_cutoff: int) -> TruncatedSeries:
    """The alpha side of the lattice transform for a pair relative to q.

    For k = 0 it is the prefactor (abq)_inf / (q, -aq, -bq)_inf times
    beta_0, by the empty-sum conventions.
    """
    if not (0 <= i <= k):
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    if k == 0:
        return qproduct(pair.betas[0], (ABQ,), (Q, NEG_AQ, NEG_BQ))
    inv_q_inf_sq = qproduct(TruncatedSeries.one(q_cutoff), (), (Q, Q))
    rhs = inv_q_inf_sq * pair.alphas[0]
    inv_chain = TruncatedSeries.one(q_cutoff)
    n = 1
    while True:
        # Alpha valuations are nonnegative, so these bound both branches.
        base = (n * n - n) * (i - 1) + i * n
        b1 = base + (n * n + n) * (k - i)
        b2 = base + ((n - 1) ** 2 + (n - 1)) * (k - i) + 2 * n - 1
        if min(b1, b2) >= q_cutoff:
            break
        if n > pair.depth():
            raise ValueError(f"pair depth {pair.depth()} insufficient for the alpha side")
        # The product starts at q^min(b1, b2), which never falls as n grows,
        # so the outer factor and its chain are cut to the room above it, and
        # the branches and 1/(q)_inf^2 to what the product can still reach.
        room = q_cutoff - min(b1, b2)
        inv_chain = over_one_minus(inv_chain.truncated(room), mono(-1, a=1, q=n))
        inv_chain = over_one_minus(inv_chain, mono(-1, b=1, q=n))
        outer = times_one_minus(f_poly(n, q_cutoff).truncated(room) * inv_chain, mono(1, q=1))
        outer = outer.times_monomial(mono(1, q=base))
        branch1 = pair.alphas[n] * geometric(mono(1, q=2 * n + 1), q_cutoff)
        branch1 = branch1.times_monomial(mono(1, q=(n * n + n) * (k - i)))
        branch2 = pair.alphas[n - 1] * geometric(mono(1, q=2 * n - 1), q_cutoff)
        branch2 = branch2.times_monomial(mono(-1, q=((n - 1) ** 2 + (n - 1)) * (k - i) + 2 * n - 1))
        product = outer * (branch1 + branch2).truncated(q_cutoff - base)
        rhs = rhs + inv_q_inf_sq.truncated(q_cutoff - product.q_floor) * product
        n += 1
    return rhs


def bailey_lattice_sides(pair: BaileyPair, k: int, i: int, q_cutoff: int
                         ) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the lattice transform for a pair relative to q: the beta
    side and :func:`bailey_lattice_rhs`.  At k = 0 each is the prefactor times
    beta_0, built once from the empty multisum and once from the alpha side."""
    if not (0 <= i <= k):
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    needed = _beta_demand(k, i, q_cutoff)
    if pair.depth() < needed:
        raise ValueError(f"pair depth {pair.depth()} insufficient: need n_max >= {needed}")
    lhs = qproduct(_nested_multisum(k, i, lambda m: pair.betas[m], q_cutoff),
                   (ABQ,), (Q, NEG_AQ, NEG_BQ))
    return lhs, bailey_lattice_rhs(pair, k, i, q_cutoff)


def multisum_admissible(k: int, i: int, q_cutoff: int) -> TruncatedSeries:
    """Generating function for the Durfee-admissible family, as a multisum."""
    check_ki(k, i)
    return _nested_multisum(k - 1, i - 1, lambda m: inv_qpoch(m, q_cutoff), q_cutoff)


def multisum_self_conjugate(k: int, i: int, q_cutoff: int) -> TruncatedSeries:
    """Generating function for the self-conjugate family, as a multisum."""
    check_ki(k, i)
    return _nested_multisum(k - 1, i - 1, lambda m: inv_qpoch(m, q_cutoff, step=2), q_cutoff)
