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

Every sum (R and R~, H~, the bilateral forms, the lattice's alpha side, the
summation lemma's left side, the Bailey relation's sum side and, one level
at a time, the Durfee multisum) is a table of term ratios that
:func:`_horner` evaluates on one list of q-layers, the infinite product that
closes the series included.  The layers keep the window rules of
:mod:`~qpair.series`: every coefficient below the cutoff is exact, also
where summand floors fall below q^0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import count, takewhile

from .gaussint import is_unit, unit_pow
from .overpartitions import check_ki
from .qtools import f_poly, inv_qpoch
from .series import (Monomial, TruncatedSeries, _add_layers, _apply_factors, _factor_layers, _pack,
                     _product_factors, mono, qproduct)

# Bases of (-aq, -bq; q)_inf / (q, abq; q)_inf, the x = 1 prefactor, which
# the Bailey lattice prefactor regroups, and of xq and abxq.
NEG_AQ, NEG_BQ, Q, ABQ = mono(-1, a=1, q=1), mono(-1, b=1, q=1), mono(1, q=1), mono(1, a=1, b=1, q=1)
XQ, ABXQ = mono(1, x=1, q=1), mono(1, a=1, b=1, x=1, q=1)
X_ONE_PRODUCT = ((NEG_AQ, NEG_BQ), (Q, ABQ))
_ONE = TruncatedSeries.poly([mono(1)])  # the exact polynomial 1


def r_exponent(k: int, i: int, n: int, tilde: bool) -> int:
    """The q-exponent of the n-th summand of the plain or even-moduli series,
    for every integer n.

    The bilateral forms take e(n) for n >= 0 and e(-m) + 2m for m >= 1; the
    path generating functions take e(n) - n.
    """
    if tilde:
        return k * n * n + (k - i) * n - n * (n - 1)
    return k * n * n + (k - i + 1) * n - n * (n - 1) // 2


def _below(floor, q_cutoff: int, start: int = 0):
    """n = start, start + 1, ... while ``floor(n)`` lies below ``q_cutoff``."""
    return takewhile(lambda n: floor(n) < q_cutoff, count(start))


def _ab_plus(j: int) -> tuple[Monomial, Monomial]:
    """``(a + q^j)(b + q^j)`` as Laurent numerators ``q^j (1 + a q^-j)`` and the same in b."""
    return mono(-1, a=1, q=-j), mono(-1, b=1, q=-j)


def _one_plus_ab(x: int, j: int) -> tuple[Monomial, Monomial]:
    """The bases of ``(1 + a x^x q^j)(1 + b x^x q^j)``."""
    return mono(-1, a=1, x=x, q=j), mono(-1, b=1, x=x, q=j)


def _horner(levels, q_cutoff: int, close=((), ())) -> TruncatedSeries:
    """``sum_n q^floor_n poly_n prod_{j <= n} num_j / den_j`` by Horner's rule,
    times ``prod (m; q)_inf`` over the bases of ``close[0]`` over that of ``close[1]``.

    ``levels`` lists ``(floor, poly, num, den)`` for n = 0, 1, ...; a base m
    in ``num`` is the factor ``1 - m``, in ``den`` ``1/(1 - m)``.  A
    numerator of q-degree -d < 0 stands for ``q^d (1 - m)``, as ``a + q^d``
    for ``q^d (1 + a q^-d)``, so every factor is a power series from q^0 on.
    The tail ``t_n = (q^floor_n poly_n + t_(n+1)) num_n / den_n``, whose t_0
    is the sum, is one list of q-layers over the sum's window [lo, hi): each
    level adds its ``poly`` at ``floor_n`` and applies its factors by
    :func:`~qpair.series._factor_layers`.  The close goes onto the same
    layers, and the series is built once.

    The window is exact: lo is the least floor ``floor_n + poly_n.q_floor``,
    hi the least of ``q_cutoff`` and each ``floor_n + poly_n.q_cutoff`` (so
    lo < hi), and each factor keeps every coefficient it is given.  A table
    with no summand below the cutoff sums to the zero series.
    """
    lo = min((floor + poly.q_floor for floor, poly, *_ in levels), default=q_cutoff)
    if lo >= q_cutoff:
        return TruncatedSeries.zero(q_cutoff)
    hi = min([q_cutoff] + [floor + poly.q_cutoff for floor, poly, *_ in levels])
    layers = [{} for _ in range(hi - lo)]
    for floor, poly, num, den in reversed(levels):
        _add_layers(layers, floor + poly.q_floor - lo, poly._layers)
        # A numerator of q-degree -d lowers the window by d: q^d (1 - m) raises it back.
        _factor_layers(layers, lo, hi, num, den)
    num, den = (_product_factors(bases, lo, hi) for bases in close)
    return _pack(layers, *_factor_layers(layers, lo, hi, num, den))


def _bracket_numerator(n: int, i: int, lead: Monomial) -> TruncatedSeries:
    """``lead`` times (1 + axq^(n+1))(1 + bxq^(n+1)) - x^i q^(2n(i-1)+i) (a + q^n)(b + q^n)."""
    g = 2 * n * (i - 1) + i
    return TruncatedSeries.poly([m for da in (0, 1) for db in (0, 1) for m in (
        mono(1, a=da, b=db, x=da + db, q=(da + db) * (n + 1)),
        mono(-1, a=da, b=db, x=i, q=g + (2 - da - db) * n))]).times_monomial(lead)


@lru_cache(maxsize=None)
def _R_family(k: int, i: int, q_cutoff: int, tilde: bool) -> TruncatedSeries:
    """The plain (``tilde=False``) or even-moduli four-variable family member.

    Summand n is (-1)^n x^(Kn) q^e(n) times its bracket and the factors of
    levels 0 to n: 1/((1 + axq)(1 + bxq)), then the term ratio past the
    brackets (a + q^(n-1))(b + q^(n-1)) (1 - x^s q^(sn))
    / ((1 - q^(sn)) (1 + axq^(n+1)) (1 + bxq^(n+1))); K, s = k, 1 for the
    plain family and k - 1, 2 for the other.  Built once per process for the
    suites that share it; callers pass ``tilde`` positionally, one key each.
    """
    step, xk = (2, k - 1) if tilde else (1, k)
    levels = [(0, _bracket_numerator(0, i, mono(1)), (), _one_plus_ab(1, 1))]
    for n in _below(lambda n: r_exponent(k, i, n, tilde), q_cutoff, 1):
        levels.append((r_exponent(k, i, n, tilde), _bracket_numerator(n, i, mono((-1) ** n, x=xk * n)),
                       (*_ab_plus(n - 1), mono(1, x=step, q=step * n)),
                       (mono(1, q=step * n), *_one_plus_ab(1, n + 1))))
    # Times (-axq, -bxq)_inf / (xq, abxq)_inf.
    return _horner(levels, q_cutoff, (_one_plus_ab(1, 1), (XQ, ABXQ)))


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

    Summand 0 is sign(i) (1 + x + ... + x^(|i|-1)), empty at i = 0.  Summand
    n >= 1 is (-1)^n x^((k-1)n) (1 + x) (y^s - y^u), y = xq^(2n),
    s = max(-i, 0), u = max(i, 0), at its floor (k-1)n^2 + (2-|i|)n, times
    the term ratios past the polynomials up to n: (a + q^(n-1))(b + q^(n-1))
    (1 - x^2 q^(2n-2)) / ((1 - q^(2n)) (1 + axq^n) (1 + bxq^n)), with no
    x-factor at n = 1.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    absi = abs(i)
    if k == 1 and absi >= 2:
        raise ValueError(f"summand exponents do not grow for k=1, |i|={absi}: no truncation")
    s, u = max(-i, 0), max(i, 0)

    # The floors fall, then only grow, so the first at the cutoff ends the sum.
    def floor(n: int) -> int:
        return (k - 1) * n * n + (2 - absi) * n

    levels = [(0, TruncatedSeries.poly([mono(1 if i > 0 else -1, x=l) for l in range(absi)]), (), ())]
    for n in _below(floor, q_cutoff, 1):
        sign, xn = (-1) ** n, (k - 1) * n
        poly = TruncatedSeries.poly([mono(c * sign, x=xn + e + p, q=2 * n * p)
                                     for e in (0, 1) for c, p in ((1, s), (-1, u))])
        x_link = (mono(1, x=2, q=2 * n - 2),) if n >= 2 else ()
        levels.append((floor(n), poly, (*_ab_plus(n - 1), *x_link),
                       (mono(1, q=2 * n), *_one_plus_ab(1, n))))
    # Times (-axq, -bxq)_inf / (xq)_inf.
    return _horner(levels, q_cutoff, (_one_plus_ab(1, 1), (XQ,)))


def series_J_tilde(k: int, i: int, q_cutoff: int) -> TruncatedSeries:
    """The J-series, (abxq)_inf times the even-moduli series."""
    return qproduct(series_R_tilde(k, i, q_cutoff), (ABXQ,))


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
    return h_i.shift_x() + h_i1.shift_x() * ab_xq + h_i2.shift_x().times_monomial(lift)


# ------------------------------------------------------------------ bilateral forms


@lru_cache(maxsize=None)
def _bilateral(k: int, i: int, q_cutoff: int, tilde: bool) -> TruncatedSeries:
    """The x = 1 form of the plain (``tilde=False``) or even-moduli member.

    Summand n is (-1)^n (q^e(n) + q^(e(-n) + 2n)), one term at n = 0, times
    the term ratios past the powers of q up to n, (a + q^(n-1))(b + q^(n-1))
    / ((1 + aq^n)(1 + bq^n)).  Built once per process for the suites that
    share it; callers pass ``tilde`` positionally, one key each.
    """
    def exponents(n: int) -> tuple[int, int]:
        return r_exponent(k, i, n, tilde), r_exponent(k, i, -n, tilde) + 2 * n

    # Both exponents only grow with n.
    levels = [(0, _ONE, (), ())]
    for n in _below(lambda n: min(exponents(n)), q_cutoff, 1):
        es = exponents(n)
        levels.append((min(es), TruncatedSeries.poly([mono((-1) ** n, q=e - min(es)) for e in es]),
                       _ab_plus(n - 1), _one_plus_ab(0, n)))
    return _horner(levels, q_cutoff, X_ONE_PRODUCT)


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

    The left side's summand N = m is (-aq, -bq)_m / (q)_2m, and the term
    ratio into N is q (a + q^(N-1))(b + q^(N-1)) / ((1 - q^(N-m))(1 - q^(N+m))).
    The right side does not depend on n; it is built once per cutoff.
    """
    m = abs(n)
    levels = [(0, _ONE, [b for j in range(1, m + 1) for b in _one_plus_ab(0, j)],
               [mono(1, q=j) for j in range(1, 2 * m + 1)])]
    levels += [(t, _ONE, _ab_plus(m + t - 1), (mono(1, q=t), mono(1, q=t + 2 * m)))
               for t in range(1, q_cutoff)]
    return _horner(levels, q_cutoff), _q_gauss_rhs(q_cutoff)


@lru_cache(maxsize=None)
def _q_gauss_rhs(q_cutoff: int) -> TruncatedSeries:
    """The summation lemma's right side for every n, (-aq, -bq)_inf / (q, abq)_inf."""
    return qproduct(TruncatedSeries.one(q_cutoff), *X_ONE_PRODUCT)


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
    None when the relation holds at every n.  The sum side is a :func:`_horner`
    table: alpha_0 over (q)_n (q^2; q)_n, and into r the ratio past alpha_r
    (1 - q^(n-r+1)) / (1 - q^(n+r+1))."""
    c = pair.q_cutoff
    alphas = [(alpha.q_floor, alpha.times_monomial(mono(1, q=-alpha.q_floor))) for alpha in pair.alphas]
    for n in range(pair.depth() + 1):
        levels = [(floor, alpha, (mono(1, q=n - r + 1),), (mono(1, q=n + r + 1),))
                  for r, (floor, alpha) in enumerate(alphas[1:n + 1], 1)]
        levels.insert(0, (*alphas[0], (), [mono(1, q=j) for j in (*range(1, n + 1), *range(2, n + 2))]))
        bad = _horner(levels, c).first_mismatch(pair.betas[n])
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
    return sum(1 for _ in _below(lambda m: sum(_level_exponent(j, m, i_level) for j in range(1, depth + 1)),
                                 q_cutoff, 1)) if depth else 0


def _nested_multisum(depth: int, i_level: int, beta, q_cutoff: int) -> TruncatedSeries:
    """``sum_{n_1 >= ... >= n_depth >= 0}`` of q to the sum of
    :func:`_level_exponent` over the levels, times ``f_poly(n_1)``,
    1/(q)_(n_(j-1) - n_j) between levels and ``beta(n_depth)``; at depth 0,
    ``beta(0)`` cut to the cutoff.

    Summed one level at a time: ``sums[m]`` is the sum over the indices so
    far whose last index is m, as its floor and the series relative to it
    (at level 1 the cached, uncut ``f_poly(m)``).  The next level's entry at
    n is q^e(n) sum_{m >= n} sums[m] / (q)_(m-n), one :func:`_horner` table
    with the term ratio 1/(1 - q^(m-n)) into m.  The floors grow with the
    index, so a level ends at the first n whose floor plus e(n) reaches the
    cutoff; no later n reads ``sums[n]``.  Each innermost entry meets
    ``beta`` in one product.
    """
    if depth == 0:
        return beta(0).truncated(q_cutoff)
    first = partial(_level_exponent, 1, i_level=i_level)
    sums = [(first(m), f_poly(m, q_cutoff)) for m in _below(first, q_cutoff)]
    for level in range(2, depth + 1):
        entries = []
        for n, (floor, _) in enumerate(sums):
            e = _level_exponent(level, n, i_level)
            if floor + e >= q_cutoff:
                break
            table = [(f - floor, s, (), (mono(1, q=m - n),) if m > n else ())
                     for m, (f, s) in enumerate(sums[n:], n)]
            entries.append((floor + e, _horner(table, q_cutoff - floor - e)))
            sums[n] = None
        sums = entries
    return sum((s * beta(m).truncated(q_cutoff - floor).times_monomial(mono(1, q=floor))
                for m, (floor, s) in enumerate(sums)), TruncatedSeries.zero(q_cutoff))


def _alpha_exponents(k: int, i: int, n: int) -> tuple[int, int]:
    """The q-shifts of the two branches of lattice summand n >= 1, the one
    through alpha_n and the one through alpha_(n-1).  Alpha valuations are
    nonnegative, so the lesser is a floor of the summand; it never falls as
    n grows."""
    base = (n * n - n) * (i - 1) + i * n
    return base + (n * n + n) * (k - i), base + ((n - 1) ** 2 + (n - 1)) * (k - i) + 2 * n - 1


def _alpha_demand(k: int, i: int, q_cutoff: int) -> int:
    """The largest index :func:`bailey_lattice_rhs` reads from ``alphas``: the
    last summand n whose floor lies below the cutoff, or 0.  At k = 0 the
    alpha side reads no alpha."""
    return sum(1 for _ in _below(lambda n: min(_alpha_exponents(k, i, n)), q_cutoff, 1)) if k else 0


def _alpha_levels(pair: BaileyPair, k: int, i: int, q_cutoff: int) -> list:
    """The :func:`_horner` table of the alpha side's sum, k >= 1: alpha_0 and, for n >= 1,
    the Bailey polynomial rho_n q^b1 - rho_(n-1) q^b2 (:func:`_alpha_exponents`; rho_n =
    alpha_n (1 - q) / (1 - q^(2n+1)) is (-1)^n q^valuation(n) for B3 and E3) with the
    term ratio into n, (a + q^(n-1))(b + q^(n-1)) / ((1 + aq^n)(1 + bq^n))."""
    needed = _alpha_demand(k, i, q_cutoff)
    if pair.depth() < needed:
        raise ValueError(f"pair depth {pair.depth()} insufficient for the alpha side: "
                         f"need n_max >= {needed}")
    rho = [_apply_factors(pair.alphas[n].truncated(q_cutoff), (Q,), (mono(1, q=2 * n + 1),))
           for n in range(needed + 1)]
    levels = [(0, pair.alphas[0], (), ())]
    for n in range(1, needed + 1):
        b1, b2 = _alpha_exponents(k, i, n)
        floor = min(b1, b2)
        poly = rho[n].times_monomial(mono(1, q=b1 - floor)) - rho[n - 1].times_monomial(mono(1, q=b2 - floor))
        levels.append((floor, poly, _ab_plus(n - 1), _one_plus_ab(0, n)))
    return levels


def bailey_lattice_rhs(pair: BaileyPair, k: int, i: int, q_cutoff: int) -> TruncatedSeries:
    """The alpha side of the lattice transform for a pair relative to q.

    For k >= 1 it is 1/(q)_inf^2 times the sum of :func:`_alpha_levels`.
    For k = 0 it is the prefactor (abq)_inf / (q, -aq, -bq)_inf times
    beta_0, by the empty-sum conventions.
    """
    if not (0 <= i <= k):
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    if k == 0:
        return qproduct(pair.betas[0], (ABQ,), (Q, NEG_AQ, NEG_BQ))
    return _horner(_alpha_levels(pair, k, i, q_cutoff), q_cutoff, ((), (Q, Q)))


def bailey_chain_bilateral(pair: BaileyPair, k: int, i: int, q_cutoff: int) -> TruncatedSeries:
    """:func:`bailey_lattice_rhs` times (q, -aq, -bq)_inf / (abq)_inf for k >= 1, its
    sum closed by the x = 1 prefactor: from B3 (E3), the plain (even-moduli)
    bilateral form at k + 1, i + 1."""
    if not (0 <= i <= k and k >= 1):
        raise ValueError(f"need 0 <= i <= k and k >= 1, got i={i}, k={k}")
    return _horner(_alpha_levels(pair, k, i, q_cutoff), q_cutoff, X_ONE_PRODUCT)


def bailey_lattice_sides(pair: BaileyPair, k: int, i: int, q_cutoff: int
                         ) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the lattice transform for a pair relative to q: the beta
    side and :func:`bailey_lattice_rhs`.  At k = 0 each is the prefactor times
    beta_0, built once from the empty multisum and once from the alpha side.

    A pair too shallow for either side is refused before either is built."""
    if not (0 <= i <= k):
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    needed = _beta_demand(k, i, q_cutoff)
    if pair.depth() < needed:
        raise ValueError(f"pair depth {pair.depth()} insufficient: need n_max >= {needed}")
    rhs = bailey_lattice_rhs(pair, k, i, q_cutoff)
    lhs = qproduct(_nested_multisum(k, i, lambda m: pair.betas[m], q_cutoff),
                   (ABQ,), (Q, NEG_AQ, NEG_BQ))
    return lhs, rhs


def multisum_admissible(k: int, i: int, q_cutoff: int) -> TruncatedSeries:
    """Generating function for the Durfee-admissible family, as a multisum."""
    check_ki(k, i)
    return _nested_multisum(k - 1, i - 1, lambda m: inv_qpoch(m, q_cutoff), q_cutoff)


def multisum_self_conjugate(k: int, i: int, q_cutoff: int) -> TruncatedSeries:
    """Generating function for the self-conjugate family, as a multisum."""
    check_ki(k, i)
    return _nested_multisum(k - 1, i - 1, lambda m: inv_qpoch(m, q_cutoff, step=2), q_cutoff)
