"""Shared building blocks for series construction."""

from __future__ import annotations

from functools import lru_cache

from .series import TruncatedSeries, mono, over_one_minus


@lru_cache(maxsize=None)
def f_poly(n: int, q_cutoff: int) -> TruncatedSeries:
    """``prod_{j<n} (a + q^j)(b + q^j)`` truncated, for ``hyperg._nested_multisum``
    and ``paths.gf_closed``; the single-sum builders take these factors as term ratios."""
    if n == 0:
        return TruncatedSeries.one(q_cutoff)
    out = f_poly(n - 1, q_cutoff)
    out = out * TruncatedSeries.poly([mono(1, a=1), mono(1, q=n - 1)])
    return out * TruncatedSeries.poly([mono(1, b=1), mono(1, q=n - 1)])


@lru_cache(maxsize=None)
def inv_qfactors(exponents: tuple[int, ...], q_cutoff: int) -> TruncatedSeries:
    """Inverse of ``prod (1 - q^e)`` over the given exponents (all >= 1)."""
    if not exponents:
        return TruncatedSeries.one(q_cutoff)
    head = inv_qfactors(exponents[:-1], q_cutoff)
    return over_one_minus(head, mono(1, q=exponents[-1]))


def inv_qpoch(m: int, q_cutoff: int, step: int = 1) -> TruncatedSeries:
    """Inverse of the finite product ``(q^step; q^step)_m``."""
    return inv_qfactors(tuple(step * j for j in range(1, m + 1)), q_cutoff)
