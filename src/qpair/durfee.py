"""Durfee-square machinery on Frobenius symbols.

Everything here works through the row decomposition of
:mod:`qpair.frobenius`: the bottom row's associated partition is conjugated
and its successive Durfee squares drive admissibility, the symbol
conjugation that swaps the two small-part regions, and the fixed-point
families.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .counts import BoundExceededError, CountTable
from .frobenius import FrobeniusSymbol, Row, joichi_stanton_inverse, row_split, symbols_of
from .overpartitions import DEFAULT_BOUND, check_ki

Partition = tuple[int, ...]


def conjugate(parts) -> Partition:
    parts = tuple(parts)
    if not parts:
        return ()
    out = []
    for r in range(1, parts[0] + 1):
        out.append(sum(1 for p in parts if p >= r))
    return tuple(out)


def durfee_size(parts) -> int:
    """Side of the largest upper-left-justified square in the diagram."""
    d = 0
    for idx, p in enumerate(parts, start=1):
        if p >= idx:
            d = idx
        else:
            break
    return d


@dataclass(frozen=True)
class DurfeeDecomposition:
    """Successive squares with, for each, the rows' overhang to its right."""

    sizes: tuple[int, ...]
    rights: tuple[Partition, ...]

    def reassemble(self) -> Partition:
        rows: list[int] = []
        for d, right in zip(self.sizes, self.rights):
            padded = right + (0,) * (d - len(right))
            rows.extend(d + r for r in padded)
        return tuple(rows)


@lru_cache(maxsize=None)
def durfee_squares(parts: Partition) -> DurfeeDecomposition:
    """Peel successive Durfee squares until nothing remains."""
    rest = tuple(int(p) for p in parts if p > 0)
    sizes = []
    rights = []
    while rest:
        d = durfee_size(rest)
        sizes.append(d)
        rights.append(tuple(p - d for p in rest[:d] if p > d))
        rest = rest[d:]
    return DurfeeDecomposition(tuple(sizes), tuple(rights))


def successive_sizes(parts, count: int) -> tuple[int, ...]:
    """The first ``count`` successive Durfee square sizes, zero-padded."""
    sizes = durfee_squares(parts).sizes
    return (sizes + (0,) * count)[:count]


def _remove_parts(parts: Partition, removals) -> Partition | None:
    """Remove one occurrence of each requested value (zeros are free)."""
    out = list(parts)
    for v in removals:
        if v == 0:
            continue
        if v in out:
            out.remove(v)
        else:
            return None
    return tuple(out)


def _square_tuples(n2_max: int, depth: int):
    """Weakly decreasing tuples (n2 >= ... >= n_{k-1} >= 0) of given depth."""
    if depth == 0:
        yield ()
        return
    for first in range(n2_max, -1, -1):
        for rest in _square_tuples(first, depth - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _insertions(n1: int, k: int, i: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each candidate square tuple with the part sizes the (k, i) family
    inserts under it (the 0th square size is the column count n1)."""
    out = []
    for tup in _square_tuples(n1, k - 2):
        removals = tup[max(i, 2) - 2: k - 1]
        out.append((tup, removals + (n1,) if i == 1 else removals))
    return tuple(out)


@lru_cache(maxsize=None)
def _lam_prime(row: Row) -> Partition:
    """Conjugate of the associated partition of a canonical row."""
    return conjugate(row_split(row)[0])


def _row_with_lam_prime(row: Row, lam_p: Partition) -> Row:
    """The row with the same marks whose conjugated associated partition is lam_p."""
    assoc = conjugate(lam_p)
    assoc = assoc + (0,) * (len(row) - len(assoc))
    return joichi_stanton_inverse(assoc, row_split(row)[1])


def is_ki_admissible(f: FrobeniusSymbol, k: int, i: int, sequential: bool = False) -> bool:
    """Whether the bottom row's conjugated associated partition is built
    from a partition with at most k-2 Durfee squares by inserting one part
    of each designated square size (sizes taken from the inner partition;
    the 0th square size is the column count).

    The check is satisfiability over candidate square-size tuples: remove
    the would-be inserted parts and demand that the residue's successive
    squares reproduce the tuple exactly with nothing left below.
    """
    check_ki(k, i)
    return _bottom_admissible(f.bottom, k, i, sequential)


@lru_cache(maxsize=None)
def _bottom_admissible(bottom: Row, k: int, i: int, sequential: bool) -> bool:
    """:func:`is_ki_admissible`, which reads only the bottom row."""
    lam2p = _lam_prime(bottom)
    n1 = len(bottom)
    if sequential:
        return _seq_admissible(lam2p, n1, k, i)
    for tup, removals in _insertions(n1, k, i):
        nu = _remove_parts(lam2p, removals)
        if nu is None:
            continue
        if len(durfee_squares(nu).sizes) > k - 2:
            continue
        if successive_sizes(nu, k - 2) == tup:
            return True
    return False


def _seq_admissible(lam2p: Partition, n1: int, k: int, i: int) -> bool:
    """Alternative reading: insertions peeled one at a time, sizes recomputed."""
    def peel(parts: Partition, j: int) -> bool:
        if j > k - 1:
            return len(durfee_squares(parts).sizes) <= k - 2
        candidates = {n1} if j == 1 else set(parts) | {0}
        for v in candidates:
            rest = _remove_parts(parts, [v])
            if rest is None:
                continue
            expected = n1 if j == 1 else successive_sizes(rest, k - 1)[j - 2]
            if v == expected and peel(rest, j + 1):
                return True
        return False

    return peel(lam2p, i)


def conjugation_regions(f: FrobeniusSymbol, k: int) -> tuple[Partition, Partition] | None:
    """The two swap regions, or None when the conjugation is the identity.

    G2 is the part of the conjugated bottom partition below its first k-2
    successive squares; G1 holds the parts of the conjugated top partition
    at most the (k-2)nd square's size.  For k = 2 the regions are the whole
    partitions (the 0th square has the column count as its size).
    """
    if k < 2:
        raise ValueError("need k >= 2")
    return _regions(_lam_prime(f.top), _lam_prime(f.bottom), k)


def _regions(lam1p: Partition, lam2p: Partition, k: int) -> tuple[Partition, Partition] | None:
    """:func:`conjugation_regions` from the two conjugated associated partitions."""
    if k == 2:
        return lam1p, lam2p
    sizes = durfee_squares(lam2p).sizes
    if len(sizes) < k - 2:
        return None
    cut = sizes[k - 3]
    g1 = tuple(p for p in lam1p if p <= cut)
    return g1, lam2p[sum(sizes[: k - 2]):]


def k_conjugate(f: FrobeniusSymbol, k: int) -> FrobeniusSymbol:
    """Swap the two regions and reassemble; identity when the bottom
    partition has fewer than k-2 Durfee squares."""
    regions = conjugation_regions(f, k)
    if regions is None:
        return f
    g1, g2 = regions
    # Each region is a suffix of its (weakly decreasing) partition.
    lam1p, lam2p = _lam_prime(f.top), _lam_prime(f.bottom)
    new1p = lam1p[: len(lam1p) - len(g1)] + g2
    new2p = lam2p[: len(lam2p) - len(g2)] + g1
    return FrobeniusSymbol(_row_with_lam_prime(f.top, new1p), _row_with_lam_prime(f.bottom, new2p))


def is_self_k_conjugate(f: FrobeniusSymbol, k: int) -> bool:
    """Whether ``k_conjugate(f, k) == f``.

    The conjugation keeps both rows' marks and swaps the region suffixes of
    the two partitions, so it fixes f exactly when it is the identity or
    the two regions are equal.
    """
    regions = conjugation_regions(f, k)
    return regions is None or regions[0] == regions[1]


def _self_conjugate(lam1p: Partition, lam2p: Partition, k: int) -> bool:
    """:func:`is_self_k_conjugate` from the two conjugated associated partitions."""
    regions = _regions(lam1p, lam2p, k)
    return regions is None or regions[0] == regions[1]


def is_self_ki_conjugate(f: FrobeniusSymbol, k: int, i: int) -> bool:
    """Whether f arises from a self-conjugate symbol by the designated
    part insertions into the conjugated bottom partition.

    A candidate keeps f's top row and bottom marks, so its conjugated
    bottom partition is the reduced partition itself.
    """
    check_ki(k, i)
    lam1p, lam2p = _lam_prime(f.top), _lam_prime(f.bottom)
    if i == k:
        return _self_conjugate(lam1p, lam2p, k)
    n1 = f.columns
    for tup, removals in _insertions(n1, k, i):
        reduced = _remove_parts(lam2p, removals)
        if reduced is None:
            continue
        if successive_sizes(reduced, k - 2) != tup:
            continue
        if _self_conjugate(lam1p, reduced, k):
            return True
    return False


def count_admissible(k: int, i: int, n_max: int, bound: int | None = None) -> CountTable:
    """Table of (k, i)-admissible symbols by (s, t, n)."""
    return _count_by(lambda f: is_ki_admissible(f, k, i), k, i, n_max, bound)


def count_self_conjugate(k: int, i: int, n_max: int, bound: int | None = None) -> CountTable:
    """Table of self-(k, i)-conjugate symbols by (s, t, n)."""
    return _count_by(lambda f: is_self_ki_conjugate(f, k, i), k, i, n_max, bound)


def _count_by(pred, k, i, n_max, bound) -> CountTable:
    check_ki(k, i)
    limit = DEFAULT_BOUND if bound is None else bound
    if n_max > limit:
        raise BoundExceededError(f"n_max={n_max} exceeds the enumeration bound {limit}")
    table = CountTable(n_max)
    for n in range(n_max + 1):
        for f in symbols_of(n):
            if pred(f):
                table.add(f.s_stat(), f.t_stat(), n)
    return table
