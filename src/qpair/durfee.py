"""Durfee-square machinery on Frobenius symbols.

Everything here works through the row decomposition of
:mod:`qpair.frobenius`: the bottom row's associated partition is conjugated
and its successive Durfee squares drive admissibility, the symbol
conjugation that swaps the two small-part regions, and the fixed-point
families.

Both families are decided row by row: admissibility reads only the bottom
row, and self-conjugacy compares a region of the top row with one of the
bottom row.  So their count tables pair the rows of each length, a
convolution for D and a hash join on the swap region for D~, and form no
symbol.  The symbol streams serve the listings and are the reference the
tables are tested against.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache

from .counts import CountTable, check_bound
from .frobenius import (
    FrobeniusSymbol,
    Row,
    _plain_count,
    joichi_stanton_inverse,
    row_split,
    rows_of,
    symbols_up_to,
)
from .overpartitions import check_ki

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


@lru_cache(maxsize=None)
def durfee_squares(parts: Partition) -> tuple[int, ...]:
    """Sizes of the successive Durfee squares, peeled until nothing remains."""
    rest = tuple(int(p) for p in parts if p > 0)
    sizes = []
    while rest:
        d = durfee_size(rest)
        sizes.append(d)
        rest = rest[d:]
    return tuple(sizes)


def successive_sizes(parts, count: int) -> tuple[int, ...]:
    """The first ``count`` successive Durfee square sizes, zero-padded."""
    sizes = durfee_squares(parts)
    return (sizes + (0,) * count)[:count]


def _remove_parts(parts: Partition, removals) -> Partition | None:
    """Remove one occurrence of each requested value (zeros are free).

    With nothing to remove, ``parts`` itself comes back, so the reductions
    that :func:`_reduction` caches share the cached conjugated partitions.
    """
    if not any(removals):
        return parts
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


@lru_cache(maxsize=None)
def _reduction(bottom: Row, k: int, i: int) -> Partition | None:
    """The partition the (k, i) family reduces the bottom row to, or None.

    Remove the would-be inserted parts of a candidate square-size tuple from
    the conjugated associated partition; the residue counts when its first
    k-2 successive squares reproduce the tuple.  The first such residue is
    returned.  At k <= 5 no bottom row of length L and entry sum w has two
    when L + w <= 20 (26,341 rows, the ``--deep`` grid).
    ``tests/test_durfee.py`` checks this for L + w <= 12 and compares both
    predicates with a reference that tries every tuple.
    """
    lam2p = _lam_prime(bottom)
    for tup, removals in _insertions(len(bottom), k, i):
        nu = _remove_parts(lam2p, removals)
        if nu is not None and successive_sizes(nu, k - 2) == tup:
            return nu
    return None


def is_ki_admissible(f: FrobeniusSymbol, k: int, i: int) -> bool:
    """Whether the bottom row's conjugated associated partition is built
    from a partition with at most k-2 Durfee squares by inserting one part
    of each designated square size (sizes taken from the inner partition;
    the 0th square size is the column count).
    """
    check_ki(k, i)
    return _admissible_bottom(f.bottom, k, i)


def _admissible_bottom(bottom: Row, k: int, i: int) -> bool:
    """:func:`is_ki_admissible` of any symbol with this bottom row."""
    nu = _reduction(bottom, k, i)
    return nu is not None and len(durfee_squares(nu)) <= k - 2


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
    split = _bottom_region(lam2p, k)
    if split is None:
        return None
    cut, g2 = split
    return _top_region(lam1p, cut), g2


def _bottom_region(lam2p: Partition, k: int) -> tuple[int | None, Partition] | None:
    """The cut that G1 is read at and G2, both from the bottom partition
    alone, or None when the conjugation is the identity.  The cut is the
    (k-2)nd square's size, or None for k = 2, where G1 is all of lam1p."""
    if k == 2:
        return None, lam2p
    sizes = durfee_squares(lam2p)
    if len(sizes) < k - 2:
        return None
    return sizes[k - 3], lam2p[sum(sizes[: k - 2]):]


def _top_region(lam1p: Partition, cut: int | None) -> Partition:
    """G1: the parts of lam1p at most the cut."""
    return lam1p if cut is None else tuple(p for p in lam1p if p <= cut)


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
    if k < 2:
        raise ValueError("need k >= 2")
    return _self_conjugate(_lam_prime(f.top), _lam_prime(f.bottom), k)


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
    nu = _reduction(f.bottom, k, i)
    return nu is not None and _self_conjugate(_lam_prime(f.top), nu, k)


def admissible_symbols(k: int, i: int, n_max: int):
    """``(n, symbol)`` for each (k, i)-admissible symbol of weight n <= n_max, in listing order."""
    check_ki(k, i)
    return ((n, f) for n, f in symbols_up_to(n_max) if is_ki_admissible(f, k, i))


def self_conjugate_symbols(k: int, i: int, n_max: int):
    """``(n, symbol)`` for each self-(k, i)-conjugate symbol of weight n <= n_max, in listing order."""
    check_ki(k, i)
    return ((n, f) for n, f in symbols_up_to(n_max) if is_self_ki_conjugate(f, k, i))


# A CountTable is read-only, so each Durfee table is built once per process:
# the four-way and bailey suites ask for the same ones.


def count_admissible(k: int, i: int, n_max: int, bound: int | None = None) -> CountTable:
    """Table of (k, i)-admissible symbols by (s, t, n), without forming any.

    Admissibility reads only the bottom row, so the table is a convolution
    over L of all rows with the admissible bottom rows of length L.
    """
    check_bound(n_max, bound)
    check_ki(k, i)
    return _admissible_table(k, i, n_max)


@lru_cache(maxsize=None)
def _admissible_table(k: int, i: int, n_max: int) -> CountTable:
    total: Counter = Counter()
    for length in range(n_max + 1):
        rows = _rows_by_weight(length, n_max)
        bottoms = Counter((_plain_count(r), w) for w, r in rows if _admissible_bottom(r, k, i))
        _pair_rows(total, _by_stats(rows), bottoms, length, n_max)
    return CountTable(n_max, total)


def count_self_conjugate(k: int, i: int, n_max: int, bound: int | None = None) -> CountTable:
    """Table of self-(k, i)-conjugate symbols by (s, t, n), without forming any.

    A hash join of the rows of each length on the swap region: the bottom
    rows are grouped by (cut, G2) of their reduced partition, and the top
    rows by G1 at each cut that occurs.  A bottom row whose conjugation is
    the identity pairs with every top row.
    """
    check_bound(n_max, bound)
    check_ki(k, i)
    return _self_conjugate_table(k, i, n_max)


@lru_cache(maxsize=None)
def _self_conjugate_table(k: int, i: int, n_max: int) -> CountTable:
    total: Counter = Counter()
    for length in range(n_max + 1):
        rows = _rows_by_weight(length, n_max)
        identity: Counter = Counter()
        by_region = defaultdict(Counter)
        for w, bottom in rows:
            nu = _reduction(bottom, k, i)
            if nu is not None:
                split = _bottom_region(nu, k)
                (identity if split is None else by_region[split])[_plain_count(bottom), w] += 1
        _pair_rows(total, _by_stats(rows), identity, length, n_max)
        tops = [(_lam_prime(r), _plain_count(r), w) for w, r in rows]
        by_cut = {}
        for cut in {cut for cut, _ in by_region}:
            groups = by_cut[cut] = defaultdict(Counter)
            for lam1p, t, w in tops:
                groups[_top_region(lam1p, cut)][t, w] += 1
        for (cut, g2), bottoms in by_region.items():
            _pair_rows(total, by_cut[cut].get(g2, {}), bottoms, length, n_max)
    return CountTable(n_max, total)


def _rows_by_weight(length: int, n_max: int) -> list[tuple[int, Row]]:
    """``(entry sum, row)`` for each row of the given length that fits in a
    symbol of weight <= n_max."""
    return [(w, r) for w in range(n_max - length + 1) for r in rows_of(length, w)]


def _by_stats(rows) -> Counter:
    """Rows counted by (non-overlined entries, entry sum)."""
    return Counter((_plain_count(r), w) for w, r in rows)


def _pair_rows(into: Counter, tops, bottoms, length: int, n_max: int) -> None:
    """Add each top row counted by (t, w1) paired with each bottom row
    counted by (s, w2) into ``into`` at (s, t, length + w1 + w2) <= n_max."""
    for (t, w1), top in tops.items():
        for (s, w2), bottom in bottoms.items():
            n = length + w1 + w2
            if n <= n_max:
                into[s, t, n] += top * bottom
