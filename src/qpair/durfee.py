"""Durfee-square machinery on Frobenius symbols.

Everything here works through the row decomposition of
:mod:`qpair.frobenius`: the bottom row's associated partition is conjugated
and its successive Durfee squares drive admissibility, the symbol
conjugation that swaps the two small-part regions, and the fixed-point
families.

Both families are decided row by row, each through the conjugated
associated partition of a row: admissibility reads only the bottom row, and
self-conjugacy compares a region of the top row with one of the bottom row.
So their count tables list the bottom partitions once for both tables of
every i and form no row: the tops that a bottom pairs with, and the marks
of both rows, are factors of count rows (:func:`qpair.counts.shift_add`).  The symbol streams serve the listings and are the
reference the tables are tested against.
"""

from __future__ import annotations

from functools import lru_cache

from .counts import CountTable, cell_shift, check_bound, shift_add
from .frobenius import (
    FrobeniusSymbol,
    Row,
    joichi_stanton_inverse,
    row_split,
    symbols_up_to,
)
from .overpartitions import check_ki, partitions

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


def _remove_parts(parts: Partition, removals) -> Partition | None:
    """Remove one occurrence of each requested value (zeros are free).

    With nothing to remove, ``parts`` itself comes back, not a copy of it.
    """
    out = list(parts)
    for v in filter(None, removals):
        if v not in out:
            return None
        out.remove(v)
    return parts if len(out) == len(parts) else tuple(out)


def successive_sizes(parts: Partition, count: int) -> tuple[int, ...]:
    """The first ``count`` successive Durfee square sizes, zero-padded.

    Not cached: the Durfee tables ask this of partitions that no later call
    meets.
    """
    sizes = []
    top = 0
    for _ in range(count):
        d = 0
        while top + d < len(parts) and parts[top + d] > d:
            d += 1
        sizes.append(d)
        top += d
    return tuple(sizes)


def _short_tuples(tops: tuple[int, ...], slack: int, cap: int):
    """Weakly decreasing tuples (n_1 >= n_2 >= ... >= 0), n_1 <= cap, with
    n_j <= tops[j] and a total shortfall sum(tops) - sum(n) of at most
    ``slack``, in descending lexicographic order."""
    if not tops:
        yield ()
        return
    top = tops[0]
    for first in range(min(cap, top), max(top - slack, 0) - 1, -1):
        for rest in _short_tuples(tops[1:], slack - (top - first), first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _window(sizes: tuple[int, ...], length: int, k: int,
            i: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The square tuples that can leave a residue of a bottom partition
    whose first k-2 successive square sizes are ``sizes`` and whose row has
    ``length`` entries (the column count n_1), each with the part sizes the
    (k, i) family inserts under it, in descending order: the tuples that
    fall short of ``sizes`` by no more than the nonzero parts they remove
    (see :func:`_reduction`)."""
    out = []
    # The slack, the number of removals, only prunes: it bounds the
    # nonzero removals that the filter below compares with.
    for tup in _short_tuples(sizes, k - 1 if i == 1 else k - i, length):
        removals = tup[max(i, 2) - 2:] + ((length,) if i == 1 else ())
        if sum(sizes) - sum(tup) <= sum(1 for v in removals if v):
            out.append((tup, removals))
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


def _reduction(lam2p: Partition, sizes: tuple[int, ...], length: int, k: int,
               i: int) -> Partition | None:
    """The partition the (k, i) family reduces a bottom row of ``length``
    entries and conjugated associated partition lam2p to, or None.

    ``sizes`` holds the first k-2 successive square sizes of lam2p, numbered
    s_2, ..., s_{k-1} like the candidate tuples (n_2, ..., n_{k-1}), whose
    size n_1 is the column count.  Remove the would-be inserted parts of a
    candidate tuple from lam2p; the residue nu counts when its first k-2
    successive squares reproduce the tuple.  The first such residue in
    descending tuple order is returned.  Only the tuples of :func:`_window`
    are tried: n_j <= s_j, and sum_j (s_j - n_j) <= r, the number of
    nonzero parts the tuple removes, so s_j - r <= n_j <= s_j.  No other
    tuple can leave a residue:

    *Removing one positive part from a partition lowers exactly one of its
    zero-padded successive square sizes by 1 and keeps the others.*  Let d
    be the first size, so lam_d >= d >= lam_{d+1}, and remove the part at
    position p.  If p > d, the first d parts stay, and so does d; the rest
    lam_{d+1}, lam_{d+2}, ... loses one part.  If p <= d and lam_{d+1} = d,
    the d-th part is now lam_{d+1} = d, so d stays, and the rest loses its
    first part.  If p <= d and lam_{d+1} < d, the first size falls to d - 1
    (the (d-1)st part is lam_d >= d, the d-th lam_{d+1} < d), and the rest
    begins, as before, at lam_{d+1}: it is unchanged.  Peeling the next
    squares off the rest proves the claim by induction.

    So nu, lam2p less r positive parts, has s_j(nu) <= s_j and
    sum_j (s_j - s_j(nu)) = r over all its squares, hence at most r over
    j <= k-1, and a residue has s_j(nu) = n_j for j <= k-1.  At k <= 5 no
    lam2p of size w with parts <= L has two residues when L + w <= 20 (the
    ``--deep`` grid); ``tests/test_durfee.py`` checks this, and that the
    window returns what the search over every tuple returns.  Not cached:
    the Durfee tables ask for each (lam2p, length) once per (k, i).
    """
    for tup, removals in _window(sizes, length, k, i):
        nu = _remove_parts(lam2p, removals)
        # With nothing removed, the window holds only ``sizes`` itself.
        if nu is lam2p or nu is not None and successive_sizes(nu, k - 2) == tup:
            return nu
    return None


@lru_cache(maxsize=None)
def _row_reduction(row: Row, k: int, i: int) -> Partition | None:
    """:func:`_reduction` of a bottom row, cached by row for the predicates,
    which the symbol streams ask about every symbol sharing that row."""
    lam = _lam_prime(row)
    return _reduction(lam, successive_sizes(lam, k - 2), len(row), k, i)


def _admissible(nu: Partition | None, k: int) -> bool:
    """Whether a bottom row with this reduction is (k, i)-admissible."""
    return nu is not None and not successive_sizes(nu, k - 1)[-1]


def is_ki_admissible(f: FrobeniusSymbol, k: int, i: int) -> bool:
    """Whether the bottom row's conjugated associated partition is built
    from a partition with at most k-2 Durfee squares by inserting one part
    of each designated square size (sizes taken from the inner partition;
    the 0th square size is the column count).
    """
    check_ki(k, i)
    return _admissible(_row_reduction(f.bottom, k, i), k)


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
    return (lam1p if cut is None else tuple(p for p in lam1p if p <= cut)), g2


def _bottom_region(lam2p: Partition, k: int) -> tuple[int | None, Partition] | None:
    """The cut that G1 is read at and G2, both from the bottom partition
    alone, or None when the conjugation is the identity.  The cut is the
    (k-2)nd square's size, or None for k = 2, where G1 is all of lam1p."""
    if k == 2:
        return None, lam2p
    sizes = successive_sizes(lam2p, k - 2)
    if not sizes[-1]:
        return None
    return sizes[-1], lam2p[sum(sizes):]


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


def is_self_ki_conjugate(f: FrobeniusSymbol, k: int, i: int) -> bool:
    """Whether f arises from a self-conjugate symbol by the designated
    part insertions into the conjugated bottom partition.

    A candidate keeps f's top row and bottom marks, so its conjugated
    bottom partition is the reduced partition itself.  The conjugation
    keeps both rows' marks and swaps the region suffixes of the two
    partitions, so it fixes the candidate exactly when it is the identity
    or the two regions are equal.
    """
    check_ki(k, i)
    nu = _row_reduction(f.bottom, k, i)
    if nu is None:
        return False
    regions = _regions(_lam_prime(f.top), nu, k)
    return regions is None or regions[0] == regions[1]


def admissible_symbols(k: int, i: int, n_max: int):
    """``(n, symbol)`` for each (k, i)-admissible symbol of weight n <= n_max, in listing order."""
    check_ki(k, i)
    return ((n, f) for n, f in symbols_up_to(n_max) if is_ki_admissible(f, k, i))


def self_conjugate_symbols(k: int, i: int, n_max: int):
    """``(n, symbol)`` for each self-(k, i)-conjugate symbol of weight n <= n_max, in listing order."""
    check_ki(k, i)
    return ((n, f) for n, f in symbols_up_to(n_max) if is_self_ki_conjugate(f, k, i))


def count_admissible(k: int, i: int, n_max: int, bound: int | None = None) -> CountTable:
    """Table of (k, i)-admissible symbols by (s, t, n), without forming any.

    Admissibility reads only the bottom row, so an admissible bottom row of
    length L pairs with every top row of length L (:func:`_durfee_tables`).
    """
    check_bound(n_max, bound)
    check_ki(k, i)
    return _durfee_tables(k, n_max)[i - 1][0]


def count_self_conjugate(k: int, i: int, n_max: int, bound: int | None = None) -> CountTable:
    """Table of self-(k, i)-conjugate symbols by (s, t, n), without forming any.

    A bottom row pairs with the top rows of its length whose G1, their
    parts at most the cut, is its G2: G2 plus any parts above the cut
    (:func:`_durfee_tables`).  A bottom row whose conjugation is the
    identity pairs with every top row.
    """
    check_bound(n_max, bound)
    check_ki(k, i)
    return _durfee_tables(k, n_max)[i - 1][1]


@lru_cache(maxsize=None)
def _durfee_tables(k: int, n_max: int) -> tuple[tuple[CountTable, CountTable], ...]:
    """The D and D~ tables of i = 1 .. k, built together once per process:
    a CountTable is read-only, and the four-way and bailey suites share
    them.

    By :func:`row_split` the rows of length L are the pairs of a partition
    lam' with parts <= L, the conjugated associated partition, and a set of
    distinct marks below L.  The marks of both rows give the count row of
    prod_{v<L} (a + q^v)(b + q^v), a and b counting the plain entries of
    the bottom and top rows.  A bottom lam' pairs with the tops made of a
    fixed partition G with parts <= cut and free parts in (cut, L], so it
    is filed under the cut at weight |lam'| + |G|, and its tops add
    1/prod_{cut<j<=L} (1 - q^j): cut 0 for every top (an admissible bottom
    in D, a D~ bottom whose conjugation is the identity), else the
    (k-2)nd square's size, or L for k = 2, with G = G2.  The residue nu is
    admissible exactly when G2 is empty or the conjugation is the identity.
    Each bottom lam' is listed, and its first k-2 square sizes peeled, once
    for every i; it is reduced once per i for both tables, and no top is
    listed.
    """
    size = n_max + 1
    a, b, ab = (cell_shift(ds, dt, n_max) for ds, dt in ((1, 0), (0, 1), (1, 1)))
    totals = [([0] * size, [0] * size) for _ in range(k)]
    marks = [1] + [0] * n_max
    for length in range(size):
        room = size - length
        del marks[room:]
        # Per i, each table's bottoms by cut, each a list of counts by weight.
        filed = [tuple([[0] * room for _ in range(length + 1)] for _ in range(2)) for _ in range(k)]
        for weight in range(room):
            for lam in partitions(weight, length):
                sizes = successive_sizes(lam, k - 2)
                for i, (admissible, self_conjugate) in enumerate(filed, 1):
                    nu = _reduction(lam, sizes, length, k, i)
                    if nu is None:
                        continue
                    region = _bottom_region(nu, k)
                    if region is None:
                        admissible[0][weight] += 1
                        self_conjugate[0][weight] += 1
                        continue
                    cut, g2 = region
                    if not g2:
                        admissible[0][weight] += 1
                    if (at := weight + sum(g2)) < room:
                        self_conjugate[length if cut is None else cut][at] += 1
        for pair, by_cuts in zip(totals, filed):
            for total, by_cut in zip(pair, by_cuts):
                for w, c in enumerate(_pairs(by_cut, room)):
                    if c:
                        shift_add(total, [c * cell for cell in marks], 0, length + w)
        following = [0] * room
        for shift, dn in ((ab, 0), (a, length), (b, length), (0, 2 * length)):
            shift_add(following, marks, shift, dn)
        marks = following
    return tuple(tuple(CountTable.from_rows(total, n_max) for total in pair) for pair in totals)


def _pairs(by_cut: list[list[int]], room: int) -> list[int]:
    """The pairs of a filed bottom and a matching top of ``len(by_cut) - 1``
    entries, by the size of their partitions, below weight ``room``: the
    sum over the cuts of B_cut(q) / prod_{cut<j<=length} (1 - q^j) in one
    upward pass.  B_cut, the bottoms filed under the cut by weight, joins
    the sum once the factors at j <= cut are applied."""
    out = [0] * room
    for cut, filed in enumerate(by_cut):
        if cut:
            for n in range(cut, room):
                out[n] += out[n - cut]
        for n, c in enumerate(filed):
            out[n] += c
    return out
