"""Durfee-square machinery on Frobenius symbols.

Everything here works through the row decomposition of
:mod:`qpair.frobenius`: a row is read through its conjugated associated
partition lam'.  The successive Durfee squares of a bottom row's lam' are
numbered from the 0th, whose size is the column count L.  The (k, i)
family reduces lam' to a residue nu whose squares 1 .. k-2 it matches
(:func:`_reduction`), and :func:`_split` reads nu once, as the cut, the
(k-2)nd square's size, and G2, the parts of nu below its first k-2
squares.  Admissibility asks that G2 be empty.  The symbol conjugation
swaps G2 with G1, the parts of the top row's lam' at most the cut; a cut
of 0 leaves G1 = G2 = (), and the conjugation is the identity.

Both families are decided row by row: admissibility reads only the bottom
row, and self-conjugacy compares the top row's G1 with the bottom row's G2.
So their count tables list the bottom partitions once for both tables of
every i and form no row: the tops that a bottom pairs with, and the marks
of both rows, are factors of count rows (:func:`qpair.counts.shift_add`).
The symbol streams serve the listings and are the reference the tables are
tested against.
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
    whose squares 1 .. k-2 have sizes ``sizes`` and whose row has
    ``length`` entries, each with the part sizes the (k, i) family inserts
    under it, in descending order: the tuples that fall short of ``sizes``
    by no more than the nonzero parts they remove (see :func:`_reduction`).
    The family inserts one part of each square size i-1 .. k-2, with the
    column count as the 0th square."""
    out = []
    # The slack, the number of removals, only prunes: it bounds the
    # nonzero removals that the filter below compares with.
    for tup in _short_tuples(sizes, k - i, length):
        removals = ((length,) + tup)[i - 1:]
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
               i: int) -> tuple[Partition, tuple[int, ...]] | None:
    """The residue nu the (k, i) family reduces a bottom row of ``length``
    entries and conjugated associated partition lam2p to, with the sizes
    of nu's squares 1 .. k-2, or None.

    ``sizes`` holds the sizes s_1, ..., s_{k-2} of lam2p's squares 1 ..
    k-2, numbered like the candidate tuples (n_1, ..., n_{k-2}); the 0th
    square is the column count.  Remove the would-be inserted parts of a
    candidate tuple from lam2p; the residue nu counts when its squares 1 ..
    k-2 reproduce the tuple, which comes back with it, so no caller peels
    nu again.  The first such residue in descending tuple order is
    returned.  Only the tuples of :func:`_window` are tried: n_j <= s_j,
    and sum_j (s_j - n_j) <= r, the number of nonzero parts the tuple
    removes, so s_j - r <= n_j <= s_j.  No other tuple can leave a
    residue:

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
    j <= k-2, and a residue has s_j(nu) = n_j for j <= k-2.  At k <= 5 no
    lam2p of size w with parts <= L has two residues when L + w <= 20 (the
    ``--deep`` grid); ``tests/test_durfee.py`` checks this, and that the
    window returns what the search over every tuple returns.  Not cached:
    the Durfee tables ask for each (lam2p, length) once per (k, i).
    """
    for tup, removals in _window(sizes, length, k, i):
        nu = _remove_parts(lam2p, removals)
        # With nothing removed, the window holds only ``sizes`` itself.
        if nu is lam2p or nu is not None and successive_sizes(nu, k - 2) == tup:
            return nu, tup
    return None


def _split(parts: Partition, sizes: tuple[int, ...], length: int) -> tuple[int, Partition]:
    """The cut and G2 of a partition in a row of ``length`` entries whose
    squares 1 .. k-2 have sizes ``sizes``: the (k-2)nd square's size, the
    column count at k = 2, and the parts below those squares.  A cut of 0
    leaves G2 empty."""
    return ((length,) + sizes)[-1], parts[sum(sizes):]


@lru_cache(maxsize=None)
def _row_reduction(row: Row, k: int, i: int) -> tuple[int, Partition] | None:
    """The :func:`_split` of a bottom row's :func:`_reduction`, or None,
    cached by row for the predicates, which the symbol streams ask about
    every symbol sharing that row."""
    lam = _lam_prime(row)
    reduced = _reduction(lam, successive_sizes(lam, k - 2), len(row), k, i)
    return None if reduced is None else _split(*reduced, len(row))


def is_ki_admissible(f: FrobeniusSymbol, k: int, i: int) -> bool:
    """Whether the bottom row's conjugated associated partition is built
    from a partition with at most k-2 Durfee squares, one whose G2 is
    empty, by inserting one part of each square size i-1 .. k-2 (sizes
    taken from the inner partition; the 0th square is the column count).
    """
    check_ki(k, i)
    split = _row_reduction(f.bottom, k, i)
    return split is not None and not split[1]


def conjugation_regions(f: FrobeniusSymbol, k: int) -> tuple[Partition, Partition] | None:
    """The two swap regions, or None when the conjugation is the identity.

    G2 is the part of the conjugated bottom partition below its first k-2
    successive squares; G1 holds the parts of the conjugated top partition
    at most the cut, the (k-2)nd square's size (:func:`_split`).  For k = 2
    the regions are the whole partitions: the 0th square has the column
    count as its size.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    lam2p = _lam_prime(f.bottom)
    cut, g2 = _split(lam2p, successive_sizes(lam2p, k - 2), len(f.bottom))
    # The empty symbol has cut 0 at k = 2 too, but its regions are ((), ()).
    if k > 2 and not cut:
        return None
    return tuple(p for p in _lam_prime(f.top) if p <= cut), g2


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
    partitions, so it fixes the candidate exactly when the top's G1, its
    parts at most the residue's cut, is the residue's G2: both are empty
    when the conjugation is the identity.
    """
    check_ki(k, i)
    split = _row_reduction(f.bottom, k, i)
    if split is None:
        return False
    cut, g2 = split
    return tuple(p for p in _lam_prime(f.top) if p <= cut) == g2


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
    1/prod_{cut<j<=L} (1 - q^j).  Its residue's :func:`_split` gives both:
    in D, an admissible bottom (G2 empty) pairs with every top, cut 0; in
    D~, a bottom pairs with the tops whose G1 is G2, under the residue's
    cut, which is 0 when the conjugation is the identity.  Each bottom lam'
    is listed, and its squares 1 .. k-2 peeled, once for every i; it is
    reduced once per i for both tables, and no top is listed.
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
                    reduced = _reduction(lam, sizes, length, k, i)
                    if reduced is None:
                        continue
                    cut, g2 = _split(*reduced, length)
                    if not g2:
                        admissible[0][weight] += 1
                    if (at := weight + sum(g2)) < room:
                        self_conjugate[cut][at] += 1
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
