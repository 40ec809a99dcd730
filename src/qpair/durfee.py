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
So their count tables form no row: one walk down the marks, the column
count and the residue's squares (:func:`_durfee_steps` on
:func:`qpair.counts.state_rows`) serves every i, and the tops a bottom
pairs with are factors along it.  The walk counts pairs (residue, square
tuple), which are the bottom rows: no bottom partition has two residues
(:func:`_reduction`).  The symbol streams serve the listings and are the
reference the tables are tested against.
"""

from __future__ import annotations

from functools import lru_cache

from .counts import CountTable, cell_shift, check_bound, state_rows
from .frobenius import (
    FrobeniusSymbol,
    Row,
    joichi_stanton_inverse,
    row_split,
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


def successive_sizes(parts: Partition, count: int) -> tuple[int, ...]:
    """The first ``count`` successive Durfee square sizes, zero-padded.

    Not cached: its callers are the predicates, whose answers
    :func:`_row_reduction` caches by row, and the conjugation.
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


@lru_cache(maxsize=None)
def _lam_prime(row: Row) -> Partition:
    """Conjugate of the associated partition of a canonical row."""
    return conjugate(row_split(row)[0])


def _row_with_lam_prime(row: Row, lam_p: Partition) -> Row:
    """The row with the same marks whose conjugated associated partition is lam_p."""
    assoc = conjugate(lam_p)
    assoc = assoc + (0,) * (len(row) - len(assoc))
    return joichi_stanton_inverse(assoc, row_split(row)[1])


def _reduction(lam2p: Partition, length: int, k: int,
               i: int) -> tuple[Partition, tuple[int, ...]] | None:
    """The residue nu the (k, i) family reduces a bottom row of ``length``
    entries and conjugated associated partition lam2p to, with the sizes
    (n_1, ..., n_{k-2}) of nu's squares 1 .. k-2, or None.

    The family inserts into nu one part of each size n_j, i-1 <= j <= k-2,
    with the column count L as n_0; parts of size 0 are free.  At most one
    residue exists, and one pass reads it off lam2p.  Write nu as B_1, ...,
    B_{k-2}, G2, where B_j holds the n_j rows of nu's jth square, each at
    least n_j, and every row after B_j is at most n_j.  So the inserted
    part n_j sorts right after B_j, and lam2p is (L), B_1, (n_1), B_2,
    (n_2), ..., G2 in order, with the inserted parts from j = i-1 on.  From
    the first row of B_j on, lam2p has n_j rows >= n_j and then one <= n_j,
    so its first square there has size n_j: lam2p fixes each n_j, where
    B_{j+1} begins, and so nu.  The pass peels those squares in turn and
    asks that the inserted parts be where they must be; what it keeps is a
    residue, since every kept row after B_j is at most n_j.  Hence the
    count tables, which count pairs (nu, square tuple), count bottom rows.
    ``tests/test_durfee.py`` also checks that no lam2p of size w with parts
    <= L leaves two residues when L + w <= 20 and k <= 5, and that the
    tables equal a listing of the bottom rows to weight 30 at k 2-6.  Not
    cached: only the predicates call it, through :func:`_row_reduction`.
    """
    top = 0
    if i == 1 and length:
        if lam2p[:1] != (length,):
            return None
        top = 1
    blocks, sizes = [], []
    for j in range(1, k - 1):
        (d,) = successive_sizes(lam2p[top:], 1)
        blocks.append(lam2p[top:top + d])
        sizes.append(d)
        top += d
        if d and j >= i - 1:
            if lam2p[top:top + 1] != (d,):
                return None
            top += 1
    return sum(blocks, ()) + lam2p[top:], tuple(sizes)


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
    reduced = _reduction(_lam_prime(row), len(row), k, i)
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
    length L pairs with every top row of length L (:func:`_durfee_steps`).
    The walk counts pairs (residue, square tuple), which are the bottom
    rows, as no bottom partition has two residues (:func:`_reduction`).
    The tests check that to weight 30 at k 2-6 against a listing of the
    bottom rows, and tuple by tuple to L + w <= 20 at k <= 5.
    """
    check_bound(n_max, bound)
    check_ki(k, i)
    return CountTable.from_rows(_durfee_rows(k, False, n_max)[i - 1], n_max)


def count_self_conjugate(k: int, i: int, n_max: int, bound: int | None = None) -> CountTable:
    """Table of self-(k, i)-conjugate symbols by (s, t, n), without forming any.

    A bottom row pairs with the top rows of its length whose G1, their
    parts at most the cut, is its G2: G2 plus any parts above the cut
    (:func:`_durfee_steps`).  A bottom row whose conjugation is the
    identity pairs with every top row.  Like :func:`count_admissible`, it
    counts pairs (residue, square tuple), the bottom rows, checked to the
    same bounds.
    """
    check_bound(n_max, bound)
    check_ki(k, i)
    return CountTable.from_rows(_durfee_rows(k, True, n_max)[i - 1], n_max)


# The kinds of node of the walk down the columns and the squares, in the
# order their rows are filled.
_PARTS, _LEVEL, _MARKS = range(3)


@lru_cache(maxsize=None)
def _durfee_rows(k: int, tilde: bool, n_max: int) -> tuple[tuple[int, ...], ...]:
    """The count rows of D (D~ if ``tilde``) for i = 1 .. k: the rows of
    the starts (_MARKS, 0, i - 1) in :func:`qpair.counts.state_rows` over
    :func:`_durfee_steps`, filled by increasing part size, then from the
    last level up, each by increasing gap part, then by decreasing mark
    position."""
    starts = [(_MARKS, 0, i - 1) for i in range(1, k + 1)]
    rows = state_rows(starts, lambda node: _durfee_steps(node, k, tilde, n_max),
                      lambda node: (node[0], node[1] if node[0] == _PARTS else -node[1], node[-1]),
                      n_max)
    return tuple(tuple(rows[start]) for start in starts)


def _durfee_steps(node: tuple, k: int, tilde: bool, n_max: int) -> tuple[int, list[tuple]]:
    """The step table of a node of the walk down the columns and the
    Durfee squares of the residue.

    By :func:`row_split` the rows of length L are the pairs of a partition
    lam' with parts <= L and a set of distinct marks below L.  The marks
    node (v, skip) chooses whether each row marks v, adding v per mark and
    1 to s or t per plain entry, or stops at L = v.  Level j holds m: L at
    j = 0, the residue's jth square n_j at j >= 1.  Arriving there adds m
    at j = 0 or m^2 at j >= 1, and m again, the part the (k, i) family
    inserts, once skip is 0: i - 1 at the start, less one per later
    arrival.  A residue with parts <= L has generating function
    q^(sum n_j^2) prod_j [n_{j-1}; n_j] times that of G2, its parts <= the
    cut n_{k-2} (Andrews' successive Durfee dissection), and D's tops add
    1/(q)_L = 1/(q)_cut prod_j (q)_{n_j}/(q)_{n_{j-1}}.  So the level node
    (j, m, skip, p) first walks the parts <= p = n_{j-1} - m of
    1/(q)_p = [n_{j-1}; m] (q)_m/(q)_{n_{j-1}}, then steps to each next
    square m' <= m.  Past level k - 2 the parts node walks the parts <= the
    cut: D's tops, G2 being empty, or, in D~, G1 = G2, each part twice.
    """
    kind = node[0]
    if kind == _PARTS:
        p = node[1]
        part = 2 * p if tilde else p
        return int(not p), [(part, part, 0, node), (0, 0, 0, (_PARTS, p - 1))] if p else []
    if kind == _LEVEL:
        _, j, m, skip, p = node
        if p:
            return 0, [(p, p, 0, node), (0, 0, 0, (_LEVEL, j, m, skip, p - 1))]
        if j == k - 2:
            return 0, [(0, 0, 0, (_PARTS, m))]
        skip, out = max(skip - 1, 0), []
        for low in range(m + 1):
            arrive = low * low + (0 if skip else low)
            out.append((arrive, arrive, 0, (_LEVEL, j + 1, low, skip, m - low)))
        return 0, out
    _, v, skip = node
    stop, after = (v if skip else 2 * v), (_MARKS, v + 1, skip)
    return 0, [(v + 1, 0, cell_shift(1, 1, n_max), after),
               (2 * v + 1, v, cell_shift(1, 0, n_max), after),
               (2 * v + 1, v, cell_shift(0, 1, n_max), after),
               (3 * v + 1, 2 * v, 0, after),
               (stop, stop, 0, (_LEVEL, 0, v, skip, 0))]
