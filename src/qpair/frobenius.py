"""Frobenius symbols of overpartition pairs: ranks and row decompositions.

A symbol is a two-rowed array whose rows are equal-length overpartitions
into nonnegative parts; its weight is the number of columns plus the sum of
all entries.  Successive ranks live here, as does the row bijection that
splits an overpartition into an associated plain partition plus a partition
of distinct marks (used heavily by :mod:`qpair.durfee`).

The rank-bounded table is counted by a walk over the columns
(:func:`qpair.counts.state_rows`) that forms no symbol.  The enumeration of
symbols serves the listings and is the reference the tables are tested
against.
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub

from .counts import CountTable, cell_shift, check_bound, state_rows
from .overpartitions import (
    ReadOnlyFields,
    canonical_parts,
    check_ki,
    overlinings,
    partitions,
)

Row = tuple[tuple[int, bool], ...]

# The rank range of a symbol with no columns: inside every window.
_NO_RANKS = (float("inf"), float("-inf"))
# Equal rank ranges are one shared tuple: the 32,173 symbols of weight <= 12
# have 102 distinct ranges.
_RANK_RANGES: dict[tuple, tuple] = {}


def canonical_row(row) -> Row:
    """The canonical form of a row of (size, overlined) parts.

    Equal rows come back as one shared tuple, so the row-keyed caches below
    and in :mod:`qpair.durfee` see each distinct row once: a canonical row
    of (int, bool) parts is its own key, since (3, 1) == (3, True).  So a
    row the cache answers with another tuple is checked, as (2.0, 1) is too.
    """
    if type(row) is not tuple:
        row = tuple(tuple(part) for part in row)
    out = _canonical_row(row)
    if out is not row:
        canonical_parts(row, min_part=0)
    return out


@lru_cache(maxsize=None)
def _canonical_row(row: tuple) -> Row:
    out = canonical_parts(row, min_part=0)
    if out == row and all(type(s) is int and type(o) is bool for s, o in row):
        return row
    return _canonical_row(out)


def row_from_obj(obj) -> list[tuple[int, bool]]:
    """The parts of a row listed as ``{"size": s, "over": o}`` entries, with
    each s a JSON integer and each o a JSON boolean: a bool is no size, and
    no other value reads as an overline."""
    row = [(t["size"], t["over"]) for t in obj]
    if any(type(s) is not int or type(o) is not bool for s, o in row):
        raise ValueError(f"row {row} needs integer sizes and boolean overlines")
    return row


class FrobeniusSymbol(ReadOnlyFields):
    __slots__ = ("top", "bottom", "_rank_range")

    def __init__(self, top, bottom):
        top, bottom = canonical_row(top), canonical_row(bottom)
        if len(top) != len(bottom):
            raise ValueError(f"rows must have equal length, got {len(top)} and {len(bottom)}")
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "_rank_range", None)

    def _ranks_within(self, lo: int, hi: int) -> bool:
        """Whether every successive rank lies in [lo, hi]; a symbol with no
        columns lies in every window.  The (min, max) rank is computed once
        per symbol and equal ranges are one shared tuple."""
        if self._rank_range is None:
            ranks = successive_ranks(self)
            span = (min(ranks), max(ranks)) if ranks else _NO_RANKS
            self._rank_range = _RANK_RANGES.setdefault(span, span)
        low, high = self._rank_range
        return lo <= low and high <= hi

    @property
    def columns(self) -> int:
        return len(self.top)

    def weight(self) -> int:
        return self.columns + sum(s for s, _ in self.top) + sum(s for s, _ in self.bottom)

    def s_stat(self) -> int:
        """Non-overlined entries in the bottom row."""
        return _plain_count(self.bottom)

    def t_stat(self) -> int:
        """Non-overlined entries in the top row."""
        return _plain_count(self.top)

    def __eq__(self, other):
        return (
            isinstance(other, FrobeniusSymbol)
            and self.top == other.top
            and self.bottom == other.bottom
        )

    def __hash__(self):
        return hash((self.top, self.bottom))

    def __repr__(self):
        def row(r):
            return ",".join(f"{s}~" if o else str(s) for s, o in r)

        return f"FrobeniusSymbol([{row(self.top)}] / [{row(self.bottom)}])"

    def to_obj(self) -> dict:
        return {
            "top": [{"size": s, "over": o} for s, o in self.top],
            "bottom": [{"size": s, "over": o} for s, o in self.bottom],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "FrobeniusSymbol":
        return cls(row_from_obj(obj["top"]), row_from_obj(obj["bottom"]))


@lru_cache(maxsize=None)
def _plain_count(row: Row) -> int:
    return sum(1 for _, o in row if not o)


def successive_ranks(f: FrobeniusSymbol) -> tuple[int, ...]:
    """Per-column ranks: entry difference corrected by later non-overlined counts."""
    return tuple(map(sub, _rank_profile(f.top), _rank_profile(f.bottom)))


@lru_cache(maxsize=None)
def _rank_profile(row: Row) -> tuple[int, ...]:
    """Each entry of a canonical row plus the non-overlined entries after it."""
    out = []
    plain_after = 0
    for size, over in reversed(row):
        out.append(size + plain_after)
        plain_after += not over
    return tuple(reversed(out))


@lru_cache(maxsize=None)
def rows_of(length: int, total: int) -> tuple[Row, ...]:
    """All overpartitions into ``length`` nonnegative parts summing to ``total``."""
    out = []
    for p in partitions(total):
        if len(p) <= length:
            out.extend(map(canonical_row, overlinings(p + (0,) * (length - len(p)))))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def symbols_of(n: int) -> tuple[FrobeniusSymbol, ...]:
    """All Frobenius symbols of weight n, in a fixed deterministic order."""
    out = []
    for cols in range(n + 1):
        rest = n - cols
        for top_sum in range(rest + 1):
            for top in rows_of(cols, top_sum):
                for bottom in rows_of(cols, rest - top_sum):
                    out.append(FrobeniusSymbol(top, bottom))
    return tuple(out)


def symbols_up_to(n_max: int):
    """``(n, symbol)`` for every Frobenius symbol of weight n <= n_max, in listing order."""
    return ((n, f) for n in range(n_max + 1) for f in symbols_of(n))


def rank_interval(k: int, i: int, tilde: bool = False) -> tuple[int, int]:
    """The closed rank window for the rank-bounded family."""
    hi = 2 * k - i - 2 if tilde else 2 * k - i - 1
    return (-i + 2, hi)


def rank_bounded_symbols(k: int, i: int, n_max: int, tilde: bool = False):
    """``(n, symbol)`` for each symbol of weight n <= n_max whose successive
    ranks stay in the (k, i) window, in listing order."""
    check_ki(k, i)
    lo, hi = rank_interval(k, i, tilde)
    return ((n, f) for n, f in symbols_up_to(n_max) if f._ranks_within(lo, hi))


def count_rank_bounded(k: int, i: int, n_max: int, tilde: bool = False,
                       bound: int | None = None,
                       interval: tuple[int, int] | None = None) -> CountTable:
    """Table of :func:`rank_bounded_symbols` by (s, t, n), counted right to
    left over the columns without forming any symbol.

    s counts non-overlined bottom entries, t non-overlined top entries.  By
    :func:`_rank_profile` the rank at a column is e_top - e_bot + d, where d
    is the number of plain entries right of it in the top row less those in
    the bottom row; :func:`_rank_steps` walks the columns with d' = d + i.
    A window [lo, hi], the (k, i) one or ``interval``, is [lo + i, hi + i]
    in d', and the (k, i) window is [2, 2k - 1] ([2, 2k - 2] for tilde) for
    every i, so one walk (:func:`_rank_rows`) from the starts d' = 1 .. k
    serves every i.
    """
    check_bound(n_max, bound)
    check_ki(k, i)
    lo, hi = interval if interval is not None else rank_interval(k, i, tilde)
    return CountTable.from_rows(_rank_rows(lo + i, hi + i, k, n_max)[i - 1], n_max)


# The kinds of node of the column walk, in the order the rows are filled.
_TOP, _ROW, _BOTTOM = range(3)


@lru_cache(maxsize=None)
def _rank_rows(lo: int, hi: int, k: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    """The count rows of the symbols whose ranks plus d' lie in [lo, hi],
    from the empty symbol with d' = 1 .. k: the rows of those starts in
    :func:`qpair.counts.state_rows` over :func:`_rank_steps`."""
    starts = [(_ROW, 0, 0, d) for d in range(1, k + 1)]
    rows = state_rows(starts, lambda node: _rank_steps(node, lo, hi, n_max),
                      lambda node: (node[0], -node[1]), n_max)
    return tuple(tuple(rows[start]) for start in starts)


def _rank_steps(node: tuple, lo: int, hi: int, n_max: int) -> tuple[int, list[tuple]]:
    """The step table of a node of the column walk in the window [lo, hi].

    A row node (lt, lb, d') holds the columns so far, lt and lb each row's
    least next entry (an entry left of (e, o) is at least e + o), and d'
    corrects the next rank: a symbol may end there, or go on to the top node
    T(lt, lb, d').  T(e, lb, d') takes the top entry e, adding 1 + e to the
    weight and 1 to t when it is plain, to the bottom node (e + o_top, lb,
    r = e + d'), or takes none and moves on to T(e + 1, lb, d').  The bottom
    node (lt', lb, r) takes each bottom entry f >= lb whose rank r - f lies
    in the window, adding f and 1 to s when it is plain, to the row node
    (lt', f + o_bot, r - lt' + o_bot).  A row node goes straight to the
    least e that some such f admits, e >= lb + lo - d', and a column through
    T(e, lb, d') adds at least 1 + e + max(lb, e + d' - hi).  The
    zero-weight steps go to an earlier node in the order T by decreasing
    e, then the row nodes, then the bottom nodes.
    """
    kind, least_top, least_bot, d = node
    if kind == _BOTTOM:
        lower = d - least_top
        return 0, [step for f in range(max(least_bot, d - hi), d - lo + 1) for step in (
            (f, f, cell_shift(1, 0, n_max), (_ROW, least_top, f, lower)),
            (f, f, 0, (_ROW, least_top, f + 1, lower + 1)))]

    def least(e: int) -> int:
        return 1 + e + max(least_bot, e + d - hi)

    if kind == _ROW:
        e = max(least_top, least_bot + lo - d)
        return 1, [(least(e), 0, 0, (_TOP, e, least_bot, d))] if lo <= hi else []
    e = least_top
    return 0, [(least(e), 1 + e, cell_shift(0, 1, n_max), (_BOTTOM, e, least_bot, e + d)),
               (least(e), 1 + e, 0, (_BOTTOM, e + 1, least_bot, e + d)),
               (least(e + 1), 0, 0, (_TOP, e + 1, least_bot, d))]


# ------------------------------------------------------------------ row bijection


def joichi_stanton(row) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split an overpartition row into (associated partition, distinct marks).

    For each overlined position m (1-based), the overline is removed, the
    first m-1 parts drop by one, and m-1 joins the marks.  Returns the
    associated partition (same length as the row) and the marks sorted
    decreasingly; all marks are distinct and below the row length.
    """
    return row_split(canonical_row(row))


def row_split(row: Row) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """:func:`joichi_stanton` of a row already in canonical form."""
    n = len(row)
    marked = [m for m in range(1, n + 1) if row[m - 1][1]]
    marks = tuple(sorted((m - 1 for m in marked), reverse=True))
    assoc = []
    for p in range(1, n + 1):
        drop = sum(1 for m in marked if m > p)
        assoc.append(row[p - 1][0] - drop)
    if any(assoc[j] < assoc[j + 1] for j in range(n - 1)) or any(v < 0 for v in assoc):
        raise ValueError("row decomposition produced an invalid partition")
    return tuple(assoc), marks


def joichi_stanton_inverse(assoc, marks) -> Row:
    """Rebuild the overpartition row from an associated partition and marks,
    each given as ``int`` values (``bool`` is refused, not read as 0 or 1)."""
    assoc, marks = tuple(assoc), tuple(marks)
    if any(type(v) is not int for v in assoc + marks):
        raise ValueError(f"associated parts {list(assoc)} and marks {list(marks)} must be integers")
    n = len(assoc)
    if any(assoc[j] < assoc[j + 1] for j in range(n - 1)) or any(v < 0 for v in assoc):
        raise ValueError("associated partition must be weakly decreasing and nonnegative")
    marks = tuple(sorted(marks, reverse=True))
    if len(set(marks)) != len(marks):
        raise ValueError(f"marks must be distinct, got {marks}")
    if any(not (0 <= m < n) for m in marks):
        raise ValueError(f"marks must lie in [0, {n}), got {marks}")
    overlined_positions = {m + 1 for m in marks}
    row = []
    for p in range(1, n + 1):
        gain = sum(1 for m in marks if m >= p)
        row.append((assoc[p - 1] + gain, p in overlined_positions))
    return canonical_row(tuple(row))
