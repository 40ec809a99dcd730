"""Frobenius symbols of overpartition pairs: ranks and row decompositions.

A symbol is a two-rowed array whose rows are equal-length overpartitions
into nonnegative parts; its weight is the number of columns plus the sum of
all entries.  Successive ranks live here, as does the row bijection that
splits an overpartition into an associated plain partition plus a partition
of distinct marks (used heavily by :mod:`qpair.durfee`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import sub

from .counts import BoundExceededError, CountTable
from .overpartitions import DEFAULT_BOUND, canonical_parts, partitions

Row = tuple[tuple[int, bool], ...]


def canonical_row(row) -> Row:
    """The canonical form of a row of (size, overlined) parts.

    Equal rows come back as one shared tuple, so the row-keyed caches below
    and in :mod:`qpair.durfee` see each distinct row once.
    """
    if type(row) is not tuple:
        row = tuple(tuple(part) for part in row)
    return _canonical_row(row)


@lru_cache(maxsize=None)
def _canonical_row(row: tuple) -> Row:
    out = canonical_parts(row, min_part=0)
    return out if out == row else _canonical_row(out)


class FrobeniusSymbol:
    __slots__ = ("top", "bottom")

    def __init__(self, top, bottom):
        self.top: Row = canonical_row(top)
        self.bottom: Row = canonical_row(bottom)
        if len(self.top) != len(self.bottom):
            raise ValueError(
                f"rows must have equal length, got {len(self.top)} and {len(self.bottom)}"
            )

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
        return cls(
            [(t["size"], t["over"]) for t in obj["top"]],
            [(t["size"], t["over"]) for t in obj["bottom"]],
        )


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
        if len(p) > length:
            continue
        padded = p + (0,) * (length - len(p))
        values = sorted(set(padded))
        for r in range(len(values) + 1):
            for marked in combinations(values, r):
                marked_set = set(marked)
                parts = []
                seen = set()
                for v in padded:
                    if v in marked_set and v not in seen:
                        parts.append((v, True))
                        seen.add(v)
                    else:
                        parts.append((v, False))
                out.append(canonical_row(tuple(parts)))
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


def enumerate_symbols(n: int, bound: int | None = None):
    """Stream every symbol of weight n exactly once."""
    limit = DEFAULT_BOUND if bound is None else bound
    if n > limit:
        raise BoundExceededError(f"n={n} exceeds the enumeration bound {limit}")
    yield from symbols_of(n)


def rank_interval(k: int, i: int, tilde: bool = False) -> tuple[int, int]:
    """The closed rank window for the rank-bounded family."""
    hi = 2 * k - i - 2 if tilde else 2 * k - i - 1
    return (-i + 2, hi)


def count_rank_bounded(k: int, i: int, n_max: int, tilde: bool = False,
                       bound: int | None = None,
                       interval: tuple[int, int] | None = None) -> CountTable:
    """Table of symbols whose successive ranks stay in the (k, i) window.

    s counts non-overlined bottom entries, t non-overlined top entries.
    """
    from .overpartitions import check_ki

    check_ki(k, i)
    limit = DEFAULT_BOUND if bound is None else bound
    if n_max > limit:
        raise BoundExceededError(f"n_max={n_max} exceeds the enumeration bound {limit}")
    lo, hi = interval if interval is not None else rank_interval(k, i, tilde)
    table = CountTable(n_max)
    for n in range(n_max + 1):
        for f in symbols_of(n):
            if all(lo <= r <= hi for r in successive_ranks(f)):
                table.add(f.s_stat(), f.t_stat(), n)
    return table


# ------------------------------------------------------------------ row bijection


def joichi_stanton(row) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split an overpartition row into (associated partition, distinct marks).

    For each overlined position m (1-based), the overline is removed, the
    first m-1 parts drop by one, and m-1 joins the marks.  Returns the
    associated partition (same length as the row) and the marks sorted
    decreasingly; all marks are distinct and below the row length.
    """
    return row_split(canonical_row(row))


@lru_cache(maxsize=None)
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
    """Rebuild the overpartition row from an associated partition and marks."""
    assoc = tuple(int(v) for v in assoc)
    n = len(assoc)
    if any(assoc[j] < assoc[j + 1] for j in range(n - 1)) or any(v < 0 for v in assoc):
        raise ValueError("associated partition must be weakly decreasing and nonnegative")
    marks = tuple(sorted((int(m) for m in marks), reverse=True))
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
