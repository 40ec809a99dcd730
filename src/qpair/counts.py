"""Count tables keyed by (s, t, n): the comparison currency between families.

Entries may be integers or Gaussian integers (weighted counts), summed with
their own ``+``.  A table is read through its ``entries`` mapping, which
stores only nonzero counts: a triple with ``n <= n_max`` that it lacks
counts 0, and the table makes no claim beyond ``n_max``.  Rows serialize
sorted by (n, s, t).

The families build their tables as count rows (:func:`cell_shift`): a list
over n of ints, each packing the (s, t) cells of one weight, which
:meth:`CountTable.from_rows` keeps: two such tables up to one n_max compare
row by row, and a table unpacks its ``entries`` only when they are read.
B, C, D and E are walks through finitely many local states, and
:func:`state_rows` builds the row of each state from a table of its steps,
settling each state once.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from collections.abc import Mapping, Sequence
from functools import cached_property, lru_cache
from types import MappingProxyType

from .gaussint import Coeff, as_pair
from .series import TruncatedSeries, first_difference, key_order


DEFAULT_BOUND = 14


class BoundExceededError(ValueError):
    """An enumeration was asked to go beyond its configured bound."""


def check_bound(n: int, bound: int | None) -> None:
    """Refuse an enumeration up to a negative weight ``n`` (``ValueError``) or
    one beyond ``bound`` (default DEFAULT_BOUND)."""
    if n < 0:
        raise ValueError(f"the largest weight must be at least 0, got {n}")
    limit = DEFAULT_BOUND if bound is None else bound
    if n > limit:
        raise BoundExceededError(f"n={n} exceeds the enumeration bound {limit}")


class CountTable:
    """A read-only table up to weight ``n_max``: ``entries`` is a mapping
    proxy over the nonzero counts, read with ``entries.get((s, t, n), 0)``,
    so a table can be shared freely.  A table built :meth:`from_rows` keeps
    its rows and unpacks ``entries`` on first read."""

    _packed: tuple[int, ...] | None = None

    def __init__(self, n_max: int, entries: Mapping[tuple[int, int, int], Coeff]):
        self.n_max = n_max
        self.entries = MappingProxyType({key: c for key, c in entries.items() if c})

    @cached_property
    def entries(self) -> Mapping[tuple[int, int, int], int]:
        """The cells of the rows of a table built :meth:`from_rows`."""
        return MappingProxyType(_unpack(self._packed, self.n_max))

    def _same_rows(self, other: "CountTable") -> bool | None:
        """Whether two tables built from rows up to one ``n_max`` are equal,
        read from their rows, which determine their cells and are determined
        by them; None for any other two tables."""
        if self._packed is None or other._packed is None or self.n_max != other.n_max:
            return None
        return self._packed == other._packed

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        same = self._same_rows(other)
        if same is not None:
            return same
        return self.n_max == other.n_max and self.entries == other.entries

    def first_mismatch(self, other: "CountTable") -> tuple[tuple[int, int, int], Coeff, Coeff] | None:
        """First differing entry in canonical (n, s, t) order, up to the smaller n_max."""
        if self._same_rows(other):
            return None
        return first_difference(self.entries, other.entries, min(self.n_max, other.n_max) + 1)

    def rows(self) -> list[tuple[int, int, int, int, int]]:
        out = []
        for (s, t, n) in sorted(self.entries, key=key_order):
            re, im = as_pair(self.entries[(s, t, n)])
            out.append((s, t, n, re, im))
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["s", "t", "n", "re", "im"])
        for row in self.rows():
            w.writerow(row)
        return buf.getvalue()

    def to_obj(self) -> dict:
        return {
            "n_max": self.n_max,
            "entries": [
                {"s": s, "t": t, "n": n, "re": re, "im": im} for s, t, n, re, im in self.rows()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_series(cls, series: TruncatedSeries, n_max: int) -> "CountTable":
        """Coefficients of a^s b^t q^n, summed over the x-degree."""
        if series.q_cutoff <= n_max:
            raise ValueError(f"series cutoff {series.q_cutoff} cannot cover n_max={n_max}")
        entries: dict[tuple[int, int, int], Coeff] = {}
        for n, layer in enumerate(series._layers, series.q_floor):
            if 0 <= n <= n_max:
                for (s, t, _m), c in layer.items():
                    entries[s, t, n] = entries.get((s, t, n), 0) + c
        return cls(n_max, entries)

    @classmethod
    def from_rows(cls, rows: Sequence[int], n_max: int) -> "CountTable":
        """The table of count rows up to weight n_max (see :func:`cell_shift`),
        one row per weight.  ``ValueError`` refuses a list of another length
        and a row n that is negative or has bits past the cells of s <= n."""
        stride = cell_shift(1, 0, n_max)
        rows = tuple(rows)
        if len(rows) != n_max + 1:
            raise ValueError(f"a table up to weight {n_max} needs {n_max + 1} count rows, got {len(rows)}")
        for n, row in enumerate(rows):
            if row < 0 or row.bit_length() > (n + 1) * stride:
                raise ValueError(f"count row {n} up to weight {n_max} is negative "
                                 f"or has bits past its cells of s <= {n}")
        table = cls.__new__(cls)
        table.n_max, table._packed = n_max, rows
        return table


def _unpack(rows: tuple[int, ...], n_max: int) -> dict[tuple[int, int, int], int]:
    """The nonzero cells of count rows up to weight n_max, keyed by (s, t, n)."""
    width = slot_width(n_max)
    stride = (n_max + 1) * width
    cell_mask, block_mask = (1 << width) - 1, (1 << stride) - 1
    entries: dict[tuple[int, int, int], int] = {}
    for n, row in enumerate(rows):
        s = 0
        while row:
            block, t = row & block_mask, 0
            while block:
                if c := block & cell_mask:
                    entries[s, t, n] = c
                block >>= width
                t += 1
            row >>= stride
            s += 1
    return entries


# ------------------------------------------------------------------ count rows


def product_counts(n_max: int, distinct, repeated) -> list[int]:
    """Coefficients of q^0 .. q^n_max in the product of (1 + q^j) over the
    part sizes j in ``distinct`` and 1/(1 - q^j) over those in ``repeated``:
    each j in ``distinct`` is used at most once, each in ``repeated`` any
    number of times.  A size listed twice is two kinds of part."""
    counts = [1] + [0] * n_max
    for j in distinct:
        for n in range(n_max, j - 1, -1):
            counts[n] += counts[n - j]
    for j in repeated:
        for n in range(j, n_max + 1):
            counts[n] += counts[n - j]
    return counts


@lru_cache(maxsize=None)
def slot_width(n_max: int) -> int:
    """Bits per (s, t) cell of a count row up to weight n_max.

    A count row is a list over the weights n <= n_max of ints; cell (s, t)
    of weight n is the W-bit slot of ``row[n]`` at bit (s (n_max + 1) + t) W.
    Reading a as 2^(W (n_max + 1)) and b as 2^W maps Z[a, b] into Z as a
    ring map, and a shift by (ds, dt, dn) is a multiplication by a^ds b^dt
    q^dn: a :func:`cell_shift` of each int, moved dn places along the list.
    So the shifts and the sums and scalar multiples of rows compute the
    packed image of the table exactly, whatever the sizes of the cells
    along the way.  Unpacking that image is exact when every final cell is
    nonnegative, has t <= n_max and is below 2^W.  Only final rows
    become tables: of :func:`state_rows`, the rows of the start states, whose
    cells count the family's objects; the other states' rows are sums and
    shifts on the way.

    Every family's cells are counts, and s, t <= n <= n_max.  A final cell
    of weight n counts distinct objects of weight n that inject into the
    overpartition pairs of weight n: B is a subset of them, C's symbols are
    a subset of the Frobenius symbols of weight n, which are equinumerous
    with them, D's symbols are a subset of C's, and E's paths inject into
    C by ``paths.path_to_symbol``.  So W is one bit more than the bit length
    of the largest count of overpartition pairs of one weight n <= n_max,
    the coefficients of prod_j (1 + q^j)^2 / (1 - q^j)^2, which lists each
    size twice.  (Listing it once counts overpartitions, too few: at n_max
    30 a B cell holds 356,353, a 19-bit number, against 18 bits.)
    """
    sizes = range(1, n_max + 1)
    return max(product_counts(n_max, [*sizes, *sizes], [*sizes, *sizes])).bit_length() + 1


def cell_shift(ds: int, dt: int, n_max: int) -> int:
    """The bit shift that moves a cell of a count row up to weight n_max by (ds, dt)."""
    return (ds * (n_max + 1) + dt) * slot_width(n_max)


def state_rows(starts, table, order, n_max: int) -> dict:
    """Each state's count row of completions by the weight they add: the
    transfer-matrix method over finitely many local states.

    ``table(state)`` is ``(ends, steps)``: ends is 1 when a walk may stop
    there, and each step is (least, dn, shift, next), the least weight a
    completion through it adds, the weight it adds, its :func:`cell_shift`
    and the next state.  No step whose least exceeds a budget b adds
    anything at or below b, so a state's row stops at n_max less the least
    weight spent to reach it from a start.  Every step weight is a
    nonnegative integer, so one pass over the weights spent, 0 .. n_max, in
    turn settles each state the first time it reaches it, at that least
    weight (Dial's bucket queue), and reads its table and ``order`` once.
    The rows are filled weight by weight, and within one weight in
    increasing ``order(state)``.  ``ValueError`` refuses a kept step with
    least < dn, which would read a row from its end, and a zero-weight step
    to a state that does not sort earlier, which would read an unfilled cell.
    """
    rows: dict = {}
    rank: dict = {}
    settled: dict = {}
    zero_steps = []
    buckets = [list(starts)] + [[] for _ in range(n_max)]
    for spent, bucket in enumerate(buckets):
        room = n_max - spent
        for state in bucket:  # a zero-weight step appends to the bucket in hand
            if state in rank:
                continue
            rank[state] = order(state)
            ends, steps = table(state)
            kept = []
            for least, dn, shift, nxt in steps:
                if least > room:
                    continue
                if least < dn:
                    _refuse(state, nxt, least, dn)
                if dn == 0:
                    zero_steps.append((state, nxt, least))
                if nxt not in rank:
                    buckets[spent + dn].append(nxt)
                kept.append((least, dn, shift, rows.setdefault(nxt, [])))
            settled[state] = (room, rows.setdefault(state, []), ends, kept)
    for state, nxt, least in zero_steps:
        if not rank[nxt] < rank[state]:
            _refuse(state, nxt, least, 0)
    plan = [settled[state] for state in sorted(settled, key=rank.__getitem__)]
    for n in range(n_max + 1):
        for room, row, ends, moves in plan:
            if n > room:
                continue
            cell = ends if n == 0 else 0
            for least, dn, shift, rest in moves:
                if least <= n and (c := rest[n - dn]):
                    cell += c << shift
            row.append(cell)
    return rows


def _refuse(state, nxt, least: int, dn: int):
    raise ValueError(f"step {state} -> {nxt} of least {least} and weight {dn} "
                     "would read a cell out of order")


def tally(members, n_max: int) -> CountTable:
    """Table of ``(weight, obj)`` members keyed by (obj.s_stat(), obj.t_stat(), weight)."""
    return CountTable(n_max, Counter((obj.s_stat(), obj.t_stat(), n) for n, obj in members))
