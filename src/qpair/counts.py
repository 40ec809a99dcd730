"""Count tables keyed by (s, t, n): the comparison currency between families.

Entries may be integers or Gaussian integers (weighted counts), summed with
their own ``+``.  A table is read through its ``entries`` mapping, which
stores only nonzero counts: a triple with ``n <= n_max`` that it lacks
counts 0, and the table makes no claim beyond ``n_max``.  Rows serialize
sorted by (n, s, t).

The families build their tables as count rows (:func:`shift_add`): a list
over n of ints, each packing the (s, t) cells of one weight, which
:meth:`CountTable.from_rows` unpacks.  B, C and E are walks through finitely
many local states, and :func:`state_rows` builds the row of each state from
a table of its steps.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from collections.abc import Mapping
from functools import lru_cache
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
    so a table can be shared freely."""

    def __init__(self, n_max: int, entries: Mapping[tuple[int, int, int], Coeff]):
        self.n_max = n_max
        self.entries = MappingProxyType({key: c for key, c in entries.items() if c})

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return self.n_max == other.n_max and self.entries == other.entries

    def first_mismatch(self, other: "CountTable") -> tuple[tuple[int, int, int], Coeff, Coeff] | None:
        """First differing entry in canonical (n, s, t) order, up to the smaller n_max."""
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
        for (s, t, _m, n), c in series.terms.items():
            if 0 <= n <= n_max:
                entries[s, t, n] = entries.get((s, t, n), 0) + c
        return cls(n_max, entries)

    @classmethod
    def from_rows(cls, rows: list[int], n_max: int) -> "CountTable":
        """The table of count rows up to weight n_max (see :func:`shift_add`)."""
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
        return cls(n_max, entries)


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
    q^dn, so :func:`shift_add` and the sums and scalar multiples of rows
    compute the packed image of the table exactly, whatever the sizes of
    the cells along the way.  Unpacking that image is exact when every final
    cell is nonnegative, has t <= n_max and is below 2^W.  Only final rows
    are unpacked: of :func:`state_rows`, the rows of the start states, whose
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


def shift_add(into: list[int], row: list[int], shift: int, dn: int) -> None:
    """Add ``row`` into ``into`` with its cells moved by ``shift`` bits (a
    :func:`cell_shift`) and its weights by dn; weights past ``into`` are dropped."""
    for n, cell in zip(range(dn, len(into)), row):
        if cell:
            into[n] += cell << shift


def state_rows(starts, table, order, n_max: int) -> dict:
    """Each state's count row of completions by the weight they add: the
    transfer-matrix method over finitely many local states.

    ``table(state)`` is ``(ends, steps)``: ends is 1 when a walk may stop
    there, and each step is (least, dn, shift, next), the least weight a
    completion through it adds, the weight it adds, its :func:`cell_shift`
    and the next state.  No step whose least exceeds a budget b adds
    anything at or below b, so a state's row stops at n_max less the least
    weight spent to reach it from a start, found by a label-correcting pass.
    The rows are filled weight by weight, and within one weight in
    increasing ``order(state)``.  ``ValueError`` refuses a kept step with
    least < dn, which would read a row from its end, and a zero-weight step
    to a state that does not sort earlier, which would read an unfilled cell.
    """
    spent = dict.fromkeys(starts, 0)
    steps: dict = {}
    todo = list(starts)
    while todo:
        state = todo.pop()
        if state not in steps:
            steps[state] = table(state)
        here = spent[state]
        for least, dn, _shift, nxt in steps[state][1]:
            if here + least <= n_max and here + dn < spent.get(nxt, n_max + 1):
                spent[nxt] = here + dn
                todo.append(nxt)
    rows: dict = {state: [] for state in spent}
    plan = []
    for state in sorted(spent, key=order):
        room = n_max - spent[state]
        ends, moves = steps[state]
        kept = []
        for least, dn, shift, nxt in moves:
            if least > room:
                continue
            if least < dn or dn == 0 and not order(nxt) < order(state):
                raise ValueError(f"step {state} -> {nxt} of least {least} and weight {dn} "
                                 "would read a cell out of order")
            kept.append((least, dn, shift, rows[nxt]))
        plan.append((room, rows[state], ends, kept))
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


def tally(members, n_max: int) -> CountTable:
    """Table of ``(weight, obj)`` members keyed by (obj.s_stat(), obj.t_stat(), weight)."""
    return CountTable(n_max, Counter((obj.s_stat(), obj.t_stat(), n) for n, obj in members))
