"""Count tables keyed by (s, t, n): the comparison currency between families.

Entries may be integers or Gaussian integers (weighted counts).  Zero entries
are not stored; lookups for any triple with ``n <= n_max`` default to 0, and
lookups beyond ``n_max`` raise (the table makes no claim there).  Rows
serialize sorted by (n, s, t).
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from collections.abc import Mapping
from types import MappingProxyType

from .gaussint import Coeff, cadd, as_pair
from .series import TruncatedSeries


DEFAULT_BOUND = 14


class BoundExceededError(ValueError):
    """An enumeration was asked to go beyond its configured bound."""


def check_bound(n: int, bound: int | None) -> None:
    """Refuse an enumeration up to weight ``n`` beyond ``bound`` (default DEFAULT_BOUND)."""
    limit = DEFAULT_BOUND if bound is None else bound
    if n > limit:
        raise BoundExceededError(f"n={n} exceeds the enumeration bound {limit}")


class CountTable:
    """A read-only table: ``entries`` is a mapping proxy over nonzero counts, so
    a table can be shared freely."""

    def __init__(self, n_max: int, entries: Mapping[tuple[int, int, int], Coeff]):
        self.n_max = n_max
        self.entries = MappingProxyType({key: c for key, c in entries.items() if c})

    def get(self, s: int, t: int, n: int) -> Coeff:
        if n > self.n_max:
            raise ValueError(f"n={n} beyond table bound n_max={self.n_max}")
        return self.entries.get((s, t, n), 0)

    def total(self, n: int) -> Coeff:
        """Sum over all (s, t) at weight n."""
        if n > self.n_max:
            raise ValueError(f"n={n} beyond table bound n_max={self.n_max}")
        out: Coeff = 0
        for (_s, _t, m), w in self.entries.items():
            if m == n:
                out = cadd(out, w)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return self.n_max == other.n_max and self.entries == other.entries

    def first_mismatch(self, other: "CountTable") -> tuple[tuple[int, int, int], Coeff, Coeff] | None:
        """First differing entry in canonical (n, s, t) order, up to the smaller n_max."""
        n_max = min(self.n_max, other.n_max)
        keys = set(self.entries) | set(other.entries)
        for key in sorted(keys, key=lambda k: (k[2], k[0], k[1])):
            if key[2] > n_max:
                continue
            lhs = self.entries.get(key, 0)
            rhs = other.entries.get(key, 0)
            if lhs != rhs:
                return key, lhs, rhs
        return None

    def rows(self) -> list[tuple[int, int, int, int, int]]:
        out = []
        for (s, t, n) in sorted(self.entries, key=lambda k: (k[2], k[0], k[1])):
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
                entries[s, t, n] = cadd(entries.get((s, t, n), 0), c)
        return cls(n_max, entries)


def add_shifted(into: Counter, counts, ds: int, dt: int, dn: int, n_max: int) -> None:
    """Add ``counts`` shifted by (ds, dt, dn) into ``into``, up to weight n_max."""
    for (s, t, n), c in counts.items():
        if n + dn <= n_max:
            into[s + ds, t + dt, n + dn] += c


def tally(members, n_max: int) -> CountTable:
    """Table of ``(weight, obj)`` members keyed by (obj.s_stat(), obj.t_stat(), weight)."""
    return CountTable(n_max, Counter((obj.s_stat(), obj.t_stat(), n) for n, obj in members))
