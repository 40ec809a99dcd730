"""Overpartitions, overpartition pairs, and their frequency statistics.

An overpartition is a partition in which the first occurrence of each part
size may be overlined.  Parts here are strictly positive; rows of Frobenius
symbols (which allow zero parts) live in :mod:`qpair.frobenius` and share the
validation helper below.

This module is pure combinatorics: the part frequency conditions that carve
out the families counted by the series in :mod:`qpair.hyperg`, a walk over
the part sizes (:func:`qpair.counts.state_rows`) that counts the
frequency-conditioned pairs by (s, t, n) without building them, and the
specialization identities.  Their A sides are products over the allowed
part sizes, and their B sides are transforms of the count tables; neither
builds an object.  The enumeration of overpartitions and pairs serves the
listings and is the reference the counts are tested against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from types import MappingProxyType

from .counts import CountTable, cell_shift, check_bound, product_counts, state_rows
from .gaussint import Coeff, I, unit_pow

Part = tuple[int, bool]


def canonical_parts(parts, min_part: int = 1) -> tuple[Part, ...]:
    """Sort and validate a sequence of (size, overlined) parts.

    Each size is an ``int`` (a ``bool`` is no size) and each overline a
    ``bool`` or the int 0 or 1; nothing else is coerced.  Sizes weakly
    decreasing; among equal sizes the (single) overlined copy comes first.
    """
    parts = tuple(parts)
    for size, over in parts:
        if type(size) is not int or type(over) not in (bool, int) or over not in (0, 1):
            raise ValueError(f"part {(size, over)!r} needs an integer size and a boolean overline")
    out = tuple(sorted(((s, bool(o)) for s, o in parts), key=lambda p: (-p[0], not p[1])))
    for size, _ in out:
        if size < min_part:
            raise ValueError(f"part {size} below minimum {min_part}")
    for (s1, _), right in zip(out, out[1:]):
        if s1 < least_left(*right):
            raise ValueError(f"value {right[0]} overlined more than once or out of order")
    return out


def least_left(size: int, overlined: bool) -> int:
    """The least size of a part just left of (size, overlined) in canonical
    order: a value equal to its right neighbour only when that one is plain,
    since the one overlined copy of a value comes first."""
    return size + overlined


class ReadOnlyFields:
    """Public fields are read-only: the listings are cached and shared, so a
    write would change the object every later caller gets.  ``__init__`` sets
    them with ``object.__setattr__``; the ``_``-prefixed slots are lazy memos
    and fill in when first read."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        if not name.startswith("_"):
            raise AttributeError(f"{type(self).__name__}.{name} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        if not name.startswith("_"):
            raise AttributeError(f"{type(self).__name__}.{name} is read-only")
        object.__delattr__(self, name)


class Overpartition(ReadOnlyFields):
    __slots__ = ("parts", "plain", "over")

    def __init__(self, parts):
        parts = canonical_parts(parts)
        plain: dict[int, int] = {}
        over: set[int] = set()
        for size, o in parts:
            if o:
                over.add(size)
            else:
                plain[size] = plain.get(size, 0) + 1
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "plain", MappingProxyType(plain))
        object.__setattr__(self, "over", frozenset(over))

    def weight(self) -> int:
        return sum(s for s, _ in self.parts)

    def num_parts(self) -> int:
        return len(self.parts)

    def max_part(self) -> int:
        return self.parts[0][0] if self.parts else 0

    def __eq__(self, other):
        return isinstance(other, Overpartition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        inner = ",".join(f"{s}~" if o else str(s) for s, o in self.parts)
        return f"Overpartition({inner})"


class OverpartitionPair(ReadOnlyFields):
    """A pair (lam, mu) of overpartitions; weight is the sum of weights."""

    __slots__ = ("lam", "mu", "_profile")

    def __init__(self, lam: Overpartition, mu: Overpartition):
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "_profile", None)

    def weight(self) -> int:
        return self.lam.weight() + self.mu.weight()

    def num_parts(self) -> int:
        return self.lam.num_parts() + self.mu.num_parts()

    def s_stat(self) -> int:
        """Parts that are overlined-and-in-lam or non-overlined-and-in-mu."""
        return len(self.lam.over) + self.mu.num_parts() - len(self.mu.over)

    def t_stat(self) -> int:
        """Parts in mu."""
        return self.mu.num_parts()

    def max_part(self) -> int:
        return max(self.lam.max_part(), self.mu.max_part())

    def _counts(self, j: int) -> tuple[int, int, int, int]:
        """(f_j(lam), lam~_j, mu~_j, f_j(mu)): how often j occurs in each role."""
        lam, mu = self.lam, self.mu
        return lam.plain.get(j, 0), j in lam.over, j in mu.over, mu.plain.get(j, 0)

    def valuation(self, j: int) -> int:
        return _valuation(*self._counts(j))

    def _facts(self) -> tuple[int, int, int | None]:
        """``(v_1, h, p)``: everything the (k, i) conditions read.

        h is the highest level f_j(lam) + v_{j+1} over j = 1..max_part+1, and
        p the common parity of j f_j + (j+1) v_{j+1} - (overlined parts <= j
        in lam and mu) over the j at level h, or None when those differ.
        Computed once per pair and kept on it.
        """
        if self._profile is None:
            lam_plain, lam_over, mu_over = self.lam.plain, self.lam.over, self.mu.over
            valuation = self.valuation
            v1 = valuation(1)
            h, p, overlined = -1, None, 0
            for j in range(1, self.max_part() + 2):
                overlined += (j in lam_over) + (j in mu_over)
                level, parity = _level(j, lam_plain.get(j, 0), valuation(j + 1), overlined)
                if level > h:
                    h, p = level, parity
                elif level == h and parity != p:
                    p = None
            self._profile = (v1, h, p)
        return self._profile

    def satisfies_frequency_conditions(self, k: int, i: int) -> bool:
        """The defining conditions of the four-variable series family.

        (i) the valuation at 1 is at most i-1, and (ii) for every j,
        f_j(lam) + v_{j+1} is at most k-1.
        """
        check_ki(k, i)
        v1, h, _p = self._profile or self._facts()
        return v1 <= i - 1 and h <= k - 1

    def satisfies_parity_conditions(self, k: int, i: int) -> bool:
        """Frequency conditions plus the parity constraint at every tight j:
        j f_j + (j+1) v_{j+1} and i - 1 + (overlined parts <= j) agree mod 2."""
        check_ki(k, i)
        if not self.satisfies_frequency_conditions(k, i):
            return False
        _v1, h, p = self._profile or self._facts()
        return h < k - 1 or p == (i - 1) % 2

    def to_obj(self) -> dict:
        return {
            "lam": [{"size": s, "over": o} for s, o in self.lam.parts],
            "mu": [{"size": s, "over": o} for s, o in self.mu.parts],
        }

    def __eq__(self, other):
        return (
            isinstance(other, OverpartitionPair)
            and self.lam == other.lam
            and self.mu == other.mu
        )

    def __hash__(self):
        return hash((self.lam, self.mu))

    def __repr__(self):
        return f"OverpartitionPair({self.lam!r}, {self.mu!r})"


def _unattached(f_lam: int, lam_over: int, mu_over: int, f_mu: int) -> bool:
    """Whether a part size with these counts (see ``OverpartitionPair._counts``)
    occurs, only non-overlined, and only in mu."""
    return f_mu >= 1 and not (f_lam or lam_over or mu_over)


def _valuation(f_lam: int, lam_over: int, mu_over: int, f_mu: int) -> int:
    """v_j from the counts of j: f_j(lam) + lam~_j + mu~_j, plus one when j is
    unattached.  It reads f_j(mu) only through f_j(mu) >= 1."""
    return f_lam + lam_over + mu_over + _unattached(f_lam, lam_over, mu_over, f_mu)


def _level(j: int, f_j: int, v_next: int, overlined: int) -> tuple[int, int]:
    """The level f_j(lam) + v_{j+1} at j and the parity of
    j f_j + (j+1) v_{j+1} - ``overlined`` (the overlined parts <= j)."""
    return f_j + v_next, (j * f_j + (j + 1) * v_next - overlined) % 2


def check_ki(k: int, i: int) -> None:
    if k < 2 or not (1 <= i <= k):
        raise ValueError(f"need k >= 2 and 1 <= i <= k, got k={k}, i={i}")


def partitions(n: int, max_part: int | None = None):
    """Partitions of n with parts at most ``max_part``, as weakly decreasing
    tuples in reverse lexicographic order.

    Each step lowers the last part above 1 by one and refills what follows
    with the largest parts it allows.
    """
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    if top < 1:
        return
    parts = [top] * (n // top)
    if n % top:
        parts.append(n % top)
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        part = parts.pop() - 1
        more, rest = divmod(ones + 1 + part, part)
        parts += [part] * more
        if rest:
            parts.append(rest)


def overlinings(p: tuple[int, ...]):
    """Each way of overlining the first occurrences of some of the distinct
    values of the weakly decreasing ``p``, as a tuple of (size, overlined) parts."""
    values = sorted(set(p))
    firsts = [j == 0 or p[j - 1] != v for j, v in enumerate(p)]
    for r in range(len(values) + 1):
        for marked in combinations(values, r):
            yield tuple((v, first and v in marked) for v, first in zip(p, firsts))


@lru_cache(maxsize=None)
def overpartitions_of(n: int) -> tuple[Overpartition, ...]:
    """All overpartitions of n, in a fixed deterministic order."""
    out = [Overpartition(parts) for p in partitions(n) for parts in overlinings(p)]
    return tuple(sorted(out, key=lambda o: o.parts))


@lru_cache(maxsize=None)
def pairs_of(n: int) -> tuple[OverpartitionPair, ...]:
    """All overpartition pairs of weight n, ordered by (|lam|, lam, mu)."""
    out = []
    for w in range(n + 1):
        for lam in overpartitions_of(w):
            for mu in overpartitions_of(n - w):
                out.append(OverpartitionPair(lam, mu))
    return tuple(out)


def pairs_up_to(n_max: int):
    """``(n, pair)`` for every overpartition pair of weight n <= n_max, in listing order."""
    return ((n, pair) for n in range(n_max + 1) for pair in pairs_of(n))


def frequency_pairs(k: int, i: int, n_max: int, parity: bool = False):
    """``(n, pair)`` for each pair of weight n <= n_max meeting the frequency
    conditions, in listing order.

    With ``parity=True`` the parity constraint on tight levels is added
    (the even-moduli refinement of the family).
    """
    check_ki(k, i)
    return ((n, p) for n, p in pairs_up_to(n_max)
            if (p.satisfies_parity_conditions(k, i) if parity
                else p.satisfies_frequency_conditions(k, i)))


def count_frequency_pairs(k: int, i: int, n_max: int, parity: bool = False,
                          bound: int | None = None) -> CountTable:
    """Table of (s, t, n) counts of :func:`frequency_pairs`, counted over
    the part sizes (:func:`_pair_steps`) without forming any pair.

    Starting from f_0 = k - i makes level 0 the condition v_1 <= i - 1,
    whose parity always matches when it is tight.  With i - 1 folded into
    the parity no state depends on i, so one walk (:func:`_pair_rows`) from
    the starts of every i serves them all.
    """
    check_bound(n_max, bound)
    check_ki(k, i)
    return CountTable.from_rows(_pair_rows(k, parity, n_max)[i - 1], n_max)


# The kinds of node of one part size j, in the order their rows are filled.
_MU, _SIZE = range(2)


@lru_cache(maxsize=None)
def _pair_rows(k: int, parity: bool, n_max: int) -> tuple[tuple[int, ...], ...]:
    """The count rows of :func:`count_frequency_pairs` for i = 1 .. k: the
    rows of the starts (1, _SIZE, k - i, i - 1) in
    :func:`qpair.counts.state_rows` over :func:`_pair_steps`."""
    starts = [(1, _SIZE, k - i, (i - 1) % 2 if parity else 0) for i in range(1, k + 1)]
    rows = state_rows(starts, lambda node: _pair_steps(node, k, parity, n_max),
                      lambda node: (-node[0], node[1]), n_max)
    return tuple(tuple(rows[start]) for start in starts)


def _pair_steps(node: tuple, k: int, parity: bool, n_max: int) -> tuple[int, list[tuple]]:
    """The step table of a node of the walk over the part sizes.

    The level at j - 1 reads f_{j-1}(lam), the overlined parts <= j - 1 and
    v_j.  So the node (j, _SIZE, f_{j-1}(lam), odd), odd the parity of the
    overlined parts <= j - 1 plus i - 1, has one step per choice of
    f_j(lam), lam~_j and mu~_j, and whether mu has a plain part j, whose
    level at j - 1 passes.  f_j(mu) enters v_j only through f_j(mu) >= 1,
    so the plain parts j of mu go through the node (j, _MU, f_j(lam), odd'),
    whose self-step and step to (j + 1, _SIZE, f_j(lam), odd') each add one
    such part: j to the weight and 1 to s and t.  A node past j = n_max ends
    when its last level passes.  The zero-weight steps go to an earlier node
    in the order by decreasing j, the mu node first.
    """
    j, kind, f_prev, odd = node
    if kind == _MU:
        both = cell_shift(1, 1, n_max)
        return 0, [(j, j, both, node), (j, j, both, (j + 1, _SIZE, f_prev, odd))]
    if j > n_max:
        level, par = _level(j - 1, f_prev, 0, odd)
        return int(level < k - 1 or not parity or par == 0), []
    out = []
    for f_lam, lam_over, mu_over in product(range(k), (0, 1), (0, 1)):
        weight = j * (f_lam + lam_over + mu_over)
        odd_next = (odd + lam_over + mu_over) % 2 if parity else 0
        for f_mu in (0, 1):
            level, par = _level(j - 1, f_prev, _valuation(f_lam, lam_over, mu_over, f_mu), odd)
            if level > k - 1 or parity and level == k - 1 and par:
                continue
            nxt = (j, _MU, f_lam, odd_next) if f_mu else (j + 1, _SIZE, f_lam, odd_next)
            out.append((weight, weight, cell_shift(lam_over, mu_over, n_max), nxt))
    return 0, out


# ------------------------------------------------------------------ corollaries


def _image_counts(entries, image_weight, n_max: int) -> list[int]:
    """Counts by image weight of the pairs ``entries`` counts by (s, t, n); no image weighs below n."""
    counts = [0] * (n_max + 1)
    for (s, t, n), c in entries.items():
        image = image_weight(s, t, n)
        if image <= n_max:
            counts[image] += c
    return counts


def odd_modulus_image_weight(s: int, t: int, n: int) -> int:
    """2n - t: the weight of the image of a pair of weight n under
    lam_j -> 2j, mu_j -> 2j - 1 (overlines kept)."""
    return 2 * n - t


def even_modulus_image_weight(s: int, t: int, n: int) -> int:
    """2n - s - t: the weight of the image of a pair of weight n (no plain 1
    in mu) under lam_j -> 2j, lam~_j -> 2j - 1, mu_j -> 2j - 2, mu~_j -> 2j - 1."""
    return 2 * n - s - t


def root_of_unity_weight(s: int, t: int, n: int) -> Coeff:
    """i^(s - t) = i^(o_lam - o_mu): s - t is the overlined parts of lam less those of mu."""
    return unit_pow(I, s - t)


def odd_modulus_product_side(k: int, n_max: int) -> list[int]:
    """Side A of the identity at modulus 2k-1: overpartitions into parts not
    divisible by 2k-1, each such size once overlined and any number of times plain."""
    if k < 2:
        raise ValueError("need k >= 2")
    sizes = [j for j in range(1, n_max + 1) if j % (2 * k - 1)]
    return product_counts(n_max, sizes, sizes)


def overpartition_identity_sides(k: int, n_max: int) -> tuple[list[int], list[int]]:
    """Both sides of the overpartition identity at modulus 2k-1, at i = k,
    the case in which side A is an infinite product.

    Side A is :func:`odd_modulus_product_side`.  Side B counts the images
    of the (k, k) pairs of :func:`count_frequency_pairs` under the part map
    of :func:`odd_modulus_image_weight`, which is onto the overpartitions
    that obey the even-level conditions.
    """
    a_counts = odd_modulus_product_side(k, n_max)
    b_pairs = count_frequency_pairs(k, k, n_max).entries
    return a_counts, _image_counts(b_pairs, odd_modulus_image_weight, n_max)


def root_of_unity_product_side(k: int, n_max: int) -> list[int]:
    """Side A of the fourth-root-of-unity weighted identity: overpartition
    pairs with mu even and lam free of multiples of k-1."""
    if k < 3:
        raise ValueError("need k >= 3 so that i = k-1 >= 2")
    sizes = [j for j in range(1, n_max + 1) if j % (k - 1)] + list(range(2, n_max + 1, 2))
    return product_counts(n_max, sizes, sizes)


def weighted_pair_identity_sides(k: int, n_max: int) -> tuple[list[int], list[Coeff], list[Coeff]]:
    """The fourth-root-of-unity weighted identity at i = k-1.

    Returns (A, B_even, B_odd): A is :func:`root_of_unity_product_side`;
    B_even and B_odd sum :func:`root_of_unity_weight` over the parity-refined
    (k, k-1) pairs with an even and an odd number of overlined parts
    (s - t even, odd).  B_odd must vanish.
    """
    a_counts = root_of_unity_product_side(k, n_max)
    even_sums, odd_sums = ([0] * (n_max + 1) for _ in range(2))
    for (s, t, n), c in count_frequency_pairs(k, k - 1, n_max, parity=True).entries.items():
        sums = even_sums if (s - t) % 2 == 0 else odd_sums
        sums[n] += c * root_of_unity_weight(s, t, n)
    return a_counts, even_sums, odd_sums


def partition_pair_product_side(k: int, i: int, n_max: int) -> list[int]:
    """Side A of the partition-pair identity at modulus 4k-2 (i >= 2), the
    product side: pairs of partitions with distinct odd parts in which the
    even parts of mu avoid 0 and +-(2i-2) modulo 4k-2."""
    if k < 2 or not (2 <= i <= k):
        raise ValueError(f"need k >= 2 and 2 <= i <= k, got k={k}, i={i}")
    mod = 4 * k - 2
    banned = {0, (2 * i - 2) % mod, (mod - (2 * i - 2)) % mod}
    odd, even = range(1, n_max + 1, 2), range(2, n_max + 1, 2)
    return product_counts(n_max, [*odd, *odd], [*even, *(j for j in even if j % mod not in banned)])


def partition_pair_identity_sides(k: int, i: int, n_max: int) -> tuple[list[int], list[int]]:
    """Both sides of the partition-pair identity at modulus 4k-2 (i >= 2).

    Side A is :func:`partition_pair_product_side`.  Side B counts the pairs
    of partitions with distinct odd parts that obey the even-level conditions:
    the images under :func:`even_modulus_image_weight` of the (k, i) pairs
    with no plain 1 in mu.  Adding a plain 1 to mu maps the (k, i) pairs
    onto those with one, shifting (s, t, n) by (1, 1, 1), as i >= 2.
    """
    a_counts = partition_pair_product_side(k, i, n_max)
    b_pairs = count_frequency_pairs(k, i, n_max).entries
    no_plain_one = {(s, t, n): c - b_pairs.get((s - 1, t - 1, n - 1), 0)
                    for (s, t, n), c in b_pairs.items()}
    return a_counts, _image_counts(no_plain_one, even_modulus_image_weight, n_max)
