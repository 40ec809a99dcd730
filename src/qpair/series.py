"""Truncated formal power series over the Gaussian integers in a, b, x, q.

A :class:`TruncatedSeries` holds monomials ``c * a^da * b^db * x^dx * q^dq``
with exact :mod:`~qpair.gaussint` coefficients.  The degrees in a, b, x are
nonnegative; the q-degree may be negative (Laurent support).  The builders'
series are generating functions whose q^n coefficient counts finitely many
objects of weight n, a polynomial in a, b and x, so a series is truncated in
q alone.  The window semantics are:

* the series is identically zero below ``q_floor`` (a true valuation bound),
* it is stored exactly for ``q_floor <= dq < q_cutoff``,
* nothing is claimed at or above ``q_cutoff``.

The stored form is dense in q and sparse in (a, b, x): a list of q-layers,
one ``{(a, b, x): coeff}`` dict for each q-degree ``q_floor, q_floor + 1,
...``, with no zero coefficient and no trailing empty layer, so two series
are equal when their windows and layer lists are.  ``terms``, the read-only
``{(a, b, x, q): coeff}`` mapping, is a view built from the layers on first
read.  Operations share layers between series (``+`` shares a layer that
only one side holds, ``times_monomial`` by a power of q and ``truncated``
share them all), so a stored layer is never written: everything that writes
in place, as :func:`_factor_layers` does, works on copies.  All operations
are pure, and instances, including the cached ones in :mod:`~qpair.qtools`,
can be shared freely.  Window bookkeeping follows the rules

* ``add``:  floor ``min``, cutoff ``min``;
* ``mul``:  floor ``f1+f2``, cutoff ``min(c1+f2, c2+f1)``,

so no retained coefficient is ever wrong.  Exact polynomials carry the
sentinel cutoff :data:`INF` and combine with any finite window.

One layered loop, ``_factor_layers``, applies each ``1 - m`` and ``1/(1 - m)``
of a product identity in place on one dict per q-degree.  ``_apply_factors``
(and so ``over_one_minus``, ``q_binomial`` and ``qproduct``) copies a
series' layers once, and every sum in :mod:`~qpair.hyperg` runs the loop on
its own.  The loop keeps every coefficient its input holds exactly:

* a numerator ``1 - m`` keeps the window when ``deg_q m >= 0`` and moves
  floor and cutoff by ``deg_q m`` when it is negative (no move when the
  coefficient of ``m`` is 0): the window of the general product;
* a denominator ``1/(1 - m)``, for ``deg_q m > 0``, keeps the window: each
  layer it writes reads only itself and the layers below it, all exact.
"""

from __future__ import annotations

import json
from collections import defaultdict
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .gaussint import Coeff, GaussInt, as_pair, is_unit, unit_inverse, unit_pow

INF = 10**9

Key = tuple[int, int, int, int]
Layer = dict[tuple[int, int, int], Coeff]

_NO_LAYER: Mapping = MappingProxyType({})  # what a series holds outside its layer list


class Monomial(NamedTuple):
    """A single term ``coeff * a^a * b^b * x^x * q^q`` (q may be negative)."""

    coeff: Coeff
    a: int = 0
    b: int = 0
    x: int = 0
    q: int = 0


def mono(coeff: Coeff = 1, a: int = 0, b: int = 0, x: int = 0, q: int = 0) -> Monomial:
    return Monomial(coeff, a, b, x, q)


def _sat_add(u: int, v: int) -> int:
    if u >= INF or v >= INF:
        return INF
    if u <= -INF or v <= -INF:
        return -INF
    return u + v


def key_order(key: tuple) -> tuple:
    """The canonical order of series and table keys: the weight (held last), then the rest."""
    return key[-1], *key[:-1]


def first_difference(lhs: Mapping, rhs: Mapping, limit: int) -> tuple | None:
    """``(key, lhs[key], rhs[key])`` at the least key (by :func:`key_order`) of weight
    below ``limit`` where two coefficient maps differ, a missing key reading 0; else None."""
    if lhs == rhs:
        return None
    differ = (key for one, two in ((lhs, rhs), (rhs, lhs)) for key, c in one.items()
              if two.get(key, 0) != c)
    key = min((key for key in differ if key[-1] < limit), key=key_order, default=None)
    return None if key is None else (key, lhs.get(key, 0), rhs.get(key, 0))


def _fold(acc: Layer, layer: Mapping) -> None:
    """Add ``layer`` into ``acc`` in place, dropping the coefficients that cancel."""
    get = acc.get
    for key, v in layer.items():
        v = get(key, 0) + v
        if v:
            acc[key] = v
        else:
            del acc[key]


class TruncatedSeries:
    __slots__ = ("_layers", "_terms", "q_floor", "q_cutoff")

    def __init__(self, terms: Mapping[Key, Coeff], q_floor: int, q_cutoff: int):
        """The series of ``terms`` on the window ``[q_floor, q_cutoff)``; ``ValueError``
        refuses a key outside the window or of negative degree in a, b or x."""
        layers: list[Layer] = []
        for (a, b, x, q), c in terms.items():
            if not q_floor <= q < q_cutoff:
                raise ValueError(f"term at q^{q} lies outside the window [{q_floor},{q_cutoff})")
            if min(a, b, x) < 0:
                raise ValueError("negative degree in a/b/x is not supported")
            if c:
                layers.extend({} for _ in range(q - q_floor + 1 - len(layers)))
                layers[q - q_floor][a, b, x] = c
        self._store(layers, q_floor, q_cutoff)

    def _store(self, layers: list[Layer], q_floor: int, q_cutoff: int) -> None:
        if q_cutoff <= q_floor:
            raise ValueError(f"empty window: q_floor={q_floor}, q_cutoff={q_cutoff}")
        while layers and not layers[-1]:
            layers.pop()
        self._layers, self._terms, self.q_floor, self.q_cutoff = layers, None, q_floor, q_cutoff

    @classmethod
    def _of_layers(cls, layers: list[Layer], q_floor: int, q_cutoff: int) -> "TruncatedSeries":
        """The series whose q^(q_floor + j) terms are ``layers[j]``, which hold no zero
        coefficient; it takes the list (and trims its trailing empty layers)."""
        s = cls.__new__(cls)
        s._store(layers, q_floor, q_cutoff)
        return s

    @property
    def terms(self) -> Mapping[Key, Coeff]:
        """The read-only ``{(a, b, x, q): coeff}`` view of the layers."""
        if self._terms is None:
            self._terms = MappingProxyType({(a, b, x, q): c for q, layer in self._items()
                                            for (a, b, x), c in layer.items()})
        return self._terms

    def _items(self) -> Iterator[tuple[int, Layer]]:
        """``(q, layer)`` for each stored layer, in q order."""
        return enumerate(self._layers, self.q_floor)

    def _at(self, q: int) -> Mapping:
        """The layer of q-degree q (not to be written)."""
        j = q - self.q_floor
        return self._layers[j] if 0 <= j < len(self._layers) else _NO_LAYER

    # ---------------------------------------------------------------- constructors

    @classmethod
    def zero(cls, q_cutoff: int, q_floor: int = 0) -> "TruncatedSeries":
        return cls._of_layers([], q_floor, q_cutoff)

    @classmethod
    def one(cls, q_cutoff: int) -> "TruncatedSeries":
        return cls._of_layers([{(0, 0, 0): 1}], 0, q_cutoff)

    @classmethod
    def poly(cls, monomials: Iterable[Monomial]) -> "TruncatedSeries":
        """An exact polynomial: trusted at every q-degree (cutoff INF)."""
        terms: dict[Key, Coeff] = {}
        for c, da, db, dx, dq in monomials:
            key = (da, db, dx, dq)
            terms[key] = terms.get(key, 0) + c
        terms = {key: c for key, c in terms.items() if c}
        return cls(terms, min((k[3] for k in terms), default=0), INF)

    # ---------------------------------------------------------------- basics

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.q_floor, self.q_cutoff, self._layers) == (other.q_floor, other.q_cutoff, other._layers)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.q_floor, self.q_cutoff))

    def __repr__(self) -> str:
        n = sum(map(len, self._layers))
        return f"<TruncatedSeries {n} terms, window [{self.q_floor},{self.q_cutoff})>"

    # ---------------------------------------------------------------- arithmetic

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        floor = min(self.q_floor, other.q_floor)
        cutoff = min(self.q_cutoff, other.q_cutoff)
        lhs, rhs = ([{} for _ in range(s.q_floor - floor)] + s._layers for s in (self, other))
        if len(lhs) < len(rhs):
            lhs, rhs = rhs, lhs
        layers = lhs[:cutoff - floor]
        for j, v in enumerate(rhs[:cutoff - floor]):
            u = layers[j]
            if not u:
                layers[j] = v
            elif v:
                if len(u) < len(v):
                    u, v = v, u
                layers[j] = acc = dict(u)
                _fold(acc, v)
        return TruncatedSeries._of_layers(layers, floor, cutoff)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._of_layers([{k: -c for k, c in layer.items()} for layer in self._layers],
                                          self.q_floor, self.q_cutoff)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        floor = _sat_add(self.q_floor, other.q_floor)
        cutoff = min(_sat_add(self.q_cutoff, other.q_floor), _sat_add(other.q_cutoff, self.q_floor))
        outer, inner = self._layers, other._layers
        if sum(map(len, outer)) > sum(map(len, inner)):
            outer, inner = inner, outer
        # The inner terms once, in layer order with their layer j, so each row
        # stops at the first term past the cutoff.
        row = [(j, a, b, x, c) for j, layer in enumerate(inner) for (a, b, x), c in layer.items()]
        width = min(cutoff - floor, len(outer) + len(inner) - 1)
        layers: list[Layer] = [{} for _ in range(width)]
        for i, layer in enumerate(outer[:width]):
            room = width - i
            for (a1, b1, x1), c1 in layer.items():
                for j, a2, b2, x2, c2 in row:
                    if j >= room:
                        break
                    dst = layers[i + j]
                    key = (a1 + a2, b1 + b2, x1 + x2)
                    acc = dst.get(key, 0) + c1 * c2
                    if acc:
                        dst[key] = acc
                    else:
                        del dst[key]
        return TruncatedSeries._of_layers(layers, floor, cutoff)

    def times_monomial(self, m: Monomial) -> "TruncatedSeries":
        """Fast path for multiplication by a single monomial; a power of q shares the layers."""
        c0, da0, db0, dx0, dq0 = m
        floor, cutoff = _sat_add(self.q_floor, dq0), _sat_add(self.q_cutoff, dq0)
        if not c0:
            return TruncatedSeries.zero(cutoff, floor)
        if c0 == 1 and da0 == db0 == dx0 == 0:
            return TruncatedSeries._of_layers(list(self._layers), floor, cutoff)
        return TruncatedSeries._of_layers(
            [{(a + da0, b + db0, x + dx0): c * c0 for (a, b, x), c in layer.items()} for layer in self._layers],
            floor, cutoff)

    def truncated(self, q_cutoff: int) -> "TruncatedSeries":
        """Restrict to a smaller window (never enlarges)."""
        cutoff = min(self.q_cutoff, q_cutoff)
        return TruncatedSeries._of_layers(self._layers[:max(cutoff - self.q_floor, 0)],
                                          min(self.q_floor, cutoff - 1), cutoff)

    def invert(self, q_cutoff: int | None = None) -> "TruncatedSeries":
        """Multiplicative inverse up to the cutoff.

        Requires the q-degree-0 layer to be a single constant term that is a
        unit in the Gaussian integers, and no terms below q-degree 0.
        """
        cutoff = self.q_cutoff if q_cutoff is None else min(self.q_cutoff, q_cutoff)
        if cutoff >= INF:
            raise ValueError("inverting an exact polynomial requires an explicit q_cutoff")
        low = next((q for q, layer in self._items() if layer and q < cutoff), 0)
        if low < 0:
            raise ValueError(f"cannot invert: nonzero terms below q^0 (lowest at q^{low})")
        zero_layer = self._at(0)
        const = zero_layer.get((0, 0, 0), 0)
        if len(zero_layer) != 1 or not is_unit(const):
            raise ValueError(f"cannot invert: constant term {const!r} is not a Gaussian unit "
                             f"(q^0 layer has {len(zero_layer)} terms)")
        u_inv = unit_inverse(const)
        inv_layers: list[Layer] = [{(0, 0, 0): u_inv}]
        for g in range(1, cutoff):
            acc: Layer = {}
            for h, t_layer in enumerate(inv_layers):
                s_layer = self._at(g - h)
                if not s_layer:
                    continue
                for (a1, b1, x1), c1 in t_layer.items():
                    for (a2, b2, x2), c2 in s_layer.items():
                        key = (a1 + a2, b1 + b2, x1 + x2)
                        val = acc.get(key, 0) + c1 * c2
                        if val:
                            acc[key] = val
                        else:
                            del acc[key]
            inv_layers.append({key: -(u_inv * val) for key, val in acc.items()})
        return TruncatedSeries._of_layers(inv_layers, 0, cutoff)

    # ---------------------------------------------------------------- queries

    def coeff(self, s_deg: int, t_deg: int, m_deg: int, n_deg: int) -> Coeff:
        """Exact coefficient of ``a^s b^t x^m q^n``.

        Queries at or above the cutoff error (that region is unknown, never
        silently zero).  Below ``q_floor`` the series is identically zero by
        the valuation bound, so 0 is returned exactly.
        """
        if n_deg >= self.q_cutoff:
            raise ValueError(
                f"q-degree {n_deg} at or above the trusted cutoff {self.q_cutoff}"
            )
        return self._at(n_deg).get((s_deg, t_deg, m_deg), 0)

    def coeff_q(self, n_deg: int) -> Coeff:
        """Coefficient of ``q^n`` for series free of a, b, x."""
        return self.coeff(0, 0, 0, n_deg)

    def first_mismatch(self, other: "TruncatedSeries") -> tuple[Key, Coeff, Coeff] | None:
        """First differing coefficient (canonical order) on the common window:
        both series are exact below their cutoffs and zero below their floors."""
        top = min(self.q_cutoff, other.q_cutoff,
                  max(s.q_floor + len(s._layers) for s in (self, other)))
        for q in range(min(self.q_floor, other.q_floor), top):
            lhs, rhs = self._at(q), other._at(q)
            if lhs != rhs:
                key = min(key for one, two in ((lhs, rhs), (rhs, lhs)) for key, c in one.items()
                          if two.get(key, 0) != c)
                return (*key, q), lhs.get(key, 0), rhs.get(key, 0)
        return None

    # ---------------------------------------------------------------- substitutions

    def shift_x(self) -> "TruncatedSeries":
        """Replace x by ``x * q``: each term gains ``q**dx``."""
        cutoff = self.q_cutoff
        layers: defaultdict[int, Layer] = defaultdict(dict)
        for q, layer in self._items():
            for (a, b, x), c in layer.items():
                if q + x < cutoff:
                    layers[q + x][a, b, x] = c
        return _from_q_layers(layers, self.q_floor, cutoff)

    def specialize(
        self,
        sub_a: tuple[Coeff, int] | None = None,
        sub_b: tuple[Coeff, int] | None = None,
        sub_x: tuple[Coeff, int] | None = None,
        q_power: int = 1,
        slack: dict[str, int] | None = None,
    ) -> "TruncatedSeries":
        """Substitute variables by units times q-powers, and q by ``q**q_power``.

        Each ``sub_*`` is ``None`` (leave the variable alone) or a pair
        ``(u, e)`` mapping the variable to ``u * q**e`` with ``u`` a Gaussian
        unit or 0.  The result is Laurent-truncated at the provable cutoff.

        A substitution with ``e < 0`` needs a structural guarantee to remain
        provable: ``slack[v]`` asserts that every monomial of the underlying
        (untruncated) series satisfies ``deg_v <= deg_q + slack[v]``, so no
        unknown term at or above the q-cutoff lands below the result's
        cutoff.  A stored term that breaks the bound refutes the assertion
        and is refused.
        """
        if q_power < 1:
            raise ValueError("q_power must be a positive integer")
        subs: list[tuple[int, str, Coeff, int, list[Coeff]]] = []
        for idx, name, sub in ((0, "a", sub_a), (1, "b", sub_b), (2, "x", sub_x)):
            if sub is None:
                continue
            u, e = sub
            if u != 0 and not is_unit(u):
                raise ValueError(f"substitution for {name} must be a Gaussian unit or 0, got {u!r}")
            subs.append((idx, name, u, e, [unit_pow(u, n) for n in range(4)] if u else []))  # u^4 = 1

        if self.q_cutoff >= INF:
            # Exact polynomial: nothing is missing, every image is exact.
            provable = INF
        else:
            drop = 0
            slack_total = 0
            slack = slack or {}
            for idx, name, u, e, _powers in subs:
                if u == 0 or e >= 0:
                    continue
                if name not in slack:
                    raise ValueError(
                        f"substituting {name} -> u*q^{e} needs slack[{name!r}] "
                        f"(a bound with deg_{name} <= deg_q + slack)"
                    )
                sigma = slack[name]
                excess = max((key[idx] - q for q, layer in self._items() for key in layer), default=sigma)
                if excess > sigma:
                    raise ValueError(
                        f"slack[{name!r}] = {sigma} is contradicted by a stored term "
                        f"with deg_{name} - deg_q = {excess}"
                    )
                drop += -e
                slack_total += -e * sigma
            if drop >= q_power:
                raise ValueError(
                    f"total negative q-shift {drop} absorbs q_power {q_power}: "
                    "no coefficient is provable at any cutoff"
                )
            provable = (q_power - drop) * self.q_cutoff - slack_total

        layers: defaultdict[int, Layer] = defaultdict(dict)
        for dq, layer in self._items():
            for (da, db, dx), c in layer.items():
                degs = [da, db, dx]
                new_q = q_power * dq
                coeff = c
                dead = False
                for idx, _name, u, e, powers in subs:
                    d = degs[idx]
                    degs[idx] = 0
                    if d == 0:
                        continue
                    if u == 0:
                        dead = True
                        break
                    new_q += e * d
                    coeff = coeff * powers[d % 4]
                if dead or new_q >= provable:
                    continue
                dst = layers[new_q]
                key = (degs[0], degs[1], degs[2])
                acc = dst.get(key, 0) + coeff
                if acc:
                    dst[key] = acc
                else:
                    del dst[key]
        floor = min((q for q, layer in layers.items() if layer), default=provable - 1 if provable < INF else 0)
        return _from_q_layers(layers, floor, provable)

    # ---------------------------------------------------------------- serialization

    def sorted_terms(self) -> list[tuple[Key, Coeff]]:
        return [((*key, q), c) for q, layer in self._items() for key, c in sorted(layer.items())]

    def to_obj(self) -> dict:
        out = []
        for (a, b, x, q), c in self.sorted_terms():
            re, im = as_pair(c)
            out.append({"re": re, "im": im, "a": a, "b": b, "x": x, "q": q})
        return {"q_floor": self.q_floor, "q_cutoff": self.q_cutoff, "terms": out}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_obj(cls, obj: dict) -> "TruncatedSeries":
        terms: dict[Key, Coeff] = {}
        for t in obj["terms"]:
            terms[(t["a"], t["b"], t["x"], t["q"])] = t["re"] if t["im"] == 0 else GaussInt(t["re"], t["im"])
        return cls(terms, obj["q_floor"], obj["q_cutoff"])


def _from_q_layers(layers: Mapping[int, Layer], floor: int, cutoff: int) -> TruncatedSeries:
    """The series on ``[floor, cutoff)`` whose q^q terms are ``layers[q]`` (none below floor)."""
    top = max(layers, default=floor - 1)
    return TruncatedSeries._of_layers([layers.get(q, {}) for q in range(floor, top + 1)], floor, cutoff)


# -------------------------------------------------------------------- products


def _add_layers(layers: list[Layer], start: int, src: list[Layer]) -> None:
    """Add the layers ``src`` into ``layers`` from index ``start`` on, copying each
    one that lands on an empty layer, so that the kernel never writes a stored
    layer; those past the last layer drop."""
    for j, layer in enumerate(src[:max(len(layers) - start, 0)], start):
        if layers[j]:
            _fold(layers[j], layer)
        else:
            layers[j] = dict(layer)


def _factor_layers(layers: list, floor: int, cutoff: int, num: Iterable[Monomial] = (),
                   den: Iterable[Monomial] = ()) -> tuple[int, int]:
    """``prod_{m in num} (1 - m) / prod_{m in den} (1 - m)`` in place on ``layers``,
    one ``{(a, b, x): coeff}`` dict per q-degree of the finite window ``[floor,
    cutoff)``; returns the new window, by the module docstring's rules.

    ``1 - m`` subtracts ``m`` times each layer from the layer ``deg_q m`` away,
    walking so that no layer is read after it is written: top-down for a
    positive degree, bottom-up for a negative one (which first lowers the
    window by that degree and then drops the layers past its cutoff), from a
    snapshot at degree 0.  ``1/(1 - m)`` adds ``m`` times each layer to the
    layer ``deg_q m`` above, bottom-up, so each layer is final when read.
    """
    for inverse, factors in ((False, num), (True, den)):
        for c, da, db, dx, dq in factors:
            if not c:
                continue
            if inverse:
                walk = range(dq, len(layers))
            elif dq < 0:
                floor, cutoff = floor + dq, cutoff + dq
                layers[:0] = [{} for _ in range(-dq)]
                walk = range(len(layers) + dq)
            else:
                walk = range(len(layers) - 1, dq - 1, -1)
            c = c if inverse else -c
            for i in walk:
                src, dst = layers[i - dq], layers[i]
                if not src:
                    continue
                get = dst.get
                items = list(src.items()) if src is dst else src.items()
                for (a, b, x), v in items:
                    key = (a + da, b + db, x + dx)
                    acc = get(key, 0) + c * v
                    if acc:
                        dst[key] = acc
                    else:
                        del dst[key]
            del layers[cutoff - floor:]
    return floor, cutoff


def _pack(layers: list, floor: int, cutoff: int) -> TruncatedSeries:
    """The series on ``[floor, cutoff)`` whose q^(floor + j) terms are ``layers[j]``.
    Each layer is copied: a dict keeps the room its inserts and deletes left, and
    the kernel's deletes leave much of it."""
    return TruncatedSeries._of_layers([dict(layer) for layer in layers], floor, cutoff)


def _apply_factors(s: TruncatedSeries, num: Iterable[Monomial] = (),
                   den: Iterable[Monomial] = ()) -> TruncatedSeries:
    """``s prod_{m in num} (1 - m) / prod_{m in den} (1 - m)`` for ``s`` of finite
    cutoff, on a copy of its q-layers for :func:`_factor_layers`.  Every
    coefficient ``s`` holds stays exact, so the factors may come in any order."""
    if s.q_cutoff >= INF:
        raise ValueError("a product of factors needs a series with a finite cutoff")
    den = tuple(den)
    if any(m.q <= 0 for m in den):
        raise ValueError("geometric inverse needs a base of positive q-degree")
    layers: list[Layer] = [{} for _ in range(s.q_cutoff - s.q_floor)]
    _add_layers(layers, 0, s._layers)
    return _pack(layers, *_factor_layers(layers, s.q_floor, s.q_cutoff, num, den))


def over_one_minus(s: TruncatedSeries, base: Monomial) -> TruncatedSeries:
    """``s / (1 - base)`` for a base of positive q-degree, on ``s``'s own window."""
    return _apply_factors(s, (), (base,))


def geometric(base: Monomial, q_cutoff: int) -> TruncatedSeries:
    """``1/(1 - base)`` as the geometric series, for base of positive q-degree."""
    return over_one_minus(TruncatedSeries.one(q_cutoff), base)


def _product_factors(bases: Iterable[Monomial], floor: int, cutoff: int, step: int = 1) -> Iterator[Monomial]:
    """The factors ``1 - m q^(j step)`` of ``prod_{m in bases} (m; q^step)_inf`` of q-degree
    below the window's width ``cutoff - floor``, which no factor changes; past it they
    only move terms past the cutoff."""
    return (Monomial(c, a, b, x, e) for c, a, b, x, q in bases for e in range(q, cutoff - floor, step))


def qproduct(s: TruncatedSeries, num: tuple[Monomial, ...] = (), den: tuple[Monomial, ...] = (),
             step: int = 1) -> TruncatedSeries:
    """``s * prod_{m in num} (m; q^step)_inf / prod_{m in den} (m; q^step)_inf``.

    The result keeps ``s``'s window, moved down by the Laurent numerators.
    Numerator bases may have q-degree <= 0 (Laurent factors, as in the triple
    product); denominator bases need a positive q-degree.  The factors that
    can reach the window (:func:`_product_factors`) go to one
    :func:`_apply_factors` pass.
    """
    if step < 1:
        raise ValueError("qproduct needs step >= 1")
    return _apply_factors(s, *(_product_factors(bases, s.q_floor, s.q_cutoff, step) for bases in (num, den)))


def pochhammer_inf(base: Monomial, q_cutoff: int, step: int = 1) -> TruncatedSeries:
    """``(c; q^step)_inf`` truncated at ``q_cutoff``.

    The base must have positive q-degree so the product stabilizes.
    """
    if base.q <= 0:
        raise ValueError(f"pochhammer_inf needs a base of positive q-degree, got q^{base.q}")
    return qproduct(TruncatedSeries.one(q_cutoff), (base,), step=step)


def q_binomial(n: int, k: int, q_cutoff: int) -> TruncatedSeries:
    """The Gaussian binomial (q^(n-k+1); q)_k / (q; q)_k, a polynomial in q,
    truncated at a finite ``q_cutoff``; the zero series unless 0 <= k <= n."""
    if k < 0 or k > n:
        return TruncatedSeries.zero(q_cutoff)
    return _apply_factors(TruncatedSeries.one(q_cutoff), [mono(1, q=n - k + 1 + j) for j in range(k)],
                          [mono(1, q=j) for j in range(1, k + 1)])
