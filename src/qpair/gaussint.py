"""Exact Gaussian integers for series coefficients.

Coefficients in this package are plain Python ``int`` whenever they are
purely real; a :class:`GaussInt` appears only when an imaginary part is
present.  Its ``+``, ``-`` and ``*`` accept either form on either side and
demote the result back to ``int`` as soon as the imaginary part cancels, so
purely real values stay plain big integers.
"""

from __future__ import annotations


class GaussInt:
    """A Gaussian integer ``re + im*i`` with arbitrary-precision parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        self.re = re
        self.im = im

    def __repr__(self) -> str:
        if self.im == 0:
            return f"GaussInt({self.re})"
        return f"GaussInt({self.re}, {self.im})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussInt):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __add__(self, other):
        if isinstance(other, GaussInt):
            return _norm(self.re + other.re, self.im + other.im)
        if isinstance(other, int):
            return _norm(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, GaussInt):
            re, im = other.re, other.im
            return _norm(self.re * re - self.im * im, self.re * im + self.im * re)
        if isinstance(other, int):
            return _norm(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def is_unit(self) -> bool:
        return (abs(self.re), abs(self.im)) in ((1, 0), (0, 1))


I = GaussInt(0, 1)

Coeff = int | GaussInt


def as_pair(c: Coeff) -> tuple[int, int]:
    if isinstance(c, GaussInt):
        return c.re, c.im
    return c, 0


def _norm(re: int, im: int) -> Coeff:
    return re if im == 0 else GaussInt(re, im)


def is_unit(c: Coeff) -> bool:
    """True for 1, -1, i, -i."""
    if type(c) is int:
        return c in (1, -1)
    return c.is_unit()


def unit_inverse(c: Coeff) -> Coeff:
    """Inverse of a Gaussian unit (the conjugate, for units)."""
    if not is_unit(c):
        raise ValueError(f"not a unit in the Gaussian integers: {c!r}")
    if type(c) is int:
        return c
    return _norm(c.re, -c.im)


def unit_pow(u: Coeff, n: int) -> Coeff:
    """``u**n`` for a Gaussian unit ``u`` and any integer ``n``."""
    if not is_unit(u):
        raise ValueError(f"not a unit in the Gaussian integers: {u!r}")
    if type(u) is int:
        return 1 if (u == 1 or n % 2 == 0) else -1
    r = 1
    for _ in range(n % 4):
        r = r * u
    return r
