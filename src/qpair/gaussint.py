"""Exact Gaussian integers for series coefficients.

Coefficients in this package are plain Python ``int`` whenever they are
purely real; a :class:`GaussInt` appears only when an imaginary part is
present.  The helpers :func:`cadd`, :func:`cmul` and :func:`cneg` accept
either form and demote back to ``int`` as soon as the imaginary part
cancels, so purely real values round-trip with plain big integers.
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
        return cadd(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return cadd(self, cneg(other))

    def __rsub__(self, other):
        return cadd(other, cneg(self))

    def __mul__(self, other):
        return cmul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def conjugate(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

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


def cadd(u: Coeff, v: Coeff) -> Coeff:
    if type(u) is int and type(v) is int:
        return u + v
    ur, ui = as_pair(u)
    vr, vi = as_pair(v)
    return _norm(ur + vr, ui + vi)


def cneg(u: Coeff) -> Coeff:
    if type(u) is int:
        return -u
    return GaussInt(-u.re, -u.im)


def cmul(u: Coeff, v: Coeff) -> Coeff:
    if type(u) is int and type(v) is int:
        return u * v
    ur, ui = as_pair(u)
    vr, vi = as_pair(v)
    return _norm(ur * vr - ui * vi, ur * vi + ui * vr)


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
        r = cmul(r, u)
    return r
