"""The series engine against sympy polynomial arithmetic.

Each case draws seeded random Laurent polynomials in a, b, x, q with
Gaussian-integer coefficients, truncates them to a random window, runs one
engine operation and compares the result with sympy's exact answer on the
window the documented rules give (``q_floor <= deg_q < q_cutoff``).  Below
the floor sympy's answer must be 0:
the floor is a valuation bound.  sympy is independent of the engine, so a
window rule that keeps one coefficient too many, or a kernel that drops
one, shows as a mismatch.
"""

import random

import pytest

from qpair.gaussint import GaussInt, as_pair
from qpair.series import Monomial, TruncatedSeries, _apply_factors, mono, over_one_minus

sp = pytest.importorskip("sympy")

A, B, X, Q = sp.symbols("a b x q")
OFFSET = 40  # q-shift that makes every Laurent polynomial here a polynomial
UNITS = (1, -1, GaussInt(0, 1), GaussInt(0, -1))
SEEDS = range(30)


def _sym_coeff(c):
    re, im = as_pair(c)
    return sp.Integer(re) + sp.I * im


def _sym(monos) -> sp.Expr:
    return sp.Add(*(_sym_coeff(c) * A**da * B**db * X**dx * Q**dq for c, da, db, dx, dq in monos))


def _sym_terms(expr) -> dict:
    """``expr`` (a Laurent polynomial) as engine keys -> coefficients."""
    expr = sp.expand(expr * Q**OFFSET)
    if expr == 0:
        return {}
    out = {}
    for (da, db, dx, dq), c in sp.Poly(expr, A, B, X, Q, domain="ZZ_I").terms():
        re, im = int(sp.re(c)), int(sp.im(c))
        out[(da, db, dx, dq - OFFSET)] = re if im == 0 else GaussInt(re, im)
    return out


def _random_series(seed: int, deg: int) -> tuple[random.Random, list[Monomial], TruncatedSeries]:
    """A random polynomial and its truncation; every third seed is Laurent."""
    rng = random.Random(seed)
    q_lo = -2 if seed % 3 == 0 else 0
    monos = []
    for _ in range(rng.randint(2, 8)):
        c = rng.choice((rng.randint(-3, 3) or 1, rng.choice(UNITS), GaussInt(rng.randint(-2, 2), 1)))
        monos.append(mono(c, rng.randint(0, deg), rng.randint(0, deg), rng.randint(0, deg),
                          rng.randint(q_lo, 7)))
    return rng, monos, TruncatedSeries.poly(monos).truncated(rng.randint(4, 10))


def _random_base(rng: random.Random, q_lo: int) -> Monomial:
    return mono(rng.choice(UNITS), rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1),
                rng.randint(q_lo, 3))


def assert_on_window(got: TruncatedSeries, exact: dict) -> None:
    """``got`` is ``exact`` on its window, and ``exact`` is 0 below its floor."""
    below = {k: c for k, c in exact.items() if k[3] < got.q_floor}
    assert below == {}, f"nonzero below the floor {got.q_floor}: {below}"
    want = {k: c for k, c in exact.items() if k[3] < got.q_cutoff}
    assert dict(got.terms) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_mul_window_rule(seed):
    _, p1, s1 = _random_series(seed, 2)
    _, p2, s2 = _random_series(seed + 1000, 2)
    got = s1 * s2
    assert got.q_floor == s1.q_floor + s2.q_floor
    assert got.q_cutoff == min(s1.q_cutoff + s2.q_floor, s2.q_cutoff + s1.q_floor)
    assert_on_window(got, _sym_terms(_sym(p1) * _sym(p2)))


@pytest.mark.parametrize("seed", SEEDS)
def test_shift_x(seed):
    rng, p, s = _random_series(seed, 3)
    e = rng.randint(0, 3)
    got = s
    for _ in range(e):
        got = got.shift_x()
    assert (got.q_floor, got.q_cutoff) == (s.q_floor, s.q_cutoff)
    assert_on_window(got, _sym_terms(_sym(p).subs(X, X * Q**e)))


@pytest.mark.parametrize("seed", SEEDS)
def test_specialize_nonnegative_shifts(seed):
    # Every coefficient below the image cutoff is provable.
    rng, p, s = _random_series(seed, 2)
    subs, sym_subs = {}, {}
    for name, var in (("sub_a", A), ("sub_b", B), ("sub_x", X)):
        if rng.random() < 0.7:
            u, e = rng.choice(UNITS + (0,)), rng.randint(0, 2)
            subs[name] = (u, e)
            sym_subs[var] = _sym_coeff(u) * Q**e
    q_power = rng.randint(1, 3)
    got = s.specialize(q_power=q_power, **subs)
    assert got.q_cutoff == q_power * s.q_cutoff
    exact = sp.expand(_sym(p).subs(Q, Q**q_power)).subs(sym_subs, simultaneous=True)
    assert_on_window(got, _sym_terms(exact))


@pytest.mark.parametrize("seed", SEEDS)
def test_times_one_minus(seed):
    rng, p, s = _random_series(seed, 2)
    base = _random_base(rng, -3)
    got = _apply_factors(s, (base,))
    low = min(0, base.q)
    assert (got.q_floor, got.q_cutoff) == (s.q_floor + low, s.q_cutoff + low)
    assert_on_window(got, _sym_terms(_sym(p) * (1 - _sym([base]))))


@pytest.mark.parametrize("seed", SEEDS)
def test_over_one_minus(seed):
    rng, p, s = _random_series(seed, 2)
    base = _random_base(rng, 1)
    got = over_one_minus(s, base)
    assert (got.q_floor, got.q_cutoff) == (s.q_floor, s.q_cutoff)
    # 1/(1 - m) to more powers of m than can reach below the cutoff.
    powers = (s.q_cutoff - s.q_floor) // base.q + 1
    geometric = sp.Add(*(_sym([base]) ** j for j in range(powers + 1)))
    assert_on_window(got, _sym_terms(_sym(p) * geometric))


def _slack_series(seed: int) -> tuple[random.Random, list[Monomial], TruncatedSeries, int]:
    """A random polynomial with deg_b <= deg_q + slack in every monomial, and
    its truncation.

    Some monomials lie past the cutoff, so the truncation drops terms whose
    images the provable cutoff has to exclude; half sit on the bound
    deg_b = deg_q + slack, where those images come closest to it.  a and x
    stay at degree <= 2.
    """
    rng = random.Random(seed)
    slack, cutoff = rng.randint(0, 2), rng.randint(4, 8)
    monos = []
    for _ in range(rng.randint(2, 8)):
        dq = rng.randint(0, cutoff + 3)
        db = rng.choice((dq + slack, rng.randint(0, dq + slack)))
        monos.append(mono(rng.choice((rng.randint(-3, 3) or 1, rng.choice(UNITS))),
                          rng.randint(0, 2), db, rng.randint(0, 2), dq))
    return rng, monos, TruncatedSeries.poly(monos).truncated(cutoff), slack


@pytest.mark.parametrize("seed", SEEDS)
def test_specialize_negative_shift_with_slack(seed):
    # b -> u q^-1 lowers a monomial's q-degree by deg_b <= deg_q + slack,
    # so with q -> q^p the images of the terms cut at q_cutoff all land at
    # or above (p - 1) q_cutoff - slack: that is the provable cutoff.
    rng, p, s, slack = _slack_series(seed)
    u, q_power = rng.choice(UNITS), rng.randint(2, 3)
    subs, sym_subs = {"sub_b": (u, -1)}, {B: _sym_coeff(u) / Q}
    if rng.random() < 0.5:
        ua, ea = rng.choice(UNITS + (0,)), rng.randint(0, 2)
        subs["sub_a"], sym_subs[A] = (ua, ea), _sym_coeff(ua) * Q**ea
    got = s.specialize(q_power=q_power, slack={"b": slack}, **subs)
    assert got.q_cutoff == (q_power - 1) * s.q_cutoff - slack
    exact = sp.expand(_sym(p).subs(Q, Q**q_power)).subs(sym_subs, simultaneous=True)
    assert_on_window(got, _sym_terms(exact))


@pytest.mark.parametrize("seed", range(5))
def test_specialize_negative_shift_refusals(seed):
    _, _, s, _ = _slack_series(seed)
    with pytest.raises(ValueError, match=r"needs slack\['b'\]"):
        s.specialize(sub_b=(1, -1), q_power=2)
    # A slack below the largest stored deg_b - deg_q is refuted by that term.
    tight = max(key[1] - key[3] for key in s.terms)
    with pytest.raises(ValueError, match=r"slack\['b'\] = .* is contradicted"):
        s.specialize(sub_b=(1, -1), q_power=2, slack={"b": tight - 1})
    s.specialize(sub_b=(1, -1), q_power=2, slack={"b": tight})
