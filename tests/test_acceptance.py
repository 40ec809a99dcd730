"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import contextlib

import pytest

from qpair.counts import CountTable, tally
from qpair.durfee import k_conjugate
from qpair.frobenius import FrobeniusSymbol, joichi_stanton, joichi_stanton_inverse, rows_of, successive_ranks, symbols_of
from qpair.hyperg import series_R, series_R_tilde
from qpair.overpartitions import frequency_pairs
from qpair.paths import LatticePath, path_to_symbol, paths_up_to, symbol_to_path
from qpair.verify import VerifyConfig, run_suite


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"criterion {label}: FAIL")
        raise
    print(f"criterion {label}: PASS")


def run_ok(name, cfg):
    rep = run_suite(name, cfg)
    assert rep.ok, rep.to_obj()["failures"][:3]
    return rep


def test_criterion_1_series_equal_enumeration():
    with criterion("1 (series = enumeration, k <= 4, n <= 12, exact)"):
        n_max = 12
        for k in (2, 3, 4):
            for i in range(1, k + 1):
                got = CountTable.from_series(series_R(k, i, n_max + 1, x_one=True), n_max)
                # The tally of the pairs themselves, not the transfer matrix.
                want = tally(frequency_pairs(k, i, n_max), n_max)
                assert got.first_mismatch(want) is None, (k, i)
                got_t = CountTable.from_series(series_R_tilde(k, i, n_max + 1, x_one=True), n_max)
                want_t = tally(frequency_pairs(k, i, n_max, parity=True), n_max)
                assert got_t.first_mismatch(want_t) is None, (k, i)


def test_criterion_2_four_way_chains():
    with criterion("2 (four-way chains, k <= 3, n <= 10, exact)"):
        cfg = VerifyConfig(k_values=(2, 3), n_max=10)
        run_ok("four-way", cfg)
        run_ok("four-way-even", cfg)


def test_criterion_3_worked_examples():
    with criterion("3 (worked examples, bit-exact)"):
        def row(*parts):
            return [p if isinstance(p, tuple) else (abs(p), p < 0) for p in parts]

        fig1 = LatticePath(
            2,
            ["SE", "NE", "S", "SE", "NE", "SE", "NE", "S", "NE", "SW", "NE", "SE"],
            ["a", "one", "b", "ab", "one"],
        )
        assert fig1.major_index() == 26

        fig2 = LatticePath(
            1,
            ["NE", "SW", "NE", "SW", "NE", "SE", "NE", "S", "SE", "NE", "NE", "SW", "SE", "NE", "SW"],
            ["ab", "ab", "one", "a", "ab", "ab"],
        )
        assert fig2.major_index() == 19

        ranks_symbol = FrobeniusSymbol(row(-7, 4, -2, 0), row(-3, 3, 1, (0, True)))
        assert successive_ranks(ranks_symbol) == (4, 1, 2, 0)

        fig3 = LatticePath(
            2,
            "SE SE NE NE SW SE NE NE NE S NE NE SE SE SE NE SE NE NE S SE SE E NE NE SW NE SE NE NE S SE SE".split(),
            ["ab", "a", "one", "one", "b", "ab", "one", "b"],
        )
        fig3_symbol = FrobeniusSymbol(
            row(14, -12, 12, 8, -7, -4, -3, 2),
            row(-9, -8, 8, -7, -5, -4, 3, 1),
        )
        assert fig3.major_index() == 115
        assert (fig3.marked_a(), fig3.marked_b()) == (3, 4)
        assert path_to_symbol(fig3, 5, 3) == fig3_symbol
        assert symbol_to_path(fig3_symbol, 5, 3) == fig3

        pi = FrobeniusSymbol(
            row(12, 12, -8, 7, 6, -3, 2, -1),
            row(14, 12, -10, -8, 6, 5, -3, 2),
        )
        assert joichi_stanton(pi.top) == ((9, 9, 6, 5, 4, 2, 1, 1), (7, 5, 2))
        assert joichi_stanton(pi.bottom) == ((11, 9, 8, 7, 5, 4, 3, 2), (6, 3, 2))
        pi4 = FrobeniusSymbol(
            row(11, 9, -7, 7, 6, -3, 2, -1),
            row(15, 15, -11, -8, 6, 5, -3, 2),
        )
        assert k_conjugate(pi, 4) == pi4


def test_criterion_4_q_difference_suites():
    with criterion("4 (q-difference relations, k <= 4, cutoff 12, exact)"):
        cfg = VerifyConfig(k_values=(2, 3, 4), cutoff=12)
        run_ok("qdiff-R", cfg)
        run_ok("qdiff-Rtilde", cfg)
        run_ok("htilde-identities", cfg)


def test_criterion_5_path_generating_functions():
    with criterion("5 (path generating functions, k <= 4, cutoff 12, exact)"):
        run_ok("gf-paths", VerifyConfig(k_values=(2, 3, 4), cutoff=12))


def test_criterion_6_bailey_machinery():
    with criterion("6 (Bailey pairs, lattice, multisums, exact)"):
        run_ok("bailey", VerifyConfig(k_values=(2, 3), cutoff=12, n_max=10))


def test_criterion_7_corollaries():
    with criterion("7 (corollaries, n <= 12, product sides to cutoff 16)"):
        run_ok("corollaries", VerifyConfig(n_max=10, cutoff=16))


def test_criterion_8_structural_properties():
    with criterion("8 (round-trips, involutions, ring laws)"):
        # Path <-> symbol round-trips, exhaustive to weight 10.
        for k, i in ((2, 2), (3, 2)):
            for _, path in paths_up_to(k, i, 10):
                f = path_to_symbol(path, k, i)
                assert symbol_to_path(f, k, i) == path

        # Symbol conjugation is a statistics-preserving involution.
        for n in range(11):
            for f in symbols_of(n):
                for k in (2, 3, 4):
                    g = k_conjugate(f, k)
                    assert k_conjugate(g, k) == f
                    assert (g.weight(), g.columns, g.s_stat(), g.t_stat()) == (
                        f.weight(), f.columns, f.s_stat(), f.t_stat())

        # Row-decomposition round-trips: weight <= 12, at most 8 parts.
        for total in range(13):
            for length in range(9):
                for r in rows_of(length, total):
                    assoc, marks = joichi_stanton(r)
                    assert joichi_stanton_inverse(assoc, marks) == r

        # Ring laws on pseudo-random small series (seeded).
        import random

        from qpair.series import TruncatedSeries, mono

        rng = random.Random(20260810)

        def rand_series():
            monos = [
                mono(rng.randint(-4, 4), rng.randint(0, 2), rng.randint(0, 2),
                     rng.randint(0, 2), rng.randint(0, 4))
                for _ in range(rng.randint(0, 5))
            ]
            return TruncatedSeries.poly([m for m in monos if m.coeff]).truncated(8)

        for _ in range(60):
            r, s, t = rand_series(), rand_series(), rand_series()
            assert ((r + s) + t).first_mismatch(r + (s + t)) is None
            assert (r * s).first_mismatch(s * r) is None
            assert ((r * s) * t).first_mismatch(r * (s * t)) is None
            assert (r * (s + t)).first_mismatch(r * s + r * t) is None
