"""Identity-verification suites with machine-readable reports.

Each suite states its parameters and runs a grid of exact coefficient
comparisons into the :class:`VerificationReport` that :func:`run_suite`
builds and times; an empty failure list is the single source of truth for
success.  Reports are deterministic apart from ``wall_time``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import zip_longest

from .counts import CountTable
from .durfee import count_admissible, count_self_conjugate
from .frobenius import count_rank_bounded, rank_interval
from .gaussint import GaussInt
from .hyperg import (
    ABXQ,
    bailey_chain_bilateral,
    bailey_lattice_sides,
    bailey_pair_b3,
    bailey_pair_e3,
    bailey_relation_mismatch,
    j_tilde_from_h,
    jacobi_triple_product,
    multisum_admissible,
    multisum_self_conjugate,
    q_gauss_sides,
    series_H_tilde,
    series_J_tilde,
    series_R,
    series_R_bilateral,
    series_R_tilde,
    series_R_tilde_bilateral,
)
from .overpartitions import (
    overpartition_identity_sides,
    weighted_pair_identity_sides,
    partition_pair_identity_sides,
    partition_pair_product_side,
    count_frequency_pairs,
    odd_modulus_product_side,
    root_of_unity_product_side,
)
from .paths import count_paths, gf_closed, gf_gamma_closed, gf_gamma_recurrence, gf_recurrence
from .series import TruncatedSeries, mono, over_one_minus, qproduct


@dataclass
class CheckFailure:
    identity: str
    params: dict
    key: tuple
    lhs: str
    rhs: str

    def sort_key(self):
        return (self.identity, sorted(self.params.items()), self.key)

    def to_obj(self) -> dict:
        return {
            "identity": self.identity,
            "params": dict(sorted(self.params.items())),
            "key": list(self.key),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass
class VerificationReport:
    suite: str
    params: dict = field(default_factory=dict)
    checks_run: int = 0
    identities: set[str] = field(default_factory=set)
    failures: list[CheckFailure] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_obj(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(sorted(self.params.items())),
            "checks_run": self.checks_run,
            "identities": sorted(self.identities),
            "failures": [f.to_obj() for f in sorted(self.failures, key=CheckFailure.sort_key)],
            "ok": self.ok,
            "wall_time": round(self.wall_time, 3),
        }

    # -- recording helpers -------------------------------------------------

    def coeff_check(self, identity: str, params: dict,
                    lhs: TruncatedSeries | CountTable, rhs: TruncatedSeries | CountTable):
        """Compare two series or two count tables; record their first differing coefficient."""
        self.mismatch_check(identity, params, lhs.first_mismatch(rhs))

    def mismatch_check(self, identity: str, params: dict, mismatch: tuple | None):
        """Record a check whose first mismatch ``(key, lhs, rhs)``, or None, is already found."""
        self.checks_run += 1
        self.identities.add(identity)
        if mismatch is not None:
            key, lv, rv = mismatch
            self.failures.append(CheckFailure(identity, params, key, str(lv), str(rv)))


def list_mismatch(lhs: list, rhs: list) -> tuple | None:
    """First mismatch ``((n,), lhs[n], rhs[n])`` of two coefficient lists
    indexed by weight, or None; an entry past the end of a list reads None."""
    for n, (lv, rv) in enumerate(zip_longest(lhs, rhs)):
        if lv != rv:
            return (n,), lv, rv
    return None


@dataclass(frozen=True)
class VerifyConfig:
    k_values: tuple[int, ...] = (2, 3, 4)
    cutoff: int = 12
    n_max: int = 10


def _mutated_interval(k: int, i: int, tilde: bool) -> tuple[int, int] | None:
    """Test hook: QPAIR_SELFTEST_MUTATION=rank-interval widens the window."""
    if os.environ.get("QPAIR_SELFTEST_MUTATION") == "rank-interval":
        lo, hi = rank_interval(k, i, tilde)
        return lo, hi + 1
    return None


# ---------------------------------------------------------------------- suites


def suite_qdiff_R(rep: VerificationReport, cfg: VerifyConfig) -> None:
    """Each right side here and in qdiff-Rtilde is q^s times a series on [f >= 0, c), with floor
    >= s: ``over_one_minus`` keeps its cutoff c + s, as the product with ``geometric(abxq, c)`` does."""
    c = cfg.cutoff
    rep.params = {"k": list(cfg.k_values), "cutoff": c}
    ab_sum = TruncatedSeries.poly([mono(1, a=1), mono(1, b=1)])
    for k in cfg.k_values:
        r = {i: series_R(k, i, c) for i in range(1, k + 1)}
        shifted = {i: r[i].shift_x() for i in range(1, k + 1)}
        rep.coeff_check("index-1-shift", {"k": k}, r[1], shifted[k])
        rhs = shifted[k - 1].times_monomial(mono(1, x=1, q=1)) + shifted[k] * TruncatedSeries.poly(
            [mono(1, a=1, x=1, q=1), mono(1, b=1, x=1, q=1), mono(1, a=1, b=1, x=1, q=1)]
        )
        rep.coeff_check("index-2-step", {"k": k}, r[2] - r[1], over_one_minus(rhs, ABXQ))
        for i in range(3, k + 1):
            inner = shifted[k - i + 1] + shifted[k - i + 2] * ab_sum
            inner = inner + shifted[k - i + 3].times_monomial(mono(1, a=1, b=1))
            rhs = over_one_minus(inner.times_monomial(mono(1, x=i - 1, q=i - 1)), ABXQ)
            rep.coeff_check("index-step", {"k": k, "i": i}, r[i] - r[i - 1], rhs)


def suite_qdiff_R_tilde(rep: VerificationReport, cfg: VerifyConfig) -> None:
    c = cfg.cutoff
    rep.params = {"k": list(cfg.k_values), "cutoff": c}
    ab_sum = TruncatedSeries.poly([mono(1, a=1), mono(1, b=1)])
    one_plus_xq = TruncatedSeries.poly([mono(1), mono(1, x=1, q=1)])
    for k in cfg.k_values:
        r = {i: series_R_tilde(k, i, c) for i in range(1, k + 1)}
        shifted = {i: r[i].shift_x() for i in range(1, k + 1)}
        rep.coeff_check("index-1-shift", {"k": k}, r[1], shifted[k])
        rhs = shifted[k - 1] * one_plus_xq + shifted[k] * TruncatedSeries.poly(
            [mono(1, a=1, x=1, q=1), mono(1, b=1, x=1, q=1)]
        )
        rep.coeff_check("index-2-value", {"k": k}, r[2], over_one_minus(rhs, ABXQ))
        for i in range(3, k + 1):
            inner = shifted[k - i + 1] + shifted[k - i + 2] * ab_sum
            inner = inner + shifted[k - i + 3].times_monomial(mono(1, a=1, b=1))
            rhs = over_one_minus((inner * one_plus_xq).times_monomial(mono(1, x=i - 2, q=i - 2)), ABXQ)
            rep.coeff_check("index-double-step", {"k": k, "i": i}, r[i] - r[i - 2], rhs)


def suite_htilde(rep: VerificationReport, cfg: VerifyConfig) -> None:
    """H~ vanishing, reflection and difference identities, and J~ by both routes.
    Needs k >= 2: J~ goes through ``check_ki``, whose refusal at k = 1 (exit 2)
    does not name the suite."""
    c = cfg.cutoff
    rep.params = {"k": list(cfg.k_values), "cutoff": c}
    zero = TruncatedSeries.zero(c)
    x_poly = TruncatedSeries.poly([mono(1, x=1)])
    one_plus_x = TruncatedSeries.poly([mono(1), mono(1, x=1)])
    for k in cfg.k_values:
        h = {i: series_H_tilde(k, i, c) for i in range(-k, k + 1)}
        j = {i: series_J_tilde(k, i, c) for i in range(1, k + 1)}
        rep.coeff_check("h-vanishes-at-0", {"k": k}, h[0], zero)
        for i in range(1, k + 1):
            rep.coeff_check("h-reflection", {"k": k, "i": i}, h[-i], -h[i])
            if i >= 2:
                lhs = h[i] - h[i - 2]
                rhs = (one_plus_x * j[k - i + 1]).times_monomial(mono(1, x=i - 2))
            else:
                lhs = x_poly * h[1] - h[-1]
                rhs = one_plus_x * j[k]
            rep.coeff_check("h-difference", {"k": k, "i": i}, lhs, rhs)
            rep.coeff_check("j-dual-route", {"k": k, "i": i},
                            j[i], j_tilde_from_h(h[i], h[i - 1], h[i - 2], i))


def suite_series_vs_enum(rep: VerificationReport, cfg: VerifyConfig) -> None:
    n_max = cfg.n_max
    # The q-difference suites' cutoff when it covers n_max, so their builds serve here.
    c = max(cfg.cutoff, n_max + 1)
    rep.params = {"k": list(cfg.k_values), "n_max": n_max}
    for k in cfg.k_values:
        for i in range(1, k + 1):
            got = CountTable.from_series(series_R(k, i, c), n_max)
            rep.coeff_check("series-counts-pairs", {"k": k, "i": i},
                            got, count_frequency_pairs(k, i, n_max, bound=n_max))
            got_t = CountTable.from_series(series_R_tilde(k, i, c), n_max)
            rep.coeff_check("series-counts-pairs-even", {"k": k, "i": i},
                            got_t, count_frequency_pairs(k, i, n_max, parity=True, bound=n_max))


def _chain_k_values(cfg: VerifyConfig) -> list[int]:
    return [k for k in cfg.k_values if 2 <= k <= 3]


def _four_way(rep: VerificationReport, cfg: VerifyConfig, even: bool) -> None:
    """B = C, B = D and B = E, or with ``even`` their even/tilde variants."""
    n_max = cfg.n_max
    ks = _chain_k_values(cfg)
    tag = "-even" if even else ""
    rep.params = {"k": ks, "n_max": n_max}
    for k in ks:
        for i in range(1, k + 1):
            b = count_frequency_pairs(k, i, n_max, parity=even, bound=n_max)
            c = count_rank_bounded(k, i, n_max, tilde=even, bound=n_max,
                                   interval=_mutated_interval(k, i, even))
            d = (count_self_conjugate if even else count_admissible)(k, i, n_max, bound=n_max)
            e = count_paths(k, i, n_max, even=even, bound=n_max)
            rep.coeff_check("ranks-vs-freq" + tag, {"k": k, "i": i}, c, b)
            rep.coeff_check("durfee-vs-freq" + tag, {"k": k, "i": i}, d, b)
            rep.coeff_check("paths-vs-freq" + tag, {"k": k, "i": i}, e, b)


def suite_gf_paths(rep: VerificationReport, cfg: VerifyConfig) -> None:
    c = cfg.cutoff
    rep.params = {"k": list(cfg.k_values), "cutoff": c}
    for k in cfg.k_values:
        for even in (False, True):
            tag = "even" if even else "odd"
            # One build of each closed form serves both the dual-route and the sum check.
            closed = {i: [gf_closed(k, i, n_peaks, c, even=even) for n_peaks in range(max(c, 5))]
                      for i in range(1, k + 1)}
            for i in range(1, k + 1):
                for n_peaks in range(5):
                    rep.coeff_check(
                        f"gf-dual-route-{tag}", {"k": k, "i": i, "peaks": n_peaks},
                        gf_recurrence(k, i, n_peaks, c, even=even), closed[i][n_peaks],
                    )
            for i in range(0, k):
                for n_peaks in range(5):
                    rep.coeff_check(
                        f"gf-companion-dual-route-{tag}", {"k": k, "i": i, "peaks": n_peaks},
                        gf_gamma_recurrence(k, i, n_peaks, c, even=even),
                        gf_gamma_closed(k, i, n_peaks, c, even=even),
                    )
            for i in range(1, k + 1):
                total = sum(closed[i][:c], TruncatedSeries.zero(c))
                bilateral = (series_R_tilde_bilateral if even else series_R_bilateral)(k, i, c)
                rep.coeff_check(f"gf-sum-vs-bilateral-{tag}", {"k": k, "i": i}, total, bilateral)


def suite_q_gauss(rep: VerificationReport, cfg: VerifyConfig) -> None:
    c = cfg.cutoff
    rep.params = {"cutoff": c}
    sides = {n: q_gauss_sides(n, c) for n in (-2, -1, 0, 1, 2)}
    for n, (lhs, rhs) in sides.items():
        rep.coeff_check("summation-lemma", {"n": n}, lhs, rhs)
    rep.coeff_check("summand-reflection", {"n": 2}, sides[2][0], sides[-2][0])


def suite_jtp(rep: VerificationReport, cfg: VerifyConfig) -> None:
    c = max(cfg.cutoff, 20)
    rep.params = {"cutoff": c}
    for label, z in (("1", mono(1)), ("-1", mono(-1)), ("i", mono(GaussInt(0, 1))), ("q", mono(1, q=1))):
        lhs, rhs = jacobi_triple_product(z, c)
        rep.coeff_check("triple-product", {"z": label}, lhs, rhs)


def suite_bailey(rep: VerificationReport, cfg: VerifyConfig) -> None:
    c = cfg.cutoff
    lattice_c = min(c, 10)
    n_max = cfg.n_max
    multisum_c = max(c, n_max + 1)
    rep.params = {"k": list(cfg.k_values), "cutoff": c, "n_max": n_max}
    depth = max(4, c)
    pairs = {"B3": bailey_pair_b3(depth, c), "E3": bailey_pair_e3(depth, c)}
    for label, pair in pairs.items():
        rep.mismatch_check("pair-relation-verified", {"pair": label}, bailey_relation_mismatch(pair))
        for k_lat in range(0, 4):
            for i_lat in range(0, k_lat + 1):
                lhs, rhs = bailey_lattice_sides(pair, k_lat, i_lat, lattice_c)
                rep.coeff_check("lattice-transform", {"pair": label, "k": k_lat, "i": i_lat},
                                lhs, rhs)
    for k in _chain_k_values(cfg):
        for i in range(1, k + 1):
            bilateral = series_R_bilateral(k, i, c)
            bilateral_t = series_R_tilde_bilateral(k, i, c)
            rep.coeff_check("lattice-reproduces-bilateral", {"k": k, "i": i},
                            bailey_chain_bilateral(pairs["B3"], k - 1, i - 1, c), bilateral)
            rep.coeff_check("lattice-reproduces-bilateral-even", {"k": k, "i": i},
                            bailey_chain_bilateral(pairs["E3"], k - 1, i - 1, c), bilateral_t)
            # One build serves the count and the bilateral check (common window).
            d_series = multisum_admissible(k, i, multisum_c)
            rep.coeff_check("multisum-vs-durfee-enum", {"k": k, "i": i},
                            CountTable.from_series(d_series, n_max),
                            count_admissible(k, i, n_max, bound=n_max))
            dt_series = multisum_self_conjugate(k, i, multisum_c)
            rep.coeff_check("multisum-vs-selfconj-enum", {"k": k, "i": i},
                            CountTable.from_series(dt_series, n_max),
                            count_self_conjugate(k, i, n_max, bound=n_max))
            rep.coeff_check("multisum-vs-bilateral", {"k": k, "i": i}, d_series, bilateral)
            rep.coeff_check("multisum-vs-bilateral-even", {"k": k, "i": i}, dt_series, bilateral_t)


def _product_even_modulus(k: int, i: int, c: int) -> TruncatedSeries:
    m = 4 * k - 2
    g = qproduct(TruncatedSeries.one(c), (mono(-1, q=1),) * 2, (mono(1, q=2),) * 2, step=2)
    return qproduct(g, tuple(mono(1, q=e) for e in (2 * i - 2, 4 * k - 2 * i, m)), step=m)


def specialized_odd_modulus_series(k: int, target: int) -> TruncatedSeries:
    """The i = k series at (a, b, x, q) -> (1, 1/q, 1, q^2), provable to ``target``."""

    def depth(cc: int) -> int:
        n = 0
        while k * n * n + n < cc:
            n += 1
        return n

    c = target
    while c - depth(c) < target:
        c += 1
    sig = depth(c)
    return series_R_bilateral(k, k, c).specialize(sub_a=(1, 0), sub_b=(1, -1), q_power=2, slack={"b": sig})


def suite_corollaries(rep: VerificationReport, cfg: VerifyConfig) -> None:
    n_max = min(cfg.n_max + 2, 12)
    prod_cutoff = max(cfg.cutoff, 16)
    rep.params = {"n_max": n_max, "product_cutoff": prod_cutoff}
    for k in (2, 3):
        a, b = overpartition_identity_sides(k, n_max)
        rep.mismatch_check("odd-modulus-sides", {"k": k}, list_mismatch(a, b))
        spec = specialized_odd_modulus_series(k, prod_cutoff)
        spec_counts = [spec.coeff_q(n) for n in range(prod_cutoff)]
        rep.mismatch_check("odd-modulus-product", {"k": k},
                           list_mismatch(spec_counts, odd_modulus_product_side(k, prod_cutoff - 1)))
        rep.mismatch_check("odd-modulus-series-vs-counts", {"k": k},
                           list_mismatch(spec_counts[:n_max + 1], b))
    for k in (3, 4):
        a, even, odd = weighted_pair_identity_sides(k, n_max)
        rep.mismatch_check("root-of-unity-sides", {"k": k}, list_mismatch(a, even))
        rep.mismatch_check("root-of-unity-odd-class", {"k": k}, list_mismatch(odd, [0] * len(a)))
        bil = series_R_tilde_bilateral(k, k - 1, prod_cutoff)
        spec = bil.specialize(sub_a=(GaussInt(0, 1), 0), sub_b=(GaussInt(0, -1), 0))
        rep.mismatch_check("root-of-unity-product", {"k": k}, list_mismatch(
            [spec.coeff_q(n) for n in range(prod_cutoff)], root_of_unity_product_side(k, prod_cutoff - 1)))
    for k in (2, 3):
        for i in range(2, k + 1):
            a, b = partition_pair_identity_sides(k, i, n_max)
            rep.mismatch_check("even-modulus-sides", {"k": k, "i": i}, list_mismatch(a, b))
            prod = _product_even_modulus(k, i, prod_cutoff)
            rep.mismatch_check("even-modulus-product", {"k": k, "i": i}, list_mismatch(
                partition_pair_product_side(k, i, prod_cutoff - 1),
                [prod.coeff_q(n) for n in range(prod_cutoff)]))


SUITES = {
    "qdiff-R": suite_qdiff_R,
    "qdiff-Rtilde": suite_qdiff_R_tilde,
    "htilde-identities": suite_htilde,
    "series-vs-enum": suite_series_vs_enum,
    "four-way": lambda rep, cfg: _four_way(rep, cfg, even=False),
    "four-way-even": lambda rep, cfg: _four_way(rep, cfg, even=True),
    "gf-paths": suite_gf_paths,
    "q-gauss": suite_q_gauss,
    "jtp": suite_jtp,
    "bailey": suite_bailey,
    "corollaries": suite_corollaries,
}


def run_suite(name: str, cfg: VerifyConfig) -> VerificationReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    rep = VerificationReport(name)
    start = time.time()
    SUITES[name](rep, cfg)
    rep.wall_time = time.time() - start
    return rep
