"""Exact q-series arithmetic and combinatorial verification for overpartition pairs.

The package has three layers:

* an exact truncated-series engine over the Gaussian integers in a, b, x, q
  (:mod:`~qpair.series`, :mod:`~qpair.gaussint`, :mod:`~qpair.counts`);
* combinatorial families and bijections: overpartition pairs with frequency
  conditions, Frobenius symbols with bounded successive ranks, Durfee
  dissection and symbol conjugation, and marked lattice paths
  (:mod:`~qpair.overpartitions`, :mod:`~qpair.frobenius`,
  :mod:`~qpair.durfee`, :mod:`~qpair.paths`);
* the named hypergeometric series with their identity machinery and the
  verification suites behind the ``qpair`` command line
  (:mod:`~qpair.hyperg`, :mod:`~qpair.verify`, :mod:`~qpair.cli`).
"""

from .counts import BoundExceededError, CountTable
from .durfee import is_ki_admissible, is_self_ki_conjugate, k_conjugate
from .frobenius import FrobeniusSymbol, joichi_stanton, joichi_stanton_inverse, successive_ranks
from .gaussint import GaussInt, I
from .hyperg import (
    BaileyPair,
    bailey_lattice_sides,
    bailey_pair_b3,
    bailey_pair_e3,
    bailey_relation_mismatch,
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
from .overpartitions import Overpartition, OverpartitionPair
from .paths import LatticePath, path_to_symbol, symbol_to_path
from .series import INF, Monomial, TruncatedSeries, mono, pochhammer_inf, q_binomial
from .verify import SUITES, VerificationReport, VerifyConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "BaileyPair",
    "BoundExceededError",
    "CountTable",
    "FrobeniusSymbol",
    "GaussInt",
    "I",
    "INF",
    "LatticePath",
    "Monomial",
    "Overpartition",
    "OverpartitionPair",
    "SUITES",
    "TruncatedSeries",
    "VerificationReport",
    "VerifyConfig",
    "bailey_lattice_sides",
    "bailey_pair_b3",
    "bailey_pair_e3",
    "bailey_relation_mismatch",
    "is_ki_admissible",
    "is_self_ki_conjugate",
    "jacobi_triple_product",
    "joichi_stanton",
    "joichi_stanton_inverse",
    "k_conjugate",
    "mono",
    "multisum_admissible",
    "multisum_self_conjugate",
    "path_to_symbol",
    "pochhammer_inf",
    "q_binomial",
    "q_gauss_sides",
    "run_suite",
    "series_H_tilde",
    "series_J_tilde",
    "series_R",
    "series_R_bilateral",
    "series_R_tilde",
    "series_R_tilde_bilateral",
    "successive_ranks",
    "symbol_to_path",
]
