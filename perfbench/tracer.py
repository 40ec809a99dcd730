"""Per-layer tracing of one in-process ``qpair verify`` call.

Usage (``run.py --trace 1`` starts it in a fresh interpreter)::

    python3 perfbench/tracer.py SRC_DIR verify [VERIFY ARGS...]

The public functions of each layer module are wrapped from here; nothing
inside ``src/qpair`` is instrumented.  A wrapper replaces every ``qpair.*``
module attribute bound to the function, because modules import names with
``from .hyperg import series_R``; methods are replaced on their classes.
A name that no longer exists raises, so a rename cannot silently drop a
metric.  Spans are aggregated in memory per name (calls, total time, self
time) and written once, as the last line of standard output::

    {"exit": 0, "stdout": "<verify JSON>", "metrics": {"series.mul.calls": [123, "count"], ...}}

A span's self time is its duration minus the time of the spans it encloses.
Work a probe does after a call (counting terms or objects) is charged to no
span.  ``cadd``/``cmul`` run per coefficient product and are too hot to
wrap, so coefficient statistics are read from the series compared by
``first_mismatch``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import time

HYPERG_BUILDERS = (
    "series_R", "series_R_tilde", "series_H_tilde", "series_J_tilde",
    "series_R_bilateral", "series_R_tilde_bilateral", "bailey_pair_b3", "bailey_pair_e3",
    "bailey_lattice_sides", "multisum_admissible", "multisum_self_conjugate",
    "q_gauss_sides", "jacobi_triple_product",
)
SMALL_OPERAND_TERMS = 8


class Tracer:
    """Aggregated spans: name -> [calls, total seconds, self seconds]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}
        self._open: list[float] = []  # time covered by child spans, per open span

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, kwargs, result, seconds)``
        runs once the span has closed."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._open
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            elapsed = None
            try:
                result = fn(*args, **kwargs)
                elapsed = clock() - start
                if after is not None:
                    after(args, kwargs, result, elapsed)
                return result
            finally:
                covered = clock() - start
                if elapsed is None:
                    elapsed = covered
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += covered

        return traced

    def calls(self, name: str) -> int:
        return self.spans[name][0]

    def total_s(self, name: str) -> float:
        return self.spans[name][1]

    def self_s(self, name: str) -> float:
        return self.spans[name][2]


def rebind(orig, wrapped) -> None:
    """Point every ``qpair.*`` module attribute bound to ``orig`` at ``wrapped``."""
    found = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "qpair" or mod_name.startswith("qpair.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)
                found += 1
    if not found:
        raise LookupError(f"{orig!r} is bound in no qpair module")


def _lookup(module, name: str):
    fn = getattr(module, name, None)
    if not callable(fn):
        raise LookupError(f"{module.__name__}.{name} is missing")
    return fn


class LayerTrace:
    """Installs the layer wrappers on the imported ``qpair`` package and
    turns the spans and counters into per-layer metrics."""

    def __init__(self, tracer: Tracer):
        from qpair import (cli, counts, durfee, frobenius, gaussint, hyperg, overpartitions, paths,
                           qtools, series, verify)

        self.tracer = tracer
        self.gauss_type = gaussint.GaussInt
        self.mul_small_s = 0.0
        self.mul_term_pairs = 0
        self.coeffs = self.complex_coeffs = self.max_bits = 0
        self.objects = {"pairs": 0, "symbols": 0, "paths": 0}
        self.accept = {"overpartitions": [0, 0], "frobenius": [0, 0], "durfee": [0, 0]}
        self.tables = set()
        self.paths_seen = set()
        self.tables_built = self.tables_rebuilt = 0
        self.suite_checks = {name: 0 for name in verify.SUITES}

        TS = series.TruncatedSeries
        self._method(TS, "__mul__", "series.mul", self._after_mul)
        self._method(TS, "times_monomial", "series.times_monomial")
        self._method(TS, "__add__", "series.add")
        self._method(TS, "invert", "series.invert")
        self._method(TS, "specialize", "series.specialize")
        self._method(TS, "first_mismatch", "series.first_mismatch", self._after_series_compare)
        for name in ("geometric", "pochhammer_inf", "qproduct", "q_binomial"):
            self._function(series, name, "series.products")

        self.f_poly = self._function(qtools, "f_poly", "qtools.f_poly")
        self.inv_qfactors = self._function(qtools, "inv_qfactors", "qtools.inv_qfactors")

        for name in HYPERG_BUILDERS:
            self._function(hyperg, name, f"hyperg.{name}")

        self._function(overpartitions, "pairs_of", "overpartitions.pairs_of",
                       self._objects_after("pairs"))
        self._count_function(overpartitions, "count_frequency_pairs",
                             "overpartitions.count_frequency_pairs")
        for name in ("satisfies_frequency_conditions", "satisfies_parity_conditions"):
            self._method(overpartitions.OverpartitionPair, name, "overpartitions.predicates",
                         self._predicate_after("overpartitions"))

        self.symbols_of = self._function(frobenius, "symbols_of", "frobenius.symbols_of",
                                         self._objects_after("symbols"))
        self._count_function(frobenius, "count_rank_bounded", "frobenius.count_rank_bounded",
                             self._rank_accept)
        self._function(frobenius, "joichi_stanton", "frobenius.joichi_stanton")

        for name in ("count_admissible", "count_self_conjugate"):
            self._count_function(durfee, name, f"durfee.{name}")
        for name in ("is_ki_admissible", "is_self_ki_conjugate"):
            self._function(durfee, name, f"durfee.{name}", self._predicate_after("durfee"))

        self.paths_up_to = _lookup(paths, "_paths_up_to")
        self._count_function(paths, "count_paths", "paths.count_paths", self._paths_enumerated)
        for name in ("gf_recurrence", "gf_gamma_recurrence", "gf_closed", "gf_gamma_closed"):
            self._function(paths, name, "paths.gf")

        from_series = inspect.getattr_static(counts.CountTable, "from_series")
        if not isinstance(from_series, classmethod):
            raise LookupError("CountTable.from_series is no longer a classmethod")
        counts.CountTable.from_series = classmethod(
            tracer.wrap("counts.from_series", from_series.__func__))
        self._method(counts.CountTable, "first_mismatch", "counts.first_mismatch")

        run_suite = _lookup(verify, "run_suite")
        per_suite = {
            name: tracer.wrap(f"verify.{name}", run_suite, self._checks_after(name))
            for name in verify.SUITES
        }
        rebind(run_suite, lambda name, cfg: per_suite[name](name, cfg))

        main = _lookup(cli, "main")
        rebind(main, tracer.wrap("cli", main))

    # -- installation ------------------------------------------------------

    def _function(self, module, name: str, span: str, after=None):
        """Wrap ``module.name`` everywhere it is bound; returns the original."""
        orig = _lookup(module, name)
        rebind(orig, self.tracer.wrap(span, orig, after))
        return orig

    def _method(self, cls, name: str, span: str, after=None) -> None:
        orig = cls.__dict__.get(name)
        if not callable(orig):
            raise LookupError(f"{cls.__name__}.{name} is missing")
        setattr(cls, name, self.tracer.wrap(span, orig, after))

    # -- probes ------------------------------------------------------------

    def _after_mul(self, args, kwargs, result, seconds):
        n, m = len(args[0].terms), len(args[1].terms)
        self.mul_term_pairs += n * m
        if min(n, m) <= SMALL_OPERAND_TERMS:
            self.mul_small_s += seconds

    def _after_series_compare(self, args, kwargs, result, seconds):
        gauss = self.gauss_type
        for s in args[:2]:
            for c in s.terms.values():
                self.coeffs += 1
                if type(c) is gauss:
                    self.complex_coeffs += 1
                    bits = max(abs(c.re).bit_length(), abs(c.im).bit_length())
                else:
                    bits = abs(c).bit_length()
                if bits > self.max_bits:
                    self.max_bits = bits

    def _objects_after(self, family: str):
        seen = set()

        def after(args, kwargs, result, seconds):
            if args not in seen:  # an unbounded lru_cache builds each weight once
                seen.add(args)
                self.objects[family] += len(result)
        return after

    def _predicate_after(self, layer: str):
        tally = self.accept[layer]

        def after(args, kwargs, result, seconds):
            tally[0] += bool(result)
            tally[1] += 1
        return after

    def _count_function(self, module, name: str, span: str, then=None) -> None:
        """Wrap a ``count_*`` table builder; a call whose arguments were
        already built in this run is a rebuild.  ``then(params, table)``
        runs after the bookkeeping."""
        signature = inspect.signature(_lookup(module, name))

        def after(args, kwargs, result, seconds):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            params = dict(call.arguments)
            params.pop("bound")  # only a limit check: the table does not depend on it
            key = (span, tuple(sorted(params.items())))
            self.tables_built += 1
            self.tables_rebuilt += key in self.tables
            self.tables.add(key)
            if then is not None:
                then(params, result)

        self._function(module, name, span, after)

    def _rank_accept(self, params, table):
        tally = self.accept["frobenius"]
        tally[0] += sum(table.entries.values())
        tally[1] += sum(len(self.symbols_of(n)) for n in range(params["n_max"] + 1))

    def _paths_enumerated(self, params, table):
        key = (params["k"], params["i"], params["n_max"])
        if key not in self.paths_seen:  # _paths_up_to is an unbounded lru_cache
            self.paths_seen.add(key)
            self.objects["paths"] += len(self.paths_up_to(*key))

    def _checks_after(self, suite: str):
        def after(args, kwargs, result, seconds):
            self.suite_checks[suite] += result.checks_run
        return after

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple]:
        t = self.tracer
        out: dict[str, tuple] = {}

        def span(name: str):
            out[f"{name}.calls"] = (t.calls(name), "count")
            out[f"{name}.self_s"] = (t.self_s(name), "s")

        def ratio(num, den):
            return num / den if den else 0.0

        span("series.mul")
        out["series.mul.small_s"] = (self.mul_small_s, "s")
        out["series.mul.term_pairs"] = (self.mul_term_pairs, "count")
        for name in ("times_monomial", "add", "invert", "specialize", "first_mismatch", "products"):
            span(f"series.{name}")
        out["series.max_coeff_bits"] = (self.max_bits, "bits")
        out["gaussint.complex_share"] = (ratio(self.complex_coeffs, self.coeffs), "ratio")

        for name, fn in (("f_poly", self.f_poly), ("inv_qfactors", self.inv_qfactors)):
            info = fn.cache_info()
            out[f"qtools.{name}.hits"] = (info.hits, "count")
            out[f"qtools.{name}.misses"] = (info.misses, "count")
            out[f"qtools.{name}.self_s"] = (t.self_s(f"qtools.{name}"), "s")

        for name in HYPERG_BUILDERS:
            span(f"hyperg.{name}")

        out["overpartitions.pairs_of.self_s"] = (t.self_s("overpartitions.pairs_of"), "s")
        out["overpartitions.pairs_of.objects"] = (self.objects["pairs"], "count")
        span("overpartitions.count_frequency_pairs")
        span("overpartitions.predicates")
        out["overpartitions.accept_ratio"] = (ratio(*self.accept["overpartitions"]), "ratio")

        out["frobenius.symbols_of.self_s"] = (t.self_s("frobenius.symbols_of"), "s")
        out["frobenius.symbols_of.objects"] = (self.objects["symbols"], "count")
        span("frobenius.count_rank_bounded")
        span("frobenius.joichi_stanton")
        out["frobenius.accept_ratio"] = (ratio(*self.accept["frobenius"]), "ratio")

        for name in ("count_admissible", "count_self_conjugate", "is_ki_admissible",
                     "is_self_ki_conjugate"):
            span(f"durfee.{name}")
        out["durfee.accept_ratio"] = (ratio(*self.accept["durfee"]), "ratio")

        span("paths.count_paths")
        out["paths.paths_enumerated"] = (self.objects["paths"], "count")
        span("paths.gf")

        span("counts.from_series")
        span("counts.first_mismatch")
        out["counts.tables_built"] = (self.tables_built, "count")
        out["counts.tables_rebuilt"] = (self.tables_rebuilt, "count")

        for suite, checks in self.suite_checks.items():
            out[f"verify.{suite}.s"] = (t.total_s(f"verify.{suite}"), "s")
            out[f"verify.{suite}.checks"] = (checks, "count")
        out["cli.self_s"] = (t.self_s("cli"), "s")
        return out


def main(argv: list[str]) -> int:
    src, verify_args = argv[0], argv[1:]
    sys.path.insert(0, src)
    import qpair.cli

    if not qpair.cli.__file__.startswith(src):
        raise ImportError(f"qpair imported from {qpair.cli.__file__}, not {src}")
    layers = LayerTrace(Tracer())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qpair.cli.main(verify_args)
    metrics = layers.metrics()
    print(json.dumps({"exit": code, "stdout": buf.getvalue(),
                      "metrics": {name: list(pair) for name, pair in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
