"""Command-line interface: series tables, enumeration, bijections, verification.

Configuration precedence is flags, then QPAIR_* environment variables, then
built-in defaults.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 enumeration bound exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .counts import DEFAULT_BOUND, BoundExceededError, check_bound, tally
from .durfee import (
    admissible_symbols,
    count_admissible,
    count_self_conjugate,
    k_conjugate,
    self_conjugate_symbols,
)
from .frobenius import (
    FrobeniusSymbol,
    count_rank_bounded,
    joichi_stanton,
    joichi_stanton_inverse,
    rank_bounded_symbols,
    row_from_obj,
    symbols_up_to,
)
from .gaussint import GaussInt
from .hyperg import (
    multisum_admissible,
    multisum_self_conjugate,
    series_H_tilde,
    series_J_tilde,
    series_R,
    series_R_bilateral,
    series_R_tilde,
    series_R_tilde_bilateral,
)
from .overpartitions import count_frequency_pairs, frequency_pairs, pairs_up_to
from .paths import LatticePath, count_paths, paths_up_to
from .series import TruncatedSeries
from .verify import SUITES, VerifyConfig, run_suite


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not an integer") from None


def _env_ks(default: tuple[int, ...]) -> tuple[int, ...]:
    raw = os.environ.get("QPAIR_KSET")
    if not raw:
        return default
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"QPAIR_KSET={raw!r} is not a comma-separated list of integers") from None


def _setting(flag_value: int | None, flag: str, env: str, default: int, minimum: int) -> int:
    """A flag's value, else the environment's, else the default; a value
    below ``minimum`` would check nothing and is a usage error."""
    value = flag_value if flag_value is not None else _env_int(env, default)
    if value < minimum:
        raise ValueError(f"{flag} (or {env}) must be at least {minimum}, got {value}")
    return value


def _parse_sub(expr: str) -> tuple:
    """Parse a substitution like '1', '-i', 'q^-1', 'i*q^2' into (unit, shift)."""
    units = {"0": 0, "1": 1, "-1": -1, "i": GaussInt(0, 1), "-i": GaussInt(0, -1)}
    head, star, tail = expr.partition("*")
    if not star and (head.startswith("q^") or head == "q"):
        head, star, tail = "1", "*", head
    if head not in units:
        raise ValueError(f"bad substitution coefficient {head!r} (use 0, 1, -1, i, -i)")
    if not star:
        return units[head], 0
    exponent = "1" if tail == "q" else tail[2:] if tail.startswith("q^") else ""
    try:
        return units[head], int(exponent)
    except ValueError:
        raise ValueError(f"bad substitution q-power {tail!r} (use q^INT)") from None


def _series_to_csv(series: TruncatedSeries) -> str:
    from .gaussint import as_pair

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["a", "b", "x", "q", "re", "im"])
    for (a, b, x, q), c in series.sorted_terms():
        re, im = as_pair(c)
        w.writerow([a, b, x, q, re, im])
    return buf.getvalue()


def _emit(args, text: str) -> None:
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# family -> builder(k, i, cutoff).  The lambdas look the builders up
# when called, never at import.
SERIES_FAMILIES = {
    "R": lambda k, i, c: series_R(k, i, c),
    "Rtilde": lambda k, i, c: series_R_tilde(k, i, c),
    "Htilde": lambda k, i, c: series_H_tilde(k, i, c),
    "Jtilde": lambda k, i, c: series_J_tilde(k, i, c),
    "bilateral-R": lambda k, i, c: series_R_bilateral(k, i, c),
    "bilateral-Rtilde": lambda k, i, c: series_R_tilde_bilateral(k, i, c),
    "multisum-D": lambda k, i, c: multisum_admissible(k, i, c),
    "multisum-Dtilde": lambda k, i, c: multisum_self_conjugate(k, i, c),
}


def cmd_series(args) -> int:
    c = _setting(args.cutoff, "--cutoff", "QPAIR_CUTOFF", 12, 1)
    series = SERIES_FAMILIES[args.family](args.k, args.i, c)
    subs = {}
    for name in ("a", "b", "x"):
        expr = getattr(args, f"sub_{name}")
        if expr is not None:
            subs[f"sub_{name}"] = _parse_sub(expr)
    if subs or args.q_power != 1:
        slack = {}
        for name in ("a", "b", "x"):
            val = getattr(args, f"slack_{name}")
            if val is not None:
                slack[name] = val
        series = series.specialize(q_power=args.q_power, slack=slack or None, **subs)
    if args.format == "csv":
        _emit(args, _series_to_csv(series))
    else:
        _emit(args, series.to_json())
    return 0


# family -> (stream of (weight, object) members up to weight n, the family's
# count table up to weight n under a bound, or None to tally the stream).
# Each object lists itself by its ``to_obj``.  The lambdas look the functions
# up when called, never at import.
# ``paths`` is another name for the E entry itself.
_E_FAMILY = (lambda k, i, n: paths_up_to(k, i, n),
             lambda k, i, n, bound: count_paths(k, i, n, bound=bound))
ENUM_FAMILIES = {
    "B": (lambda k, i, n: frequency_pairs(k, i, n),
          lambda k, i, n, bound: count_frequency_pairs(k, i, n, bound=bound)),
    "Btilde": (lambda k, i, n: frequency_pairs(k, i, n, parity=True),
               lambda k, i, n, bound: count_frequency_pairs(k, i, n, parity=True, bound=bound)),
    "C": (lambda k, i, n: rank_bounded_symbols(k, i, n),
          lambda k, i, n, bound: count_rank_bounded(k, i, n, bound=bound)),
    "Ctilde": (lambda k, i, n: rank_bounded_symbols(k, i, n, tilde=True),
               lambda k, i, n, bound: count_rank_bounded(k, i, n, tilde=True, bound=bound)),
    "D": (lambda k, i, n: admissible_symbols(k, i, n),
          lambda k, i, n, bound: count_admissible(k, i, n, bound=bound)),
    "Dtilde": (lambda k, i, n: self_conjugate_symbols(k, i, n),
               lambda k, i, n, bound: count_self_conjugate(k, i, n, bound=bound)),
    "E": _E_FAMILY,
    "Etilde": (lambda k, i, n: paths_up_to(k, i, n, even=True),
               lambda k, i, n, bound: count_paths(k, i, n, even=True, bound=bound)),
    "pairs": (lambda k, i, n: pairs_up_to(n), None),
    "symbols": (lambda k, i, n: symbols_up_to(n), None),
    "paths": _E_FAMILY,
}


def cmd_enumerate(args) -> int:
    if args.family not in ("pairs", "symbols") and (args.k is None or args.i is None):
        raise ValueError(f"family {args.family} needs -k and -i")
    args.bound = _setting(args.bound, "--bound", "QPAIR_BOUND", DEFAULT_BOUND, 0)
    check_bound(args.n, args.bound)
    if args.mode == "objects" and args.format == "csv":
        raise ValueError("objects mode only supports --format json")
    stream, count = ENUM_FAMILIES[args.family]
    if args.mode == "objects":
        objs = [obj.to_obj() for m, obj in stream(args.k, args.i, args.n) if m == args.n]
        _emit(args, _dump({"family": args.family, "n": args.n, "objects": objs}))
    else:
        if count is None:
            table = tally(stream(args.k, args.i, args.n), args.n)
        else:
            table = count(args.k, args.i, args.n, args.bound)
        _emit(args, table.to_csv() if args.format == "csv" else table.to_json())
    return 0


# Each map with the flags it needs.
BIJECT_MAPS = {
    "path-to-symbol": ("k", "i"), "symbol-to-path": ("k", "i"), "k-conjugate": ("k",),
    "joichi-stanton": (), "js-inverse": (),
}


def cmd_biject(args) -> int:
    from .paths import path_to_symbol, symbol_to_path

    missing = [f"-{flag}" for flag in BIJECT_MAPS[args.map] if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"--map {args.map} needs {' and '.join(missing)}")
    payload = json.load(sys.stdin)
    try:
        if args.map == "path-to-symbol":
            out = path_to_symbol(LatticePath.from_obj(payload), args.k, args.i).to_obj()
        elif args.map == "symbol-to-path":
            out = symbol_to_path(FrobeniusSymbol.from_obj(payload), args.k, args.i).to_obj()
        elif args.map == "k-conjugate":
            out = k_conjugate(FrobeniusSymbol.from_obj(payload), args.k).to_obj()
        elif args.map == "joichi-stanton":
            assoc, marks = joichi_stanton(row_from_obj(payload))
            out = {"associated": list(assoc), "marks": list(marks)}
        else:
            row = joichi_stanton_inverse(payload["associated"], payload["marks"])
            out = [{"size": s, "over": o} for s, o in row]
    except (TypeError, IndexError) as exc:
        # The JSON parsed but has the wrong shape for this map.
        raise ValueError(f"--map {args.map} cannot read its input: {exc}") from None
    _emit(args, _dump(out))
    return 0


def cmd_verify(args) -> int:
    names = args.suite or ["all"]
    if "all" in names:
        names = list(SUITES)
    ks = tuple(args.k) if args.k else _env_ks((2, 3, 4))
    if low := [k for k in ks if k < 2]:
        # The paper's families need k >= 2; a suite would skip or misread a lower k.
        raise ValueError(f"-k (or QPAIR_KSET) must be at least 2, got {low[0]}")
    cutoff = _setting(args.cutoff, "--cutoff", "QPAIR_CUTOFF", 12, 1)
    n_max = _setting(args.n_max, "--n-max", "QPAIR_NMAX", 10, 0)
    if args.deep:
        cutoff, n_max = 2 * cutoff, 2 * n_max
    cfg = VerifyConfig(k_values=ks, cutoff=cutoff, n_max=n_max)
    reports = [run_suite(name, cfg) for name in names]
    for r in reports:
        if not r.checks_run:
            raise ValueError(f"suite {r.suite} runs no checks for k in {list(ks)}")
    ok = all(r.ok for r in reports)
    payload = {"ok": ok, "reports": [r.to_obj() for r in reports]}
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["suite", "checks_run", "failures", "ok"])
        for r in reports:
            w.writerow([r.suite, r.checks_run, len(r.failures), r.ok])
        _emit(args, buf.getvalue())
    else:
        _emit(args, json.dumps(payload, sort_keys=True, indent=1))
    return 0 if ok else 1


def _add_common_series_args(p):
    p.add_argument("--family", required=True, choices=SERIES_FAMILIES)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--sub-a", default=None, metavar="EXPR", help="substitute a (e.g. 1, -i, q^-1)")
    p.add_argument("--sub-b", default=None, metavar="EXPR")
    p.add_argument("--sub-x", default=None, metavar="EXPR")
    p.add_argument("--q-power", type=int, default=1)
    p.add_argument("--slack-a", type=int, default=None, help="degree slack bound for a negative q-shift")
    p.add_argument("--slack-b", type=int, default=None)
    p.add_argument("--slack-x", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_common_enum_args(p):
    p.add_argument("--family", required=True, choices=ENUM_FAMILIES)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("-i", type=int, default=None)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--mode", choices=("count-table", "objects"), default="count-table")
    p.add_argument("--bound", type=int, default=None, help="enumeration bound override")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpair",
        description="Exact series tables, enumeration, bijections, and identity verification "
        "for overpartition-pair families.",
        epilog="Environment defaults: QPAIR_CUTOFF, QPAIR_NMAX, QPAIR_BOUND, QPAIR_KSET "
        "(flags take precedence).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="print a truncated series")
    _add_common_series_args(p_series)
    p_series.set_defaults(fn=cmd_series, out=None)

    p_enum = sub.add_parser("enumerate", help="count tables or object listings")
    _add_common_enum_args(p_enum)
    p_enum.set_defaults(fn=cmd_enumerate, out=None)

    p_biject = sub.add_parser("biject", help="apply a bijection to JSON on stdin")
    p_biject.add_argument("--map", required=True, choices=BIJECT_MAPS)
    p_biject.add_argument("-k", type=int, default=None)
    p_biject.add_argument("-i", type=int, default=None)
    p_biject.set_defaults(fn=cmd_biject, out=None)

    p_verify = sub.add_parser("verify", help="run identity-verification suites")
    p_verify.add_argument("--suite", action="append", choices=sorted(SUITES) + ["all"],
                          help="suite name (repeatable; default all)")
    p_verify.add_argument("-k", type=int, action="append")
    p_verify.add_argument("--cutoff", type=int, default=None)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--deep", action="store_true", help="double --cutoff and --n-max")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(fn=cmd_verify, out=None)

    p_export = sub.add_parser("export", help="write series or enumeration output to a file")
    export_sub = p_export.add_subparsers(dest="what", required=True)
    pe_series = export_sub.add_parser("series")
    _add_common_series_args(pe_series)
    pe_series.add_argument("--out", required=True)
    pe_series.set_defaults(fn=cmd_series)
    pe_enum = export_sub.add_parser("enumerate")
    _add_common_enum_args(pe_enum)
    pe_enum.add_argument("--out", required=True)
    pe_enum.set_defaults(fn=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
