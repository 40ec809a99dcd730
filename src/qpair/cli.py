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

from .counts import BoundExceededError, CountTable
from .durfee import count_admissible, count_self_conjugate, is_ki_admissible, is_self_ki_conjugate, k_conjugate
from .frobenius import (
    FrobeniusSymbol,
    count_rank_bounded,
    joichi_stanton,
    joichi_stanton_inverse,
    rank_interval,
    successive_ranks,
    symbols_of,
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
from .overpartitions import count_frequency_pairs, pairs_of
from .paths import LatticePath, count_paths, enumerate_paths
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
    head, _, tail = expr.partition("*")
    if head.startswith("q^") or head == "q":
        head, tail = "1", head
    if head not in units:
        raise ValueError(f"bad substitution coefficient {head!r} (use 0, 1, -1, i, -i)")
    shift = 0
    if tail:
        if tail == "q":
            shift = 1
        elif tail.startswith("q^"):
            shift = int(tail[2:])
        else:
            raise ValueError(f"bad substitution q-power {tail!r} (use q^INT)")
    return units[head], shift


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


SERIES_FAMILIES = (
    "R", "Rtilde", "Htilde", "Jtilde",
    "bilateral-R", "bilateral-Rtilde", "multisum-D", "multisum-Dtilde",
)


def cmd_series(args) -> int:
    k, i = args.k, args.i
    c = _setting(args.cutoff, "--cutoff", "QPAIR_CUTOFF", 12, 1)
    builders = {
        "R": lambda: series_R(k, i, c, var_cap=args.var_cap, x_one=args.x_one),
        "Rtilde": lambda: series_R_tilde(k, i, c, var_cap=args.var_cap, x_one=args.x_one),
        "Htilde": lambda: series_H_tilde(k, i, c, var_cap=args.var_cap),
        "Jtilde": lambda: series_J_tilde(k, i, c, var_cap=args.var_cap),
        "bilateral-R": lambda: series_R_bilateral(k, i, c, var_cap=args.var_cap),
        "bilateral-Rtilde": lambda: series_R_tilde_bilateral(k, i, c, var_cap=args.var_cap),
        "multisum-D": lambda: multisum_admissible(k, i, c, var_cap=args.var_cap),
        "multisum-Dtilde": lambda: multisum_self_conjugate(k, i, c, var_cap=args.var_cap),
    }
    series = builders[args.family]()
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
        _emit(args, _dump(series.to_obj()))
    return 0


ENUM_FAMILIES = ("B", "Btilde", "C", "Ctilde", "D", "Dtilde", "E", "Etilde", "pairs", "symbols", "paths")
_NEEDS_KI = {"B", "Btilde", "C", "Ctilde", "D", "Dtilde", "E", "Etilde", "paths"}


def _pair_obj(pair) -> dict:
    return {
        "lam": [{"size": s, "over": o} for s, o in pair.lam.parts],
        "mu": [{"size": s, "over": o} for s, o in pair.mu.parts],
    }


def _enum_objects(args) -> list:
    fam, n, k, i = args.family, args.n, args.k, args.i
    if fam == "pairs":
        return [_pair_obj(p) for p in pairs_of(n)]
    if fam == "symbols":
        return [f.to_obj() for f in symbols_of(n)]
    if fam in ("B", "Btilde"):
        parity = fam.endswith("tilde")
        pred = (lambda p: p.satisfies_parity_conditions(k, i)) if parity else (
            lambda p: p.satisfies_frequency_conditions(k, i))
        return [_pair_obj(p) for p in pairs_of(n) if pred(p)]
    if fam in ("C", "Ctilde"):
        lo, hi = rank_interval(k, i, tilde=fam.endswith("tilde"))
        return [
            f.to_obj()
            for f in symbols_of(n)
            if all(lo <= r <= hi for r in successive_ranks(f))
        ]
    if fam == "D":
        return [f.to_obj() for f in symbols_of(n) if is_ki_admissible(f, k, i)]
    if fam == "Dtilde":
        return [f.to_obj() for f in symbols_of(n) if is_self_ki_conjugate(f, k, i)]
    if fam in ("E", "Etilde", "paths"):
        even = fam == "Etilde"
        return [p.to_obj() for p in enumerate_paths(k, i, n, even=even, bound=args.bound)]
    raise ValueError(f"unknown family {fam!r}")


def _enum_table(args) -> CountTable:
    fam, n, k, i, bound = args.family, args.n, args.k, args.i, args.bound
    if fam == "B":
        return count_frequency_pairs(k, i, n, bound=bound)
    if fam == "Btilde":
        return count_frequency_pairs(k, i, n, parity=True, bound=bound)
    if fam == "C":
        return count_rank_bounded(k, i, n, bound=bound)
    if fam == "Ctilde":
        return count_rank_bounded(k, i, n, tilde=True, bound=bound)
    if fam == "D":
        return count_admissible(k, i, n, bound=bound)
    if fam == "Dtilde":
        return count_self_conjugate(k, i, n, bound=bound)
    if fam in ("E", "paths"):
        return count_paths(k, i, n, bound=bound)
    if fam == "Etilde":
        return count_paths(k, i, n, even=True, bound=bound)
    if fam == "pairs":
        table = CountTable(n)
        for m in range(n + 1):
            for p in pairs_of(m):
                table.add(p.s_stat(), p.t_stat(), m)
        return table
    if fam == "symbols":
        table = CountTable(n)
        for m in range(n + 1):
            for f in symbols_of(m):
                table.add(f.s_stat(), f.t_stat(), m)
        return table
    raise ValueError(f"unknown family {fam!r}")


def cmd_enumerate(args) -> int:
    if args.family in _NEEDS_KI and (args.k is None or args.i is None):
        raise ValueError(f"family {args.family} needs -k and -i")
    if args.n < 0:
        raise ValueError(f"-n must be at least 0, got {args.n}")
    limit = args.bound if args.bound is not None else _env_int("QPAIR_BOUND", 14)
    if args.n > limit:
        raise BoundExceededError(f"n={args.n} exceeds the enumeration bound {limit}")
    args.bound = limit
    if args.mode == "objects":
        objs = _enum_objects(args)
        if args.format == "csv":
            raise ValueError("objects mode only supports --format json")
        _emit(args, _dump({"family": args.family, "n": args.n, "objects": objs}))
    else:
        table = _enum_table(args)
        if args.format == "csv":
            _emit(args, table.to_csv())
        else:
            _emit(args, _dump(table.to_obj()))
    return 0


BIJECT_MAPS = ("path-to-symbol", "symbol-to-path", "k-conjugate", "joichi-stanton", "js-inverse")


def _row_from_obj(obj) -> list[tuple[int, bool]]:
    return [(t["size"], t["over"]) for t in obj]


def cmd_biject(args) -> int:
    from .paths import path_to_symbol, symbol_to_path

    payload = json.load(sys.stdin)
    if args.map == "path-to-symbol":
        out = path_to_symbol(LatticePath.from_obj(payload), args.k, args.i).to_obj()
    elif args.map == "symbol-to-path":
        out = symbol_to_path(FrobeniusSymbol.from_obj(payload), args.k, args.i).to_obj()
    elif args.map == "k-conjugate":
        out = k_conjugate(FrobeniusSymbol.from_obj(payload), args.k).to_obj()
    elif args.map == "joichi-stanton":
        assoc, marks = joichi_stanton(_row_from_obj(payload))
        out = {"associated": list(assoc), "marks": list(marks)}
    elif args.map == "js-inverse":
        row = joichi_stanton_inverse(payload["associated"], payload["marks"])
        out = [{"size": s, "over": o} for s, o in row]
    else:
        raise ValueError(f"unknown map {args.map!r}")
    _emit(args, _dump(out))
    return 0


def cmd_verify(args) -> int:
    names = args.suite or ["all"]
    if "all" in names:
        names = list(SUITES)
    ks = tuple(args.k) if args.k else _env_ks((2, 3, 4))
    cfg = VerifyConfig(
        k_values=ks,
        cutoff=_setting(args.cutoff, "--cutoff", "QPAIR_CUTOFF", 12, 1),
        n_max=_setting(args.n_max, "--n-max", "QPAIR_NMAX", 10, 0),
        deep=args.deep,
    )
    reports = [run_suite(name, cfg) for name in names]
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
    p.add_argument("--var-cap", type=int, default=None)
    p.add_argument("--x-one", action="store_true", help="build at x = 1")
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
    p_verify.add_argument("--deep", action="store_true", help="double the bounds")
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
