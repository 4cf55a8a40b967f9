"""Command-line interface.

Three subcommands:

* ``coeff``  - compute Taylor coefficients; JSON lines (default) or a table.
* ``trace``  - export the per-term summation trace of one coefficient as CSV.
* ``verify`` - run the self-check suites and print one PASS/FAIL line each.

Exit codes: 0 success, 1 verification failure (or --verify delta too
large), 2 domain error, 64 bad usage, 73 unwritable output file.  Output
is deterministic: identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

import mpmath

from .coefficients import (
    DEFAULT_DIGITS,
    DEFAULT_MAX_TERMS,
    FAMILIES,
    CoefficientQuery,
    compute_coefficient,
)
from .reference import taylor_coefficients
from .summation import working_precision

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_CANTCREAT = 73


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read "-2/7" and "-1e3" as values, not flags; no option of this
        # parser starts with "-" followed by a digit or "."
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # bad flags -> 64, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a decimal or p/q rational, got {text!r}"
        )


def _n_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            return list(range(lo_i, hi_i + 1))
        return [int(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or lo..hi range, got {text!r}"
        )


class _Suites:
    """The choices of --suite (`in` iterates them), read from the registry
    of `verification` only when --suite is parsed or shown."""

    def __iter__(self):
        from .verification import available_suites
        return iter(available_suites())

    def __str__(self) -> str:  # the metavar argparse would make from the choices
        return "{%s}" % ",".join(self)


def _fmt_number(x, digits: int) -> str:
    return mpmath.nstr(x, digits, strip_zeros=True)


def _build_parser() -> _Parser:
    parser = _Parser(prog="zetataylor", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--family", required=True, choices=FAMILIES)
        p.add_argument("--n", required=True, type=_n_range, help="index k or range lo..hi")
        p.add_argument("--a", type=_fraction, default=None, help="shift a > 0 (decimal or p/q)")
        p.add_argument("--lambda", dest="lam", type=_fraction, default=None,
                       help="lerch multiplier, |lambda| <= 1, lambda != 1")
        p.add_argument("--digits", type=int)
        p.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)

    coeff = sub.add_parser("coeff", help="compute coefficients")
    add_common(coeff)
    coeff.add_argument("--verify", action="store_true",
                       help="also compute every n of the range from the power-series "
                            "Euler-Maclaurin / Lerch-sum reference and compare; exit 1 "
                            "if a delta exceeds the combined error estimates")
    coeff.add_argument("--format", choices=["json", "table"], default="json")

    trace = sub.add_parser("trace", help="export a per-term summation trace as CSV")
    add_common(trace)
    trace.add_argument("--out", required=True, help="output CSV path")

    verify = sub.add_parser("verify", help="run self-check suites")
    suite = verify.add_argument("--suite", choices=_Suites(), metavar="SUITE", default="all")
    suite.metavar = suite.choices  # after add_argument, which formats the metavar once
    verify.add_argument("--digits", type=int)
    return parser


_PARSER = _build_parser()  # --digits is None unless given; `main` fills it in


def _make_queries(args) -> list[CoefficientQuery]:
    """One query per n; CoefficientQuery validates the domain."""
    a = Fraction(1) if args.a is None else args.a
    return [
        CoefficientQuery(args.family, n, a, args.lam, args.digits, args.max_terms,
                         trace=args.command == "trace")
        for n in args.n
    ]


def _cmd_coeff(args) -> int:
    queries = _make_queries(args)
    oracle = None
    if args.verify:  # one reference pass gives every n of the range
        first = queries[0]
        oracle = taylor_coefficients(
            first.family, max(args.n), first.a, first.lam, digits=first.digits
        )
    records = []  # one dict per n: the query echo and the outcome, numbers as decimal strings
    failed = False
    for q in queries:
        result = compute_coefficient(q)
        rec = {
            "family": q.family, "n": q.n, "a": str(q.a),
            "lambda": None if q.lam is None else str(q.lam),
            "digits": q.digits, "max_terms": q.max_terms,
            "value": _fmt_number(result.value, q.digits),
            "error_estimate": _fmt_number(result.error_estimate, q.digits),
            "truncation_index": result.series.truncation_index,
            "terminated_by": result.series.terminated_by,
        }
        if oracle is not None:  # the oracle fields exist exactly when --verify ran
            ref = oracle[q.n]
            with working_precision(q.digits):
                delta = result.value - ref.value
                if abs(delta) > result.error_estimate + ref.error_estimate:
                    failed = True
            rec["oracle_value"] = _fmt_number(ref.value, q.digits)
            rec["oracle_delta"] = _fmt_number(delta, q.digits)
        records.append(rec)
    if args.format == "json":
        for rec in records:
            print(json.dumps(rec))
    else:  # the JSON fields but the precision and budget, in the same order
        table = [{k: "-" if v is None else str(v) for k, v in rec.items()
                  if k not in ("digits", "max_terms")} for rec in records]
        rows = [list(table[0])] + [list(row.values()) for row in table]
        widths = [max(map(len, column)) for column in zip(*rows)]
        for r in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _cmd_trace(args) -> int:
    queries = _make_queries(args)
    if len(queries) != 1:
        raise ValueError("trace exports exactly one coefficient; pass a single --n")
    q = queries[0]
    result = compute_coefficient(q)
    lines = ["k,term,partial_sum"]
    for rec in result.series.trace:
        lines.append(
            f"{rec.k},{_fmt_number(rec.term, q.digits)},{_fmt_number(rec.partial_sum, q.digits)}"
        )
    s = result.series
    lines.append(
        f"# terminated_by={s.terminated_by},truncation_index={s.truncation_index},"
        f"error_estimate={_fmt_number(s.error_estimate, q.digits)}"
    )
    try:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"zetataylor: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verification import run_suite

    ok = run_suite(args.suite, args.digits, sys.stdout)
    print("verify: all checks passed" if ok else "verify: FAILURES above")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    default_digits = DEFAULT_DIGITS
    env = os.environ.get("ZETA_DIGITS")
    if env:
        try:
            default_digits = int(env)
        except ValueError:
            print(f"zetataylor: ignoring non-integer ZETA_DIGITS={env!r}", file=sys.stderr)
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.digits is None:
        args.digits = default_digits
    try:
        if args.command == "coeff":
            return _cmd_coeff(args)
        if args.command == "trace":
            return _cmd_trace(args)
        return _cmd_verify(args)
    except ValueError as exc:
        print(f"zetataylor: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
