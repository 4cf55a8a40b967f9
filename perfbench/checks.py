"""Checks the outputs a worker recorded and scores them against the truth.

An operation fails when it raised, exited with an unexpected code, or gave
output that is malformed or does not echo its inputs.  Every coefficient a
passing operation reports becomes a `Row`; rows of the first `truth_ops`
operations are scored against truth.py: covered (|value - truth| <=
error_estimate), accuracy digits (-log10 |value - truth|) and agreement
with the oracle the user sees (the contour reference on crosscheck, the
truth elsewhere).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

import truth

REASONS = ("minimal_term", "converged", "max_terms")
COEFF_KEYS = ("family", "n", "a", "lambda", "digits", "max_terms", "value",
              "error_estimate", "truncation_index", "terminated_by")
TABLE_HEAD = ["family", "n", "a", "lambda", "value", "error_estimate",
              "truncation_index", "terminated_by"]


class Malformed(ValueError):
    pass


@dataclass
class Row:
    family: str
    n: int
    a: Fraction
    lam: Fraction | None
    digits: int
    value: object  # decimal string or exact [mantissa, exponent]
    error_estimate: object
    truncation_index: int
    terminated_by: str
    oracle_delta: str | None = None
    verdict_ok: bool = False  # the CLI exited 0 after --verify
    covered: bool | None = None
    accuracy: float | None = None
    agree: bool | None = None


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    digest: str = ""
    rows: list = field(default_factory=list)


def exact_input(x) -> Fraction | None:
    """An input as an exact rational: "p/q", {"mpf": float} or
    {"mpf": [mantissa, exponent]}."""
    if x is None:
        return None
    if isinstance(x, dict):
        x = x["mpf"]
        if isinstance(x, list):
            man, exp = x
            return Fraction(man) * Fraction(2) ** exp
        return Fraction(x)
    return Fraction(x)


def number(x) -> mpmath.mpf:
    """A reported number (decimal string or exact pair) at the current
    precision."""
    if isinstance(x, list):
        return mpmath.mpf(tuple(x))
    if not isinstance(x, str):
        raise Malformed(f"not a number: {x!r}")
    v = mpmath.mpf(x)
    if not mpmath.isfinite(v):
        raise Malformed(f"non-finite number {x!r}")
    return v


def _fmt(x, digits: int) -> str:
    return mpmath.nstr(x, digits, strip_zeros=True)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Malformed(what)


def _row_from_record(rec: dict, op: dict, n: int) -> Row:
    _require(all(k in rec for k in COEFF_KEYS), f"missing keys in {sorted(rec)}")
    _require(rec["family"] == op["family"], "family not echoed")
    _require(rec["n"] == n, f"n {rec['n']} where {n} was due")
    _require(rec["a"] == op["a"], f"a {rec['a']} not echoed as {op['a']}")
    _require(rec["lambda"] == op["lam"], f"lambda {rec['lambda']} not echoed as {op['lam']}")
    _require(rec["digits"] == op["digits"], "digits not echoed")
    return _row(op, n, rec["value"], rec["error_estimate"], rec["truncation_index"],
                rec["terminated_by"])


def _row(op, n, value, error_estimate, truncation_index, terminated_by) -> Row:
    _require(terminated_by in REASONS, f"terminated_by {terminated_by!r}")
    _require(isinstance(truncation_index, int) and truncation_index >= n,
             f"truncation_index {truncation_index!r}")
    with mpmath.workdps(op["digits"] + truth.GUARD_DIGITS):
        number(value)
        _require(number(error_estimate) >= 0, "negative error_estimate")
    return Row(op["family"], n, exact_input(op["a"]), exact_input(op.get("lam")), op["digits"],
               value, error_estimate, truncation_index, terminated_by)


def _n_range(op) -> list[int]:
    if "n" in op and isinstance(op["n"], list):
        lo, hi = op["n"]
        return list(range(lo, hi + 1))
    return [op["n"]]


def _json_lines(op: dict, stdout: str, *, oracle: bool) -> list[Row]:
    lines = stdout.splitlines()
    ns = _n_range(op)
    _require(len(lines) == len(ns), f"{len(lines)} lines for {len(ns)} coefficients")
    rows = []
    for line, n in zip(lines, ns):
        try:
            rec = json.loads(line)
        except ValueError:
            raise Malformed(f"not JSON: {line[:80]!r}")
        row = _row_from_record(rec, op, n)
        has_oracle = "oracle_value" in rec or "oracle_delta" in rec
        _require(has_oracle == oracle, "oracle keys present without --verify" if has_oracle
                 else "oracle keys missing under --verify")
        if oracle:
            _require(isinstance(rec["oracle_delta"], str), "null oracle_delta")
            with mpmath.workdps(op["digits"] + truth.GUARD_DIGITS):
                number(rec["oracle_value"])
                number(rec["oracle_delta"])
            row.oracle_delta = rec["oracle_delta"]
        rows.append(row)
    return rows


def _table(op: dict, stdout: str) -> list[Row]:
    lines = stdout.splitlines()
    ns = _n_range(op)
    _require(len(lines) == len(ns) + 1, f"{len(lines)} lines for {len(ns)} coefficients")
    _require(lines[0].split() == TABLE_HEAD, f"table head {lines[0]!r}")
    rows = []
    for line, n in zip(lines[1:], ns):
        cells = line.split()
        _require(len(cells) == len(TABLE_HEAD), f"table row {line!r}")
        fam, n_s, a, lam, value, err, trunc, reason = cells
        rec = {"family": fam, "n": int(n_s), "a": a, "lambda": None if lam == "-" else lam,
               "digits": op["digits"], "max_terms": 0, "value": value, "error_estimate": err,
               "truncation_index": int(trunc), "terminated_by": reason}
        rows.append(_row_from_record(rec, op, n))
    return rows


def _trace_file(op: dict, text: str | None) -> list[Row]:
    _require(text is not None, "trace wrote no file")
    lines = text.splitlines()
    _require(len(lines) >= 3 and lines[0] == "k,term,partial_sum", "trace header")
    n = op["n"][0]
    partial = {}
    for i, line in enumerate(lines[1:-1]):
        k, term, psum = line.split(",")
        _require(int(k) == n + i, f"trace row k={k}")
        partial[int(k)] = psum
    foot = lines[-1]
    _require(foot.startswith("# "), "trace footer")
    meta = dict(item.split("=", 1) for item in foot[2:].split(","))
    trunc = int(meta["truncation_index"])
    _require(trunc in partial, "truncation_index outside the trace")
    with mpmath.workdps(op["digits"] + truth.GUARD_DIGITS):
        value = number(partial[trunc])
        if op["family"] != "lerch":
            value -= 1  # the trace holds the series; the coefficient adds -1
        value = _fmt(value, op["digits"] + truth.GUARD_DIGITS)
    return [_row(op, n, value, meta["error_estimate"], trunc, meta["terminated_by"])]


def _verify_report(stdout: str) -> None:
    lines = stdout.splitlines()
    _require(len(lines) >= 2, "empty verify report")
    bad = [line for line in lines[:-1] if not line.startswith("PASS ")]
    _require(not bad, f"verify check did not pass: {bad[0][:120] if bad else ''}")
    _require(lines[-1] == "verify: all checks passed", f"verify summary {lines[-1]!r}")


def _check(workload: str, op: dict, out: dict) -> Verdict:
    if workload == "series_mix":
        with mpmath.workdps(op["digits"]):
            value = number(out["value"] or "nan")
            err = number(out["error_estimate"] or "nan")
            shown = (f"{_fmt(value, op['digits'])}|{_fmt(err, op['digits'])}|"
                     f"{out['truncation_index']}|{out['terminated_by']}")
        row = _row(op, op["n"], out["value"], out["error_estimate"],
                   out["truncation_index"], out["terminated_by"])
        return Verdict(True, digest=shown, rows=[row])
    code = out["code"]
    if workload == "crosscheck":
        _require(code in (0, 1), f"exit {code}: {out['stderr'][-200:]}")
        rows = _json_lines(op, out["stdout"], oracle=True)
        with mpmath.workdps(op["digits"] + truth.GUARD_DIGITS):
            beyond = [abs(number(r.oracle_delta)) > number(r.error_estimate) for r in rows]
        # exit 1 means some |oracle_delta| exceeded the combined estimate,
        # which is at least the series estimate alone
        _require(code == 0 or any(beyond), "exit 1 with every delta inside its estimate")
        for r in rows:
            r.verdict_ok = code == 0
        shown = "\n".join(f"{r.value}|{r.error_estimate}|{r.truncation_index}|{r.terminated_by}"
                          for r in rows)
        return Verdict(True, digest=shown, rows=rows)
    _require(code == 0, f"exit {code}: {out['stderr'][-200:]}")
    kind = op["kind"]
    if kind == "coeff_json":
        rows = _json_lines(op, out["stdout"], oracle=False)
    elif kind == "coeff_table":
        rows = _table(op, out["stdout"])
    elif kind == "trace":
        _require(out["stdout"] == "", "trace wrote to stdout")
        rows = _trace_file(op, out.get("file"))
    else:
        _verify_report(out["stdout"])
        rows = []
    return Verdict(True, digest=out["stdout"], rows=rows)


def check_ops(workload: str, ops: list[dict], truth_ops: int) -> list[Verdict]:
    """One Verdict per operation; rows of the first `truth_ops` operations
    are scored against the truth."""
    verdicts = []
    for rec in ops:
        if rec["status"] != "ok":
            verdicts.append(Verdict(False, rec["status"]))
            continue
        try:
            verdicts.append(_check(workload, rec["op"], rec["output"]))
        except (Malformed, KeyError, TypeError, ValueError) as exc:
            verdicts.append(Verdict(False, f"{type(exc).__name__}: {exc}"))
    table = truth.TruthTable()
    rows = [r for v in verdicts[:truth_ops] for r in v.rows]
    for r in rows:
        table.request(r.family, r.a, r.lam, r.digits, r.n)
    for r in rows:
        score(r, table.get(r.family, r.a, r.lam, r.digits, r.n),
              oracle=workload == "crosscheck")
    return verdicts


def score(row: Row, exact, *, oracle: bool) -> None:
    with mpmath.workdps(row.digits + truth.GUARD_DIGITS):
        value, err = number(row.value), number(row.error_estimate)
        row.covered, row.accuracy = truth.score(value, err, exact, row.digits)
        if oracle:
            row.agree = row.verdict_ok or abs(number(row.oracle_delta)) <= err
        else:
            # the truth as oracle: its own estimate is far below any bar
            tol = mpmath.mpf(10) ** (-(row.digits + truth.GUARD_DIGITS // 2)) * max(1, abs(exact))
            row.agree = bool(abs(value - exact) <= err + tol)


def captured_coverage(rows: list[dict]) -> float:
    """Share of captured (family, n, a, lam, digits, value, error_estimate)
    rows whose error bar covers the truth."""
    table = truth.TruthTable()
    parsed = [(r["family"], exact_input(r["a"]), exact_input(r["lam"]), r["digits"], r["n"], r)
              for r in rows]
    for fam, a, lam, digits, n, _ in parsed:
        table.request(fam, a, lam, digits, n)
    covered = 0
    for fam, a, lam, digits, n, r in parsed:
        with mpmath.workdps(digits + truth.GUARD_DIGITS):
            ok, _ = truth.score(number(r["value"]), number(r["error_estimate"]),
                                table.get(fam, a, lam, digits, n), digits)
        covered += ok
    return covered / len(rows)


def miss_summary(rows: list[Row]) -> dict:
    """Coefficients whose error bar misses the truth, by known cause."""
    out = {"a_le_1/3": 0, "max_terms_zero_bar": 0, "converged_rounding": 0, "other": 0}
    for r in rows:
        if r.covered:
            continue
        with mpmath.workdps(r.digits):
            zero_bar = number(r.error_estimate) == 0
        if r.terminated_by == "max_terms" and zero_bar:
            out["max_terms_zero_bar"] += 1
        elif r.a <= Fraction(1, 3):
            out["a_le_1/3"] += 1
        elif r.terminated_by == "converged":
            out["converged_rounding"] += 1
        else:
            out["other"] += 1
    return out
