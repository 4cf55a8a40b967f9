"""Score the coefficient series against the reference on one fixed grid.

The grid: Hurwitz, and Lerch at lam in {-1, -1/2, -2/7, 1/3, 1/2, 9/10},
each at the shifts a in {1/10, 1/3, 1/2, 3/4, 1, 5/4, 3/2, 2, 7/3, 5, 10, 50}
and n <= 6, at 30 digits: 588 results.  Each result is scored against the
kept jet of `reference.taylor_coefficients` at 40 digits; it is covered when
|series - jet| <= series bar + jet bar.  The script prints the covered and
missed counts by family, n and stop reason, and the useful count: results
with n >= 1 that are covered with a series bar below 1e-3.  The counts are
pinned in test_coverage_grid.py; a change that moves them re-pins them from
this script's output and says why in CHANGES.md.

Usage:

    PYTHONPATH=src python tests/coverage_grid.py
"""

from collections import Counter, namedtuple
from fractions import Fraction as F

import mpmath

from zetataylor import reference
from zetataylor.coefficients import CoefficientQuery, compute_coefficient

LAMBDAS = (None, F(-1), F(-1, 2), F(-2, 7), F(1, 3), F(1, 2), F(9, 10))
SHIFTS = (F(1, 10), F(1, 3), F(1, 2), F(3, 4), F(1), F(5, 4), F(3, 2), F(2), F(7, 3), F(5), F(10), F(50))
N_MAX, DIGITS, JET_DIGITS, USEFUL_BAR = 6, 30, 40, mpmath.mpf("1e-3")
REASONS = ("converged", "minimal_term", "max_terms")

Result = namedtuple("Result", "family lam a n reason covered bar")


def results() -> list[Result]:
    """One row per result of the grid; `bar` is the series' error estimate."""
    rows = []
    for lam in LAMBDAS:
        family = "hurwitz" if lam is None else "lerch"
        for a in SHIFTS:
            jet = reference.taylor_coefficients(family, N_MAX, a, lam, digits=JET_DIGITS)
            for n in range(N_MAX + 1):
                res = compute_coefficient(CoefficientQuery(family, n, a, lam, DIGITS))
                with mpmath.workdps(JET_DIGITS + 10):
                    covered = abs(res.value - jet[n].value) <= res.error_estimate + jet[n].error_estimate
                rows.append(Result(family, lam, a, n, res.series.terminated_by, covered, res.error_estimate))
    return rows


def counts(rows: list[Result]) -> dict:
    """The pinned summary: results, covered, misses by stop reason, useful."""
    return {
        "results": len(rows),
        "covered": sum(r.covered for r in rows),
        "missed": dict(Counter(r.reason for r in rows if not r.covered)),
        "useful": sum(r.n >= 1 and r.covered and r.bar < USEFUL_BAR for r in rows),
    }


def main() -> None:
    rows = results()
    table = Counter((r.family if r.lam is None else f"lerch {r.lam}", r.n, r.reason, r.covered)
                    for r in rows)
    print(f"{'family':<14} n  " + "  ".join(f"{r:>14}" for r in REASONS) + "   (covered/missed)")
    for lam in LAMBDAS:
        name = "hurwitz" if lam is None else f"lerch {lam}"
        for n in range(N_MAX + 1):
            cells = [f"{table[name, n, r, True]}/{table[name, n, r, False]}" for r in REASONS]
            print(f"{name:<14} {n}  " + "  ".join(f"{c:>14}" for c in cells))
    print(counts(rows))


if __name__ == "__main__":
    main()
