"""Exact big-rational combinatorics.

Everything in this module is computed in exact arithmetic: Stirling numbers
of both kinds and the Appell numbers (scaled by a known denominator, both
families grown by one Horner loop) are Python ints, all other quantities are
`fractions.Fraction` values (canonical, denominator > 0).  B1 = -1/2.

Rational arguments only; every mpf is a dyadic rational, so callers pass
its exact value.

`LOCK`, re-entrant, is the package's one lock: each precision change
(`summation.working_precision`) is made and each kept table grows under it,
so threads calling zetataylor at different precisions get serial bits.  A
short call may wait behind a long one; the GIL runs pure-Python mpmath one
call at a time anyway.  mpmath calls made outside zetataylor at another
precision in another thread remain unsafe.  The Appell tables hold only
numbers: rows and values (`appell_ratio`, integer arithmetic) are built
from them on each call, and at most 8 Apostol-Bernoulli families are kept.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from fractions import Fraction
from math import comb, factorial

__all__ = [
    "stirling1",
    "stirling2",
    "exp_polynomial_coeffs",
    "bernoulli_number",
    "appell_row",
    "appell_ratio",
    "appell_value",
    "bernoulli_polynomial",
    "bernoulli_polynomial_coeffs",
    "apostol_bernoulli",
    "apostol_bernoulli_coeffs",
    "harmonic_number",
]

RationalLike = Fraction | int

LOCK = threading.RLock()


def kept(table: OrderedDict, key, bound: int, make):
    """table[key], made by make() if absent, as the most recently used
    entry; the oldest entries beyond `bound` go.  Call it holding LOCK."""
    value = table.pop(key, None)
    table[key] = value = make() if value is None else value
    if len(table) > bound:
        table.popitem(last=False)
    return value


# Stirling rows, grown on demand: the unsigned first-kind numbers indexed
# (k, n), s1(k+1, n) = k s1(k, n) + s1(k, n-1), and the second-kind numbers
# indexed (n, k), s2(n+1, k) = k s2(n, k) + s2(n, k-1).  Entries above the
# diagonal are 0 and are not stored.
_stirling1_rows: list[list[int]] = [[1]]
_stirling2_rows: list[list[int]] = [[1]]


def _stirling(rows: list[list[int]], r: int, c: int) -> int:
    """Entry (r, c) of one of the two row lists, grown under LOCK."""
    if r < 0 or c < 0:
        raise ValueError("Stirling indices must be non-negative")
    if c > r:
        return 0
    if r >= len(rows):
        with LOCK:
            while len(rows) <= r:
                k, prev = len(rows) - 1, rows[-1]
                pairs = zip(prev + [0], [0] + prev)  # (above, left)
                rows.append([k * above + left for above, left in pairs] if rows is _stirling1_rows
                            else [j * above + left for j, (above, left) in enumerate(pairs)])
    return rows[r][c]


def stirling1(k: int, n: int) -> int:
    """Unsigned Stirling number of the first kind for (k, n).

    Counts permutations of k elements with n cycles; equivalently the
    coefficient magnitude in the inverse exponential-polynomial basis
    change.  Zero when n > k, or when k > 0 and n = 0.
    """
    return _stirling(_stirling1_rows, k, n)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind for (n, k): partitions of an
    n-set into k blocks.  Zero when k > n."""
    return _stirling(_stirling2_rows, n, k)


def exp_polynomial_coeffs(n: int) -> tuple[int, ...]:
    """Coefficient list (ascending powers) of the n-th exponential (Bell)
    polynomial, whose coefficients are the second-kind Stirling numbers."""
    _stirling(_stirling2_rows, n, 0)
    return tuple(_stirling2_rows[n])


# Bernoulli polynomials and the Apostol-Bernoulli values beta_m(x, lam),
# defined by z*e^(x*z) / (lam*e^z - 1) = sum_m beta_m(x, lam) z^m / m!, are
# both Appell sequences, P_m(x) = sum_p C(m, p) b_(m-p) x^p, fixed by the
# numbers b_j = P_j(0).  Each family keeps them as integers N_j = b_j * D_j.
# Bernoulli (keyed None): b_j = B_j, D_j = (j+1)! and sum_{j<=m} C(m+1, j) B_j = 0.
# For lam = p/q != 1 in lowest terms, matching coefficients of z^m/m! in the
# generating function times (lam*e^z - 1) gives (lam - 1)*b_m + lam *
# sum_{j<m} C(m, j)*b_j = [m = 1], and D_j = d^j with d = p - q.  So both are
#
#   acc = sum_{j<m} C(m + [Bernoulli], j) N_j D_(m-1)/D_j,  N_m = -acc (Bernoulli)
#   or [m = 1]*q - p*acc (Apostol), with acc one Horner loop over j < m,
#   acc = acc * r_j + C N_j, r_j = D_j/D_(j-1): j + 1 for Bernoulli, d for Apostol.
#
# N_0 = 0 and Apostol row m has length m (row 0 is (0,)).  The Bernoulli
# integers are one list that stays; at most _APPELL_LAMBDAS Apostol families
# are kept, least recently used out.
_APPELL_LAMBDAS = 8
_bernoulli = [1]
_apostol: OrderedDict = OrderedDict()


def _numbers(n: int, lam: RationalLike | None) -> tuple[list[int], int | None]:
    """N_0..N_n (at least) of the family of lam, made most recently used,
    and the family's d (None: Bernoulli)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    d = None
    if lam is not None:
        lam = Fraction(lam)
        if lam == 1:
            raise ValueError("apostol-bernoulli undefined at lambda=1; use bernoulli_polynomial")
        p, q = lam.numerator, lam.denominator
        d = p - q
    with LOCK:
        numbers = _bernoulli if d is None else kept(_apostol, lam, _APPELL_LAMBDAS, lambda: [0])
        for m in range(len(numbers), n + 1):
            acc = 0  # odd B_m vanish for m > 1: their loop is empty
            for j in range(0 if d is None and m > 2 and m % 2 else m):
                acc = acc * (j + 1 if d is None else d) + comb(m + (d is None), j) * numbers[j]
            numbers.append(-acc if d is None else int(m == 1) * q - p * acc)
        return numbers, d


def _number(j: int, numbers: list[int], d: int | None) -> Fraction:
    """b_j = N_j / D_j."""
    return Fraction(numbers[j], factorial(j + 1) if d is None else d**j)


def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n (B1 = -1/2), exact.

    Computed by the defining recurrence sum_{j<=n} C(n+1, j) B_j = 0 and
    memoized; no floating-point shortcut is used since these feed a
    delicately cancelling asymptotic series.
    """
    return _number(n, *_numbers(n, None))


def appell_row(m: int, lam: RationalLike | None = None) -> tuple[Fraction, ...]:
    """Exact coefficients (ascending powers of x) of B_m(x) for lam None,
    else of the Apostol-Bernoulli value beta_m(x, lam), lam != 1."""
    numbers, d = _numbers(m, lam)
    width = m + 1 if d is None else m
    return tuple(comb(m, p) * _number(m - p, numbers, d) for p in range(width)) or (Fraction(0),)


def appell_ratio(m: int, x: RationalLike, lam: RationalLike | None = None) -> tuple[int, int]:
    """P_m(x) of the family of `appell_row` at rational x = u/v as an
    unreduced integer pair (num, D_m v^m), without a division: num is the
    homogeneous Horner sum of C(m, j) N_j (D_m/D_j) u^(m-j) v^j."""
    return _ratio(m, *Fraction(x).as_integer_ratio(), *_numbers(m, lam))


def _ratio(m: int, u: int, v: int, numbers: list[int], d: int | None) -> tuple[int, int]:
    """`appell_ratio` at x = u/v from the family's N_j and d."""
    acc, vj = 0, 1
    for j in range(m + 1):  # D_j / D_(j-1) is j + 1 for Bernoulli, d for Apostol
        acc = acc * u * (j + 1 if d is None else d) + comb(m, j) * numbers[j] * vj
        vj *= v
    return acc, (factorial(m + 1) if d is None else d**m) * vj // v


def appell_value(m: int, x: RationalLike, lam: RationalLike | None = None) -> Fraction:
    """P_m(x) of the family of `appell_row` at rational x, exact."""
    return Fraction(*appell_ratio(m, x, lam))


def bernoulli_polynomial_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of B_n(x) = sum_j C(n, j) B_j x^(n-j), ascending, exact."""
    return appell_row(n)


def bernoulli_polynomial(n: int, x: RationalLike) -> Fraction:
    """B_n(x) at a rational point, exact."""
    return appell_value(n, x)


def apostol_bernoulli_coeffs(n: int, lam: RationalLike) -> tuple[Fraction, ...]:
    """Coefficients of beta_n(a, lam) in ascending powers of a, exact."""
    return appell_row(n, lam)


def apostol_bernoulli(n: int, a: RationalLike, lam: RationalLike) -> Fraction:
    """Apostol-Bernoulli value beta_n(a, lam) at rational (a, lam), exact.
    Raises for lam = 1, where the family degenerates to B_n."""
    return appell_value(n, a, lam)


def harmonic_number(k: int) -> Fraction:
    """Harmonic number H_k = 1 + 1/2 + ... + 1/k, exact; H_0 = 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return sum((Fraction(1, m) for m in range(1, k + 1)), Fraction(0))
