"""Taylor coefficients at s = 0 of the Hurwitz, Riemann and Lerch zeta
functions.

Writing zeta(s, a) = sum_n zeta_n(a) s^n for |s| < 1, the coefficients are
computed from the semi-convergent series

    zeta_n(a) = -1 + sum_{k>=n} (-1)^(k+1) s1(k, n) B_{k+1}(a-1) / (k+1)!

where s1 is the unsigned first-kind Stirling number and B_m the Bernoulli
polynomial.  The Riemann case is a = 1.  For the Lerch transcendent
Phi(lam, s, a) = sum_n c_n(a, lam) s^n (lam != 1) the series is the same
with Apostol-Bernoulli values beta and no constant offset:

    c_n(a, lam) = sum_{k>=n} (-1)^(k+1) s1(k, n) beta_{k+1}(a-1, lam) / (k+1)!

Both are the Taylor coefficients of one Newton series in the rising
factorial, sum_k (-1)^(k+1) (s)_k P_{k+1}(a-1) / (k+1)!, plus 1/(s-1) for
Hurwitz; at s = -m it stops after k = m and gives (1 - B_{m+1}(a))/(m+1)
and -beta_{m+1}(a, lam)/(m+1), which `verification` checks exactly.

Both polynomial families are Appell sequences (`exact.appell_row`), so
every series here has terms (-1)^(k+1) s1(k, n) q_k with
q_k = P_{k+1}(x) / (k+1)! from the one generator `_terms`; a family only
picks P and the offset, and log Gamma(1 + a) is zeta_1(1 + a) + log(2 pi)/2.
`CoefficientQuery` makes a and lam exact once, the rationals every route
reads.  The "-1" is an exact offset added to the exact sum of the series,
rounded with it once; traces show the series itself and error estimates
describe only the series.

Each q_k is kept as its floor at prec + 64 bits, (man, exp) with
man = [q_k 2^-exp] and 2^(prec+63) <= |man| <= 2^(prec+64), shared by every n
through a value table of at most 16 lists, keyed (x, lam, precision), least
recently used out; a term is the int pair (+-s1(k, n) man, exp), the weight
times that floor exactly, so a value is within the bound `summation` states.
A list keeps its family's Appell integers and d, fetched again only when it
outgrows them.  The tables and every entry point's precision are held under
`exact.LOCK`.  A narrow input's floor is one integer division of its exact
ratio.  A wide one (x's denominator and lam's p - q over 24 bits together, as
for an mpf) grows its list in fixed point, W = prec + 64 + 320 bits: with the
floors B_j = [2^W b_j / j!], one row per (lam, W) shared by every list (at
most 8, least recently used out), and X_i = [2^W x^i / i!], one row per list,
S_m = sum_j B_j X_(m-j) is within E_m = sum_(j<=m) (|B_j| + |X_j| + 1) of
2^(2W) P_m(x) / m!.  Where S_m - E_m and S_m + E_m have the same floor, so has
q_(m-1) (Ziv's test); only where they differ, an exact zero always, does the
exact route run, and both routes give one floor.
"""

from __future__ import annotations

import numbers
from collections import OrderedDict, namedtuple
from fractions import Fraction
from itertools import count
from math import factorial, lcm
from typing import Iterator, NamedTuple

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import to_rational

from .exact import (
    _APPELL_LAMBDAS,
    LOCK,
    _numbers,
    _ratio,
    _stirling1_rows,
    exp_polynomial_coeffs,
    kept,
    stirling1,
    stirling2,
)
from .summation import (
    SemiConvergentResult,
    _check_int,
    _rounded,
    sum_semiconvergent,
    to_mpf,
    working_precision,
)

__all__ = [
    "FAMILIES",
    "CoefficientQuery",
    "CoefficientResult",
    "compute_coefficient",
    "hurwitz_coefficient",
    "riemann_coefficient",
    "lerch_coefficient",
    "log_gamma_series",
    "etf_check",
    "system_residual",
    "fraction_from_mpf",
]

FAMILIES = ("hurwitz", "riemann", "lerch")

DEFAULT_DIGITS = 50
DEFAULT_MAX_TERMS = 64


def fraction_from_mpf(x) -> Fraction:
    """x as an exact Fraction: an int or a Fraction as it is, anything else
    rounded to working precision by `to_mpf` (every mpf is dyadic)."""
    if isinstance(x, (int, Fraction)):
        return x if type(x) is Fraction else Fraction(x)
    x = to_mpf(x)
    if not mpmath.isfinite(x):
        raise ValueError("cannot convert non-finite value to Fraction")
    return Fraction(*to_rational(x._mpf_))


def _exact(name: str, x, digits: int):
    """x as the exact rational every route computes with: an int or a
    Fraction as given, any other finite real rounded once at `digits`.
    Raise ValueError for anything else, a bool included."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    if isinstance(x, bool) or not (
            (isinstance(x, numbers.Real) or hasattr(x, "_mpf_")) and mpmath.isfinite(x)):
        raise ValueError(f"{name} must be a finite real number, got {x!r}")
    with working_precision(digits):
        return fraction_from_mpf(x)


class CoefficientQuery(namedtuple("CoefficientQuery", "family n a lam digits max_terms trace",
                                  defaults=(1, None, DEFAULT_DIGITS, DEFAULT_MAX_TERMS, False))):
    """One coefficient request: which family, which Taylor index n, the
    shift a > 0, lam (Lerch only, |lam| <= 1, lam != 1), the working
    precision in decimal digits, and the summation budget.  a and lam are
    held, and checked, as the exact rationals every route computes with."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        _check_int("coefficient index n", self.n, 0)
        _check_int("digits", self.digits, 15)
        _check_int("max_terms", self.max_terms, 2)
        a = _exact("shift a", self.a, self.digits)
        lam = None if self.lam is None else _exact("lambda", self.lam, self.digits)
        if a is not self.a or lam is not self.lam:
            self = super().__new__(cls, self.family, self.n, a, lam, *self[4:])
        if not self.a > 0:
            raise ValueError("shift a must be positive")
        if self.family == "riemann" and self.a != 1:
            raise ValueError("the riemann family fixes a = 1")
        if self.family == "lerch":
            if self.lam is None:
                raise ValueError("the lerch family requires lam")
            if self.lam == 1:
                raise ValueError(
                    "lambda=1 is the hurwitz case; use family=hurwitz"
                )
            if not abs(self.lam) <= 1:
                raise ValueError("lerch requires |lambda| <= 1")
        elif self.lam is not None:
            raise ValueError("lam is only meaningful for the lerch family")
        return self


class CoefficientResult(NamedTuple):
    """A computed coefficient: the raw series outcome and the coefficient.

    `value` is the coefficient itself: the exact series sum, plus -1 for
    Hurwitz, rounded once.  `derivative_value` = n! * value is the
    corresponding s-derivative of the function at s = 0.  `series.trace`,
    when requested, lists the series terms verbatim, without the -1.
    """

    query: CoefficientQuery
    series: SemiConvergentResult
    value: mpf
    derivative_value: mpf

    @property
    def error_estimate(self) -> mpf:
        return self.series.error_estimate


# The value table, the fixed-point path and its B rows, of the module docstring.
_VALUE_LISTS = 16
_WIDE = 24
_GUARD = 320  # bits of W beyond the floors' prec + 64
_values: OrderedDict = OrderedDict()
_b_rows: OrderedDict = OrderedDict()


def _floor(num: int, den: int, bits: int) -> tuple[int, int]:
    """q = num / den as (man, exp) with man = [q 2^-exp], the exp that puts
    |q| 2^-exp in [2^(bits-1), 2^bits); (0, 0) for q = 0."""
    if not num:
        return 0, 0
    if den < 0:  # an Apostol-Bernoulli D_m = d^m of odd m, with d < 0
        num, den = -num, -den
    t = abs(num).bit_length() - den.bit_length()  # 2^(t-1) < |q| < 2^(t+1)
    if abs(num) << max(-t, 0) < den << max(t, 0):
        t -= 1
    s = bits - 1 - t
    return (num << s) // den if s >= 0 else num // (den << -s), -s


def _grow(state: list, top: int, x: Fraction, lam, prec: int) -> None:
    """Append the floor (man, exp) of q_k = P_m(x) / m!, m = k + 1, at
    prec + 64 bits, for every k < top, and grow the Stirling rows through
    top.  state is [values, numbers, d, fixed], fixed = [W, X, xs, (B, bs),
    U, V] for a wide list, where xs[i + 1] and bs[i + 1] sum |X_j| and |B_j|
    over j <= i, and X_i = [2^W U / V] with U = u^i, V = v^i i!.  Hold LOCK."""
    values, numbers, d, fixed = state
    if len(numbers) <= top:
        state[1] = numbers = _numbers(top, lam)[0]
    stirling1(top, 0)
    u, v, bits = x.numerator, x.denominator, prec + 64
    for m in range(len(values) + 1, top + 1):
        value = None
        if fixed is not None:
            W, X, xs, (B, bs), U, V = fixed
            for j in range(len(B), m + 1):
                B.append((numbers[j] << W) // ((factorial(j + 1) if d is None else d**j) * factorial(j)))
                bs.append(bs[-1] + abs(B[j]))
            fixed[4], fixed[5] = U, V = U * u, V * v * m  # u^m and v^m m!
            X.append((U << W) // V)
            xs.append(xs[-1] + abs(X[m]))
            S, E = sum(map(int.__mul__, B, reversed(X))), bs[m + 1] + xs[m + 1] + m + 1
            lo, hi = S - E, S + E  # 2^(2W) q lies in [lo, hi]
            r = lo.bit_length() - bits
            if r >= 0 and hi.bit_length() == lo.bit_length() and lo >> r == hi >> r:
                value = lo >> r, r - 2 * W
        if value is None:
            num, den = _ratio(m, u, v, numbers, d)
            value = _floor(num, den * factorial(m), bits)
        values.append(value)


def _terms(n: int, x: Fraction, lam: Fraction | None) -> Iterator[tuple[int, int]]:
    """Series terms (-1)^(k+1) s1(k, n) q_k for k = n, n+1, ..., with
    q_k = P_(k+1)(x) / (k+1)! its floor at prec + 64 bits, where P is the
    Bernoulli family (lam None) or the Apostol-Bernoulli family of lam.
    Each term is that product exactly, the int pair (man, exp) of man 2^exp."""
    prec = mp.prec
    d = None if lam is None else lam.numerator - lam.denominator
    wide, W = x.denominator.bit_length() + abs(d or 0).bit_length() > _WIDE, prec + 64 + _GUARD
    key = x.as_integer_ratio(), None if lam is None else lam.as_integer_ratio(), prec  # ints hash fast
    with LOCK:  # a wide list starts X at X_0 = 2^W and shares the B row of (lam, W)
        state = kept(_values, key, _VALUE_LISTS, lambda: [[], [], d, [
            W, [1 << W], [0, 1 << W], kept(_b_rows, (lam, W), _APPELL_LAMBDAS, lambda: [[], [0]]),
            1, 1] if wide else None])
    values = state[0]
    for k in count(n):
        if k >= len(values):
            with LOCK:
                _grow(state, k + 1, x, lam, prec)
        man, exp = values[k]
        yield (man if k % 2 else -man) * _stirling1_rows[k][n], exp


def compute_coefficient(query: CoefficientQuery) -> CoefficientResult:
    """Evaluate one CoefficientQuery."""
    n = query.n
    with working_precision(query.digits):
        prec, rnd = mp._prec_rounding
        series = sum_semiconvergent(
            _terms(n, query.a - 1, query.lam),
            start=n, max_terms=query.max_terms, trace=query.trace,
        )
        if query.lam is None:  # -1 joins the exact sum, rounded once; its scale is below 1
            (man, exp), *far = series._sum
            value = mp.make_mpf(_rounded([(man - (1 << -exp), exp), *far], prec, rnd))
        else:
            value = series.value
        return CoefficientResult(query, series, value, value * factorial(n))


def hurwitz_coefficient(
    n: int,
    a,
    *,
    digits: int = DEFAULT_DIGITS,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: bool = False,
) -> CoefficientResult:
    """n-th Taylor coefficient of zeta(s, a) at s = 0."""
    return compute_coefficient(
        CoefficientQuery("hurwitz", n, a, None, digits, max_terms, trace)
    )


def riemann_coefficient(
    n: int,
    *,
    digits: int = DEFAULT_DIGITS,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: bool = False,
) -> CoefficientResult:
    """n-th Taylor coefficient of the Riemann zeta function at s = 0
    (the a = 1 case, where the Bernoulli polynomial values reduce to
    Bernoulli numbers)."""
    return compute_coefficient(
        CoefficientQuery("riemann", n, 1, None, digits, max_terms, trace)
    )


def lerch_coefficient(
    n: int,
    a,
    lam,
    *,
    digits: int = DEFAULT_DIGITS,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: bool = False,
) -> CoefficientResult:
    """n-th Taylor coefficient of the Lerch transcendent Phi(lam, s, a)
    at s = 0, for real |lam| <= 1, lam != 1.  Unlike the Hurwitz series
    there is no constant offset."""
    return compute_coefficient(
        CoefficientQuery("lerch", n, a, lam, digits, max_terms, trace)
    )


def log_gamma_series(
    a,
    *,
    digits: int = DEFAULT_DIGITS,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: bool = False,
) -> SemiConvergentResult:
    """log Gamma(1 + a) by Lerch's formula (DLMF 25.11.18), the n = 1
    Hurwitz coefficient at 1 + a (a rounded once at `digits`) plus log(2 pi)/2:

        log Gamma(1+a) = log(2 pi)/2 - 1 + sum_{k>=1} (-1)^(k+1) B_{k+1}(a) / (k(k+1)).

    The trace, estimate, index and stop reason are those of zeta_1(1 + a);
    the trace holds the bare series terms.  Useful accuracy is limited by
    the minimal term (about 1e-3 for small a); callers compare against an
    accurate log-gamma within the reported estimate.
    """
    _check_int("digits", digits, 15)
    a = _exact("a", a, digits)
    if not a >= 0:
        raise ValueError("a must be non-negative")
    res = compute_coefficient(CoefficientQuery("hurwitz", 1, a + 1, None, digits, max_terms, trace))
    with working_precision(digits):
        return res.series._replace(value=mpmath.log(2 * mpmath.pi) / 2 + res.value)


def etf_check(poly_coeffs, x, K: int = 120, *, digits: int = DEFAULT_DIGITS):
    """Both sides of the exponential transformation formula for a
    polynomial f with Taylor coefficients `poly_coeffs` (ascending):

        sum_{k=0}^{K} f(k) x^k / k!   vs.   e^x * sum_n a_n phi_n(x)

    where phi_n are the exponential polynomials.  Returns (lhs, rhs); for
    polynomial f the right side is a finite sum, so with K large enough
    the two agree to working precision.
    """
    _check_int("digits", digits, 15)
    coeffs = [Fraction(c) for c in poly_coeffs]
    D = lcm(*(c.denominator for c in coeffs))
    scaled = [c.numerator * (D // c.denominator) for c in reversed(coeffs)]  # D * f
    with working_precision(digits):
        xv = to_mpf(x)
        lhs = mpf(0)
        weight = mpf(1)  # x^k / k!
        for k in range(K + 1):
            Df = 0
            for c in scaled:
                Df = Df * k + c
            lhs += to_mpf(Fraction(Df, D)) * weight
            weight = weight * xv / (k + 1)
        xq = fraction_from_mpf(xv)  # the polynomial side, exact at the rounded x
        f = sum(am * sum(c * xq**j for j, c in enumerate(exp_polynomial_coeffs(m)))
                for m, am in enumerate(coeffs))
        return lhs, to_mpf(f) * mpmath.exp(xv)


def system_residual(
    family: str,
    a,
    lam=None,
    *,
    k: int = 0,
    N: int | None = None,
    digits: int = DEFAULT_DIGITS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> mpf:
    """Residual of the triangular system the coefficients solve.

    With b_n = (-1)^n times the series part (`series.value`) of the n-th
    coefficient, the computed coefficients of either family satisfy

        sum_{n>=k} s2(n, k) * b_n = -P_{k+1}(a-1) / (k+1)!

    with P the Bernoulli (hurwitz) or Apostol-Bernoulli (lerch) family.

    Truncating the left side at N (default: the truncation index of the
    n = k coefficient computation) gives a finite residual.  The underlying
    series is semi-convergent, so this is a diagnostic, not a convergence
    statement.
    """
    if family not in ("hurwitz", "lerch"):
        raise ValueError("system_residual supports the hurwitz and lerch families")

    lam = lam if family == "lerch" else None
    first = compute_coefficient(CoefficientQuery(family, k, a, lam, digits, max_terms))
    with working_precision(digits):
        top = N if N is not None else max(k, first.series.truncation_index)
        lhs = mpf(0)
        for n in range(k, top + 1):
            res = first if n == k else compute_coefficient(first.query._replace(n=n))
            lhs += to_mpf(stirling2(n, k)) * ((-1) ** n * res.series.value)
        # the first term of the n = k series is (-1)^(k+1) P_{k+1} / (k+1)!, rounded once
        man, exp = next(_terms(k, first.query.a - 1, first.query.lam))
        return lhs - to_mpf(mpmath.ldexp((-1) ** k * man, exp))
