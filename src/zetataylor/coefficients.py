"""Taylor coefficients at s = 0 of the Hurwitz, Riemann and Lerch zeta
functions.

Writing zeta(s, a) = sum_n zeta_n(a) s^n for |s| < 1, the coefficients are
computed from the semi-convergent series

    zeta_n(a) = -1 + sum_{k>=n} (-1)^(k+1) s1(k, n) B_{k+1}(a-1) / (k+1)!

where s1 is the unsigned first-kind Stirling number and B_m the Bernoulli
polynomial.  The Riemann case is a = 1.  For the Lerch transcendent
Phi(lam, s, a) = sum_n c_n(a, lam) s^n (lam != 1) the analogous series is

    c_n(a, lam) = sum_{k>=n} (-1)^(k-n+1) s1(k, n) beta_{k+1}(a-1, lam) / (k+1)!

with Apostol-Bernoulli values beta and no constant offset.

Both polynomial families are Appell sequences (`exact.appell_row`), so
every series here, the n = 1, 2 and log-gamma variants included, has terms
weight(k) * P_{k+1}(x) from the one generator `_terms`; only the weight
differs, so the values P_{k+1}(x) are computed once per point and shared
by every n through a value table of at most 16 lists, least recently used
out.  The "-1" is an exact offset applied outside the summation engine,
so traces show the series itself and error estimates describe only the
series.  For rational a (and lam) the values are exact Fractions, keyed
(x, lam), and every term is converted to mpf once; otherwise the exact
rows are evaluated by Horner at working precision, keyed (x, lam,
precision).  Both choices maximize cancellation fidelity, which matters in
an asymptotic series.
"""

from __future__ import annotations

import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from math import factorial
from typing import Callable, Iterator

import mpmath
from mpmath import mp, mpf, workdps

from .exact import (
    appell_row,
    appell_value,
    exp_polynomial_coeffs,
    harmonic_number,
    stirling1,
    stirling2,
)
from .summation import (
    SemiConvergentResult,
    TraceRecord,
    eval_polynomial,
    sum_semiconvergent,
    to_mpf,
)

__all__ = [
    "FAMILIES",
    "CoefficientQuery",
    "CoefficientResult",
    "compute_coefficient",
    "hurwitz_coefficient",
    "riemann_coefficient",
    "lerch_coefficient",
    "hurwitz_coefficient_special",
    "log_gamma_series",
    "etf_check",
    "system_residual",
    "hurwitz_term_sign",
    "lerch_term_sign",
    "fraction_from_mpf",
]

FAMILIES = ("hurwitz", "riemann", "lerch")

DEFAULT_DIGITS = 50
DEFAULT_MAX_TERMS = 64


def hurwitz_term_sign(k: int) -> int:
    """Sign prefactor (-1)^(k+1) of the Hurwitz/Riemann series."""
    return -1 if k % 2 == 0 else 1


def lerch_term_sign(n: int, k: int) -> int:
    """Sign prefactor (-1)^(k-n+1) of the Lerch series."""
    return -1 if (k - n) % 2 == 0 else 1


def fraction_from_mpf(x) -> Fraction:
    """Exact Fraction equal to a finite mpf (every mpf is dyadic)."""
    x = mpmath.mpf(x)
    if not mpmath.isfinite(x):
        raise ValueError("cannot convert non-finite value to Fraction")
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    frac = Fraction(man) * Fraction(2) ** exp
    return -frac if sign else frac


def _is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def _check_real(name: str, x) -> None:
    """Raise ValueError unless x is a finite real number (bool excluded)."""
    real = isinstance(x, numbers.Real) or hasattr(x, "_mpf_")
    if isinstance(x, bool) or not real or not mpmath.isfinite(x):
        raise ValueError(f"{name} must be a finite real number, got {x!r}")


@dataclass(frozen=True)
class CoefficientQuery:
    """One coefficient request: which family, which Taylor index n, the
    shift a > 0, lam (Lerch only, |lam| <= 1, lam != 1), the working
    precision in decimal digits, and the summation budget."""

    family: str
    n: int
    a: Fraction | mpf | int = 1
    lam: Fraction | mpf | None = None
    digits: int = DEFAULT_DIGITS
    max_terms: int = DEFAULT_MAX_TERMS
    trace: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"coefficient index n must be an int, got {self.n!r}")
        if self.n < 0:
            raise ValueError("coefficient index n must be non-negative")
        _check_real("shift a", self.a)
        if self.lam is not None:
            _check_real("lambda", self.lam)
        if not self.a > 0:
            raise ValueError("shift a must be positive")
        if self.digits < 15:
            raise ValueError("precision must be at least 15 digits")
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


@dataclass(frozen=True)
class CoefficientResult:
    """A computed coefficient: the raw series outcome plus the exact offset.

    `value` is the coefficient itself (offset + series value) and
    `derivative_value` = n! * value is the corresponding s-derivative of
    the function at s = 0.  `series.trace`, when requested, lists the
    series terms verbatim, without the offset.
    """

    query: CoefficientQuery
    series: SemiConvergentResult
    offset: mpf
    value: mpf
    derivative_value: mpf

    @property
    def error_estimate(self) -> mpf:
        return self.series.error_estimate


# The value table of the module docstring; its lists grow only under the lock.
_VALUE_LISTS = 16
_values: OrderedDict = OrderedDict()
_values_lock = threading.Lock()


def _terms(
    weight: Callable[[int], Fraction], x, lam: Fraction | None, start: int
) -> Iterator:
    """Series terms weight(k) * P_(k+1)(x) for k = start, start+1, ...,
    where P is the Bernoulli family (lam None) or the Apostol-Bernoulli
    family of lam.  Rational x yields exact Fractions; otherwise each exact
    Appell row is evaluated by Horner at working precision."""
    exact = _is_rational(x)
    if not exact:
        x = to_mpf(x)
    key = (x, lam) if exact else (x, lam, mp.prec)
    with _values_lock:
        values = _values.setdefault(key, [])
        _values.move_to_end(key)
        if len(_values) > _VALUE_LISTS:
            _values.popitem(last=False)
    k = start
    while True:
        with _values_lock:
            for m in range(len(values), k + 2):
                values.append(appell_value(m, x, lam) if exact
                              else eval_polynomial(appell_row(m, lam), x))
        yield weight(k) * values[k + 1] if exact else to_mpf(weight(k)) * values[k + 1]
        k += 1


def _shifted(a):
    """a - 1, exact for rational a; call at working precision."""
    return Fraction(a) - 1 if _is_rational(a) else to_mpf(a) - 1


def _lam_as_fraction(lam) -> Fraction:
    # every representable real lam is (dyadic) rational, so the exact
    # Apostol-Bernoulli table applies verbatim
    return Fraction(lam) if _is_rational(lam) else fraction_from_mpf(lam)


def compute_coefficient(query: CoefficientQuery) -> CoefficientResult:
    """Evaluate one CoefficientQuery."""
    with workdps(query.digits):
        n = query.n
        if query.family == "lerch":
            lam, offset, sign = _lam_as_fraction(query.lam), mpf(0), partial(lerch_term_sign, n)
        else:
            lam, offset, sign = None, mpf(-1), hurwitz_term_sign

        def weight(k):
            return Fraction(sign(k) * stirling1(k, n), factorial(k + 1))

        series = sum_semiconvergent(
            _terms(weight, _shifted(query.a), lam, n),
            start=n, max_terms=query.max_terms, trace=query.trace,
        )
        value = offset + series.value
        derivative = to_mpf(factorial(n)) * value
        return CoefficientResult(query, series, offset, value, derivative)


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


def _folded_weight(n: int) -> Callable[[int], Fraction]:
    # n = 1: s1(k, 1) = (k-1)!; n = 2: s1(k, 2) = (k-1)! H_{k-1}.  Both
    # fold with (k+1)! into a 1/(k(k+1)) denominator.
    def weight(k):
        w = Fraction(hurwitz_term_sign(k), k * (k + 1))
        return w * harmonic_number(k - 1) if n == 2 else w

    return weight


def hurwitz_coefficient_special(
    n: int,
    a,
    *,
    digits: int = DEFAULT_DIGITS,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: bool = False,
) -> CoefficientResult:
    """Specialized evaluation for n in {0, 1, 2}.

    n = 0 is the closed form 1/2 - a (reported with zero error estimate);
    n = 1 and n = 2 run the reduced series with the first-kind Stirling
    column folded into the denominators.  Results agree with the general
    path within the combined error estimates.
    """
    if n not in (0, 1, 2):
        raise ValueError("specialized evaluation supports n in {0, 1, 2}")
    query = CoefficientQuery("hurwitz", n, a, None, digits, max_terms, trace)
    with workdps(digits):
        if n == 0:
            term = (
                to_mpf(Fraction(3, 2) - Fraction(a))
                if _is_rational(a)
                else mpf(1.5) - to_mpf(a)
            )
            rec = (TraceRecord(0, term, term),) if trace else None
            series = SemiConvergentResult(term, mpf(0), 0, "converged", rec)
        else:
            series = sum_semiconvergent(
                _terms(_folded_weight(n), _shifted(a), None, n),
                start=n, max_terms=max_terms, trace=trace,
            )
        value = mpf(-1) + series.value
        return CoefficientResult(query, series, mpf(-1), value, to_mpf(factorial(n)) * value)


def log_gamma_series(
    a,
    *,
    digits: int = DEFAULT_DIGITS,
    max_terms: int = DEFAULT_MAX_TERMS,
    trace: bool = False,
) -> SemiConvergentResult:
    """log Gamma(1 + a) from the semi-convergent representation

        log Gamma(1+a) = log(2 pi)/2 - 1 + sum_{k>=1} (-1)^(k+1) B_{k+1}(a) / (k(k+1)).

    The constant prefix is applied to `value` outside the summation; the
    trace holds the bare series terms.  Useful accuracy is limited by the
    minimal term (about 1e-3 for small a); callers compare against an
    accurate log-gamma within the reported estimate.
    """
    _check_real("a", a)
    if not a >= 0:
        raise ValueError("a must be non-negative")
    with workdps(digits):
        series = sum_semiconvergent(
            _terms(_folded_weight(1), a, None, 1),
            start=1, max_terms=max_terms, trace=trace,
        )
        return replace(series, value=mpmath.log(2 * mpmath.pi) / 2 - 1 + series.value)


def etf_check(poly_coeffs, x, K: int = 120, *, digits: int = DEFAULT_DIGITS):
    """Both sides of the exponential transformation formula for a
    polynomial f with Taylor coefficients `poly_coeffs` (ascending):

        sum_{k=0}^{K} f(k) x^k / k!   vs.   e^x * sum_n a_n phi_n(x)

    where phi_n are the exponential polynomials.  Returns (lhs, rhs); for
    polynomial f the right side is a finite sum, so with K large enough
    the two agree to working precision.
    """
    coeffs = [Fraction(c) for c in poly_coeffs]
    with workdps(digits):
        xv = to_mpf(x)
        lhs = mpf(0)
        weight = mpf(1)  # x^k / k!
        for k in range(K + 1):
            lhs += to_mpf(sum(c * k**p for p, c in enumerate(coeffs))) * weight
            weight = weight * xv / (k + 1)
        rhs = mpf(0)
        for m, am in enumerate(coeffs):
            if am == 0:
                continue
            rhs += to_mpf(am) * eval_polynomial(exp_polynomial_coeffs(m), xv)
        rhs *= mpmath.exp(xv)
        return lhs, rhs


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

    The computed coefficients satisfy (hurwitz, with b_n = (-1)^n *
    (zeta_n(a) + 1), and lerch with c_n directly)

        sum_{n>=k} s2(n, k) * b_n = -B_{k+1}(a-1) / (k+1)!

    Truncating the left side at N (default: the truncation index of the
    n = k coefficient computation) gives a finite residual.  The underlying
    series is semi-convergent, so this is a diagnostic, not a convergence
    statement.
    """
    if family not in ("hurwitz", "lerch"):
        raise ValueError("system_residual supports the hurwitz and lerch families")
    with workdps(digits):
        def coeff(n: int) -> CoefficientResult:
            lam_n = lam if family == "lerch" else None
            return compute_coefficient(CoefficientQuery(family, n, a, lam_n, digits, max_terms))

        first = coeff(k)
        top = N if N is not None else max(k, first.series.truncation_index)
        lhs = mpf(0)
        for n in range(k, top + 1):
            value = (first if n == k else coeff(n)).value
            b = value if family == "lerch" else (-1) ** n * (value + 1)
            lhs += to_mpf(stirling2(n, k)) * b
        lamf = _lam_as_fraction(lam) if family == "lerch" else None
        rhs = to_mpf(next(_terms(lambda j: Fraction(-1, factorial(j + 1)), _shifted(a), lamf, k)))
        return lhs - rhs
