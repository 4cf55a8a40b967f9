"""Ground truth for Taylor coefficients at s = 0, from mpmath alone.

* Hurwitz and Riemann: zeta_n(a) = mpmath.zeta(0, a, n) / n!.
* Lerch with |lam| < 1: c_n = sum_m lam^m (-log(m + a))^n / n!, summed
  directly (the series converges geometrically).
* Lerch with lam = -1: the duplication formula
  Phi(-1, s, a) = 2^-s [zeta(s, a/2) - zeta(s, (a+1)/2)], expanded as a
  product of power series in s.

Nothing here calls zetataylor, so the truth is independent of every layer
being measured.  Values are computed at `digits + GUARD_DIGITS`, once per
(family, a, lam, digits) for all n up to the highest one asked for.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import mpmath

GUARD_DIGITS = 20


def to_mpf(x) -> mpmath.mpf:
    """Rational or mpf/float input at the current precision."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _hurwitz(a, n_max: int) -> list:
    av = to_mpf(a)
    return [mpmath.zeta(0, av, n) / factorial(n) for n in range(n_max + 1)]


def _lerch_direct(a, lam, n_max: int) -> list:
    av, lv = to_mpf(a), to_mpf(lam)
    eps = mpmath.mpf(10) ** (-(mpmath.mp.dps + 5))
    sums = [mpmath.mpf(0)] * (n_max + 1)
    pw = mpmath.mpf(1)  # lam^m
    m = 0
    while True:
        log_term = -mpmath.log(av + m)
        power = pw
        for n in range(n_max + 1):
            sums[n] += power
            power = power * log_term / (n + 1)
        m += 1
        pw *= lv
        # |log(m+a)| only grows, so this bounds every later term of every n
        if abs(pw) * max(1, abs(mpmath.log(av + m))) ** n_max < eps:
            break
    return sums


def _lerch_minus_one(a, n_max: int) -> list:
    av = to_mpf(a)
    lo = _hurwitz(av / 2, n_max)
    hi = _hurwitz((av + 1) / 2, n_max)
    log2 = mpmath.log(2)
    two_pow = [(-log2) ** j / factorial(j) for j in range(n_max + 1)]  # 2^-s
    return [
        sum(two_pow[j] * (lo[n - j] - hi[n - j]) for j in range(n + 1))
        for n in range(n_max + 1)
    ]


def coefficients(family: str, a, lam, n_max: int, digits: int) -> list:
    """Taylor coefficients c_0 .. c_{n_max} at s = 0, accurate to about
    digits + GUARD_DIGITS significant digits.  `a` and `lam` are Fractions
    or mpf values (mpf inputs are exact dyadics and are used as given)."""
    with mpmath.workdps(digits + GUARD_DIGITS):
        if family in ("hurwitz", "riemann"):
            return _hurwitz(a, n_max)
        if family != "lerch":
            raise ValueError(f"unknown family {family!r}")
        if lam == -1:
            return _lerch_minus_one(a, n_max)
        if not abs(lam) < 1:
            raise ValueError("lerch truth needs |lam| < 1 or lam = -1")
        return _lerch_direct(a, lam, n_max)


class TruthTable:
    """Truth computed once per (family, a, lam, digits) for every n asked
    for.  Register all requests first, then read them back."""

    def __init__(self):
        self._need: dict[tuple, int] = {}
        self._values: dict[tuple, list] = {}

    @staticmethod
    def key(family, a, lam, digits):
        return (family, _hashable(a), _hashable(lam), digits)

    def request(self, family, a, lam, digits, n) -> None:
        k = self.key(family, a, lam, digits)
        self._need[k] = max(n, self._need.get(k, -1))

    def get(self, family, a, lam, digits, n):
        k = self.key(family, a, lam, digits)
        if k not in self._values:
            self._values[k] = coefficients(family, a, lam, self._need.get(k, n), digits)
        return self._values[k][n]


def _hashable(x):
    if x is None or isinstance(x, Fraction):
        return x
    return ("mpf", mpmath.mpf(x)._mpf_)


def score(value, error_estimate, truth, digits) -> tuple[bool, float]:
    """(covered, accuracy_digits) for one reported coefficient: whether
    |value - truth| <= error_estimate, and -log10 |value - truth| (floored
    at the truth's own precision, so an exact hit stays finite)."""
    with mpmath.workdps(digits + GUARD_DIGITS):
        diff = abs(to_mpf(value) - truth)
        covered = bool(diff <= to_mpf(error_estimate))
        floor = mpmath.mpf(10) ** (-(digits + GUARD_DIGITS))
        acc = float(-mpmath.log10(max(diff, floor)))
    return covered, acc
