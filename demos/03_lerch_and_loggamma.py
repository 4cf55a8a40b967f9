"""Lerch coefficients and the log-gamma series.

Two more things the coefficient machinery gives for free:

* Taylor coefficients of the Lerch transcendent Phi(lam, s, a) at s = 0.
  The n = 0 coefficient collapses to the closed form 1/(1-lam) because the
  first-kind Stirling column at 0 kills every term past k = 0.
* A semi-convergent series for log Gamma(1+a) built from the same
  Bernoulli values (the n = 1 Hurwitz series in thin disguise), good to
  roughly 3-4 digits near a = 0 - and exactly zero at a = 0 and a = 1,
  which makes those points a sharp self-test.
"""

from fractions import Fraction

import mpmath
from mpmath import mp

from zetataylor import lerch_coefficient, log_gamma_ref, log_gamma_series

mp.dps = 30
DIGITS = 30

print("lerch n=0 closed form, c_0(a, lam) = 1/(1-lam), independent of a:")
print(f"{'lam':>6} {'a':>4} {'computed':>14} {'1/(1-lam)':>14}")
for lam in (Fraction(-1), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
    for a in (Fraction(1, 2), Fraction(2)):
        res = lerch_coefficient(0, a, lam, digits=DIGITS)
        closed = Fraction(1) / (1 - lam)
        print(f"{str(lam):>6} {str(a):>4} {mpmath.nstr(res.value, 10):>14} {str(closed):>14}")

print()
print("log-gamma series at its exact zeros (log Gamma(1) = log Gamma(2) = 0):")
for a in (0, 1):
    res = log_gamma_series(a, digits=DIGITS)
    print(
        f"  a={a}: value {mpmath.nstr(res.value, 4)}, estimate {mpmath.nstr(res.error_estimate, 3)},"
        f" truncated at k={res.truncation_index}"
    )

print()
print("and at a generic point, against Lerch's formula on the reference jet:")
a = Fraction(1, 3)
res = log_gamma_series(a, digits=DIGITS)
ref = log_gamma_ref(1 + a, digits=DIGITS)
print(f"  series    log Gamma(4/3) = {mpmath.nstr(res.value, 10)} +- {mpmath.nstr(res.error_estimate, 3)}")
print(f"  reference log Gamma(4/3) = {mpmath.nstr(ref, 10)}")
print(f"  |difference|             = {mpmath.nstr(abs(res.value - ref), 3)}")
