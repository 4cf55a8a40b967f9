"""A tour of Hurwitz coefficients against the independent reference.

For several shifts a, compute zeta_n(a) for n = 0..4 by the exact
Stirling/Bernoulli series with minimal-term truncation, and compare with
coefficients extracted from the analytic function itself (Euler-Maclaurin
evaluation on a circle around s = 0, read off by the trapezoidal rule).
The two routes share nothing but the Bernoulli numbers, so agreement
within the reported estimates is real evidence.

Watch n = 4 at a >= 1: there the nonzero series terms grow from the very
first one, no minimum exists, and the engine honestly reports max_terms
with an astronomically large error bar instead of pretending to know the
value.  The reference column still shows the true coefficient.
"""

from fractions import Fraction

import mpmath
from mpmath import mp

from zetataylor import hurwitz_coefficient, taylor_coefficients_contour

mp.dps = 30
DIGITS = 30

for a in (Fraction(1, 2), Fraction(1), Fraction(2)):
    print(f"shift a = {a}")
    print(f"{'n':>2} {'series':>14} {'est':>10} {'by':>13} {'reference':>14} {'delta':>10}")
    contour = taylor_coefficients_contour("hurwitz", 4, a, digits=DIGITS)
    for n, ref in enumerate(contour):
        ser = hurwitz_coefficient(n, a, digits=DIGITS)
        delta = abs(ser.value - ref.value)
        print(
            f"{n:>2} {mpmath.nstr(ser.value, 8):>14} {mpmath.nstr(ser.error_estimate, 3):>10}"
            f" {ser.series.terminated_by:>13} {mpmath.nstr(ref.value, 8):>14}"
            f" {mpmath.nstr(delta, 3):>10}"
        )
    print()

print("every |delta| is below the sum of the two error estimates, including")
print("the divergent rows, where the estimate says 'no accuracy achieved'.")
