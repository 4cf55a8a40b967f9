"""Exact combinatorics against independent oracles and closed forms."""

import sys
import threading
from fractions import Fraction
from itertools import islice
from math import comb, factorial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp

from zetataylor import coefficients, exact
from zetataylor.coefficients import fraction_from_mpf
from zetataylor.exact import (
    apostol_bernoulli,
    apostol_bernoulli_coeffs,
    appell_row,
    bernoulli_number,
    bernoulli_polynomial,
    bernoulli_polynomial_coeffs,
    exp_polynomial_coeffs,
    harmonic_number,
    stirling1,
    stirling2,
)

# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------


def bernoulli_akiyama_tanigawa(n: int) -> list[Fraction]:
    """B_0..B_n by the Akiyama-Tanigawa triangle (gives B1 = +1/2; flipped
    to the B1 = -1/2 convention used by the package)."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n >= 1:
        out[1] = -out[1]
    return out


def stirling1_rising_factorial(k: int) -> list[int]:
    """Coefficients of x(x+1)...(x+k-1), whose x^n coefficient is the
    unsigned first-kind Stirling number for (k, n)."""
    poly = [1]  # empty product
    for i in range(k):
        # multiply by (x + i)
        nxt = [0] * (len(poly) + 1)
        for p, c in enumerate(poly):
            nxt[p] += c * i
            nxt[p + 1] += c
        poly = nxt
    return poly


def stirling2_formula(n: int, k: int) -> int:
    """Inclusion-exclusion surjection count divided by k!."""
    total = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    val = Fraction(total, factorial(k))
    assert val.denominator == 1
    return val.numerator


def apostol_series_division(nmax: int, a: Fraction, lam: Fraction) -> list[Fraction]:
    """beta_0..beta_nmax by exact power-series division of
    z*e^(a z) / (lam*e^z - 1), an independent route from the recurrence."""
    u = [Fraction(0)] + [a ** (m - 1) / factorial(m - 1) for m in range(1, nmax + 2)]
    d = [lam - 1] + [Fraction(lam, factorial(m)) for m in range(1, nmax + 2)]
    b: list[Fraction] = []
    for m in range(nmax + 1):
        acc = u[m] - sum(d[m - j] * b[j] for j in range(m))
        b.append(acc / d[0])
    return [b[n] * factorial(n) for n in range(nmax + 1)]


def apostol_vector_recurrence(nmax: int, lam: Fraction) -> list[tuple[Fraction, ...]]:
    """Coefficient rows (ascending powers of a) of beta_0..beta_nmax by the
    recurrence (lam - 1)*beta_m + lam * sum_{j<m} C(m, j)*beta_j = m*a^(m-1)
    run on whole coefficient vectors: O(nmax^3), independent of the Appell
    numbers."""
    rows = [(Fraction(0),)]
    for m in range(1, nmax + 1):
        acc = [Fraction(0)] * m
        acc[m - 1] = Fraction(m)
        for j in range(m):
            cj = lam * comb(m, j)
            for p, coeff in enumerate(rows[j]):
                acc[p] -= cj * coeff
        rows.append(tuple(c / (lam - 1) for c in acc))
    return rows


# ----------------------------------------------------------------------
# Stirling numbers
# ----------------------------------------------------------------------


def test_stirling1_examples():
    assert stirling1(5, 1) == 24  # (5-1)!
    assert stirling1(3, 2) == 3
    assert stirling1(3, 1) == 2
    assert stirling1(7, 7) == 1
    assert stirling1(0, 0) == 1
    assert stirling1(4, 0) == 0
    assert stirling1(2, 5) == 0  # n > k allowed


def test_stirling2_examples():
    assert stirling2(3, 2) == 3
    assert stirling2(2, 1) == 1
    assert stirling2(2, 2) == 1
    assert stirling2(6, 6) == 1
    assert stirling2(0, 0) == 1
    assert stirling2(2, 5) == 0


@pytest.mark.parametrize("k", range(26))
def test_stirling1_matches_rising_factorial(k):
    coeffs = stirling1_rising_factorial(k)
    for n in range(k + 1):
        assert stirling1(k, n) == coeffs[n]


@pytest.mark.parametrize("n", range(26))
def test_stirling2_matches_formula(n):
    for k in range(n + 1):
        assert stirling2(n, k) == stirling2_formula(n, k)


def test_stirling1_columns():
    for k in range(1, 26):
        assert stirling1(k, 1) == factorial(k - 1)
        assert Fraction(stirling1(k, 2)) == factorial(k - 1) * harmonic_number(k - 1)
        assert stirling1(k, k) == 1
        assert stirling1(k, 0) == 0


def test_stirling_orthogonality_exact():
    for k in range(31):
        for m in range(k + 1):
            s = sum(
                (-1) ** (k - n) * stirling1(k, n) * stirling2(n, m)
                for n in range(m, k + 1)
            )
            assert s == (1 if k == m else 0)


def test_basis_change_round_trip():
    for n in range(21):
        out = [0] * (n + 1)
        for k in range(n + 1):
            c = (-1) ** (n - k) * stirling1(n, k)
            for m, s2 in enumerate(exp_polynomial_coeffs(k)):
                out[m] += c * s2
        assert out == [0] * n + [1]


def test_exp_polynomial_coeffs():
    assert exp_polynomial_coeffs(0) == (1,)
    assert exp_polynomial_coeffs(2) == (0, 1, 1)
    assert exp_polynomial_coeffs(3) == (0, 1, 3, 1)


def test_stirling_table_entries_nonnegative():
    for k in range(40):
        assert all(stirling1(k, n) >= 0 for n in range(k + 1))
        assert all(stirling2(k, n) >= 0 for n in range(k + 1))


# ----------------------------------------------------------------------
# Bernoulli numbers and polynomials
# ----------------------------------------------------------------------


def test_bernoulli_examples():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0


def test_bernoulli_against_akiyama_tanigawa():
    want = bernoulli_akiyama_tanigawa(60)
    for n in range(61):
        assert bernoulli_number(n) == want[n]


def test_odd_bernoulli_vanish():
    for k in range(1, 20):
        assert bernoulli_number(2 * k + 1) == 0


def test_bernoulli_polynomial_examples():
    for a in [Fraction(0), Fraction(1, 2), Fraction(5, 3)]:
        assert bernoulli_polynomial(1, a - 1) == a - Fraction(3, 2)
    assert bernoulli_polynomial(0, Fraction(7, 3)) == 1
    assert bernoulli_polynomial(2, 0) == Fraction(1, 6)


def test_bernoulli_polynomial_at_zero_is_number():
    for n in range(41):
        assert bernoulli_polynomial(n, 0) == bernoulli_number(n)


def test_bernoulli_polynomial_coeffs_consistent():
    for n in range(12):
        coeffs = bernoulli_polynomial_coeffs(n)
        x = Fraction(3, 7)
        direct = sum(c * x**m for m, c in enumerate(coeffs))
        assert direct == bernoulli_polynomial(n, x)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=25),
    x=st.fractions(min_value=-3, max_value=3, max_denominator=40),
)
def test_bernoulli_polynomial_difference_property(n, x):
    # B_n(x+1) - B_n(x) = n x^(n-1)
    assert bernoulli_polynomial(n, x + 1) - bernoulli_polynomial(n, x) == n * x ** (n - 1)


# ----------------------------------------------------------------------
# Apostol-Bernoulli values
# ----------------------------------------------------------------------


def test_apostol_closed_forms():
    lam = Fraction(2)
    for a in [Fraction(0), Fraction(1), Fraction(-2, 3)]:
        assert apostol_bernoulli(0, a, lam) == 0
        assert apostol_bernoulli(1, a, lam) == 1
    assert apostol_bernoulli(2, 1, 2) == -2


def test_apostol_beta2_formula():
    for a in [Fraction(0), Fraction(1, 2), Fraction(2)]:
        for lam in [Fraction(-1), Fraction(1, 3), Fraction(5, 2)]:
            want = (2 * a * (lam - 1) - 2 * lam) / (lam - 1) ** 2
            assert apostol_bernoulli(2, a, lam) == want


@pytest.mark.parametrize(
    "a,lam",
    [
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1), Fraction(2)),
        (Fraction(1, 2), Fraction(-1)),
        (Fraction(-1, 3), Fraction(3, 7)),
    ],
)
def test_apostol_against_series_division(a, lam):
    want = apostol_series_division(12, a, lam)
    for n in range(13):
        assert apostol_bernoulli(n, a, lam) == want[n]


def test_apostol_rejects_lambda_one():
    with pytest.raises(ValueError, match="bernoulli_polynomial"):
        apostol_bernoulli(3, Fraction(1, 2), 1)


@pytest.mark.parametrize(
    "lam",
    [
        Fraction(1, 2),
        Fraction(-1),
        Fraction(-2, 7),
        Fraction(3, 4),
        fraction_from_mpf(mpf(0.73)),
        fraction_from_mpf(mpf(-0.41)),
    ],
    ids=["1/2", "-1", "-2/7", "3/4", "mpf0.73", "mpf-0.41"],
)
def test_apostol_rows_match_vector_recurrence(lam):
    want = apostol_vector_recurrence(70, lam)
    for n in range(71):
        assert apostol_bernoulli_coeffs(n, lam) == want[n]


def test_bernoulli_rows_are_binomial_times_numbers():
    for n in range(30):
        row = bernoulli_polynomial_coeffs(n)
        assert row == tuple(comb(n, p) * bernoulli_number(n - p) for p in range(n + 1))
        assert all(type(c) is Fraction for c in row)


def test_appell_value_is_the_row_at_x():
    # the integer evaluation against the exact sum of the row's terms
    points = [0, 3, Fraction(-2, 7), Fraction(5, 3), fraction_from_mpf(mpf(-0.41))]
    for lam in (None, Fraction(-1), Fraction(2, 9), fraction_from_mpf(mpf(0.73))):
        for m in range(25):
            for x in points:
                got = exact.appell_value(m, x, lam)
                assert type(got) is Fraction
                assert got == sum(c * Fraction(x) ** p for p, c in enumerate(appell_row(m, lam)))
    with pytest.raises(ValueError):
        exact.appell_value(-1, 1)
    with pytest.raises(ValueError):
        exact.appell_value(3, 1, 1)


def test_apostol_coeffs_degree():
    # beta_n is a polynomial of degree <= n-1 in its first argument
    for n in range(1, 10):
        coeffs = apostol_bernoulli_coeffs(n, Fraction(1, 2))
        assert len(coeffs) == n


# ----------------------------------------------------------------------
# harmonic numbers, caching
# ----------------------------------------------------------------------


def test_harmonic_examples():
    assert harmonic_number(0) == 0
    assert harmonic_number(3) == Fraction(11, 6)
    assert Fraction(stirling1(4, 2)) == factorial(3) * harmonic_number(3) == 11


def test_caches_are_consistent_under_threads():
    # more lambdas than the Apostol cache keeps, so families are evicted and
    # rebuilt while other threads read them; more (x, lam) keys than the
    # value table keeps, so its lists are evicted and rebuilt too, and each
    # thread asks the indices n in its own order, so lists grow from either end
    lams = [Fraction(1, p) for p in range(3, 5 + 2 * exact._APPELL_LAMBDAS)]
    keys = [(x, lam) for x in (Fraction(-2, 7), Fraction(3, 5)) for lam in [None] + lams]
    # wide keys (an mpf's dyadic x or lam) grow their lists in fixed point
    # and share one B row per lam, more lams than the B rows keep, so rows
    # are evicted and rebuilt while other threads' lists still grow them
    wide_x, wide_lam = fraction_from_mpf(0.8) - 1, fraction_from_mpf(0.73)
    keys += [(wide_x, lam) for lam in [None, wide_lam] + lams] + [(Fraction(3, 5), wide_lam)]
    assert len(keys) > coefficients._VALUE_LISTS and len(lams) > exact._APPELL_LAMBDAS
    starts = (0, 1, 3, 6)  # n = 0 weighs only P_1; n = 1 weighs P_2 .. P_9

    def q(x, lam, k, prec):  # the floor (man, exp) of P_(k+1)(x) / (k+1)! at prec + 64 bits
        value = sum(c * x**p for p, c in enumerate(appell_row(k + 1, lam))) / factorial(k + 1)
        return coefficients._floor(value.numerator, value.denominator, prec + 64)

    def terms(x, lam, n):
        return tuple(islice(coefficients._terms(n, x, lam), 8))

    results = []

    def work(shift):
        order = lams[shift:] + lams[:shift]
        first = keys[3 * shift:] + keys[:3 * shift]
        table = {}
        for x, lam in first:
            for start in starts[shift % 4:] + starts[:shift % 4]:
                table[x, lam, start] = terms(x, lam, start)
        results.append(
            (
                bernoulli_number(120),
                stirling1(60, 7),
                apostol_bernoulli(30, Fraction(1, 3), Fraction(1, 2)),
                tuple(sorted((lam, apostol_bernoulli(14, Fraction(1, 3), lam)) for lam in order)),
                tuple(sorted(table.items(), key=repr)),
            )
        )

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mpmath.workdps(30):  # the mpmath context is shared by every thread
            prec = mpmath.mp.prec
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert len(set(results)) == 1
    assert results[0][0] == bernoulli_akiyama_tanigawa(120)[120]
    for lam, value in results[0][3]:
        assert value == apostol_series_division(14, Fraction(1, 3), lam)[14]
    for (x, lam, start), got in results[0][4]:  # serial reference, without the table
        want = []
        for k in range(start, start + 8):  # each term s1(k, n) times the floor, exactly
            man, exp = q(x, lam, k, prec)
            want.append(from_man_exp((-1) ** (k + 1) * stirling1(k, start) * man, exp))
        assert [from_man_exp(*t) for t in got] == want, (x, lam, start)
    for ((u, v), lam_pq, key_prec), (values, *_) in coefficients._values.items():  # every kept value
        x, lam = Fraction(u, v), lam_pq and Fraction(*lam_pq)
        assert values == [q(x, lam, k, key_prec) for k in range(len(values))], (x, lam, key_prec)
    assert coefficients._b_rows
    for (lam, W), (B, sums) in coefficients._b_rows.items():  # every kept B row
        b = [appell_row(j, lam)[0] for j in range(len(B))]  # b_j = P_j(0)
        assert B == [(c.numerator << W) // (c.denominator * factorial(j)) for j, c in enumerate(b)]
        assert sums == [sum(map(abs, B[:j])) for j in range(len(B) + 1)]
    assert len(coefficients._b_rows) <= exact._APPELL_LAMBDAS
    assert len(exact._apostol) <= exact._APPELL_LAMBDAS
    assert len(exact._bernoulli) > 120  # the Bernoulli numbers are never evicted
    assert len(coefficients._values) <= coefficients._VALUE_LISTS
