from fractions import Fraction

import mpmath
import pytest

import truth

DIGITS = 30


def close(x, y, digits=DIGITS + 5):
    with mpmath.workdps(digits + 10):
        return abs(x - y) <= mpmath.mpf(10) ** (-digits) * max(1, abs(y))


@pytest.mark.parametrize("a", [Fraction(3, 2), Fraction(1, 3), Fraction(7, 2), 0.7])
def test_hurwitz_zeta0_is_half_minus_a(a):
    (z0,) = truth.coefficients("hurwitz", a, None, 0, DIGITS)
    with mpmath.workdps(DIGITS + 20):
        assert close(z0, mpmath.mpf(1) / 2 - truth.to_mpf(a))


def test_riemann_derivative_at_zero():
    z = truth.coefficients("riemann", Fraction(1), None, 1, DIGITS)
    with mpmath.workdps(DIGITS + 20):
        assert close(z[0], mpmath.mpf(-1) / 2)
        assert close(z[1], -mpmath.log(2 * mpmath.pi) / 2)


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(-2, 7), Fraction(-1), 0.3, -0.85, Fraction(0)])
def test_lerch_c0_is_geometric_sum(lam):
    for a in (Fraction(1, 3), Fraction(5, 2)):
        (c0,) = truth.coefficients("lerch", a, lam, 0, DIGITS)
        with mpmath.workdps(DIGITS + 20):
            assert close(c0, 1 / (1 - truth.to_mpf(lam)))


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(3, 2), Fraction(11, 4)])
def test_lerch_minus_one_derivative_closed_form(a):
    # zeta'(0, b) = log Gamma(b) - log(2 pi)/2 turns the duplication formula
    # into c_1 = log Gamma(a/2) - log Gamma((a+1)/2) - log(2)/2
    c = truth.coefficients("lerch", a, Fraction(-1), 1, DIGITS)
    with mpmath.workdps(DIGITS + 20):
        av = truth.to_mpf(a)
        want = mpmath.loggamma(av / 2) - mpmath.loggamma((av + 1) / 2) - mpmath.log(2) / 2
        assert close(c[1], want)


def test_table_computes_once_per_key_for_all_n():
    table = truth.TruthTable()
    for n in range(4):
        table.request("hurwitz", Fraction(2), None, DIGITS, n)
    values = [table.get("hurwitz", Fraction(2), None, DIGITS, n) for n in range(4)]
    assert len(table._values) == 1
    assert values == truth.coefficients("hurwitz", Fraction(2), None, 3, DIGITS)


def test_score_covers_and_counts_digits():
    with mpmath.workdps(60):
        t = mpmath.mpf(1) / 3
        covered, acc = truth.score(t + mpmath.mpf("1e-12"), mpmath.mpf("1e-11"), t, DIGITS)
        assert covered and acc == pytest.approx(12, abs=1e-6)
        covered, _ = truth.score(t + mpmath.mpf("1e-12"), mpmath.mpf("1e-13"), t, DIGITS)
        assert not covered
        _, acc = truth.score(t, 0, t, DIGITS)
        assert acc == pytest.approx(DIGITS + truth.GUARD_DIGITS)
