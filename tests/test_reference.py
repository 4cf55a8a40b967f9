"""Independent numerical reference: Euler-Maclaurin, direct Lerch
summation, the power-series coefficient reference, contour coefficient
extraction, and the log-gamma reference."""

from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf, workdps

from zetataylor.exact import apostol_bernoulli
from zetataylor.reference import (
    OracleConfig,
    hurwitz_zeta,
    lerch_phi,
    log_gamma_ref,
    taylor_coefficients,
    taylor_coefficients_contour,
)
from zetataylor.summation import to_mpf

# frozen from independent 58-digit evaluations
PI_SQUARED_OVER_6 = "1.644934066848226436472415166646025189218949901206798438"
HALF_LOG_2PI = "0.9189385332046727417803297364056176398613974736377834128"
HALF_LOG_PI = "0.5723649429247000870717136756765293558236474064576557858"


def test_euler_maclaurin_classic_values():
    assert abs(hurwitz_zeta(2, 1) - mpf(PI_SQUARED_OVER_6)) <= mpf("1e-50")
    for a in (Fraction(1, 2), Fraction(1), Fraction(7, 2)):
        assert abs(hurwitz_zeta(0, a) - (mpf(0.5) - to_mpf(a))) <= mpf("1e-50")
    assert abs(hurwitz_zeta(-1, 1) + Fraction(1, 12)) <= mpf("1e-50")


def test_euler_maclaurin_complex_s_against_mpmath():
    with workdps(60):
        for s in (mpmath.mpc(0.25, 0.25), mpmath.mpc(-0.5, 0.5), mpmath.mpc(2, -1)):
            for a in (mpf(0.5), mpf(2)):
                got = hurwitz_zeta(s, a, digits=50)
                want = mpmath.zeta(s, a)
                assert abs(got - want) <= mpf("1e-48")


def test_euler_maclaurin_domain_errors():
    with pytest.raises(ValueError):
        hurwitz_zeta(1, 1)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, 0)
    for a in (1j, "2"):
        with pytest.raises(ValueError, match="shift a"):
            hurwitz_zeta(0, a)


def test_lerch_phi_geometric():
    assert abs(lerch_phi(Fraction(1, 2), 0, 1) - 2) <= mpf("1e-50")
    for a in (Fraction(1, 2), Fraction(5, 2)):
        assert abs(lerch_phi(Fraction(1, 2), 0, a) - 2) <= mpf("1e-50")


def test_lerch_phi_example_value():
    want = to_mpf(-apostol_bernoulli(2, 1, Fraction(1, 3)) / 2)
    assert abs(lerch_phi(Fraction(1, 3), -1, 1) - want) <= mpf("1e-49")
    assert abs(want - to_mpf(Fraction(9, 4))) <= mpf("1e-55")


def test_lerch_phi_rejects_unit_lambda():
    with pytest.raises(ValueError):
        lerch_phi(1, 0, 1)
    with pytest.raises(ValueError):
        lerch_phi(-1, 0, 1)
    with pytest.raises(ValueError, match="shift a"):
        lerch_phi(0.5, 0, 1j)
    with pytest.raises(ValueError, match="lambda"):
        lerch_phi(0.5j, 0, 1)


def test_contour_n0_closed_form():
    (got,) = taylor_coefficients_contour("hurwitz", 0, Fraction(3, 2))
    assert abs(got.value + 1) <= mpf("1e-20")


def test_contour_lerch_n1_matches_direct_derivative():
    # d/ds sum lam^m (m+1)^-s at s=0 is -sum lam^m log(m+1), an
    # independently convergent sum
    got = taylor_coefficients_contour("lerch", 1, 1, Fraction(1, 2), digits=30)[1]
    with workdps(45):
        want = -mpmath.nsum(lambda m: mpf(2) ** (-m) * mpmath.log(m + 1), [0, mpmath.inf])
    assert abs(got.value - want) <= mpf("1e-25")


def test_contour_golden_bits():
    # (value, error_estimate) as mpf tuples, recorded from the per-n contour
    # that cached its nodes; one node pass per call must give the same bits
    golden = {
        ("hurwitz", Fraction(3, 2), None): [
            ((1, 77371252455336267181195259, -86, 86), (0, 55751863140450735284320359, -141, 86)),
            ((1, 20111124560928029791677789, -84, 85), (0, 56859116843683061650386111, -141, 86)),
            ((1, 9645288090196173581018877, -83, 83), (0, 55676581858622543593718559, -141, 86)),
        ],
        ("lerch", Fraction(5, 4), Fraction(-1, 3)): [
            ((0, 14507109835375550096474113, -84, 84), (0, 24391440186993673193721243, -140, 85)),
            ((1, 27285363293577670553899, -79, 75), (0, 58268493655386985828446797, -142, 86)),
        ],
    }
    for (family, a, lam), want in golden.items():
        got = taylor_coefficients_contour(family, len(want) - 1, a, lam, digits=15)
        assert [(v.value._mpf_, v.error_estimate._mpf_) for v in got] == want


def test_contour_requires_lambda_for_lerch():
    with pytest.raises(ValueError):
        taylor_coefficients_contour("lerch", 0, 1)


def test_contour_riemann_fixes_shift_one():
    with pytest.raises(ValueError, match="a = 1"):
        taylor_coefficients_contour("riemann", 1, a=2)


def _as_mpf(x):
    return mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mpf(x)


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_jet_hurwitz_covers_mpmath_derivatives(digits):
    shifts = [mpf(1e-6), Fraction(1, 10), Fraction(1, 2), 1, 4, 50]
    for a in shifts:
        jet = taylor_coefficients("hurwitz", 8, a, digits=digits)
        assert len(jet) == 9
        with workdps(digits + 20):
            for n, got in enumerate(jet):
                want = mpmath.zeta(0, _as_mpf(a), n) / mpmath.factorial(n)
                assert abs(got.value - want) <= got.error_estimate, (a, n)
                assert got.error_estimate <= mpf(10) ** (-digits) * (1 + abs(want))


def test_jet_riemann_is_hurwitz_at_one():
    assert taylor_coefficients("riemann", 4, 1) == taylor_coefficients("hurwitz", 4, 1)
    got = taylor_coefficients("riemann", 1, 1)[1]
    assert abs(got.value + mpf(HALF_LOG_2PI)) <= got.error_estimate


@pytest.mark.parametrize(
    "lam, a",
    [
        (Fraction(-9, 10), 1),
        (Fraction(1, 2), 1),
        # mpmath evaluates a = 1 through the polylogarithm, which is off by
        # about 1e-22 at n = 2 for lam = 99/100, so take another shift
        (Fraction(99, 100), Fraction(1, 2)),
        (Fraction(-1), 1),  # the duplication-formula path
    ],
)
def test_jet_lerch_covers_mpmath_derivatives(lam, a):
    jet = taylor_coefficients("lerch", 2, a, lam, digits=30)
    with workdps(45):
        phi = lambda s: mpmath.lerchphi(_as_mpf(lam), s, _as_mpf(a))
        for n, d in enumerate(mpmath.diffs(phi, 0, 2)):
            want = d / mpmath.factorial(n)
            assert abs(jet[n].value - want) <= jet[n].error_estimate, n
            assert jet[n].error_estimate <= mpf("1e-29") * (1 + abs(want))


def test_jet_lerch_n0_closed_form():
    for lam in (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(3, 4)):
        (got,) = taylor_coefficients("lerch", 0, Fraction(5, 2), lam)
        assert abs(got.value - to_mpf(1 / (1 - lam))) <= got.error_estimate


def test_jet_matches_contour_within_combined_estimates():
    cases = [("hurwitz", Fraction(1, 2), None), ("hurwitz", 3, None),
             ("lerch", Fraction(5, 4), Fraction(-1, 3))]
    for family, a, lam in cases:
        jet = taylor_coefficients(family, 4, a, lam, digits=30)
        contour = taylor_coefficients_contour(family, 4, a, lam, digits=30)
        for j, c in zip(jet, contour):
            assert abs(j.value - c.value) <= j.error_estimate + c.error_estimate


def test_jet_domain_errors():
    with pytest.raises(ValueError, match="lambda"):
        taylor_coefficients("lerch", 1, 1, Fraction(3, 2))
    with pytest.raises(ValueError, match="lambda"):
        taylor_coefficients("lerch", 1, 1, Fraction(-5, 4))
    with pytest.raises(ValueError, match="hurwitz"):
        taylor_coefficients("lerch", 1, 1, 1)
    with pytest.raises(ValueError, match="requires lam"):
        taylor_coefficients("lerch", 1, 1)
    for a in (0, Fraction(-1, 2), mpf(-1)):
        with pytest.raises(ValueError, match="positive"):
            taylor_coefficients("hurwitz", 1, a)
    for a in (mpmath.inf, mpmath.nan, 1j, True):
        with pytest.raises(ValueError, match="shift a"):
            taylor_coefficients("hurwitz", 1, a)
    with pytest.raises(ValueError, match="lambda"):
        taylor_coefficients("lerch", 1, 1, 0.5j)
    with pytest.raises(ValueError, match="a = 1"):
        taylor_coefficients("riemann", 1, Fraction(1, 2))
    for n_max in (-1, 1.0, True):
        with pytest.raises(ValueError, match="index n"):
            taylor_coefficients("hurwitz", n_max, 1)
    with pytest.raises(ValueError, match="family"):
        taylor_coefficients("dirichlet", 1, 1)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(2, 10)
    with pytest.raises(ValueError):
        OracleConfig(20, 1)
    with pytest.raises(ValueError):
        OracleConfig(20, 10, Fraction(3, 2))
    with pytest.raises(ValueError):
        OracleConfig(20, 10, Fraction(1, 2), 48)  # not a power of two
    cfg = OracleConfig.for_digits(50)
    assert cfg.contour_points >= 128


def test_log_gamma_ref_values():
    assert abs(log_gamma_ref(1)) <= mpf("1e-50")
    assert abs(log_gamma_ref(2)) <= mpf("1e-50")
    assert abs(log_gamma_ref(Fraction(1, 2)) - mpf(HALF_LOG_PI)) <= mpf("1e-50")


def test_log_gamma_ref_against_mpmath():
    with workdps(60):
        for a in (mpf(0.7), mpf(2.3), mpf(11)):
            assert abs(log_gamma_ref(a, digits=50) - mpmath.loggamma(a)) <= mpf("1e-48")


def test_log_gamma_ref_domain():
    with pytest.raises(ValueError):
        log_gamma_ref(0)
    with pytest.raises(ValueError, match="finite real"):
        log_gamma_ref(1j)
