"""Independent numerical reference: Euler-Maclaurin, direct Lerch
summation, contour coefficient extraction, and the log-gamma reference."""

from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf, workdps

from zetataylor.exact import apostol_bernoulli, bernoulli_polynomial
from zetataylor.reference import (
    OracleConfig,
    hurwitz_zeta,
    lerch_phi,
    log_gamma_ref,
    taylor_coefficient_contour,
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


def test_euler_maclaurin_negative_integers_grid():
    for k in range(9):
        for a in (Fraction(1, 2), 1, 2):
            got = hurwitz_zeta(-k, a)
            want = to_mpf(-bernoulli_polynomial(k + 1, Fraction(a)) / (k + 1))
            assert abs(got - want) <= mpf("1e-40")


def test_euler_maclaurin_complex_s_against_mpmath():
    with workdps(60):
        for s in (mpmath.mpc(0.25, 0.25), mpmath.mpc(-0.5, 0.5), mpmath.mpc(2, -1)):
            for a in (mpf(0.5), mpf(2)):
                got = hurwitz_zeta(s, a, digits=50)
                want = mpmath.zeta(s, a)
                assert abs(got - want) <= mpf("1e-48")


def test_euler_maclaurin_doubling_stability():
    base = OracleConfig.for_digits(50)
    more_n = OracleConfig(base.em_cutoff * 2, base.em_order)
    more_j = OracleConfig(base.em_cutoff, base.em_order * 2)
    half = mpf(0.5)
    for s in (mpf(0), half, -half, mpmath.mpc(0, half), mpmath.mpc(0, -half)):
        for a in (Fraction(1, 2), 1, 2):
            v = hurwitz_zeta(s, a, base)
            assert abs(v - hurwitz_zeta(s, a, more_n)) <= mpf("1e-53")
            assert abs(v - hurwitz_zeta(s, a, more_j)) <= mpf("1e-53")


def test_euler_maclaurin_domain_errors():
    with pytest.raises(ValueError):
        hurwitz_zeta(1, 1)
    with pytest.raises(ValueError):
        hurwitz_zeta(2, 0)


def test_lerch_phi_geometric():
    assert abs(lerch_phi(Fraction(1, 2), 0, 1) - 2) <= mpf("1e-50")
    for a in (Fraction(1, 2), Fraction(5, 2)):
        assert abs(lerch_phi(Fraction(1, 2), 0, a) - 2) <= mpf("1e-50")


def test_lerch_phi_negative_integers_grid():
    for m in range(7):
        for lam in (Fraction(1, 3), Fraction(1, 2)):
            for a in (Fraction(1, 2), 1):
                got = lerch_phi(lam, -m, a)
                want = to_mpf(-apostol_bernoulli(m + 1, Fraction(a), lam) / (m + 1))
                assert abs(got - want) <= mpf("1e-40")


def test_lerch_phi_example_value():
    want = to_mpf(-apostol_bernoulli(2, 1, Fraction(1, 3)) / 2)
    assert abs(lerch_phi(Fraction(1, 3), -1, 1) - want) <= mpf("1e-49")
    assert abs(want - to_mpf(Fraction(9, 4))) <= mpf("1e-55")


def test_lerch_phi_rejects_unit_lambda():
    with pytest.raises(ValueError):
        lerch_phi(1, 0, 1)
    with pytest.raises(ValueError):
        lerch_phi(-1, 0, 1)


def test_contour_n0_closed_form():
    got = taylor_coefficient_contour("hurwitz", 0, Fraction(3, 2))
    assert abs(got.value + 1) <= mpf("1e-20")


def test_contour_n1_log2pi():
    got = taylor_coefficient_contour("hurwitz", 1, 1)
    assert abs(got.value + mpf(HALF_LOG_2PI)) <= mpf("1e-20")
    assert got.error_estimate <= mpf("1e-20")


def test_contour_lerch_geometric():
    got = taylor_coefficient_contour("lerch", 0, 1, Fraction(1, 2))
    assert abs(got.value - 2) <= mpf("1e-20")


def test_contour_lerch_n1_matches_direct_derivative():
    # d/ds sum lam^m (m+1)^-s at s=0 is -sum lam^m log(m+1), an
    # independently convergent sum
    got = taylor_coefficient_contour("lerch", 1, 1, Fraction(1, 2), digits=30)
    with workdps(45):
        want = -mpmath.nsum(lambda m: mpf(2) ** (-m) * mpmath.log(m + 1), [0, mpmath.inf])
    assert abs(got.value - want) <= mpf("1e-25")


def test_lerch_n1_series_vs_contour_within_combined_error():
    # at lambda = 1/2 the coefficient series diverges from its first term;
    # the minimal-term engine reports max_terms with a correspondingly
    # huge estimate, and the combined bound still holds
    from zetataylor.coefficients import lerch_coefficient

    ser = lerch_coefficient(1, 1, Fraction(1, 2), digits=30)
    orc = taylor_coefficient_contour("lerch", 1, 1, Fraction(1, 2), digits=30)
    assert ser.series.terminated_by == "max_terms"
    assert abs(ser.value - orc.value) <= ser.error_estimate + orc.error_estimate


def test_contour_stability_across_radii():
    cfg_a = OracleConfig(60, 35, Fraction(1, 4), 64)
    cfg_b = OracleConfig(60, 35, Fraction(1, 2), 128)
    for a in (1, Fraction(3, 2)):
        for n in range(7):
            va = taylor_coefficient_contour("hurwitz", n, a, cfg=cfg_a)
            vb = taylor_coefficient_contour("hurwitz", n, a, cfg=cfg_b)
            assert abs(va.value - vb.value) <= mpf("1e-15")


def test_contour_requires_lambda_for_lerch():
    with pytest.raises(ValueError):
        taylor_coefficient_contour("lerch", 0, 1)


def test_contour_riemann_fixes_shift_one():
    with pytest.raises(ValueError, match="a = 1"):
        taylor_coefficient_contour("riemann", 1, a=2)


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


def test_log_gamma_ref_duplication_identity():
    with workdps(60):
        for a in (mpf(0.3), mpf(1.7)):
            lhs = log_gamma_ref(2 * a)
            rhs = (
                log_gamma_ref(a)
                + log_gamma_ref(a + mpf(0.5))
                + (2 * a - 1) * mpmath.log(2)
                - mpmath.log(mpmath.pi) / 2
            )
            assert abs(lhs - rhs) <= mpf("1e-48")


def test_log_gamma_ref_against_mpmath():
    with workdps(60):
        for a in (mpf(0.7), mpf(2.3), mpf(11)):
            assert abs(log_gamma_ref(a, digits=50) - mpmath.loggamma(a)) <= mpf("1e-48")


def test_log_gamma_ref_domain():
    with pytest.raises(ValueError):
        log_gamma_ref(0)
