"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line with the measured quantity once its
assertions hold (run pytest with -s or check captured output).
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from hashlib import sha256

import mpmath
from mpmath import mpf, workdps

from zetataylor.coefficients import (
    etf_check,
    hurwitz_coefficient,
    lerch_coefficient,
    log_gamma_series,
)
from zetataylor.exact import (
    apostol_bernoulli,
    bernoulli_polynomial,
    stirling1,
    stirling2,
)
from zetataylor.reference import (
    hurwitz_zeta,
    lerch_phi,
    log_gamma_ref,
    taylor_coefficients_contour,
)
from zetataylor.summation import to_mpf

HALF_LOG_2PI = "0.9189385332046727417803297364056176398613974736377834128"


def test_criterion_1_closed_form_n0_full_precision():
    t0 = time.perf_counter()
    worst = mpf(0)
    for a in [Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2), 2, 10]:
        res = hurwitz_coefficient(0, a, digits=50)
        worst = max(worst, abs(res.value - to_mpf(Fraction(1, 2) - Fraction(a))))
    elapsed = time.perf_counter() - t0
    assert worst <= mpf("1e-48")
    assert elapsed < 1.0
    print(f"PASS criterion 1: n=0 closed form, max delta {mpmath.nstr(worst, 3)}, {elapsed:.2f}s")


def test_criterion_2_stirling_orthogonality_exact():
    t0 = time.perf_counter()
    for k in range(31):
        for m in range(k + 1):
            s = sum(
                (-1) ** (k - n) * stirling1(k, n) * stirling2(n, m)
                for n in range(m, k + 1)
            )
            assert s == (1 if k == m else 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 2: orthogonality exact through k=30, {elapsed:.2f}s")


def test_criterion_3_negative_integer_values():
    worst_h = mpf(0)
    for k in range(9):
        for a in (Fraction(1, 2), 1, 2):
            got = hurwitz_zeta(-k, a, digits=50)
            want = to_mpf(-bernoulli_polynomial(k + 1, Fraction(a)) / (k + 1))
            worst_h = max(worst_h, abs(got - want))
    assert worst_h <= mpf("1e-40")
    worst_l = mpf(0)
    for m in range(7):
        for lam in (Fraction(1, 3), Fraction(1, 2)):
            for a in (Fraction(1, 2), 1, 2):
                got = lerch_phi(lam, -m, a, digits=50)
                want = to_mpf(-apostol_bernoulli(m + 1, Fraction(a), lam) / (m + 1))
                worst_l = max(worst_l, abs(got - want))
    assert worst_l <= mpf("1e-40")
    print(
        f"PASS criterion 3: negative-integer values, hurwitz {mpmath.nstr(worst_h, 3)}, "
        f"lerch {mpmath.nstr(worst_l, 3)} (tol 1e-40)"
    )


def test_criterion_4_zeta1_grid_within_estimates():
    t0 = time.perf_counter()
    half_log_2pi = mpf(HALF_LOG_2PI)
    rows = []
    for a in (Fraction(1, 2), 1, Fraction(3, 2), 2):
        res = hurwitz_coefficient(1, a, digits=50)
        want = log_gamma_ref(a, digits=50) - half_log_2pi
        delta = abs(res.value - want)
        assert delta <= 2 * res.error_estimate
        assert res.error_estimate <= mpf("1e-2")
        rows.append(f"a={a}: {mpmath.nstr(delta, 2)}<=2*{mpmath.nstr(res.error_estimate, 2)}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 4: zeta_1 vs log-gamma, {'; '.join(rows)}, {elapsed:.2f}s")


def test_criterion_5_log_gamma_series_zero_points():
    rows = []
    for a in (0, 1):
        res = log_gamma_series(a, digits=50)
        assert abs(res.value) <= 2 * res.error_estimate
        rows.append(f"a={a}: {mpmath.nstr(abs(res.value), 2)}")
    print(f"PASS criterion 5: log-gamma series zeros, {'; '.join(rows)}")


def test_criterion_6_series_vs_contour_n_le_4():
    t0 = time.perf_counter()
    checked = 0
    for a in (Fraction(1, 2), 1, 2):
        contour = taylor_coefficients_contour("hurwitz", 4, a, digits=50)
        for n in range(5):
            ser = hurwitz_coefficient(n, a, digits=50)
            orc = contour[n]
            delta = abs(ser.value - orc.value)
            bound = ser.error_estimate + orc.error_estimate
            assert delta <= bound, f"(n={n}, a={a}): {delta} > {bound}"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 6: series vs contour on {checked} points, {elapsed:.1f}s")


def test_criterion_7_lerch_n0_closed_form():
    worst = mpf(0)
    for lam in [Fraction(-1), Fraction(-1, 2), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)]:
        for a in (Fraction(1, 2), 1, 2):
            res = lerch_coefficient(0, a, lam, digits=50)
            worst = max(worst, abs(res.value - to_mpf(Fraction(1) / (1 - lam))))
    assert worst <= mpf("1e-48")
    print(f"PASS criterion 7: lerch c_0 closed form, max delta {mpmath.nstr(worst, 3)}")


def test_criterion_8_etf_identity():
    polys = [
        (1,),
        (0, 1),
        (3, -1),
        (0, 0, 1),
        (1, -2, 0, 3),
        (0, 1, 0, 0, -2),
        (0, 1, 0, 0, 0, 0, 1),
        (2, 0, -1, 0, 0, 0, 5),
    ]
    worst = mpf(0)
    for p in polys:
        for x in (Fraction(1, 4), Fraction(1, 2), 1, 2):
            lhs, rhs = etf_check(p, x, K=120, digits=50)
            worst = max(worst, abs(lhs - rhs))
    assert worst <= mpf("1e-25")
    print(f"PASS criterion 8: ETF identity, max delta {mpmath.nstr(worst, 3)} (tol 1e-25)")


def test_criterion_9_apostol_closed_forms_random_rationals():
    rng = random.Random(20240817)
    checked = 0
    while checked < 20:
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        lam = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if lam == 1:
            continue
        d = lam - 1
        assert apostol_bernoulli(0, a, lam) == 0
        assert apostol_bernoulli(1, a, lam) == 1 / d
        assert apostol_bernoulli(2, a, lam) == (2 * a * d - 2 * lam) / d**2
        checked += 1
    print("PASS criterion 9: apostol-bernoulli closed forms exact on 20 random rationals")


def test_criterion_10_cli_determinism():
    cmd = [
        sys.executable, "-m", "zetataylor",
        "verify", "--suite", "all", "--digits", "30",
    ]
    runs = [subprocess.run(cmd, capture_output=True) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stdout.decode()
    digests = [sha256(p.stdout).hexdigest() for p in runs]
    assert runs[0].stdout == runs[1].stdout
    assert digests[0] == digests[1]
    print(f"PASS criterion 10: byte-identical verify output, sha256 {digests[0][:16]}...")
