"""Coefficient series: closed forms, cross-path consistency, diagnostics."""

import hashlib
import io
import math
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from math import factorial
from types import SimpleNamespace

import mpmath
import pytest
from mpmath import mpf, workdps
from mpmath.libmp import from_man_exp, to_rational

from zetataylor import coefficients, verification
from zetataylor.coefficients import (
    CoefficientQuery,
    compute_coefficient,
    etf_check,
    fraction_from_mpf,
    hurwitz_coefficient,
    lerch_coefficient,
    log_gamma_series,
    riemann_coefficient,
    system_residual,
)
from zetataylor.exact import (apostol_bernoulli, appell_ratio, appell_value, exp_polynomial_coeffs,
                              harmonic_number, stirling1)
from zetataylor.reference import (
    hurwitz_zeta,
    lerch_phi,
    log_gamma_ref,
    taylor_coefficients,
    taylor_coefficients_contour,
)
from zetataylor.summation import sum_semiconvergent, to_mpf

# frozen from independent 58-digit evaluations
HALF_LOG_2PI = "0.9189385332046727417803297364056176398613974736377834128"


def test_n0_at_one_single_surviving_term():
    res = hurwitz_coefficient(0, 1, trace=True)
    assert abs(res.value + mpf(0.5)) <= mpf("1e-49")
    nonzero = [r for r in res.series.trace if r.term != 0]
    assert [r.k for r in nonzero] == [0]


def test_n1_at_one_matches_log2pi_constant():
    res = hurwitz_coefficient(1, 1)
    assert res.series.terminated_by == "minimal_term"
    assert abs(res.value + mpf(HALF_LOG_2PI)) <= res.error_estimate
    assert mpf("1e-4") < res.error_estimate < mpf("1e-2")


def test_n1_at_two_is_minus_half_log_2pi():
    # zeta_1(a) = log Gamma(a) - log(2 pi)/2 and Gamma(2) = 1
    res = hurwitz_coefficient(1, 2)
    assert abs(res.value + mpf(HALF_LOG_2PI)) <= res.error_estimate


def test_riemann_delegates_to_hurwitz_at_one():
    for n in (0, 1, 2):
        r = riemann_coefficient(n)
        h = hurwitz_coefficient(n, 1)
        assert r.value == h.value
        assert r.error_estimate == h.error_estimate
        assert r.query.family == "riemann"


def test_derivative_value_is_factorial_scaled():
    for n in (0, 1, 3):
        res = hurwitz_coefficient(n, Fraction(3, 2))
        with workdps(res.query.digits):
            assert res.derivative_value == to_mpf(factorial(n)) * res.value


def test_determinism_bit_identical():
    a = hurwitz_coefficient(2, Fraction(1, 2))
    b = hurwitz_coefficient(2, Fraction(1, 2))
    assert a.value._mpf_ == b.value._mpf_
    assert a.series.truncation_index == b.series.truncation_index


def test_query_validation():
    with pytest.raises(ValueError):
        hurwitz_coefficient(0, 0)
    with pytest.raises(ValueError):
        hurwitz_coefficient(0, -2)
    with pytest.raises(ValueError):
        hurwitz_coefficient(-1, 1)
    with pytest.raises(ValueError):
        CoefficientQuery("riemann", 0, a=2)
    with pytest.raises(ValueError):
        CoefficientQuery("hurwitz", 0, a=1, lam=Fraction(1, 2))
    with pytest.raises(ValueError):
        CoefficientQuery("hurwitz", 0, a=1, digits=10)
    with pytest.raises(ValueError):
        CoefficientQuery("bogus", 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 1.0},
        {"n": True},
        {"a": complex(1, 1)},
        {"a": mpmath.mpc(1, 1)},
        {"a": mpf("inf")},
        {"a": "1"},
        {"a": True},
        {"lam": mpf("-inf"), "family": "lerch"},
        {"lam": complex(0.5, 0), "family": "lerch"},
    ],
)
def test_query_rejects_non_int_index_and_non_finite_real_inputs(kwargs):
    args = {"family": "hurwitz", "n": 1, "a": 1, **kwargs}
    if args["family"] == "lerch":
        args.setdefault("lam", Fraction(1, 2))
    with pytest.raises(ValueError):
        CoefficientQuery(**args)


def test_replaced_and_made_queries_are_checked():
    query = CoefficientQuery("lerch", 1, a=1, lam=Fraction(1, 2))
    assert query._replace(n=2) == CoefficientQuery("lerch", 2, a=1, lam=Fraction(1, 2))
    for fields in ({"n": -1}, {"lam": 1}, {"digits": 10}, {"family": "hurwitz"}):
        with pytest.raises(ValueError):
            query._replace(**fields)
    with pytest.raises(ValueError):
        CoefficientQuery._make(("hurwitz", 0, 0))


def test_query_holds_the_exact_rationals_the_series_computes_with():
    # an int or a Fraction as given; a float or an mpf rounded once at the
    # query's digits and held as its exact dyadic value
    q = CoefficientQuery("lerch", 1, a=0.3, lam=-1)
    assert (q.a, type(q.a), q.lam, type(q.lam)) == (Fraction(0.3), Fraction, -1, int)
    with workdps(60):
        third = mpf(1) / 3
    with workdps(30):
        rounded = Fraction(*to_rational((+third)._mpf_))
    q = CoefficientQuery("hurwitz", 1, a=third, digits=30)
    assert q.a == rounded != Fraction(*to_rational(third._mpf_))
    assert CoefficientQuery("hurwitz", 1, a=third, digits=50).a != rounded
    assert q._replace(digits=50).a == rounded  # already exact, so kept
    with pytest.raises(ValueError, match="positive"):
        q._replace(a=-third)


def test_query_accepts_float_and_mpf_constants():
    CoefficientQuery("hurwitz", 1, a=0.5)
    CoefficientQuery("hurwitz", 1, a=mpmath.e)
    CoefficientQuery("lerch", 1, a=1, lam=-0.5)


@pytest.mark.parametrize("bad", [True, mpf("nan"), mpf("inf"), float("inf"), 1j, "1/2"], ids=repr)
def test_inputs_past_the_exact_fast_path_are_still_checked(bad):
    # an int or a Fraction skips mpmath's finiteness test; a bool, a
    # non-finite or non-real number and a string still raise, as a or lam
    calls = [lambda: hurwitz_coefficient(0, bad), lambda: lerch_coefficient(0, bad, Fraction(-1, 2)),
             lambda: log_gamma_series(bad), lambda: lerch_coefficient(0, Fraction(3, 2), bad)]
    for call in calls:
        with pytest.raises(ValueError):
            call()


BOUNDARY_CALLS = {
    "hurwitz_coefficient": lambda **kw: hurwitz_coefficient(1, Fraction(3, 2), **kw),
    "riemann_coefficient": lambda **kw: riemann_coefficient(1, **kw),
    "lerch_coefficient": lambda **kw: lerch_coefficient(1, Fraction(3, 2), Fraction(-1, 3), **kw),
    "taylor_coefficients": lambda **kw: taylor_coefficients("hurwitz", 1, Fraction(3, 2), **kw),
    "taylor_coefficients_contour":
        lambda **kw: taylor_coefficients_contour("lerch", 1, 1, Fraction(1, 2), **kw),
    # the entry points outside CoefficientQuery run its int check before
    # they use the setting; log_gamma_ref and system_residual build a query
    "log_gamma_series": lambda **kw: log_gamma_series(1, **kw),
    "etf_check": lambda **kw: etf_check((1,), 1, **kw),
    "hurwitz_zeta": lambda **kw: hurwitz_zeta(2, 1, **kw),
    "lerch_phi": lambda **kw: lerch_phi(0.5, 0, 1, **kw),
    "run_suite": lambda digits: verification.run_suite("identities", digits, io.StringIO()),
    "sum_semiconvergent": lambda max_terms: sum_semiconvergent(iter([1, 2]), max_terms=max_terms),
    "log_gamma_ref": lambda **kw: log_gamma_ref(Fraction(1, 2), **kw),
    "system_residual": lambda **kw: system_residual("hurwitz", 1, **kw),
}
NO_BUDGET = ("taylor_coefficients", "taylor_coefficients_contour", "etf_check", "hurwitz_zeta",
             "lerch_phi", "run_suite", "log_gamma_ref")
BAD_SETTINGS = [("digits", None), ("digits", "30"), ("digits", 30.5), ("digits", True),
                ("digits", 14), ("max_terms", 2.5), ("max_terms", None), ("max_terms", True),
                ("max_terms", 1)]


@pytest.mark.parametrize("call, field, value", [
    (call, field, value) for call in BOUNDARY_CALLS for field, value in BAD_SETTINGS
    if call not in (NO_BUDGET if field == "max_terms" else ("sum_semiconvergent",))
])
def test_bad_precision_or_budget_is_a_domain_error(call, field, value):
    with pytest.raises(ValueError, match=field):
        BOUNDARY_CALLS[call](**{field: value})


def test_unknown_suite_is_a_value_error():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        verification.run_suite("bogus", 30, io.StringIO())


# Every term path (Hurwitz, Lerch and log-gamma; rational and mpf x),
# formatted at 30 digits as the CLI does:
# (path, n, a, lam, value, error_estimate, truncation_index, terminated_by).
# Floats stand for the mpf built from them.  The "special" rows are the
# Hurwitz n = 1, 2 cases once served by folded closed-form weights; they
# also check that those weights are the shared weight at every term.
GOLDEN = [
    ("hurwitz", 1, Fraction(3, 2), None,
     "-1.03941437251984126984126984127", "0.000840106797138047138047138047138", 8, "minimal_term"),
    ("hurwitz", 3, Fraction(1, 2), None,
     "-0.945838384399446682432793543905", "0.00689194920956816999413725604202", 10, "minimal_term"),
    ("hurwitz", 1, 1.3, None,
     "-1.02687849365079365841373313655", "0.000587433333333333277811256097706", 5, "minimal_term"),
    ("hurwitz", 2, 0.7, None,
     "-0.931041935846560824528038883762", "0.0016187311111111112307385995084", 5, "minimal_term"),
    ("lerch", 1, Fraction(3, 2), Fraction(-2, 7),
     "-0.213054253670680282477264644617", "0.0455746145856266264740582679921", 4, "minimal_term"),
    ("lerch", 2, Fraction(1), Fraction(1, 2),
     "-1.9072558917291605112168160004e+100", "1.92784077340195022784106374436e+100", 65, "max_terms"),
    ("lerch", 1, 0.8, Fraction(-1, 3),
     "0.343124999999999951705298428806", "0.0170625000000000004996003610813", 2, "minimal_term"),
    ("lerch", 3, Fraction(5, 4), -0.41,
     "0.00722594582944820805403520947274", "0.0334327277503304268941702762055", 3, "minimal_term"),
    ("special", 1, Fraction(3, 2), None,
     "-1.03941437251984126984126984127", "0.000840106797138047138047138047138", 8, "minimal_term"),
    ("special", 2, Fraction(2), None,
     "-1.00397156084656084656084656085", "0.00228775853775853775853775853776", 8, "minimal_term"),
    ("special", 1, 1.3, None,
     "-1.02687849365079365841373313655", "0.000587433333333333277811256097706", 5, "minimal_term"),
    ("special", 2, 0.7, None,
     "-0.931041935846560824528038883762", "0.0016187311111111112307385995084", 5, "minimal_term"),
    ("log_gamma", None, Fraction(1, 2), None,
     "-0.120475839315168528060940104864", "0.000840106797138047138047138047138", 8, "minimal_term"),
    ("log_gamma", None, 0.3, None,
     "-0.107939960446120907108300471521", "0.00058743333333333334721385264224", 5, "minimal_term"),
]


@pytest.mark.parametrize(
    "path,n,a,lam,value,estimate,index,reason",
    GOLDEN,
    ids=[f"{g[0]}-{g[1]}-{g[2]}-{g[3]}" for g in GOLDEN],
)
def test_golden_term_paths(path, n, a, lam, value, estimate, index, reason):
    a = mpf(a) if isinstance(a, float) else a
    lam = mpf(lam) if isinstance(lam, float) else lam
    if path in ("hurwitz", "special"):
        res = hurwitz_coefficient(n, a, digits=30)
    elif path == "lerch":
        res = lerch_coefficient(n, a, lam, digits=30)
    if path == "log_gamma":
        series = log_gamma_series(a, digits=30)
        got = series.value
    else:
        series, got = res.series, res.value
    fmt = lambda x: mpmath.nstr(x, 30, strip_zeros=True)  # noqa: E731
    assert (fmt(got), fmt(series.error_estimate)) == (value, estimate)
    assert (series.truncation_index, series.terminated_by) == (index, reason)
    if path == "special":
        # s1(k, 1) = (k-1)! and s1(k, 2) = (k-1)! H_(k-1) fold with (k+1)!
        # into (-1)^(k+1) / (k(k+1)), times H_(k-1) for n = 2
        for k in range(n, index + 1):
            folded = Fraction((-1) ** (k + 1), k * (k + 1))
            folded *= harmonic_number(k - 1) if n == 2 else 1
            assert Fraction((-1) ** (k + 1) * stirling1(k, n), factorial(k + 1)) == folded, k


# ---------------------------- special paths ----------------------------


def test_special_n0_closed_form():
    # the closed form 1/2 - a is the general path's single non-zero term;
    # its bar is the convergence threshold, 10^-(digits + 5)
    res = hurwitz_coefficient(0, Fraction(1, 2), digits=50, trace=True)
    assert res.value == 0
    with workdps(50):
        assert res.error_estimate == mpf(10) ** -55
    assert [r.k for r in res.series.trace if r.term != 0] == [0]


# ---------------------------- log gamma series ----------------------------


def test_log_gamma_series_zero_points():
    for a in (0, 1):
        res = log_gamma_series(a)
        assert abs(res.value) <= 2 * res.error_estimate


def test_log_gamma_series_minimal_term_location():
    res = log_gamma_series(0, trace=True)
    assert res.terminated_by == "minimal_term"
    assert res.truncation_index in (7, 8)
    mags = {r.k: abs(r.term) for r in res.trace if r.term != 0}
    assert min(mags, key=mags.get) == 7
    assert abs(mags[7] - to_mpf(Fraction(1, 1680))) <= mpf("1e-45")


def test_log_gamma_series_negative_argument_rejected():
    with pytest.raises(ValueError):
        log_gamma_series(-1)
    with pytest.raises(ValueError):
        log_gamma_series(complex(1, 1))
    with pytest.raises(ValueError):
        log_gamma_series(mpf("inf"))


def test_log_gamma_series_consistent_with_shifted_coefficient():
    # Lerch's formula: log Gamma(1 + a) = zeta_1(1 + a) + log(2 pi)/2, the
    # one series at 1 + a, with a rounded once and the -1 in the exact sum
    for digits in (15, 30, 50, 100):
        for a in (0, Fraction(1, 10), Fraction(1, 2), 0.3, Fraction(7, 3)):
            g = log_gamma_series(a, digits=digits, trace=True)
            h = hurwitz_coefficient(1, Fraction(a) + 1, digits=digits, trace=True)
            assert g._replace(value=None) == h.series._replace(value=None), (digits, a)
            with workdps(digits):
                assert g.value == mpmath.log(2 * mpmath.pi) / 2 + h.value, (digits, a)


# ---------------------------- lerch family ----------------------------


def test_lerch_c0_examples():
    assert abs(lerch_coefficient(0, 1, Fraction(1, 2)).value - 2) <= mpf("1e-49")
    assert abs(lerch_coefficient(0, 3, -1).value - mpf(0.5)) <= mpf("1e-49")


def test_lerch_first_term_is_negated_beta1():
    res = lerch_coefficient(0, Fraction(3, 2), Fraction(1, 3), trace=True)
    want = to_mpf(-apostol_bernoulli(1, Fraction(1, 2), Fraction(1, 3)))
    assert res.series.trace[0].term == want


def test_lerch_rejects_lambda_one_and_large_lambda():
    with pytest.raises(ValueError, match="hurwitz"):
        lerch_coefficient(0, 1, 1)
    with pytest.raises(ValueError):
        lerch_coefficient(0, 1, Fraction(3, 2))
    with pytest.raises(ValueError):
        lerch_coefficient(0, 1, None)


# a lambda that the query rounds to 1, and one whose direct sum is too long
_NEAR_ONE = """
from fractions import Fraction
import mpmath
from zetataylor import reference
mpmath.mp.prec = 400
slow = Fraction(10**7 - 1, 10**7)
for call in (lambda: reference.taylor_coefficients("lerch", 0, 1, 1 - mpmath.mpf(2) ** -300, digits=30),
             lambda: reference.taylor_coefficients("lerch", 0, 1, slow, digits=15),
             lambda: reference.lerch_phi(slow, 0, 1, digits=15)):
    try:
        call()
    except ValueError as exc:
        print(exc)
"""


def test_a_lambda_near_one_is_refused_at_once_on_both_routes():
    # lambda = 1 - 2^-300 passes a check of the value as given, but the
    # series and the reference would compute at lambda = 1; the reference
    # runs in a child with a timeout, since a regression there hangs
    with mpmath.workprec(400):
        lam = 1 - mpf(2) ** -300
    with pytest.raises(ValueError, match="lambda=1 is the hurwitz case"):
        lerch_coefficient(0, 1, lam, digits=30)
    proc = subprocess.run([sys.executable, "-c", _NEAR_ONE], capture_output=True, text=True,
                          timeout=10)
    slow = "lambda=9999999/10000000: a direct Lerch sum needs |lambda| < 1 and <= 300000 terms"
    assert proc.stdout.splitlines() == [
        "lambda=1 is the hurwitz case; use family=hurwitz", slow, slow], proc.stderr


def test_lerch_half_lambda_series_diverges_immediately():
    # at lambda = 1/2 the term magnitudes grow from the start; the engine
    # honestly reports the max_terms outcome with a matching estimate
    for digits in (30, 50):
        res = lerch_coefficient(1, 1, Fraction(1, 2), digits=digits)
        assert res.series.terminated_by == "max_terms"
        assert res.error_estimate > 1


def test_newton_identity_rejects_the_paper_lerch_weight(monkeypatch):
    # PAPER.md's Lerch weight (-1)^(k-n+1) s1(k, n) / (k+1)! agrees with
    # the true one only where n is even, so only the m = 0 points hold
    # the check's weight (-1)^(k+1) s1(k, n) becomes the paper's when s1 carries (-1)^n
    monkeypatch.setattr(verification.exact, "stirling1", lambda k, n: (-1) ** n * stirling1(k, n))
    ok, detail = verification.check_newton_identity(30)
    assert not ok
    assert detail.startswith("105 of 120 points miss")


def test_series_vs_jet_names_the_point_a_shifted_jet_value_misses(monkeypatch):
    for point in (("hurwitz", Fraction(3, 2), 2), ("lerch", 1, 3)):
        def shifted(family, n_max, a, lam=None, *, point=point, **kw):
            jet = taylor_coefficients(family, n_max, a, lam, **kw)
            if (family, a) == point[:2]:
                n = point[2]
                jet[n] = jet[n]._replace(value=jet[n].value + 1)
            return jet

        monkeypatch.setattr(verification.reference, "taylor_coefficients", shifted)
        assert verification.check_series_vs_jet(30) == (
            False, "series misses the reference at {} a={} n={} (delta)".format(*point))


def test_series_vs_jet_names_an_n1_estimate_above_its_cap(monkeypatch):
    # an estimate of 1 still covers the delta, so only the 1e-2 cap fails
    def loose(query):
        res = compute_coefficient(query)
        if query[:3] == ("hurwitz", 1, Fraction(2)):
            return SimpleNamespace(value=res.value, error_estimate=mpf(1))
        return res

    monkeypatch.setattr(verification.coeffs, "compute_coefficient", loose)
    assert verification.check_series_vs_jet(30) == (
        False, "series misses the reference at hurwitz a=2 n=1 (estimate above 1e-2)")


@pytest.mark.parametrize("s,a", [(0, Fraction(1, 2)), (0, Fraction(1)), (-1, Fraction(1))], ids=str)
def test_reference_closed_forms_keeps_the_tighter_tolerance_where_tables_meet(monkeypatch, s, a):
    # these points are both classical values (1e-30 at 30 digits) and
    # negative-integer values (1e-22); a shift of 1e-25 must miss
    def shifted(s_, a_, *args, **kw):
        value = hurwitz_zeta(s_, a_, *args, **kw)
        return value + mpf("1e-25") if (s_, a_) == (s, a) else value

    monkeypatch.setattr(verification.reference, "hurwitz_zeta", shifted)
    assert verification.check_reference_closed_forms(30) == (
        False, f"1 of 72 points miss, first (s={s}, a={a}, lam=None)")


def test_n0_closed_forms_requires_every_series_to_converge(monkeypatch):
    # the last Lerch point keeps its value but stops on max_terms
    def unconverged(query):
        res = compute_coefficient(query)
        if query[:4] == ("lerch", 0, Fraction(2), Fraction(9, 10)):
            return res._replace(series=res.series._replace(terminated_by="max_terms"))
        return res

    monkeypatch.setattr(verification.coeffs, "compute_coefficient", unconverged)
    assert verification.check_n0_closed_forms(30) == (False, "max delta=0.0 on 22 points")


def test_n1_closed_forms_checks_log_gamma_at_one_half(monkeypatch):
    # log Gamma(3/2) = log(pi)/2 - log 2 misses by 3.1e-4 against an estimate
    # of 8.4e-4; a shift of 1e-2 is past twice the estimate
    def shifted(a, **kw):
        res = log_gamma_series(a, **kw)
        return res._replace(value=res.value + mpf("1e-2")) if a == Fraction(1, 2) else res

    monkeypatch.setattr(verification.coeffs, "log_gamma_series", shifted)
    ok, detail = verification.check_n1_closed_forms(30)
    assert not ok
    assert "loggamma a=1/2:0.0103 est=0.00084" in detail


def test_stirling_orthogonality_checks_the_exp_polynomial_rows(monkeypatch):
    def bumped(k):
        row = exp_polynomial_coeffs(k)
        return row[:-1] + (row[-1] + 1,) if k == 30 else row

    monkeypatch.setattr(verification.exact, "exp_polynomial_coeffs", bumped)
    assert verification.check_stirling_orthogonality(30) == (
        False, "exp_polynomial_coeffs(30) is not the s2 row")


def test_coefficients_suite_needs_no_reference(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the coefficients suite called the reference")

    for name in ("hurwitz_zeta", "lerch_phi", "taylor_coefficients",
                 "taylor_coefficients_contour", "log_gamma_ref"):
        monkeypatch.setattr(verification.reference, name, refuse)
    out = io.StringIO()
    assert verification.run_suite("coefficients", 30, out), out.getvalue()
    lines = out.getvalue().splitlines()
    assert len(lines) == len(verification.SUITES["coefficients"])
    assert all(line.startswith("PASS coefficients/") for line in lines)


@pytest.mark.parametrize("lam", [Fraction(-1), Fraction(-9, 10), Fraction(-1, 2), Fraction(-1, 3)],
                         ids=str)
@pytest.mark.parametrize("a", [Fraction(1), Fraction(3, 2)], ids=str)
def test_lerch_negative_lambda_within_own_bar_of_reference(lam, a):
    ref = taylor_coefficients("lerch", 3, a, lam, digits=30)
    for n in (1, 2, 3):
        res = lerch_coefficient(n, a, lam, digits=30)
        with workdps(30):
            assert abs(res.value - ref[n].value) <= res.error_estimate + ref[n].error_estimate, n


# ---------------------------- ETF identity ----------------------------


def test_etf_constant_and_linear_at_one():
    with workdps(50):
        e = mpmath.exp(1)
    lhs, rhs = etf_check([1], 1, K=80)
    assert abs(lhs - e) <= mpf("1e-45")
    assert abs(lhs - rhs) <= mpf("1e-45")
    lhs, rhs = etf_check([0, 1], 1, K=80)
    assert abs(lhs - e) <= mpf("1e-45")
    assert abs(lhs - rhs) <= mpf("1e-45")


def test_etf_square_at_half():
    # f(x) = x^2 has the exponential polynomial x + x^2, 3/4 at x = 1/2
    lhs, rhs = etf_check([0, 0, 1], Fraction(1, 2), K=80)
    with workdps(50):
        want = mpmath.exp(mpf(0.5)) * 3 / 4
    assert abs(rhs - want) <= mpf("1e-45")
    assert abs(lhs - rhs) <= mpf("1e-25")


# ---------------------------- system residual ----------------------------


def test_system_residual_hurwitz_at_one():
    r = system_residual("hurwitz", 1, k=0)
    est = hurwitz_coefficient(0, 1).error_estimate
    assert abs(r) <= est


def test_system_residual_smoke_k1():
    r = system_residual("hurwitz", 2, k=1, N=6)
    assert mpmath.isfinite(r)


def test_system_residual_lerch():
    r = system_residual("lerch", 1, Fraction(1, 2), k=0)
    est = lerch_coefficient(0, 1, Fraction(1, 2)).error_estimate
    assert abs(r) <= est


def test_system_residual_rejects_other_families():
    with pytest.raises(ValueError):
        system_residual("riemann", 1, k=0)


# ------------------------- shared value table --------------------------


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_mpf_inputs_give_the_bits_of_their_working_precision_fraction(digits):
    # an mpf or float input is rounded to working precision and then taken
    # as its exact dyadic value; a fresh table on each side keeps either
    # side from reading values the other left behind
    with workdps(60):
        lam60 = mpf("0.73")
    runs = [("hurwitz", mpf(0.8), None), ("hurwitz", 0.8, None),
            ("lerch", Fraction(7, 5), mpf(-0.41)), ("lerch", mpf(0.8), mpf(0.73)),
            ("lerch", Fraction(7, 5), lam60)]
    for family, a, lam in runs:
        with workdps(digits):
            exact_a = fraction_from_mpf(a)
            exact_lam = None if lam is None else fraction_from_mpf(lam)
        for n in range(7):
            got, want = [], []
            for side, args in ((got, (a, lam)), (want, (exact_a, exact_lam))):
                coefficients._values.clear()
                res = compute_coefficient(CoefficientQuery(family, n, *args, digits=digits))
                side += [res.value._mpf_, res.error_estimate._mpf_,
                         res.series.truncation_index, res.series.terminated_by]
            assert got == want, (family, a, lam, n)

# Bits of every run n = 0..6: per (family, a, lam, digits), the first 16
# hex digits of the sha256 of repr([(value._mpf_, error_estimate._mpf_,
# truncation_index, terminated_by), ...]) with the mpf fields as int tuples.
# They were re-pinned when the engine began to sum integer floors of q_k
# exactly and round once (no truncation index or reason moved, and the
# largest value move was 1.9e-31 of its estimate).  derive_pins.py
# re-derives them against an older tree and asserts that no truncation
# index or reason moved.
BITS_A = {"1": 1, "7/5": Fraction(7, 5), "mpf0.8": mpf(0.8)}
BITS_LAM = {None: None, "-1": Fraction(-1), "-5/6": Fraction(-5, 6), "1/3": Fraction(1, 3),
            "mpf-0.41": mpf(-0.41), "mpf0.73": mpf(0.73)}
RUN_BITS = {
    ("riemann", "1", None, 30): "a66bdc6598ee78a1",
    ("hurwitz", "7/5", None, 30): "fea82dc5e9bfe88a",
    ("lerch", "7/5", "-1", 30): "baf214f7888e95a4",
    ("lerch", "7/5", "-5/6", 30): "b6af8c2f0e008f17",
    ("lerch", "7/5", "1/3", 30): "f469942f6b1bc00f",
    ("lerch", "7/5", "mpf-0.41", 30): "ec860a4cf29bf7b5",
    ("lerch", "7/5", "mpf0.73", 30): "792bed42a20aeb13",
    ("hurwitz", "mpf0.8", None, 30): "4b03ab4dfb5ef4ed",
    ("lerch", "mpf0.8", "-1", 30): "b8dadfee210be271",
    ("lerch", "mpf0.8", "-5/6", 30): "5e2673a103931c0e",
    ("lerch", "mpf0.8", "1/3", 30): "619c401942eb3ab4",
    ("lerch", "mpf0.8", "mpf-0.41", 30): "5e742c22e2f831ce",
    ("lerch", "mpf0.8", "mpf0.73", 30): "e4c969e17cc06685",
    ("riemann", "1", None, 50): "6d298b6d6cd9a376",
    ("hurwitz", "7/5", None, 50): "632ec8261e0ac844",
    ("lerch", "7/5", "-1", 50): "7011c097008f4e82",
    ("lerch", "7/5", "-5/6", 50): "a2cafd4b7e0c0796",
    ("lerch", "7/5", "1/3", 50): "767915c91b288eb5",
    ("lerch", "7/5", "mpf-0.41", 50): "59add544e568065e",
    ("lerch", "7/5", "mpf0.73", 50): "034d3d855d010d4c",
    ("hurwitz", "mpf0.8", None, 50): "8cf817824bf8a213",
    ("lerch", "mpf0.8", "-1", 50): "a93a7bcbe3da0b03",
    ("lerch", "mpf0.8", "-5/6", 50): "402df5d52a3a96a0",
    ("lerch", "mpf0.8", "1/3", 50): "1f002449e958ea97",
    ("lerch", "mpf0.8", "mpf-0.41", 50): "6999e7a0bb1d868d",
    ("lerch", "mpf0.8", "mpf0.73", 50): "413b90ba8a0704e1",
    ("riemann", "1", None, 100): "e107814b4276c956",
    ("hurwitz", "7/5", None, 100): "6da06b00dc76a532",
    ("lerch", "7/5", "-1", 100): "d9c07775230c19d8",
    ("lerch", "7/5", "-5/6", 100): "7529c475cee0bd0b",
    ("lerch", "7/5", "1/3", 100): "600af53b4fa925f9",
    ("lerch", "7/5", "mpf-0.41", 100): "98a810831c01204b",
    ("lerch", "7/5", "mpf0.73", 100): "6f04eee4a4dc570a",
    ("hurwitz", "mpf0.8", None, 100): "776e22afdfbb6e2e",
    ("lerch", "mpf0.8", "-1", 100): "36a96bddae35aad4",
    ("lerch", "mpf0.8", "-5/6", 100): "ae7f5346cd69da59",
    ("lerch", "mpf0.8", "1/3", 100): "91de46de41d18f9c",
    ("lerch", "mpf0.8", "mpf-0.41", 100): "ccfc20c61870eabf",
    ("lerch", "mpf0.8", "mpf0.73", 100): "b660c6f7b00d3b33",
}


def _run_result(run, n):
    family, a, lam, digits = run
    a, lam = BITS_A[a], BITS_LAM[lam]
    if family == "riemann":
        res = riemann_coefficient(n, digits=digits)
    elif family == "hurwitz":
        res = hurwitz_coefficient(n, a, digits=digits)
    else:
        res = lerch_coefficient(n, a, lam, digits=digits)
    s = res.series
    return (tuple(map(int, res.value._mpf_)), tuple(map(int, s.error_estimate._mpf_)),
            s.truncation_index, s.terminated_by)


def _bits(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def test_value_table_keeps_bits_in_any_order():
    coefficients._values.clear()
    runs = list(RUN_BITS)
    ascending = {run: [_run_result(run, n) for n in range(7)] for run in runs}
    descending = {run: [_run_result(run, n) for n in range(6, -1, -1)][::-1] for run in runs}
    # one n of every run before the next n: more runs than the table keeps
    interleaved = {run: [] for run in runs}
    for n in range(7):
        for run in runs[::-1]:
            interleaved[run].append(_run_result(run, n))
    for run, want in RUN_BITS.items():
        assert _bits(ascending[run]) == want, run
        assert descending[run] == ascending[run], run
        assert interleaved[run] == ascending[run], run
    assert len(coefficients._values) <= coefficients._VALUE_LISTS



# The fixed-point path against the exact route: x and lam narrow and dyadic
# (an mpf's exact value), x in {0, +-1/2, 1} for the exact zeros, x = 3 and
# about 2.9 where sum |X_i| matters, lam = 9/10 and about 0.73 where sum |B_j|
# does (with a guard of 0, an E_m without either sum gives wrong values).
_FIXED_X = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-2, 7),
            Fraction(3)] + [fraction_from_mpf(a) - 1 for a in (0.1, 3.9)]
_FIXED_LAM = [None, Fraction(-1), Fraction(9, 10)] + [fraction_from_mpf(lam) for lam in (-0.41, 0.73)]
_FIXED_TOP = 76  # m <= 76, that is q_0 .. q_75
_FIXED_DIGITS = (15, 30, 50, 100)


def _key(x, lam, prec):
    """The value table's key of (x, lam, prec): integer pairs hash fast."""
    return x.as_integer_ratio(), None if lam is None else lam.as_integer_ratio(), prec


def _floor_at(q: Fraction, bits: int) -> tuple[int, int]:
    """(man, exp) with man = floor(q / 2^exp) and 2^(bits-1) <= |q| / 2^exp < 2^bits,
    found in Fraction arithmetic; (0, 0) for q = 0."""
    if not q:
        return 0, 0
    exp = abs(q.numerator).bit_length() - q.denominator.bit_length() - bits
    while abs(q) >= Fraction(2) ** (exp + bits):
        exp += 1
    while abs(q) < Fraction(2) ** (exp + bits - 1):
        exp -= 1
    return math.floor(q / Fraction(2) ** exp), exp


@pytest.fixture(scope="module")
def exact_q():
    """Per grid point, the exact (num, den) of P_m(x) / m! from
    `appell_ratio`, m = 1 .. _FIXED_TOP, and their floors at prec + 64 bits
    for each precision."""
    out = {}
    for x in _FIXED_X:
        for lam in _FIXED_LAM:
            ratios = []
            for m in range(1, _FIXED_TOP + 1):
                num, den = appell_ratio(m, x, lam)
                ratios.append((num, den * factorial(m)))
            floors = {}
            for digits in _FIXED_DIGITS:
                with workdps(digits):
                    prec = mpmath.mp.prec
                floors[prec] = [_floor_at(Fraction(num, den), prec + 64) for num, den in ratios]
            out[x, lam] = ratios, floors
    return out


@pytest.mark.parametrize("guard", [coefficients._GUARD, 0])
def test_fixed_point_values_match_the_exact_route(monkeypatch, exact_q, guard):
    # every list takes the fixed-point path; at the production width the
    # test settles most values, with guard 0 few, and each one it settles
    # must still be the floor (man, exp) of the exact route
    fallbacks, fallback_key = [], None

    def counted(m, u, v, numbers, d):  # the exact route: once per value the interval leaves open
        x, lam = fallback_key
        fallbacks.append((x, lam, m))
        assert Fraction(u, v) == x and d == (None if lam is None else lam.numerator - lam.denominator)
        num, den = exact_q[x, lam][0][m - 1]
        return num, den // factorial(m)

    monkeypatch.setattr(coefficients, "_WIDE", -1)
    monkeypatch.setattr(coefficients, "_GUARD", guard)
    monkeypatch.setattr(coefficients, "_ratio", counted)
    coefficients._values.clear()
    total = 0
    for digits in _FIXED_DIGITS:
        with workdps(digits):
            prec = mpmath.mp.prec
            for x in _FIXED_X:
                for lam in _FIXED_LAM:
                    fallback_key = x, lam
                    next(coefficients._terms(_FIXED_TOP - 1, x, lam))
                    values, _numbers, _d, fixed = coefficients._values[_key(x, lam, prec)]
                    assert fixed is not None and len(values) == _FIXED_TOP
                    assert values == exact_q[x, lam][1][prec], (digits, x, lam)
                    total += len(values)
    coefficients._values.clear()
    zeros = sum(num == 0 for ratios, _ in exact_q.values() for num, _ in ratios)
    assert zeros > 0 and len(fallbacks) >= len(_FIXED_DIGITS) * zeros  # a zero always falls back
    settled = total - len(fallbacks)
    assert settled > (0.9 * total if guard else 0), (settled, total)


def test_only_wide_inputs_take_the_fixed_point_path():
    coefficients._values.clear()
    with workdps(30):
        prec = mpmath.mp.prec
        for x, lam, wide in ((Fraction(2, 5), None, False), (Fraction(2, 5), Fraction(-5, 7), False),
                             (fraction_from_mpf(0.8) - 1, None, True),
                             (Fraction(2, 5), fraction_from_mpf(0.73), True)):
            next(coefficients._terms(3, x, lam))
            assert (coefficients._values[_key(x, lam, prec)][3] is not None) == wide, (x, lam)
    coefficients._values.clear()


@pytest.mark.parametrize("x,lam", [(Fraction(4, 3), None), (Fraction(0), None),
                                   (fraction_from_mpf(0.8) - 1, None), (Fraction(0), Fraction(-1, 3)),
                                   (Fraction(1, 4), Fraction(1, 2)),
                                   (fraction_from_mpf(2.3) - 1, fraction_from_mpf(0.73))], ids=str)
def test_the_engine_sums_the_term_pairs_as_the_same_values_in_mpfs(x, lam):
    # Hurwitz 7/3 and Riemann narrow, Hurwitz at an mpf 0.8 wide; Lerch
    # (1, -1/3) and (5/4, 1/2) narrow, at mpfs (2.3, 0.73) wide
    for digits in (30, 100):
        with workdps(digits):
            for n in range(7):
                pairs = list(islice(coefficients._terms(n, x, lam), 64))
                assert all(type(m) is int and type(e) is int for m, e in pairs)
                mpfs = [mpmath.mp.make_mpf(from_man_exp(m, e)) for m, e in pairs]
                got, want = (sum_semiconvergent(iter(terms), start=n, trace=True) for terms in (pairs, mpfs))
                assert (got.value._mpf_, got.error_estimate._mpf_, got.truncation_index,
                        got.terminated_by) == (want.value._mpf_, want.error_estimate._mpf_,
                                               want.truncation_index, want.terminated_by)
                assert [(r.k, r.term._mpf_, r.partial_sum._mpf_) for r in got.trace] == [
                    (r.k, r.term._mpf_, r.partial_sum._mpf_) for r in want.trace], (digits, n)


# --------------------------- in-process pin ----------------------------

# One sha256 over (value, error_estimate, truncation_index, terminated_by)
# of every call of a grid that mirrors the benchmark's series_mix strata:
# the three families, a p/q and an mpf shift, lambda in {-1, a negative and
# a positive p/q, a negative and a positive mpf}, 30, 50 and 100 digits and
# n <= 6.  CLI_PIN covers no mpf lambda and no 100-digit call.
# derive_pins.py re-derives it against an older tree.
PIN_SHIFTS = (Fraction(5, 7), mpf(2.3))
PIN_LAMBDAS = (Fraction(-1), Fraction(-2, 7), Fraction(3, 4), mpf(-0.41), mpf(0.73))
PIN_CALLS = [("riemann", 1, None)] + [("hurwitz", a, None) for a in PIN_SHIFTS] + [
    ("lerch", a, lam) for a in PIN_SHIFTS for lam in PIN_LAMBDAS]
VALUE_PIN = "5d21dd6505914c75e353eeba8d3db3c5b7f4234aadd7530bd7f7ad9584ff3945"


def pin_rows() -> list:
    """The grid's rows, each mpf as a tuple of ints."""
    rows = []
    for family, a, lam in PIN_CALLS:
        for digits in (30, 50, 100):
            for n in range(7):
                res = compute_coefficient(CoefficientQuery(family, n, a, lam, digits))
                s = res.series
                rows.append((tuple(map(int, res.value._mpf_)), tuple(map(int, s.error_estimate._mpf_)),
                             s.truncation_index, s.terminated_by))
    return rows


def test_in_process_bits_match_the_pin():
    assert hashlib.sha256(repr(pin_rows()).encode()).hexdigest() == VALUE_PIN


def test_values_are_within_the_stated_bound_of_the_exact_partial_sum():
    # each q_k is a floor at prec + 64 bits, off by less than |q_k| 2^-(prec+63),
    # and the exact sum of the terms, offset included, is rounded once; so
    # every value of the pin's grid is within half an ulp plus
    # sum_k |s1(k, n) q_k| 2^-(prec+63) of the exact partial sum through its index
    qs = {}
    for family, a, lam in PIN_CALLS:
        for digits in (30, 50, 100):
            with workdps(digits):
                prec = mpmath.mp.prec
                x, lam_q = fraction_from_mpf(a) - 1, None if lam is None else fraction_from_mpf(lam)
            q = qs.setdefault((x, lam_q), [])
            for n in range(7):
                res = compute_coefficient(CoefficientQuery(family, n, a, lam, digits))
                top = res.series.truncation_index
                q += [appell_value(m + 1, x, lam_q) / factorial(m + 1) for m in range(len(q), top + 1)]
                terms = [(-1) ** (k + 1) * stirling1(k, n) * q[k] for k in range(n, top + 1)]
                exact = (0 if family == "lerch" else -1) + sum(terms)
                _, man, exp, bc = res.value._mpf_
                half_ulp = Fraction(2) ** (exp + bc - prec - 1) if man else 0
                bound = half_ulp + sum(map(abs, terms)) * Fraction(2) ** -(prec + 63)
                got = Fraction(*to_rational(res.value._mpf_))
                assert abs(got - exact) <= bound, (family, a, lam, digits, n)
