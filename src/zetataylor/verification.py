"""Self-check suites: exact identities, coefficient cross-checks, and
series-vs-reference agreement.

Each check returns (ok, detail) and runs through `run_check`, which sets
its working precision for the CLI and the tests alike; the runner prints
one PASS/FAIL line per check, byte-identical at the same digits.  Each
identity is checked once, from one table of points: a new point joins the
table of its identity, and a new check is only for a new identity.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import mpmath
from mpmath import mpf

from . import coefficients as coeffs
from . import exact, reference
from .summation import _check_int, to_mpf, working_precision

__all__ = ["SUITES", "run_suite", "available_suites"]


def _fmt(x) -> str:
    return mpmath.nstr(abs(to_mpf(x)), 3, strip_zeros=True)


# ----------------------------- identities -----------------------------


def check_stirling_orthogonality(digits):
    # sum_n (-1)^(k-n) s1(k, n) s2(n, m) = delta_km, which is also the round
    # trip x^k -> exponential polynomials -> monomials, whose coefficients
    # are the s2 rows
    worst = None
    for k in range(31):
        if exact.exp_polynomial_coeffs(k) != tuple(exact.stirling2(k, m) for m in range(k + 1)):
            return False, f"exp_polynomial_coeffs({k}) is not the s2 row"
        for m in range(k + 1):
            s = sum(
                (-1) ** (k - n) * exact.stirling1(k, n) * exact.stirling2(n, m)
                for n in range(m, k + 1)
            )
            want = 1 if k == m else 0
            if s != want:
                return False, f"mismatch at (k={k}, m={m}): {s}"
            worst = (k, m)
    return True, f"exact through k={worst[0]}"


def check_stirling_columns(digits):
    for k in range(1, 26):
        if exact.stirling1(k, 1) != factorial(k - 1):
            return False, f"column 1 failed at k={k}"
        expect = factorial(k - 1) * exact.harmonic_number(k - 1)
        if Fraction(exact.stirling1(k, 2)) != expect:
            return False, f"column 2 failed at k={k}"
        if exact.stirling1(k, k) != 1 or exact.stirling1(k, 0) != 0:
            return False, f"edge columns failed at k={k}"
    return True, "factorial and harmonic columns exact through k=25"


def check_bernoulli_poly_at_zero(digits):
    for n in range(41):
        if exact.bernoulli_polynomial(n, 0) != exact.bernoulli_number(n):
            return False, f"B_{n}(0) != B_{n}"
    return True, "exact through n=40"


def check_apostol_closed_forms(digits):
    grid = [
        (Fraction(p, q), lam)
        for (p, q) in [(1, 2), (1, 1), (3, 2), (2, 1), (-1, 3), (0, 1), (-2, 3)]
        for lam in [Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(3, 7), Fraction(1, 3), Fraction(5, 2)]
    ]
    rng, drawn = random.Random(20240817), 0  # plus 20 seeded random rationals
    while drawn < 20:
        a, lam = (Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(2))
        if lam != 1:
            grid.append((a, lam))
            drawn += 1
    for a, lam in grid:
        d = lam - 1
        for n, want in enumerate((0, 1 / d, (2 * a * d - 2 * lam) / d**2)):
            if exact.apostol_bernoulli(n, a, lam) != want:
                return False, f"beta_{n} failed at (a={a}, lam={lam})"
    return True, f"closed forms exact on {len(grid)} rational points"


def check_apostol_generating_function(digits):
    # sum_{n<=N} beta_n(a, lam) z^n / n! vs z e^(az)/(lam e^z - 1) at z=1/10
    lam, a, N = Fraction(2), Fraction(1), 12
    z = Fraction(1, 10)
    lhs = to_mpf(
        sum(
            exact.apostol_bernoulli(n, a, lam) * z**n / factorial(n)
            for n in range(N + 1)
        )
    )
    zv = to_mpf(z)
    rhs = zv * mpmath.exp(to_mpf(a) * zv) / (to_mpf(lam) * mpmath.exp(zv) - 1)
    tail = abs(
        to_mpf(exact.apostol_bernoulli(N + 1, a, lam) * z ** (N + 1))
        / factorial(N + 1)
    )
    delta = abs(lhs - rhs)
    ok = delta <= 4 * tail
    return ok, f"delta={_fmt(delta)} bound={_fmt(4 * tail)}"


def check_etf_identity(digits):
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
    xs = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]
    places = min(25, digits - 5)  # the left sum loses about 5 digits to rounding
    tol = mpf(10) ** (-places)
    worst = mpf(0)
    for p in polys:
        for x in xs:
            lhs, rhs = coeffs.etf_check(p, x, K=120, digits=digits)
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= tol
    return ok, f"max delta={_fmt(worst)} (tol 1e-{places})"


# ----------------------------- coefficients -----------------------------


def check_n0_closed_forms(digits):
    # zeta_0(a) = 1/2 - a (lam None) and Lerch's c_0 = 1/(1 - lam), each
    # series stopping on "converged"
    tol = mpf(10) ** (-(digits - 2))
    worst, ok = mpf(0), True
    grid = [(None, a) for a in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                                Fraction(2), Fraction(10), mpmath.e)]
    grid += [(lam, a) for lam in (Fraction(-1), Fraction(-1, 2), Fraction(1, 10), Fraction(1, 2),
                                  Fraction(9, 10)) for a in (Fraction(1, 2), Fraction(1), Fraction(2))]
    for lam, a in grid:
        family = "hurwitz" if lam is None else "lerch"
        res = coeffs.compute_coefficient(coeffs.CoefficientQuery(family, 0, a, lam, digits))
        want = mpf(0.5) - to_mpf(a) if lam is None else to_mpf(1 / (1 - lam))
        worst = max(worst, abs(res.value - want))
        ok = ok and res.series.terminated_by == "converged"
    ok = ok and worst <= tol
    return ok, f"max delta={_fmt(worst)} on {len(grid)} points"


def check_n1_closed_forms(digits):
    # zeta_1(1) = -log(2 pi)/2; log Gamma(1 + a) at a = 1/2 and 3/2 (a = 1 has the riemann row's terms)
    ok = True
    details = []
    cases = [("riemann", coeffs.riemann_coefficient(1, digits=digits), -mpmath.log(2 * mpmath.pi) / 2)]
    cases += [(f"loggamma a={a}", coeffs.log_gamma_series(a, digits=digits), want) for a, want in
              ((Fraction(1, 2), mpmath.log(mpmath.pi) / 2 - mpmath.log(2)),
               (Fraction(3, 2), mpmath.log(mpf(3) / 4) + mpmath.log(mpmath.pi) / 2))]
    for name, res, want in cases:
        delta = abs(res.value - want)
        ok = ok and delta <= 2 * res.error_estimate
        details.append(f"{name}:{_fmt(delta)} est={_fmt(res.error_estimate)}")
    return ok, " ".join(details)


def check_newton_identity(digits):
    # Summed over n, the weights give the Newton series in the rising
    # factorial (s)_k = sum_n s1(k, n) s^n.  At s = -m it stops after k = m
    # and must give the series part of zeta(-m, a) = -B_{m+1}(a)/(m+1), or
    # Apostol's Phi(lam, -m, a) = -beta_{m+1}(a, lam)/(m+1); checked exactly.
    top = 7
    inner = [[Fraction(sum((-1) ** (k + 1) * exact.stirling1(k, n) * (-m) ** n for n in range(k + 1)),
                        factorial(k + 1)) for k in range(m + 2)] for m in range(top + 1)]
    points, misses = 0, []
    for lam in (None, Fraction(-1), Fraction(-1, 3), Fraction(1, 2), Fraction(2, 7)):
        for a in (Fraction(1, 2), Fraction(1), Fraction(5, 3)):
            p = [exact.appell_value(k + 1, a - 1, lam) for k in range(top + 2)]
            for m in range(top + 1):
                got = sum(w * p[k] for k, w in enumerate(inner[m]))
                if lam is None:
                    want = (1 - exact.bernoulli_polynomial(m + 1, a)) / (m + 1)
                else:
                    want = -exact.apostol_bernoulli(m + 1, a, lam) / (m + 1)
                points += 1
                if got != want:
                    misses.append((lam, a, m))
    if misses:
        lam, a, m = misses[0]
        return False, f"{len(misses)} of {points} points miss, first (lam={lam}, a={a}, m={m})"
    return True, f"exact at {points} points, m<={top}"


def check_system_residual(digits):
    r0 = coeffs.system_residual("hurwitz", Fraction(1), k=0, digits=digits)
    est0 = coeffs.hurwitz_coefficient(0, Fraction(1), digits=digits).error_estimate
    ok = abs(r0) <= est0
    r1 = coeffs.system_residual("hurwitz", Fraction(2), k=1, N=6, digits=digits)
    ok = ok and mpmath.isfinite(r1)
    r2 = coeffs.system_residual("lerch", Fraction(1), Fraction(1, 2), k=0, digits=digits)
    res0 = coeffs.lerch_coefficient(0, Fraction(1), Fraction(1, 2), digits=digits)
    ok = ok and abs(r2) <= res0.error_estimate
    return ok, f"hurwitz k0={_fmt(r0)} smoke k1={_fmt(r1)} lerch k0={_fmt(r2)}"


# ----------------------------- reference -----------------------------


def check_reference_closed_forms(digits):
    # (s, a, lam) -> (exact value, tolerance), lam None for zeta(s, a).
    # Classical values hold to 10^-digits; zeta(-m, a) = -B_{m+1}(a)/(m+1)
    # and Phi(lam, -m, a) = -beta_{m+1}(a, lam)/(m+1) to 10^-min(40,
    # digits-8): Euler-Maclaurin rounds to ~1e15 ulps at digits + 10 working
    # digits, so 1e-40 holds from 50 digits up and scales with the precision
    # below.  A point in both keeps the tighter 10^-digits.
    half, one = Fraction(1, 2), Fraction(1)
    tight, loose = mpf(10) ** -digits, mpf(10) ** -min(40, digits - 8)
    table = {(2, one, None): (mpmath.pi**2 / 6, tight), (-1, one, None): (Fraction(-1, 12), tight)}
    for a in (Fraction(1, 4), half, one, Fraction(7, 2)):
        table[0, a, None] = (half - a, tight)
    for a in (half, one, Fraction(2)):
        for m in range(9):
            table.setdefault((-m, a, None), (-exact.bernoulli_polynomial(m + 1, a) / (m + 1), loose))
        for lam in (Fraction(1, 3), half):
            for m in range(7):
                table.setdefault((-m, a, lam), (-exact.apostol_bernoulli(m + 1, a, lam) / (m + 1), loose))
    worst, misses = mpf(0), []
    for (s, a, lam), (want, tol) in table.items():
        if lam is None:
            got = reference.hurwitz_zeta(s, a, digits=digits)
        else:
            got = reference.lerch_phi(lam, s, a, digits=digits)
        delta = abs(got - to_mpf(want))
        worst = max(worst, delta / tol)
        if delta > tol:
            misses.append(f"(s={s}, a={a}, lam={lam})")
    if misses:
        return False, f"{len(misses)} of {len(table)} points miss, first {misses[0]}"
    return True, f"max delta/tol={_fmt(worst)} on {len(table)} points"


def check_em_doubling(digits):
    tol = mpf(10) ** (-(digits + 3))
    base = reference.OracleConfig.for_digits(digits)
    more_n = reference.OracleConfig(base.em_cutoff * 2, base.em_order)
    more_j = reference.OracleConfig(base.em_cutoff, base.em_order * 2)
    worst = mpf(0)
    half = mpf(0.5)
    ss = [mpf(0), half, -half, mpmath.mpc(0, half), mpmath.mpc(0, -half)]
    for s in ss:
        for a in (Fraction(1, 2), Fraction(1), Fraction(2)):
            v0 = reference.hurwitz_zeta(s, a, base, digits=digits)
            worst = max(worst, abs(v0 - reference.hurwitz_zeta(s, a, more_n, digits=digits)))
            worst = max(worst, abs(v0 - reference.hurwitz_zeta(s, a, more_j, digits=digits)))
    ok = worst <= tol
    return ok, f"max shift={_fmt(worst)} (tol {_fmt(tol)})"


def check_series_vs_jet(digits):
    # the series against the power-series reference; at n = 1 the jet's c_1
    # is log Gamma(a) - log(2 pi)/2, and there each Hurwitz series estimate
    # is at most 1e-2
    misses, details = [], []
    cases = [("hurwitz", Fraction(a), None, 4) for a in ("1/2", "1", "3/2", "2")]
    cases.append(("lerch", Fraction(1), Fraction(-1, 3), 4))
    for family, a, lam, top in cases:
        jet = reference.taylor_coefficients(family, top, a, lam, digits=digits)
        for n in range(top + 1):
            ser = coeffs.compute_coefficient(coeffs.CoefficientQuery(family, n, a, lam, digits))
            if abs(ser.value - jet[n].value) > ser.error_estimate + jet[n].error_estimate:
                misses.append(f"{family} a={a} n={n} (delta)")
            if family == "hurwitz" and n == 1 and ser.error_estimate > mpf("1e-2"):
                misses.append(f"{family} a={a} n={n} (estimate above 1e-2)")
        details.append(f"a={a}:n<={top} ok" if lam is None else f"lerch n<={top} ok")
    if misses:
        return False, f"series misses the reference at {', '.join(misses)}"
    return True, " ".join(details)


def check_contour_vs_jet(digits):
    # the paper's cross-check: one contour pass per function, set against
    # the jet and the series; each contour estimate is below 10^-digits and
    # holds c_0, zeta_1(1) = -log(2 pi)/2 and the Lerch c_1(1, 1/2) =
    # -sum_m 2^-m log(m+1), summed by mpmath
    worst, misses = mpf(0), []
    cases = [("hurwitz", Fraction(a), None) for a in ("1/2", "1", "3/2", "2", "3")]
    cases += [("lerch", Fraction(1), Fraction(1, 2)), ("lerch", Fraction(5, 4), Fraction(-1, 3))]
    with working_precision(digits + 15):
        zeta1_at_1 = -mpmath.log(2 * mpmath.pi) / 2
        lerch1 = -mpmath.nsum(lambda m: mpf(2) ** -m * mpmath.log(m + 1), [0, mpmath.inf])
    for family, a, lam in cases:
        contour = reference.taylor_coefficients_contour(family, 4, a, lam, digits=digits)
        jet = reference.taylor_coefficients(family, 4, a, lam, digits=digits)
        closed = [to_mpf(Fraction(1, 2) - a if lam is None else 1 / (1 - lam))]
        if (a, lam) == (1, None):
            closed.append(zeta1_at_1)
        elif (a, lam) == (1, Fraction(1, 2)):
            closed.append(lerch1)
        for n, (c, j) in enumerate(zip(contour, jet)):
            worst = max(worst, abs(c.value - j.value) / (c.error_estimate + j.error_estimate))
            ser = coeffs.compute_coefficient(coeffs.CoefficientQuery(family, n, a, lam, digits))
            if (abs(ser.value - c.value) > ser.error_estimate + c.error_estimate
                    or c.error_estimate > mpf(10) ** -digits
                    or n < len(closed) and abs(c.value - closed[n]) > c.error_estimate):
                misses.append(f"{family} a={a} n={n}")
    ok = worst <= 1
    if misses:
        return False, f"contour misses series, closed form or 1e-{digits} at {', '.join(misses)}"
    return ok, f"max |delta|/bound={_fmt(worst)} over {len(cases)} functions, n<=4"


def check_contour_stability(digits):
    tol = mpf(10) ** (-15)
    worst = mpf(0)
    cfgs = [reference.OracleConfig(digits + 10, digits // 2 + 10, radius, nodes)
            for radius, nodes in ((Fraction(1, 4), 64), (Fraction(1, 2), 128))]
    for a in (Fraction(1), Fraction(3, 2)):
        va, vb = (reference.taylor_coefficients_contour("hurwitz", 6, a, cfg=c, digits=digits) for c in cfgs)
        for x, y in zip(va, vb):
            worst = max(worst, abs(x.value - y.value))
    ok = worst <= tol
    return ok, f"radius 1/4 vs 1/2: max delta={_fmt(worst)}"


def check_loggamma_ref(digits):
    tol = mpf(10) ** (-digits)
    worst = max(
        abs(reference.log_gamma_ref(1, digits=digits)),
        abs(reference.log_gamma_ref(2, digits=digits)),
        abs(reference.log_gamma_ref(Fraction(1, 2), digits=digits) - mpmath.log(mpmath.pi) / 2),
    )
    ok = worst <= tol  # the values to 10^-digits, the identity to 10^-(digits-1)
    # duplication: logG(2a) = logG(a) + logG(a+1/2) + (2a-1) log 2 - log(pi)/2
    for a in (mpf(0.3), mpf(1.7)):
        lhs = reference.log_gamma_ref(2 * a, digits=digits)
        rhs = (
            reference.log_gamma_ref(a, digits=digits)
            + reference.log_gamma_ref(a + mpf(0.5), digits=digits)
            + (2 * a - 1) * mpmath.log(2)
            - mpmath.log(mpmath.pi) / 2
        )
        worst = max(worst, abs(lhs - rhs))
    ok = ok and worst <= 10 * tol
    return ok, f"max delta={_fmt(worst)}"


SUITES = {
    "identities": [
        ("stirling_orthogonality", check_stirling_orthogonality),
        ("stirling_columns", check_stirling_columns),
        ("bernoulli_poly_at_zero", check_bernoulli_poly_at_zero),
        ("apostol_closed_forms", check_apostol_closed_forms),
        ("apostol_generating_function", check_apostol_generating_function),
        ("etf_identity", check_etf_identity),
    ],
    "coefficients": [
        ("n0_closed_forms", check_n0_closed_forms),
        ("n1_closed_forms", check_n1_closed_forms),
        ("newton_identity", check_newton_identity),
        ("system_residual", check_system_residual),
    ],
    "oracle": [
        ("reference_closed_forms", check_reference_closed_forms),
        ("em_doubling_stability", check_em_doubling),
        ("series_vs_jet", check_series_vs_jet),
        ("contour_vs_jet", check_contour_vs_jet),
        ("contour_stability", check_contour_stability),
        ("loggamma_reference", check_loggamma_ref),
    ],
}


def available_suites() -> tuple[str, ...]:
    return tuple(SUITES) + ("all",)


def run_check(fn, digits: int) -> tuple:
    """Run check `fn` inside `working_precision(digits)`, so its tolerances,
    grids and closed forms do not depend on the caller's precision."""
    with working_precision(digits):
        return fn(digits)


def run_suite(name: str, digits: int, out) -> bool:
    """Run one suite (or 'all'); print one line per check to `out`.
    Returns True iff every check passed.  Raises ValueError for an unknown
    suite and unless digits is an int of at least 15, the precision floor
    of every coefficient query."""
    _check_int("digits", digits, 15)
    if name == "all":
        ok = True
        for sub in SUITES:
            ok = run_suite(sub, digits, out) and ok
        return ok
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {available_suites()}")
    checks = SUITES[name]
    all_ok = True
    for label, fn in checks:
        ok, detail = run_check(fn, digits)
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}/{label}: {detail}", file=out)
    return all_ok
