"""Independent numerical reference: Euler-Maclaurin, direct Lerch
summation, the power-series coefficient reference, contour coefficient
extraction, and the log-gamma reference."""

import subprocess
import sys
import threading
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from mpmath import mpf, workdps

from zetataylor import coefficients, reference
from zetataylor.coefficients import hurwitz_coefficient, lerch_coefficient
from zetataylor.exact import apostol_bernoulli, appell_row
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
    for s, a, message in ((0, 1j, "shift a"), (0, "2", "shift a"),
                          (2, 0, "shift a must be positive"), (0, Fraction(-1, 2), "shift a must be positive")):
        with pytest.raises(ValueError, match=message):
            hurwitz_zeta(s, a)


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
    for lam, a, message in ((0.5, 1j, "shift a"), (0.5j, 1, "lambda"),
                            (1, 1, "lambda=1 is the hurwitz case"), (-1, 1, "direct Lerch sum"),
                            (2, 1, r"\|lambda\| <= 1"), (0.5, 0, "shift a must be positive")):
        with pytest.raises(ValueError, match=message):
            lerch_phi(lam, 0, a)


def _pass_nodes(cfg):
    """The M + 1 nodes r e^(2 pi i j / 2M), j <= M, of one contour pass."""
    r, m = to_mpf(cfg.contour_radius), cfg.contour_points
    return [r * mpmath.expjpi(mpf(j) / m) for j in range(m + 1)]


@pytest.mark.parametrize("digits", [30, 50])
def test_a_hurwitz_pass_gives_each_node_its_own_bits(digits):
    cfg = OracleConfig.for_digits(digits)
    for a in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 3)):
        with workdps(digits + 10):
            nodes = _pass_nodes(cfg)
            got = reference._hurwitz_at(nodes, to_mpf(a), cfg)
        for j in range(0, len(nodes), 8):
            alone = hurwitz_zeta(nodes[j], a, cfg, digits=digits)
            assert (got[j].real._mpf_, got[j].imag._mpf_) == (alone.real._mpf_, alone.imag._mpf_), (a, j)


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(-1, 3), Fraction(0)], ids=str)
def test_a_lerch_pass_is_each_node_alone_within_the_floor(lam):
    # the pass sums every node to the tail bound of its worst node, s = -r,
    # so another node's value only gains terms below the bound
    digits = 30
    cfg = OracleConfig.for_digits(digits)
    for a in (Fraction(1, 10), Fraction(1), Fraction(5, 4)):  # a = 1/10: n + a < 1 at n = 0
        with workdps(digits + 10):
            nodes = _pass_nodes(cfg)
            got = reference._lerch_at(nodes, to_mpf(lam), to_mpf(a))
            floor = [mpf(10) ** -(digits + 2) * (1 + abs(v)) for v in got]
        for j in range(0, len(nodes), 8):
            assert abs(got[j] - lerch_phi(lam, nodes[j], a, digits=digits)) <= floor[j], (a, j)
        with workdps(digits + 20):
            want = mpmath.lerchphi(to_mpf(lam), nodes[-1], to_mpf(a))
            assert nodes[-1] == -to_mpf(cfg.contour_radius)
            assert abs(got[-1] - want) <= floor[-1], a


# (value, error_estimate) as mpf tuples of the contour at 15 digits, derived
# by tests/derive_pins.py: one evaluator call per pass
CONTOUR_GOLDEN = {
    ("hurwitz", Fraction(3, 2), None): [
        ((1, 77371252455336267181195259, -86, 86), (0, 27875931626045167745874707, -140, 85)),
        ((1, 40222249121856059583355563, -85, 86), (0, 28429558421873835130368937, -140, 85)),
        ((1, 19290576180392347162037765, -84, 84), (0, 55676581789448428711620899, -141, 86)),
    ],
    ("lerch", Fraction(5, 4), Fraction(-1, 3)): [
        ((0, 14507109835375550096474113, -84, 84), (0, 48782880373987606676646751, -141, 86)),
        ((1, 27285363293577670553899, -79, 75), (0, 29134246827725354295092471, -141, 85)),
    ],
}


def contour_bits(family, a, lam, count) -> list:
    got = taylor_coefficients_contour(family, count - 1, a, lam, digits=15)
    return [(v.value._mpf_, v.error_estimate._mpf_) for v in got]


def test_contour_golden_bits():
    for key, want in CONTOUR_GOLDEN.items():
        assert contour_bits(*key, len(want)) == want


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
    taylor_coefficients("hurwitz", 2, 1)  # a kept jet does not skip the checks
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
    with pytest.raises(ValueError):
        cfg._replace(contour_points=48)
    with pytest.raises(ValueError):
        OracleConfig._make((20, 1, Fraction(1, 2), 256))


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


# ---- the jet cache ----------------------------------------------------------

with workdps(60):
    _MPF_SHIFT, _MPF_LAMBDA = mpf(0.8), mpf(-0.41)

JET_CASES = [
    ("hurwitz", Fraction(7, 3), None),
    ("hurwitz", _MPF_SHIFT, None),
    ("riemann", 1, None),
    ("lerch", Fraction(7, 5), Fraction(8, 11)),
    ("lerch", Fraction(7, 5), Fraction(-1, 9)),
    ("lerch", Fraction(3, 2), Fraction(-1)),
    ("lerch", Fraction(1, 3), _MPF_LAMBDA),
]


def _bits(jet):
    return [(v.value._mpf_, v.error_estimate._mpf_) for v in jet]


def _uncached(family, n_max, a, lam, digits):
    reference._jets.clear()
    return _bits(taylor_coefficients(family, n_max, a, lam, digits=digits))


def _cached(key, n_max):
    family, a, lam = key
    return _bits(taylor_coefficients(family, n_max, a, lam, digits=30))


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_jet_prefix_does_not_depend_on_n_max(digits):
    # what makes the cache safe: c_n and its bar are the same bits whatever
    # n_max they were computed with, so a cached prefix is the answer
    for family, a, lam in JET_CASES:
        full = _uncached(family, 6, a, lam, digits)
        for m in range(7):
            assert _uncached(family, m, a, lam, digits) == full[: m + 1], (family, a, lam, m)
            assert _bits(taylor_coefficients(family, m, a, lam, digits=digits)) == full[: m + 1]


def test_jet_bits_do_not_depend_on_request_order():
    orders = [range(7), range(6, -1, -1), (3, 0, 6, 1, 5, 2, 4)]
    for family, a, lam in JET_CASES:
        want = {digits: _uncached(family, 6, a, lam, digits) for digits in (30, 50)}
        for order in orders:
            reference._jets.clear()
            for m in order:
                for digits in (30, 50):  # the precision is part of the key
                    got = taylor_coefficients(family, m, a, lam, digits=digits)
                    assert _bits(got) == want[digits][: m + 1], (family, a, lam, list(order), m)


def test_jet_cache_is_bounded():
    reference._jets.clear()
    for i in range(40):
        taylor_coefficients("hurwitz", 1, Fraction(i + 1, 7), digits=15)
    assert len(reference._jets) == reference._JETS == 16


def test_jet_cache_hands_out_copies():
    reference._jets.clear()
    first = taylor_coefficients("lerch", 3, Fraction(3, 2), Fraction(-1, 3), digits=30)
    want = _bits(first)
    first[0] = None
    first.append(None)
    shorter = taylor_coefficients("lerch", 1, Fraction(3, 2), Fraction(-1, 3), digits=30)
    shorter.clear()
    assert _bits(taylor_coefficients("lerch", 3, Fraction(3, 2), Fraction(-1, 3), digits=30)) == want


def test_jet_cache_is_consistent_under_threads():
    # more keys than the cache keeps, each thread in its own order and with
    # its own n_max sequence, so entries are evicted, replaced and read at once
    keys = [("hurwitz", Fraction(p, 7), None) for p in range(1, 12)]
    keys += [("lerch", Fraction(3, 2), Fraction(s, p)) for p in (3, 5, 7) for s in (-1, 1)]
    keys += [("lerch", Fraction(p, 3), Fraction(-1)) for p in (1, 2, 4)]
    keys.append(("riemann", 1, None))
    assert len(keys) > reference._JETS
    n_maxes = (2, 6, 0, 4, 1, 5, 3)
    with workdps(40):  # the mpmath context is shared; 40 is what every call sets
        want = {(family, a, lam): _uncached(family, 6, a, lam, 30) for family, a, lam in keys}
    reference._jets.clear()
    results = [None] * 8

    def work(i):
        got = []
        for j, key in enumerate(keys[i:] + keys[:i]):
            n_max = n_maxes[(i + j) % len(n_maxes)]
            got.append((key, n_max, _cached(key, n_max)))
        results[i] = got

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workdps(40):
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert len(got) == len(keys)
        for key, n_max, bits in got:
            assert bits == want[key][: n_max + 1], (key, n_max)
    assert len(reference._jets) <= reference._JETS
    for (family, a, lam, digits), jet in reference._jets.items():
        assert _bits(jet) == want[family, a, lam][: len(jet)]


def test_threads_at_different_precisions_get_serial_bits():
    # mpmath's precision is one process-wide setting: 4 threads at 30 and
    # 100 digits, over more keys than the value table and the jet cache
    # keep, must each get the bits of a serial run, leave only values of
    # their key's precision in the tables, and leave mp.dps as it was
    runs = [("hurwitz", Fraction(p, 7), None) for p in (2, 5, 9, 12, 20)]
    runs += [("lerch", Fraction(3, 2), Fraction(-1, 3)), ("lerch", Fraction(3, 2), Fraction(1, 5)),
             ("lerch", Fraction(3, 2), Fraction(-1)), ("lerch", Fraction(5, 4), Fraction(-1, 2))]
    keys = [(run, digits) for run in runs for digits in (30, 100)]
    assert len(keys) > coefficients._VALUE_LISTS and len(keys) > reference._JETS

    def one(run, digits):
        family, a, lam = run
        series = [hurwitz_coefficient(n, a, digits=digits) if lam is None
                  else lerch_coefficient(n, a, lam, digits=digits) for n in range(5)]
        return ([(r.value._mpf_, r.error_estimate._mpf_, r.series.truncation_index,
                  r.series.terminated_by) for r in series],
                _bits(taylor_coefficients(family, 4, a, lam, digits=digits)))

    want = {}
    for run, digits in keys:
        reference._jets.clear()
        coefficients._values.clear()
        want[run, digits] = one(run, digits)
    reference._jets.clear()
    coefficients._values.clear()
    results = [None] * 4

    def work(i):  # each thread starts at another key, so precisions interleave
        results[i] = [(key, one(*key)) for key in keys[5 * i:] + keys[:5 * i]]

    dps = mpmath.mp.dps
    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mpmath.mp.dps == dps
    wrong = [key for got in results for key, bits in got if bits != want[key]]
    assert len(wrong) == 0 and all(len(got) == len(keys) for got in results), wrong
    for ((u, v), lam_pq, prec), (values, *_) in coefficients._values.items():  # every kept list
        x, lam = Fraction(u, v), lam_pq and Fraction(*lam_pq)
        exact_q = [sum(c * x**p for p, c in enumerate(appell_row(k + 1, lam))) / factorial(k + 1)
                   for k in range(len(values))]
        assert values == [coefficients._floor(q.numerator, q.denominator, prec + 64) for q in exact_q]
    for (family, a, lam, digits), jet in reference._jets.items():  # every kept jet
        assert _bits(jet) == want[(family, a, lam), digits][1][: len(jet)]


def test_bare_import_leaves_the_reference_unloaded():
    # the package serves the reference names on first use (PEP 562)
    code = (
        "import sys, zetataylor\n"
        "assert 'zetataylor.reference' not in sys.modules\n"
        "assert all(getattr(zetataylor, name) is not None for name in zetataylor.__all__)\n"
        "import zetataylor.reference as r\n"
        "assert zetataylor.taylor_coefficients is r.taylor_coefficients\n"
        "assert zetataylor.OracleConfig is r.OracleConfig\n"
        "star = {}\n"
        "exec('from zetataylor import *', star)\n"
        "assert set(zetataylor.__all__) <= set(star)\n"
        "assert star['log_gamma_ref'] is r.log_gamma_ref\n"
        "try:\n"
        "    zetataylor.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
