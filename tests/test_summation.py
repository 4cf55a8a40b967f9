"""Summation engine: termination rules, error estimates, invariants."""

import random
import tracemalloc
from fractions import Fraction
from math import factorial
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_rational, round_nearest, to_rational

from zetataylor import summation
from zetataylor.exact import bernoulli_polynomial, stirling1
from zetataylor.summation import (
    NonFiniteTermError,
    sum_semiconvergent,
    to_mpf,
)


def _exact(x) -> Fraction:
    """A finite mpf, an int or an int pair (man, exp) as its exact rational value."""
    if isinstance(x, tuple):
        return x[0] * Fraction(2) ** x[1]
    return Fraction(x) if isinstance(x, int) else Fraction(*to_rational(x._mpf_))


# log(2*pi)/2, frozen from an independent 58-digit evaluation
HALF_LOG_2PI = "0.9189385332046727417803297364056176398613974736377834128"


def riemann_like_terms(n: int, count: int, a=Fraction(1)):
    """Exact terms sign * s1(k, n) * B_{k+1}(a-1) / (k+1)! for k >= n."""
    out = []
    for k in range(n, n + count):
        sign = -1 if k % 2 == 0 else 1
        out.append(
            sign * stirling1(k, n) * bernoulli_polynomial(k + 1, a - 1) / factorial(k + 1)
        )
    return out


def test_all_zero_series_converges():
    res = sum_semiconvergent(iter([Fraction(0)] * 10), start=0)
    assert res.value == 0
    assert res.terminated_by == "converged"
    assert res.truncation_index == 1  # second consecutive negligible term


def test_geometric_series_converges_to_closed_form():
    # at the fixture's 60 digits the threshold is 1e-65, and 2^-k first
    # falls below it at k = 216
    terms = ((-Fraction(1, 2)) ** k for k in range(300))
    res = sum_semiconvergent(terms, start=0, max_terms=300)
    assert res.terminated_by == "converged"
    assert res.truncation_index == 217
    assert abs(res.value - to_mpf(Fraction(2, 3))) <= mpf("1e-55")
    assert res.error_estimate == mpf(10) ** -65


def test_alternating_series_error_bounded_by_first_omitted():
    # sum (-1)^(k+1) / k^2 = pi^2 / 12
    res = sum_semiconvergent(
        ((-1) ** (k + 1) * Fraction(1, k * k) for k in range(1, 2000)),
        start=1,
        max_terms=500,
    )
    limit = mpmath.pi**2 / 12
    first_omitted = Fraction(1, (res.truncation_index + 1) ** 2)
    assert abs(res.value - limit) <= to_mpf(first_omitted)


def test_riemann_n1_minimal_term_truncation():
    # magnitudes decrease to k = 7 then grow; zeros at even k are skipped.
    # Frozen expectations from exact tabulation of the first 30 terms:
    # min |term| = 1/1680 at k = 7, first omitted nonzero term 1/1188 at k = 9,
    # partial sum through k = 7 equals 407/5040.
    with mpmath.workdps(50):
        res = sum_semiconvergent(iter(riemann_like_terms(1, 40)), start=1, trace=True)
        expected_estimate = to_mpf(Fraction(1, 1188))
    assert res.terminated_by == "minimal_term"
    assert res.truncation_index == 8  # the zero at k = 8 adds nothing
    assert res.error_estimate == expected_estimate
    assert abs(res.value - to_mpf(Fraction(407, 5040))) < mpf("1e-45")
    # shifted by the constant offset the sum approaches -log(2*pi)/2
    assert abs((-1 + res.value) + mpf(HALF_LOG_2PI)) <= 2 * res.error_estimate
    assert mpf("1e-4") < res.error_estimate < mpf("1e-2")
    mags = {r.k: abs(r.term) for r in res.trace if r.term != 0}
    assert min(mags, key=mags.get) == 7


def test_zero_interleaved_growth_detection():
    # decreasing, a zero, then growth: 8, -4, 0, 2, 0, -3, 5 -> min at 2
    vals = [8, -4, 0, 2, 0, -3, 5, -9]
    res = sum_semiconvergent(iter(vals), start=0, trace=True)
    assert res.terminated_by == "minimal_term"
    assert res.truncation_index == 4  # trailing zero after the k=3 minimum
    assert res.value == to_mpf(8 - 4 + 0 + 2 + 0)
    assert res.error_estimate == 3


def test_tie_at_minimum_truncates_earlier_index():
    vals = [5, -3, 3, -9, 12]
    res = sum_semiconvergent(iter(vals), start=0)
    assert res.terminated_by == "minimal_term"
    assert res.truncation_index == 1
    assert res.value == to_mpf(2)
    assert res.error_estimate == 3


def test_growth_sightings_persist_across_new_minima():
    # a decaying spur keeps producing new minima between growing terms;
    # the two growth sightings still accumulate and stop the sum at the
    # latest minimum
    vals = [10, -5, 1, -4, Fraction(1, 2), -6, 20]
    res = sum_semiconvergent(iter(vals), start=0)
    assert res.terminated_by == "minimal_term"
    assert res.truncation_index == 4
    assert res.value == to_mpf(Fraction(5, 2))
    assert res.error_estimate == 6


def test_immediately_growing_series_reports_max_terms():
    vals = [2, -5, 9, -20, 50, -120, 300, -800]
    res = sum_semiconvergent(iter(vals), start=0, max_terms=8)
    assert res.terminated_by == "max_terms"
    assert res.truncation_index == 7
    assert res.error_estimate == 800


def test_max_terms_estimate_skips_trailing_zero_terms():
    # the exact zero in last place must not report a zero error bar; the
    # last term at or above the threshold sets it, as in minimal-term stops
    vals = [2, -5, 9, -20, 50, 0]
    res = sum_semiconvergent(iter(vals), start=0, max_terms=6)
    assert res.terminated_by == "max_terms"
    assert res.truncation_index == 5
    assert res.error_estimate == 50


def test_non_finite_term_raises_with_index():
    vals = [mpf(1), mpf(0.5), mpf("nan")]
    with pytest.raises(NonFiniteTermError) as exc:
        sum_semiconvergent(iter(vals), start=3)
    assert exc.value.index == 5


@pytest.mark.parametrize("bad", [(1, 2, 3), (1,), (1.0, 2), (1, mpf(2)), (True, 0), (Fraction(1, 2), 0)],
                         ids=repr)
def test_a_malformed_tuple_term_is_refused_with_its_index(bad):
    with pytest.raises(TypeError, match=r"^term 5: a tuple term is \(man, exp\), two ints"):
        sum_semiconvergent(iter([(3, -1), mpf(1), 2, bad, (1, 0)]), start=2, max_terms=10)


def test_precondition_validation():
    with pytest.raises(ValueError):
        sum_semiconvergent(iter([1, 2, 3]), max_terms=1)
    with pytest.raises(ValueError):
        sum_semiconvergent(iter([]))


def test_determinism_bit_identical():
    def run():
        return sum_semiconvergent(iter(riemann_like_terms(2, 40, Fraction(3, 2))), start=2)

    with mpmath.workdps(50):
        r1, r2 = run(), run()
    assert r1.value._mpf_ == r2.value._mpf_
    assert r1.error_estimate._mpf_ == r2.error_estimate._mpf_
    assert r1.truncation_index == r2.truncation_index


def test_every_term_is_at_working_precision():
    # an int and an mpf of any width are summed exactly, a Fraction and a
    # float are rounded once by to_mpf first; each trace term is its term
    # rounded once, and the value is the exact sum rounded once
    with mpmath.workdps(60):
        wide, wider = mpf(1) / 3, mpf(-2) / 7
    with mpmath.workdps(30):
        raw = [mpf(1) / 7, wide, Fraction(-2, 3), 5, 0.1, wider]
        res = sum_semiconvergent(iter(raw), start=0, max_terms=len(raw), trace=True)
        want = [to_mpf(x)._mpf_ for x in raw]
        prec = mpmath.mp.prec
        taken = [to_mpf(x) if isinstance(x, (Fraction, float)) else x for x in raw]
        total = sum(_exact(x) for x in taken)
        assert res.value._mpf_ == from_rational(total.numerator, total.denominator, prec, round_nearest)
    assert [rec.term._mpf_ for rec in res.trace] == want
    assert all(rec.term._mpf_[3] <= prec for rec in res.trace)
    assert res.trace[1].term != wide
    assert _exact(res.value) != sum(_exact(rec.term) for rec in res.trace)  # the wide terms count


def test_tiny_and_cancelling_terms_are_summed_exactly():
    # a sum at a fixed scale of 2^-(prec+64) would lose both: terms far
    # below it, and a wide term that cancels all but its last bits
    with mpmath.workdps(30):
        prec = mpmath.mp.prec
        tiny = sum_semiconvergent(iter([mpf(2) ** -500, 3 * mpf(2) ** -500]), start=0)
        assert tiny.terminated_by == "converged"
        assert tiny.value == mpf(2) ** -498
        with mpmath.workprec(prec + 300):
            minus_near_one = mpf(2) ** -(prec + 250) - 1
        cancel = sum_semiconvergent(iter([1, minus_near_one]), start=0, max_terms=2, trace=True)
        assert cancel.terminated_by == "max_terms"
        assert cancel.value == mpf(2) ** -(prec + 250)
        assert cancel.trace[1].partial_sum == cancel.value
        assert cancel.trace[1].term == -1  # the term rounded once; the sum took it exactly


def test_terms_far_from_the_threshold_build_no_wide_ints():
    # a term 10^+-(10^8) away would make ints of 330 million bits on one
    # scale; kept apart, the sum stays exact and the ints small
    tiny, big, prec = mpf("1e-100000000"), mpf("1e100000000"), mpmath.mp.prec
    with mpmath.workprec(prec + 1):
        tie = 1 + mpf(2) ** -prec  # halfway between 1 and the next mpf; a tiny term decides
    up = 1 + mpf(2) ** (1 - prec)
    cases = [  # terms, max_terms, value, estimate, reason, each partial sum rounded once
        ([tie, tiny], 2, up, 1, "max_terms", [1, up]),
        ([tie, -tiny], 2, 1, 1, "max_terms", [1, 1]),
        ([tie, 2 * tiny, -tiny], 3, up, mpf(10) ** -(mpmath.mp.dps + 5), "converged",
         [1, up, up]),
        ([1, tiny], 2, 1, 1, "max_terms", [1, 1]),
        ([1, tiny, -1], 3, tiny, 1, "max_terms", [1, 1, tiny]),
        ([big, 1, -big], 3, 1, big, "max_terms", [big, big, 1]),
        ([4 * big, 2 * big, big, 2 * big, 4 * big], 9, 7 * big, 2 * big, "minimal_term",
         [4 * big, 6 * big, 7 * big, 9 * big, 13 * big]),
        ([tiny, tiny], 9, 2 * tiny, mpf(10) ** -(mpmath.mp.dps + 5), "converged",
         [tiny, 2 * tiny]),
    ]
    tracemalloc.start()
    try:
        for terms, max_terms, value, estimate, reason, partials in cases:
            res = sum_semiconvergent(iter(terms), start=0, max_terms=max_terms, trace=True)
            assert (res.value, res.error_estimate, res.terminated_by) == (value, estimate, reason)
            assert [rec.partial_sum for rec in res.trace] == partials
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
        min_size=1,
        max_size=40,
    )
)
def test_trace_telescopes_and_value_matches(vals):
    # each partial sum is the exact running sum rounded once
    res = sum_semiconvergent(iter(vals), start=0, trace=True)
    assert res.trace is not None
    prec, running = mpmath.mp.prec, Fraction(0)
    for rec, x in zip(res.trace, vals):
        running += _exact(to_mpf(x))
        assert rec.partial_sum._mpf_ == from_rational(running.numerator, running.denominator,
                                                      prec, round_nearest)
    cut = [r for r in res.trace if r.k == res.truncation_index]
    assert len(cut) == 1
    assert res.value == cut[0].partial_sum
    assert res.error_estimate >= 0
    assert res.terminated_by in ("minimal_term", "converged", "max_terms")


def test_to_mpf_faithful_rounding():
    with mpmath.workdps(30):
        got = to_mpf(Fraction(1, 3))
    with mpmath.workdps(80):
        want = mpmath.mpf(1) / 3
        assert abs(got - want) <= abs(got) * mpf(10) ** (-29)


def _assert_nearest_even(got, c, prec):
    """got is c rounded to prec bits, to nearest with ties to even, checked
    in exact Fraction arithmetic."""
    sign, man, exp, bc = got._mpf_
    man, exp = man << (prec - bc), exp - (prec - bc)  # a prec-bit mantissa
    g = Fraction(-man if sign else man) * Fraction(2) ** exp
    ulp = Fraction(2) ** exp
    if man == 1 << (prec - 1) and abs(c) < abs(g):
        ulp /= 2  # below a power of two the spacing halves
    err = abs(c - g)
    assert err <= ulp / 2, c
    assert err < ulp / 2 or man % 2 == 0, c


def _tie_cases(prec: int, wp: int) -> list[Fraction]:
    """Ratios next to a rounding tie, which a conversion that rounds twice
    (first to a guarded precision wp, then to prec) gets wrong: a tie in the
    numerator at wp, a quotient tie at wp that only the nonzero remainder
    breaks, and exact ties at prec for an odd and an even mantissa."""
    g = wp - prec
    cases = [Fraction(2 * m + 1, 2**k) for m in (2 ** (prec - 1) + 1, 2 ** (prec - 1) + 2)
             for k in (1, 7, 300)]
    for t in (2 ** (prec - 1) + 1, 2 ** (prec - 1) + 5):
        m = (t << g) | ((1 << (g - 1)) - 1)
        cases += [Fraction(-(2 * m + 1), 2**k) for k in (1, 7, 300)]
    m = ((2 ** (prec - 1) + 2) << g) | (1 << (g - 1))
    rng = random.Random(3)
    for _ in range(40000):
        q = rng.randrange(2**199, 2**200) | 1
        p = ((2 * m + 1) * q >> 201) + 1  # p/q just above the tie (2m + 1) / 2^201
        if (p << 201) - (2 * m + 1) * q < q >> 8:
            cases.append(Fraction(p, q))
    return cases


def test_integer_conversion_rounds_as_mpmath_does():
    rng = random.Random(5)
    wide = [Fraction(rng.choice((-1, 1)) * rng.randrange(1, 2 ** rng.randrange(1, 700)),
                     rng.randrange(2, 2 ** rng.randrange(2, 700))) for _ in range(600)]
    for dps in (15, 30, 100):
        with mpmath.workdps(dps):
            cs = wide + _tie_cases(mpmath.mp.prec, mpmath.libmp.dps_to_prec(dps + 10))
            assert len(cs) > len(wide) + 6
            for c in cs:
                _assert_nearest_even(to_mpf(c), c, mpmath.mp.prec)


def parent_rule_cut(records, threshold):
    """The cut of a minimal-term stop re-derived from a full trace: the
    first term at or above the threshold after the first smallest such
    term is omitted, and the sum runs through the record before it."""
    big = [i for i, r in enumerate(records) if abs(r.term) >= threshold]
    low = min(big, key=lambda i: abs(records[i].term))  # min keeps the first of a tie
    omitted = next(i for i in big if i > low)
    return records[omitted - 1].k, records[omitted - 1].partial_sum, abs(records[omitted].term)


# at the fixture's 60 digits the threshold is 1e-65: these sit on both sides
_TINY = [Fraction(1, 10**67), Fraction(-3, 10**66), Fraction(1, 10**64)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-6, 6).map(lambda i: Fraction(i, 2)),
                  st.sampled_from([Fraction(0), *_TINY])),
        min_size=1,
        max_size=40,
    ),
    st.integers(2, 45),
    st.integers(-3, 3),
)
def test_trace_does_not_change_the_cut(vals, max_terms, start):
    plain = sum_semiconvergent(iter(vals), start=start, max_terms=max_terms)
    traced = sum_semiconvergent(iter(vals), start=start, max_terms=max_terms, trace=True)
    assert plain.trace is None
    for res in (plain, traced):
        assert (res.value._mpf_, res.error_estimate._mpf_, res.truncation_index,
                res.terminated_by) == (traced.value._mpf_, traced.error_estimate._mpf_,
                                       traced.truncation_index, traced.terminated_by)
    if traced.terminated_by == "minimal_term":
        k, value, estimate = parent_rule_cut(traced.trace, mpf(10) ** -65)
        assert (plain.truncation_index, plain.value._mpf_, plain.error_estimate._mpf_) == (
            k, value._mpf_, estimate._mpf_)


def _exact_engine(terms, start, max_terms):
    """The engine's loop in exact Fraction arithmetic on the terms as the
    engine takes them (an int, an mpf or an int pair exactly, anything else
    rounded once by to_mpf), with the value and the estimate rounded once
    at the end: the oracle of the integer loop's bits."""
    def rounded(x):
        return from_rational(x.numerator, x.denominator, mpmath.mp.prec, round_nearest)

    threshold = _exact(mpf(10) ** (-(mpmath.mp.dps + 5)))
    partial, min_mag, prev_mag, cut = Fraction(0), None, None, None
    seen_descent, growth_sightings, consecutive_small, reason = False, 0, 0, "max_terms"
    k = start - 1
    for raw in terms:
        k += 1
        term = raw if isinstance(raw, (int, mpf, tuple)) else to_mpf(raw)
        if not isinstance(term, tuple) and not mpmath.isfinite(term):
            raise NonFiniteTermError(k)
        term = _exact(term)
        before, partial = partial, partial + term
        mag = abs(term)
        if mag < threshold:
            consecutive_small += 1
            if consecutive_small >= 2:
                reason = "converged"
                break
        else:
            consecutive_small = 0
            if prev_mag is not None:
                if mag < prev_mag:
                    seen_descent = True
                elif seen_descent:
                    growth_sightings += 1
            if min_mag is None or mag < min_mag:
                min_mag, cut = mag, None
            elif cut is None:
                cut = (k - 1, before, mag)
            prev_mag = mag
            if growth_sightings >= 2:
                reason = "minimal_term"
                break
        if k - start + 1 >= max_terms:
            break
    if reason == "minimal_term":
        index, value, estimate = cut
    elif reason == "converged":
        index, value, estimate = k, partial, threshold
    else:
        index, value, estimate = k, partial, mag if prev_mag is None else prev_mag
    return rounded(value), rounded(estimate), index, reason


def _engine_term(kind: str, i: int, dps: int):
    """One term of a kind the engine must treat alike on either route."""
    if kind == "half":  # small halves: exact zeros and ties of magnitude
        return Fraction(i, 2)
    if kind == "int":
        return i * 3**40
    if kind == "tiny":  # on either side of the threshold 10^-(dps+5), and on it
        return (Fraction(i, 10 ** (dps + 7)), Fraction(i, 10 ** (dps + 4)),
                mpf(10) ** -(dps + 5))[abs(i) % 3]
    if kind == "wide":  # an mpf wider than the working precision
        with mpmath.workprec(mpmath.mp.prec + 40):
            return mpf(i) / 3
    if kind == "cancel":  # a wide mpf that cancels a "wide" term but for its last bits
        with mpmath.workprec(mpmath.mp.prec + 80):
            return mpf(i) / 3 - mpf(i) / 3 * mpf(2) ** -(mpmath.mp.prec + 60)
    if kind == "float":
        return i / 7
    if kind == "pair":  # man 2^exp of any width, near and far from the threshold; (0, -97) a zero
        return i * 3 ** (25 * abs(i)), 90 * i - 97
    if kind == "far":  # far above and below the threshold
        return mpf(i) * mpf(2) ** (300 * i)
    if kind == "tie":  # odd i: halfway between two mpf values
        prec = mpmath.mp.prec
        with mpmath.workprec(prec + 4):
            return i * (1 + mpf(2) ** -prec)
    return (mpf("nan"), mpf("inf"), mpf("-inf"), float("nan"), float("-inf"))[abs(i) % 5]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([15, 30, 60]),
    st.lists(st.tuples(st.sampled_from(["half", "half", "int", "tiny", "wide", "cancel", "float",
                                        "far", "tie", "pair", "pair"]),
                       st.integers(-6, 6)), min_size=1, max_size=30),
    st.integers(0, 60),  # where a NaN or an infinity goes, if within the list
    st.integers(2, 35),
    st.integers(-3, 3),
    st.sampled_from([None, 1, 8, 200]),  # _FAR as shipped, or small so most terms are kept apart
)
@example(15, [("half", 1), ("tiny", 1), ("cancel", 1), ("half", 1)], 60, 4, 0, 200)  # cut after a rescale
def test_engine_matches_the_exact_fraction_loop(dps, kinds, bad_at, max_terms, start, far):
    with mpmath.workdps(dps), mock.patch.object(summation, "_FAR", far or summation._FAR):
        vals = [_engine_term(kind, i, dps) for kind, i in kinds]
        if bad_at < len(vals):
            vals[bad_at] = _engine_term("bad", bad_at, dps)
        outcomes = []
        for route in (_exact_engine, None):
            try:
                if route is None:
                    res = sum_semiconvergent(iter(vals), start=start, max_terms=max_terms)
                    outcomes.append((res.value._mpf_, res.error_estimate._mpf_,
                                     res.truncation_index, res.terminated_by))
                else:
                    outcomes.append(route(iter(vals), start, max_terms))
            except NonFiniteTermError as exc:
                outcomes.append(("non-finite", exc.index))
        if outcomes[1][0] != "non-finite":  # each trace row's sum is the running sum rounded once
            traced, running = sum_semiconvergent(iter(vals), start=start, max_terms=max_terms,
                                                 trace=True), Fraction(0)
            for rec, x in zip(traced.trace, vals):
                running += _exact(x if isinstance(x, (int, mpf, tuple)) else to_mpf(x))
                assert rec.partial_sum._mpf_ == from_rational(running.numerator, running.denominator,
                                                              mpmath.mp.prec, round_nearest)
    assert outcomes[0] == outcomes[1]
