"""Arbitrary-precision plumbing and the summation engine for
semi-convergent (asymptotic) series.

The number type throughout is mpmath's mpf at the caller's working
precision (`mpmath.mp.dps`, in decimal digits).  `to_mpf` rounds a
Fraction once, correctly; ints and mpf values are dyadic and summed as
they are.  The inputs a and lam of the coefficient series are made exact
once, by `coefficients.CoefficientQuery`, not here.

A semi-convergent series is divergent, but its partial sums first approach
the target value; the usable accuracy is set by the smallest-magnitude
term.  `sum_semiconvergent` accumulates terms until one of:

* two consecutive terms fall below the fixed threshold 10^-(dps+5) (the
  series behaved like an ordinary convergent one), or
* the terms have passed through a minimum: after at least one magnitude
  decrease has been seen, two further terms each at least as large as
  their predecessor are taken as evidence that the minimum is behind us.
  The sum is then truncated just after the smallest-magnitude term and the
  first omitted term is reported as the error estimate, or
* `max_terms` terms have been consumed (no minimum was detected; the
  magnitude of the last term at or above the threshold is reported as the
  error estimate, which for a divergent tail honestly signals that no
  accuracy was achieved).

Terms below the threshold (in particular exact zeros from vanishing
odd-index Bernoulli numbers) are included in the sum but ignored by the
minimum detection, which would otherwise mistake every such dip for
renewed convergence.  The two growth sightings need not be consecutive:
series whose odd-index terms are exponentially small but not exactly zero
interleave a decaying subsequence with the structurally growing one, and
requiring adjacency would defeat detection exactly there.  The cut is
tracked as the terms arrive: the first term at or above the threshold
after the current minimum fixes it, and a new minimum clears it.  A tie is
not a new minimum, so ties truncate at the earlier index, which keeps the
error estimate conservative.

The engine is exact: an int, an mpf of any width or an int pair (man, exp),
man 2^exp, is taken as it is, anything else rounded once by `to_mpf`; the
partial sum is an int at the scale of the smallest exponent seen, and every
comparison is exact.  A term whose top bit is more than 2^16 bits from the
threshold's is kept apart as it is, so the ints stay within 2^17 bits plus
the terms' widths.
The value, the estimate and a trace record's term and running sum are each
rounded once, so a value is within half an ulp of the exact partial sum of
its terms.  The coefficient series hand over the pairs (s1(k, n) man, exp)
of q_k's floor at prec + 64 bits, so their value is within half an ulp plus
sum_k |s1(k, n) q_k| 2^-(prec+63) of the exact partial sum of the series.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Literal, NamedTuple

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, from_rational, mpf_pow_int, round_nearest

from .exact import LOCK

__all__ = [
    "TraceRecord",
    "SemiConvergentResult",
    "NonFiniteTermError",
    "sum_semiconvergent",
    "to_mpf",
]

TerminationReason = Literal["minimal_term", "converged", "max_terms"]


class working_precision:
    """Hold `exact.LOCK` and work at `digits` decimal digits: the one place
    zetataylor changes mpmath's process-wide precision."""

    def __init__(self, digits: int):
        self.digits = digits

    def __enter__(self):
        with LOCK:  # released again if the precision cannot be set
            self.saved, mp.dps = mp.prec, self.digits
            LOCK.acquire()

    def __exit__(self, *exc):
        mp.prec = self.saved
        LOCK.release()


def _check_int(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an int (bool excluded) of at least
    `least`: the one check of every entry point's `digits` and budget."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int of at least {least}, got {value!r}")


def to_mpf(x) -> mpf:
    """Convert x (int, Fraction, str, float, mpf) to mpf at the current
    working precision.  A Fraction is rounded once, correctly (to nearest,
    ties to even)."""
    if isinstance(x, Fraction):
        return mp.make_mpf(from_rational(x.numerator, x.denominator, mp.prec, round_nearest))
    return +mpmath.mpmathify(x)


class TraceRecord(NamedTuple):
    """One row of a summation trace: term index, term value and the
    running partial sum after adding it, each rounded once."""

    k: int
    term: mpf
    partial_sum: mpf


class SemiConvergentResult(namedtuple("SemiConvergentResult", "value error_estimate "
                                      "truncation_index terminated_by trace", defaults=(None,))):
    """Outcome of a truncated summation.

    `value` is the partial sum through `truncation_index`.  For
    minimal-term truncation `error_estimate` is the magnitude of the first
    omitted term, kept from the moment it arrived; for convergence it is
    the fixed threshold 10^-(dps+5) itself; when `max_terms` was hit it is
    the magnitude of the last generated term at or above the threshold (an
    exact zero in last place says nothing about the tail).  `trace` is
    None unless requested; then it covers every generated term, including
    the ones past the truncation point that triggered the stop.  The
    engine also leaves the exact partial sum in `_sum`, as (man, exp) pieces
    with the partial sum's first.
    """


class NonFiniteTermError(ArithmeticError):
    """A term generator produced a NaN or infinity; `index` is the term
    index at fault."""

    def __init__(self, index: int):
        super().__init__(f"non-finite term at index {index}")
        self.index = index


_FAR = 1 << 16  # a term whose top bit is further from the threshold's is kept apart


class _Far:
    """The magnitude man 2^exp of a term kept apart: below the threshold if
    tiny, above every term near it if huge, and compared exactly to a huge one."""

    def __init__(self, man: int, exp: int, huge: bool):
        self.man, self.exp, self.huge = man, exp, huge

    def __lshift__(self, shift):  # a rescale leaves it as it is
        return self

    def __gt__(self, other):  # other < self, for an int at the scale
        return self.huge

    def __lt__(self, other):
        if not isinstance(other, _Far):
            return not self.huge
        top, other_top = self.exp + self.man.bit_length(), other.exp + other.man.bit_length()
        if top != other_top:
            return top < other_top
        low = min(self.exp, other.exp)
        return self.man << self.exp - low < other.man << other.exp - low


def _lead(pieces: list, i: int, g: int) -> tuple[int, int, int]:
    """Sum pieces[i:j] exactly, stopping at the first j whose rest is below
    2^(exp - g) of the sum so far: (man, exp, j).  The pieces are (man, exp),
    nonzero, by top bit descending, so no shift exceeds a piece's width + g + 64."""
    man = exp = 0
    for j in range(i, len(pieces)):
        m, e = pieces[j]
        if man and e + m.bit_length() + (len(pieces) - j).bit_length() <= exp - g:
            return man, exp, j
        if not man:
            man, exp = m, e
        elif e < exp:
            man, exp = (man << exp - e) + m, e
        else:
            man += m << e - exp
    return man, exp, len(pieces)


def _rounded(pieces: list, prec: int, rnd: str) -> tuple:
    """The exact sum of the (man, exp) pieces, rounded once.  Past the
    leading sum the rest counts only by its sign, a sticky bit below it."""
    if len(pieces) == 1:
        return from_man_exp(*pieces[0], prec, rnd)
    pieces = sorted((p for p in pieces if p[0]), key=lambda p: -p[1] - p[0].bit_length())
    g = prec + 3
    man, exp, j = _lead(pieces, 0, g)
    if j < len(pieces):
        rest = _lead(pieces, j, 0)[0]
        man, exp = (man << g + 1) + (rest > 0) - (rest < 0), exp - g - 1
    return from_man_exp(man, exp, prec, rnd)


@lru_cache(maxsize=16)  # a few precisions at a time, as the value table keeps
def _threshold(dps: int, prec: int, rnd: str) -> tuple:
    """10^-(dps+5) at prec bits, the convergence threshold, as a raw mpf."""
    return mpf_pow_int(from_int(10), -(dps + 5), prec, rnd)


def sum_semiconvergent(
    terms: Iterable,
    *,
    start: int = 0,
    max_terms: int = 64,
    trace: bool = False,
) -> SemiConvergentResult:
    """Sum an indexed series (term k = start, start+1, ...) with
    minimal-term truncation, as described in the module docstring.

    `terms` may yield an int, an mpf or a pair (man, exp) of ints for man 2^exp,
    each taken exactly, or anything else `to_mpf` accepts (a Fraction, say),
    rounded once by `to_mpf`; any other tuple is a TypeError naming its index.
    The generator is consumed at most `max_terms` times and must be fresh
    (not shared between calls).
    """
    _check_int("max_terms", max_terms, 2)
    prec, rnd = mp._prec_rounding
    make = mp.make_mpf
    # the partial sum, the threshold and every magnitude are ints times 2^scale,
    # with scale the smallest exponent seen; a term with its top bit outside
    # (low, high] is kept apart in far, so the ints stay within 2 _FAR bits
    _, small, scale, bc = _threshold(mp.dps, prec, rnd)
    low, high = scale + bc - _FAR, scale + bc + _FAR
    partial, far = 0, []  # the exact sum is partial 2^scale plus the far (man, exp)
    records: list[TraceRecord] | None = [] if trace else None
    min_mag = prev_mag = None
    cut = None  # (k - 1, partial sum before term k, far terms before it, |term k|, their scale)
    seen_descent = False
    growth_sightings = consecutive_small = 0
    reason: TerminationReason = "max_terms"  # also when the generator runs dry

    k = start - 1
    for raw in terms:
        k += 1
        if not isinstance(raw, tuple):  # as the pair (man, exp) of its value man 2^exp
            sign, man, exp, bc = (raw._mpf_ if isinstance(raw, mpf) else from_int(raw)
                                  if isinstance(raw, int) else to_mpf(raw)._mpf_)
            if bc < 0:  # NaN and the infinities
                raise NonFiniteTermError(k)
            raw = -man if sign else man, exp
        elif len(raw) != 2 or type(raw[0]) is not int or type(raw[1]) is not int:
            raise TypeError(f"term {k}: a tuple term is (man, exp), two ints; got {raw!r}")
        man, exp = raw if raw[0] else (0, 0)  # a zero's exponent is 0, as mpmath's
        bc = abs(man).bit_length()
        before, nfar = partial, len(far)
        if low < exp + bc <= high or not man:
            if exp < scale:  # zero's exponent is 0, never below the threshold's
                shift, scale = scale - exp, exp
                before = partial = partial << shift
                small, min_mag = small << shift, min_mag and min_mag << shift
                prev_mag = prev_mag and prev_mag << shift
            term = man << exp - scale
            partial += term
            mag = abs(term)
        else:
            far.append((man, exp))
            mag = _Far(abs(man), exp, exp + bc > high)
        if records is not None:
            records.append(TraceRecord(k, make(from_man_exp(man, exp, prec, rnd)),
                                       make(_rounded([(partial, scale), *far], prec, rnd))))
        if mag < small:
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
                cut = (k - 1, before, nfar, mag, scale)
            prev_mag = mag
            if growth_sightings >= 2:
                reason = "minimal_term"
                break
        if k - start + 1 >= max_terms:
            break

    if k < start:
        raise ValueError("term generator produced no terms")
    nfar = len(far)
    if reason == "minimal_term":
        index, partial, nfar, mag, scale = cut
    elif reason == "converged":
        index, mag = k, small
    else:  # prev_mag is the magnitude of the last term at or above threshold
        index, mag = k, mag if prev_mag is None else prev_mag
    pieces = [(partial, scale), *far[:nfar]]
    result = SemiConvergentResult(
        make(_rounded(pieces, prec, rnd)),
        make(from_man_exp(*(mag.man, mag.exp) if isinstance(mag, _Far) else (mag, scale), prec, rnd)),
        index, reason, None if records is None else tuple(records))
    result._sum = pieces
    return result
