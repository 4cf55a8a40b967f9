"""Arbitrary-precision plumbing and the summation engine for
semi-convergent (asymptotic) series.

The number type throughout is mpmath's mpf at the caller's working
precision (`mpmath.mp.dps`, in decimal digits).  Exact inputs (ints,
Fractions) are converted once, at the summation boundary, and each
conversion is correctly rounded.

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
error estimate conservative.  The loop runs on raw mpf tuples under these
rules, with mpf objects only for the result and a trace's per-term records.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Sequence

import mpmath
from mpmath import mp, mpf, workdps
from mpmath.libmp import (from_int, from_rational, fzero, mpf_abs, mpf_add, mpf_lt, mpf_mul,
                          mpf_pow_int, round_nearest)

from .exact import LOCK

__all__ = [
    "TraceRecord",
    "SemiConvergentResult",
    "NonFiniteTermError",
    "sum_semiconvergent",
    "eval_polynomial",
    "to_mpf",
]

TerminationReason = Literal["minimal_term", "converged", "max_terms"]


@contextmanager
def working_precision(digits: int):
    """Hold `exact.LOCK` and work at `digits` decimal digits: the one place
    zetataylor changes mpmath's process-wide precision."""
    with LOCK, workdps(digits):
        yield


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


def eval_polynomial(coeffs: Sequence, x) -> mpf:
    """Horner evaluation at working precision of a polynomial given by
    ascending coefficients (exact coefficients are converted at full
    precision), rounded as `acc * x + c` but on raw mpf values. Empty
    coefficient list evaluates to 0."""
    xv = to_mpf(x)._mpf_
    prec, rnd = mp._prec_rounding
    acc = fzero
    for c in reversed(coeffs):
        acc = mpf_add(mpf_mul(acc, xv, prec, rnd), to_mpf(c)._mpf_, prec, rnd)
    return mp.make_mpf(acc)


@dataclass(frozen=True)
class TraceRecord:
    """One row of a summation trace: term index, term value and the
    running partial sum after adding it."""

    k: int
    term: mpf
    partial_sum: mpf


@dataclass(frozen=True)
class SemiConvergentResult:
    """Outcome of a truncated summation.

    `value` is the partial sum through `truncation_index`.  For
    minimal-term truncation `error_estimate` is the magnitude of the first
    omitted term, kept from the moment it arrived; for convergence it is
    the fixed threshold 10^-(dps+5) itself; when `max_terms` was hit it is
    the magnitude of the last generated term at or above the threshold (an
    exact zero in last place says nothing about the tail).  `trace` is
    None unless requested; then it covers every generated term, including
    the ones past the truncation point that triggered the stop.
    """

    value: mpf
    error_estimate: mpf
    truncation_index: int
    terminated_by: TerminationReason
    trace: tuple[TraceRecord, ...] | None = None


class NonFiniteTermError(ArithmeticError):
    """A term generator produced a NaN or infinity; `index` is the term
    index at fault."""

    def __init__(self, index: int):
        super().__init__(f"non-finite term at index {index}")
        self.index = index


def sum_semiconvergent(
    terms: Iterable,
    *,
    start: int = 0,
    max_terms: int = 64,
    trace: bool = False,
) -> SemiConvergentResult:
    """Sum an indexed series (term k = start, start+1, ...) with
    minimal-term truncation, as described in the module docstring.

    `terms` may yield anything `to_mpf` accepts, so exact generators can
    yield Fractions directly.  The generator is consumed at most
    `max_terms` times and must be fresh (not shared between calls).
    """
    _check_int("max_terms", max_terms, 2)
    prec, rnd = mp._prec_rounding
    threshold = mpf_pow_int(from_int(10), -(mp.dps + 5), prec, rnd)
    records: list[TraceRecord] | None = [] if trace else None
    partial = fzero
    min_mag = prev_mag = None
    cut = None  # (k - 1, partial sum before term k, |term k|)
    seen_descent = False
    growth_sightings = consecutive_small = 0
    reason: TerminationReason = "max_terms"  # also when the generator runs dry

    k = start - 1
    for raw in terms:
        k += 1
        # a term already at working precision needs no rounding
        term = raw._mpf_ if isinstance(raw, mpf) and raw._mpf_[3] <= prec else to_mpf(raw)._mpf_
        if not term[1] and term != fzero:  # NaN and the infinities have mantissa 0
            raise NonFiniteTermError(k)
        before, partial = partial, mpf_add(partial, term, prec, rnd)
        if records is not None:
            records.append(TraceRecord(k, mp.make_mpf(term), mp.make_mpf(partial)))
        mag = mpf_abs(term)
        if mpf_lt(mag, threshold):
            consecutive_small += 1
            if consecutive_small >= 2:
                reason = "converged"
                break
        else:
            consecutive_small = 0
            if prev_mag is not None:
                if mpf_lt(mag, prev_mag):
                    seen_descent = True
                elif seen_descent:
                    growth_sightings += 1
            if min_mag is None or mpf_lt(mag, min_mag):
                min_mag, cut = mag, None
            elif cut is None:
                cut = (k - 1, before, mag)
            prev_mag = mag
            if growth_sightings >= 2:
                reason = "minimal_term"
                break
        if k - start + 1 >= max_terms:
            break

    if k < start:
        raise ValueError("term generator produced no terms")
    kept = None if records is None else tuple(records)
    if reason == "minimal_term":
        index, value, estimate = cut
    elif reason == "converged":
        index, value, estimate = k, partial, threshold
    else:  # prev_mag is the magnitude of the last term at or above threshold
        index, value, estimate = k, partial, mag if prev_mag is None else prev_mag
    return SemiConvergentResult(mp.make_mpf(value), mp.make_mpf(estimate), index, reason, kept)
