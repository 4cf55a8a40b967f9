"""Independent numerical ground truth for the coefficient series.

Four pieces, none of which touches the Stirling/Bernoulli coefficient
series (the Bernoulli numbers from `exact` are the only shared numerics, so
agreement between the two routes is meaningful evidence; every entry point
takes a and lam through the series' own boundary, `coefficients.CoefficientQuery`).
The last is read off the second's jet, so it is a second view of that
reference, not a check of it:

* `hurwitz_zeta`, `lerch_phi` - zeta(s, a), s != 1, by Euler-Maclaurin and
  Phi(lam, s, a), |lam| < 1, by direct summation: the one-node case of
  `_hurwitz_at` and `_lerch_at`, which evaluate a whole contour pass.
* `taylor_coefficients` - the Taylor coefficients at s = 0 for all
  n <= n_max in one pass: Euler-Maclaurin run in truncated power-series
  arithmetic in s (F. Johansson, Numer. Algorithms 69 (2015),
  arXiv:1309.2877) for Hurwitz/Riemann, the convergent log-power sum for
  Lerch with |lam| < 1, each power stopped by its own tail bound, and the
  duplication formula at lam = -1.  No c_n depends on n_max, so the jets
  are kept: at most 16, keyed (family, a, lam, digits), least recently
  used out, under `exact.LOCK` like every entry point's precision; a call
  within a kept jet gets a copy of its prefix.  This is the reference
  behind `coeff --verify`.
* `taylor_coefficients_contour` - the paper's cross-check: coefficients
  extracted by the trapezoidal rule on a circle |s| = r < 1 (the pole at
  s = 1 stays outside).  The rule converges geometrically in the node
  count; the reported error estimate is the change when the node count is
  doubled.
* `log_gamma_ref` - log Gamma by Lerch's formula (DLMF 25.11.18),
  log Gamma(a) = zeta'(0, a) + log(2 pi)/2, with zeta'(0, a) the c_1 of
  the kept Hurwitz jet of `taylor_coefficients`; it is independent of the
  series in `coefficients.log_gamma_series`, but not of the jet.

All evaluations run with 10 guard digits over the requested precision and
reduce sums in a fixed order, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from fractions import Fraction
from math import factorial
from typing import NamedTuple

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import (fone, from_int, fzero, mpf_abs, mpf_add, mpf_cmp, mpf_div, mpf_log,
                          mpf_lt, mpf_mul, mpf_neg, mpf_sub)

from .coefficients import CoefficientQuery
from .exact import bernoulli_number, kept
from .summation import to_mpf, working_precision

__all__ = [
    "OracleConfig",
    "OracleValue",
    "hurwitz_zeta",
    "lerch_phi",
    "taylor_coefficients",
    "taylor_coefficients_contour",
    "log_gamma_ref",
]

_GUARD_DPS = 10
_LERCH_TERMS = 300_000  # the most terms of a direct Lerch sum; lam = 999/1000 needs 257,761 at 100 digits


class OracleConfig(namedtuple("OracleConfig", "em_cutoff em_order contour_radius contour_points",
                              defaults=(Fraction(1, 2), 256))):
    """Tuning knobs for the reference evaluations.

    em_cutoff N and em_order J control Euler-Maclaurin; contour_radius r
    (0 < r < 1) and contour_points M (a power of two >= 32) control the
    coefficient extraction.  `for_digits` sizes everything so the first
    omitted Euler-Maclaurin correction and the contour aliasing error are
    below 10^-(digits+5).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.em_cutoff < 4:
            raise ValueError("em_cutoff must be at least 4")
        if self.em_order < 2:
            raise ValueError("em_order must be at least 2")
        if not 0 < self.contour_radius < 1:
            raise ValueError("contour_radius must lie in (0, 1)")
        m = self.contour_points
        if m < 32 or m & (m - 1):
            raise ValueError("contour_points must be a power of two >= 32")
        return self

    @classmethod
    def for_digits(cls, digits: int) -> "OracleConfig":
        needed = math.ceil((digits + 5) / -math.log10(float(cls._field_defaults["contour_radius"])))
        points = 1 << max(5, (needed - 1).bit_length())  # a power of two >= 32
        return cls(em_cutoff=digits + 10, em_order=digits // 2 + 10, contour_points=points)


class OracleValue(NamedTuple):
    value: mpf
    error_estimate: mpf


def hurwitz_zeta(s, a, cfg: OracleConfig | None = None, *, digits: int = 50) -> mpc:
    """zeta(s, a) for complex s != 1, a > 0: `_hurwitz_at` at the one node s.
    An inexact a is rounded once at `digits`, as on every other route."""
    q = CoefficientQuery("hurwitz", 0, a, None, digits)
    with working_precision(digits + _GUARD_DPS):
        s = mpmath.mpmathify(s)
        if s == 1:
            raise ValueError("zeta(s, a) has a pole at s = 1")
        return _hurwitz_at([s], to_mpf(q.a), cfg or OracleConfig.for_digits(digits))[0]


def _hurwitz_at(nodes: list, av, cfg: OracleConfig) -> list:
    """zeta(s, a) at every node s != 1 by Euler-Maclaurin, (s)_m the rising
    factorial; at negative integer s the corrections terminate:

        sum_{m<N} (m+a)^-s + (N+a)^-s [(N+a)/(s-1) + 1/2
                                       + sum_{j=1}^{J} B_{2j}/(2j)! (N+a)^(1-2j) (s)_{2j-1}]

    The logs, with 10 guard bits (an error in one is the same at every node, so
    the contour does not average it out), and the weights are computed once."""
    edge = av + cfg.em_cutoff
    logs = [mpmath.ln(av + m, prec=mp.prec + 10) for m in range(cfg.em_cutoff + 1)]
    weights = [to_mpf(bernoulli_number(2 * j) / factorial(2 * j)) * edge ** (1 - 2 * j)
               for j in range(1, cfg.em_order + 1)]
    out = []
    for s in nodes:
        tail, rising = mpf(0.5), s  # apart from the large (N+a)/(s-1); rising = (s)_(2j-1)
        for j, w in enumerate(weights, 1):
            tail += w * rising
            rising *= (s + 2 * j - 1) * (s + 2 * j)
        *head, edge_power = [mpmath.exp(-s * x) for x in logs]
        out.append(sum(head, mpc(0)) + edge_power * (edge / (s - 1) + tail))
    return out


def _decaying(lam) -> mpf:
    """lam at working precision, refused unless |lam|^m, which a direct
    Lerch sum must bring below 10^-(dps+2), gets there by m = _LERCH_TERMS."""
    lamv = to_mpf(lam)
    if -mpmath.log(abs(lamv)) * _LERCH_TERMS < (mp.dps + 2) * mpmath.ln10:
        raise ValueError(f"lambda={lam}: a direct Lerch sum needs |lambda| < 1 and <= {_LERCH_TERMS} terms")
    return lamv


def lerch_phi(lam, s, a, *, digits: int = 50) -> mpc:
    """Phi(lam, s, a) for real |lam| < 1 strictly, a > 0 and any complex s:
    `_lerch_at` at the one node s.  An inexact a or lam is rounded once at
    `digits`, as on every other route."""
    q = CoefficientQuery("lerch", 0, a, lam, digits)
    with working_precision(digits + _GUARD_DPS):
        return _lerch_at([mpmath.mpmathify(s)], _decaying(q.lam), to_mpf(q.a))[0]


def _lerch_at(nodes: list, lamv, av) -> list:
    """Phi(lam, s, a) = sum_{m<K} lam^m (m+a)^-s at every node s, from one
    list of (lam^m, log(m+a)).  For m >= 1, m + a > 1, so every node's term m
    is below U_m = |lam|^m (m+a)^sigma, sigma = max(0, max -Re s), and
    U_(m+1)/U_m <= q = |lam| (1 + 1/(m+a))^sigma falls with m; K is the first
    m >= 1 with q < 1 and the tail bound U_m / (1 - q) below 10^-(dps+2)."""
    sigma = max([mpf(0)] + [-mpmath.re(s) for s in nodes])
    eps, terms, pw, m = mpf(10) ** (-(mp.dps + 2)), [], mpf(1), 0
    while True:
        terms.append((pw, mpmath.ln(av + m, prec=mp.prec + 10)))
        m, pw = m + 1, pw * lamv
        q = abs(lamv) * (1 + 1 / (av + m)) ** sigma
        if q < 1 and abs(pw) * (av + m) ** sigma < eps * (1 - q):
            break
    return [sum((w * mpmath.exp(-s * x) for w, x in terms), mpc(0)) for s in nodes]


def _power_jet(log_x, n_max: int) -> list:
    """Taylor coefficients in s of x^-s = exp(-s log x): (-log x)^k / k!,
    k = 0..n_max, from the raw mpf log x, as raw mpf values."""
    prec, rnd = mp._prec_rounding
    neg, jet = mpf_neg(log_x), [fone]
    for k in range(1, n_max + 1):
        jet.append(mpf_div(mpf_mul(jet[-1], neg, prec, rnd), from_int(k), prec, rnd))
    return jet


def _times(f: list, g: list) -> list:
    """Product of two jets of equal length, truncated to that length."""
    return [sum((f[i] * g[k - i] for i in range(k + 1)), mpf(0)) for k in range(len(f))]


def _hurwitz_jet(n_max: int, av, cfg: OracleConfig) -> tuple[list, list]:
    """(coefficients, truncation bounds) of zeta(s, a) through s^n_max:
    the Euler-Maclaurin formula of `hurwitz_zeta` with every term a jet.

    (m+a)^-s is `_power_jet`, summed over m < N on raw mpf values;
    (N+a)^(1-s)/(s-1) = -(N+a) (N+a)^-s / (1-s) is -(N+a) times the prefix
    sums of the (N+a)^-s jet; each correction multiplies B_2j/(2j)!
    (N+a)^(1-2j) by the rising factorial (s)_(2j-1), kept as an exact
    integer jet, and by the (N+a)^-s jet.  The bound is the first omitted
    correction (j = J + 1) with every factor taken in absolute value."""
    size = n_max + 1
    prec, rnd = mp._prec_rounding
    head = [fzero] * size
    for m in range(cfg.em_cutoff):
        x = mpf_add(av._mpf_, from_int(m), prec, rnd)
        for k, e in enumerate(_power_jet(mpf_log(x, prec, rnd), n_max)):
            head[k] = mpf_add(head[k], e, prec, rnd)
    total = [mp.make_mpf(t) for t in head]
    edge = av + cfg.em_cutoff
    edge_jet = [mp.make_mpf(e) for e in _power_jet(mpmath.log(edge)._mpf_, n_max)]
    prefix = mpf(0)
    for k in range(size):
        prefix += edge_jet[k]
        total[k] += edge_jet[k] / 2 - edge * prefix
    rising = [1] + [0] * n_max  # (s)_0 = 1
    built = 0
    weight = [mpf(0)] * size  # sum_j B_2j/(2j)! (N+a)^(1-2j) (s)_(2j-1)
    scale = edge
    inv_edge2 = 1 / (edge * edge)
    for j in range(1, cfg.em_order + 2):
        while built < 2 * j - 1:  # (s)_(t+1) = (s)_t * (s + t)
            rising = [built * rising[0]] + [
                rising[k - 1] + built * rising[k] for k in range(1, size)
            ]
            built += 1
        scale *= inv_edge2
        w = to_mpf(bernoulli_number(2 * j) / factorial(2 * j)) * scale
        if j <= cfg.em_order:
            for k in range(size):
                weight[k] += w * rising[k]
    omitted = [abs(w) * c for c in rising]  # rising has no negative entry
    values = [t + c for t, c in zip(total, _times(weight, edge_jet))]
    return values, _times(omitted, [abs(e) for e in edge_jet])


def _lerch_jet(n_max: int, lamv, av) -> tuple[list, list]:
    """(coefficients, tail bounds) of Phi(lam, s, a) = sum_m lam^m (m+a)^-s
    through s^n_max, for |lam| < 1: c_k = (-1)^k S_k / k! with the power
    sums S_k = sum_m lam^m log(m+a)^k, accumulated on raw mpf values.

    From m + a >= 3 on, every later term of S_k is below
    U_m = |lam|^m log(m+a)^k, and U_(m+1)/U_m is at most
    q = |lam| (log(m+a) / log(m+a-1))^k (log(x+1)/log(x) falls for x > 1),
    so the tail after term m is below U_m q / (1 - q).  Each S_k stops at
    the first m where its own tail is under 10^-(working digits + 2), so
    neither c_k nor its bound depends on n_max.  That tail grows with k, so
    the stopped S_k are always S_0 .. S_(done-1)."""
    prec, rnd = mp._prec_rounding
    eps = (mpf(10) ** (-(mp.dps + 2)))._mpf_
    sums, tails = [fzero] * (n_max + 1), [fzero] * (n_max + 1)
    done, pw, m, log_prev = 0, fone, 0, None  # pw = lam^m
    while done <= n_max and pw != fzero:  # pw = 0: lam = 0 or lam^m underflowed, tails 0
        x = mpf_add(av._mpf_, from_int(m), prec, rnd)
        log_x = mpf_log(x, prec, rnd)
        powers = [pw]  # lam^m log(m+a)^k
        for k in range(n_max):
            powers.append(mpf_mul(powers[-1], log_x, prec, rnd))
        for k in range(done, n_max + 1):
            sums[k] = mpf_add(sums[k], powers[k], prec, rnd)
        if log_prev is not None and mpf_cmp(x, from_int(3)) >= 0:
            ratio, q = mpf_div(log_x, log_prev, prec, rnd), mpf_abs(lamv._mpf_)
            for k in range(done):
                q = mpf_mul(q, ratio, prec, rnd)
            while done <= n_max and mpf_lt(q, fone):
                tail = mpf_div(mpf_mul(mpf_abs(powers[done]), q, prec, rnd),
                               mpf_sub(fone, q, prec, rnd), prec, rnd)
                if not mpf_lt(tail, eps):
                    break
                tails[done], done = tail, done + 1
                q = mpf_mul(q, ratio, prec, rnd)
        log_prev, m, pw = log_x, m + 1, mpf_mul(pw, lamv._mpf_, prec, rnd)
    values = [mpf_div(t, from_int(factorial(k)), prec, rnd) for k, t in enumerate(sums)]
    return ([mp.make_mpf(mpf_neg(c) if k % 2 else c) for k, c in enumerate(values)],
            [mp.make_mpf(t) for t in tails])


# The kept jets of the module docstring, each the longest asked for so far.
_JETS = 16
_jets: OrderedDict = OrderedDict()


def taylor_coefficients(
    family: str, n_max: int, a, lam=None, *, digits: int = 50
) -> list[OracleValue]:
    """Taylor coefficients c_0..c_n_max at s = 0 of zeta(s, a) (family
    "hurwitz", or "riemann" with a = 1) or Phi(lam, s, a) (family "lerch",
    -1 <= lam < 1), from the kept jet of (family, a, lam, digits) or from
    one pass at digits + 10 working digits, which is then kept.

    Lerch at lam = -1 uses Phi(-1, s, a) = 2^-s [zeta(s, a/2) -
    zeta(s, (a+1)/2)].  Each error estimate is the truncation bound (first
    omitted correction or tail) plus the floor 10^-(digits+2) (1 + |c_n|).
    """
    q = CoefficientQuery(family, n_max, a, lam, digits)
    with working_precision(digits + _GUARD_DPS):
        jet = kept(_jets, (family, q.a, q.lam, digits), _JETS, list)
        if len(jet) <= n_max:
            jet[:] = _jet(family, n_max, q.a, q.lam, digits)
        return jet[: n_max + 1]


def _jet(family: str, n_max: int, a, lam, digits: int) -> list[OracleValue]:
    cfg = OracleConfig.for_digits(digits)
    av = to_mpf(a)
    if family != "lerch":
        values, bounds = _hurwitz_jet(n_max, av, cfg)
    elif lam == -1:
        upper, upper_bound = _hurwitz_jet(n_max, av / 2, cfg)
        lower, lower_bound = _hurwitz_jet(n_max, (av + 1) / 2, cfg)
        two = [mp.make_mpf(t) for t in _power_jet(mpmath.log(2)._mpf_, n_max)]
        values = _times(two, [u - v for u, v in zip(upper, lower)])
        bounds = _times([abs(t) for t in two],
                        [u + v for u, v in zip(upper_bound, lower_bound)])
    else:
        values, bounds = _lerch_jet(n_max, _decaying(lam), av)
    unit = mpf(10) ** (-(digits + 2))
    return [OracleValue(v, b + unit * (1 + abs(v))) for v, b in zip(values, bounds)]


def taylor_coefficients_contour(
    family: str,
    n_max: int,
    a,
    lam=None,
    cfg: OracleConfig | None = None,
    *,
    digits: int = 50,
) -> list[OracleValue]:
    """Taylor coefficients c_0..c_n_max at s = 0 of zeta(s, a) (family
    "hurwitz" or "riemann") or Phi(lam, s, a) (family "lerch", |lam| < 1),
    via the trapezoidal rule on |s| = r:

        c_n ~ (1/M) sum_j F(r e^(2 pi i j / M)) e^(-2 pi i j n / M) / r^n

    One pass evaluates F at the 2M nodes r e^(2 pi i j / 2M): the M + 1
    with j <= M in one evaluator call, the rest as their conjugates.  Each n
    turns the values by the conjugate node angles once more; each error
    estimate is the change from M to 2M nodes, plus a rounding floor.
    """
    q = CoefficientQuery(family, n_max, a, lam, digits)
    cfg = cfg or OracleConfig.for_digits(digits)
    M = cfg.contour_points
    two_m = 2 * M
    with working_precision(digits + _GUARD_DPS):
        r, av = to_mpf(Fraction(cfg.contour_radius)), to_mpf(q.a)
        units = [mpmath.expjpi(mpf(j) / M) for j in range(M + 1)]  # e^(2 pi i j / 2M)
        units += [mpmath.conj(units[two_m - j]) for j in range(M + 1, two_m)]
        nodes = [r * u for u in units[: M + 1]]
        upper = (_lerch_at(nodes, _decaying(q.lam), av) if family == "lerch"
                 else _hurwitz_at(nodes, av, cfg))
        values = upper + [mpmath.conj(upper[two_m - j]) for j in range(M + 1, two_m)]
        out = []
        for n in range(n_max + 1):  # values[j] is F(node j) e^(-2 pi i j n / 2M)
            rn = r**n
            fine = sum(values, mpc(0)) / (two_m * rn)
            coarse = sum(values[::2], mpc(0)) / (M * rn)
            floor = mpf(10) ** (-(digits + 2)) * (1 + abs(fine))
            out.append(OracleValue(fine.real, abs(fine - coarse) + floor))
            values = [v * mpmath.conj(u) for v, u in zip(values, units)]
        return out


def log_gamma_ref(a, *, digits: int = 50) -> mpf:
    """log Gamma(a) for a > 0 by Lerch's formula, at digits + 10 working
    digits: zeta'(0, a), the c_1 of the kept Hurwitz jet, plus log(2 pi)/2."""
    c1 = taylor_coefficients("hurwitz", 1, a, digits=digits)[1].value
    with working_precision(digits + _GUARD_DPS):
        return c1 + mpmath.log(2 * mpmath.pi) / 2
