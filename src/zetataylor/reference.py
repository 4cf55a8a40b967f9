"""Independent numerical ground truth for the coefficient series.

Four pieces, none of which touches the Stirling/Bernoulli coefficient
series (the Bernoulli numbers from `exact` are the only shared code, so
agreement between the two routes is meaningful evidence):

* `hurwitz_zeta` - Euler-Maclaurin evaluation of zeta(s, a) for complex
  s != 1, precision-controlled by the cutoff N and correction order J.
* `lerch_phi` - direct summation of Phi(lam, s, a) for |lam| < 1, where
  geometric decay converges for every s.
* `taylor_coefficient_contour` - Taylor coefficients at s = 0 extracted by
  the trapezoidal rule on a circle |s| = r < 1 (the pole at s = 1 stays
  outside).  The rule converges geometrically in the node count; the
  reported error estimate is the change when the node count is doubled.
* `log_gamma_ref` - log Gamma by argument raising into the large-argument
  Stirling regime, independent of the small-argument series in
  `coefficients.log_gamma_series`.

All evaluations run with 10 guard digits over the requested precision and
reduce sums in a fixed order, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

import mpmath
from mpmath import mpc, mpf, workdps

from .exact import bernoulli_number
from .summation import to_mpf

__all__ = [
    "OracleConfig",
    "OracleValue",
    "hurwitz_zeta",
    "lerch_phi",
    "taylor_coefficient_contour",
    "log_gamma_ref",
]

_GUARD_DPS = 10


def _next_pow2(n: int) -> int:
    m = 32
    while m < n:
        m *= 2
    return m


@dataclass(frozen=True)
class OracleConfig:
    """Tuning knobs for the reference evaluations.

    em_cutoff N and em_order J control Euler-Maclaurin; contour_radius r
    (0 < r < 1) and contour_points M (a power of two >= 32) control the
    coefficient extraction.  `for_digits` sizes everything so the first
    omitted Euler-Maclaurin correction and the contour aliasing error are
    below 10^-(digits+5).
    """

    em_cutoff: int
    em_order: int
    contour_radius: Fraction = Fraction(1, 2)
    contour_points: int = 256

    def __post_init__(self):
        if self.em_cutoff < 4:
            raise ValueError("em_cutoff must be at least 4")
        if self.em_order < 2:
            raise ValueError("em_order must be at least 2")
        if not 0 < self.contour_radius < 1:
            raise ValueError("contour_radius must lie in (0, 1)")
        m = self.contour_points
        if m < 32 or m & (m - 1):
            raise ValueError("contour_points must be a power of two >= 32")

    @classmethod
    def for_digits(cls, digits: int, radius: Fraction = Fraction(1, 2)) -> "OracleConfig":
        needed = math.ceil((digits + 5) / -math.log10(float(radius)))
        return cls(
            em_cutoff=digits + 10,
            em_order=digits // 2 + 10,
            contour_radius=radius,
            contour_points=_next_pow2(needed),
        )


class OracleValue(NamedTuple):
    value: mpf
    error_estimate: mpf


def hurwitz_zeta(s, a, cfg: OracleConfig | None = None, *, digits: int = 50) -> mpc:
    """zeta(s, a) for complex s != 1, a > 0, by Euler-Maclaurin:

        sum_{m<N} (m+a)^-s + (N+a)^(1-s)/(s-1) + (N+a)^-s / 2
        + sum_{j=1}^{J} B_{2j}/(2j)! * (s)_{2j-1} * (N+a)^(-s-2j+1)

    with (s)_m the rising factorial.  At negative integer s the corrections
    terminate and the value is exact up to rounding.
    """
    if cfg is None:
        cfg = OracleConfig.for_digits(digits)
    with workdps(digits + _GUARD_DPS):
        s = mpmath.mpmathify(s)
        av = to_mpf(a)
        if not av > 0:
            raise ValueError("a must be positive")
        if s == 1:
            raise ValueError("zeta(s, a) has a pole at s = 1")
        total = mpc(0)
        for m in range(cfg.em_cutoff):
            total += mpmath.power(av + m, -s)
        edge = av + cfg.em_cutoff
        total += mpmath.power(edge, 1 - s) / (s - 1)
        total += mpmath.power(edge, -s) / 2
        rising = mpc(1)
        built = 0
        for j in range(1, cfg.em_order + 1):
            while built < 2 * j - 1:
                rising *= s + built
                built += 1
            w = to_mpf(bernoulli_number(2 * j) / factorial(2 * j))
            total += w * rising * mpmath.power(edge, -s - 2 * j + 1)
        return total


def lerch_phi(lam, s, a, *, digits: int = 50) -> mpc:
    """Phi(lam, s, a) = sum_n lam^n (n+a)^-s by direct summation,
    for real |lam| < 1 strictly (a > 0, any complex s)."""
    with workdps(digits + _GUARD_DPS):
        lamv = to_mpf(lam)
        if not abs(lamv) < 1:
            raise ValueError("direct summation requires |lambda| < 1")
        s = mpmath.mpmathify(s)
        av = to_mpf(a)
        if not av > 0:
            raise ValueError("a must be positive")
        sigma = -mpmath.re(s)  # power-factor growth exponent, if positive
        eps = mpf(10) ** (-(mpmath.mp.dps + 2))
        total = mpc(0)
        pw = mpf(1)  # lam^n
        n = 0
        while True:
            total += pw * mpmath.power(av + n, -s)
            n += 1
            pw *= lamv
            if pw == 0:
                break
            # geometric tail bound: once the per-term ratio q < 1, the
            # remainder is below |term| * q / (1 - q)
            q = abs(lamv)
            if sigma > 0:
                q *= (1 + 1 / (av + n)) ** sigma
            if q < 1:
                t = abs(pw) * mpmath.power(av + n, sigma) if sigma > 0 else abs(pw)
                if t * q / (1 - q) < eps:
                    break
            if n > 10_000_000:  # pragma: no cover - unreachable for |lam| < 1
                raise RuntimeError("lerch_phi failed to converge")
        return total


@lru_cache(maxsize=32)
def _contour_nodes(family: str, a_key, lam_key, radius: Fraction, M: int, digits: int):
    """F at the 2M contour nodes r*exp(2*pi*i*j/(2M)), j = 0..2M-1, where
    F is zeta(., a) or Phi(lam, ., a).  Conjugate symmetry halves the work;
    returned as a tuple in node order."""
    cfg = OracleConfig(
        em_cutoff=digits + 10,
        em_order=digits // 2 + 10,
        contour_radius=radius,
        contour_points=M,
    )
    with workdps(digits + _GUARD_DPS):
        r = to_mpf(radius)
        two_m = 2 * M
        upper = []
        for j in range(M + 1):
            node = r * mpmath.expjpi(mpf(2 * j) / two_m)
            if family == "lerch":
                upper.append(lerch_phi(lam_key, node, a_key, digits=digits))
            else:
                upper.append(hurwitz_zeta(node, a_key, cfg, digits=digits))
        lower = [mpmath.conj(upper[two_m - j]) for j in range(M + 1, two_m)]
        return tuple(upper + lower)


def taylor_coefficient_contour(
    family: str,
    n: int,
    a,
    lam=None,
    cfg: OracleConfig | None = None,
    *,
    digits: int = 50,
) -> OracleValue:
    """n-th Taylor coefficient at s = 0 of zeta(s, a) (family "hurwitz" or
    "riemann") or Phi(lam, s, a) (family "lerch", |lam| < 1), via the
    trapezoidal rule on |s| = r:

        c_n ~ (1/M) sum_j F(r e^(2 pi i j / M)) e^(-2 pi i j n / M) / r^n

    The error estimate is the change under doubling the node count, plus a
    rounding floor.  Node values are cached per (family, a, lam, radius,
    node count, digits), so extracting many n for one function is cheap.
    """
    if family not in ("hurwitz", "riemann", "lerch"):
        raise ValueError(f"unknown family {family!r}")
    if n < 0:
        raise ValueError("n must be non-negative")
    if family == "riemann" and a != 1:
        raise ValueError("the riemann family fixes a = 1")
    if cfg is None:
        cfg = OracleConfig.for_digits(digits)
    radius = (
        cfg.contour_radius
        if isinstance(cfg.contour_radius, Fraction)
        else Fraction(cfg.contour_radius)
    )
    lam_key = None
    if family == "lerch":
        if lam is None:
            raise ValueError("family lerch requires lam")
        lam_key = Fraction(lam) if isinstance(lam, (int, Fraction)) else to_mpf(lam)
    a_key = Fraction(a) if isinstance(a, (int, Fraction)) else to_mpf(a)
    M = cfg.contour_points
    values = _contour_nodes(family, a_key, lam_key, radius, M, digits)
    with workdps(digits + _GUARD_DPS):
        r = to_mpf(radius)
        two_m = 2 * M
        rn = r**n
        fine = mpc(0)
        for j in range(two_m):
            fine += values[j] * mpmath.expjpi(mpf(-2 * j * n) / two_m)
        fine /= two_m * rn
        coarse = mpc(0)
        for j in range(M):
            coarse += values[2 * j] * mpmath.expjpi(mpf(-2 * j * n) / M)
        coarse /= M * rn
        floor = mpf(10) ** (-(digits + 2)) * (1 + abs(fine))
        return OracleValue(fine.real, abs(fine - coarse) + floor)


def log_gamma_ref(a, *, digits: int = 50) -> mpf:
    """Reference log Gamma(a) for a > 0: raise the argument until the
    large-argument Stirling series reaches the target precision, then
    subtract the accumulated logs.

        log Gamma(a) = log Gamma(a + m) - sum_{j<m} log(a + j)
        log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2
                       + sum_j B_{2j} / ((2j)(2j-1) z^(2j-1))

    The Stirling tail at cutoff z decays to about e^(-2 pi z) at its
    minimal term, so z is sized from the digit target and the series is
    cut when the terms drop below it.
    """
    with workdps(digits + _GUARD_DPS):
        av = to_mpf(a)
        if not av > 0:
            raise ValueError("a must be positive")
        dps = mpmath.mp.dps
        z_min = int(0.37 * (dps + 8)) + 3
        shift = max(0, z_min - int(mpmath.floor(av)))
        z = av + shift
        lead = (z - mpf(0.5)) * mpmath.log(z) - z + mpmath.log(2 * mpmath.pi) / 2
        tol = mpf(10) ** (-(dps + 2))
        acc = mpf(0)
        zpow = z  # z^(2j-1)
        z2 = z * z
        prev = None
        j = 1
        while True:
            term = to_mpf(bernoulli_number(2 * j)) / ((2 * j) * (2 * j - 1) * zpow)
            if abs(term) < tol:
                break
            if prev is not None and abs(term) > prev:  # pragma: no cover
                raise RuntimeError("Stirling tail grew before reaching tolerance")
            acc += term
            prev = abs(term)
            zpow *= z2
            j += 1
        total = lead + acc
        for i in range(shift):
            total -= mpmath.log(av + i)
        return total
