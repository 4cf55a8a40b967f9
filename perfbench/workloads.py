"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
operations in the same order, and the program under test receives only the
generated inputs.  An operation is a JSON-serialisable dict, so the worker
process that runs it and the parent that checks it see identical inputs.
Numbers are encoded as follows:

* a rational is the string "p/q" (or "p");
* an mpf input is {"mpf": <float>}; a Python float converts to mpf exactly,
  so both sides rebuild the same dyadic value.

Operations come in blocks.  A block holds every stratum of the properties
that set an operation's cost or accuracy in fixed proportion: family and
digits, the size of a (log a is cut into as many equal slices as the block
has draws of a, one draw per slice), n, and the size of lambda.  Values
within a stratum are random.  A run measures a fixed number of whole
blocks, so every run and every seed measures the same mix, which keeps
run-to-run spread small without fixing the inputs themselves.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate, count, product
from typing import Iterator

WORKLOADS = {
    "series_mix": "warm in-process coefficient calls: exact tables, term generation and summation; no reference",
    "crosscheck": "in-process `coeff --verify` sessions: the contour reference dominates; node cache misses then hits",
    "cli_cold": "fresh `python -m zetataylor` processes: start-up, import, cold table growth and output formatting",
}

# Seconds one block takes at the commit that defined the benchmark (2-CPU
# x86-64 machine, Python 3.11, pure-Python mpmath).  A run of S seconds
# measures round(S / BLOCK_SECONDS) whole blocks, so every run of a
# workload at a given S measures the same amount of work.  The cli_cold
# block takes about 3.3 s but is counted as 4.0, so that the runs of all
# three workloads fit the benchmark's time.  A crosscheck block takes about
# 7.5 s; 4.0 gives five blocks at S = 20.
# Their 22 cold calls outnumber the ten beyond op_tail_ms, and the 14 that
# take over 1.5 s put op_tail_ms inside that group rather than at its edge.
BLOCK_SECONDS = {"series_mix": 0.33, "crosscheck": 4.0, "cli_cold": 4.0}

A_LOW, A_HIGH = Fraction(1, 10), Fraction(4)
MAX_Q = 12
MAX_N = 6
DEFAULT_MAX_TERMS = 64


def blocks_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


def rng_for(workload: str, seed: int) -> random.Random:
    # a str seed is hashed with sha512, so it is the same in every process
    return random.Random(f"{workload}:{seed}")


def shuffled(rng: random.Random, items, times: int = 1) -> list:
    out = list(items) * times
    rng.shuffle(out)
    return out


def in_blocks(block) -> Iterator[dict]:
    """Ops of block(0), block(1), ..., each tagged with its block number;
    the last op of a block carries "block_end": True."""
    for b in count():
        ops = list(block(b))
        for op in ops:
            op["block"] = b
        ops[-1]["block_end"] = True
        yield from ops


def rational_near(rng: random.Random, x: float, lo: Fraction, hi: Fraction) -> Fraction:
    """The p/q closest to x for a random q <= MAX_Q, clamped to [lo, hi];
    q is drawn again while [lo, hi] holds no p/q."""
    while True:
        q = rng.randint(1, MAX_Q)
        p_lo, p_hi = math.ceil(lo * q), math.floor(hi * q)
        if p_lo <= p_hi:
            return Fraction(min(max(round(x * q), p_lo), p_hi), q)


def a_slices(rng: random.Random, slices: int, *, mpf_share: float = 0.0, avoid=None) -> list:
    """One shift a from each of `slices` equal slices of log a over
    [1/10, 4], in random order: a p/q other than `avoid`, or with
    probability `mpf_share` an mpf (returned as the float it is built from)."""
    span = math.log(A_HIGH / A_LOW)
    out = []
    for s in shuffled(rng, range(slices)):
        x = float(A_LOW) * math.exp((s + rng.random()) / slices * span)
        if rng.random() < mpf_share:
            out.append(x)
            continue
        a = rational_near(rng, x, A_LOW, A_HIGH)
        if a == avoid:  # step to the nearest p/12 on x's side
            a += Fraction(1 if x >= avoid else -1, MAX_Q)
        out.append(a)
    return out


# every p/q with q <= MAX_Q in [A_LOW, A_HIGH]
A_RATIONALS = sorted({Fraction(p, q) for q in range(1, MAX_Q + 1)
                      for p in range(math.ceil(A_LOW * q), math.floor(A_HIGH * q) + 1)})


def draw_rational(rng: random.Random, low: Fraction, high: Fraction) -> Fraction:
    """A p/q near a uniform draw from [low, high]."""
    return rational_near(rng, rng.uniform(float(low), float(high)), low, high)


def encode(x) -> str | dict:
    if isinstance(x, float):
        return {"mpf": x}
    return str(Fraction(x))


def decode(x, mpf):
    """Inverse of `encode`; `mpf` is mpmath's constructor, passed in so
    this module imports nothing."""
    if isinstance(x, dict):
        return mpf(x["mpf"])
    return Fraction(x)


def coeff_argv(family, a, lam, digits, lo, hi) -> list[str]:
    # every value as --opt=value: the parser reads `--lambda -2/7` as a flag
    argv = [f"--family={family}", f"--n={lo}..{hi}" if hi > lo else f"--n={lo}"]
    if family != "riemann":
        argv.append(f"--a={a}")
    if lam is not None:
        argv.append(f"--lambda={lam}")
    argv.append(f"--digits={digits}")
    return argv


# ---- series_mix -----------------------------------------------------------------

SERIES_FAMILIES = ("hurwitz", "hurwitz", "riemann", "lerch", "lerch")  # 40/20/40
SERIES_DIGITS = (30, 50, 100)
SERIES_MPF_A_SHARE = 0.2
# k of each n = 0..k run in a block of 15 runs (mean 3)
SERIES_RUN_TOPS = tuple(range(MAX_N + 1)) * 2 + (3,)


def series_lambda_pool(rng: random.Random) -> list:
    """Per-seed lambda pool: -1, a negative and a positive p/q, a negative
    and a positive 53-bit mpf.  A Lerch call's cost depends mostly on the
    sign of lambda (lambda > 0 runs to max_terms, lambda < 0 stops within a
    few terms) and on whether lambda is a p/q or an mpf, whose exact dyadic
    value has a 2^53-size denominator.  A positive mpf costs 2-5 times a
    p/q, and its cost climbs with lambda up to about 0.6 and then stays
    flat, so it is drawn from [0.6, 0.9], where one pool costs about as
    much as another."""
    neg = rational_near(rng, -rng.uniform(1 / 12, 11 / 12), Fraction(-11, 12), Fraction(-1, 12))
    pos = rational_near(rng, rng.uniform(1 / 12, 11 / 12), Fraction(1, 12), Fraction(11, 12))
    return [Fraction(-1), neg, pos, -rng.uniform(0.1, 0.9), rng.uniform(0.6, 0.9)]


def series_mix_setup(seed: int) -> dict:
    return {"lambda_pool": [encode(x) for x in series_lambda_pool(rng_for("series_mix", seed))]}


def series_mix_ops(seed: int) -> Iterator[dict]:
    """In-process coefficient calls in runs of n = 0..k (k <= 6) that share
    (family, a, lambda, digits).  A block is one run per (family, digits)
    pair; lambda cycles through the per-seed pool."""
    rng = rng_for("series_mix", seed)
    pool = series_lambda_pool(rng)
    lerch_runs = count()

    def block(_):
        runs = shuffled(rng, product(SERIES_FAMILIES, SERIES_DIGITS))
        shifts = a_slices(rng, sum(f != "riemann" for f, _ in runs), mpf_share=SERIES_MPF_A_SHARE)
        tops = shuffled(rng, SERIES_RUN_TOPS)
        for family, digits in runs:
            a = Fraction(1) if family == "riemann" else shifts.pop()
            lam = pool[next(lerch_runs) % len(pool)] if family == "lerch" else None
            for n in range(tops.pop() + 1):
                yield {
                    "family": family,
                    "n": n,
                    "a": encode(a),
                    "lam": None if lam is None else encode(lam),
                    "digits": digits,
                }

    return in_blocks(block)


# ---- crosscheck -------------------------------------------------------------------

# The contour reference sums Phi(lam, s, a) directly, at a cost per node of
# about 1/(-log|lam|) terms, which grows without bound as |lam| -> 1, so
# crosscheck keeps |lam| <= 3/4.  A cold 30-digit Lerch session costs 0.5 s
# at |lam| = 1/10 and 3.4 s at 8/11.  At 50 digits a node costs about three
# times more (5 s at |lam| = 1/2, 11 s at 3/4), so there |lam| <= 1/4; a
# run must hold enough cold sessions for its tail percentile to stay among
# them.  The |lam| bands below cycle with the block number.  The values of a
# band differ in 1/(-log|lam|) by at most 7 %, so a session costs about the
# same whichever value it draws, and the work of a run hardly depends on
# the seed.  |lam| >= 1/11 keeps every Lerch session cold: lam = 0 needs
# one term per node.
CROSSCHECK_DIGITS = (30, 50)
CROSSCHECK_LAMBDA = {
    30: ((Fraction(1, 6), Fraction(2, 11), Fraction(1, 5)),
         (Fraction(2, 5), Fraction(5, 12), Fraction(3, 7)),
         (Fraction(4, 7), Fraction(7, 12), Fraction(3, 5)),
         (Fraction(7, 10), Fraction(5, 7), Fraction(8, 11))),
    50: ((Fraction(1, 11), Fraction(1, 10), Fraction(1, 9)),
         (Fraction(2, 11), Fraction(1, 5), Fraction(2, 9))),
}
CROSSCHECK_N = 4
# calls per session.  The Riemann session of a block makes two calls and
# the others four, so every block holds the same calls.
CROSSCHECK_CALLS = {"riemann": 2, "hurwitz": 4, "lerch": 4}


def _session_ranges(rng: random.Random, parts: int) -> list[tuple[int, int]]:
    """n ranges that split 0..CROSSCHECK_N into `parts` calls.  The first
    call of a session is the cold one: it gets the widest range, and the
    warm calls that follow, in random order, all have one width.  So the
    number of warm calls of each (family, digits, width) is the same in
    every block, and the median call stays inside one like-for-like group."""
    warm = (CROSSCHECK_N + 1) // parts
    widths = [warm] * parts
    j = rng.randrange(parts)  # where the cold range sits in 0..CROSSCHECK_N
    widths[j] = CROSSCHECK_N + 1 - warm * (parts - 1)
    bounds = list(accumulate(widths, initial=0))
    ranges = [(bounds[i], bounds[i + 1] - 1) for i in range(parts)]
    cold = ranges.pop(j)
    return [cold, *shuffled(rng, ranges)]


def crosscheck_ops(seed: int) -> Iterator[dict]:
    """Sessions of 2-4 `coeff --verify` calls whose n ranges split 0..4, so
    a session asks for each n once.  Each session draws a fresh (family, a,
    lambda, digits).  A block is five sessions: Hurwitz and Lerch once at
    each precision, and Riemann at 30 and 50 digits in turn.  The shifts a
    of the non-Riemann sessions cover log a once per cycle of blocks.  No
    Hurwitz or Lerch session repeats the (a, lambda, digits) of an earlier
    one, so its first call finds no cached node; a Riemann session repeats
    a = 1, so from the third block on it is warm from its first call."""
    rng = rng_for("crosscheck", seed)
    session = count()
    cycle = len(CROSSCHECK_LAMBDA[30])  # blocks until the lambda bands repeat
    shifts: list = []
    seen: set = set()

    def block(b: int):
        plan = [("riemann", CROSSCHECK_DIGITS[b % 2])]
        plan += [(family, d) for family in ("hurwitz", "lerch") for d in CROSSCHECK_DIGITS]
        plan = shuffled(rng, plan)
        if b % cycle == 0:  # one a per slice of log a over a whole cycle
            shifts[:] = a_slices(rng, cycle * (len(plan) - 1), avoid=Fraction(1))
        signs = shuffled(rng, (-1, 1))  # one per Lerch session
        for family, digits in plan:
            s = next(session)
            a = Fraction(1) if family == "riemann" else shifts.pop()
            lam = None
            if family == "lerch":
                bands = CROSSCHECK_LAMBDA[digits]
                lam = signs.pop() * rng.choice(bands[b % len(bands)])
            if family != "riemann":
                # a = 1 stays out: Hurwitz there reuses a Riemann session's nodes
                a = min((c for c in A_RATIONALS if c != 1 and (family, c, lam, digits) not in seen),
                        key=lambda c: abs(math.log(c / a)))
            seen.add((family, a, lam, digits))
            for lo, hi in _session_ranges(rng, CROSSCHECK_CALLS[family]):
                yield {
                    "kind": "coeff",
                    "session": s,
                    "family": family,
                    "a": str(a),
                    "lam": None if lam is None else str(lam),
                    "digits": digits,
                    "n": [lo, hi],
                    "argv": ["coeff", *coeff_argv(family, a, lam, digits, lo, hi), "--verify"],
                }

    return in_blocks(block)


# ---- cli_cold ---------------------------------------------------------------------

CLI_DIGITS = (30, 50, 100)
CLI_COEFF_KINDS = ("coeff_json", "coeff_table", "trace")
CLI_KINDS = CLI_COEFF_KINDS + ("verify_identities", "verify_coefficients")
CLI_FAMILIES = ("hurwitz", "riemann", "lerch")
# Lambda of the Lerch commands: the sign decides whether the series stops
# at a minimal term (lambda < 0) or runs to max_terms (lambda > 0).
CLI_LAMBDA_NEG = ((Fraction(-1), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(-1, 12)))
CLI_LAMBDA_POS = ((Fraction(1, 12), Fraction(1, 2)), (Fraction(1, 2), Fraction(11, 12)))


def cli_cold_ops(seed: int) -> Iterator[dict]:
    """Fresh-process CLI commands.  A block is one command per (kind,
    digits) pair; each of the three coefficient kinds runs once per family.
    `coeff` asks for n = 0..6 and `trace` for one n, so every block reports
    the same coefficients per family.  The two `coeff` Lerch commands of a
    block take one negative and one positive lambda, the `trace` one
    alternates.  No --verify, so the reference is bypassed.  `trace`
    writes to the path the runner substitutes for "{out}"."""
    rng = rng_for("cli_cold", seed)

    def block(b: int):
        families = {kind: shuffled(rng, CLI_FAMILIES) for kind in CLI_COEFF_KINDS}
        shifts = a_slices(rng, 2 * len(CLI_COEFF_KINDS))  # hurwitz and lerch commands
        signs = shuffled(rng, (CLI_LAMBDA_NEG, CLI_LAMBDA_POS))
        lam_slices = {"coeff_json": signs[0], "coeff_table": signs[1],
                      "trace": (CLI_LAMBDA_NEG, CLI_LAMBDA_POS)[b % 2]}
        trace_n = shuffled(rng, range(MAX_N + 1))
        for kind, digits in shuffled(rng, product(CLI_KINDS, CLI_DIGITS)):
            if kind.startswith("verify"):
                suite = kind.split("_", 1)[1]
                yield {"kind": kind, "digits": digits,
                       "argv": ["verify", f"--suite={suite}", f"--digits={digits}"]}
                continue
            family = families[kind].pop()
            a = Fraction(1) if family == "riemann" else shifts.pop()
            lam = draw_rational(rng, *rng.choice(lam_slices[kind])) if family == "lerch" else None
            if kind == "trace":
                lo = hi = trace_n.pop()
                argv = ["trace", *coeff_argv(family, a, lam, digits, lo, hi), "--out={out}"]
            else:
                lo, hi = 0, MAX_N
                argv = ["coeff", *coeff_argv(family, a, lam, digits, lo, hi),
                        "--format=" + ("json" if kind == "coeff_json" else "table")]
            yield {
                "kind": kind,
                "family": family,
                "a": str(a),
                "lam": None if lam is None else str(lam),
                "digits": digits,
                "n": [lo, hi],
                "argv": argv,
            }

    return in_blocks(block)


OPS = {"series_mix": series_mix_ops, "crosscheck": crosscheck_ops, "cli_cold": cli_cold_ops}
