"""Acceptance gates: every self-check of `verification.SUITES` at 50
digits, one test id per check (`pytest -k oracle/contour_vs_jet`), a
guard that the registry holds every check once, and byte-identical CLI
output.
"""

import subprocess
import sys
import time
from collections import Counter
from hashlib import sha256

import pytest

from zetataylor import verification

CHECKS = [
    (f"{suite}/{label}", fn)
    for suite, checks in verification.SUITES.items()
    for label, fn in checks
]

# wall-time budgets in seconds, by check id
BUDGET_S = {
    "coefficients/hurwitz_n0_closed_form": 1.0,
    "identities/stirling_orthogonality": 1.0,
    "coefficients/hurwitz_n1_loggamma": 5.0,
    "oracle/contour_vs_jet": 30.0,
}


@pytest.mark.parametrize("check_id, fn", CHECKS, ids=[cid for cid, _ in CHECKS])
def test_check(check_id, fn):
    t0 = time.perf_counter()
    ok, detail = fn(50)
    elapsed = time.perf_counter() - t0
    assert ok, detail
    assert elapsed < BUDGET_S.get(check_id, float("inf")), f"{elapsed:.2f}s"


def test_every_check_is_registered_once():
    defined = [name for name in vars(verification) if name.startswith("check_")]
    assert Counter(fn.__name__ for _, fn in CHECKS) == Counter(defined)
    ids = [cid for cid, _ in CHECKS]
    assert len(set(ids)) == len(ids)
    assert set(BUDGET_S) <= set(ids)


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
