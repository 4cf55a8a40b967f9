"""Acceptance gates: every self-check of `verification.SUITES` at 50
digits, one test id per check (`pytest -k oracle/contour_vs_jet`), a
guard that the registry holds every check once, byte-identical CLI
output, and the demos' pinned output.
"""

import ast
import importlib
import os
import subprocess
import sys
import time
from collections import Counter
from hashlib import sha256
from pathlib import Path

import pytest

from zetataylor import verification

CHECKS = [
    (f"{suite}/{label}", fn)
    for suite, checks in verification.SUITES.items()
    for label, fn in checks
]

# wall-time budgets in seconds, by check id
BUDGET_S = {
    "coefficients/n0_closed_forms": 1.0,
    "identities/stirling_orthogonality": 1.0,
    "oracle/series_vs_jet": 5.0,
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


PRECISION_SETTERS = {"workdps", "workprec", "extradps", "extraprec"}
LOCK_TYPES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


def test_precision_changes_only_under_the_one_lock():
    # mpmath's precision is process-wide, so src/ changes it in one place,
    # summation.working_precision, which holds exact.LOCK, the only lock
    # src/ makes; neither is in an __all__, whose names perfbench wraps
    changes, locks = [], []
    for path in sorted(Path(verification.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scope = {}
        for top in tree.body:  # the module-level function or class around each node
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope.update((id(node), top.name) for node in ast.walk(top))
        for node in ast.walk(tree):
            where = (path.name, scope.get(id(node)))
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                changes += [where for t in targets
                            if isinstance(t, ast.Attribute) and t.attr in ("dps", "prec")]
            name = getattr(node, "attr", getattr(node, "id", None))
            if isinstance(node, (ast.Name, ast.Attribute)) and name in PRECISION_SETTERS:
                changes.append(where)
            if isinstance(node, ast.Call) and getattr(node.func, "attr",
                                                      getattr(node.func, "id", None)) in LOCK_TYPES:
                locks.append(where)
    assert set(changes) == {("summation.py", "working_precision")}
    assert locks == [("exact.py", None)]
    for module in ("", ".exact", ".summation", ".coefficients", ".reference", ".verification", ".cli"):
        exported = set(importlib.import_module("zetataylor" + module).__all__)
        assert not exported & {"LOCK", "kept", "working_precision"}, module


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


# One sha256 over the (exit code, stdout) of every demo, each run in a fresh
# process; `derive_pins.py` re-derives it and lists the demos that moved.
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
DEMO_PIN = "5cb55b07993000d193a7adbd51502c68583c6ecab47c82228fd46c605ee29883"


def demo_outputs(src) -> list:
    """(exit code, stdout) of each demo, run with `src` on the path."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    runs = [subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
            for demo in DEMOS]
    return [(proc.returncode, proc.stdout) for proc in runs]


def test_demos_print_the_pinned_bytes():
    rows = demo_outputs(Path(verification.__file__).parents[1])
    assert [code for code, _ in rows] == [0] * len(DEMOS) == [0, 0, 0]
    assert sha256(repr(rows).encode()).hexdigest() == DEMO_PIN
