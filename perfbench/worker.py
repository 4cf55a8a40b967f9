"""One benchmark phase in a fresh process.

    python perfbench/worker.py --workload W --seed S --result PATH
        (--seconds X | --ops K | --setup-only) [--trace]

Imports zetataylor from the checkout's ``src``, does the workload's
set-up (timed), then runs operations one at a time, each after the previous
one finished (a closed loop with one caller): the whole blocks that take X
seconds at the defining commit (workloads.BLOCK_SECONDS), or K operations.  It writes raw outputs and timings as JSON to
PATH; checking them against the truth is left to run.py, outside every
timed region.  With --trace the layer wrappers of tracer.py record spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

import tracer as tracing  # noqa: E402  (sibling module; HERE is sys.path[0])
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150
# A run on a much slower commit stops at the first block end after
# MAX_STRETCH * seconds, so it still ends in time.
MAX_STRETCH = 3


def child_env() -> dict:
    """Environment for every child process: the checkout's sources on the
    path and no ZETA_DIGITS, so --digits alone sets the precision."""
    env = {k: v for k, v in os.environ.items() if k != "ZETA_DIGITS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# ---- set-up -----------------------------------------------------------------


def warm_tables(exact, top: int, lams=()) -> None:
    """Grow the exact tables a call with n + max_terms <= top reads."""
    exact.stirling1(top, 1)
    exact.bernoulli_number(top)
    for lam in lams:
        exact.apostol_bernoulli_coeffs(top, lam)


def setup(workload: str, seed: int):
    import zetataylor  # noqa: F401
    from zetataylor import cli, exact

    top = workloads.MAX_N + workloads.DEFAULT_MAX_TERMS
    if workload == "series_mix":
        pool = workloads.series_mix_setup(seed)["lambda_pool"]
        # an mpf lambda arrives as the float it was built from; the series
        # uses it as the exact dyadic rational, so warm that table row
        warm_tables(exact, top, [Fraction(x["mpf"]) if isinstance(x, dict) else Fraction(x)
                                 for x in pool])
    elif workload == "crosscheck":
        warm_tables(exact, top)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["coeff", "--family=riemann", "--n=0", "--digits=30"])


# ---- one operation per workload --------------------------------------------


def run_series(op, index):
    import mpmath
    from zetataylor import coefficients as C

    a = workloads.decode(op["a"], mpmath.mpf)
    n, digits = op["n"], op["digits"]
    t0 = time.perf_counter()
    if op["family"] == "hurwitz":
        r = C.hurwitz_coefficient(n, a, digits=digits)
    elif op["family"] == "riemann":
        r = C.riemann_coefficient(n, digits=digits)
    else:
        r = C.lerch_coefficient(n, a, workloads.decode(op["lam"], mpmath.mpf), digits=digits)
    t1 = time.perf_counter()
    return t1 - t0, {
        "value": tracing.mpf_json(r.value),
        "error_estimate": tracing.mpf_json(r.error_estimate),
        "truncation_index": r.series.truncation_index,
        "terminated_by": r.series.terminated_by,
    }


def run_crosscheck(op, index):
    from zetataylor import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op["argv"])
    t1 = time.perf_counter()
    return t1 - t0, {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-500:]}


class ColdRunner:
    """Runs each cli_cold command in a fresh interpreter.  Traced, the
    command goes through cli_child.py, which installs the wrappers first
    and leaves its spans in a file per operation."""

    def __init__(self, traced: bool, tag: str):
        self.traced = traced
        self.tmp = OUT / f"tmp-{tag}-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.children: list[tuple[Path, float]] = []

    def __call__(self, op, index: int):
        out_path = self.tmp / f"trace-{index}.csv"
        argv = [a.replace("{out}", str(out_path)) for a in op["argv"]]
        if self.traced:
            spans_path = self.tmp / f"spans-{index}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), str(index), *argv]
        else:
            cmd = [sys.executable, "-m", "zetataylor", *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        t1 = time.perf_counter()
        if self.traced:
            self.children.append((spans_path, t1 - t0))
        result = {"code": proc.returncode, "stdout": proc.stdout.decode("utf-8", "replace"),
                  "stderr": proc.stderr.decode("utf-8", "replace")[-500:]}
        if op["kind"] == "trace" and out_path.exists():
            result["file"] = out_path.read_text(encoding="ascii", errors="replace")
            out_path.unlink()
        return t1 - t0, result

    def merge_into(self, tr: "tracing.Tracer") -> float:
        """Fold every child's spans, counts and captured rows into `tr`;
        return the summed start-up time (child wall minus its cli.main span)."""
        startup = 0.0
        for path, wall in self.children:
            try:
                child = json.loads(path.read_text())
            except (OSError, ValueError):
                startup += wall
                continue
            path.unlink()
            base = len(tr.spans)
            main = 0.0
            for span in child["spans"]:
                name, start, end, parent, op = span
                tr.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
                if name == tracing.MAIN and parent < 0:
                    main += end - start
            tr.growth.update(base + i for i in child["growth"])
            tr.counts.update(child["counts"])
            tr.installed.update(child["installed"])
            for key, reduced in child["captures"].items():
                tr.child_rows[key].extend(reduced["rows"])
                tr.counts[f"dropped.{key}"] += reduced["dropped"]
            startup += wall - main
        return startup

    def close(self):
        for p in self.tmp.glob("*"):
            p.unlink()
        self.tmp.rmdir()


# ---- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--ops", type=int)
    limit.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    tr = tracing.Tracer() if args.trace else None
    t0 = time.perf_counter()
    if tr is not None:
        tracing.install(tr)
    setup(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    cold = ColdRunner(args.trace, args.workload) if args.workload == "cli_cold" else None
    runner = {"series_mix": run_series, "crosscheck": run_crosscheck, "cli_cold": cold}[args.workload]

    ops = []
    if args.seconds is not None:
        blocks = workloads.blocks_for(args.workload, args.seconds)
    if tr is not None:
        tr.recording = True
    start = time.perf_counter()
    end = start
    for i, op in enumerate(workloads.OPS[args.workload](args.seed)):
        if args.ops is not None and i >= args.ops:
            break
        if args.seconds is not None and ops and ops[-1]["op"].get("block_end"):
            if ops[-1]["op"]["block"] + 1 >= blocks or end - start >= MAX_STRETCH * args.seconds:
                break
        if tr is not None:
            tr.op = i
        try:
            seconds, output = runner(op, i)
            status = "ok"
        except Exception as exc:  # an operation that raised is a failed operation
            seconds, output, status = time.perf_counter() - end, None, f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        ops.append({"op": op, "seconds": seconds, "t_end": end - start, "status": status,
                    "output": output})
    if tr is not None:
        tr.recording = False
    who = resource.RUSAGE_CHILDREN if cold is not None else resource.RUSAGE_SELF
    result.update({
        "wall_s": end - start,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ops": ops,
    })
    if tr is not None:
        # in-process workloads start no interpreter, so they pay no start-up
        startup = cold.merge_into(tr) if cold is not None else 0.0
        layers = tracing.layer_metrics(tr)
        layers["cli.startup_s"] = startup
        layers["cli.stdout_bytes"] = sum(len(o["output"].get("stdout", "").encode())
                                         for o in ops if o["output"])
        result["layers"] = layers
        result["missing_layers"] = tracing.missing_layers(tr)
        result["captures"] = tracing.capture_rows(tr)
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(OUT / f"spans-{args.workload}.csv", tr.spans, tr.growth)
    if cold is not None:
        cold.close()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
