"""zetataylor benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Every phase runs in a fresh worker process (worker.py) with one caller and
one operation in flight.  A run of S seconds measures the whole blocks of
operations that take S seconds at the commit that defined the benchmark
(workloads.BLOCK_SECONDS).  With --trace 0 the run times them untraced and
prints the end-to-end metrics; with --trace 1 it times S/3 seconds' worth
untraced, replays the same operations with the layer wrappers of
tracer.py, and prints the per-layer metrics and the tracing overhead.

Every output is checked for form and echoed inputs, and every reported
coefficient is scored against the mpmath truth of truth.py, outside every
timed region.  Known defects of the program are measured, not filtered: see
NOTES.md.  The last line of stdout is the JSON result; the line before it
holds the details (environment, digests, tail percentile, set-up samples).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

import checks  # noqa: E402  (sibling modules; HERE is sys.path[0])
import worker as worker_mod  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = {"series_mix": 3, "crosscheck": 5, "cli_cold": 5}
# Scoring against the truth costs up to 0.4 s per (family, a, lambda,
# digits), so series_mix scores the coefficients of its first TRUTH_BLOCKS
# blocks and a traced run the first TRUTH_ROWS captured results.  Both are
# the same on every commit, since the operations are.
TRUTH_BLOCKS = {"series_mix": 12, "crosscheck": None, "cli_cold": None}
TRUTH_ROWS = 600
TAIL_BEYOND = 10
TRACED_SHARE = 3  # the traced run's untraced phase lasts seconds / TRACED_SHARE


def phase_timeout(seconds: float) -> float:
    # a worker stops by MAX_STRETCH * seconds plus one block; allow its set-up
    return worker_mod.MAX_STRETCH * seconds + 60


class BenchError(RuntimeError):
    pass


def run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout kill the whole group
    (a worker may have a CLI child of its own) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_mod.child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd[:4])}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def worker(workload: str, seed: int, *extra: str, timeout: float) -> dict:
    result_path = OUT / f"worker-{workload}-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--result", str(result_path), *extra]
    proc = run_child(cmd, timeout)
    try:
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace")[-2000:]
            raise BenchError(f"worker exited {proc.returncode}:\n{tail}")
        return json.loads(result_path.read_text())
    finally:
        result_path.unlink(missing_ok=True)


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports zetataylor."""
    t0 = time.perf_counter()
    proc = run_child([sys.executable, "-c", "import zetataylor"], timeout=60)
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise BenchError("import zetataylor failed:\n" + proc.stderr.decode()[-2000:])
    return t1 - t0


def setup_samples(workload: str, seed: int, main_setup: float) -> list[float]:
    n = SETUP_SAMPLES[workload]
    if workload == "cli_cold":
        return [import_seconds() for _ in range(n)]
    extra = [worker(workload, seed, "--setup-only", timeout=60)["setup_s"]
             for _ in range(n - 1)]
    return [main_setup, *extra]


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, count): the highest percentile with at least
    `beyond` samples above it.  With `beyond` samples or fewer there is no
    such percentile and the maximum is returned as the 100th."""
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, n
    i = n - beyond - 1
    return xs[i], 100.0 * (i + 1) / n, n


def digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def finite_number(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def host_loop_ms(reps: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop.  It is reported, not
    gated, so that a shift in the timing metrics can be told apart from a
    shift in the host's speed, which on a shared machine drifts by tens of
    per cent over minutes."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    loop_before = host_loop_ms()
    main = worker(workload, seed, "--seconds", str(seconds), timeout=phase_timeout(seconds))
    loop_after = host_loop_ms()
    setups = setup_samples(workload, seed, main["setup_s"])
    ops = main["ops"]
    if not ops:
        raise BenchError("no operation completed")
    limit = TRUTH_BLOCKS[workload]
    truth_ops = sum(1 for o in ops if limit is None or o["op"]["block"] < limit)
    verdicts = checks.check_ops(workload, ops, truth_ops)
    failed = sum(1 for v in verdicts if not v.ok)
    scored = [row for v in verdicts for row in v.rows if row.covered is not None]
    if not scored:
        raise BenchError("no coefficient could be scored against the truth")
    times = [o["seconds"] for o in ops]
    tail_ms, tail_pct, tail_n = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / main["wall_s"],
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail_ms,
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_ratio": (len(ops) - failed) / len(ops),
        "err_bar_coverage": sum(r.covered for r in scored) / len(scored),
        "accuracy_digits_mean": statistics.mean(min(max(r.accuracy, 0.0), r.digits)
                                                for r in scored),
        "agree_ratio": sum(r.agree for r in scored) / len(scored),
    }
    detail = {
        "setup_samples_s": setups,
        "wall_s": main["wall_s"],
        "host_loop_ms": {"before": loop_before, "after": loop_after},
        "blocks": sum(1 for o in ops if o["op"].get("block_end")),
        "op_tail": {"percentile": tail_pct, "samples": tail_n},
        "fail_ratio": failed / len(ops),
        "failures": [v.reason for v in verdicts if not v.ok][:10],
        "coefficients_scored": len(scored),
        "coverage_misses": checks.miss_summary(scored),
        "digest": {"sha256": digest([v.digest for v in verdicts]), "ops": len(verdicts),
                   "of": "stdout" if workload == "cli_cold" else
                         "formatted (value, error_estimate, truncation_index, terminated_by)"},
    }
    return metrics, detail, len(ops), failed


def share_name(name: str) -> str:
    """exact.busy_s -> exact.busy_share: a layer time as a share of the
    traced wall time."""
    return name[:-len("_s")] + "_share"


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    plain = worker(workload, seed, "--seconds", str(seconds / TRACED_SHARE),
                   timeout=phase_timeout(seconds / TRACED_SHARE))
    k = len(plain["ops"])
    traced = worker(workload, seed, "--ops", str(k), "--trace", timeout=phase_timeout(seconds))
    verdicts = checks.check_ops(workload, plain["ops"] + traced["ops"], 0)
    failed = sum(1 for v in verdicts if not v.ok)
    layers = traced["layers"]
    seconds_of = {name: v for name, v in layers.items() if name.endswith("_s")}
    metrics = {name: v for name, v in layers.items() if name not in seconds_of}
    for name, v in seconds_of.items():
        metrics[share_name(name)] = v / traced["wall_s"]
    for span, name in (("coefficients.compute_coefficient", "coefficients.err_bar_coverage"),
                       ("reference.taylor_coefficient_contour", "reference.err_bar_coverage")):
        rows = traced["captures"].get(span, {}).get("rows", [])[:TRUTH_ROWS]
        # no result means no miss: coverage is 1
        metrics[name] = checks.captured_coverage(rows) if rows else 1.0
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    detail = {
        "ops_traced": k,
        "layer_seconds": seconds_of,
        "missing_layers": traced["missing_layers"],
        "wall_s": {"untraced": plain["wall_s"], "traced": traced["wall_s"]},
        "captures_dropped": {key: c.get("dropped", 0) for key, c in traced["captures"].items()},
        "failures": [v.reason for v in verdicts if not v.ok][:10],
        "spans_file": str((OUT / f"spans-{workload}.csv").relative_to(ROOT)),
    }
    return metrics, detail, len(verdicts), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "zetataylor" / "__init__.py").is_file():
        print(f"perfbench: no zetataylor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            values, detail, attempted, failed = per_layer(args.workload, args.seed, args.seconds)
            listed = spec["per_layer"]
        else:
            values, detail, attempted, failed = end_to_end(args.workload, args.seed, args.seconds)
            listed = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    unknown = set(values) - {m["name"] for m in listed}
    if unknown:
        print(f"perfbench: metrics missing from BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 1
    absent = [m["name"] for m in listed if not finite_number(values.get(m["name"]))]
    if absent:
        print(f"perfbench: metrics without a finite value: {absent}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']!s:>24} {m['unit']}")
    detail.update({"workload": args.workload, "environment": environment(args.seed),
                   "why": workloads.WORKLOADS[args.workload]})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
