"""Traced stand-in for ``python -m zetataylor`` in the cli_cold workload.

    python perfbench/cli_child.py SPANS_JSON OP_ID <zetataylor arguments>

Installs the layer wrappers, runs ``zetataylor.cli.main`` on the arguments
with the spans of the whole call recorded, writes the spans, counters and
captured results to SPANS_JSON and exits with main's exit code.  The
untraced run starts the real ``python -m zetataylor`` instead.
"""

from __future__ import annotations

import json
import sys

import tracer as tracing


def main() -> int:
    spans_path, op = sys.argv[1], int(sys.argv[2])
    tr = tracing.Tracer()
    tracing.install(tr)
    from zetataylor import cli

    tr.op = op
    tr.recording = True
    code = cli.main(sys.argv[3:])
    tr.recording = False
    sys.stdout.flush()
    with open(spans_path, "w", encoding="ascii") as fh:
        json.dump({
            "spans": tr.spans,
            "growth": sorted(tr.growth),
            "counts": dict(tr.counts),
            "installed": sorted(tr.installed),
            "captures": tracing.capture_rows(tr),
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
