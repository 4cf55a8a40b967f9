"""Re-derive the pins of the tier-1 suite after a change that moves bits.

The pins are CLI_PIN (test_cli.py: the bytes of the PIN_GRID commands),
VALUE_PIN and RUN_BITS (test_coefficients.py: the in-process rows of the
PIN_CALLS grid and of every RUN_BITS run, n = 0..6), DEMO_PIN
(test_acceptance.py: the output of every demo) and CONTOUR_GOLDEN
(test_reference.py: the bits of the contour at 15 digits).  This script
computes every pin's rows on an older tree, in one child process, and on
this one; lists each row that moved, with the first line that differs for
command output; asserts that no RUN_BITS truncation index or stop reason
moved; and prints the new pins.  A change that moves bits says why in
CHANGES.md.

Usage, with the old tree's `src` directory as the argument:

    git archive <old-commit> src | tar -x -C /tmp/old
    python tests/derive_pins.py /tmp/old/src
"""

import ast
import hashlib
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent


def rows(src: str) -> dict:
    """Every pin's rows, computed with `src` imported."""
    sys.path[:0] = [src, str(HERE)]
    import test_acceptance
    import test_cli
    import test_coefficients as t
    import test_reference

    assert Path(t.coefficients.__file__).is_relative_to(Path(src).resolve())
    with tempfile.TemporaryDirectory() as out_dir:
        cli = test_cli.pin_outputs(test_cli.main, Path(out_dir))
    return {"CLI_PIN": cli, "VALUE_PIN": t.pin_rows(),
            "RUN_BITS": [t._run_result(run, n) for run in t.RUN_BITS for n in range(7)],
            "DEMO_PIN": test_acceptance.demo_outputs(src),
            "CONTOUR_GOLDEN": [row for key, want in test_reference.CONTOUR_GOLDEN.items()
                               for row in test_reference.contour_bits(*key, len(want))]}


def main(old_src: str) -> None:
    child = subprocess.run([sys.executable, __file__, "--rows", old_src],
                           capture_output=True, text=True, check=True)
    old, new = ast.literal_eval(child.stdout), rows(str(HERE.parent / "src"))
    import test_acceptance
    import test_cli
    import test_coefficients as t
    import test_reference

    labels = {
        "CLI_PIN": [" ".join(argv) for argv in test_cli.PIN_GRID],
        "VALUE_PIN": [f"{family} a={a} lam={lam} digits={digits} n={n}" for (family, a, lam), digits, n
                      in product(t.PIN_CALLS, (30, 50, 100), range(7))],
        "RUN_BITS": [f"{run} n={n}" for run in t.RUN_BITS for n in range(7)],
        "DEMO_PIN": [demo.name for demo in test_acceptance.DEMOS],
        "CONTOUR_GOLDEN": [f"contour {family} a={a} lam={lam} n={n}" for (family, a, lam), want
                           in test_reference.CONTOUR_GOLDEN.items() for n in range(len(want))],
    }
    for pin, names in labels.items():
        moved = [(name, was, now) for name, was, now in zip(names, old[pin], new[pin]) if was != now]
        for name, was, now in moved:
            if pin == "RUN_BITS":
                assert was[2:] == now[2:], (name, was[2:], now[2:])
            if isinstance(was[1], str):  # (exit code, output): the codes and the first line that moved
                lines = zip(was[1].splitlines(), now[1].splitlines())
                was, now = f"exit {was[0]} -> {now[0]}", next(((a, b) for a, b in lines if a != b), None)
            print(name, was, now, sep="\n    ")
        print(f"{pin}: {len(moved)} of {len(names)} rows moved")
    print(f'CLI_PIN = "{test_cli.pin_digest(new["CLI_PIN"])}"')
    for pin in ("VALUE_PIN", "DEMO_PIN"):
        print(f'{pin} = "{hashlib.sha256(repr(new[pin]).encode()).hexdigest()}"')
    print("RUN_BITS = {")
    for i, run in enumerate(t.RUN_BITS):
        key = repr(run).replace("'", '"')
        print(f'    {key}: "{t._bits(new["RUN_BITS"][7 * i:7 * i + 7])}",')
    print("}")
    print("CONTOUR_GOLDEN = {")
    contour = iter(new["CONTOUR_GOLDEN"])
    for key, want in test_reference.CONTOUR_GOLDEN.items():
        print(f"    {key!r}: [".replace("'", '"'))
        for _ in want:
            print(f"        {next(contour)!r},")
        print("    ],")
    print("}")


if __name__ == "__main__":
    if sys.argv[1] == "--rows":
        print(repr(rows(sys.argv[2])))
    else:
        main(sys.argv[1])
