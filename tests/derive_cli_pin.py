"""Re-derive CLI_PIN in test_cli.py after a change that moves CLI bytes.

The pin is one sha256 over the (exit code, output) pairs of the PIN_GRID
commands in test_cli.py, run in-process.  This script runs the grid on an
older tree and on this one, lists every command whose exit code or output
moved, with the first line that differs, and prints the new digest.  A PR
that moves bytes says why in CHANGES.md and pastes the digest.

Usage, with the old tree's `src` directory as the argument:

    git archive <old-commit> src | tar -x -C /tmp/old
    python tests/derive_cli_pin.py /tmp/old/src
"""

import ast
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def rows(src: str) -> list:
    """The PIN_GRID (exit code, output) pairs, computed with `src` imported."""
    sys.path[:0] = [src, str(HERE)]
    import test_cli as t

    assert Path(sys.modules[t.main.__module__].__file__).is_relative_to(Path(src).resolve())
    with tempfile.TemporaryDirectory() as out_dir:
        return t.pin_outputs(t.main, Path(out_dir))


def main(old_src: str) -> None:
    child = subprocess.run([sys.executable, __file__, "--rows", old_src],
                           capture_output=True, text=True, check=True)
    old = ast.literal_eval(child.stdout)
    new = rows(str(HERE.parent / "src"))
    import test_cli as t

    moved = 0
    for argv, was, now in zip(t.PIN_GRID, old, new):
        if was != now:
            moved += 1
            lines = zip(was[1].splitlines(), now[1].splitlines())
            first = next(((a, b) for a, b in lines if a != b), None)
            print(" ".join(argv), f"exit {was[0]} -> {now[0]}", first, sep="\n    ")
    print(f"{moved} of {len(new)} commands moved")
    print(f'CLI_PIN = "{t.pin_digest(new)}"')


if __name__ == "__main__":
    if sys.argv[1] == "--rows":
        print(repr(rows(sys.argv[2])))
    else:
        main(sys.argv[1])
