"""Re-derive VALUE_PIN in test_coefficients.py after a change that moves
in-process coefficient bits.

The pin is one sha256 over the (value, error_estimate, truncation_index,
terminated_by) rows of the PIN_CALLS grid in test_coefficients.py.  This
script computes the grid on an older tree and on this one, lists every
call whose row moved, and prints the new digest.  A change that moves bits
says why in CHANGES.md and pastes the digest.

Usage, with the old tree's `src` directory as the argument:

    git archive <old-commit> src | tar -x -C /tmp/old
    python tests/derive_value_pin.py /tmp/old/src
"""

import ast
import hashlib
import subprocess
import sys
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent


def rows(src: str) -> list:
    """The grid's rows, computed with `src` imported."""
    sys.path[:0] = [src, str(HERE)]
    import test_coefficients as t

    assert Path(t.coefficients.__file__).is_relative_to(Path(src).resolve())
    return t.pin_rows()


def main(old_src: str) -> None:
    child = subprocess.run([sys.executable, __file__, "--rows", old_src],
                           capture_output=True, text=True, check=True)
    old = ast.literal_eval(child.stdout)
    new = rows(str(HERE.parent / "src"))
    import test_coefficients as t

    calls = product(t.PIN_CALLS, (30, 50, 100), range(7))
    moved = [(call, was, now) for call, was, now in zip(calls, old, new) if was != now]
    for ((family, a, lam), digits, n), was, now in moved:
        print(f"{family} a={a} lam={lam} digits={digits} n={n}", was, now, sep="\n    ")
    print(f"{len(moved)} of {len(new)} calls moved")
    print(f'VALUE_PIN = "{hashlib.sha256(repr(new).encode()).hexdigest()}"')


if __name__ == "__main__":
    if sys.argv[1] == "--rows":
        print(repr(rows(sys.argv[2])))
    else:
        main(sys.argv[1])
