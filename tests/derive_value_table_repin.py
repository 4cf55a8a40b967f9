"""Re-derive RUN_BITS in test_coefficients.py after a change of rounding.

The value table keeps each q_k = P_(k+1)(x) / (k+1)! as its floor at
prec + 64 bits, each term is the integer weight times that floor exactly,
and the engine rounds the exact partial sum once, where it once rounded
each q_k, each term and each partial sum.  The results move by a few units
in the last place, toward the exact partial sum, far below their error
bars.  This script computes every RUN_BITS row on an older tree and on
this one, asserts that the truncation index and the termination reason are
equal and that each value moved by at most 1e-25 of its error estimate,
and prints the new digests.

Usage, with the old tree's `src` directory as the argument:

    git archive <old-commit> src | tar -x -C /tmp/old
    python tests/derive_value_table_repin.py /tmp/old/src
"""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
TOLERANCE = Fraction(1, 10**25)


def rows(src: str) -> dict:
    """Every RUN_BITS run's rows n = 0..6, computed with `src` imported."""
    sys.path[:0] = [src, str(HERE)]
    import test_coefficients as t

    assert Path(t.coefficients.__file__).is_relative_to(Path(src).resolve())
    return {run: [t._run_result(run, n) for n in range(7)] for run in t.RUN_BITS}


def exact(mpf_tuple) -> Fraction:
    sign, man, exp, _ = mpf_tuple
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def main(old_src: str) -> None:
    child = subprocess.run([sys.executable, __file__, "--rows", old_src],
                           capture_output=True, text=True, check=True)
    old = ast.literal_eval(child.stdout)
    new = rows(str(HERE.parent / "src"))
    import test_coefficients as t

    worst = Fraction(0)
    for run, new_rows in new.items():
        for n, (was, now) in enumerate(zip(old[run], new_rows)):
            assert was[2:] == now[2:], (run, n, was[2:], now[2:])
            moved = abs(exact(now[0]) - exact(was[0]))
            assert moved <= TOLERANCE * exact(now[1]), (run, n)
            worst = max(worst, moved / exact(now[1]))
    print(f"{sum(map(len, new.values()))} results, largest |delta value| / estimate "
          f"{float(worst):.2g}")
    print("RUN_BITS = {")
    for run, new_rows in new.items():
        key = repr(run).replace("'", '"')
        print(f'    {key}: "{t._bits(new_rows)}",')
    print("}")


if __name__ == "__main__":
    if sys.argv[1] == "--rows":
        print(repr(rows(sys.argv[2])))
    else:
        main(sys.argv[1])
