"""Derive the Lerch pins of test_coefficients.py from an older checkout.

Lerch coefficients were once summed with the weight (-1)^(k-n+1) in place
of (-1)^(k+1).  The two differ by (-1)^n, so every odd-n Lerch term, and
with it the value, only flips its sign; estimates, truncation indices and
termination reasons stay.  This script recomputes the old code's results
and prints the pins that follow from that sign flip alone:

* the odd-n Lerch GOLDEN values, negated, at 30 digits;
* RUN_BITS, with each Lerch digest taken over the old rows with value
  negated at odd n, and every other digest as the old code gives it.

Usage, with the old tree's `src` directory as the argument:

    git archive <old-commit> src | tar -x -C /tmp/old
    python tests/derive_lerch_sign_repin.py /tmp/old/src
"""

import sys
from pathlib import Path


def negated(mpf_tuple):
    sign, man, exp, bc = mpf_tuple
    return (1 - sign, man, exp, bc) if man else mpf_tuple


def main(old_src: str) -> None:
    sys.path[:0] = [old_src, str(Path(__file__).parent)]
    import mpmath
    from mpmath import mpf

    import test_coefficients as t
    from zetataylor import lerch_coefficient

    assert Path(t.coefficients.__file__).is_relative_to(Path(old_src).resolve())
    print("GOLDEN, odd-n Lerch values:")
    for path, n, a, lam, *_ in t.GOLDEN:
        if path == "lerch" and n % 2:
            a = mpf(a) if isinstance(a, float) else a
            lam = mpf(lam) if isinstance(lam, float) else lam
            with mpmath.workdps(30):
                value = -lerch_coefficient(n, a, lam, digits=30).value
            print(f"  ({n}, {a}, {lam}): {mpmath.nstr(value, 30, strip_zeros=True)!r}")
    print("RUN_BITS = {")
    for run in t.RUN_BITS:
        rows = []
        for n in range(7):
            value, *rest = t._run_result(run, n)
            flip = run[0] == "lerch" and n % 2
            rows.append((negated(value) if flip else value, *rest))
        key = repr(run).replace("'", '"')
        print(f'    {key}: "{t._bits(rows)}",')
    print("}")


if __name__ == "__main__":
    main(sys.argv[1])
