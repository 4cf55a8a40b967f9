import os
from pathlib import Path

import mpmath
import pytest

# pyproject's `pythonpath` puts src/ on this process's path; the tests that
# run `python -m zetataylor` in a subprocess need it there too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def ample_ambient_precision():
    """Comparisons in tests need more ambient precision than the default
    15 digits; library calls manage their own working precision."""
    old = mpmath.mp.dps
    mpmath.mp.dps = 60
    yield
    mpmath.mp.dps = old
