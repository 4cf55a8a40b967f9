"""The coverage grid's pinned counts (coverage_grid.py prints the full map).

The 83 misses are the series' known false bars: 27 n = 0 results off by
rounding against a bar of 1e-35, 44 minimal-term results (43 at a <= 1/3)
and 12 max-terms results whose bar, the last term, is smaller than the
error.  A change that moves a count re-pins it here from the script's output.
"""

import coverage_grid


def test_coverage_grid_counts_are_pinned():
    assert coverage_grid.counts(coverage_grid.results()) == {
        "results": 588,
        "covered": 505,
        "missed": {"converged": 27, "minimal_term": 44, "max_terms": 12},
        "useful": 15,
    }
