"""Test oracles for the certified heat trace's sums.

`fsum_trace` is how `conekernel._certified_trace` summed before its sums
were blocked: each sample is the correctly rounded sum of the same terms
w exp(-t lambda), cut at t lambda = 746 where exp underflows to 0.0.

`every_exp_blocked_sums` is the blocked sum as it was before it skipped
the subnormal exps: every column of a block, up to its first row's end,
goes through exp, including the terms 708.4 < t lambda <= 746 whose exp
is subnormal.  Both are kept only as references for
`conekernel._blocked_sums` and its rounding bound.
"""

from __future__ import annotations

import math

import numpy as np

from torsionlab import conekernel
from torsionlab.conekernel import Spectrum


def fsum_trace(spectrum: Spectrum, t_grid: np.ndarray) -> np.ndarray:
    ends = np.searchsorted(spectrum.lam, 746.0 / t_grid, side="right")
    return np.array([math.fsum(spectrum.weight[:n] * np.exp(-t * spectrum.lam[:n]))
                     for t, n in zip(t_grid, ends)])


def every_exp_blocked_sums(lams: np.ndarray, ws: np.ndarray, t_grid: np.ndarray,
                           ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums and gamma_{n+1} |value| rounding bounds, with the blocks of
    `conekernel._blocked_sums` (its TRACE_BLOCK at call time) and an exp of
    every column."""
    values = np.empty(len(t_grid))
    rounding = np.empty(len(t_grid))
    start = 0
    while start < len(t_grid):
        n = int(ends[start])
        stop = start + max(1, conekernel.TRACE_BLOCK // max(n, 1))
        terms = np.multiply.outer(-t_grid[start:stop], lams[:n])
        np.exp(terms, out=terms)
        terms *= ws[:n]
        values[start:stop] = terms.sum(axis=1)
        ku = (n + 1) * conekernel.UNIT_ROUNDOFF
        rounding[start:stop] = ku / (1.0 - ku) * np.abs(values[start:stop])
        start = stop
    return values, rounding
