"""Test oracles for the certified heat trace's sums.

`fsum_trace` is how `conekernel._certified_trace` summed before its sums
were blocked: each sample is the correctly rounded sum of the same terms
w exp(-t lambda), cut at t lambda = 746 where exp underflows to 0.0.

`every_exp_blocked_sums` is the blocked sum as it was before it skipped
the subnormal exps: every column of a block, up to its first row's end,
goes through exp, including the terms 708.4 < t lambda <= 746 whose exp
is subnormal.  It sums each row in the kernel's two-level order, run by
run of SUM_BLOCK columns and then the run sums, so that the kernel's sums
must equal it bit for bit.  Both are kept only as references for
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
                           ends: np.ndarray) -> np.ndarray:
    """Row sums with the blocks and the two-level order of
    `conekernel._blocked_sums` (its TRACE_BLOCK and SUM_BLOCK at call time)
    and an exp of every column."""
    block = conekernel.SUM_BLOCK
    values = np.empty(len(t_grid))
    start = 0
    while start < len(t_grid):
        n = int(ends[start])
        runs = -(-n // block)
        stop = min(len(t_grid), start + max(1, conekernel.TRACE_BLOCK // max(runs * block, 1)))
        terms = np.zeros((stop - start, runs * block))
        terms[:, :n] = np.exp(np.multiply.outer(-t_grid[start:stop], lams[:n])) * ws[:n]
        values[start:stop] = np.einsum("rkb->rk", terms.reshape(stop - start, runs, block)).sum(axis=1)
        start = stop
    return values
