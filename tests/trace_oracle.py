"""Test oracle: the certified heat trace's sum, one `math.fsum` per sample.

This is how `conekernel._certified_trace` summed before its sums were
blocked: each sample is the correctly rounded sum of the same terms
w exp(-t lambda), cut at t lambda = 746 where exp underflows to 0.0.  It is
kept only as a reference for the blocked sums and their rounding bound.
"""

from __future__ import annotations

import math

import numpy as np

from torsionlab.conekernel import Spectrum


def fsum_trace(spectrum: Spectrum, t_grid: np.ndarray) -> np.ndarray:
    ends = np.searchsorted(spectrum.lam, 746.0 / t_grid, side="right")
    return np.array([math.fsum(spectrum.weight[:n] * np.exp(-t * spectrum.lam[:n]))
                     for t, n in zip(t_grid, ends)])
