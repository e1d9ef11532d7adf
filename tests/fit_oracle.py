"""Test oracle for `conekernel._trimmed_fit`'s trim loop.

`rebuilt_trim_fit` is how the fit trimmed before its weighted design was
built once: every trim step builds the design and the right-hand side
again on the shorter grid and solves them.  It is kept only as the
reference that the sliced design gives the same coefficients, bit for bit,
and the same trimmed sample count.  Its singular values are those of the
design with unit columns, where the fit takes its condition estimate.
"""

from __future__ import annotations

import numpy as np

from torsionlab.conekernel import _median, basis_column


def _solve_weighted(t, values, free, pins):
    w = t ** (-float(min(a for a, _ in free)))
    design = np.column_stack([w * basis_column(t, *key) for key in free])
    rhs = values
    for alpha, c in pins.items():
        rhs = rhs - c * basis_column(t, alpha, False)
    rhs = w * rhs
    coeff = np.linalg.lstsq(design, rhs, rcond=None)[0]
    # the condition is taken on unit columns, as in the fit
    sing = np.linalg.svd(design / np.linalg.norm(design, axis=0), compute_uv=False)
    rel_resid = np.abs((design @ coeff - rhs) / w) / np.abs(values)
    return coeff, sing, rel_resid


def rebuilt_trim_fit(t, values, free, pins) -> tuple[np.ndarray, np.ndarray, int]:
    """Coefficients, unit-column singular values and trimmed sample count
    of the fit of `values` minus the pinned terms in the `free` columns."""
    n = len(t)
    coeff, sing, rel_resid = _solve_weighted(t, values, free, pins)
    while n > 2 * len(free) and rel_resid[-1] > 10.0 * max(_median(rel_resid), 1e-13):
        n -= 1
        coeff, sing, rel_resid = _solve_weighted(t[:n], values[:n], free, pins)
    return coeff, sing, n
