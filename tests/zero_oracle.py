"""Test oracles for J_nu: the ascending series, bisection, and the scalar
Bessel-zero finder, one order and one zero at a time.

The series is a small-argument J evaluator independent of both scipy's
`jv` and the package's recurrence.

The finder is the one `torsionlab.bessel` used before its zeros were
computed in one batch: a sign-change scan with grid step pi/2, then per
bracket a Newton iteration with bisection fallback, seeded by McMahon's
expansion and using scipy's `jv` and `jvp`.  Its termination test comes
after the bracket safeguard, so a Newton step that lands on a bracket end
is bisected; that costs iterations, not correctness.  It is kept only as
an independent reference for `bessel_j_zeros_batch`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import jv, jvp

from torsionlab.bessel import ZERO_SCAN_STEP, mcmahon_zero


def bessel_j_series(nu: float, z: float) -> float:
    """Ascending series for J_nu; small arguments only (z <= ~18).

    Alternating terms limit double-precision accuracy for larger z.
    """
    if z < 0:
        raise ValueError("argument must be nonnegative")
    if z > 18.0:
        raise ValueError("series evaluator limited to z <= 18")
    q = -0.25 * z * z
    term = 1.0
    total = 1.0
    for m in range(1, 120):
        term *= q / (m * (nu + m))
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return math.exp(nu * math.log(0.5 * z) - math.lgamma(nu + 1.0)) * total if z > 0 \
        else (1.0 if nu == 0 else 0.0)


def bisect_zero(fn, lo, hi):
    """A zero of fn in [lo, hi], where fn changes sign, by 80 bisections."""
    f_lo = fn(lo)
    assert f_lo * fn(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def polish_zero(nu: float, lo: float, hi: float, guess: float) -> float:
    """Newton with bisection fallback inside a sign-changing bracket."""
    f_lo = jv(nu, lo)
    x = guess if lo < guess < hi else 0.5 * (lo + hi)
    for _ in range(60):
        fx = jv(nu, x)
        if fx == 0.0:
            return x
        if (fx > 0) == (f_lo > 0):
            lo = x
        else:
            hi = x
        dfx = jvp(nu, x)
        step = fx / dfx if dfx != 0 else hi - lo
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 * x:
            return x_new
        x = x_new
    return x


def oracle_zeros(nu: float, z_max: float, step: float = ZERO_SCAN_STEP) -> list[float]:
    """All positive zeros of J_nu up to z_max, ascending, scanned with `step`."""
    if nu < 0:
        raise ValueError("order nu must be nonnegative")
    if z_max <= nu:
        return []
    grid = np.arange(max(nu, 1e-8), z_max + step, step)
    signs = np.sign(jv(nu, grid))
    zeros: list[float] = []
    k = 0
    for i in range(len(grid) - 1):
        if signs[i] == 0.0:
            zeros.append(float(grid[i]))
            k += 1
            continue
        if signs[i] * signs[i + 1] < 0:
            k += 1
            zeros.append(float(polish_zero(nu, float(grid[i]), float(grid[i + 1]),
                                           mcmahon_zero(nu, k))))
    return [z for z in zeros if z <= z_max]
