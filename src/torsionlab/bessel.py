"""Modified Bessel function I_nu and enumeration of J_nu zeros.

I_nu is computed from scratch in two regimes chosen so both are free of
cancellation:

* ascending series (all terms positive, compensated summation, periodic
  rescaling so arbitrarily large sums never overflow), used whenever the
  uniform expansion is not safely applicable;
* uniform large-order asymptotics in 1/nu (DLMF 10.41.3) for nu >= 30 and
  z > nu^2/10, with the U_k polynomials generated exactly by their
  integral recurrence at import time.

The two regimes overlap on a strip around z = nu^2/10 where they agree to
better than 1e-11; `bessel_i` switches between them there.

Zeros of J_nu are enumerated by a sign-change scan with grid spacing pi/2
(consecutive zeros of any J_nu, nu >= 0, are farther apart than that, so no
zero can hide between grid points), each bracket refined by a Newton
iteration seeded with the McMahon expansion.  The J_nu evaluations inside
the finder use scipy; the ascending J series below is kept as a separate
small-argument evaluator for independent cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import jv, jvp

UNIFORM_MIN_ORDER = 30.0
UNIFORM_TERMS = 12
UNSCALED_Z_LIMIT = 50.0
ZERO_SCAN_STEP = math.pi / 2.0


def _u_polynomials(n: int) -> list[list[Fraction]]:
    """Coefficient lists of the U_k(p) polynomials, exact rationals.

    U_0 = 1 and U_{k+1} = p^2(1-p^2)/2 U_k' + (1/8) int_0^p (1-5t^2) U_k dt.
    """
    polys = [[Fraction(1)]]
    for _ in range(n):
        u = polys[-1]
        deriv = [Fraction(0)] * max(len(u) - 1, 1)
        for j, c in enumerate(u[1:], start=1):
            deriv[j - 1] = j * c
        # p^2(1-p^2)/2 * deriv
        first = [Fraction(0)] * (len(deriv) + 4)
        for j, c in enumerate(deriv):
            first[j + 2] += c / 2
            first[j + 4] -= c / 2
        # (1/8) * int_0^p (1 - 5 t^2) u(t) dt
        second = [Fraction(0)] * (len(u) + 3)
        for j, c in enumerate(u):
            second[j + 1] += c / (8 * (j + 1))
            second[j + 3] -= 5 * c / (8 * (j + 3))
        out = [Fraction(0)] * max(len(first), len(second))
        for j, c in enumerate(first):
            out[j] += c
        for j, c in enumerate(second):
            out[j] += c
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        polys.append(out)
    return polys


_U_FLOAT = [[float(c) for c in poly] for poly in _u_polynomials(UNIFORM_TERMS)]


def _series_i(nu: float, z: float, scaled: bool) -> float:
    """Ascending series; valid everywhere, cost grows like z/2 terms."""
    q = 0.25 * z * z
    term = 1.0
    total = 1.0
    comp = 0.0          # Kahan compensation
    log_scale = 0.0
    m = 0
    while True:
        m += 1
        term *= q / (m * (nu + m))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term < 1e-18 * total:
            break
        if total > 1e280:
            total *= 1e-280
            term *= 1e-280
            comp *= 1e-280
            log_scale += 280.0 * math.log(10.0)
        if m > 200000:
            raise RuntimeError("ascending series failed to converge")
    log_pre = nu * math.log(0.5 * z) - math.lgamma(nu + 1.0)
    expo = log_pre + log_scale + (-z if scaled else 0.0)
    return math.exp(expo) * total if abs(expo) < 680 else math.exp(expo + math.log(total))


def _uniform_i(nu: float, z: float, scaled: bool) -> float:
    """Uniform large-order expansion, in the exponentially scaled form.

    The exponent nu*eta - z is assembled from sqrt(1+w^2) - w written as
    1/(sqrt(1+w^2)+w), so no large-cancellation ever enters the exp.
    """
    w = z / nu
    r = math.hypot(1.0, w)
    p = 1.0 / r
    series = 0.0
    for k in range(UNIFORM_TERMS, -1, -1):
        coeffs = _U_FLOAT[k]
        uk = 0.0
        for c in reversed(coeffs):
            uk = uk * p + c
        series = series / nu + uk
    pre = 1.0 / math.sqrt(2.0 * math.pi * nu * r)
    if scaled:
        exponent = nu / (r + w) + nu * math.log(w / (1.0 + r))
    else:
        exponent = nu * (r + math.log(w / (1.0 + r)))
    return pre * math.exp(exponent) * series


def bessel_i(nu: float, z: float, scaled: bool = False) -> float:
    """I_nu(z), or e^{-z} I_nu(z) when `scaled`.

    Relative accuracy better than 1e-12 for nu in [0, 200], z in (0, 1e4]
    (scaled form; the unscaled form is restricted to z <= 50 where it
    cannot overflow).
    """
    if nu < 0:
        raise ValueError("order nu must be nonnegative")
    if z <= 0:
        raise ValueError("argument z must be positive")
    if not scaled and z > UNSCALED_Z_LIMIT:
        raise ValueError(f"use scaled=True for z > {UNSCALED_Z_LIMIT}")
    if nu >= UNIFORM_MIN_ORDER and z > nu * nu / 10.0:
        return _uniform_i(nu, z, scaled)
    return _series_i(nu, z, scaled)


def bessel_j_series(nu: float, z: float) -> float:
    """Ascending series for J_nu; small arguments only (z <= ~18).

    Alternating terms limit double-precision accuracy for larger z; kept
    as an implementation-independent cross-check evaluator.
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


def mcmahon_zero(nu: float, k: int) -> float:
    """McMahon expansion for the k-th positive zero of J_nu."""
    beta = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    b8 = 8.0 * beta
    return (beta
            - (mu - 1.0) / b8
            - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8 ** 3)
            - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * b8 ** 5))


def _polish_zero(nu: float, lo: float, hi: float, guess: float) -> float:
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


def bessel_j_zeros(nu: float, z_max: float) -> list[float]:
    """All positive zeros of J_nu up to z_max, ascending.

    A cutoff below the first zero yields an empty list.  Each zero is
    accurate to ~1e-13 relative; none can be skipped because the scan step
    is below the minimal spacing of consecutive zeros.
    """
    if nu < 0:
        raise ValueError("order nu must be nonnegative")
    if z_max <= nu:
        return []
    start = max(nu, 1e-8)
    grid = np.arange(start, z_max + ZERO_SCAN_STEP, ZERO_SCAN_STEP)
    vals = jv(nu, grid)
    signs = np.sign(vals)
    zeros: list[float] = []
    k = 0
    for i in range(len(grid) - 1):
        if signs[i] == 0.0:
            zeros.append(float(grid[i]))
            k += 1
            continue
        if signs[i] * signs[i + 1] < 0:
            k += 1
            zeros.append(_polish_zero(nu, float(grid[i]), float(grid[i + 1]),
                                      mcmahon_zero(nu, k)))
    return [z for z in zeros if z <= z_max]
