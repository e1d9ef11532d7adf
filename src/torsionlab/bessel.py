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

Zeros of J_nu are found for many orders at once (`bessel_j_zeros_batch`).
One `jv` array call scans every order's grid of spacing pi/2 for sign
changes; consecutive zeros of any J_nu, nu >= 0, are farther apart than
that, so no zero can hide between grid points.  One vectorised Newton
iteration, seeded with the McMahon expansion and safeguarded by bisection,
then refines all brackets together, each stopping at its own termination
test.  The derivative is the recurrence J_nu' = J_{nu-1} - (nu/x) J_nu, one
more `jv` evaluation per step.  The test |step| <= 1e-15 x comes before the
bracket safeguard, so a converged step that lands on a bracket end is
accepted instead of bisected.  A zero is then as accurate as scipy's `jv`
allows: within 4e-16 relative of the true root plus the shift that `jv`'s
own error causes.  The J_nu evaluations inside the finder use scipy; the
ascending J series below is kept as a separate small-argument evaluator for
independent cross-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
# every J_nu evaluation goes through the module attribute `jv`, so a call
# counter can wrap it; `jvp` is no longer called but stays an attribute for
# counters that wrap both (perfbench/layers.py)
from scipy.special import jv, jvp  # noqa: F401

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


def _newton_batch(nu: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  f_lo: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """Newton with bisection fallback, one sign-changing bracket per element.

    All brackets advance together; a round costs one `jv` array call for
    J_nu and one for J_{nu-1}, which gives J_nu' = J_{nu-1} - (nu/x) J_nu.
    An element leaves the batch once its Newton step is below 1e-15 x, or at
    an exact root, or when its bracket has shrunk below 1e-15 x.  The step
    test comes before the bracket safeguard: a converged step may land on
    the bracket end that the previous iterate just became, and must not be
    thrown away for a bisection.
    """
    x = np.where((lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
    out = np.empty_like(x)
    idx = np.arange(len(x))
    lo_pos = f_lo > 0
    for _ in range(60):
        if not len(idx):
            break
        fx = jv(nu, x)
        on_lo = (fx > 0) == lo_pos
        lo = np.where(on_lo, x, lo)
        hi = np.where(on_lo, hi, x)
        dfx = jv(nu - 1.0, x) - nu / x * fx
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dfx != 0, fx / dfx, hi - lo)
        x_new = x - step
        converged = np.abs(step) <= 1e-15 * x
        outside = ~converged & ~((lo < x_new) & (x_new < hi))
        x_new[outside] = 0.5 * (lo[outside] + hi[outside])
        exact = fx == 0.0
        x_new[exact] = x[exact]
        done = converged | (np.abs(x_new - x) <= 1e-15 * x)
        out[idx[done]] = x_new[done]
        keep = ~done
        idx, nu, lo, hi, lo_pos, x = (idx[keep], nu[keep], lo[keep], hi[keep],
                                      lo_pos[keep], x_new[keep])
    out[idx] = x
    return out


def bessel_j_zeros_batch(nus, z_max: float) -> list[list[float]]:
    """All positive zeros up to z_max of J_nu for each nu in `nus`, ascending.

    One `jv` array call scans every order's pi/2 grid for sign changes; a
    grid point where J_nu is exactly 0 is a zero.  All brackets are then
    refined together by `_newton_batch`, seeded with McMahon's expansion.
    An order with no zero up to z_max gets an empty list.
    """
    nus = [float(nu) for nu in nus]
    if any(nu < 0 for nu in nus):
        raise ValueError("order nu must be nonnegative")
    grids = [np.arange(max(nu, 1e-8), z_max + ZERO_SCAN_STEP, ZERO_SCAN_STEP)
             if z_max > nu else np.empty(0) for nu in nus]
    sizes = np.array([len(g) for g in grids], dtype=np.intp)
    if not sizes.sum():
        return [[] for _ in nus]
    order = np.repeat(np.arange(len(nus)), sizes)
    nu_at = np.repeat(np.array(nus), sizes)
    grid = np.concatenate(grids)
    vals = jv(nu_at, grid)
    signs = np.sign(vals)
    # a bracket [grid[i], grid[i + 1]] never crosses from one order to the next
    last = np.zeros(len(grid), dtype=bool)
    last[np.cumsum(sizes)[sizes > 0] - 1] = True
    exact = (signs == 0.0) & ~last
    change = np.zeros(len(grid), dtype=bool)
    change[:-1] = (signs[:-1] * signs[1:] < 0) & ~last[:-1]
    at = np.flatnonzero(exact | change)
    # k: the index of each zero within its order
    first = np.searchsorted(order[at], order[at], side="left")
    k = np.arange(len(at)) - first + 1
    zeros = grid[at]
    bracket = change[at]
    b = at[bracket]
    guess = np.array([mcmahon_zero(nu, kk)
                      for nu, kk in zip(nu_at[b].tolist(), k[bracket].tolist())])
    zeros[bracket] = _newton_batch(nu_at[b], grid[b], grid[b + 1], vals[b], guess)
    keep = zeros <= z_max
    counts = np.bincount(order[at][keep], minlength=len(nus))
    return [part.tolist() for part in np.split(zeros[keep], np.cumsum(counts)[:-1])]


def bessel_j_zeros(nu: float, z_max: float) -> list[float]:
    """All positive zeros of J_nu up to z_max, ascending (see the batch)."""
    return bessel_j_zeros_batch([nu], z_max)[0]
