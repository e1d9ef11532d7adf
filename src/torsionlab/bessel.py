"""Bessel functions I_nu and J_nu, and enumeration of J_nu zeros.

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

J_nu (`jv`) is Miller's backward recurrence (Gautschi, SIAM Rev. 9 (1967)
24), for a whole array of orders and arguments in one pass.  With
nu = n + nu0, n = floor(nu) >= -1 and nu0 in [0, 1), the sequence
p_{j-1} = (2 (nu0 + j) / x) p_j - p_{j+1} runs down from p_{N+1} = 0,
p_N = 1, where N is the first even index >= max(x + 12 x^(1/3) + 24, n + 2):
there J_N(x) is below e^-40 of its size at the turning point N = x, so
p_j is proportional to J_{nu0+j}(x) to double precision wherever J is not
already negligible.  The Neumann series

    (x/2)^nu0 / Gamma(nu0 + 1) = J_nu0 + sum_{k>=1} (nu0 + 2k) (nu0+1)_{k-1} / k! J_{nu0+2k}

(at nu0 = 0, 1 = J_0 + 2 sum J_2k) gives the scale.  It is summed in the
same pass, with its coefficients run down from 1 at the start, so the only
Gamma value needed is one `math.lgamma(nu0 + 1)` per distinct nu0.  For
n = -1 the recurrence takes one more step, to J_{nu0-1}.  Whenever |p|
exceeds 1e250, p, the sum and the values already taken are divided by
1e250.  The elements are sorted by start index, so each step touches only
those already started.  Below x = 1e-40 `jv` takes the first term of the
ascending series instead, which is J_nu there to double precision.

Zeros of J_nu are found for many orders at once (`bessel_j_zeros_batch`).
One `jv` array call scans every order's grid of spacing pi/2 for sign
changes; consecutive zeros of any J_nu, nu >= 0, are farther apart than
that, so no zero can hide between grid points.  One vectorised Newton
iteration, seeded with the McMahon expansion and safeguarded by bisection,
then refines all brackets together, each stopping at its own termination
test.  The derivative is the recurrence J_nu' = J_{nu-1} - (nu/x) J_nu, one
more `jv` evaluation per step.  The test |step| <= 1e-15 x comes before the
bracket safeguard, so a converged step that lands on a bracket end is
accepted instead of bisected.  A zero is then as accurate as `jv` allows:
within 4e-16 relative of the true root plus the shift that `jv`'s own error
causes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

UNIFORM_MIN_ORDER = 30.0
UNIFORM_TERMS = 12
UNSCALED_Z_LIMIT = 50.0
ZERO_SCAN_STEP = math.pi / 2.0
# below this argument the first term of the ascending series is J_nu to
# double precision, and the recurrence's step factor 2 nu / x could overflow
LEADING_TERM_X = 1e-40
RESCALE = 1e250


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


def _lgamma(v: np.ndarray) -> np.ndarray:
    """log Gamma(v), one `math.lgamma` per distinct value."""
    u, inv = np.unique(v, return_inverse=True)
    return np.array([math.lgamma(w) for w in u.tolist()])[inv]


def jv(nu, x):
    """J_nu(x) for real nu >= -1 and finite x > 0; arrays broadcast.

    Miller's backward recurrence normalised by the Neumann series (see the
    module docstring); below x = 1e-40 the first term of the ascending
    series.  The cost grows linearly with max(x, nu).
    """
    if np.iscomplexobj(nu) or np.iscomplexobj(x):
        raise ValueError("jv needs a real order and argument")
    nu, x = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(x, dtype=float))
    if not np.all(np.isfinite(nu) & (nu >= -1.0)):
        raise ValueError("order nu must be finite and >= -1")
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise ValueError("argument x must be finite and positive")
    shape = nu.shape
    nu, x = nu.ravel(), x.ravel()
    out = np.empty(len(x))
    tiny = x < LEADING_TERM_X
    minus_one = tiny & (nu == -1.0)
    out[minus_one] = -0.5 * x[minus_one]            # J_{-1} = -J_1
    lead = tiny & ~minus_one
    out[lead] = np.exp(nu[lead] * np.log(0.5 * x[lead]) - _lgamma(nu[lead] + 1.0))
    out[~tiny] = _miller(nu[~tiny], x[~tiny])
    return out.reshape(shape)[()]


def _miller(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_nu(x) by Miller's backward recurrence, every element in one pass."""
    if not len(x):
        return x
    n = np.floor(nu)
    nu0 = nu - n
    n = n.astype(np.intp)
    start = np.maximum(np.ceil(x + 12.0 * np.cbrt(x) + 24.0), n + 2).astype(np.intp)
    start += start % 2
    # descending start index: at index j the started elements are a prefix
    order = np.argsort(-start, kind="stable")
    nu0, x, n, start = nu0[order], x[order], n[order], start[order]
    size = len(x)
    # the step never forms the factor 2 (nu0 + j) / x: a rounded 2 / x errs
    # alike at every j, a rounded nu0 + j alike across each binade of j, and
    # such errors add up, to 4e-14 to 5e-14 of the amplitude up to x = 600
    # against 1.2e-14 for this form (test_jv_step_rounding_does_not_add_up)
    half_x = 0.5 * x
    p_next, p, work = np.zeros(size), np.ones(size), np.empty(size)  # p_{j+1}, p_j
    total = np.zeros(size)      # Neumann sum, in the scale of p
    coef = np.ones(size)        # (nu0 + 1)_{k-1} / k! at j = 2k, 1 at the start
    val = np.zeros(size)
    scratch = np.empty(size)
    by_n = np.argsort(n, kind="stable")
    levels, firsts = np.unique(n[by_n], return_index=True)
    capture = dict(zip(levels.tolist(), np.split(by_n, firsts[1:])))
    last = -1 if levels[0] < 0 else 0
    index = range(int(start[0]), last - 1, -1)
    started = 0
    for j, live in zip(index, np.searchsorted(-start, -np.array(index), side="right").tolist()):
        if live > started:
            p_next[started:live] = 0.0
            p[started:live] = 1.0
            started = live
            v_nu0, v_half_x, v_total, v_coef, v_scratch = (
                a[:live] for a in (nu0, half_x, total, coef, scratch))
            v_next, v_p, v_work = p_next[:live], p[:live], work[:live]
        if j >= 2 and j % 2 == 0:
            k = j // 2
            np.add(v_nu0, j, out=v_work)
            v_work *= v_coef
            v_work *= v_p
            v_total += v_work
            if k >= 2:
                np.add(v_nu0, k - 1, out=v_scratch)
                np.divide(k, v_scratch, out=v_scratch)
                v_coef *= v_scratch
        elif j == 0:
            total += coef * p
        if j in capture:
            val[capture[j]] = p[capture[j]]
        if j == last:
            break
        # p_{j-1} = (j p_j + nu0 p_j) / (x/2) - p_{j+1}
        np.multiply(v_p, j, out=v_work)
        np.multiply(v_p, v_nu0, out=v_scratch)
        v_work += v_scratch
        v_work /= v_half_x
        v_work -= v_next
        p_next, p, work = p, work, p_next
        v_next, v_p, v_work = v_p, v_work, v_next
        if np.maximum.reduce(np.abs(v_p, out=v_scratch)) > RESCALE:
            big = v_scratch > RESCALE
            for arr in (v_next, v_p, v_total, val[:live]):
                arr[big] /= RESCALE
    j_nu = val * coef * np.exp(nu0 * np.log(half_x) - _lgamma(nu0 + 1.0)) / total
    out = np.empty(size)
    out[order] = j_nu
    return out


def jvp(nu, x):
    """J_nu'(x) = J_{nu-1}(x) - (nu/x) J_nu(x), for nu >= 0."""
    # the zero finder does not call this; it exists because
    # perfbench/layers.py wraps it beside `jv`
    nu = np.asarray(nu, dtype=float)
    return jv(nu - 1.0, x) - nu / x * jv(nu, x)


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
