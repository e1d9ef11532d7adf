"""Bessel functions I_nu, J_nu and K_nu, and enumeration of J_nu zeros.

I_nu is its ascending series: all terms are positive, so no cancellation
enters; the sum is compensated, and rescaled periodically so that
arbitrarily large sums never overflow.  It takes about z/2 terms (5,434
and about 1 ms at z = 1e4).  The U_k polynomials of the uniform large-order
expansion (DLMF 10.41.10) are generated exactly by their integral
recurrence (`_u_polynomials`), for the Debye coefficients of the contour
method; no evaluator reads them.

J_nu (`jv`) is Miller's backward recurrence (Gautschi, SIAM Rev. 9 (1967)
24), for a whole array of orders and arguments in one pass.  With
nu = n + nu0, n = floor(nu) >= -1 and nu0 in [0, 1), the sequence
p_{j-1} = (2 (nu0 + j) / x) p_j - p_{j+1} runs down from p_{N+1} = 0,
p_N = 1, where N is the first even index >= max(x + 12 x^(1/3) + 24, n + 2):
there J_N(x) is below e^-40 of its size at the turning point N = x, so
p_j is proportional to J_{nu0+j}(x) to double precision wherever J is not
already negligible.  Exactly, p_j = A J_{nu0+j}(x) + B Y_{nu0+j}(x), with
A = -(pi x / 2) Y_{N+1}(x) > 0 and B / A = -J_{N+1}(x) / Y_{N+1}(x), about
e^-80, by the Wronskian J_N Y_{N+1} - J_{N+1} Y_N = -2 / (pi x).  The
recurrence (`_backward`) exists once, and has two readers.  The Neumann
series

    (x/2)^nu0 / Gamma(nu0 + 1) = J_nu0 + sum_{k>=1} (nu0 + 2k) (nu0+1)_{k-1} / k! J_{nu0+2k}

(at nu0 = 0, 1 = J_0 + 2 sum J_2k) gives the scale.  It is summed in the
same pass, with its coefficients run down from 1 at the start, so the only
Gamma value needed is one `math.lgamma(nu0 + 1)` per distinct nu0: this
scale is what `jv` adds to p_n.  For n = -1 the recurrence takes one more
step, to J_{nu0-1}.  Whenever |p| exceeds 1e250, p, the sum and the values
already taken are divided by 1e250.  The elements are sorted by start
index, so each step touches only those already started.  Below x = 1e-40
`jv` takes the first term of the ascending series instead, which is J_nu
there to double precision.

The zero finder needs only the sign of J_nu and the ratio J_nu / J_nu',
so it reads the recurrence unnormalised (`_j_pair`): the same start N and
steps, stopped at index n - 1, with no Neumann sum, no `lgamma` and no
exp/log scale.  p_n and p_{n-1} are A J_nu and A J_{nu-1} with one A > 0
per element, so their signs are `jv`'s.  The ratio differs from the one
`jv(nu, x)` and `jv(nu - 1, x)` give only by rounding: of `jv`'s scale,
and below nu = 1/2 of nu - 1 (8.4e-16 relative at most on the finder's
inputs).  A batch's loop stops at its lowest n - 1; each element is read
at its own.

Zeros of J_nu are found for many orders at once (`bessel_j_zeros_batch`).
One recurrence pass scans every order's grid for sign changes, with a step
that consecutive zeros always exceed, so no two zeros share a grid
interval and none can hide between grid points.  The step is pi/2 below
nu = 1: consecutive zeros of any J_nu, nu >= 0, are farther apart than
that.  From nu = 1 on it is pi.  u = sqrt(x) J_nu solves
u'' + (1 - (nu^2 - 1/4)/x^2) u = 0, so by Sturm comparison with sin (Watson,
A Treatise on the Theory of Bessel Functions, ch. XV) zeros of J_nu below
X lie more than pi + (4 nu^2 - 1) pi / (8 X^2) apart for nu > 1/2.  At
nu = 1 and X = 1e4 that margin is 1e-8, far above the 7e-12 by which the
computed grid's steps can exceed pi there; past z_max = 1e4 every order
keeps the pi/2 step.  The k-th bracket of an
order nu >= 1 is seeded by Olver's uniform expansion of j_{nu,k} in the
zeros of Ai (DLMF 10.21(viii)), within 7e-4 relative and mostly within
1e-5; below nu = 1 by McMahon's expansion.  One vectorised Halley
iteration, safeguarded by bisection, then refines all brackets together.
A round is one pass, whose J_nu and J_{nu-1} give J_nu' up to the same
factor; Bessel's equation gives J_nu'' for free.  Halley's error constant
at a zero of J_nu is 1/6 - (2 nu^2 + 1)/(12 x^2), below 1/6 in size, so
once a step s has |s|^3 <= 1e-18 x, x - s is the root to 2e-19 relative
and the element stops without another evaluation: most zeros take one
round.  This test comes before the bracket safeguard, so a converged step
that lands on a bracket end is accepted instead of bisected.  A zero is
then as accurate as the recurrence allows, within 2.5e-16 relative of the
true root in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

UNSCALED_Z_LIMIT = 50.0
ZERO_SCAN_STEP = math.pi / 2.0
# orders from WIDE_SCAN_MIN_ORDER on scan with step pi up to WIDE_SCAN_MAX_Z
# (see the module docstring)
WIDE_SCAN_MIN_ORDER = 1.0
WIDE_SCAN_MAX_Z = 1e4
# below this argument the first term of the ascending series is J_nu to
# double precision, and the recurrence's step factor 2 nu / x could overflow
LEADING_TERM_X = 1e-40
RESCALE = 1e250
AIRY_A1 = -2.338107410459767    # first two zeros of Ai, DLMF Table 9.9.1
AIRY_A2 = -4.08794944413097


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
    return _series_i(nu, z, scaled)


def bessel_k(nu: float, x) -> np.ndarray:
    """K_nu(x) for nu >= 0 and finite x > 0, on an array: at half-integer
    nu the closed form, K_1/2 = K_-1/2 = sqrt(pi / 2x) e^-x and K_{nu+1} =
    K_{nu-1} + (2 nu / x) K_nu; otherwise the trapezoid rule with step
    h = 0.02 on int_0^inf e^{-x cosh t} cosh(nu t) dt (DLMF 10.32.9), up to
    x (cosh T - 1) = 64 for the least x.  The integrand is analytic in
    |Im t| < pi/2, so the rule's error falls like e^{-pi^2 / h} (Trefethen
    and Weideman, SIAM Rev. 56 (2014) 385): what is left is rounding.
    """
    x = np.asarray(x, dtype=float)
    if not (math.isfinite(nu) and nu >= 0.0):
        raise ValueError(f"bessel_k needs a finite order nu >= 0, got {nu}")
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise ValueError("bessel_k needs finite x > 0")
    if (nu - 0.5).is_integer():
        below = k = np.sqrt(math.pi / (2.0 * x)) * np.exp(-x)
        for order in np.arange(0.5, nu):
            below, k = k, below + (2.0 * order / x) * k
        return k
    h, stop = 0.02, math.acosh(1.0 + 64.0 / float(np.min(x, initial=math.inf)))
    total = 0.5 * np.exp(-x)
    for t in h * np.arange(1, math.ceil(stop / h) + 1):
        total += np.exp(-x * math.cosh(t)) * math.cosh(nu * t)
    return h * total


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


def _start(nu: np.ndarray, x: np.ndarray):
    """Each element's split nu = n + nu0 and start index N (module
    docstring), sorted by descending N as `_backward` needs.  Returns the
    sort order and the sorted nu0, x/2, n and N."""
    n = np.floor(nu)
    nu0 = nu - n
    n = n.astype(np.intp)
    start = np.maximum(np.ceil(x + 12.0 * np.cbrt(x) + 24.0), n + 2).astype(np.intp)
    start += start % 2
    # descending start index: at index j the started elements are a prefix
    order = np.argsort(-start, kind="stable")
    return order, nu0[order], 0.5 * x[order], n[order], start[order]


def _at_index(idx: np.ndarray) -> dict[int, np.ndarray]:
    """{j: the positions whose idx is j}."""
    by_idx = np.argsort(idx, kind="stable")
    levels, firsts = np.unique(idx[by_idx], return_index=True)
    return dict(zip(levels.tolist(), np.split(by_idx, firsts[1:])))


def _backward(nu0, half_x, start, last, carry=()):
    """The backward recurrence of every element at once, from p_{N+1} = 0,
    p_N = 1 down to index `last`; elements sorted by descending N.

    Yields (j, live, p_next, p) at j = N_0, N_0 - 1, ..., last: the first
    `live` elements have started, and p[:live], p_next[:live] hold their
    p_j and p_{j+1}.  The buffers are reused, so a caller copies what it
    keeps.  Whenever |p_j| exceeds RESCALE, that element's p_j, p_{j+1} and
    entries of the `carry` arrays are divided by RESCALE.
    """
    size = len(start)
    # the step never forms the factor 2 (nu0 + j) / x: a rounded 2 / x errs
    # alike at every j, a rounded nu0 + j alike across each binade of j, and
    # such errors add up, to 4e-14 to 5e-14 of the amplitude up to x = 600
    # against 1.2e-14 for this form (test_jv_step_rounding_does_not_add_up)
    p_next, p, work = np.zeros(size), np.ones(size), np.empty(size)  # p_{j+1}, p_j
    scratch = np.empty(size)
    index = range(int(start[0]), last - 1, -1)
    started = 0
    for j, live in zip(index, np.searchsorted(-start, -np.array(index), side="right").tolist()):
        if live > started:
            p_next[started:live] = 0.0
            p[started:live] = 1.0
            started = live
            v_nu0, v_half_x, v_scratch = nu0[:live], half_x[:live], scratch[:live]
            v_carry = tuple(a[:live] for a in carry)
            v_next, v_p, v_work = p_next[:live], p[:live], work[:live]
        yield j, live, p_next, p
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
            for arr in (v_next, v_p) + v_carry:
                arr[big] /= RESCALE


def _miller(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_nu(x) by Miller's backward recurrence, every element in one pass,
    normalised by the Neumann sum."""
    if not len(x):
        return x
    order, nu0, half_x, n, start = _start(nu, x)
    size = len(x)
    total = np.zeros(size)      # Neumann sum, in the scale of p
    coef = np.ones(size)        # (nu0 + 1)_{k-1} / k! at j = 2k, 1 at the start
    val = np.zeros(size)
    work, scratch = np.empty(size), np.empty(size)
    capture = _at_index(n)
    last = -1 if n.min() < 0 else 0
    for j, live, _, p in _backward(nu0, half_x, start, last, carry=(total, val)):
        if j >= 2 and j % 2 == 0:
            k = j // 2
            v_coef, v_work, v_scratch = coef[:live], work[:live], scratch[:live]
            np.add(nu0[:live], j, out=v_work)
            v_work *= v_coef
            v_work *= p[:live]
            total[:live] += v_work
            if k >= 2:
                np.add(nu0[:live], k - 1, out=v_scratch)
                np.divide(k, v_scratch, out=v_scratch)
                v_coef *= v_scratch
        elif j == 0:
            total += coef * p
        if j in capture:
            val[capture[j]] = p[capture[j]]
    j_nu = val * coef * np.exp(nu0 * np.log(half_x) - _lgamma(nu0 + 1.0)) / total
    out = np.empty(size)
    out[order] = j_nu
    return out


def _j_pair(nu: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c J_nu(x), c J_{nu-1}(x)) for 1-d arrays, nu >= 0 and x >= 1e-40,
    with one positive factor c per element: the recurrence from jv's start
    N, read at index n - 1, with no normalisation (module docstring).  Its
    signs are jv's, and J_nu / J_nu' is jv's to rounding."""
    order, nu0, half_x, n, start = _start(nu, x)
    f, g = np.empty(len(x)), np.empty(len(x))
    capture = _at_index(n - 1)
    for j, _, p_next, p in _backward(nu0, half_x, start, int(n.min()) - 1):
        if j in capture:
            at = capture[j]
            f[order[at]], g[order[at]] = p_next[at], p[at]
    return f, g


def jvp(nu, x):
    """J_nu'(x) = J_{nu-1}(x) - (nu/x) J_nu(x), for nu >= 0."""
    # the zero finder does not call this; it exists because
    # perfbench/layers.py wraps it beside `jv`
    nu = np.asarray(nu, dtype=float)
    return jv(nu - 1.0, x) - nu / x * jv(nu, x)


def mcmahon_zero(nu, k):
    """McMahon expansion for the k-th positive zero of J_nu; arrays broadcast."""
    beta = (k + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    b8 = 8.0 * beta
    return (beta
            - (mu - 1.0) / b8
            - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8 ** 3)
            - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * b8 ** 5))


def _airy_zero(k: np.ndarray) -> np.ndarray:
    """a_k, the k-th zero of Ai: -T(3 pi (4k - 1) / 8) (DLMF 9.9.6, 9.9.18).

    T's asymptotic series errs by 2.3e-4 relative at k = 1 and 2e-7 at
    k = 2, enough to cost a second Halley round for most of those zeros, so
    a_1 and a_2 are the tabulated values (DLMF Table 9.9.1).  From k = 3 on
    the series, to its t^-8 term, errs by less than 3e-9.
    """
    t = 3.0 * math.pi * (4.0 * k - 1.0) / 8.0
    u = t ** -2.0
    a = -t ** (2.0 / 3.0) * (1.0 + u * (5.0 / 48.0 + u * (-5.0 / 36.0 + u * (
        77125.0 / 82944.0 - u * 108056875.0 / 6967296.0))))
    return np.where(k == 1, AIRY_A1, np.where(k == 2, AIRY_A2, a))


def _uniform_zero(nu: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Olver's uniform seed for j_{nu,k}, nu >= 1 (DLMF 10.21.41-43).

    j_{nu,k} ~ nu z(zeta) + f1(zeta) / nu with zeta = nu^(-2/3) a_k < 0, where
    z > 1 solves sqrt(z^2 - 1) - arcsec z = (2/3)(-zeta)^(3/2).  In
    s = sqrt(z^2 - 1) that is g(s) = s - arctan s - w = 0; g is increasing
    and convex for s > 0 and g(w + pi/2) > 0, so Newton from s = w + pi/2
    decreases monotonically to the root.  f1 = z h^2 b0 / 2 with
    h^2 = 2 sqrt(-zeta) / s and
    b0 = -5 / (48 zeta^2) + (-zeta)^(-1/2) (5 / (24 s^3) + 1 / (8 s)).
    """
    mzeta = -_airy_zero(k) * nu ** (-2.0 / 3.0)
    w = (2.0 / 3.0) * mzeta ** 1.5
    s = w + 0.5 * math.pi
    # each element stops on its own test, so a seed does not depend on its batch
    active = np.arange(len(s))
    while len(active):
        sa = s[active]
        ds = (sa - np.arctan(sa) - w[active]) * (1.0 + sa * sa) / (sa * sa)
        s[active] = sa - ds
        active = active[ds > 1e-13 * s[active]]
    z = np.hypot(1.0, s)
    b0 = -5.0 / (48.0 * mzeta * mzeta) + (5.0 / (24.0 * s ** 3) + 1.0 / (8.0 * s)) / np.sqrt(mzeta)
    f1 = z * np.sqrt(mzeta) / s * b0
    return nu * z + f1 / nu


def _zero_seeds(nu: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Seeds for j_{nu,k}: Olver's uniform expansion for nu >= 1, McMahon below."""
    seed = np.empty(len(nu))
    uniform = nu >= 1.0
    seed[uniform] = _uniform_zero(nu[uniform], k[uniform])
    seed[~uniform] = mcmahon_zero(nu[~uniform], k[~uniform])
    return seed


def _newton_batch(nu: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  f_lo: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """Halley with bisection fallback, one sign-changing bracket per element.

    All brackets advance together; a round costs one `_j_pair` pass for
    f = c J_nu and c J_{nu-1}, c > 0, which give f' = c J_{nu-1} - (nu/x) f.
    Bessel's equation gives f'' = -f'/x - (1 - nu^2/x^2) f for free, and
    with r = f/f' Halley's step s = r / (1 - r f''/(2 f')) is

        s = r / (1 + r/(2x) + (1 - nu^2/x^2) r^2/2).

    Near a simple root, an iterate off by e lands off by K e^3, with
    K = (f''/(2 f'))^2 - f'''/(6 f') at the root.  There f = 0, so
    f'' = -f'/x and, differentiating the equation once more,
    f''' = f' ((nu^2 + 2)/x^2 - 1); hence K = 1/6 - (2 nu^2 + 1)/(12 x^2).
    A zero lies beyond nu and beyond j_{0,1} > 1, so 0 < 2 nu^2 + 1 < 4 x^2
    and |K| < 1/6.  Once |s|^3 <= 1e-18 x, the step is the error to leading
    order and x - s is the root within |s|^3/6 <= 2e-19 x: the element
    leaves with x - s, without another evaluation.  It also leaves at an
    exact root, or when bisection has shrunk its bracket below 1e-15 x.
    The acceptance test comes before the bracket safeguard: a converged
    step may land on the bracket end that the previous iterate just became,
    and must not be thrown away for a bisection.
    """
    x = np.where((lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
    out = np.empty_like(x)
    idx = np.arange(len(x))
    lo_pos = f_lo > 0
    for _ in range(60):
        if not len(idx):
            break
        fx, gx = _j_pair(nu, x)
        on_lo = (fx > 0) == lo_pos
        lo = np.where(on_lo, x, lo)
        hi = np.where(on_lo, hi, x)
        dfx = gx - nu / x * fx
        with np.errstate(divide="ignore", invalid="ignore"):
            r = fx / dfx
            halley = r / (1.0 + r / (2.0 * x) + 0.5 * (1.0 - (nu / x) ** 2) * r * r)
        step = np.where(dfx != 0, halley, hi - lo)
        x_new = x - step
        converged = np.abs(step) ** 3 <= 1e-18 * x
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


def zero_scan_step(nus, z_max: float) -> np.ndarray:
    """Each order's sign-change scan step up to z_max: pi for
    WIDE_SCAN_MIN_ORDER <= nu when z_max <= WIDE_SCAN_MAX_Z, else pi/2."""
    wide = (np.asarray(nus, dtype=float) >= WIDE_SCAN_MIN_ORDER) & (z_max <= WIDE_SCAN_MAX_Z)
    return np.where(wide, math.pi, ZERO_SCAN_STEP)


def bessel_j_zeros_batch(nus, z_max: float) -> tuple[np.ndarray, np.ndarray]:
    """All positive zeros up to z_max of J_nu for each nu in `nus`, as one
    flat array and the per-order counts: the zeros of `nus[0]` ascending,
    then those of `nus[1]`, and so on.  An order with no zero up to z_max
    counts 0.

    One `_j_pair` pass scans every order's grid, of step `zero_scan_step`,
    for sign changes; a grid point where J_nu is exactly 0 is a zero.  The
    k-th bracket of an order is seeded by `_zero_seeds`, and all brackets
    are refined together by `_newton_batch`'s Halley iteration; a zero not
    above its order raises.  Each order is solved on its own, so its zeros
    do not depend on the other orders of the batch.
    """
    nus = np.asarray(nus, dtype=float)
    if not np.all(nus >= 0.0):
        raise ValueError("order nu must be nonnegative")
    if not math.isfinite(z_max):
        raise ValueError("z_max must be finite")
    # each order's grid is np.arange(start, z_max + step, step), built for
    # all orders at once with arange's own length and fill,
    # start + i ((start + step) - start), which is not start + i step
    start = np.maximum(nus, 1e-8)
    step = zero_scan_step(nus, z_max)
    sizes = np.where(z_max > nus, np.ceil((z_max + step - start) / step), 0.0).astype(np.intp)
    if not sizes.sum():
        return np.empty(0), np.zeros(len(nus), dtype=np.intp)
    order = np.repeat(np.arange(len(nus)), sizes)
    ends = np.cumsum(sizes)
    i = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
    grid = start[order] + i * ((start + step) - start)[order]
    nu_at = nus[order]
    vals, _ = _j_pair(nu_at, grid)
    signs = np.sign(vals)
    # a bracket [grid[i], grid[i + 1]] never crosses from one order to the next
    last = np.zeros(len(grid), dtype=bool)
    last[ends[sizes > 0] - 1] = True
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
    zeros[bracket] = _newton_batch(nu_at[b], grid[b], grid[b + 1], vals[b],
                                   _zero_seeds(nu_at[b], k[bracket]))
    if np.any(zeros <= nu_at[at]):
        raise RuntimeError(f"zeros {zeros[zeros <= nu_at[at]]} not above their orders")
    keep = zeros <= z_max
    return zeros[keep], np.bincount(order[at][keep], minlength=len(nus))


def bessel_j_zeros(nu: float, z_max: float) -> list[float]:
    """All positive zeros of J_nu up to z_max, ascending (see the batch)."""
    return bessel_j_zeros_batch([nu], z_max)[0].tolist()
