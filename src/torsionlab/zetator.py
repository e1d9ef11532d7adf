"""Zeta regularization near s = 0 and analytic-torsion assembly.

The Mellin transform of a heat trace splits at a point T0 (default 1):

* on (0, T0) the fitted expansion integrates in closed form, term by term
  (t^a -> T0^{s+a}/(s+a), with an extra -1/(s+a)^2 for log terms); the
  remainder trace-minus-model is integrated numerically on the sampled
  range in u = log t, with the piece below the first sample bounded, not
  guessed.  The quadrature is the exact integral of the not-a-knot cubic
  spline through the samples (in-house, numpy only, the same spline as
  scipy's CubicSpline), and its error estimate compares it with the same
  integral on every second sample (grid halving, /15 as for a fourth-order
  rule);
* on (T0, inf) the trace decays exponentially and is integrated in closed
  form from the spectrum the samples carry, with the eigenvalues above
  its cutoff bounded in closed form.

Dividing by Gamma(s) then happens analytically: with G = Gamma * zeta
holding Laurent data (a_-2, a_-1, a_0) at s = 0 and 1/Gamma(s) =
s + g1 s^2 + g2 s^3 + ..., one reads off

    zeta(0)  = a_-1 + g1 a_-2,
    zeta'(0) = a_0 + g1 a_-1 + g2 a_-2,
    Res_{s=0} zeta = a_-2,

so no numerical differentiation in s ever enters.  Both conventions for
zeta(0) (with and without the kernel-dimension subtraction) are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .conekernel import EXP_REACH, ZERO_EIGENVALUE, FittedExpansion, TraceSamples
from .errors import DecayRateUnknown, FitResidualTooLarge

EULER_GAMMA = 0.57721566490153286
# 1/Gamma(s) = s + g1 s^2 + g2 s^3 + O(s^4)
G1 = EULER_GAMMA
G2 = EULER_GAMMA ** 2 / 2.0 - math.pi ** 2 / 12.0

FIT_RESIDUAL_LIMIT = 1e-5
# modified Lentz stops once a factor is within this of 1
LENTZ_TOLERANCE = 4.0 * np.finfo(float).eps


def exp1(x) -> np.ndarray:
    """Exponential integral E1(x) = int_x^inf e^{-s}/s ds for finite x > 0.

    Up to x = 1 the ascending series -gamma - log x + sum (-1)^{k+1}
    x^k / (k k!), 20 terms; above, e^{-x} times the continued fraction
    1/(x+1- 1/(x+3- 4/(x+5- ...))), by the modified Lentz method.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise ValueError("exp1 needs finite x > 0")
    out = np.empty_like(x)
    small = x <= 1.0
    xs = x[small]
    term = -np.ones_like(xs)
    series = np.zeros_like(xs)
    for k in range(1, 21):
        term *= -xs / k
        series += term / k
    out[small] = series - EULER_GAMMA - np.log(xs)
    xl = x[~small]
    b = xl + 1.0
    c = np.full_like(xl, np.inf)
    d = 1.0 / b
    frac = d
    for i in range(1, 1000):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        factor = c * d
        frac = frac * factor
        if np.all(np.abs(factor - 1.0) <= LENTZ_TOLERANCE):
            break
    else:
        raise RuntimeError("E1 continued fraction failed to converge")
    out[~small] = frac * np.exp(-xl)
    return out


@dataclass(frozen=True)
class ZetaData:
    """Zeta-function data of one form degree near s = 0.  `poles` are those
    of Gamma(s) zeta(s), not of zeta(s) (`structure`'s `gamma_zeta_poles`),
    so a simple one at s = 0 carries zeta(0) (`zeta0_minus_kernel`)."""

    degree: int
    poles: tuple[tuple[Fraction, int, float], ...]
    zeta0: float
    zeta0_minus_kernel: float
    zeta_prime0: float
    kernel_dim: int
    residue_at_zero: float
    diagnostics: dict = field(compare=False)

    @property
    def error_bound(self) -> float:
        return self.diagnostics["total_bound"]

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "poles": [{"s": str(loc), "order": order, "coeff": c}
                      for loc, order, c in self.poles],
            "zeta0": self.zeta0,
            "zeta0_minus_kernel": self.zeta0_minus_kernel,
            "zeta_prime0": self.zeta_prime0,
            "kernel_dim": self.kernel_dim,
            "residue_at_zero": self.residue_at_zero,
            "diagnostics": self.diagnostics,
        }


def _fit_terms_with_kernel(fit: FittedExpansion, kernel_dim: int) -> dict[tuple[Fraction, bool], float]:
    """Fitted coefficients with the kernel projector folded into t^0."""
    terms = dict(fit.coefficients)
    if kernel_dim:
        key = (Fraction(0), False)
        terms[key] = terms.get(key, 0.0) - kernel_dim
    return terms


def _mellin_laurent(terms: dict[tuple[Fraction, bool], float],
                    bounds: dict[tuple[Fraction, bool], float],
                    t0: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Laurent data (a_-2, a_-1, a_0) at s = 0 of sum_j int_0^T0 t^{s-1}
    (fitted terms), and the largest shifts (s_-2, s_-1, s_0) of those three
    when each coefficient moves by up to its bound (absent: 0)."""
    log_t0 = math.log(t0)
    laurent, shifts = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
    for (alpha, is_log), c in terms.items():
        a = float(alpha)
        b = bounds.get((alpha, is_log), 0.0)
        # `share` maps a coefficient to its term's part of a_0
        if alpha == 0:
            # t^0 -> 1/s + log T0, and t^0 log t -> -1/s^2 + (log T0)^2 / 2
            pole = 0 if is_log else 1
            laurent[pole] += -c if is_log else c
            shifts[pole] += b
            share = (lambda x: x * log_t0 ** 2 / 2.0) if is_log else (lambda x: x * log_t0)
        elif is_log:    # t^a log t -> T0^a (log T0 / a - 1 / a^2)
            share = lambda x: x * t0 ** a * (log_t0 / a - 1.0 / (a * a))
        else:           # t^a -> T0^a / a
            share = lambda x: x * t0 ** a / a
        laurent[2] += share(c)
        shifts[2] += b * abs(share(1.0))
    return tuple(laurent), tuple(shifts)


def _not_a_knot_slopes(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline through (u, y).

    Two points give the line through them and three the parabola.  From
    four points on, the end rows (third derivative continuous across u[1]
    and u[-2]) are subtracted from their neighbours, which leaves a
    strictly diagonally dominant tridiagonal system for the interior
    slopes; a Thomas sweep solves it and the end rows give s[0], s[-1].
    """
    h = np.diff(u)
    d = np.diff(y) / h
    n = len(u)
    if n == 2:
        return np.array([d[0], d[0]])
    if n == 3:
        curv = (d[1] - d[0]) / (u[2] - u[0])
        return np.array([d[0] - curv * h[0], d[0] + curv * h[0], d[1] + curv * h[1]])
    rhs = 3.0 * (h[1:] * d[:-1] + h[:-1] * d[1:])
    w0, w1 = u[2] - u[0], u[-1] - u[-3]
    b0 = ((h[0] + 2.0 * w0) * h[1] * d[0] + h[0] ** 2 * d[1]) / w0
    b1 = (h[-1] ** 2 * d[-2] + (2.0 * w1 + h[-1]) * h[-2] * d[-1]) / w1
    # row i of the interior system: lower[i] s[i] + diag[i] s[i+1] + upper[i] s[i+2]
    lower, upper = h[2:].tolist(), h[:-2].tolist()
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    rhs = rhs.tolist()
    diag[0], rhs[0] = h[0] + h[1], rhs[0] - b0
    diag[-1], rhs[-1] = h[-2] + h[-1], rhs[-1] - b1
    m = len(diag)
    for i in range(1, m):
        f = lower[i - 1] / diag[i - 1]
        diag[i] -= f * upper[i - 1]
        rhs[i] -= f * rhs[i - 1]
    s = [0.0] * m
    s[-1] = rhs[-1] / diag[-1]
    for i in range(m - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    return np.array([(b0 - w0 * s[0]) / h[1], *s, (b1 - w1 * s[-1]) / h[-2]])


def _not_a_knot_integral(u: np.ndarray, y: np.ndarray, u_lo: float, u_hi: float) -> float:
    """Integral over [u_lo, u_hi] of the not-a-knot cubic spline through
    (u, y), piece by piece in closed form (de Boor, A Practical Guide to
    Splines, 1978).  Past the grid ends the end pieces extend, as in
    scipy: every second point of an even count ends one step short."""
    s = _not_a_knot_slopes(u, y)
    h = np.diff(u)
    pieces = h * (y[:-1] + y[1:]) / 2.0 + h * h * (s[:-1] - s[1:]) / 12.0
    cumulative = np.concatenate(([0.0], np.cumsum(pieces)))

    def antiderivative(x: float) -> float:
        i = min(max(int(np.searchsorted(u, x, side="right")) - 1, 0), len(u) - 2)
        tau, d = x - u[i], (y[i + 1] - y[i]) / h[i]
        t = (s[i] + s[i + 1] - 2.0 * d) / h[i]
        quad, cubic = (d - s[i]) / h[i] - t, t / h[i]
        return cumulative[i] + tau * (y[i] + tau * (s[i] / 2.0 + tau * (quad / 3.0 + tau * cubic / 4.0)))

    return float(antiderivative(u_hi) - antiderivative(u_lo))


def _spline_integral(u: np.ndarray, y: np.ndarray, u_lo: float, u_hi: float) -> tuple[float, float]:
    """Integral of the sampled function over [u_lo, u_hi] inside the grid,
    with a grid-halving error estimate."""
    full = _not_a_knot_integral(u, y, u_lo, u_hi)
    if len(u) >= 5:
        coarse = _not_a_knot_integral(u[::2], y[::2], u_lo, u_hi)
        err = abs(full - coarse) / 15.0 + 1e-16 * abs(full)
    else:
        err = abs(full)
    return float(full), float(err)


def _remainder_integral(samples: TraceSamples, fit: FittedExpansion,
                        t0: float) -> tuple[float, float]:
    """int_0^T0 (trace - fitted model) dt/t from the samples.

    Below the first sample the remainder is bounded by twice its value
    there (it decays at least like sqrt(t) relative to the local scale);
    the bound goes into the error budget, never into the value.
    """
    t = samples.grid
    resid = samples.values - fit.model(t)
    u = np.log(t)
    val, err = _spline_integral(u, resid, float(u[0]), math.log(t0))
    below = 2.0 * abs(resid[0])
    tail_cert = float(np.max(samples.tail_bound)) * (math.log(t0) - u[0])
    return val, err + below + tail_cert


def _large_t_integral(samples: TraceSamples, kernel_dim: int,
                      t0: float) -> tuple[float, float]:
    """int_T0^inf t^{-1} (trace - kernel_dim) dt with certified error.

    The spectrum sums exactly to its cutoff W.  Past the first sample t1,
    the eigenvalues above W decay at least like exp(-W (t - t1)) times
    their share of Tr(t1), so they add at most
    exp(-W (T0 - t1)) (|Tr(t1)| + tail(t1)) / (W T0).
    """
    eig = samples.eigenvalues
    if eig is None:
        raise DecayRateUnknown("the large-t integral needs the trace's eigenvalues")
    zero_w = float(eig.weight[eig.lam <= ZERO_EIGENVALUE].sum())
    if abs(zero_w - kernel_dim) > 1e-9:
        raise DecayRateUnknown(
            f"zero-mode weight {zero_w} does not match kernel_dim {kernel_dim}")
    pos = eig.positive()
    n = np.searchsorted(pos.lam, EXP_REACH / t0, side="right")
    val = float(np.dot(pos.weight[:n], exp1(pos.lam[:n] * t0)))
    w, t1 = eig.cutoff, float(samples.grid[0])
    above = 0.0 if math.isinf(w) else math.exp(-w * (t0 - t1)) \
        * (abs(samples.values[0]) + samples.tail_bound[0]) / (w * t0)
    return val, float(np.max(samples.tail_bound)) + above


def zeta_near_zero(samples: TraceSamples, fit: FittedExpansion, kernel_dim: int,
                   split: float = 1.0, degree: int = 0) -> ZetaData:
    """Zeta invariants at s = 0 from trace samples and a fitted expansion."""
    if fit.residual >= FIT_RESIDUAL_LIMIT:
        raise FitResidualTooLarge(
            f"fit residual {fit.residual:.3g} >= {FIT_RESIDUAL_LIMIT}")
    if samples.grid[-1] < split:
        raise ValueError(f"samples must reach the split point {split}")

    terms = _fit_terms_with_kernel(fit, kernel_dim)
    (a_m2, a_m1, a_0f), (s_m2, s_m1, s_0) = _mellin_laurent(
        terms, fit.coefficient_bounds, split)
    rem, rem_bound = _remainder_integral(samples, fit, split)
    large, large_bound = _large_t_integral(samples, kernel_dim, split)
    a_0 = a_0f + rem + large

    zeta0 = a_m1 + G1 * a_m2
    zeta_prime0 = a_0 + G1 * a_m1 + G2 * a_m2

    # the bounds read like the values, with each Laurent term's fit shift
    zeta0_bound = s_m1 + G1 * s_m2 + rem_bound
    zeta_prime0_bound = rem_bound + large_bound + s_0 + G1 * s_m1 + abs(G2) * s_m2
    residue_bound = s_m2 + rem_bound
    total_bound = max(zeta0_bound, zeta_prime0_bound)

    # one pole per location: a log term upgrades the order to 2, and the
    # reported number is then the leading (double-pole) coefficient
    by_loc: dict[Fraction, tuple[int, float]] = {}
    for (alpha, is_log), c in sorted(terms.items()):
        loc = -alpha
        if is_log:
            by_loc[loc] = (2, -c)
        elif loc not in by_loc:
            by_loc[loc] = (1, c)
    poles = [(loc, order, c) for loc, (order, c) in sorted(by_loc.items())]
    return ZetaData(
        degree=degree,
        poles=tuple(poles),
        zeta0=zeta0 + kernel_dim,          # plain t^0-coefficient convention
        zeta0_minus_kernel=zeta0,
        zeta_prime0=zeta_prime0,
        kernel_dim=kernel_dim,
        residue_at_zero=a_m2,
        diagnostics={
            "split": split,
            "remainder_integral": rem,
            "remainder_bound": rem_bound,
            "large_t_integral": large,
            "large_t_bound": large_bound,
            "fit_residual": fit.residual,
            "fit_condition": fit.condition,
            "zeta0_bound": zeta0_bound,
            "zeta_prime0_bound": zeta_prime0_bound,
            "residue_bound": residue_bound,
            "total_bound": total_bound,
        },
    )


# -------------------------------------------------------- kernel dimension --

def kernel_dimension(m: int) -> list[int]:
    """Kernel dimension per form degree of an m-dimensional model.

    Every model is a cone truncated with the Dirichlet condition at x = 1,
    times a closed flat base or not.  The first Bessel zero is strictly
    positive, so the cone has no zero mode in any degree, and by Kunneth
    neither has its product with a base.
    """
    return [0] * (m + 1)


# ----------------------------------------------------------- torsion report --

@dataclass(frozen=True)
class TorsionReport:
    per_degree: tuple[ZetaData, ...]
    log_torsion: float
    torsion_zeta_regular: bool
    all_degrees_regular: bool
    residues_cancel: bool
    torsion_residue: float
    model: str
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "log_torsion": self.log_torsion,
            "torsion_zeta_regular": self.torsion_zeta_regular,
            "all_degrees_regular": self.all_degrees_regular,
            "residues_cancel": self.residues_cancel,
            "torsion_residue": self.torsion_residue,
            "diagnostics": self.diagnostics,
            "per_degree": [z.to_json_dict() for z in self.per_degree],
        }

    def to_csv(self) -> str:
        lines = ["degree,zeta0,zeta0_minus_kernel,zeta_prime0,kernel_dim,error_bound"]
        for z in self.per_degree:
            lines.append(f"{z.degree},{z.zeta0:.17g},{z.zeta0_minus_kernel:.17g},"
                         f"{z.zeta_prime0:.17g},{z.kernel_dim},{z.error_bound:.17g}")
        return "\n".join(lines) + "\n"


def torsion_assemble(per_degree: Sequence[ZetaData], model: str = "",
                     diagnostics: dict | None = None) -> TorsionReport:
    """Weighted alternating assembly of per-degree zeta data.

    log T = (1/2) sum_k (-1)^k k zeta_k'(0).  Regularity of the torsion
    zeta function holds when every degree is regular at 0, or when the
    per-degree residues cancel in the same weighted alternating sum; both
    facts are reported separately.
    """
    degrees = [z.degree for z in per_degree]
    if degrees != list(range(len(per_degree))):
        raise ValueError(f"need contiguous degrees 0..m, got {degrees}")
    log_t = 0.5 * sum((-1) ** z.degree * z.degree * z.zeta_prime0 for z in per_degree)
    res = 0.5 * sum((-1) ** z.degree * z.degree * z.residue_at_zero for z in per_degree)

    def res_bound(z: ZetaData) -> float:
        return max(z.diagnostics.get("residue_bound", z.error_bound), 1e-10)

    bound = sum(res_bound(z) for z in per_degree)
    all_regular = all(abs(z.residue_at_zero) <= res_bound(z) for z in per_degree)
    cancel = bool(abs(res) <= bound)
    return TorsionReport(
        per_degree=tuple(per_degree),
        log_torsion=log_t,
        torsion_zeta_regular=all_regular or cancel,
        all_degrees_regular=all_regular,
        residues_cancel=cancel,
        torsion_residue=res,
        model=model,
        diagnostics=diagnostics or {},
    )
