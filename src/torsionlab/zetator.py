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

Each fitted coefficient c_a carries a bound b_a (`FittedExpansion`).
zeta(0) and the residue read a_-1 and a_-2, which the t^0 and t^0 log t
coefficients enter with weight 1.  zeta'(0) is one linear map of the
coefficients: each trace's samples and basis columns are integrated over
[t1, T0] once, on every sample and on every second one (`_integral_table`),
and zeta'(0) = sum_a D_a c_a + S(trace) + (large t) - k (log T0 + g1),
where D_a is the closed form on (0, T0) per unit c_a (T0^a / a, or its log
or a = 0 form) less the integral S of the basis column.  So the value
reads c_a only through the model below the first sample t1, with weight
D_a of about t1^a / a (log t1 + g1 for t^0).  The remainder, its value at
t1 and its error estimate are the same sum over the table's other rows,
and the bound charges sum_a |D_a| b_a with the same D_a: value and bound
weights are one map by construction.  The shifts are charged
independently; the correlated ||D^T pinv(A)||_1 max|r| is smaller, but it
leaves out the fit's truncation bias and misses the T^2 cone's reference
value.  A pinned coefficient (volume, boundary) has b_a = 0.

The bounds on the shifts say nothing about the terms the template leaves
out.  So a fit may carry a partner: the fit of a higher-order template
to the same samples, with the same pins.  The spread |fit - partner| of
zeta(0) and of zeta'(0) joins both fits' bounds as the truncation bias,
and the report takes the values, bounds and budget of the fit whose
zeta'(0) bound is the smaller (`fit_order` names it); each bound then
covers the other fit's value too.  The partner keeps the t^0 log t column
where the template calculus has one, and the residue at s = 0 is minus its
coefficient, so the regularity of the zeta function stays a measurement.
Each degree's diagnostics give the zeta'(0) budget (fit shift, remainder,
large t, bias), name its dominant term, and name the pinned columns; the
fitted coefficients stay with the fit, the predicted poles with
`phg.zeta_pole_structure`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .conekernel import (
    EXP_REACH,
    UNIT_ROUNDOFF,
    ZERO_EIGENVALUE,
    FittedExpansion,
    TraceSamples,
    basis_column,
    column_name,
)
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
    """Zeta-function data of one form degree at s = 0: each measured value
    once, with its bounds and budget in `diagnostics`."""

    degree: int
    zeta0: float
    zeta0_minus_kernel: float
    zeta_prime0: float
    kernel_dim: int
    residue_at_zero: float
    diagnostics: dict = field(compare=False)

    @property
    def error_bound(self) -> float:
        """The larger of the zeta(0) and zeta'(0) bounds."""
        return max(self.diagnostics["zeta0_bound"], self.diagnostics["zeta_prime0_bound"])

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "zeta0": self.zeta0,
            "zeta0_minus_kernel": self.zeta0_minus_kernel,
            "zeta_prime0": self.zeta_prime0,
            "kernel_dim": self.kernel_dim,
            "residue_at_zero": self.residue_at_zero,
            "diagnostics": self.diagnostics,
        }


def _closed_form_weight(key: tuple[Fraction, bool], t0: float) -> float:
    """zeta'(0) = a_0 + g1 a_-1 + g2 a_-2 of int_0^T0 t^{s-1} (one term) at
    s = 0, per unit coefficient: t^a -> T0^a / a, t^a log t ->
    T0^a (log T0 / a - 1 / a^2), t^0 -> 1/s + log T0 and t^0 log t ->
    -1/s^2 + (log T0)^2 / 2, whose poles 1/Gamma weighs by g1 and g2."""
    alpha, is_log = key
    log_t0 = math.log(t0)
    if alpha == 0:
        return log_t0 ** 2 / 2.0 - G2 if is_log else log_t0 + G1
    a = float(alpha)
    return t0 ** a * (log_t0 / a - 1.0 / (a * a)) if is_log else t0 ** a / a


def _not_a_knot_slopes(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Node slopes of the not-a-knot cubic spline through (u, y), for each
    column of y (shape (n, k)).

    Two points give the line through them and three the parabola.  From
    four points on, the end rows (third derivative continuous across u[1]
    and u[-2]) are subtracted from their neighbours, which leaves a
    strictly diagonally dominant tridiagonal system for the interior
    slopes; a Thomas sweep solves it and the end rows give s[0], s[-1].
    The system depends on u alone, so it is eliminated once, and each
    column's right-hand side is swept with its multipliers.
    """
    h = np.diff(u)
    d = np.diff(y, axis=0) / h[:, None]
    n = len(u)
    if n == 2:
        return np.array([d[0], d[0]])
    if n == 3:
        curv = (d[1] - d[0]) / (u[2] - u[0])
        return np.array([d[0] - curv * h[0], d[0] + curv * h[0], d[1] + curv * h[1]])
    rhs = 3.0 * (h[1:, None] * d[:-1] + h[:-1, None] * d[1:])
    w0, w1 = u[2] - u[0], u[-1] - u[-3]
    b0 = ((h[0] + 2.0 * w0) * h[1] * d[0] + h[0] ** 2 * d[1]) / w0
    b1 = (h[-1] ** 2 * d[-2] + (2.0 * w1 + h[-1]) * h[-2] * d[-1]) / w1
    # row i of the interior system: lower[i] s[i] + diag[i] s[i+1] + upper[i] s[i+2],
    # swept on Python floats (a numpy scalar would make every step slower)
    lower, upper = h[2:].tolist(), h[:-2].tolist()
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    diag[0], diag[-1] = float(h[0] + h[1]), float(h[-2] + h[-1])
    m = len(diag)
    factors = [0.0] * m
    for i in range(1, m):
        factors[i] = lower[i - 1] / diag[i - 1]
        diag[i] -= factors[i] * upper[i - 1]
    slopes = []
    for r, first, last in zip(rhs.T.tolist(), b0.tolist(), b1.tolist()):
        r[0] -= first
        r[-1] -= last
        for i in range(1, m):
            r[i] -= factors[i] * r[i - 1]
        r[-1] /= diag[-1]
        for i in range(m - 2, -1, -1):
            r[i] = (r[i] - upper[i] * r[i + 1]) / diag[i]
        slopes.append(r)
    s = np.array(slopes).T
    return np.concatenate(([(b0 - w0 * s[0]) / h[1]], s, [(b1 - w1 * s[-1]) / h[-2]]))


def _not_a_knot_integral(u: np.ndarray, y: np.ndarray, u_lo: float, u_hi: float):
    """Integral over [u_lo, u_hi] of the not-a-knot cubic spline through
    (u, y), piece by piece in closed form (de Boor, A Practical Guide to
    Splines, 1978): a float, or for y of shape (n, k) one per column.
    Past the grid ends the end pieces extend, as in scipy: every second
    point of an even count ends one step short."""
    columns = y.reshape(len(u), -1)
    s = _not_a_knot_slopes(u, columns)
    h = np.diff(u)[:, None]
    pieces = h * (columns[:-1] + columns[1:]) / 2.0 + h * h * (s[:-1] - s[1:]) / 12.0
    cumulative = np.concatenate((np.zeros((1, columns.shape[1])), np.cumsum(pieces, axis=0)))

    def antiderivative(x: float) -> np.ndarray:
        i = min(max(int(np.searchsorted(u, x, side="right")) - 1, 0), len(u) - 2)
        yi, si = columns[i], s[i]
        tau, d = x - u[i], (columns[i + 1] - yi) / h[i]
        t = (si + s[i + 1] - 2.0 * d) / h[i]
        quad, cubic = (d - si) / h[i] - t, t / h[i]
        return cumulative[i] + tau * (yi + tau * (si / 2.0 + tau * (quad / 3.0 + tau * cubic / 4.0)))

    integrals = antiderivative(u_hi) - antiderivative(u_lo)
    return float(integrals[0]) if y.ndim == 1 else integrals


def _integral_table(samples: TraceSamples, keys: Sequence[tuple[Fraction, bool]],
                    t0: float) -> tuple[np.ndarray, dict[tuple[Fraction, bool], np.ndarray]]:
    """What every fit to the samples reads of them, three numbers per
    function, each linear in it: its value at the first sample t1, its
    not-a-knot integral S over [t1, T0] in u = log t, and the error
    estimate of S: from five samples on, S minus the same integral on every
    second sample, over 15 as for a fourth-order rule; below five, S
    itself.  The samples' row, and one row per basis column in `keys`,
    from two spline calls on one array."""
    t = samples.grid
    u, u_hi = np.log(t), math.log(t0)
    keys = list(dict.fromkeys(keys))
    y = np.column_stack([samples.values, *(basis_column(t, *key) for key in keys)])
    full = _not_a_knot_integral(u, y, float(u[0]), u_hi)
    error = (full - _not_a_knot_integral(u[::2], y[::2], float(u[0]), u_hi)) / 15.0 \
        if len(t) >= 5 else full
    rows = np.stack([y[0], full, error], axis=1)
    return rows[0], dict(zip(keys, rows[1:]))


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


def _coefficient_weights(fit: FittedExpansion, columns: dict[tuple[Fraction, bool], np.ndarray],
                         t0: float) -> dict[tuple[Fraction, bool], float]:
    """D_a, the weight of each fit coefficient in zeta'(0): its term's
    closed form on (0, T0), less the integral of its basis column over
    [t1, T0], which the remainder integral takes off again.  The value
    reads the model only below the first sample t1, so a weight is about
    t1^a / a (log t1 + g1 for t^0), not T0^a / a."""
    return {key: _closed_form_weight(key, t0) - columns[key][1] for key in fit.coefficients}


def _fit_report(samples: TraceSamples, fit: FittedExpansion, table, kernel_dim: int,
                t0: float, large: float, large_bound: float) -> dict:
    """One fit's zeta(0) and zeta'(0), their bounds before the bias, the
    zeta'(0) budget with each coefficient's shift, and the residue at
    s = 0 (a_-2) with its bound, read off the trace's integral table.

    zeta'(0) = sum_a D_a c_a + S(trace) + large - k (log T0 + g1), with S
    the integral over [t1, T0]; the remainder S(trace) - sum_a c_a S(col_a),
    its value at t1 and its error estimate are the same sum on the table's
    three rows.  Below t1 the remainder is bounded by twice its value there
    (it decays at least like sqrt(t) relative to the local scale), in the
    bound, never in the value.
    """
    values, columns = table
    weights = _coefficient_weights(fit, columns, t0)
    c = np.array(list(fit.coefficients.values()))
    terms = c[:, None] * np.array([columns[key] for key in fit.coefficients])
    first, rem, estimate = values - terms.sum(axis=0)
    zero, log_zero = (Fraction(0), False), (Fraction(0), True)
    a_m1 = fit.coefficients.get(zero, 0.0) - kernel_dim
    a_m2 = 0.0 - fit.coefficients.get(log_zero, 0.0)
    zeta_prime0 = math.fsum([*(w * x for w, x in zip(weights.values(), fit.coefficients.values())),
                             values[1], large, -kernel_dim * _closed_form_weight(zero, t0)])
    # the trace minus the model rounds on the scale of its terms, gamma_n as
    # in conekernel._blocked_sums, n the samples; so does sum_a D_a c_a
    n = len(samples.grid)
    rounding = n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF) \
        * (abs(values[1]) + float(np.abs(terms[:, 1]).sum()))
    tail = float(np.max(samples.tail_bound)) * (math.log(t0) - np.log(samples.grid[0]))
    rem_bound = float(abs(estimate) + rounding + 2.0 * abs(first) + tail)
    # zeta(0) reads a_-1 and a_-2, which the t^0 and t^0 log t coefficients
    # enter directly; zeta'(0) moves by its derivative weight
    bounds = fit.coefficient_bounds
    s_m2, s_m1 = bounds.get(log_zero, 0.0), bounds.get(zero, 0.0)
    shifts = {key: abs(w) * bounds[key] for key, w in weights.items()}
    return {"fit": fit, "zeta0": a_m1 + G1 * a_m2, "zeta_prime0": zeta_prime0,
            "remainder": float(rem), "zeta0_bound": s_m1 + G1 * s_m2 + rem_bound,
            "shifts": shifts,
            "budget": {"fit_shift": sum(shifts.values()), "remainder": rem_bound,
                       "large_t": large_bound},
            "residue": a_m2, "residue_bound": s_m2 + rem_bound}


def zeta_near_zero(samples: TraceSamples, fit: FittedExpansion, kernel_dim: int,
                   split: float = 1.0, degree: int = 0) -> ZetaData:
    """Zeta invariants at s = 0 from trace samples and a fitted expansion.

    With a partner fit, the spread of the two fits' zeta(0) and zeta'(0)
    joins both fits' bounds (`bias`), and the fit with the smaller zeta'(0)
    bound gives the values, their bounds, the residual and the condition;
    on a tie the fit's own.  The residue at s = 0 is read from the
    partner's t^0 log t term."""
    if fit.residual >= FIT_RESIDUAL_LIMIT:
        raise FitResidualTooLarge(
            f"fit residual {fit.residual:.3g} >= {FIT_RESIDUAL_LIMIT}")
    if samples.grid[-1] < split:
        raise ValueError(f"samples must reach the split point {split}")

    large, large_bound = _large_t_integral(samples, kernel_dim, split)
    fits = [f for f in (fit, fit.partner) if f is not None]
    table = _integral_table(samples, [key for f in fits for key in f.coefficients], split)
    reports = [_fit_report(samples, f, table, kernel_dim, split, large, large_bound)
               for f in fits]
    extra = {}
    if fit.pinned:
        extra["pinned"] = [column_name(key) for key in fit.pinned]
    if fit.partner is not None:
        own, partner = reports
        extra["zeta0_bias"] = abs(own["zeta0"] - partner["zeta0"])
        bias = abs(own["zeta_prime0"] - partner["zeta_prime0"])
        for r in reports:
            r["zeta0_bound"] += extra["zeta0_bias"]
            r["budget"]["bias"] = bias
    for r in reports:
        r["zeta_prime0_bound"] = sum(r["budget"].values())
    chosen = min((r for r in reports if r["fit"].residual < FIT_RESIDUAL_LIMIT),
                 key=lambda r: r["zeta_prime0_bound"])
    # the partner, the last fit, keeps t^0 log t where the calculus has one
    residue_from = reports[-1]
    budget, shifts = chosen["budget"], chosen["shifts"]
    dominant = {"term": max(budget, key=budget.get)}
    if dominant["term"] == "fit_shift":
        dominant["column"] = column_name(max(shifts, key=shifts.get))

    return ZetaData(
        degree=degree,
        zeta0=chosen["zeta0"] + kernel_dim,          # plain t^0-coefficient convention
        zeta0_minus_kernel=chosen["zeta0"],
        zeta_prime0=chosen["zeta_prime0"],
        kernel_dim=kernel_dim,
        residue_at_zero=residue_from["residue"],
        diagnostics={
            **extra,
            "split": split,
            "remainder_integral": chosen["remainder"],
            "large_t_integral": large,
            "fit_order": str(max(chosen["fit"].template.exponents)),
            "fit_residual": chosen["fit"].residual,
            "fit_condition": chosen["fit"].condition,
            "zeta0_bound": chosen["zeta0_bound"],
            "zeta_prime0_bound": chosen["zeta_prime0_bound"],
            "zeta_prime0_budget": budget,
            "zeta_prime0_dominant": dominant,
            "residue_bound": residue_from["residue_bound"],
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
    log_torsion_bound: float
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
            "log_torsion_bound": self.log_torsion_bound,
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

    log T = (1/2) sum_k (-1)^k k zeta_k'(0), with the bound
    (1/2) sum_k k |zeta_k'(0) bound|.  Regularity of the torsion
    zeta function holds when every degree is regular at 0, or when the
    per-degree residues cancel, within their bounds, in the same weighted
    alternating sum; both facts are reported separately.
    """
    degrees = [z.degree for z in per_degree]
    if degrees != list(range(len(per_degree))):
        raise ValueError(f"need contiguous degrees 0..m, got {degrees}")
    log_t = 0.5 * sum((-1) ** z.degree * z.degree * z.zeta_prime0 for z in per_degree)
    log_t_bound = 0.5 * sum(z.degree * z.diagnostics["zeta_prime0_bound"] for z in per_degree)
    res = 0.5 * sum((-1) ** z.degree * z.degree * z.residue_at_zero for z in per_degree)

    def res_bound(z: ZetaData) -> float:
        return max(z.diagnostics["residue_bound"], 1e-10)

    bound = 0.5 * sum(z.degree * res_bound(z) for z in per_degree)
    all_regular = all(abs(z.residue_at_zero) <= res_bound(z) for z in per_degree)
    cancel = bool(abs(res) <= bound)
    return TorsionReport(
        per_degree=tuple(per_degree),
        log_torsion=log_t,
        log_torsion_bound=log_t_bound,
        torsion_zeta_regular=all_regular or cancel,
        all_degrees_regular=all_regular,
        residues_cancel=cancel,
        torsion_residue=res,
        model=model,
        diagnostics=diagnostics or {},
    )
