"""Zeta regularization near s = 0 and analytic-torsion assembly.

The Mellin transform of a heat trace splits at its first sample t1:

* on (0, t1) the fitted expansion integrates in closed form, term by term
  (t^a -> t1^{s+a}/(s+a), with an extra -1/(s+a)^2 for log terms); the
  remainder trace-minus-model there is bounded, not guessed;
* on (t1, inf) the trace integrates in closed form over the spectrum the
  samples carry (`_large_t_integral`), with the eigenvalues above its
  cutoff bounded.

No quadrature enters.  Dividing by Gamma(s) then happens analytically:
with G = Gamma * zeta holding Laurent data (a_-2, a_-1, a_0) at s = 0 and
1/Gamma(s) = s + g1 s^2 + g2 s^3 + ..., one reads off

    zeta(0)  = a_-1 + g1 a_-2,
    zeta'(0) = a_0 + g1 a_-1 + g2 a_-2,
    Res_{s=0} zeta = a_-2,

so no numerical differentiation in s ever enters.  Both conventions for
zeta(0) (with and without the kernel-dimension subtraction) are reported.

Each fitted coefficient c_a carries a bound b_a (`FittedExpansion`).
zeta(0) and the residue read a_-1 and a_-2, which the t^0 and t^0 log t
coefficients enter with weight 1.  zeta'(0) is one linear map of the
coefficients,

    zeta'(0) = sum_a D_a c_a + I - k (log t1 + g1),

where D_a is the closed form on (0, t1) per unit c_a (t1^a / a, its log
form, or log t1 + g1 for t^0), I the integral of t^-1 (trace - k) over
(t1, inf) and k the kernel dimension.  The bound charges sum_a |D_a| b_a
with the same D_a: value and bound weights are one map by construction.
The shifts are charged independently; the correlated
||D^T pinv(A)||_1 max|r| is smaller, but it leaves out the fit's
truncation bias and misses the T^2 cone's reference value.  A pinned
coefficient (`conekernel.heat_pins`) has as b_a the error bound it
carries, 0 where it is exact to a rounding.

The bounds on the shifts say nothing about the terms the template leaves
out.  So a fit may carry a partner: the fit of a higher-order template
to the same samples, with the same pins.  The spread |fit - partner| of
zeta(0) and of zeta'(0) is the truncation bias, and the partner's bounds
add it.  For the fit's value v2 and the partner's v3, |v2 - true| <=
spread + |v3 - true|, so the spread measures the fit's truncation only
while the partner's own error is small beside it: the fit's bounds add the spread plus the partner's
own bound (before the bias), but at most the spread again.  The charge is
continuous.  The plain spread left the pinned T^2 cone's order-2 zeta(0)
at t_min 2e-2 off its reference by 1.20 times its bound.  The partner's
whole bound would make the fit's bound always the larger, which is
"report the partner always", measured and rejected: it makes the disk's
log T bound 1.19 times and the torus-base product's 2.8 times larger.
The report takes the
values, bounds and budget of the fit whose zeta'(0) bound is the smaller
(`fit_order` names it); each bound then covers the other fit's value
too.  The partner keeps the t^0 log t column where the template calculus
has one, and the residue at s = 0 is minus its coefficient, so the
regularity of the zeta function stays a measurement.
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

from .bessel import bessel_k
from .conekernel import (
    SMALLEST_NORMAL,
    TRACE_BLOCK,
    UNIT_ROUNDOFF,
    ZERO_EIGENVALUE,
    FittedExpansion,
    Spectrum,
    TraceSamples,
    _segments,
    basis_column,
    column_name,
    gammaincc,
    rounding_gamma,
)
from .errors import DecayRateUnknown, FitResidualTooLarge
from .fiber import _lattice_points

EULER_GAMMA = 0.57721566490153286
# 1/Gamma(s) = s + g1 s^2 + g2 s^3 + O(s^4)
G1 = EULER_GAMMA
G2 = EULER_GAMMA ** 2 / 2.0 - math.pi ** 2 / 12.0

FIT_RESIDUAL_LIMIT = 1e-5
# exp1, sqrt(pi) gammaincc(1/2, x) and bessel_k at x are within
# SPECIAL_FUNCTION_ERROR (1 + x) of their values, plus the smallest normal
# float where the value is below it, as tests/test_zetator.py holds them
# against mpmath; the bounds charge that
SPECIAL_FUNCTION_ERROR = 1e-14
# a product's lattice term (l, lam) with |l| sqrt(lam) past this reach is
# left out, and charged (`_large_t_integral`)
LATTICE_REACH = -4.0 * math.log(UNIT_ROUNDOFF)
# modified Lentz stops once a factor is within this of 1
LENTZ_TOLERANCE = 4.0 * np.finfo(float).eps


def exp1(x) -> np.ndarray:
    """Exponential integral E1(x) = int_x^inf e^{-s}/s ds for finite x > 0.

    Up to x = 1 the ascending series -gamma - log x + sum (-1)^{k+1}
    x^k / (k k!), 20 terms; above, e^{-x} times the continued fraction
    1/(x+1- 1/(x+3- 4/(x+5- ...))), by the modified Lentz method, which
    runs on each element until its own factor is within LENTZ_TOLERANCE of 1.
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
    frac, done, at = d, np.empty_like(xl), np.arange(len(xl))
    for i in range(1, 1000):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        factor = c * d
        frac = frac * factor
        stop = np.abs(factor - 1.0) <= LENTZ_TOLERANCE
        done[at[stop]] = frac[stop]
        if np.all(stop):
            break
        go = ~stop
        at, b, c, d, frac = at[go], b[go], c[go], d[go], frac[go]
    else:
        raise RuntimeError("E1 continued fraction failed to converge")
    out[~small] = done * np.exp(-xl)
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


def _closed_form_weight(key: tuple[Fraction, bool], t1: float) -> float:
    """zeta'(0) = a_0 + g1 a_-1 + g2 a_-2 of int_0^t1 t^{s-1} (one term) at
    s = 0, per unit coefficient: t^a -> t1^a / a, t^a log t ->
    t1^a (log t1 / a - 1 / a^2), t^0 -> 1/s + log t1 and t^0 log t ->
    -1/s^2 + (log t1)^2 / 2, whose poles 1/Gamma weighs by g1 and g2."""
    alpha, is_log = key
    log_t1 = math.log(t1)
    if alpha == 0:
        return log_t1 ** 2 / 2.0 - G2 if is_log else log_t1 + G1
    a = float(alpha)
    return t1 ** a * (log_t1 / a - 1.0 / (a * a)) if is_log else t1 ** a / a


def _upper_gamma(b: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(-b/2, x), x > 0, by Gamma(a, x) = (Gamma(a + 1, x) - x^a e^-x) / a
    down from E1(x) = Gamma(0, x) or sqrt(pi) Q(1/2, x) = Gamma(1/2, x); and
    the same recurrence on the sizes of its terms, the scale of its error."""
    if b % 2:
        a, value = 0.5, math.sqrt(math.pi) * gammaincc(0.5, x)
    else:
        a, value = 0.0, exp1(x)
    size = value
    while a > -b / 2.0:
        a -= 1.0
        step = x ** a * np.exp(-x)
        value, size = (value - step) / a, (size + step) / -a
    return value, size


def _lattice_terms(pos: Spectrum, t1: float) -> tuple[float, float, float]:
    """Sums of 2 w (lam / a_l)^{b/4} K_{b/2}(|l| sqrt(lam)), a_l = |l|^2 / 4,
    over lattice vectors l != 0 of the base periods and eigenvalues with
    |l| sqrt(lam) <= LATTICE_REACH, and of their error charges, formed in
    blocks of about TRACE_BLOCK terms; and the bound on their part below t1,
    sum_l W_l a_l^{-b/2} Gamma(b/2, a_l / t1), W_l the weight they take."""
    b = len(pos.base_periods)
    _, ell2 = _lattice_points([2.0 * math.pi / L for L in pos.base_periods],
                              LATTICE_REACH / math.sqrt(pos.lam[0]))
    ell2 = ell2[ell2 > 0.0]
    counts = np.searchsorted(pos.lam, LATTICE_REACH ** 2 / ell2, side="right")
    sums, errors = [], []
    for block in np.array_split(np.arange(len(ell2)), 1 + int(counts.sum()) // TRACE_BLOCK):
        rows = np.repeat(ell2[block], counts[block])
        cols = _segments(np.arange(len(pos)), np.zeros_like(block), counts[block])
        lam, z = pos.lam[cols], np.sqrt(rows * pos.lam[cols])
        terms = 2.0 * pos.weight[cols] * (4.0 * lam / rows) ** (b / 4.0) * bessel_k(b / 2.0, z)
        sums.append(math.fsum(terms))
        errors.append(math.fsum(terms * SPECIAL_FUNCTION_ERROR * (1.0 + z)))
    a = ell2 / 4.0
    prefix = np.concatenate(([0.0], np.cumsum(pos.weight)))[counts]
    below = prefix * a ** (-b / 2.0) * math.gamma(b / 2.0) * gammaincc(b / 2.0, a / t1)
    return math.fsum(sums), math.fsum(errors), float(below.sum())


def _large_t_integral(samples: TraceSamples, kernel_dim: int) -> tuple[float, float]:
    """I = int_t1^inf t^-1 (trace - kernel_dim) dt from the spectrum, t1 the
    first sample, with a bound on its error.

    A cone eigenvalue adds w E1(lam t1).  A product with the flat torus B
    (dimension b, periods L_i) has the trace Theta_B(t) sum w e^{-lam t};
    by Poisson summation on B (Kirsten, Spectral Functions in Mathematics
    and Physics, 2001) an eigenvalue adds w vol(B) (4 pi)^{-b/2} times
    lam^{b/2} Gamma(-b/2, lam t1) plus the l != 0 terms of `_lattice_terms`
    less their part below t1, which is charged.  The terms with
    |l| sqrt(lam) > X = LATTICE_REACH are left out: a_l/t + lam t >=
    |l| sqrt(lam) puts each below e^{-X/2} = u^2 times its share of
    2^{b/2} Theta_B(2t) sum w e^{-lam t/2}, so all of them below
    e^{-X/2} 2^{b/2} Theta_B(t1) W E1(lam_1 t1 / 2), W the total weight and
    Theta_B(t1) <= prod_i L_i (4 pi t1)^{-1/2} (1 + q_i) / (1 - q_i),
    q_i = e^{-L_i^2 / 4 t1}.  Past the cutoff Lambda, E1(x) <= e^-x / x and
    Theta_B decreasing bound the eigenvalues left out by
    tail(t1) / (Lambda t1).  The positive terms are summed by math.fsum,
    each charged its special functions' error, which covers its roundings;
    three more roundings form the value.
    """
    eig = samples.eigenvalues
    if eig is None:
        raise DecayRateUnknown("the large-t integral needs the trace's eigenvalues")
    zero_w = float(eig.weight[eig.lam <= ZERO_EIGENVALUE].sum())
    if abs(zero_w - kernel_dim) > 1e-9:
        raise DecayRateUnknown(
            f"zero-mode weight {zero_w} does not match kernel_dim {kernel_dim}")
    periods = eig.base_periods
    if periods and zero_w:
        raise DecayRateUnknown("a zero mode times a flat base does not decay")
    t1, pos, b = float(samples.grid[0]), eig.positive(), len(periods)
    x = pos.lam * t1
    gamma, size = _upper_gamma(b, x)
    scale = pos.weight * pos.lam ** (b / 2.0)
    error = scale * (size * SPECIAL_FUNCTION_ERROR * (1.0 + x) + SMALLEST_NORMAL)
    factor = math.prod(periods) * (4.0 * math.pi) ** (-b / 2.0)
    lattice = lattice_error = charge = dropped = 0.0
    if b and len(pos):
        lattice, lattice_error, charge = _lattice_terms(pos, t1)
        theta = math.prod(L / math.sqrt(4.0 * math.pi * t1) * (1.0 + math.exp(-L * L / (4.0 * t1)))
                          / -math.expm1(-L * L / (4.0 * t1)) for L in periods)
        dropped = math.exp(-LATTICE_REACH / 2.0) * 2.0 ** (b / 2.0) * theta \
            * float(pos.weight.sum()) * float(exp1(pos.lam[:1] * t1 / 2.0)[0])
    value = factor * (math.fsum(scale * gamma) + lattice)
    bound = factor * (math.fsum(error) + lattice_error + charge) + dropped \
        + 3.0 * UNIT_ROUNDOFF * abs(value)
    if math.isfinite(eig.cutoff):
        bound += float(samples.tail_bound[0]) / (eig.cutoff * t1)
    return value, bound


def _fit_report(samples: TraceSamples, fit: FittedExpansion, kernel_dim: int,
                large: float, large_bound: float) -> dict:
    """One fit's zeta(0) and zeta'(0), their bounds before the bias, the
    zeta'(0) budget with each coefficient's shift, and the residue at
    s = 0 (a_-2) with its bound.

    zeta'(0) = sum_a D_a c_a + large - k (log t1 + g1).  Below t1 the
    remainder r = trace - model is bounded by twice |r(t1)| (it decays at
    least like sqrt(t) relative to the local scale), in the bound, never in
    the value; r(t1) is charged the sample's tail bound, and r(t1) and
    sum_a D_a c_a their rounding, gamma_n on the scale of their m terms.
    zeta(0) and the residue are charged the remainder too, unless t^0 is
    pinned and the template has no t^0 log t column.
    """
    t1 = samples.grid[:1]
    keys, c = list(fit.coefficients), list(fit.coefficients.values())
    weights = [_closed_form_weight(key, float(t1[0])) for key in keys]
    model = [ci * float(basis_column(t1, *key)[0]) for ci, key in zip(c, keys)]
    trace = float(samples.values[0])
    first = trace - math.fsum(model)
    terms = [w * ci for w, ci in zip(weights, c)]
    zero, log_zero = (Fraction(0), False), (Fraction(0), True)
    a_m1 = fit.coefficients.get(zero, 0.0) - kernel_dim
    a_m2 = 0.0 - fit.coefficients.get(log_zero, 0.0)
    zeta_prime0 = math.fsum([*terms, large, -kernel_dim * _closed_form_weight(zero, float(t1[0]))])
    rounding = rounding_gamma(len(c) + 3)
    rem_bound = 2.0 * (abs(first) + float(samples.tail_bound[0])
                       + rounding * (abs(trace) + math.fsum(map(abs, model)))) \
        + rounding * math.fsum(map(abs, terms))
    # zeta(0) reads a_-1 and a_-2, which the t^0 and t^0 log t coefficients
    # enter directly; zeta'(0) moves by its derivative weight.  With t^0
    # pinned and no t^0 log t column, they are the pin's closed form and 0,
    # which the remainder cannot move: only the pin's rounding is charged,
    # on the scale of its value (`heat_pins` sums the circle cone's
    # cancelling terms exactly and rounds once), plus the pin's own error,
    # its coefficient bound (nonzero on T^2 fibers)
    bounds = fit.coefficient_bounds
    s_m2, s_m1 = bounds.get(log_zero, 0.0), bounds.get(zero, 0.0)
    if zero in fit.pinned and log_zero not in fit.coefficients:
        read_bound = rounding * abs(fit.coefficients[zero])
    else:
        read_bound = rem_bound
    shifts = {key: abs(w) * bounds[key] for key, w in zip(keys, weights)}
    return {"fit": fit, "zeta0": a_m1 + G1 * a_m2, "zeta_prime0": zeta_prime0,
            "zeta0_bound": s_m1 + G1 * s_m2 + read_bound,
            "shifts": shifts,
            "budget": {"fit_shift": sum(shifts.values()), "remainder": rem_bound,
                       "large_t": large_bound},
            "residue": a_m2, "residue_bound": s_m2 + read_bound}


def zeta_near_zero(samples: TraceSamples, fit: FittedExpansion, kernel_dim: int,
                   degree: int = 0) -> ZetaData:
    """Zeta invariants at s = 0 from trace samples and a fitted expansion,
    split at the first sample.

    With a partner fit, the spread of the two fits' zeta(0) and zeta'(0)
    joins the partner's bounds (`zeta0_bias`, `bias`), and the spread plus
    min(the partner's own bound, the spread) joins the fit's; the fit with
    the smaller zeta'(0) bound gives the values, their bounds, the
    residual and the condition; on a tie the fit's own.  The residue at s = 0 is read from the
    partner's t^0 log t term."""
    if fit.residual >= FIT_RESIDUAL_LIMIT:
        raise FitResidualTooLarge(
            f"fit residual {fit.residual:.3g} >= {FIT_RESIDUAL_LIMIT}")

    large, large_bound = _large_t_integral(samples, kernel_dim)
    fits = [f for f in (fit, fit.partner) if f is not None]
    reports = [_fit_report(samples, f, kernel_dim, large, large_bound) for f in fits]
    extra = {}
    if fit.pinned:
        extra["pinned"] = [column_name(key) for key in fit.pinned]
    for r in reports:
        r["zeta_prime0_bound"] = sum(r["budget"].values())
    if fit.partner is not None:
        own, partner = reports
        spread0 = abs(own["zeta0"] - partner["zeta0"])
        spread = abs(own["zeta_prime0"] - partner["zeta_prime0"])
        # |v2 - true| <= spread + |v3 - true|, charged at most twice the spread
        own["zeta0_bias"] = spread0 + min(partner["zeta0_bound"], spread0)
        own["budget"]["bias"] = spread + min(partner["zeta_prime0_bound"], spread)
        partner["zeta0_bias"], partner["budget"]["bias"] = spread0, spread
        for r in reports:
            r["zeta0_bound"] += r["zeta0_bias"]
            r["zeta_prime0_bound"] = sum(r["budget"].values())
    chosen = min((r for r in reports if r["fit"].residual < FIT_RESIDUAL_LIMIT),
                 key=lambda r: r["zeta_prime0_bound"])
    if "zeta0_bias" in chosen:
        extra["zeta0_bias"] = chosen["zeta0_bias"]
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
