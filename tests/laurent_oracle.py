"""Test oracle: Gamma(s) * zeta(s) at complex s, and its Laurent data by contours.

A second route to the Laurent coefficients that `zetator.zeta_near_zero`
reads off analytically: the Mellin integral splits at T0 (default 1), the
fitted expansion below it integrates in closed form and the remainder by
scipy's cubic spline over the samples, the piece above T0 by quadrature
of the eigenvalue sum, all at complex s, and contour averages recover
residues and Laurent coefficients.  The tests compare the two routes; the
package itself has only the analytic one.  Only the fit's coefficients
are shared: this route folds the kernel into t^0 and evaluates the fitted
terms on the grid itself.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import gamma as gamma_fn

from torsionlab.conekernel import FittedExpansion, TraceSamples
from torsionlab.errors import DecayRateUnknown


def gamma_weighted_zeta(samples: TraceSamples, fit: FittedExpansion,
                        kernel_dim: int, s: complex, split: float = 1.0) -> complex:
    """Gamma(s) * zeta(s) at a complex point away from the exact poles.

    Accuracy is set by the fit window and the remainder quadrature; the
    precise instrument for Laurent data at the predicted poles is the
    analytic part, which this function evaluates exactly.
    """
    if samples.grid[-1] < split:
        raise ValueError(f"samples must reach the split point {split}")
    terms = dict(fit.coefficients)
    terms[(Fraction(0), False)] = terms.get((Fraction(0), False), 0.0) - kernel_dim
    t0 = split
    log_t0 = math.log(t0)
    total = 0j
    for (alpha, is_log), c in terms.items():
        a = float(alpha)
        pole = s + a
        scale = cmath.exp(pole * log_t0)
        if is_log:
            total += c * scale * (log_t0 / pole - 1.0 / (pole * pole))
        else:
            total += c * scale / pole
    t = samples.grid
    u = np.log(t)
    model = sum(c * t ** float(alpha) * (u if is_log else 1.0)
                for (alpha, is_log), c in fit.coefficients.items())
    resid = samples.values - model
    total += complex(CubicSpline(u, resid * np.exp(s.real * u)
                                 * np.exp(1j * s.imag * u)).integrate(u[0], math.log(t0)))
    if samples.eigenvalues is None:
        raise DecayRateUnknown("complex evaluation requires eigenvalue data")
    if samples.eigenvalues.base_periods:
        raise ValueError("the eigenvalues of a spectrum that records a base are not "
                         "the trace's; this route reads plain eigenvalues only")
    pos = samples.eigenvalues.positive()

    def trace_minus_kernel(tt: float) -> float:
        return float(np.dot(pos.weight, np.exp(-tt * pos.lam)))

    re = quad(lambda tt: (trace_minus_kernel(tt) * tt ** (s.real - 1.0)
                          * math.cos(s.imag * math.log(tt))), t0, np.inf,
              epsabs=1e-13, limit=200)[0]
    im = quad(lambda tt: (trace_minus_kernel(tt) * tt ** (s.real - 1.0)
                          * math.sin(s.imag * math.log(tt))), t0, np.inf,
              epsabs=1e-13, limit=200)[0]
    return total + complex(re, im)


def zeta_contour_residue(samples: TraceSamples, fit: FittedExpansion,
                         kernel_dim: int, center: complex = 0j,
                         radius: float = 0.05, nodes: int = 16,
                         split: float = 1.0) -> complex:
    """Contour estimate of the residue of zeta(s) itself at `center`."""
    acc = 0j
    for j in range(nodes):
        s = center + radius * cmath.exp(2j * math.pi * j / nodes)
        g = gamma_weighted_zeta(samples, fit, kernel_dim, s, split)
        acc += g / gamma_fn(s) * (s - center)
    return acc / nodes


def gamma_zeta_laurent_coefficient(samples: TraceSamples, fit: FittedExpansion,
                                   kernel_dim: int, s0: complex, order: int,
                                   radius: float = 0.05, nodes: int = 32,
                                   split: float = 1.0) -> complex:
    """Laurent coefficient of (s-s0)^(-order) of Gamma*zeta via a contour."""
    acc = 0j
    for j in range(nodes):
        s = s0 + radius * cmath.exp(2j * math.pi * j / nodes)
        g = gamma_weighted_zeta(samples, fit, kernel_dim, s, split)
        acc += g * (s - s0) ** order
    return acc / nodes
