"""Test oracle: Gamma(s) * zeta(s) at complex s, and its Laurent data by contours.

A second route to the Laurent coefficients that `zetator.zeta_near_zero`
reads off analytically: the fitted expansion and the remainder are
integrated at complex s, the large-t piece by quadrature of the eigenvalue
sum, and contour averages recover residues and Laurent coefficients.  The
tests compare the two routes; the package itself has only the analytic one.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import gamma as gamma_fn

from torsionlab.conekernel import FittedExpansion, TraceSamples
from torsionlab.errors import DecayRateUnknown
from torsionlab.zetator import _fit_terms_with_kernel

def gamma_weighted_zeta(samples: TraceSamples, fit: FittedExpansion,
                        kernel_dim: int, s: complex, split: float = 1.0) -> complex:
    """Gamma(s) * zeta(s) at a complex point away from the exact poles.

    Accuracy is set by the fit window and the remainder quadrature; the
    precise instrument for Laurent data at the predicted poles is the
    analytic part, which this function evaluates exactly.
    """
    if samples.grid[-1] < split:
        raise ValueError(f"samples must reach the split point {split}")
    terms = _fit_terms_with_kernel(fit, kernel_dim)
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
    resid = samples.values - fit.model(t)
    u = np.log(t)
    total += complex(CubicSpline(u, resid * np.exp(s.real * u)
                                 * np.exp(1j * s.imag * u)).integrate(u[0], math.log(t0)))
    if samples.eigenvalues is None:
        raise DecayRateUnknown("complex evaluation requires eigenvalue data")
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
