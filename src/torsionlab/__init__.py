"""Spectral data, heat traces, zeta functions and analytic torsion of
model cone and edge spaces, cross-checked against an exact symbolic
calculus of polyhomogeneous index sets."""

from . import bessel, conekernel, errors, fiber, phg, zetator
from .bessel import bessel_i, bessel_j_zeros
from .conekernel import (
    ConeSpectrum,
    FittedExpansion,
    Spectrum,
    TraceSamples,
    cone_heat_kernel,
    cone_spectrum,
    fiber_factor_trace,
    fit_expansion,
    log_grid,
    mckean_singer_defect,
    product_trace,
    truncated_cone_trace,
)
from .fiber import (
    Convention,
    FiberSpectrum,
    NuSpectrum,
    a_spectrum,
    gauss_bonnet_consistency,
    single_nu_spectrum,
    torus_spectrum,
)
from .phg import (
    ExpansionTemplate,
    IndexSet,
    IndexTerm,
    compose_index,
    heat_trace_structure,
    pushforward_trace_index,
    zeta_pole_structure,
)
from .zetator import (
    TorsionReport,
    ZetaData,
    kernel_dimension,
    torsion_assemble,
    zeta_near_zero,
)

__version__ = "0.1.0"
