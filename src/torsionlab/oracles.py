"""The oracle table, run by `torsionlab selftest` and, entry by numbered
entry, as the acceptance criteria of tests/test_acceptance.py.

check(quick, convention) returns (True | False | "expected-fail", detail).
Full size is the acceptance criterion itself and `quick` only shrinks
sizes; the criteria fix their own conventions.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from . import bessel, conekernel, fiber, phg, zetator
from .errors import NegativeBlockEigenvalue

GEO = fiber.Convention.GEOMETRIC_ORACLE
TWO_PI = 2.0 * math.pi


def _flat_nu(p: int, nu_max: float, convention=GEO) -> fiber.NuSpectrum:
    """Nu-spectrum in degree p of the cone over the unit circle."""
    fib = fiber.torus_spectrum((TWO_PI,), cutoff=nu_max + 1.5)
    return fiber.a_spectrum(fib, p, convention, nu_max=nu_max)


def _theta_trace(grid):
    """Trace of one radial mode of order 1/2 (spectrum k^2 pi^2) and its template."""
    spec = conekernel.cone_spectrum(fiber.single_nu_spectrum(0.5), lambda_cutoff=3.4e5,
                                    cone_dim=1)
    return conekernel.truncated_cone_trace(spec, 0, grid), \
        phg.heat_trace_structure(1, 0, even=True, boundary=True, cutoff=1)


def bessel_closed_form(quick, convention):
    """Criterion 1: I_1/2(z) = sqrt(2 / pi z) sinh z."""
    worst = 0.0
    for z in np.geomspace(1e-3, 30.0, 100 if quick else 1000):
        want = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)
        worst = max(worst, abs(bessel.bessel_i(0.5, z) - want) / want)
    return worst <= 1e-12, f"I_1/2 closed form: max rel err {worst:.2e}"


def kernel_images(quick, convention):
    """Criterion 2: the order-1/2 model kernel is the method of images."""
    n = 4 if quick else 10
    worst = 0.0
    for t in np.geomspace(1e-3, 1.0, n):
        for x in np.linspace(0.1, 2.0, n):
            for y in np.linspace(0.1, 2.0, n):
                want = (4 * math.pi * t) ** -0.5 * (
                    math.exp(-((x - y) ** 2) / (4 * t))
                    - math.exp(-((x + y) ** 2) / (4 * t)))
                got = conekernel.cone_heat_kernel(0.5, t, x, y)
                if want == 0.0:  # both sides underflow together
                    worst = max(worst, abs(got))
                else:
                    worst = max(worst, abs(got - want) / want)
    return worst <= 1e-10, f"model kernel vs images {n}x{n}x{n}: max rel err {worst:.2e}"


def zeros_exact(quick, convention):
    """Criterion 3: J_1/2 zeros are k pi, and the tabulated first J_0 zero."""
    count = 100 if quick else 500
    zeros = bessel.bessel_j_zeros(0.5, (count + 0.5) * math.pi)
    worst = max(abs(z - k * math.pi) / (k * math.pi)
                for k, z in enumerate(zeros[:count], start=1))
    err = abs(bessel.bessel_j_zeros(0.0, 3.0)[0] - 2.404825557695773)
    return worst <= 1e-12 and err < 1e-10, \
        f"J_1/2 zeros = k pi to {worst:.2e}; j_0,1 err {err:.2e}"


def theta_fit(quick, convention):
    """Criterion 4: the theta-trace coefficients 1/(2 sqrt pi) and -1/2."""
    tr, tpl = _theta_trace(conekernel.log_grid(1e-4, 1e-1, 40))
    fit = conekernel.fit_expansion(tr, tpl)
    e_lead = abs(fit.coefficient(Fraction(-1, 2)) - 1.0 / (2.0 * math.sqrt(math.pi)))
    e_const = abs(fit.coefficient(0) + 0.5)
    return e_lead <= 1e-6 and e_const <= 1e-5, \
        f"theta fit errs ({e_lead:.2e}, {e_const:.2e})"


def zeta_riemann(quick, convention):
    """Criterion 5: zeta(0) = -1/2, zeta'(0) = -log 2, independent of the split."""
    tr, tpl = _theta_trace(conekernel.log_grid(1e-4, 1.0, 241))
    fit = conekernel.fit_expansion(tr.restrict(t_max=0.1), tpl)
    z1 = zetator.zeta_near_zero(tr, fit, kernel_dim=0, split=1.0)
    z2 = zetator.zeta_near_zero(tr, fit, kernel_dim=0, split=0.5)
    e0 = abs(z1.zeta0 + 0.5)
    e1 = abs(z1.zeta_prime0 + math.log(2))
    split_ok = (abs(z1.zeta0 - z2.zeta0)
                <= z1.diagnostics["zeta0_bound"] + z2.diagnostics["zeta0_bound"] + 1e-12
                and abs(z1.zeta_prime0 - z2.zeta_prime0)
                <= z1.diagnostics["zeta_prime0_bound"] + z2.diagnostics["zeta_prime0_bound"])
    return e0 <= 1e-6 and e1 <= 1e-5 and split_ok, \
        f"zeta(0) err {e0:.2e}, zeta'(0) err {e1:.2e}, split independent: {split_ok}"


def dense_a_oracle(quick, convention):
    """Criterion 6: closed-form block spectra against a dense assembly."""
    n = 32 if quick else 64
    worst = worst_conv = 0.0
    for periods in ((TWO_PI,),) if quick else ((TWO_PI,), (2 * TWO_PI,), (TWO_PI, TWO_PI)):
        for conv in fiber.Convention:
            for p in range(len(periods) + 2):
                dense, kmax = fiber.dense_a_eigenvalues(periods, p, conv, n_modes=n)
                fib = fiber.torus_spectrum(periods, cutoff=kmax * (1 + 1e-12))
                nu2, mult, _ = fiber.a_block_eigenvalues(fib, p, conv)
                closed = np.sort(np.repeat(nu2, mult))
                if len(closed) != len(dense):
                    return False, f"eigenvalue counts differ for {periods}, p={p}, {conv.value}"
                worst = max(worst, float(np.max(np.abs(closed - dense))))
                big, _ = fiber.dense_a_eigenvalues(periods, p, conv, n_modes=2 * n)
                for e in dense:
                    worst_conv = max(worst_conv, float(np.min(np.abs(big - e))))
    return worst <= 1e-9 and worst_conv <= 1e-10, \
        f"closed-form vs dense max |diff| {worst:.2e}; " \
        f"truncation doubling moves {worst_conv:.2e}"


def _flat_orders(convention, kmax: int) -> bool:
    """Whether the scalar cone over the unit circle has Bessel orders |k| <= kmax."""
    got = _flat_nu(0, kmax + 0.5, convention).nu_multiset()
    want = [0.0] + [float(k) for k in range(1, kmax + 1) for _ in range(2)]
    return len(got) == len(want) and max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def disk_weyl(quick, convention):
    """Criterion 7: flat-plane orders and the disk's Weyl coefficients."""
    multiset_ok = _flat_orders(GEO, 7)
    t_min = 2e-3 if quick else 1e-3
    lam = 36.0 / t_min
    spec = conekernel.cone_spectrum(_flat_nu(0, math.sqrt(lam) + 0.5), lam)
    tr = conekernel.truncated_cone_trace(spec, 0, conekernel.log_grid(t_min, 1e-1, 121))
    tpl = phg.heat_trace_structure(2, 0, even=True, boundary=True, cutoff=2)
    fit = conekernel.fit_expansion(tr, tpl)
    e_area = abs(fit.coefficient(-1) - 0.25)
    e_perim = abs(fit.coefficient(Fraction(-1, 2)) + math.sqrt(math.pi) / 4.0)
    return multiset_ok and e_area <= 1e-3 and e_perim <= 5e-3, \
        f"nu multiset = |k|: {multiset_ok}; disk Weyl errs ({e_area:.2e}, {e_perim:.2e})"


def mckean_singer(quick, convention):
    """Criterion 9: even and odd degrees of the flat cone match (supersymmetry)."""
    def spectra(lam):
        return [conekernel.cone_spectrum(_flat_nu(p, math.sqrt(lam) + 0.5), lam)
                for p in range(3)]

    labels = [Counter(), Counter()]
    for p, spec in enumerate(spectra(200.0)):
        for nu, zs in spec.zeros.items():
            for k in range(len(zs)):
                labels[p % 2][nu, k] += spec.multiplicities[nu]
    labels_ok = labels[0] == labels[1]
    # the certified-trace defect needs a cutoff adequate for t = 0.05
    grid = conekernel.log_grid(0.05, 1.0, 10 if quick else 20)
    traces = [conekernel.truncated_cone_trace(spec, p, grid)
              for p, spec in enumerate(spectra(800.0))]
    defect = conekernel.mckean_singer_defect(traces, [0, 0, 0])
    return labels_ok and defect < 1e-6, \
        f"(nu, k) labels match below 200: {labels_ok}; McKean-Singer defect {defect:.2e}"


def gauss_bonnet(quick, convention):
    """Even and odd nu-spectra pair through one first-order operator."""
    try:
        s0, s1, s2 = (_flat_nu(p, 10.0, convention) for p in range(3))
    except NegativeBlockEigenvalue as exc:
        if convention is GEO:
            raise
        return "expected-fail", f"literal blocks indefinite ({type(exc).__name__})"
    return fiber.gauss_bonnet_consistency([s0, s2], [s1], tol=1e-9), \
        "even/odd spectra pair through a common first-order operator"


def convention_comparison(quick, convention):
    """The flat-plane orders |k|, which only GeometricOracle reproduces."""
    agrees = _flat_orders(convention, 5)
    if convention is GEO:
        return agrees, "flat-plane orders |k| reproduced"
    if agrees:
        return False, "literal constants unexpectedly agree"
    # literal constants shift the scalar orders: expected to disagree
    return "expected-fail", "flat-plane oracle differs (nu^2 = k^2 + 1)"


# (name, acceptance criterion or None, check), in selftest order
ORACLES = (
    ("bessel_closed_form", 1, bessel_closed_form),
    ("kernel_images", 2, kernel_images),
    ("zeros_exact", 3, zeros_exact),
    ("dense_a_oracle", 6, dense_a_oracle),
    ("theta_fit", 4, theta_fit),
    ("zeta_riemann", 5, zeta_riemann),
    ("disk_weyl", 7, disk_weyl),
    ("mckean_singer", 9, mckean_singer),
    ("gauss_bonnet", None, gauss_bonnet),
    ("convention_comparison", None, convention_comparison),
)


def criterion(number: int, quick: bool = False):
    """(ok, detail) of acceptance criterion `number`."""
    check = next(check for _, n, check in ORACLES if n == number)
    return check(quick, GEO)
