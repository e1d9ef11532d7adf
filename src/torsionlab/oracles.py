"""The oracle table, run by `torsionlab selftest` and, numbered row by
numbered row, as the eleven acceptance criteria of tests/test_acceptance.py.

check() returns (passed, detail), at its criterion's full size, with the
criterion's own convention and tolerances.  The two unnumbered rows check
both conventions: GeometricOracle must pass, and PaperLiteral must show
its documented discrepancy.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from . import bessel, conekernel, fiber, phg, zetator
from .errors import IntegrabilityViolation

GEO = fiber.Convention.GEOMETRIC_ORACLE
LIT = fiber.Convention.PAPER_LITERAL
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


# ------------------------------------------- index-set enumeration oracle --
# A second implementation of the phg calculus, kept as the oracle of
# criteria 8 and 10 and tests/test_phg.py: members listed literally, the
# extended union applied as set arithmetic.

def enumerate_members(gens, cutoff) -> set:
    """Literal member set of [(start, logpower, step), ...] up to cutoff."""
    out = set()
    for a, p, s in gens:
        e = Fraction(a)
        while e <= cutoff:
            out.update((e, q) for q in range(p + 1))
            e += Fraction(s)
    return out


def brute_extended_union(mem_e: set, mem_f: set) -> set:
    """The extended union of two member sets, pair by pair."""
    return mem_e | mem_f | {(z, p + q + 1) for z, p in mem_e for w, q in mem_f if z == w}


def members_of(ixset: phg.IndexSet, cutoff) -> set:
    """Member set of an IndexSet up to cutoff."""
    return {(t.exponent, q) for t in ixset.terms_below(cutoff) for q in range(t.logpower + 1)}


def expected_trace_sets(m: int, b: int, even: bool, cutoff) -> tuple[set, set]:
    """Exponent and log sets of the short-time trace expansion: interior
    powers l - m/2, edge powers (l - b)/2 (or l - b/2 when even), logs where
    l + m - b is even (or everywhere when m - b is even)."""
    exps, logs = set(), set()
    n = 0
    while Fraction(n) - Fraction(m, 2) <= cutoff:
        exps.add(Fraction(n) - Fraction(m, 2))
        n += 1
    n = 0
    while True:
        e = Fraction(n) - Fraction(b, 2) if even else Fraction(n - b, 2)
        if e > cutoff:
            break
        exps.add(e)
        if (m - b if even else n + m - b) % 2 == 0:
            logs.add(e)
        n += 1
    return exps, logs


def trace_expansion_matches(m: int, b: int, even: bool, cutoff) -> bool:
    """Whether the trace pushforward of an (m, b) edge has the expected
    exponent and log sets and the brute-force coincidences of its halved
    face sets, up to cutoff."""
    got = phg.pushforward_trace_index(phg.IndexSet.progression(-m, step=2),
                                      phg.IndexSet.progression(-b, step=2 if even else 1))
    want_exps, want_logs = expected_trace_sets(m, b, even, cutoff)
    terms = got.terms_below(cutoff)
    td = enumerate_members([(Fraction(-m, 2), 0, 1)], cutoff)
    ff = enumerate_members([(Fraction(-b, 2), 0, 1 if even else Fraction(1, 2))], cutoff)
    return ({t.exponent for t in terms} == want_exps
            and {t.exponent for t in terms if t.logpower > 0} == want_logs
            and members_of(got, cutoff) == brute_extended_union(td, ff))


# ------------------------------------------------------- the criteria --

def bessel_closed_form():
    """Criterion 1: I_1/2(z) = sqrt(2 / pi z) sinh z."""
    worst = 0.0
    for z in np.geomspace(1e-3, 30.0, 1000):
        want = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)
        worst = max(worst, abs(bessel.bessel_i(0.5, z) - want) / want)
    return worst <= 1e-12, f"I_1/2 closed form: max rel err {worst:.2e}"


def kernel_images():
    """Criterion 2: the order-1/2 model kernel is the method of images."""
    worst = 0.0
    for t in np.geomspace(1e-3, 1.0, 10):
        for x in np.linspace(0.1, 2.0, 10):
            for y in np.linspace(0.1, 2.0, 10):
                want = (4 * math.pi * t) ** -0.5 * (
                    math.exp(-((x - y) ** 2) / (4 * t))
                    - math.exp(-((x + y) ** 2) / (4 * t)))
                got = conekernel.cone_heat_kernel(0.5, t, x, y)
                if got != want:  # where the images underflow, so must the kernel
                    worst = max(worst, abs(got - want) / want if want else math.inf)
    return worst <= 1e-10, f"model kernel vs images 10x10x10: max rel err {worst:.2e}"


def zeros_exact():
    """Criterion 3: J_1/2 zeros are k pi, and the tabulated first J_0 zero."""
    zeros = bessel.bessel_j_zeros(0.5, 500.5 * math.pi)
    worst = max((abs(z - k * math.pi) / (k * math.pi) for k, z in enumerate(zeros, start=1)),
                default=math.inf)
    err = abs(bessel.bessel_j_zeros(0.0, 3.0)[0] - 2.404825557695773)
    return len(zeros) == 500 and worst <= 1e-12 and err < 1e-10, \
        f"{len(zeros)} J_1/2 zeros = k pi to {worst:.2e}; j_0,1 err {err:.2e}"


def theta_fit():
    """Criterion 4: the theta-trace coefficients 1/(2 sqrt pi) and -1/2, and
    no t^1/2 or t^1 term."""
    tr, tpl = _theta_trace(conekernel.log_grid(1e-4, 1e-1, 40))
    fit = conekernel.fit_expansion(tr, tpl)
    e_lead = abs(fit.coefficient(Fraction(-1, 2)) - 1.0 / (2.0 * math.sqrt(math.pi)))
    e_const = abs(fit.coefficient(0) + 0.5)
    e_rest = max(abs(fit.coefficient(Fraction(1, 2))), abs(fit.coefficient(1)))
    return e_lead <= 1e-6 and e_const <= 1e-5 and e_rest < 1e-6, \
        f"theta fit errs ({e_lead:.2e}, {e_const:.2e}); higher terms {e_rest:.2e}"


def zeta_riemann():
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
    # no kernel, and the Riemann zeta function is regular at s = 0
    plain_ok = z1.zeta0 == z1.zeta0_minus_kernel and abs(z1.residue_at_zero) < 1e-12
    return e0 <= 1e-6 and e1 <= 1e-5 and split_ok and plain_ok, \
        f"zeta(0) err {e0:.2e}, zeta'(0) err {e1:.2e}, split independent: {split_ok}, " \
        f"no kernel and residue {z1.residue_at_zero:.2e}: {plain_ok}"


def dense_a_gaps(periods, p: int, convention) -> tuple[float, float]:
    """Largest gap between the closed-form and the 64-mode dense block
    spectrum in degree p (inf if their counts differ), and the largest
    distance from a dense eigenvalue to the spectrum on 128 modes."""
    dense, kmax = fiber.dense_a_eigenvalues(periods, p, convention, n_modes=64)
    fib = fiber.torus_spectrum(periods, cutoff=kmax * (1 + 1e-12))
    nu2, mult, _ = fiber.a_block_eigenvalues(fib, p, convention)
    closed = np.sort(np.repeat(nu2, mult))
    gap = float(np.max(np.abs(closed - dense))) if len(closed) == len(dense) else math.inf
    big, _ = fiber.dense_a_eigenvalues(periods, p, convention, n_modes=128)
    return gap, max((float(np.min(np.abs(big - e))) for e in dense), default=0.0)


def dense_a_oracle():
    """Criterion 6: closed-form block spectra against a dense assembly, in
    every degree of three fibers and both conventions."""
    gaps = {}
    for periods in ((TWO_PI,), (2 * TWO_PI,), (TWO_PI, TWO_PI)):
        for conv in fiber.Convention:
            for p in range(len(periods) + 2):
                case = f"periods {tuple(round(x, 3) for x in periods)} {conv.value} p = {p}"
                gaps[case] = dense_a_gaps(periods, p, conv)
    worst, at = max((gap, case) for case, (gap, _) in gaps.items())
    moved, at_moved = max((move, case) for case, (_, move) in gaps.items())
    return worst <= 1e-9 and moved <= 1e-10, \
        f"closed-form vs dense max |diff| {worst:.2e} ({at}); " \
        f"truncation doubling moves {moved:.2e} ({at_moved})"


def _flat_orders(convention, kmax: int, shift: int = 0) -> bool:
    """Whether the scalar cone over the unit circle has the Bessel orders
    sqrt(k^2 + shift), |k| <= kmax, and no other up to kmax + 1/2."""
    got = _flat_nu(0, kmax + 0.5, convention).nu_multiset()
    want = sorted(math.sqrt(k * k + shift) for k in range(-kmax, kmax + 1))
    return len(got) == len(want) and max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def disk_weyl():
    """Criterion 7: flat-plane orders and the disk's Weyl coefficients."""
    multiset_ok = _flat_orders(GEO, 7)
    t_min = 1e-3
    lam = 36.0 / t_min
    spec = conekernel.cone_spectrum(_flat_nu(0, math.sqrt(lam) + 0.5), lam)
    tr = conekernel.truncated_cone_trace(spec, 0, conekernel.log_grid(t_min, 1e-1, 121))
    tpl = phg.heat_trace_structure(2, 0, even=True, boundary=True, cutoff=2)
    fit = conekernel.fit_expansion(tr, tpl)
    e_area = abs(fit.coefficient(-1) - 0.25)
    e_perim = abs(fit.coefficient(Fraction(-1, 2)) + math.sqrt(math.pi) / 4.0)
    return multiset_ok and e_area <= 1e-3 and e_perim <= 5e-3, \
        f"nu multiset = |k|: {multiset_ok}; disk Weyl errs ({e_area:.2e}, {e_perim:.2e})"


def structure_predictions():
    """Criterion 8: trace exponent and log sets of every 2 <= m <= 8,
    0 <= b <= m - 2 and parity against enumeration, and the even calculus's
    claims at s = 0 (regular for odd m, zeta(0) coefficient zero for odd b)."""
    cases = [(m, b, even) for m in range(2, 9) for b in range(m - 1) for even in (False, True)]
    wrong = [case for case in cases if not trace_expansion_matches(*case, 10)]
    for m in range(3, 9, 2):
        for b in range(m - 1):
            rep = phg.zeta_pole_structure(phg.heat_trace_structure(m, b, even=True))
            if not rep.regular_at_zero or (b % 2 == 1 and not rep.zeta0_coefficient_zero):
                wrong.append((m, b, "zeta"))
    return not wrong, f"trace exponent/log sets of {len(cases)} (m, b, parity) cases " \
        f"to order 10 and the zeta claims; wrong: {wrong or 'none'}"


def mckean_singer():
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
    grid = conekernel.log_grid(0.05, 1.0, 20)
    traces = [conekernel.truncated_cone_trace(spec, p, grid)
              for p, spec in enumerate(spectra(800.0))]
    defect = conekernel.mckean_singer_defect(traces, [0, 0, 0])
    return labels_ok and defect < 1e-6, \
        f"(nu, k) labels match below 200: {labels_ok}; McKean-Singer defect {defect:.2e}"


def _small_index_sets() -> list:
    """Generator lists with exponents in {-1/2, 0, 1/2, 1}, log powers <= 1."""
    pool = [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    return [[(e, p, 1)] for e in pool for p in (0, 1)] \
        + [[(e1, 0, 1), (e2, 1, 1)] for e1 in pool for e2 in pool if e2 > e1]


def composition_algebra():
    """Criterion 10: composition index families against literal set
    arithmetic (a factor's face set, extended-unioned with itself shifted
    by the front-face order), and a non-integrable corner refused."""
    def family(gens, shift):
        shifted = [(e + shift, p, s) for e, p, s in gens]
        return brute_extended_union(enumerate_members(gens, 6), enumerate_members(shifted, 6))

    cases = wrong = 0
    for a in _small_index_sets():
        for b in _small_index_sets():
            ea, eb = phg.IndexSet(a), phg.IndexSet(b)
            integrable = min(e for e, _, _ in a) + min(e for e, _, _ in b) > -1
            for l, lp in ((0, 0), (2, 3)):
                try:
                    got = phg.compose_index(l, lp, ea, eb, ea, eb)
                except IntegrabilityViolation:
                    wrong += integrable
                    continue
                cases += 1
                wrong += (not integrable or members_of(got.p_lf, 6) != family(a, lp)
                          or members_of(got.p_rf, 6) != family(b, l))
    return wrong == 0 and cases >= 100, \
        f"composition families verified set-theoretically on {cases} cases; wrong: {wrong}"


# (nu, t1, t2, x, y)
SEMIGROUP_TUPLES = (
    (0.0, 0.1, 0.2, 0.3, 0.7), (0.0, 0.05, 0.05, 1.0, 0.4),
    (0.5, 0.1, 0.2, 0.3, 0.7), (0.5, 0.05, 0.05, 1.0, 0.4),
    (0.5, 0.2, 0.1, 0.9, 1.5), (1.0, 0.1, 0.2, 0.3, 0.7),
    (1.0, 0.05, 0.05, 1.0, 0.4), (1.0, 0.15, 0.3, 0.5, 0.5),
    (2.5, 0.1, 0.2, 0.3, 0.7), (2.5, 0.05, 0.05, 1.0, 0.4),
    (2.5, 0.1, 0.1, 1.2, 0.8), (4.0, 0.1, 0.2, 0.6, 0.9),
    (4.0, 0.05, 0.1, 1.0, 1.0), (0.25, 0.1, 0.05, 0.5, 1.1),
    (0.75, 0.2, 0.2, 0.7, 0.7), (1.5, 0.1, 0.3, 0.4, 1.3),
    (3.0, 0.08, 0.12, 0.9, 0.6), (0.0, 0.3, 0.3, 0.5, 0.5),
    (5.5, 0.1, 0.1, 1.1, 1.0), (1.25, 0.07, 0.21, 0.8, 0.5),
)


def semigroup_error(nu, t1, t2, x, y) -> float:
    """Relative error of int_0^inf K(t1; x, r) K(t2; r, y) dr = K(t1 + t2; x, y)."""
    from scipy.integrate import quad  # not on the torsion path

    kernel = conekernel.cone_heat_kernel
    lhs = quad(lambda r: kernel(nu, t1, x, r) * kernel(nu, t2, r, y),
               0.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=200)[0]
    rhs = kernel(nu, t1 + t2, x, y)
    return abs(lhs - rhs) / abs(rhs)


def semigroup():
    """Criterion 11: the model kernel's semigroup law, by quadrature."""
    worst, at = max((semigroup_error(*tup), tup) for tup in SEMIGROUP_TUPLES)
    return worst <= 1e-8, f"semigroup identity on {len(SEMIGROUP_TUPLES)} tuples: " \
        f"max rel err {worst:.2e} at (nu, t1, t2, x, y) = {at}"


def gauss_bonnet():
    """Even and odd nu-spectra pair through one first-order operator under
    GeometricOracle; under PaperLiteral the 1-form block over the circle is
    indefinite, so no such pairing exists."""
    paired = fiber.gauss_bonnet_consistency([_flat_nu(0, 10.0), _flat_nu(2, 10.0)],
                                            [_flat_nu(1, 10.0)], tol=1e-9)
    circle = fiber.torus_spectrum((TWO_PI,), cutoff=11.5)
    least = float(np.min(fiber.a_block_eigenvalues(circle, 1, LIT)[0]))
    return paired and least < 0, f"GeometricOracle even/odd spectra pair: {paired}; " \
        f"PaperLiteral 1-form block least eigenvalue {least:.3g}"


def convention_comparison():
    """The flat-plane orders |k|, which only GeometricOracle reproduces;
    PaperLiteral's constants shift them to sqrt(k^2 + 1)."""
    geo, lit = _flat_orders(GEO, 5), _flat_orders(LIT, 5, shift=1)
    return geo and lit, f"GeometricOracle orders |k|: {geo}; " \
        f"PaperLiteral orders sqrt(k^2 + 1): {lit}"


# (name, acceptance criterion or None, check), in selftest order
ORACLES = (
    ("bessel_closed_form", 1, bessel_closed_form),
    ("kernel_images", 2, kernel_images),
    ("zeros_exact", 3, zeros_exact),
    ("theta_fit", 4, theta_fit),
    ("zeta_riemann", 5, zeta_riemann),
    ("dense_a_oracle", 6, dense_a_oracle),
    ("disk_weyl", 7, disk_weyl),
    ("structure_predictions", 8, structure_predictions),
    ("mckean_singer", 9, mckean_singer),
    ("composition_algebra", 10, composition_algebra),
    ("semigroup", 11, semigroup),
    ("gauss_bonnet", None, gauss_bonnet),
    ("convention_comparison", None, convention_comparison),
)
