"""Model kernel and trace machinery against exactly solvable references.

Half-integer order makes everything elementary: the kernel collapses to
the method of images and the Dirichlet eigenvalues are k^2 pi^2, so theta
function identities supply frozen expected values.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc as scipy_gammaincc  # test oracle only
from scipy.special import jv

from torsionlab import conekernel
from torsionlab.bessel import bessel_j_zeros
from torsionlab.conekernel import (
    gammaincc,
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
from torsionlab.errors import (
    IllConditioned,
    InsufficientSamples,
    MismatchedGrids,
    TailNotCertified,
)
from torsionlab.fiber import (
    Convention,
    NuSpectrum,
    a_spectrum,
    single_nu_spectrum,
    torus_spectrum,
)
from torsionlab.phg import ExpansionTemplate
from torsionlab.zetator import zeta_near_zero
from trace_oracle import fsum_trace

GEO = Convention.GEOMETRIC_ORACLE
TWO_PI = 2.0 * math.pi

# Poisson summation: sum_k exp(-t k^2 pi^2) = 1/(2 sqrt(pi t)) - 1/2 + O(e^{-1/t});
# direct summation of 200 terms at t = 0.01:
THETA_AT_001 = 2.3209479177387814


# ---------------------------------------------------------------- kernel --

def test_kernel_symmetry_exact():
    for (nu, t, x, y) in [(0.0, 0.3, 0.2, 1.7), (2.5, 0.05, 1.1, 0.6)]:
        assert cone_heat_kernel(nu, t, x, y) == cone_heat_kernel(nu, t, y, x)


def test_kernel_positive():
    # arguments kept inside the representable range: the Gaussian factor
    # underflows to zero once (x - xt)^2 / 4t exceeds ~700 log-units
    for nu in (0.0, 0.5, 3.0):
        for t in (1e-3, 0.1, 5.0):
            for x in (0.05, 0.5, 2.0):
                assert cone_heat_kernel(nu, t, x, 1.0) > 0.0


def test_kernel_small_x_friedrichs_exponent():
    """Log-slope at small x is nu + 1/2: the Friedrichs branch selection."""
    for nu in (0.0, 0.5, 1.0, 2.5):
        x1, x2 = 0.8e-4, 1.25e-4
        k1 = cone_heat_kernel(nu, 0.1, x1, 1.0)
        k2 = cone_heat_kernel(nu, 0.1, x2, 1.0)
        slope = math.log(k2 / k1) / math.log(x2 / x1)
        assert abs(slope - (nu + 0.5)) < 1e-6


def test_kernel_domain_errors():
    with pytest.raises(ValueError):
        cone_heat_kernel(-1.0, 0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        cone_heat_kernel(0.5, 0.0, 0.5, 0.5)


def test_eigenfunction_collocation():
    """u = sqrt(x) J_nu(j x) satisfies -u'' + (nu^2 - 1/4) u / x^2 = j^2 u."""
    for nu in (0.0, 0.5, 2.0):
        j = bessel_j_zeros(nu, 12.0)[1]
        u = lambda x: math.sqrt(x) * jv(nu, j * x)
        h = 3e-3
        worst = 0.0
        for x in np.linspace(0.2, 0.9, 15):
            d_h = (u(x + h) - 2 * u(x) + u(x - h)) / h**2
            d_h2 = (u(x + h / 2) - 2 * u(x) + u(x - h / 2)) / (h / 2) ** 2
            upp = (4 * d_h2 - d_h) / 3.0
            lhs = -upp + (nu * nu - 0.25) / (x * x) * u(x)
            worst = max(worst, abs(lhs - j * j * u(x)))
        assert worst <= 1e-8 * j * j


# ---------------------------------------------------------------- spectra --

def test_cone_spectrum_zero_lists_ascending_and_above_order():
    fiber = torus_spectrum((TWO_PI,), cutoff=9.0)
    spec = cone_spectrum(a_spectrum(fiber, 0, GEO, nu_max=8.0), lambda_cutoff=300.0)
    for nu, zs in spec.zeros.items():
        assert zs == sorted(zs)
        assert all(z > nu for z in zs)
    eig = spec.spectrum()
    assert np.all(eig.lam <= 300.0)
    assert np.all(np.diff(eig.lam) >= 0)


def test_cone_spectrum_merges_equal_orders():
    fiber = torus_spectrum((TWO_PI,), cutoff=6.0)
    spec = cone_spectrum(a_spectrum(fiber, 1, GEO, nu_max=5.0), lambda_cutoff=100.0)
    # orders |k-1| and |k+1| overlap: each distinct nu appears once
    assert len(spec.zeros) == len(set(spec.zeros))
    assert spec.multiplicities[1.0] == 4  # two harmonics + pair branch at k=2


def test_zero_cache_keeps_orders_shared_by_degrees():
    """More orders than the old 8,192-entry LRU cache held: two degrees with
    the same 10,000 orders compute each order's zeros exactly once."""
    def degree(p):
        nu = 0.3 + 1e-3 * np.arange(10_000)
        return NuSpectrum(nu, np.ones(len(nu), dtype=int), p, GEO, math.inf)

    before = conekernel._cached_zeros.cache_info()
    first = cone_spectrum(degree(0), lambda_cutoff=150.0)
    second = cone_spectrum(degree(1), lambda_cutoff=150.0)
    after = conekernel._cached_zeros.cache_info()
    assert after.misses - before.misses == 10_000
    assert after.hits - before.hits == 10_000
    assert after.currsize - before.currsize == 10_000
    assert first.zeros == second.zeros
    assert sum(map(len, first.zeros.values())) > 10_000


# ----------------------------------------------------------------- traces --

def _theta_trace(t_grid, lam=3.4e5):
    spec = cone_spectrum(single_nu_spectrum(0.5), lambda_cutoff=lam, cone_dim=1)
    return truncated_cone_trace(spec, 0, t_grid)


def test_single_mode_trace_theta_value():
    tr = _theta_trace(np.array([0.01]), lam=7000.0)
    assert tr.values[0] == pytest.approx(THETA_AT_001, abs=1e-13)
    assert tr.tail_bound[0] < 1e-10 * tr.values[0]


def test_trace_decays_to_zero():
    tr = _theta_trace(np.array([0.5, 1.0, 3.0]), lam=7000.0)
    assert np.all(np.diff(tr.values) < 0)
    assert tr.values[-1] < 2e-13


def test_trace_tail_certification_failure():
    spec = cone_spectrum(single_nu_spectrum(0.5), lambda_cutoff=1e4, cone_dim=1)
    with pytest.raises(TailNotCertified):
        truncated_cone_trace(spec, 0, log_grid(1e-4, 1e-1, 10))


def test_doubling_cutoff_stays_within_tail_bound():
    grid = log_grid(0.01, 0.1, 8)
    t1 = _theta_trace(grid, lam=5e3)
    t2 = _theta_trace(grid, lam=1e4)
    assert np.all(np.abs(t2.values - t1.values) <= t1.tail_bound)


def test_trace_spectral_kernel_consistency():
    """Trace equals the integrated diagonal of the spectral kernel sum."""
    nu, t = 0.5, 0.05
    spec = cone_spectrum(single_nu_spectrum(nu), lambda_cutoff=800.0, cone_dim=1)
    tr = truncated_cone_trace(spec, 0, np.array([t]))
    zs = spec.zeros[nu]
    norms = [0.5 * jv(nu + 1, z) ** 2 for z in zs]

    def diag(x):
        return sum(math.exp(-t * z * z) * x * jv(nu, z * x) ** 2 / n
                   for z, n in zip(zs, norms))

    val, err = quad(diag, 0.0, 1.0, epsabs=1e-10, limit=300)
    assert abs(val - tr.values[0]) < 1e-6


def test_trace_wrong_degree_rejected():
    spec = cone_spectrum(single_nu_spectrum(0.5), lambda_cutoff=1e3, cone_dim=1)
    with pytest.raises(ValueError):
        truncated_cone_trace(spec, 1, np.array([0.05]))


def test_trace_equality_is_on_content():
    """Traces are equal when they are one object, or when grid, values, tail
    bounds and the spectrum's lam, weight and cutoff match bit for bit."""
    grid = log_grid(0.01, 0.1, 8)
    a, b = _theta_trace(grid), _theta_trace(grid)
    assert a is not b and a == b and a == a
    spec = a.eigenvalues
    changed = [
        TraceSamples(np.nextafter(grid, 1.0), a.values, a.tail_bound, spec),
        TraceSamples(grid, np.nextafter(a.values, 0.0), a.tail_bound, spec),
        TraceSamples(grid, a.values, 2.0 * a.tail_bound, spec),
        TraceSamples(grid, a.values, a.tail_bound, None),
        TraceSamples(grid, a.values, a.tail_bound, Spectrum(spec.lam[:-1], spec.weight[:-1],
                                                            spec.cutoff)),
        TraceSamples(grid, a.values, a.tail_bound, Spectrum(spec.lam, 2.0 * spec.weight,
                                                            spec.cutoff)),
        TraceSamples(grid, a.values, a.tail_bound, Spectrum(spec.lam, spec.weight, math.inf)),
    ]
    for other in changed:
        assert a != other and other != a
    bare = TraceSamples(grid, a.values, a.tail_bound)
    assert bare == TraceSamples(grid.copy(), a.values.copy(), a.tail_bound.copy())
    assert a != a.values.tolist()


# ------------------------------------------------------------ blocked sums --

def _blocked(spectrum, grid):
    """Blocked sums and rounding bounds, as `_certified_trace` takes them."""
    ends = np.searchsorted(spectrum.lam, 746.0 / grid, side="right")
    return conekernel._blocked_sums(spectrum.lam, spectrum.weight, grid, ends)


def _within_rounding_of_fsum(spectrum, grid):
    values, rounding = _blocked(spectrum, grid)
    assert np.all(np.abs(values - fsum_trace(spectrum, grid)) <= rounding)
    return values, rounding


def _cone_over(periods, lam):
    fiber = torus_spectrum(periods, cutoff=math.sqrt(lam) + 2.5)
    return [cone_spectrum(a_spectrum(fiber, p, GEO, nu_max=math.sqrt(lam) + 0.5), lam,
                          cone_dim=len(periods) + 1).spectrum()
            for p in range(len(periods) + 2)]


@pytest.mark.parametrize("periods", [(TWO_PI,), (TWO_PI, TWO_PI)], ids=["disk", "torus"])
def test_blocked_sum_within_its_rounding_bound_of_fsum(periods):
    """Cone spectra of the disk and of the cone over T^2 at t_min 1e-2 (up
    to 13,924 eigenvalues per degree): every sample is within its rounding
    term of the correctly rounded sum, and that term is below 1e-11 of it."""
    grid = log_grid(1e-2, 1.0, 241)
    for spectrum in _cone_over(periods, 3600.0):
        values, rounding = _within_rounding_of_fsum(spectrum, grid)
        assert np.all(rounding < 1e-11 * values)


def test_trace_tail_bound_carries_the_rounding():
    spectrum = _cone_over((TWO_PI,), 3600.0)[0]
    grid = log_grid(1e-2, 1.0, 17)
    tr = conekernel._certified_trace(spectrum, 1.0, grid)
    values, rounding = _blocked(spectrum, grid)
    assert np.array_equal(tr.values, values)
    assert np.all(tr.tail_bound >= rounding) and np.all(rounding > 0)


# a complete spectrum of 100 eigenvalues, all inside the t lam <= 746 reach up
# to t = 1, so every row of a block has the same columns
FLAT = Spectrum.of(7.0 * np.arange(1.0, 101.0), np.arange(100) % 3 + 1.0)


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["rows-1", "rows", "rows+1"])
def test_blocked_sum_at_block_edges(extra):
    rows = conekernel.TRACE_BLOCK // len(FLAT)
    grid = log_grid(1e-3, 1.0, rows + extra)
    assert np.all(np.searchsorted(FLAT.lam, 746.0 / grid, side="right") == len(FLAT))
    _within_rounding_of_fsum(FLAT, grid)


@pytest.mark.parametrize("spectrum", [
    FLAT,
    Spectrum.of([0.0, 2.0, 5.0, 9.0], [1.0, 2.0, 1.0, 3.0]),
    Spectrum.of([7.5], [4.0]),
], ids=["flat", "zero-eigenvalue", "single-eigenvalue"])
def test_blocked_sum_on_one_point_and_short_grids(spectrum):
    _within_rounding_of_fsum(spectrum, np.array([0.25]))
    _within_rounding_of_fsum(spectrum, log_grid(1e-2, 3.0, 9))


def test_blocked_sum_single_eigenvalue_is_its_term():
    grid = log_grid(1e-2, 3.0, 9)
    values, _ = _blocked(Spectrum.of([7.5], [4.0]), grid)
    assert np.array_equal(values, 4.0 * np.exp(-grid * 7.5))


def test_blocked_sum_zero_eigenvalue_counts_its_weight():
    """Past t lam = 746 only the zero mode is left, exactly."""
    spectrum = Spectrum.of([0.0, 1e3, 2e3], [2.0, 1.0, 1.0])
    values, _ = _within_rounding_of_fsum(spectrum, np.array([1.0, 2.0]))
    assert np.array_equal(values, [2.0, 2.0])


@pytest.mark.parametrize("budget", [1, 2 ** 30])
def test_block_budget_moves_only_last_bits(monkeypatch, budget):
    """One row per block, or one block for the whole grid: the sums may
    differ in the last bits, within the two rounding terms."""
    spectrum = _cone_over((TWO_PI,), 3600.0)[1]
    grid = log_grid(1e-2, 1.0, 241)
    values, rounding = _blocked(spectrum, grid)
    monkeypatch.setattr(conekernel, "TRACE_BLOCK", budget)
    other, other_rounding = _within_rounding_of_fsum(spectrum, grid)
    assert np.all(np.abs(other - values) <= rounding + other_rounding)


def test_trace_refuses_a_negative_weight():
    """The rounding bound holds for nonnegative terms only."""
    with pytest.raises(ValueError, match="nonnegative"):
        conekernel._certified_trace(Spectrum.of([1.0, 2.0], [1.0, -1.0]), 0.5,
                                    np.array([0.1]))


# -------------------------------------------------------------------- fits --

THETA_TEMPLATE = ExpansionTemplate.from_terms(
    [(F(-1, 2), False), (0, False), (F(1, 2), False), (1, False)], m=1, b=0)


def test_fit_synthetic_self_consistency():
    g = log_grid(1e-3, 1.0, 50)
    tpl = ExpansionTemplate.from_terms([(F(-1, 2), False), (0, False), (1, True)])
    vals = 2.0 * g ** -0.5 - 0.25 + 0.7 * g * np.log(g)
    fit = fit_expansion(TraceSamples(g, vals, np.zeros_like(g)), tpl)
    assert abs(fit.coefficient(F(-1, 2)) - 2.0) < 1e-9
    assert abs(fit.coefficient(0) + 0.25) < 1e-9
    assert abs(fit.coefficient(1, log=True) - 0.7) < 1e-9
    assert fit.residual < 1e-9


def test_fit_missing_term_is_detectable():
    tr = _theta_trace(log_grid(1e-4, 1e-1, 40))
    tpl = ExpansionTemplate.from_terms([(F(-1, 2), False), (F(1, 2), False), (1, False)])
    fit = fit_expansion(tr, tpl)
    assert fit.residual > 1e-3


def test_fit_insufficient_samples():
    g = log_grid(1e-3, 1e-1, 6)
    with pytest.raises(InsufficientSamples):
        fit_expansion(TraceSamples(g, np.ones_like(g), np.zeros_like(g)), THETA_TEMPLATE)


def test_fit_ill_conditioned_basis():
    tpl = ExpansionTemplate.from_terms(
        [(F(0), False), (F(1, 10 ** 12), False)])
    g = log_grid(0.5, 1.0, 20)
    with pytest.raises(IllConditioned):
        fit_expansion(TraceSamples(g, np.ones_like(g), np.zeros_like(g)), tpl)


def test_fit_serialization():
    tr = _theta_trace(log_grid(1e-4, 1e-1, 40))
    d = fit_expansion(tr, THETA_TEMPLATE).to_json_dict()
    assert {"template", "coefficients", "residual", "condition"} <= set(d)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 241])
def test_median_equals_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for scale in (1e-13, 1.0, 1e300):
        x = scale * rng.standard_normal(n)
        assert conekernel._median(x) == float(np.median(x))
        assert conekernel._median(np.abs(x)) == float(np.median(np.abs(x)))
    for special in (math.nan, math.inf, -math.inf):
        for at in {0, n // 2, n - 1}:
            x = rng.standard_normal(n)
            x[at] = special
            got, want = conekernel._median(x), float(np.median(x))
            assert got == want or math.isnan(got) and math.isnan(want), (special, at)
    if n > 1:
        x = rng.standard_normal(n)
        x[:2] = math.inf, -math.inf
        with np.errstate(invalid="ignore"):
            assert math.isnan(conekernel._median(x)) == math.isnan(float(np.median(x)))


# ---------------------------------------------------------------- products --

def test_product_with_point_factor_is_identity():
    grid = log_grid(0.05, 1.0, 12)
    fiber = torus_spectrum((TWO_PI,), cutoff=27.0)
    base = {0: fiber_factor_trace(fiber, 0, grid), 1: fiber_factor_trace(fiber, 1, grid)}
    point = {0: TraceSamples(grid, np.ones_like(grid), np.zeros_like(grid),
                             Spectrum.of([0.0], [1.0]))}
    prod = product_trace(base, point)
    for k in (0, 1):
        assert prod[k].values == pytest.approx(base[k].values, rel=1e-15)


def test_product_circle_circle_matches_torus():
    grid = log_grid(0.05, 1.0, 12)
    circle = torus_spectrum((TWO_PI,), cutoff=27.0)
    fact = {d: fiber_factor_trace(circle, d, grid) for d in (0, 1)}
    prod = product_trace(fact, fact)
    torus = torus_spectrum([2 * math.pi, 2 * math.pi], cutoff=27.0)
    for k in (0, 1, 2):
        want = fiber_factor_trace(torus, k, grid)
        assert np.max(np.abs(prod[k].values - want.values) / want.values) < 1e-10


def test_product_euler_characteristic_factorizes():
    grid = log_grid(0.05, 0.5, 6)
    circle = torus_spectrum((TWO_PI,), cutoff=27.0)
    fact = {d: fiber_factor_trace(circle, d, grid) for d in (0, 1)}
    prod = product_trace(fact, fact)
    alt = sum((-1) ** k * prod[k].values for k in prod)
    assert np.max(np.abs(alt)) < 1e-12


def test_product_spectrum_complete_to_smaller_cutoff():
    """Factors of 2001 and 1001 distinct eigenvalues (over 2,000,000 pairs): the
    product keeps exactly the pair sums up to the smaller factor cutoff."""
    grid = log_grid(1e-3, 1.0, 60)
    big = torus_spectrum((TWO_PI,), cutoff=2000.5)
    small = torus_spectrum((TWO_PI,), cutoff=1000.3)
    fa = {0: fiber_factor_trace(big, 0, grid)}
    fb = {0: fiber_factor_trace(small, 0, grid)}
    a, b = fa[0].eigenvalues, fb[0].eigenvalues
    assert len(a) * len(b) > 2_000_000
    prod = product_trace(fa, fb)[0]
    cutoff = min(a.cutoff, b.cutoff)
    assert prod.eigenvalues.cutoff == cutoff == 1000.3 ** 2

    lam = (a.lam[:, None] + b.lam[None, :]).ravel()
    weight = (a.weight[:, None] * b.weight[None, :]).ravel()
    keep = lam <= cutoff
    uniq, inverse = np.unique(np.round(lam[keep], 12), return_inverse=True)
    assert np.array_equal(prod.eigenvalues.lam, uniq)
    assert np.array_equal(prod.eigenvalues.weight, np.bincount(inverse, weights=weight[keep]))

    # the square torus of period 2 pi: zeta'(0) = -log 2 pi - 2 beta'(0),
    # beta'(0) = log(Gamma(1/4)^2 / (2 pi sqrt 2)) for Dirichlet's beta
    tpl = ExpansionTemplate.from_terms([(-1, False), (0, False), (1, False)])
    z = zeta_near_zero(prod, fit_expansion(prod.restrict(t_max=0.1), tpl), kernel_dim=1)
    beta1 = math.log(math.gamma(0.25) ** 2 / (2.0 * math.pi * math.sqrt(2.0)))
    assert abs(z.zeta_prime0 - (-math.log(TWO_PI) - 2.0 * beta1)) <= z.error_bound


def test_product_spectrum_cut_at_a_given_cutoff():
    """A cutoff below the factors' keeps exactly the pair sums up to it and
    leaves the trace values alone."""
    grid = log_grid(0.05, 1.0, 12)
    circle = torus_spectrum((TWO_PI,), cutoff=40.0)
    fact = {d: fiber_factor_trace(circle, d, grid) for d in (0, 1)}
    full = product_trace(fact, fact)
    cut = product_trace(fact, fact, cutoff=300.0)
    for k in full:
        keep = full[k].eigenvalues.lam <= 300.0
        assert cut[k].eigenvalues.cutoff == 300.0
        assert np.array_equal(cut[k].eigenvalues.lam, full[k].eigenvalues.lam[keep])
        assert np.array_equal(cut[k].eigenvalues.weight, full[k].eigenvalues.weight[keep])
        assert np.array_equal(cut[k].values, full[k].values)


def test_product_mismatched_grids():
    g1, g2 = log_grid(0.05, 1.0, 8), log_grid(0.05, 1.0, 9)
    a = {0: TraceSamples(g1, np.ones_like(g1), np.zeros_like(g1))}
    b = {0: TraceSamples(g2, np.ones_like(g2), np.zeros_like(g2))}
    with pytest.raises(MismatchedGrids):
        product_trace(a, b)


# ----------------------------------------------------- McKean-Singer defect --

def _flat_cone_traces(grid, lam=800.0):
    fiber = torus_spectrum((TWO_PI,), cutoff=math.sqrt(lam) + 2.0)
    out = []
    for p in range(3):
        nus = a_spectrum(fiber, p, GEO, nu_max=math.sqrt(lam) + 0.5)
        out.append(truncated_cone_trace(cone_spectrum(nus, lam), p, grid))
    return out


def test_mckean_singer_single_degree():
    grid = log_grid(0.05, 1.0, 5)
    tr = _theta_trace(grid, lam=800.0)
    assert mckean_singer_defect([tr], [0]) == pytest.approx(np.max(np.abs(tr.values)))


def test_mckean_singer_detects_perturbation():
    grid = log_grid(0.05, 1.0, 10)
    traces = _flat_cone_traces(grid)
    bumped = TraceSamples(grid, traces[1].values + 1e-3 * np.exp(-grid),
                          traces[1].tail_bound)
    assert mckean_singer_defect([traces[0], bumped, traces[2]], [0, 0, 0]) > 1e-4


# --------------------------------------------------------------------- csv --

def test_trace_csv_has_17_digit_floats():
    tr = _theta_trace(np.array([0.01, 0.02]), lam=7000.0)
    csv = tr.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "t,value,tail_bound"
    assert len(lines) == 3
    assert lines[1].startswith("0.01,2.3209479177387")


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_gammaincc_against_scipy(a):
    x = np.geomspace(1e-3, 1e3, 2001)
    want = scipy_gammaincc(a, x)
    got = gammaincc(a, x)
    nonzero = want != 0.0
    # where scipy flushes a subnormal value to 0, the value is below the normal range
    assert np.all(got[~nonzero] < np.finfo(float).tiny)
    assert np.max(np.abs(got - want)[nonzero] / want[nonzero]) <= 1e-12
    assert np.array_equal(gammaincc(a, np.array([math.inf, 1.0])),
                          [0.0, gammaincc(a, 1.0)])


@pytest.mark.parametrize("a, x", [
    (0.0, 1.0), (0.25, 1.0), (1.3, 1.0), (-0.5, 1.0), (math.nan, 1.0), (math.inf, 1.0),
    (1.5, 0.0), (1.5, -1.0), (1.5, math.nan), (1.5, [1.0, 0.0]),
])
def test_gammaincc_refuses_out_of_domain(a, x):
    with pytest.raises(ValueError):
        gammaincc(a, x)
