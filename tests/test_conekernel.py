"""Model kernel and trace machinery against exactly solvable references.

Half-integer order makes everything elementary: the kernel collapses to
the method of images and the Dirichlet eigenvalues are k^2 pi^2, so theta
function identities supply frozen expected values.
"""

import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc as scipy_gammaincc  # test oracle only
from scipy.special import jv

from torsionlab import cli, conekernel
from torsionlab.bessel import bessel_j_zeros
from torsionlab.conekernel import (
    gammaincc,
    Pin,
    Spectrum,
    TraceSamples,
    _certified_trace,
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
from fit_oracle import rebuilt_trim_fit
from trace_oracle import every_exp_blocked_sums, fsum_trace

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
        assert list(zs) == sorted(zs)
        assert all(z > nu for z in zs)
    eig = spec.spectrum()
    assert np.all(eig.lam <= 300.0)
    assert np.all(np.diff(eig.lam) >= 0)


def test_cone_spectrum_merges_equal_orders():
    fiber = torus_spectrum((TWO_PI,), cutoff=6.0)
    spec = cone_spectrum(a_spectrum(fiber, 1, GEO, nu_max=5.0), lambda_cutoff=100.0)
    # orders |k-1| and |k+1| overlap: each distinct nu appears once
    nu, mult = spec.nu_spectrum.nu.tolist(), spec.nu_spectrum.mult.tolist()
    assert nu == sorted(set(nu)) and list(spec.zeros) == nu
    assert mult[nu.index(1.0)] == 4  # two harmonics + pair branch at k=2


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


def _pipeline(*flags):
    args = cli.build_parser().parse_args(["torsion", *flags])
    cfg = cli.ModelConfig.from_sources(args, {})
    cfg.validate()
    return cli.Pipeline(cfg)


TORUS_WORKLOAD = ("--fiber", "torus", "--periods", str(TWO_PI), str(TWO_PI), "--t-min", "1e-2")


def test_zero_cache_on_the_torus_workload(monkeypatch):
    """The torus workload's cone traces look up 4,320 orders: degree 0's
    1,082, all computed, then degree 1's 3,238, of which only the 2,156
    that degree 0 lacks go to the zero finder.  Each degree's zeros are
    its orders' zeros, flat, and `zeros` splits them by the counts."""
    monkeypatch.setattr(conekernel, "_cached_zeros", conekernel._ZeroCache())
    batches = []
    batch_real = conekernel.bessel_j_zeros_batch

    def recording_batch(nus, z_max):
        batches.append(np.array(nus, copy=True))
        return batch_real(nus, z_max)

    monkeypatch.setattr(conekernel, "bessel_j_zeros_batch", recording_batch)
    pipe = _pipeline(*TORUS_WORKLOAD)
    pipe.cone_traces()
    info = conekernel._cached_zeros.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1082, 3238, 3238)
    spectra = pipe.nu_spectra()
    first, second = spectra[0].nu, spectra[1].nu
    assert len(batches) == 2
    assert np.array_equal(batches[0], first)
    assert np.array_equal(batches[1], np.setdiff1d(second, first))

    z_max = math.sqrt(pipe.lambda_max)
    for spec in (spectra[0], spectra[1]):
        cs = cone_spectrum(spec, pipe.lambda_max, cone_dim=3)
        assert len(batches) == 2
        assert cs.counts.sum() == len(cs.flat_zeros)
        parts = np.split(cs.flat_zeros, np.cumsum(cs.counts)[:-1])
        assert list(cs.zeros) == spec.nu.tolist()
        assert list(cs.zeros.values()) == [tuple(zs.tolist()) for zs in parts]
        flat, counts = batch_real(spec.nu, z_max)
        assert np.array_equal(cs.flat_zeros, flat) and np.array_equal(cs.counts, counts)


def test_zero_cache_takes_orders_in_any_order():
    """A hand-built spectrum may list its orders in any order and repeat
    one: each entry gets its order's zeros, and the repeat is computed once."""
    def hand_built(nu):
        return NuSpectrum(np.array(nu), np.ones(len(nu), dtype=int), 0, GEO, math.inf)

    before = conekernel._cached_zeros.cache_info()
    spec = cone_spectrum(hand_built([7.25, 0.75, 7.25, 3.125]), lambda_cutoff=900.0)
    after = conekernel._cached_zeros.cache_info()
    assert after.misses - before.misses == 3 and after.hits - before.hits == 1
    want = [bessel_j_zeros(nu, 30.0) for nu in (7.25, 0.75, 7.25, 3.125)]
    assert spec.counts.tolist() == [len(zs) for zs in want]
    assert spec.flat_zeros.tolist() == [z for zs in want for z in zs]
    eig = spec.spectrum()
    assert np.array_equal(eig.lam, np.sort(np.square([z for zs in want for z in zs])))


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


def test_trace_refuses_a_tail_bound_past_the_limit():
    """exp(-t Lambda) passes the precheck at t = 0.33, but the envelope of
    the heavy top eigenvalue bounds the tail at 9.6e-9, above 1e-10 x the
    trace 0.719."""
    spectrum = Spectrum.of([1.0, 100.0], [1.0, 1e6], cutoff=100.0)
    with pytest.raises(TailNotCertified, match="tail bound 9.6e-09 at t=0.33"):
        _certified_trace(spectrum, q=1.0, t_grid=np.array([0.33]))


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


RUN = conekernel.SUM_BLOCK


@pytest.mark.parametrize("n", [1, RUN - 1, RUN, RUN + 1, 3 * RUN + 1, 100_000])
def test_blocked_sum_charge_is_two_level(n):
    """A row of n terms sums in runs of SUM_BLOCK, then the run sums: its
    charge is gamma_{min(n, RUN) + ceil(n / RUN) + 3} |value|, the 3 for the
    product w e and np.exp, and it covers the correctly rounded sum.  The
    10^5 terms are one term repeated, a single block of 782 runs."""
    if n == 100_000:
        spectrum = Spectrum.of(np.full(n, 0.7), np.full(n, 3.0))
    else:
        spectrum = Spectrum.of(np.geomspace(0.5, 700.0, n), np.arange(n) % 3 + 1.0)
    grid = log_grid(1e-2, 1.0, 9)
    values, rounding = _within_rounding_of_fsum(spectrum, grid)
    ku = (min(n, RUN) + -(-n // RUN) + 3) * conekernel.UNIT_ROUNDOFF
    assert np.array_equal(rounding, ku / (1.0 - ku) * values)


def test_np_exp_within_the_error_the_charge_assumes():
    """TERM_ROUNDINGS counts np.exp as two roundings: np.exp(x) is within
    2 u of exp(x) on the arguments the kernel takes, -NORMAL_REACH <= x <= 0
    (1.15 u is the largest seen, on 222k points)."""
    rng = np.random.default_rng(3)
    x = np.concatenate([-rng.uniform(0.0, conekernel.NORMAL_REACH, 20_000),
                        -np.geomspace(1e-300, 1.0, 500), [0.0, -conekernel.NORMAL_REACH]])
    with mpmath.workprec(113):
        worst = max(abs(mpmath.mpf(y) / mpmath.exp(xi) - 1)
                    for xi, y in zip(x.tolist(), np.exp(x).tolist()))
    assert worst <= (conekernel.TERM_ROUNDINGS - 1) * conekernel.UNIT_ROUNDOFF


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


# eigenvalues dense in the band 708.4 < t lam <= 746 of every sample of
# BAND_GRID, ~220 a row, beside three low ones that set the trace's size
BAND = Spectrum.of(np.concatenate([[5.0, 12.0, 30.0], np.geomspace(700.0, 75_000.0, 20_000)]),
                   np.arange(20_003) % 5 + 1.0)
BAND_GRID = log_grid(1e-2, 1.0, 241)
# only band eigenvalues at t = 1: every term of that row is dropped
BAND_ONLY = Spectrum.of(np.geomspace(710.0, 745.0, 500), np.ones(500))


def _band_rows(spectrum, grid):
    normal = np.searchsorted(spectrum.lam, conekernel.NORMAL_REACH / grid, side="right")
    return np.searchsorted(spectrum.lam, 746.0 / grid, side="right") - normal


def _assert_every_exp_bits(lams, ws, grid, ends, values, rounding):
    """Row sums bit-equal to the every-exp oracle's, and within the rounding
    bound, dropped terms included, of the correctly rounded sum."""
    want = every_exp_blocked_sums(lams, ws, grid, ends)
    assert np.array_equal(values.view(np.int64), want.view(np.int64))
    assert np.all(np.abs(values - fsum_trace(Spectrum(lams, ws), grid)) <= rounding)


def test_blocked_sum_drops_band_terms_bit_for_bit():
    """Past t lam = NORMAL_REACH (-ln 2^-1022, from np.finfo) the terms are
    0.0, not subnormal exps: the sums are still the every-exp block loop's
    bit for bit, and the bound still covers the correctly rounded sum."""
    assert conekernel.NORMAL_REACH == pytest.approx(1022.0 * math.log(2.0), rel=1e-15)
    assert np.all(_band_rows(BAND, BAND_GRID) >= 150)
    ends = np.searchsorted(BAND.lam, 746.0 / BAND_GRID, side="right")
    values, rounding = conekernel._blocked_sums(BAND.lam, BAND.weight, BAND_GRID, ends)
    _assert_every_exp_bits(BAND.lam, BAND.weight, BAND_GRID, ends, values, rounding)


def test_blocked_sum_bound_covers_the_dropped_terms():
    """A row made of band terms only sums to 0.0 here; its bound is the
    dropped weight times 2^-1022, which covers the correctly rounded sum."""
    grid = np.array([1.0])
    values, rounding = _blocked(BAND_ONLY, grid)
    exact = fsum_trace(BAND_ONLY, grid)
    assert values[0] == 0.0 and 0.0 < exact[0] <= rounding[0]
    assert rounding[0] == 500 * conekernel.SMALLEST_NORMAL


@pytest.mark.parametrize("spectrum,grid", [(BAND, BAND_GRID), (BAND_ONLY, np.array([1.0]))],
                         ids=["band", "band-only"])
def test_blocked_sum_takes_no_subnormal_exp(monkeypatch, spectrum, grid):
    """An exp wrapper sees no argument below -708.40 in the blocked sums."""
    ends = np.searchsorted(spectrum.lam, 746.0 / grid, side="right")
    seen = []
    exp_real = np.exp

    def exp(x, *args, **kwargs):
        seen.append(float(np.min(x, initial=0.0)))
        return exp_real(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", exp)
    conekernel._blocked_sums(spectrum.lam, spectrum.weight, grid, ends)
    monkeypatch.setattr(np, "exp", exp_real)
    assert seen and min(seen) >= -708.40


# the models of the reports in tests/golden
GOLDEN_MODELS = {
    "torus": TORUS_WORKLOAD[:-1] + ("5e-2",),
    "disk": ("--t-min", "1e-2"),
    "product-circle": ("--model", "product", "--base", "circle", "--t-min", "3e-3"),
    "single-nu": ("--single-nu", "0.5", "--t-min", "1e-4"),
    "product-torus": ("--model", "product", "--base", "torus", "--base-periods", "3", "4",
                      "--t-min", "3e-2"),
}


@pytest.mark.parametrize("flags", GOLDEN_MODELS.values(), ids=GOLDEN_MODELS.keys())
def test_blocked_sums_of_the_golden_models_take_every_exp_bits(monkeypatch, flags):
    """Every blocked sum the golden models' traces make, cone and base
    factor: bit-equal to the every-exp oracle, and within its bound of the
    correctly rounded sum.  Some rows have terms in the band."""
    calls = []
    sums_real = conekernel._blocked_sums

    def recording_sums(lams, ws, grid, ends):
        out = sums_real(lams, ws, grid, ends)
        calls.append((lams, ws, grid, ends, *out))
        return out

    monkeypatch.setattr(conekernel, "_blocked_sums", recording_sums)
    _pipeline(*flags).traces()
    assert calls
    assert any(np.any(_band_rows(Spectrum(lams, ws), grid) > 0)
               for lams, ws, grid, *_ in calls)
    for call in calls:
        _assert_every_exp_bits(*call)


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


# ------------------------------------------------------------ pinned fits --

PINNED_TEMPLATE = ExpansionTemplate.from_terms(
    [(-1, False), (F(-1, 2), False), (0, False), (F(1, 2), False), (1, False)], m=2)


def _pinned_synthetic():
    g = log_grid(1e-3, 1e-1, 80)
    vals = 0.25 / g - 0.4431 / np.sqrt(g) + 1.0 / 6.0 + 0.3 * np.sqrt(g) - 0.2 * g
    return TraceSamples(g, vals, np.zeros_like(g)), {F(-1): Pin(0.25), F(-1, 2): Pin(-0.4431)}


def test_pinned_fit_returns_the_pins_and_recovers_the_rest():
    """The pinned coefficients come back as given, each pin's bound as its
    coefficient bound (0 unless given); the free ones are recovered; the
    partner is fitted with the same pins."""
    samples, pins = _pinned_synthetic()
    pins[F(-1)] = Pin(0.25, 3e-12)
    partner = ExpansionTemplate.from_terms([(F(e, 2), e == 0) for e in range(-2, 5)], m=2)
    fit = fit_expansion(samples, PINNED_TEMPLATE, pins, partner)
    for part in (fit, fit.partner):
        assert part.pinned == ((F(-1), False), (F(-1, 2), False))
        assert part.coefficient(-1) == 0.25 and part.coefficient(F(-1, 2)) == -0.4431
        assert part.coefficient_bounds[F(-1), False] == 3e-12
        assert part.coefficient_bounds[F(-1, 2), False] == 0.0
        assert abs(part.coefficient(0) - 1.0 / 6.0) < 1e-9
        assert abs(part.coefficient(F(1, 2)) - 0.3) < 1e-8
        assert abs(part.coefficient(1) + 0.2) < 1e-8
        assert part.residual < 1e-9
    assert list(fit.coefficients) == list(PINNED_TEMPLATE.basis)
    assert abs(fit.partner.coefficient(0, log=True)) < 1e-8 and fit.partner.partner is None
    assert fit.to_json_dict()["pinned"] == ["t^-1", "t^-1/2"]


def test_pin_outside_the_template_is_refused():
    samples, _ = _pinned_synthetic()
    with pytest.raises(ValueError, match=r"t\^-3/2"):
        fit_expansion(samples, PINNED_TEMPLATE, {F(-3, 2): Pin(1.0)})


@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "free"])
def test_trim_loop_slices_the_design_bit_for_bit(pinned):
    """The design built once and sliced at every trim step gives the
    coefficients, the condition and the trimmed sample count of a design
    rebuilt at every step (tests/fit_oracle.py), on the disk's degree-0
    trace, where the pinned order-2 fit trims dozens of samples."""
    pipe = _pipeline()
    samples = pipe.traces()[0].restrict(t_max=cli.FIT_T_MAX)
    pins = {alpha: pin.value for alpha, pin in pipe.pins(0).items()} if pinned else {}
    kept = []
    for tpl in (pipe.template(), pipe.partner_template()):
        free = [key for key in tpl.basis if key[1] or key[0] not in pins]
        coeff, condition, rel_resid, design, _ = conekernel._trimmed_fit(
            samples.grid, samples.values, free, pins)
        want, sing, n = rebuilt_trim_fit(samples.grid, samples.values, free, pins)
        assert len(rel_resid) == len(design) == n
        assert np.array_equal(coeff, want)
        assert condition == float(sing[0] / sing[-1])
        kept.append(n)
    assert pipe.fits()[0].partner is not None
    if pinned:
        assert len(samples.grid) - kept[0] >= 20


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
    """A circle base times a point: each degree is the circle's theta trace."""
    grid = log_grid(0.05, 1.0, 12)
    theta = fiber_factor_trace(torus_spectrum((TWO_PI,), cutoff=27.0), grid)
    point = {0: TraceSamples(grid, np.ones_like(grid), np.zeros_like(grid),
                             Spectrum.of([0.0], [1.0]))}
    prod = product_trace(theta, point, (TWO_PI,))
    for k in (0, 1):
        assert prod[k].values == pytest.approx(theta.values, rel=1e-15, abs=0.0)


def _circle_times_circle(grid):
    """The unit circle's theta trace, and the circle times the circle: a
    closed factor's degrees are its theta trace each."""
    theta = fiber_factor_trace(torus_spectrum((TWO_PI,), cutoff=27.0), grid)
    return theta, product_trace(theta, {0: theta, 1: theta}, (TWO_PI,))


def test_product_circle_circle_matches_torus():
    """Circle times circle is the square torus: C(2, k) Theta_T^2 in degree k."""
    grid = log_grid(0.05, 1.0, 12)
    _, prod = _circle_times_circle(grid)
    torus = fiber_factor_trace(torus_spectrum([2 * math.pi, 2 * math.pi], cutoff=27.0), grid)
    for k in (0, 1, 2):
        want = math.comb(2, k) * torus.values
        assert np.max(np.abs(prod[k].values - want) / want) < 1e-10


def test_product_euler_characteristic_factorizes():
    _, prod = _circle_times_circle(log_grid(0.05, 0.5, 6))
    alt = sum((-1) ** k * prod[k].values for k in prod)
    assert np.max(np.abs(alt)) < 1e-12


def test_product_spectrum_complete_to_smaller_cutoff():
    """A square torus base times two cone degrees that share an eigenvalue:
    degree k holds each cone degree j's eigenvalues weighted by
    C(2, k - j), an eigenvalue of both degrees once with its weights
    summed, complete to the smaller cutoff of the degrees it reads, with
    the base periods."""
    grid = log_grid(0.05, 1.0, 12)
    periods = (TWO_PI, TWO_PI)
    theta = fiber_factor_trace(torus_spectrum(periods, cutoff=40.0), grid)
    cone = {0: _certified_trace(Spectrum.of([2.0, 5.0], [1.0, 3.0], 1000.0), 0.5, grid),
            1: _certified_trace(Spectrum.of([5.0, 7.0], [2.0, 1.0], 900.0), 0.5, grid)}
    prod = product_trace(theta, cone, periods)
    want = {0: ([2.0, 5.0], [1.0, 3.0], 1000.0),
            1: ([2.0, 5.0, 7.0], [2.0, 8.0, 1.0], 900.0),
            2: ([2.0, 5.0, 7.0], [1.0, 7.0, 2.0], 900.0),
            3: ([5.0, 7.0], [2.0, 1.0], 900.0)}
    assert list(prod) == list(want)
    for k, (lam, weight, cutoff) in want.items():
        spectrum = prod[k].eigenvalues
        assert np.array_equal(spectrum.lam, lam) and np.array_equal(spectrum.weight, weight)
        assert spectrum.cutoff == cutoff and spectrum.base_periods == periods
        assert np.array_equal(spectrum.positive().lam, lam)
        assert spectrum.positive().base_periods == periods


def test_product_charges_its_roundings():
    """Factors with no tail, over a circle and over a b = 3 base: the
    product's bound is its own rounding, gamma_n times the sum of
    C(b, k - j) |Theta_B Tr_j(C)| over the pairs, n = pairs + 1, one more
    where a C(b, k - j) is not a power of two (C(3, 1) = 3), and it covers
    the correctly rounded sum of the exact products."""
    grid = log_grid(0.05, 1.0, 12)
    zero = np.zeros_like(grid)
    theta = TraceSamples(grid, 1.0 / grid, zero)
    cone = {d: TraceSamples(grid, np.exp(-grid) / (3.0 - d), zero) for d in (0, 1, 2)}
    for b in (1, 3):
        prod = product_trace(theta, cone, (TWO_PI,) * b)
        assert list(prod) == list(range(b + 3))
        for k in prod:
            pairs = [(math.comb(b, k - j), cone[j].values) for j in cone if 0 <= k - j <= b]
            n = len(pairs) + 1 + any(rank not in (1, 2) for rank, _ in pairs)
            ku = n * conekernel.UNIT_ROUNDOFF
            size = sum(rank * theta.values * v for rank, v in pairs)
            assert prod[k].tail_bound == pytest.approx(ku / (1.0 - ku) * size, rel=1e-15,
                                                       abs=0.0), (b, k)
            with mpmath.workprec(200):
                exact = [float(mpmath.fsum(rank * mpmath.mpf(theta.values[r]) * v[r]
                                           for rank, v in pairs))
                         for r in range(len(grid))]
            assert np.all(np.abs(prod[k].values - exact) <= prod[k].tail_bound), (b, k)


def test_product_mismatched_grids():
    g1, g2 = log_grid(0.05, 1.0, 8), log_grid(0.05, 1.0, 9)
    theta = TraceSamples(g1, np.ones_like(g1), np.zeros_like(g1))
    cone = {0: TraceSamples(g2, np.ones_like(g2), np.zeros_like(g2))}
    with pytest.raises(MismatchedGrids):
        product_trace(theta, cone, ())


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
