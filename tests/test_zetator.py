"""Zeta extraction against exactly known determinants.

The k^2 pi^2 spectrum has zeta(s) = pi^(-2s) zeta_R(2s), so zeta(0) = -1/2
and zeta'(0) = -log 2 (acceptance criterion 5, `oracles.zeta_riemann`); a
single unit eigenvalue has zeta identically 1.  Both pin every piece of the
Mellin-split bookkeeping.  The (t1, inf) integral is checked on its own:
its special functions against mpmath and scipy, a product's Poisson form
against the sum over pairs of cone and base eigenvalues, and one radial
mode against a quadrature of its theta series.
"""

import math
from dataclasses import replace
from fractions import Fraction as F

import mpmath  # test oracle only
import numpy as np
import pytest
from scipy.special import exp1 as scipy_exp1  # test oracle only
from scipy.special import kv as scipy_kv  # test oracle only

from torsionlab.bessel import bessel_k
from torsionlab.cli import ModelConfig, Pipeline
from torsionlab.conekernel import (
    SMALLEST_NORMAL,
    Spectrum,
    TraceSamples,
    _certified_trace,
    cone_spectrum,
    fiber_factor_trace,
    fit_expansion,
    gammaincc,
    log_grid,
    product_trace,
    truncated_cone_trace,
)
from torsionlab.errors import DecayRateUnknown, FitResidualTooLarge
from torsionlab.fiber import single_nu_spectrum, torus_spectrum
from torsionlab.phg import ExpansionTemplate, heat_trace_structure, zeta_pole_structure
from torsionlab.zetator import (
    G1,
    SPECIAL_FUNCTION_ERROR,
    ZetaData,
    _large_t_integral,
    _upper_gamma,
    exp1,
    kernel_dimension,
    torsion_assemble,
    zeta_near_zero,
)

from laurent_oracle import (
    gamma_weighted_zeta,
    gamma_zeta_laurent_coefficient,
    zeta_contour_residue,
)

HALF_LINE_TEMPLATE = heat_trace_structure(1, 0, even=True, boundary=True, cutoff=1)


def halfline_zeta():
    spec = cone_spectrum(single_nu_spectrum(0.5), lambda_cutoff=3.4e5, cone_dim=1)
    tr = truncated_cone_trace(spec, 0, log_grid(1e-4, 1.0, 241))
    fit = fit_expansion(tr.restrict(t_max=0.1), HALF_LINE_TEMPLATE)
    return tr, fit, zeta_near_zero(tr, fit, kernel_dim=0)


# ----------------------------------------------------------- closed forms --

def test_single_unit_eigenvalue():
    """Trace e^{-t}: zeta(s) = 1 identically."""
    grid = log_grid(1e-3, 1.0, 241)
    tr = _certified_trace(Spectrum.of([1.0], [1.0], 4e4), q=0.5, t_grid=grid)
    tpl = ExpansionTemplate.from_terms([(k, False) for k in range(6)])
    fit = fit_expansion(tr.restrict(t_max=0.1), tpl)
    z = zeta_near_zero(tr, fit, kernel_dim=0)
    assert abs(z.zeta0 - 1.0) < 1e-9
    assert abs(z.zeta_prime0) < 1e-8


def test_square_torus_zeta_prime0():
    """The square torus of period 2 pi, a spectrum with one zero mode:
    zeta'(0) = -log 2 pi - 2 beta'(0), beta'(0) = log(Gamma(1/4)^2 / (2 pi sqrt 2))
    for Dirichlet's beta."""
    torus = torus_spectrum((2.0 * math.pi, 2.0 * math.pi), cutoff=200.0)
    tr = fiber_factor_trace(torus, log_grid(1e-3, 1.0, 60))
    tpl = ExpansionTemplate.from_terms([(-1, False), (0, False), (1, False)])
    z = zeta_near_zero(tr, fit_expansion(tr.restrict(t_max=0.1), tpl), kernel_dim=1)
    beta1 = math.log(math.gamma(0.25) ** 2 / (2.0 * math.pi * math.sqrt(2.0)))
    assert abs(z.zeta_prime0 - (-math.log(2.0 * math.pi) - 2.0 * beta1)) <= z.error_bound


@pytest.mark.parametrize("partner_bound", [0.0, 1.0])
def test_order_two_bias_adds_the_partner_bound_up_to_the_spread(partner_bound):
    """e^-t fitted at order 2 with an order-3 partner, the partner's
    coefficient bounds set to `partner_bound`.  |v2 - true| <= spread +
    |v3 - true|, so order 2's zeta(0) and zeta'(0) bounds add the spread
    plus the partner's own bound, own_3, but at most the spread again;
    order 3's add the spread alone.  With bounds 0, own_3 is below the
    spread and order 3 is reported; with bounds 1 it is far above it, and
    order 2 is reported.  A partner over the residual limit makes order 2
    the report in either case."""
    tr = _certified_trace(Spectrum.of([1.0], [1.0], 4e4), q=0.5, t_grid=log_grid(1e-3, 1.0, 241))
    fit = fit_expansion(tr.restrict(t_max=1.0 / 36.0), ExpansionTemplate.from_terms(
        [(k, False) for k in range(3)]), partner=ExpansionTemplate.from_terms(
        [(k, False) for k in range(4)]))
    partner = replace(fit.partner,
                      coefficient_bounds=dict.fromkeys(fit.partner.coefficient_bounds, partner_bound))
    fit = replace(fit, partner=partner)
    alone, third = (zeta_near_zero(tr, f, 0) for f in (replace(fit, partner=None), partner))
    spread0, spread = abs(alone.zeta0 - third.zeta0), abs(alone.zeta_prime0 - third.zeta_prime0)
    own0, own = third.diagnostics["zeta0_bound"], third.diagnostics["zeta_prime0_bound"]
    assert (own0 < spread0, own < spread) == (partner_bound == 0.0,) * 2
    order_two = {"zeta0_bias": spread0 + min(own0, spread0), "bias": spread + min(own, spread)}
    rough = replace(fit, partner=replace(partner, residual=2e-5))
    reports = [zeta_near_zero(tr, f, 0).diagnostics for f in (fit, rough)]
    assert [d["fit_order"] for d in reports] == ["3" if partner_bound == 0.0 else "2", "2"]
    for d in reports:
        bias = d["zeta_prime0_budget"]["bias"]
        if d["fit_order"] == "3":
            assert (d["zeta0_bias"], bias) == (spread0, spread)
            assert d["zeta0_bound"] == own0 + spread0 and d["zeta_prime0_bound"] == own + spread
            assert alone.diagnostics["zeta_prime0_bound"] + order_two["bias"] > own + spread
        else:
            assert (d["zeta0_bias"], bias) == (order_two["zeta0_bias"], order_two["bias"])
            assert d["zeta0_bound"] == alone.diagnostics["zeta0_bound"] + order_two["zeta0_bias"]
            assert d["zeta_prime0_bound"] == alone.diagnostics["zeta_prime0_bound"] + bias


# Stieltjes' constant gamma_1: zeta_R(1 + s) = 1/s + gamma - gamma_1 s + O(s^2)
STIELTJES_GAMMA1 = -0.0728158454836767


def test_non_regular_case_is_riemann_zeta_shifted():
    """Eigenvalues k with weights 1/k, k = 1..K: the trace is
    -log(1 - e^{-t}) = -log t + t/2 - t^2/24 + ..., and zeta(s) =
    zeta_R(s + 1), whose simple pole at 0 comes from the t^0 log t term."""
    t_min = 1e-2
    k = np.arange(1.0, 36.0 / t_min + 1.0)
    tr = _certified_trace(Spectrum.of(k, 1.0 / k, cutoff=k[-1]), q=1.0,
                          t_grid=log_grid(t_min, 1.0, 241))
    tpl = ExpansionTemplate.from_terms([(0, True), (1, False), (2, False)])
    fit = fit_expansion(tr.restrict(t_max=0.1), tpl)
    z = zeta_near_zero(tr, fit, kernel_dim=0)
    d = z.diagnostics
    assert abs(z.residue_at_zero - 1.0) <= d["residue_bound"]
    assert abs(z.zeta0 - np.euler_gamma) <= d["zeta0_bound"]
    assert abs(z.zeta_prime0 + STIELTJES_GAMMA1) <= d["zeta_prime0_bound"]
    # zeta(0) = a_-1 + G1 a_-2, so its bound weighs the t^0 log t shift by G1
    b = fit.coefficient_bounds
    assert b[(F(0), True)] > 0.0
    assert d["zeta0_bound"] == b[(F(0), False)] + G1 * b[(F(0), True)] \
        + d["zeta_prime0_budget"]["remainder"]


def test_scaling_covariance():
    """lambda -> c lambda shifts zeta'(0) by -zeta(0) log c."""
    tr, fit, z1 = halfline_zeta()
    c = 2.0
    scaled = Spectrum(c * tr.eigenvalues.lam, tr.eigenvalues.weight, 6.8e5)
    tr2 = _certified_trace(scaled, q=0.5, t_grid=log_grid(5e-5, 1.0, 241))
    fit2 = fit_expansion(tr2.restrict(t_max=0.05), HALF_LINE_TEMPLATE)
    z2 = zeta_near_zero(tr2, fit2, kernel_dim=0)
    assert abs(z2.zeta0 - z1.zeta0) < 1e-9
    assert abs(z2.zeta_prime0 - (z1.zeta_prime0 - z1.zeta0 * math.log(c))) < 1e-6


def test_kernel_subtraction_conventions():
    grid = log_grid(1e-3, 1.0, 241)
    tr = _certified_trace(Spectrum.of([0.0, 1.0], [2.0, 1.0], 4e4), q=0.5, t_grid=grid)
    tpl = ExpansionTemplate.from_terms([(k, False) for k in range(6)])
    fit = fit_expansion(tr.restrict(t_max=0.1), tpl)
    z = zeta_near_zero(tr, fit, kernel_dim=2)
    # c0 = 3 from the fit; zeta(0) conventions differ by dim ker
    assert abs(z.zeta0 - 3.0) < 1e-9
    assert abs(z.zeta0_minus_kernel - 1.0) < 1e-9
    assert abs(z.zeta_prime0) < 1e-8  # the two unit modes integrate as before


def test_fit_residual_gate():
    tr, fit, _ = halfline_zeta()
    bad = replace(fit, residual=2e-5)
    with pytest.raises(FitResidualTooLarge):
        zeta_near_zero(tr, bad, kernel_dim=0)


def test_decay_rate_required_without_eigenvalues():
    tr, fit, _ = halfline_zeta()
    stripped = TraceSamples(tr.grid, tr.values, tr.tail_bound, None)
    with pytest.raises(DecayRateUnknown):
        zeta_near_zero(stripped, fit, kernel_dim=0)


def test_large_t_integral_refuses_a_zero_mode_weight_off_the_kernel():
    """Two zero modes in the spectrum, kernel_dim 1: the large-t integral
    cannot tell which decay the rest of the trace has."""
    grid = log_grid(1e-3, 1.0, 241)
    tr = _certified_trace(Spectrum.of([0.0, 1.0], [2.0, 1.0], 4e4), q=0.5, t_grid=grid)
    fit = fit_expansion(tr.restrict(t_max=0.1),
                        ExpansionTemplate.from_terms([(k, False) for k in range(6)]))
    with pytest.raises(DecayRateUnknown, match="zero-mode weight 2.0"):
        zeta_near_zero(tr, fit, kernel_dim=1)


def test_large_t_integral_refuses_a_zero_mode_times_a_base():
    """A zero mode of the cone times a flat base does not decay, and the
    lattice sums of the Poisson form diverge for it: refused."""
    grid = log_grid(1e-2, 1.0, 20)
    theta = fiber_factor_trace(torus_spectrum((3.0,), cutoff=70.0), grid)
    cone = {0: _certified_trace(Spectrum.of([0.0, 1.0], [1.0, 1.0], 4e4), q=0.5, t_grid=grid)}
    with pytest.raises(DecayRateUnknown, match="zero mode times a flat base"):
        _large_t_integral(product_trace(theta, cone, (3.0,))[0], kernel_dim=1)


# ------------------------------------------------------ large-t integral --

# each special function of the large-t integral and its mpmath value;
# bessel_k over the arguments |l| sqrt(lam) that lattice sums reach, from
# 0.1 (a base period of 0.04 on the disk) on
SPECIAL_FUNCTIONS = {
    "E1": (exp1, mpmath.e1, 1e-6),
    "sqrt(pi) Q(1/2)": (lambda x: math.sqrt(math.pi) * gammaincc(0.5, x),
                        lambda v: mpmath.sqrt(mpmath.pi) * mpmath.erfc(mpmath.sqrt(v)), 1e-6),
    **{f"K_{nu}": (lambda x, nu=nu: bessel_k(nu, x), lambda v, nu=nu: mpmath.besselk(nu, v), 0.1)
       for nu in (0.5, 1.0, 1.5)},
}


@pytest.mark.parametrize("name", SPECIAL_FUNCTIONS)
def test_special_functions_within_their_charged_error(name):
    """exp1, sqrt(pi) Q(1/2, x) and bessel_k at nu in {1/2, 1, 3/2} are
    within SPECIAL_FUNCTION_ERROR (1 + x) relative of mpmath, plus the
    smallest normal float where they underflow, up to 746: the error the
    large-t bound charges them; bessel_k also of scipy.special.kv."""
    ours, theirs, lowest = SPECIAL_FUNCTIONS[name]
    mpmath.mp.dps = 30
    x = np.geomspace(lowest, 746.0, 120)
    got = ours(x)
    want = np.array([float(theirs(v)) for v in x.tolist()])
    charged = SPECIAL_FUNCTION_ERROR * (1.0 + x) * want + SMALLEST_NORMAL
    assert np.all(np.abs(got - want) <= charged)
    if name.startswith("K_"):
        assert np.all(np.abs(got - scipy_kv(float(name[2:]), x)) <= charged)


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
def test_bessel_k_refuses_out_of_domain(x):
    with pytest.raises(ValueError):
        bessel_k(1.0, np.array([1.0, x]))


@pytest.mark.parametrize("b", [0, 1, 2, 3])
def test_upper_gamma_recurrence_against_mpmath(b):
    """Gamma(-b/2, x) by the downward recurrence, against mpmath, is within
    SPECIAL_FUNCTION_ERROR (1 + x) of the recurrence's size, the scale the
    bound charges, which is at least the value, plus the smallest normal
    float; the product's l = 0 term lam^{b/2} Gamma(-b/2, lam t1) reads it
    at x = lam t1."""
    mpmath.mp.dps = 30
    x = np.geomspace(1e-4, 746.0, 200)
    value, size = _upper_gamma(b, x)
    want = np.array([float(mpmath.gammainc(-b / 2, v)) for v in x.tolist()])
    assert np.all(size >= value) and np.all(value >= 0.0)
    assert np.all(np.abs(value - want) <= SPECIAL_FUNCTION_ERROR * (1.0 + x) * size
                  + SMALLEST_NORMAL)


@pytest.mark.parametrize("periods", [(3.0,), (3.0, 4.0)], ids=["circle", "torus"])
def test_product_large_t_integral_against_pair_sums(periods):
    """The (t1, inf) integral of a product degree k by Poisson summation on
    the base, against sum_j C(b, k - j) sum w p E1((lam + mu) t1) over every
    eigenvalue lam of cone degree j and base eigenvalue mu (p lattice
    points) with (lam + mu) t1 <= 746, scipy's E1: the disk at t_min 3e-2
    times a circle and a torus."""
    pipe = Pipeline(ModelConfig(t_min=3e-2))
    t1, cone = float(pipe.grid[0]), pipe.cone_traces()
    base_fiber = torus_spectrum(periods, cutoff=math.sqrt(746.0 / t1))
    product = product_trace(fiber_factor_trace(base_fiber, pipe.grid), cone, periods)
    mu = np.concatenate(([0.0], base_fiber.mu2))
    points = np.concatenate(([1.0], base_fiber.points))
    for k in (0, 1):
        value, bound = _large_t_integral(product[k], kernel_dim=0)
        pairs = 0.0
        for j in range(k + 1):
            spectrum = cone[j].eigenvalues
            for lam, w in zip(spectrum.lam.tolist(), spectrum.weight.tolist()):
                near = (lam + mu) * t1 <= 746.0
                pairs += math.comb(len(periods), k - j) * w \
                    * float(np.dot(points[near], scipy_exp1((lam + mu[near]) * t1)))
        assert abs(value - pairs) <= bound, k
        assert abs(value - pairs) <= 1e-13 * value, k


def test_single_order_large_t_integral_against_quadrature():
    """One radial mode of order 1/2 (eigenvalues k^2 pi^2 up to 3.4e5, t1 =
    1e-4): the integral against mpmath's quadrature of
    int_t1^inf t^-1 (theta_3(0, e^{-pi^2 t}) - 1) / 2 dt, within its bound."""
    tr, _, _ = halfline_zeta()
    value, bound = _large_t_integral(tr, kernel_dim=0)
    mpmath.mp.dps = 30
    want = mpmath.quad(lambda t: (mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi ** 2 * t)) - 1)
                       / (2 * t), [tr.grid[0], 1e-3, 1e-2, 1e-1, 1, mpmath.inf])
    assert abs(value - float(want)) <= bound < 1e-12


# ------------------------------------------------------------- pole checks --

def test_pole_list_matches_symbolic_prediction():
    """The poles of Gamma zeta that the fit's columns carry (t^alpha at
    s = -alpha, of order 2 where a t^alpha log t column joins it) are the
    ones the calculus predicts for the half-line template."""
    _, fit, _ = halfline_zeta()
    got: dict[F, int] = {}
    for alpha, is_log in fit.coefficients:
        got[-alpha] = max(got.get(-alpha, 1), 2 if is_log else 1)
    assert set(got.items()) == set(zeta_pole_structure(HALF_LINE_TEMPLATE).gamma_zeta_poles)


# ---------------------------------------------------------- contour checks --

def test_gamma_zeta_laurent_agreement():
    """Contour Laurent data of Gamma zeta at its simple poles s = 1/2 and
    s = 0 matches the fit's t^(-1/2) and t^0 coefficients."""
    tr, fit, _ = halfline_zeta()
    for alpha in (F(-1, 2), F(0)):
        coeff = fit.coefficient(alpha)
        got = gamma_zeta_laurent_coefficient(tr, fit, 0, s0=complex(-alpha), order=1)
        if abs(coeff) > 1e-8:
            assert abs(got - coeff) < 1e-4 * abs(coeff)
        else:
            assert abs(got - coeff) < 1e-6


def test_contour_residue_regular_at_zero():
    tr, fit, z = halfline_zeta()
    res = zeta_contour_residue(tr, fit, 0)
    assert abs(res) <= max(z.error_bound, 1e-8)


def test_contour_oracle_refuses_a_spectrum_with_a_base():
    """The oracle sums the eigenvalues as the trace's own, which a product
    spectrum's are not: it refuses one that records a base."""
    tr, fit, _ = halfline_zeta()
    based = TraceSamples(tr.grid, tr.values, tr.tail_bound,
                         replace(tr.eigenvalues, base_periods=(3.0,)))
    with pytest.raises(ValueError, match="records a base"):
        gamma_weighted_zeta(based, fit, 0, s=2.0 + 0j)


def test_complex_evaluator_against_closed_form():
    """Away from the poles the evaluator matches pi^(-2s) zeta_R(2s).

    The small-t side goes through the fitted expansion, which represents
    the full spectrum (not the truncation), so the reference must be the
    untruncated closed form; mpmath supplies it at complex points.
    """
    import mpmath
    from scipy.special import gamma as gamma_fn

    tr, fit, _ = halfline_zeta()
    got = gamma_weighted_zeta(tr, fit, 0, s=2.0 + 0j) / math.gamma(2.0)
    assert abs(got.imag) < 1e-12
    assert got.real == pytest.approx(1.0 / 90.0, rel=2e-6)

    mpmath.mp.dps = 25
    for s in (1.5 + 0j, 1.5 + 0.3j, 2.0 + 0.5j):
        want = complex(mpmath.pi ** (-2 * s) * mpmath.zeta(2 * s))
        zeta_s = gamma_weighted_zeta(tr, fit, 0, s=s) / gamma_fn(s)
        assert abs(zeta_s - want) < 2e-5 * abs(want), s


# -------------------------------------------------------- kernel dimensions --

def test_kernel_dims_cone():
    """The Dirichlet truncation leaves no kernel in any degree: the cone
    over the circle (m = 2) and its product with a circle (m = 3)."""
    assert kernel_dimension(2) == [0, 0, 0]
    assert kernel_dimension(3) == [0, 0, 0, 0]


# ----------------------------------------------------------- torsion report --

def _zeta_stub(degree, zp, res=0.0, bound=1e-10):
    return ZetaData(degree, 0.0, 0.0, zp, 0, res,
                    {"zeta0_bound": bound, "zeta_prime0_bound": bound, "residue_bound": bound})


def test_torsion_all_derivatives_zero():
    report = torsion_assemble([_zeta_stub(k, 0.0) for k in range(4)])
    assert report.log_torsion == 0.0
    assert report.torsion_zeta_regular


def test_torsion_poincare_dual_identity():
    """For zeta'_k = a_k with a_k = a_{m-k}, m odd, the full alternating sum
    collapses to the signed half-complex formula."""
    a = [1.3, -0.7, -0.7, 1.3]
    report = torsion_assemble([_zeta_stub(k, a[k]) for k in range(4)])
    m = 3
    half = -0.5 * sum((-1) ** k * (m - 2 * k) * a[k] for k in range((m + 1) // 2))
    assert report.log_torsion == pytest.approx(half, abs=1e-15)


def test_torsion_residue_weighting():
    r = 0.25
    zs = [_zeta_stub(0, 0.0), _zeta_stub(1, 1.0, res=+r), _zeta_stub(2, -1.0, res=-r)]
    report = torsion_assemble(zs)
    assert report.torsion_residue == pytest.approx(0.5 * (-r - 2 * r))
    assert not report.all_degrees_regular
    assert not report.residues_cancel
    assert not report.torsion_zeta_regular


def test_torsion_residue_cancellation():
    r = 0.25
    zs = [_zeta_stub(0, 0.0), _zeta_stub(1, 1.0, res=2 * r), _zeta_stub(2, -1.0, res=r)]
    report = torsion_assemble(zs)
    assert abs(report.torsion_residue) < 1e-15
    assert not report.all_degrees_regular
    assert report.residues_cancel
    assert report.torsion_zeta_regular


def test_torsion_residue_bounded_with_its_weights():
    """Residues (0, 0, 2e-3), each bounded by 1e-3, sum to 2e-3 with the
    bound (1/2) sum_k k b_k = 1.5e-3, the weights of the sum itself: they
    do not cancel (the unweighted sum of the bounds, 3e-3, would say so)."""
    zs = [_zeta_stub(k, 0.0, res=r, bound=1e-3) for k, r in enumerate((0.0, 0.0, 2e-3))]
    report = torsion_assemble(zs)
    assert report.torsion_residue == pytest.approx(2e-3, rel=1e-15)
    assert not report.all_degrees_regular
    assert not report.residues_cancel
    assert not report.torsion_zeta_regular


def test_torsion_missing_degree():
    with pytest.raises(ValueError):
        torsion_assemble([_zeta_stub(0, 0.0), _zeta_stub(2, 0.0)])


def test_report_serialization():
    report = torsion_assemble([_zeta_stub(k, 0.0) for k in range(2)], model="test")
    d = report.to_json_dict()
    assert d["model"] == "test"
    assert len(d["per_degree"]) == 2
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("degree,zeta0")


def test_exp1_against_scipy():
    """Series up to x = 1, continued fraction above, across both regimes."""
    x = np.concatenate([np.geomspace(1e-3, 1e3, 2001), [1.0, np.nextafter(1.0, 2.0)]])
    want = scipy_exp1(x)
    got = exp1(x)
    nonzero = want != 0.0
    # where scipy flushes a subnormal value to 0, the value is below the normal range
    assert np.all(got[~nonzero] < np.finfo(float).tiny)
    assert np.max(np.abs(got - want)[nonzero] / want[nonzero]) <= 1e-13
    assert exp1(np.array([])).shape == (0,)


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
def test_exp1_refuses_out_of_domain(x):
    with pytest.raises(ValueError):
        exp1(np.array([1.0, x]))


def test_csv_error_bound_is_the_larger_bound():
    """The CSV summary's error_bound is the larger of a degree's zeta(0) and
    zeta'(0) bounds, whichever of the two that is."""
    for b0, b1 in ((2.0, 1.0), (1.0, 3.0)):
        z = ZetaData(0, 0.0, 0.0, 0.0, 0, 0.0,
                     {"zeta0_bound": b0, "zeta_prime0_bound": b1, "residue_bound": 0.0})
        assert z.error_bound == max(b0, b1)
        assert torsion_assemble([z]).to_csv().splitlines()[1].endswith(f",{max(b0, b1):.17g}")
