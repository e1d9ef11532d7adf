"""Zeta extraction against exactly known determinants.

The k^2 pi^2 spectrum has zeta(s) = pi^(-2s) zeta_R(2s), so zeta(0) = -1/2
and zeta'(0) = -log 2 (acceptance criterion 5, `oracles.zeta_riemann`); a
single unit eigenvalue has zeta identically 1.  Both pin every piece of the
Mellin-split bookkeeping.
"""

import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.interpolate import CubicSpline  # test oracle only
from scipy.special import exp1 as scipy_exp1  # test oracle only

from torsionlab.conekernel import (
    Spectrum,
    TraceSamples,
    _certified_trace,
    cone_spectrum,
    fit_expansion,
    log_grid,
    truncated_cone_trace,
)
from torsionlab.errors import DecayRateUnknown, FitResidualTooLarge
from torsionlab.fiber import single_nu_spectrum
from torsionlab.phg import ExpansionTemplate, heat_trace_structure, zeta_pole_structure
from torsionlab.zetator import (
    G1,
    ZetaData,
    _integral_table,
    _not_a_knot_integral,
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


# ------------------------------------------------------ spline integral --

def _grid(kind, n, rng):
    if kind == "geometric":
        return np.log(np.geomspace(1e-4, 1.0, n))
    return np.concatenate(([-9.0], np.sort(rng.uniform(-9.0, 0.0, n - 2)), [0.0]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 241])
@pytest.mark.parametrize("kind", ["geometric", "random"])
def test_not_a_knot_integral_matches_cubic_spline(n, kind):
    rng = np.random.default_rng(n)
    for trial in range(20):
        u = _grid(kind, n, rng)
        y = rng.standard_normal(n) if trial % 2 else np.exp(u) * np.sin(3.0 * u)
        scale = float(np.sum(np.abs(y[:-1]) * np.diff(u)))
        inner = rng.uniform(u[0], u[-1])
        for u_lo, u_hi in [(u[0], u[-1]), (u[0], inner), (inner, u[-1]),
                           (u[0], 0.5 * (u[-2] + u[-1]))]:
            expect = float(CubicSpline(u, y).integrate(u_lo, u_hi))
            got = _not_a_knot_integral(u, y, u_lo, u_hi)
            assert abs(got - expect) <= 1e-12 * scale, (trial, u_lo, u_hi)


def test_not_a_knot_integral_is_exact_for_cubics():
    u = np.log(np.geomspace(1e-3, 1.0, 17))
    y = 2.0 - u + 0.5 * u ** 2 - 0.25 * u ** 3
    exact = lambda x: 2.0 * x - x ** 2 / 2 + x ** 3 / 6 - x ** 4 / 16
    for u_hi in (u[-1], u[9] + 0.3 * (u[10] - u[9])):
        assert _not_a_knot_integral(u, y, u[0], u_hi) == \
            pytest.approx(exact(u_hi) - exact(u[0]), rel=1e-13)


def test_spline_integral_error_estimate():
    """The integral table's error row: grid halving over 15 from five
    points on; below that the whole value is the error.  Halving an even
    count leaves a grid one step short of u_hi, over which the last piece
    extends as scipy's does."""
    def table_row(u, y):
        samples = TraceSamples(np.exp(u), y, np.zeros_like(u), None)
        values, columns = _integral_table(samples, [], math.e)
        assert columns == {} and values[0] == y[0]
        return values[1:]

    u = np.linspace(0.0, 1.0, 4)
    assert table_row(u, u ** 3) == pytest.approx((0.25, 0.25))
    for n in (9, 10):
        u = np.linspace(0.0, 1.0, n)
        full, err = table_row(u, np.exp(u))
        coarse = float(CubicSpline(u[::2], np.exp(u[::2])).integrate(0.0, 1.0))
        assert full == pytest.approx(math.e - 1.0, rel=1e-6)
        assert err == pytest.approx((full - coarse) / 15.0, rel=1e-6)


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


def test_samples_must_reach_the_split_point():
    tr, fit, _ = halfline_zeta()
    with pytest.raises(ValueError, match="samples must reach the split point 2.0"):
        zeta_near_zero(tr, fit, kernel_dim=0, split=2.0)


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
                    {"zeta0_bound": bound, "zeta_prime0_bound": bound, "residue_bound": bound,
                     "split": 1.0})


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
