"""Bessel evaluators and zero enumeration against independent references.

References used: the elementary closed forms at half-integer order, scipy's
ive/iv (a different algorithm family than the series/uniform expansion
implemented here), mpmath's arbitrary-precision J_nu, bisection on the
small-argument series and on mpmath's J_0, mpmath's findroot on J_nu, and
the scalar zero finder kept in tests/zero_oracle.py.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import ive, jv

from torsionlab import bessel
from torsionlab.cli import ModelConfig, Pipeline
from torsionlab.bessel import (
    UNIFORM_MIN_ORDER,
    ZERO_SCAN_STEP,
    _series_i,
    _uniform_i,
    bessel_i,
    bessel_j_zeros,
    bessel_j_zeros_batch,
    mcmahon_zero,
)
import zero_oracle
from zero_oracle import bessel_j_series, oracle_zeros

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# ----------------------------------------------------------------- I_nu ----

def test_half_order_closed_form():
    # I_{1/2}(z) = sqrt(2/(pi z)) sinh z
    for z in np.geomspace(1e-3, 30.0, 1000):
        want = SQRT_2_OVER_PI / math.sqrt(z) * math.sinh(z)
        got = bessel_i(0.5, z)
        assert abs(got - want) <= 1e-12 * want


def test_value_at_one():
    assert bessel_i(0.5, 1.0) == pytest.approx(0.9376748882454862, abs=5e-15)


def test_small_argument_leading_order():
    z = 1e-6
    nu = 2.5
    lead = math.exp(nu * math.log(z / 2) - math.lgamma(nu + 1))
    assert bessel_i(nu, z) == pytest.approx(lead, rel=1e-8)


def test_scaled_large_argument_finite():
    v = bessel_i(0.0, 700.0, scaled=True)
    assert 0.0 < v < 1.0
    # e^{-z} I_0(z) ~ 1/sqrt(2 pi z)
    assert v == pytest.approx(1.0 / math.sqrt(2 * math.pi * 700.0), rel=1e-2)


def test_unscaled_rejected_beyond_limit():
    with pytest.raises(ValueError):
        bessel_i(0.0, 51.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_i(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_i(0.5, 0.0)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 7.0, 20.0, 30.0, 55.5, 120.0, 200.0])
def test_scaled_against_scipy_grid(nu):
    for z in np.geomspace(1e-2, 1e4, 160):
        got = bessel_i(nu, z, scaled=True)
        want = float(ive(nu, z))
        if want == 0.0:
            assert got < 1e-300
            continue
        assert abs(got - want) <= 2e-12 * want, (nu, z)


def test_regime_crossover_agreement():
    """Series and uniform expansion agree on the overlap strip."""
    for nu in (30.0, 45.0, 80.0, 140.0, 200.0):
        for fac in (0.8, 1.0, 1.25):
            z = fac * nu * nu / 10.0
            a = _series_i(nu, z, scaled=True)
            b = _uniform_i(nu, z, scaled=True)
            assert abs(a - b) <= 1e-11 * abs(b), (nu, z)
    assert UNIFORM_MIN_ORDER == 30.0


def test_scaled_matches_unscaled_where_both_valid():
    for nu in (0.0, 1.5, 6.0):
        for z in (0.5, 5.0, 30.0, 49.0):
            assert bessel_i(nu, z, scaled=True) == pytest.approx(
                bessel_i(nu, z) * math.exp(-z), rel=1e-13)


# ----------------------------------------------------------------- J_nu ----

def test_j_series_small_argument():
    assert bessel_j_series(0.0, 2.404825557695773) == pytest.approx(0.0, abs=1e-14)
    assert bessel_j_series(0.5, math.pi) == pytest.approx(0.0, abs=1e-15)
    assert bessel_j_series(1.0, 1.0) == pytest.approx(0.4400505857449335, abs=1e-14)


def _mp_jv(nu, x):
    mpmath.mp.dps = 30
    return float(mpmath.besselj(mpmath.mpf(float(nu)), mpmath.mpf(float(x))))


def _jv_error(nus, xs, want):
    """|jv - J| / max(|J|, sqrt(2/(pi x))): the error against the amplitude,
    which is what moves a zero."""
    nus, xs, want = np.broadcast_arrays(np.asarray(nus, dtype=float),
                                        np.asarray(xs, dtype=float), np.asarray(want))
    return np.abs(bessel.jv(nus, xs) - want) / np.maximum(np.abs(want),
                                                          np.sqrt(2.0 / (math.pi * xs)))


def test_jv_half_order_closed_forms():
    mpmath.mp.dps = 30
    xs = np.concatenate([np.geomspace(1e-8, 1.0, 17), np.linspace(1.5, 600.0, 120)])
    amp = [mpmath.sqrt(2 / (mpmath.pi * mpmath.mpf(float(x)))) for x in xs]
    sin = [float(a * mpmath.sin(mpmath.mpf(float(x)))) for a, x in zip(amp, xs)]
    cos = [float(a * mpmath.cos(mpmath.mpf(float(x)))) for a, x in zip(amp, xs)]
    assert _jv_error(0.5, xs, sin).max() <= 5e-14
    assert _jv_error(-0.5, xs, cos).max() <= 5e-14


_RNG = np.random.default_rng(20261018)
_TURNING = np.array([0.5, 1.0, 7.3, 30.0, 99.5, 190.0, 400.0])
JV_POINTS = {
    "integer": np.array([(nu, x) for nu in (0, 1, 2, 5, 10, 30, 100, 250)
                         for x in (0.1, 1.0, 5.0, 20.0, 75.0, 150.0, 300.0, 600.0)]),
    "negative": np.array([(nu, x) for nu in (-1.0, -0.999, -0.75, -0.5, -0.3, -1e-9)
                          for x in (1e-3, 0.5, 3.0, 40.0, 200.0, 600.0)]),
    "small-x": np.array([(nu, x) for nu in (-1.0, -0.5, 0.0, 0.3, 1.0, 2.5, 10.0)
                         for x in (1e-8, 1e-35, 1e-45, 1e-300)]),
    "turning": np.stack([_TURNING, _TURNING], axis=1),
    "to-600": np.stack([_RNG.uniform(0.0, 700.0, 60), _RNG.uniform(300.0, 600.0, 60)], axis=1),
    # the stretch where scipy's jv erred by up to 8e-14
    "nu17-x95-190": np.stack([_RNG.uniform(17.0, 190.0, 80), _RNG.uniform(95.0, 190.0, 80)],
                             axis=1),
}


@pytest.mark.parametrize("points", JV_POINTS.values(), ids=JV_POINTS.keys())
def test_jv_against_mpmath(points):
    want = [_mp_jv(nu, x) for nu, x in points]
    assert _jv_error(points[:, 0], points[:, 1], want).max() <= 5e-14


def test_jv_step_rounding_does_not_add_up():
    """The recurrence step is (j p_j + nu0 p_j) / (x/2) - p_{j+1}.  A step
    factor rounded once, as 2 / x or as nu0 + j, errs alike from step to
    step, and up to x = 600 that reaches 4e-14 to 5e-14 of the amplitude;
    this form stays within 1.2e-14 on these points."""
    mpmath.mp.dps = 30
    rng = np.random.default_rng(7)
    nus, xs = rng.uniform(0.0, 300.0, 200), rng.uniform(300.0, 600.0, 200)
    assert _jv_error(nus, xs, [_mp_jv(nu, x) for nu, x in zip(nus, xs)]).max() <= 2e-14
    xs = np.linspace(300.0, 600.0, 301)
    amp = [mpmath.sqrt(2 / (mpmath.pi * mpmath.mpf(float(x)))) for x in xs]
    sin = [float(a * mpmath.sin(mpmath.mpf(float(x)))) for a, x in zip(amp, xs)]
    assert _jv_error(0.5, xs, sin).max() <= 2e-14


def test_jv_shapes_and_jvp():
    assert isinstance(bessel.jv(0.5, 1.0), float)
    nus = np.array([[0.0], [2.5]])
    xs = np.array([0.5, 3.0, 40.0])
    got = bessel.jv(nus, xs)
    assert got.shape == (2, 3)
    assert np.array_equal(got[1], bessel.jv(np.full(3, 2.5), xs))
    assert bessel.jv([], []).shape == (0,)
    for nu, x in ((0.0, 2.0), (2.5, 40.0), (17.0, 120.0)):
        mpmath.mp.dps = 30
        want = float(mpmath.besselj(nu, x, derivative=1))
        assert abs(bessel.jvp(nu, x) - want) <= 5e-14 * math.sqrt(2 / (math.pi * x))


@pytest.mark.parametrize("nu, x", [
    (-1.5, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1j, 1.0),
    (1.0, 0.0), (1.0, -2.0), (1.0, math.inf), (1.0, math.nan), (1.0, 1.0 + 1j),
    ([0.0, -2.0], 1.0), (0.0, [1.0, 0.0]),
])
def test_jv_refuses_out_of_domain(nu, x):
    with pytest.raises(ValueError):
        bessel.jv(nu, x)


def test_half_order_zeros_are_multiples_of_pi():
    zeros = bessel_j_zeros(0.5, 500.5 * math.pi)
    assert len(zeros) == 500
    for k, z in enumerate(zeros, start=1):
        assert abs(z - k * math.pi) <= 1e-12 * k * math.pi


def _bisect_zero(fn, lo, hi):
    f_lo = fn(lo)
    assert f_lo * fn(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_j0_first_zero_against_series_bisection():
    want = _bisect_zero(lambda z: bessel_j_series(0.0, z), 2.0, 3.0)
    got = bessel_j_zeros(0.0, 3.0)[0]
    assert got == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(got - want) < 1e-12


def test_j0_fifty_zeros_against_mpmath_bisection():
    mpmath.mp.dps = 30
    zeros = bessel_j_zeros(0.0, 160.0)
    assert len(zeros) >= 50
    f = lambda z: float(mpmath.besselj(0, mpmath.mpf(z)))
    for k in range(50):
        z = zeros[k]
        want = _bisect_zero(f, z - 0.5, z + 0.5)
        assert abs(z - want) <= 1e-10 * want


def test_first_zero_monotone_in_order():
    firsts = [bessel_j_zeros(nu, 12.0)[0] for nu in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert firsts == sorted(firsts)
    for nu, j1 in zip((0.0, 0.5, 1.0, 2.0, 5.0), firsts):
        assert j1 > nu


def test_zero_interlacing_consecutive_integer_orders():
    z0 = bessel_j_zeros(3.0, 40.0)
    z1 = bessel_j_zeros(4.0, 40.0)
    for k in range(min(len(z1), len(z0) - 1)):
        assert z0[k] < z1[k] < z0[k + 1]


def test_empty_below_first_zero():
    assert bessel_j_zeros(0.0, 2.0) == []
    assert bessel_j_zeros(5.0, 4.0) == []


def test_zero_count_matches_mcmahon_density():
    # number of zeros up to L approaches (L - nu pi/2 + pi/4)/pi
    zeros = bessel_j_zeros(2.0, 200.0)
    approx = (200.0 - 2.0 * math.pi / 2 + math.pi / 4) / math.pi
    assert abs(len(zeros) - approx) < 2


def test_large_order_zeros():
    zeros = bessel_j_zeros(150.0, 190.0)
    assert zeros, "first zero of J_150 sits near 150 + 1.86 * 150^(1/3)"
    want_olver = 150.0 + 1.8557571 * 150.0 ** (1.0 / 3.0) + 1.0331503 * 150.0 ** (-1.0 / 3.0)
    assert zeros[0] == pytest.approx(want_olver, rel=1e-4)
    mpmath.mp.dps = 30
    f = lambda z: float(mpmath.besselj(150, mpmath.mpf(z)))
    want = _bisect_zero(f, zeros[0] - 0.3, zeros[0] + 0.3)
    assert abs(zeros[0] - want) <= 1e-11 * want


def test_mcmahon_guess_quality():
    zeros = bessel_j_zeros(1.5, 100.0)
    for k, z in enumerate(zeros, start=1):
        if k >= 3:
            assert abs(mcmahon_zero(1.5, k) - z) < 1e-6


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        bessel_j_zeros(-1.0, 10.0)


# ------------------------------------------------------ batched J zeros ----

ORACLE_ORDERS = (0.0, 0.5, 1.0, 2.0, 7.0, 30.0, 2.3, 11.659, 23.37, 150.0)


def _ulps(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want) / np.spacing(want)


def test_batch_matches_scalar_oracle():
    # the last z_max is a point of nu = 2's scan grid, where `z <= z_max` decides
    on_grid = float(np.arange(2.0, 40.0, ZERO_SCAN_STEP)[12])
    for z_max in (60.0, 190.0, on_grid):
        batch = bessel_j_zeros_batch(ORACLE_ORDERS, z_max)
        for nu, got in zip(ORACLE_ORDERS, batch):
            want = oracle_zeros(nu, z_max)
            assert len(got) == len(want), (nu, z_max)
            if want:
                assert _ulps(got, want).max() <= 16, (nu, z_max)
            # each order of a batch is solved on its own
            assert got == bessel_j_zeros(nu, z_max)
    assert bessel_j_zeros_batch([], 10.0) == []
    assert bessel_j_zeros_batch([5.0, 0.0], 4.0) == [[], [2.404825557695773]]
    with pytest.raises(ValueError):
        bessel_j_zeros_batch([1.0, -1.0], 10.0)


def test_exact_grid_zero_is_a_zero(monkeypatch):
    """A scan point where jv returns exactly 0.0 is taken as a zero and counts
    in the McMahon index k, in the batch as in the oracle."""
    point = float(np.arange(2.0, 30.0, ZERO_SCAN_STEP)[5])
    jv_real = bessel.jv

    def jv_zero_at_point(nu, x):
        return np.where(np.asarray(x) == point, 0.0, jv_real(nu, x))

    monkeypatch.setattr(bessel, "jv", jv_zero_at_point)
    monkeypatch.setattr(zero_oracle, "jv", jv_zero_at_point)
    got = bessel_j_zeros(2.0, 30.0)
    want = oracle_zeros(2.0, 30.0)
    assert point in got
    assert len(got) == len(want)
    assert _ulps(got, want).max() <= 16


def _mpmath_errors(orders, z_lo, z_hi):
    """(relative error, allowance, nu, k) of every zero in [z_lo, z_hi].

    The error is the distance to mpmath's root r next to the zero.  The
    allowance is 4e-16 plus the root shift that scipy's own `jv` error at r
    accounts for, |jv(nu, r) - J_nu(r)| / (|J_nu'(r)| r): no finder that
    evaluates J_nu with `jv` can beat that shift, which reaches ~4e-16 for
    integer orders near z = 100.
    """
    mpmath.mp.dps = 30
    out = []
    for nu, zeros in zip(orders, bessel_j_zeros_batch(orders, z_hi)):
        for k, z in enumerate(zeros, start=1):
            if z < z_lo:
                continue
            root = mpmath.findroot(lambda x: mpmath.besselj(nu, x), mpmath.mpf(z))
            r = float(root)
            slope = mpmath.besselj(nu - 1, root) - nu / root * mpmath.besselj(nu, root)
            shift = abs(float((jv(nu, r) - mpmath.besselj(nu, r)) / slope / root))
            out.append((abs(float((z - root) / root)), 4e-16 + shift, nu, k))
    return out


def test_zeros_against_mpmath():
    # k = 1, 2 near large orders, where McMahon's seed is poorest, and the
    # z ~ 100 stretch where scipy's jv is least accurate
    errors = _mpmath_errors((0.0, 0.5, 1.0, 2.5, 7.0, 11.659, 19.4459, 23.37, 31.2839, 40.0),
                            0.0, 60.0)
    errors += _mpmath_errors((23.0, 50.0, 74.0), 95.0, 120.0)
    assert len(errors) >= 150
    assert any(k <= 2 and nu >= 30 for _, _, nu, k in errors)
    bad = [e for e in errors if e[0] > e[1]]
    assert not bad, bad


def test_disk_zeros_beyond_95_against_mpmath():
    """Every sixteenth of the disk workload's orders in [17, 189]: each zero
    in [95, 190] is within 2.5e-16 relative of mpmath's root.  One Newton
    step at 30 digits from a zero within 1e-15 of the root lands within
    1e-28 of it."""
    pipe = Pipeline(ModelConfig())
    orders = sorted({nu for spec in pipe.nu_spectra().values() for nu in spec.nu.tolist()})
    sample = [nu for nu in orders if 17.0 <= nu <= 189.0][::16]
    mpmath.mp.dps = 30
    errors = []
    for nu, zeros in zip(sample, bessel_j_zeros_batch(sample, math.sqrt(pipe.lambda_max))):
        for z in zeros:
            if z >= 95.0:
                x = mpmath.mpf(z)
                root = x - mpmath.besselj(nu, x) / mpmath.besselj(nu, x, derivative=1)
                errors.append(abs(float((x - root) / root)))
    assert len(sample) >= 15 and len(errors) >= 200
    assert max(errors) <= 2.5e-16


def test_half_order_zeros_within_two_ulp():
    mpmath.mp.dps = 30
    zeros = bessel_j_zeros(0.5, 500.5 * math.pi)
    exact = [float(k * mpmath.pi) for k in range(1, 501)]
    assert _ulps(zeros, exact).max() <= 2


def test_newton_rounds_per_zero(monkeypatch):
    """A Newton round evaluates J_nu and J_{nu-1} once per open bracket;
    the first `jv` call is the sign-change scan."""
    sizes = []
    jv_real = bessel.jv

    def counting_jv(nu, x):
        sizes.append(np.size(x))
        return jv_real(nu, x)

    monkeypatch.setattr(bessel, "jv", counting_jv)
    orders = list(range(60)) + list(np.linspace(0.1, 40.3, 97))
    zeros = sum(len(zs) for zs in bessel_j_zeros_batch(orders, 100.0))
    rounds = (sum(sizes) - sizes[0]) / 2 / zeros
    assert zeros > 3000
    assert rounds <= 6.0, rounds
