"""Bessel evaluators and zero enumeration against independent references.

References used: the elementary closed forms at half-integer order, scipy's
ive/iv (a different algorithm family than the series/uniform expansion
implemented here), bisection on the small-argument series, bisection on
mpmath's arbitrary-precision J_0, mpmath's findroot on J_nu, and the scalar
zero finder kept in tests/zero_oracle.py.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import ive, jv

from torsionlab import bessel
from torsionlab.bessel import (
    UNIFORM_MIN_ORDER,
    ZERO_SCAN_STEP,
    _series_i,
    _uniform_i,
    bessel_i,
    bessel_j_series,
    bessel_j_zeros,
    bessel_j_zeros_batch,
    mcmahon_zero,
)
import zero_oracle
from zero_oracle import oracle_zeros

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
