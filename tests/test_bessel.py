"""Bessel evaluators and zero enumeration against independent references.

References used: the elementary closed forms at half-integer order, scipy's
ive/iv (a different algorithm family than the series/uniform expansion
implemented here), mpmath's arbitrary-precision J_nu, bisection on the
small-argument series and on mpmath's J_150, mpmath's findroot on J_nu, and
the scalar zero finder kept in tests/zero_oracle.py.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import ive

from torsionlab import bessel
from torsionlab.cli import ModelConfig, Pipeline
from torsionlab.bessel import (
    UNIFORM_MIN_ORDER,
    WIDE_SCAN_MAX_Z,
    _series_i,
    _uniform_i,
    bessel_i,
    bessel_j_zeros,
    bessel_j_zeros_batch,
    mcmahon_zero,
    zero_scan_step,
)
import zero_oracle
from zero_oracle import bessel_j_series, bisect_zero, oracle_zeros


# ----------------------------------------------------------------- I_nu ----

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


def _finder_passes(cfg, monkeypatch):
    """The (nu, x) of every recurrence pass the zero finder makes for the
    orders of `cfg`'s model up to its z_max, first the scan, then the rounds."""
    pipe = Pipeline(cfg)
    orders = sorted({round(nu, 12) for spec in pipe.nu_spectra().values()
                     for nu in spec.nu.tolist()})
    calls = []
    pair_real = bessel._j_pair

    def recording_pair(nu, x):
        calls.append((nu.copy(), x.copy()))
        return pair_real(nu, x)

    monkeypatch.setattr(bessel, "_j_pair", recording_pair)
    bessel_j_zeros_batch(orders, math.sqrt(pipe.lambda_max))
    monkeypatch.setattr(bessel, "_j_pair", pair_real)
    return calls


@pytest.mark.parametrize("cfg", [
    ModelConfig(),
    ModelConfig(fiber_kind="torus", periods=[2 * math.pi, 2 * math.pi], t_min=1e-2),
], ids=["disk", "torus"])
def test_pair_signs_and_halley_ratios_are_jvs(cfg, monkeypatch):
    """On the finder's own inputs the pass's J_nu and J_{nu-1} have jv's
    signs, and the Halley ratio J_nu / J_nu' is jv's within 1e-15 relative.
    The scan reads signs only: next to a turning point J_nu' nearly
    cancels, and there the ratio is not compared."""
    calls = _finder_passes(cfg, monkeypatch)
    assert len(calls) >= 3
    for i, (nu, x) in enumerate(calls):
        f, g = bessel._j_pair(nu, x)
        jf, jg = bessel.jv(nu, x), bessel.jv(nu - 1.0, x)
        assert np.array_equal(np.sign(f), np.sign(jf)) and np.array_equal(np.sign(g), np.sign(jg))
        if i:
            ratio, want = f / (g - nu / x * f), jf / (jg - nu / x * jf)
            assert np.all(np.abs(ratio - want) <= 1e-15 * np.abs(want)), i


def test_pair_below_order_one_and_rescaled():
    """For nu in [0, 1) the pass steps once past index 0, to J_{nu-1}; at
    x = 1e-8 the step factor ~2e8 j drives p past RESCALE, and the pair is
    still jv's to rounding.  The orders are ones where nu - 1 is exact."""
    nu = np.array([0.0, 0.5, 0.75, 0.99, 0.0, 0.5, 0.0, 0.25 + 0.5])
    x = np.array([1e-8, 1e-8, 1e-8, 1e-8, 0.3, 2.0, 7.5, 40.0])
    f, g = bessel._j_pair(nu, x)
    jf, jg = bessel.jv(nu, x), bessel.jv(nu - 1.0, x)
    assert np.array_equal(np.sign(f), np.sign(jf)) and np.array_equal(np.sign(g), np.sign(jg))
    assert np.all(np.abs(f / g - jf / jg) <= 1e-15 * np.abs(jf / jg))
    # J_0 / J_{-1} = -J_0 / J_1 = -2/x (1 + O(x^2)) near 0
    assert f[0] / g[0] == pytest.approx(-2e8, rel=1e-15)


def test_j0_first_zero_against_series_bisection():
    want = bisect_zero(lambda z: bessel_j_series(0.0, z), 2.0, 3.0)
    got = bessel_j_zeros(0.0, 3.0)[0]
    assert got == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(got - want) < 1e-12


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
    want = bisect_zero(f, zeros[0] - 0.3, zeros[0] + 0.3)
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

# 0.99, 1 and 1 + 1e-12 sit on both sides of the switch to the pi scan step
ORACLE_ORDERS = (0.0, 0.5, 0.99, 1.0, 1.0 + 1e-12, 1.5, 2.0, 7.0, 30.0, 2.3, 11.659, 23.37,
                 150.0)


def _ulps(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want) / np.spacing(want)


def test_batch_matches_scalar_oracle():
    # the last z_max is a point of nu = 2's scan grid, where `z <= z_max` decides;
    # the oracle scans with step pi/2, the batch with pi from nu = 1 on
    on_grid = float(np.arange(2.0, 40.0, math.pi)[12])
    for z_max in (60.0, 190.0, 600.0, on_grid):
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
    for nus, z_max in (([1.0, -1.0], 10.0), ([1.0, math.nan], 10.0), ([1.0], math.inf),
                       ([1.0], math.nan)):
        with pytest.raises(ValueError):
            bessel_j_zeros_batch(nus, z_max)


def test_exact_grid_zero_is_a_zero(monkeypatch):
    """A scan point where the recurrence pass gives exactly 0.0 is taken as a
    zero and counts in the McMahon index k, in the batch as in the oracle on
    the same grid (there through jv), for an order scanned with step pi/2
    and one scanned with step pi."""
    jv_real, pair_real = bessel.jv, bessel._j_pair
    for nu in (0.5, 2.0):
        step = float(zero_scan_step([nu], 30.0)[0])
        point = float(np.arange(nu, 30.0, step)[5])

        def jv_zero_at_point(nu, x, point=point):
            return np.where(np.asarray(x) == point, 0.0, jv_real(nu, x))

        def pair_zero_at_point(nu, x, point=point):
            f, g = pair_real(nu, x)
            return np.where(x == point, 0.0, f), g

        monkeypatch.setattr(bessel, "_j_pair", pair_zero_at_point)
        monkeypatch.setattr(zero_oracle, "jv", jv_zero_at_point)
        got = bessel_j_zeros(nu, 30.0)
        want = oracle_zeros(nu, 30.0, step)
        assert point in got
        assert len(got) == len(want)
        assert _ulps(got, want).max() <= 16


def _mpmath_errors(orders, z_lo, z_hi):
    """(relative error, nu, k) of every zero in [z_lo, z_hi]: the distance
    to mpmath's root next to the zero."""
    mpmath.mp.dps = 30
    out = []
    for nu, zeros in zip(orders, bessel_j_zeros_batch(orders, z_hi)):
        for k, z in enumerate(zeros, start=1):
            if z < z_lo:
                continue
            root = mpmath.findroot(lambda x: mpmath.besselj(nu, x), mpmath.mpf(z))
            out.append((abs(float((z - root) / root)), nu, k))
    return out


def test_zeros_against_mpmath():
    # k = 1, 2 near large orders, where the seeds are poorest, and the
    # z ~ 100 stretch
    errors = _mpmath_errors((0.0, 0.5, 1.0, 2.5, 7.0, 11.659, 19.4459, 23.37, 31.2839, 40.0),
                            0.0, 60.0)
    errors += _mpmath_errors((23.0, 50.0, 74.0), 95.0, 120.0)
    assert len(errors) >= 150
    assert any(k <= 2 and nu >= 30 for _, nu, k in errors)
    bad = [e for e in errors if e[0] > 2.5e-16]
    assert not bad, bad


def _newton_root_errors(orders, z_max, z_lo=0.0, k_max=None):
    """Relative distance to the root of J_nu next to it, for each of the
    first k_max zeros in [z_lo, z_max] of each order.  One Newton step at 30
    digits from a zero within 1e-15 of the root lands within 1e-28 of it."""
    mpmath.mp.dps = 30
    errors = []
    for nu, zeros in zip(orders, bessel_j_zeros_batch(orders, z_max)):
        for z in zeros[:k_max]:
            if z >= z_lo:
                x = mpmath.mpf(z)
                root = x - mpmath.besselj(nu, x) / mpmath.besselj(nu, x, derivative=1)
                errors.append(abs(float((x - root) / root)))
    return errors


def test_first_zeros_of_many_orders_against_mpmath():
    """The first three zeros, where the uniform seed starts nearest the
    turning point, of the disk's orders in [1, 189] and of fractional
    orders 1 to 15.4."""
    pipe = Pipeline(ModelConfig())
    disk = sorted({nu for spec in pipe.nu_spectra().values() for nu in spec.nu.tolist()
                   if 1.0 <= nu <= 189.0})
    errors = _newton_root_errors(disk, 230.0, k_max=3)
    assert len(disk) >= 180 and len(errors) == 3 * len(disk)
    fractional = np.linspace(1.0, 15.4, 49).tolist()
    errors += _newton_root_errors(fractional, 30.0, k_max=3)
    assert max(errors) <= 2.5e-16


def test_disk_zeros_beyond_95_against_mpmath():
    """Every sixteenth of the disk workload's orders in [17, 189]: each zero
    in [95, 190] is within 2.5e-16 relative of mpmath's root."""
    pipe = Pipeline(ModelConfig())
    orders = sorted({nu for spec in pipe.nu_spectra().values() for nu in spec.nu.tolist()})
    sample = [nu for nu in orders if 17.0 <= nu <= 189.0][::16]
    errors = _newton_root_errors(sample, math.sqrt(pipe.lambda_max), z_lo=95.0)
    assert len(sample) >= 15 and len(errors) >= 200
    assert max(errors) <= 2.5e-16


def test_half_order_zeros_within_two_ulp():
    mpmath.mp.dps = 30
    zeros = bessel_j_zeros(0.5, 500.5 * math.pi)
    exact = [float(k * mpmath.pi) for k in range(1, 501)]
    assert _ulps(zeros, exact).max() <= 2


def test_newton_rounds_per_zero(monkeypatch):
    """A Halley round makes one recurrence pass per open bracket, which
    gives J_nu and J_{nu-1}; the first pass is the sign-change scan.  Most
    zeros take one round, and the tail is short."""
    sizes = []
    pair_real = bessel._j_pair

    def counting_pair(nu, x):
        sizes.append(np.size(x))
        return pair_real(nu, x)

    monkeypatch.setattr(bessel, "_j_pair", counting_pair)
    orders = list(range(60)) + list(np.linspace(0.1, 40.3, 97))
    zeros = sum(len(zs) for zs in bessel_j_zeros_batch(orders, 100.0))
    rounds = (sum(sizes) - sizes[0]) / zeros
    assert zeros > 3000
    assert rounds <= 1.5, rounds


def test_uniform_seed_accuracy():
    """Olver's seed nu z(zeta) + f1(zeta)/nu is within 1e-3 relative of
    every zero up to 190 of orders in [1, 200], and within 1e-5 for nearly
    all of them."""
    orders = np.concatenate([np.arange(1.0, 201.0), np.linspace(1.05, 199.95, 137)])
    zeros = bessel_j_zeros_batch(orders, 190.0)
    nu = np.repeat(orders, [len(zs) for zs in zeros])
    k = np.concatenate([np.arange(1, len(zs) + 1) for zs in zeros])
    z = np.concatenate(zeros)
    err = np.abs(bessel._uniform_zero(nu, k) - z) / z
    assert len(z) > 6000 and set(orders[orders <= 175.0]) <= set(nu)
    assert err.max() <= 1e-3
    assert np.mean(err <= 1e-5) >= 0.99


def test_halley_step_error_constant(monkeypatch):
    """From x0 = r + e, one step lands at r + K e^3 with Halley's constant
    K = 1/6 - (2 nu^2 + 1)/(12 r^2) for J_nu; the second round's recurrence
    pass shows the first iterate."""
    mpmath.mp.dps = 30
    seen = []
    jv_real, pair_real = bessel.jv, bessel._j_pair

    def recording_pair(nu, x):
        seen.append(np.array(x, copy=True))
        return pair_real(nu, x)

    monkeypatch.setattr(bessel, "_j_pair", recording_pair)
    for nu, k in ((0.0, 1), (2.5, 3), (7.0, 2), (30.0, 1), (30.0, 4)):
        r = float(mpmath.besseljzero(nu, k))
        big_k = 1.0 / 6.0 - (2.0 * nu * nu + 1.0) / (12.0 * r * r)
        for e in (0.02, -0.02):
            seen.clear()
            lo, hi = np.array([r - 0.6]), np.array([r + 0.6])
            bessel._newton_batch(np.array([nu]), lo, hi, jv_real(nu, lo), np.array([r + e]))
            assert seen[0][0] == r + e and len(seen) == 2
            assert abs((seen[1][0] - r) / e ** 3 - big_k) <= 5e-3, (nu, k, e)


def test_perturbed_seeds_give_the_same_zeros(monkeypatch):
    """Seeds off by +-1e-3 relative, some of them outside their bracket,
    still end at the same zeros within 2 ulp."""
    orders = list(range(60)) + list(np.linspace(0.1, 40.3, 97))
    want = np.concatenate(bessel_j_zeros_batch(orders, 100.0))
    seeds_real, batch_real = bessel._zero_seeds, bessel._newton_batch
    outside = []

    def perturbed_seeds(nu, k):
        return seeds_real(nu, k) * (1.0 + np.where(np.arange(len(nu)) % 2, 1e-3, -1e-3))

    def batch(nu, lo, hi, f_lo, guess):
        outside.append(int(np.sum((guess <= lo) | (hi <= guess))))
        return batch_real(nu, lo, hi, f_lo, guess)

    monkeypatch.setattr(bessel, "_zero_seeds", perturbed_seeds)
    monkeypatch.setattr(bessel, "_newton_batch", batch)
    got = np.concatenate(bessel_j_zeros_batch(orders, 100.0))
    assert outside[0] > 0
    assert len(got) == len(want) and _ulps(got, want).max() <= 2


def test_scan_grid_is_arange_per_order(monkeypatch):
    """The batch's scan grid is, bit for bit, each order's
    np.arange(max(nu, 1e-8), z_max + step, step), one order after another,
    with step pi/2 below nu = 1 and pi from nu = 1 on."""
    rng = np.random.default_rng(3)
    orders = np.concatenate([[0.0, 1e-9, 1e-8, 0.3, 0.99, 1.0, 1.0 + 1e-12, 149.9, 150.0, 170.0],
                             rng.uniform(0.0, 3.0, 500), rng.uniform(0.0, 160.0, 500)])
    z_max = 150.0
    scans = []
    pair_real = bessel._j_pair

    def recording_pair(nu, x):
        if not scans:
            scans.append((np.array(nu, copy=True), np.array(x, copy=True)))
        return pair_real(nu, x)

    monkeypatch.setattr(bessel, "_j_pair", recording_pair)
    bessel_j_zeros_batch(orders.tolist(), z_max)
    steps = np.where(orders >= 1.0, math.pi, math.pi / 2.0)
    grids = [np.arange(max(nu, 1e-8), z_max + step, step)
             for nu, step in zip(orders, steps) if z_max > nu]
    nu_at, grid = scans[0]
    assert np.array_equal(grid, np.concatenate(grids))
    assert np.array_equal(nu_at, np.repeat(orders[orders < z_max], [len(g) for g in grids]))


def test_wide_scan_step_needs_its_margin():
    """Step pi from nu = 1 on, up to the z_max where the Sturm margin over pi
    still dwarfs the grid's rounding; pi/2 elsewhere."""
    half, wide = math.pi / 2.0, math.pi
    assert zero_scan_step([0.0, 0.99, 1.0, 40.0], WIDE_SCAN_MAX_Z).tolist() == [
        half, half, wide, wide]
    assert zero_scan_step([1.0, 40.0], math.nextafter(WIDE_SCAN_MAX_Z, math.inf)).tolist() \
        == [half, half]


def test_uniform_polynomials_are_built_on_first_use():
    """`import torsionlab.cli` does not build the U_k table, and `bessel_i`
    values in the uniform regime are those of the table built at import."""
    code = ("import torsionlab.cli\n"
            "from torsionlab import bessel\n"
            "print(bessel._u_float.cache_info().currsize)\n")
    src = str(Path(bessel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout == "0\n"
    want = {(30.0, 95.0): "0x1.7e21a4f325fcap-12", (30.0, 1e4): "0x1.f3e5d4cf5e36dp-9",
            (45.5, 300.0): "0x1.7fb033856b501p-11", (80.0, 700.0): "0x1.47b0c0f5d407cp-13",
            (140.0, 2000.0): "0x1.16da740700f36p-14", (200.0, 4100.0): "0x1.8dfdb4406b5adp-15",
            (200.0, 1e4): "0x1.1b0ff06423073p-11"}
    for (nu, z), hexval in want.items():
        assert bessel_i(nu, z, scaled=True) == float.fromhex(hexval), (nu, z)
