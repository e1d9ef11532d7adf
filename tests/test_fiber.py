"""Fiber spectra and the block operator.

The check against a dense assembly (the operator as an explicit Hermitian
matrix on a truncated lattice basis, diagonalized numerically) is
acceptance criterion 6, `oracles.dense_a_oracle`, in both conventions.
"""

import functools
import math
import operator

import numpy as np
import pytest

from torsionlab.errors import NegativeBlockEigenvalue, TailNotCertified
from torsionlab.fiber import (
    Convention,
    NuSpectrum,
    _lattice_points,
    _merged_orders,
    _round12,
    _shells,
    _wedge_matrix,
    a_block_eigenvalues,
    a_spectrum,
    gauss_bonnet_consistency,
    single_nu_spectrum,
    torus_spectrum,
)

GEO = Convention.GEOMETRIC_ORACLE
LIT = Convention.PAPER_LITERAL

TWO_PI = 2.0 * math.pi


def circle(radius, cutoff):
    """Hodge spectrum of the circle of radius r: the torus of period 2 pi r."""
    return torus_spectrum((TWO_PI * radius,), cutoff=cutoff)


def degree_rows(spec, degree):
    """(mu2, mult, kind) of one fiber degree, read off the shells: the
    harmonic constants, then the exact and the coexact forms of each shell."""
    rows = [(0.0, math.comb(spec.dim_f, degree), "harmonic")]
    for kind in ("exact", "coexact"):
        mults = getattr(spec, kind)(degree).tolist()
        rows += [(mu2, n, kind) for mu2, n in zip(spec.mu2.tolist(), mults) if n]
    return rows


def kind_mults(spec, degree, kind):
    """mu2 (to 9 digits) -> multiplicity of one kind of degree-forms."""
    return {round(mu2, 9): n for mu2, n, k in degree_rows(spec, degree) if k == kind}


# ------------------------------------------------------------ fiber spectra --

def test_circle_unit_function_spectrum():
    spec = circle(1.0, cutoff=3.5)
    vals = sorted(v for mu2, n, _ in degree_rows(spec, 0) for v in [mu2] * n)
    assert vals == pytest.approx([0, 1, 1, 4, 4, 9, 9])


def test_circle_radius_two_first_eigenvalue():
    spec = circle(2.0, cutoff=2.0)
    nonzero = sorted(mu2 for mu2, _, _ in degree_rows(spec, 0) if mu2 > 0)
    assert nonzero[0] == pytest.approx(0.25)


def test_circle_degree_one_mirrors_degree_zero():
    spec = circle(1.7, cutoff=5.0)
    d0 = sorted((mu2, n) for mu2, n, _ in degree_rows(spec, 0))
    d1 = sorted((mu2, n) for mu2, n, _ in degree_rows(spec, 1))
    assert d0 == d1


def test_circle_rejects_bad_radius():
    with pytest.raises(ValueError):
        circle(-1.0, cutoff=2.0)


def test_torus_single_period_matches_circle():
    """Unit circle: mu^2 = k^2 twice for k >= 1 plus the constants; nonzero
    functions are coexact and nonzero 1-forms exact."""
    t = torus_spectrum([TWO_PI], cutoff=4.5)
    want = [(0, 0.0, "harmonic", 1), (1, 0.0, "harmonic", 1)]
    for k in range(1, 5):
        want += [(0, k * k, "coexact", 2), (1, k * k, "exact", 2)]
    got = [(d, round(mu2, 9), kind, n) for d in range(2) for mu2, n, kind in degree_rows(t, d)]
    assert sorted(got) == sorted(want)
    assert t.points.tolist() == [2, 2, 2, 2]


def test_torus_degree_one_split_at_first_eigenvalue():
    spec = torus_spectrum([TWO_PI, TWO_PI], cutoff=1.5)
    mults = {kind: n for mu2, n, kind in degree_rows(spec, 1) if abs(mu2 - 1.0) < 1e-12}
    assert mults == {"exact": 4, "coexact": 4}


def test_torus_rejects_empty_periods():
    with pytest.raises(ValueError):
        torus_spectrum([], cutoff=1.0)


def _string_rule_shells(mu2):
    """Oracle: the values of mu2 grouped by float(f"{v:.12g}"), by
    increasing key, each group in the order of mu2."""
    groups = {}
    for v in mu2.tolist():
        groups.setdefault(float(f"{v:.12g}"), []).append(v)
    return [np.array(groups[key]) for key in sorted(groups)]


def test_shell_means_are_per_shell_np_mean():
    """Each shell's mu2 is, bit for bit, np.mean of its lattice points' |kappa|^2
    in lattice order, on square, rectangular and cubic lattices; among the
    shells of 8 points or more are some where numpy's pairwise sum and a
    running sum give different means."""
    pairwise_differs = 0
    for periods, cutoff in (((TWO_PI, TWO_PI), 60.0), ((TWO_PI, 3.7), 40.0),
                            ((TWO_PI, TWO_PI, TWO_PI), 14.0)):
        _, mu2 = _lattice_points(periods, cutoff)
        shells = [s for s in _string_rule_shells(mu2) if s[0] != 0.0]
        spec = torus_spectrum(periods, cutoff)
        assert spec.points.tolist() == [len(s) for s in shells]
        assert spec.mu2.tolist() == [np.mean(s) for s in shells]
        pairwise_differs += sum(len(s) >= 8 and functools.reduce(operator.add, s) / len(s)
                                != np.mean(s) for s in shells)
    assert pairwise_differs > 0


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _assert_shells_are_the_string_rule(mu2):
    mean, points = _shells(mu2)
    want = _string_rule_shells(mu2)
    assert points.tolist() == [len(s) for s in want]
    assert np.array_equal(_bits(mean), _bits([np.mean(s) for s in want]))


@pytest.mark.parametrize("periods,cutoff", [
    ((TWO_PI, TWO_PI), 123.0), ((TWO_PI, 1.5 * TWO_PI), 80.0), ((11.0, 3.7), 40.0),
    ((TWO_PI, TWO_PI, TWO_PI), 14.0), ((3.0, 4.5), 101.0), ((1.5 * TWO_PI,), 500.0),
], ids=["square", "rect-2pi-3pi", "rect-below-one", "cubic", "rect-3-4.5", "circle-r1.5"])
def test_shell_keys_are_the_string_rule(periods, cutoff):
    """The shells, cut where sorted neighbours differ by more than 1e-12
    relative, are the groups of float(f"{v:.12g}") of each |kappa|^2, with
    the same means bit for bit, on square, rectangular, cubic and circle
    lattices: the square one at twice the torus workload's cutoff, and one
    with |kappa|^2 below 1."""
    _assert_shells_are_the_string_rule(_lattice_points(periods, cutoff)[1])


def test_shell_keys_next_to_powers_of_ten():
    """Values one ulp either side of a power of ten share its shell, as they
    share its 12-digit string; 0, the smallest subnormal and 1e300 are
    shells of their own."""
    powers = 10.0 ** np.arange(-11.0, 13.0)
    mu2 = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                          [0.0, 5e-324, 1e300]])
    _assert_shells_are_the_string_rule(mu2)


def _round_keys(nu):
    return [round(v, 12) for v in np.asarray(nu, dtype=float).tolist()]


def _assert_merged_as_round(nu):
    """`_round12` is Python's round(nu, 12) bit for bit, and `_merged_orders`
    keys each order by it."""
    nu = np.asarray(nu, dtype=float)
    mult = np.arange(len(nu)) % 3 + 1
    keys = _round_keys(nu)
    assert np.array_equal(_bits(_round12(nu)), _bits(keys))
    orders, merged = _merged_orders(nu, mult)
    want = sorted(set(keys))
    assert np.array_equal(_bits(orders), _bits(want))
    sums = {}
    for key, m in zip(keys, mult.tolist()):
        sums[key] = sums.get(key, 0) + m
    assert merged.tolist() == [sums[w] for w in want]


def test_merged_orders_key_as_python_round():
    """Near-ties (k + 1/2) 1e-12 and the floats one ulp either side of them,
    orders at and past 2^53 / 1e12 and nu = 0 key as round(nu, 12) bit for
    bit.  On the near-ties x 1e12 often rounds to a representable
    half-integer off the exact product, where rint alone (np.round) misses
    round.  Negative values and signed zeros round as Python's do too."""
    k = np.concatenate([np.arange(200.0), 2.0 ** np.arange(8, 53, 3), 60.5e12 + np.arange(50.0),
                        2.0 ** 52 + np.arange(50.0)])
    ties = (k + 0.5) * 1e-12
    near = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    _assert_merged_as_round(np.concatenate([near, [0.0]]))
    assert np.count_nonzero(_bits(np.round(near, 12)) != _bits(_round_keys(near))) > 100
    signed = np.concatenate([-near, [-0.0, -1e-13, -5e-13]])
    assert np.array_equal(_bits(_round12(signed)), _bits(_round_keys(signed)))
    big = 2.0 ** 53 / 1e12
    _assert_merged_as_round([big, np.nextafter(big, 0.0), np.nextafter(big, np.inf), 1e4,
                             12345.678901234567, 0.0])


def test_merged_orders_key_the_torus_workload_as_python_round():
    """Every block order of the torus workload's four degrees at its cutoff
    keys as round(nu, 12); np.round differs on some."""
    fib = torus_spectrum((TWO_PI, TWO_PI), cutoff=61.5)
    for p in range(4):
        nu2, mult = a_block_eigenvalues(fib, p, GEO)
        nu = np.sqrt(np.maximum(nu2, 0.0))
        keep = nu <= 60.5
        _assert_merged_as_round(nu[keep])
        assert not np.array_equal(_bits(np.round(nu[keep], 12)), _bits(_round_keys(nu[keep])))


def test_exact_degree_matches_coexact_below():
    spec = torus_spectrum([TWO_PI, TWO_PI], cutoff=3.2)
    for ell in range(1, 3):
        assert kind_mults(spec, ell, "exact") == kind_mults(spec, ell - 1, "coexact")


def test_hodge_duality_of_coexact_multiplicities():
    spec = torus_spectrum([TWO_PI, TWO_PI], cutoff=3.2)
    f = spec.dim_f
    for ell in range(f):
        assert kind_mults(spec, ell, "coexact") == kind_mults(spec, f - ell - 1, "coexact")


def test_wedge_rank_closed_form():
    """Oracle for the exact/coexact split: the assembled rank of kappa wedge .
    on Lambda^l is binomial(f-1, l) for every nonzero kappa."""
    rng = np.random.default_rng(7)
    for f in range(1, 5):
        for _ in range(20):
            kappa = rng.normal(size=f) * (rng.random(f) < 0.6)
            if not kappa.any():
                kappa[rng.integers(f)] = 1.0
            for ell in range(f):
                rank = np.linalg.matrix_rank(_wedge_matrix(kappa, ell))
                assert rank == math.comb(f - 1, ell), (f, ell, kappa)


def test_exact_split_matches_assembled_rank():
    periods = (TWO_PI, 4.0, 7.5)
    spec = torus_spectrum(periods, cutoff=4.0)
    want: dict[tuple[int, float], int] = {}
    for k, mu2 in zip(*_lattice_points(periods, 4.0)):
        if mu2 == 0.0:
            continue
        kappa = [2.0 * math.pi * ki / L for ki, L in zip(k.tolist(), periods)]
        for ell in range(len(periods)):
            key = (ell + 1, float(f"{mu2:.9g}"))
            want[key] = want.get(key, 0) + np.linalg.matrix_rank(_wedge_matrix(kappa, ell))
    got = {(ell, float(f"{mu2:.9g}")): n for ell in range(1, len(periods) + 1)
           for mu2, n, kind in degree_rows(spec, ell) if kind == "exact"}
    assert got == want


# ------------------------------------------------------------- nu spectra --

def test_flat_plane_harmonic_block_log_branch():
    fiber = circle(1.0, cutoff=4.0)
    spec = a_spectrum(fiber, 0, GEO, nu_max=3.0)
    assert np.count_nonzero(spec.nu < 1e-12) == 1
    mode = spec.to_json_dict()["modes"][0]
    assert mode["log_branch"] and mode["mult"] == 1
    assert mode["roots"] == [0.5, 0.5]
    assert not any(m["log_branch"] for m in spec.to_json_dict()["modes"][1:])


def test_flat_plane_one_forms():
    """1-forms over the unit circle separate into orders |k-1| and |k+1|."""
    fiber = circle(1.0, cutoff=9.0)
    spec = a_spectrum(fiber, 1, GEO, nu_max=6.5)
    want = sorted([abs(k - 1) for k in range(-7, 8)] + [k + 1 for k in range(-7, 8) if k + 1 >= 0
                  for _ in ([] if abs(k) > 7 else [0])])
    # build expected multiset directly: {|k-1|} U {|k+1|} over k in Z, truncated
    expected = sorted(v for k in range(-9, 10) for v in (abs(k - 1), abs(k + 1)) if v <= 6.5
                      and abs(k) <= 8)
    got = spec.nu_multiset()
    assert got == pytest.approx(sorted(x for x in expected), abs=1e-12)


@pytest.mark.parametrize("periods", [(TWO_PI, TWO_PI), (TWO_PI, 3 * math.pi)],
                         ids=["2pi x 2pi", "2pi x 3pi"])
def test_torus_degree_one_orders_are_degree_zero_shifted_by_one(periods):
    """On T^2 the degree-1 orders are mu, mu + 1 and |mu - 1| for each
    kappa != 0, mu = sqrt(|kappa|^2 + 1/4), plus 3/2 once and 1/2 twice:
    the premise of the T^2 cone's degree-1 zeta(0)
    (`conekernel.torus_cone_zeta0`).  On 2 pi x 3 pi, kappa = (0, +-2/3)
    has mu = 5/6, and its order is |mu - 1| = 1/6, not mu - 1."""
    nu_max = 12.5
    mu2 = _lattice_points(periods, nu_max + 1.0)[1]
    mu = np.sqrt(mu2[mu2 > 0.0] + 0.25)
    want = np.sort(np.concatenate([mu, mu + 1.0, np.abs(mu - 1.0), [1.5, 0.5, 0.5]]))
    spec = a_spectrum(torus_spectrum(periods, cutoff=nu_max + 1.0), 1, GEO, nu_max=nu_max)
    got = np.repeat(spec.nu, spec.mult)
    assert got == pytest.approx(want[want <= nu_max], abs=1e-12)
    sixths = np.count_nonzero(np.abs(got - 1 / 6) <= 1e-12)
    assert sixths == (2 if periods[1] == 3 * math.pi else 0)


def test_torus_degree_one_order_zero_is_exact():
    """On 2 pi x 4 pi / sqrt 3, kappa = (0, +-sqrt(3)/2) has mu = 1, and
    its degree-1 order |mu - 1| is exactly 0, twice, with the log branch:
    the pair branch is formed from mu - 1, not by the cancelling
    sqrt(mean - disc), which gave sqrt(2.2e-16) = 1.49e-8."""
    spec = a_spectrum(torus_spectrum((TWO_PI, 4 * math.pi / math.sqrt(3)), 5), 1)
    assert spec.nu[0] == 0.0 and spec.mult[0] == 2
    assert spec.to_json_dict()["modes"][0]["log_branch"]


def test_indicial_roots_sum_to_one():
    fiber = torus_spectrum([TWO_PI, TWO_PI], cutoff=4.0)
    for p in range(0, 4):
        spec = a_spectrum(fiber, p, GEO, nu_max=3.0)
        for m in spec.to_json_dict()["modes"]:
            assert m["roots"][0] + m["roots"][1] == pytest.approx(1.0, abs=0)
            assert m["p"] == p


MERGE_FIBERS = {"circle-r1": (TWO_PI,), "circle-r1.5": (1.5 * TWO_PI,),
                "square": (TWO_PI, TWO_PI), "rect-2pi-3pi": (TWO_PI, 1.5 * TWO_PI)}


@pytest.mark.parametrize("conv", list(Convention), ids=lambda c: c.value)
@pytest.mark.parametrize("periods", MERGE_FIBERS.values(), ids=MERGE_FIBERS.keys())
def test_a_spectrum_gives_each_order_once(periods, conv):
    """Each Bessel order once, strictly increasing, and no multiplicity
    lost: each order repeated by its multiplicity gives the block orders up
    to nu_max, rounded by Python's round(nu, 12) as the zeros are computed.
    A degree whose literal block is indefinite is refused instead.  The
    cutoff is the torus workload's (t_min 1e-2), where np.round(nu, 12)
    differs from round in the last bit on 4 orders of the square torus's
    degree 0 and 12 of its degree 1."""
    fiber = torus_spectrum(periods, cutoff=61.5)
    for p in range(len(periods) + 2):
        nu2, mult = a_block_eigenvalues(fiber, p, conv)
        if nu2.min() < -1e-10:
            assert conv is LIT
            with pytest.raises(NegativeBlockEigenvalue):
                a_spectrum(fiber, p, conv)
            continue
        spec = a_spectrum(fiber, p, conv)
        assert np.all(np.diff(spec.nu) > 0), p
        block = np.repeat(np.sqrt(np.maximum(nu2, 0.0)), mult).tolist()
        want = sorted(round(nu, 12) for nu in block if nu <= spec.cutoff)
        assert np.repeat(spec.nu, spec.mult).tolist() == want, p


def test_a_nonnegative_geometric_oracle():
    for fiber in (circle(1.0, 8.0), circle(2.0, 8.0),
                  torus_spectrum([TWO_PI, TWO_PI], 6.0)):
        for p in range(fiber.dim_f + 2):
            nu2, mult = a_block_eigenvalues(fiber, p, GEO)
            assert np.all(nu2 >= -1e-10) and np.all(mult > 0)


def test_paper_literal_indefinite_block_raises():
    """The literal constants make the 1-form block indefinite over S^1.

    The dense assembly confirms the negative eigenvalue is real, so the
    spectrum builder must refuse rather than silently truncate at zero.
    """
    fiber = circle(1.0, cutoff=6.0)
    nu2, _ = a_block_eigenvalues(fiber, 1, LIT)
    assert nu2.min() < -0.5
    with pytest.raises(NegativeBlockEigenvalue):
        a_spectrum(fiber, 1, LIT, nu_max=4.0)


def test_paper_literal_scalar_shift():
    """Literal constants shift the scalar orders to sqrt(k^2 + 1)."""
    fiber = circle(1.0, cutoff=6.0)
    spec = a_spectrum(fiber, 0, LIT, nu_max=4.0)
    want = sorted([1.0] + [math.sqrt(k * k + 1) for k in range(1, 4) for _ in range(2)])
    assert spec.nu_multiset() == pytest.approx(want, abs=1e-12)


def test_completeness_survives_cutoff_doubling():
    small = a_spectrum(circle(1.0, 11.0), 1, GEO, nu_max=10.0)
    big = a_spectrum(circle(1.0, 22.0), 1, GEO, nu_max=10.0)
    assert small.nu_multiset() == pytest.approx(big.nu_multiset(), abs=1e-12)


def test_a_spectrum_requires_margin():
    fiber = circle(1.0, cutoff=5.0)
    with pytest.raises(TailNotCertified):
        a_spectrum(fiber, 0, GEO, nu_max=4.5)


def test_weyl_growth_sanity():
    fiber = circle(1.0, cutoff=21.0)
    spec = a_spectrum(fiber, 0, GEO, nu_max=20.0)
    n_modes = int(spec.mult.sum())
    n_fiber = sum(n for mu2, n, _ in degree_rows(fiber, 0) if math.sqrt(mu2) <= 20.0)
    assert n_fiber / 2 <= n_modes <= 2 * n_fiber


# ------------------------------------------------------- Gauss-Bonnet check --

def _flat_cone_even_odd(nu_max=10.0):
    fiber = circle(1.0, cutoff=nu_max + 1.5)
    s0, s1, s2 = (a_spectrum(fiber, p, GEO, nu_max=nu_max) for p in range(3))
    return [s0, s2], [s1]


def test_gauss_bonnet_flat_cone():
    even, odd = _flat_cone_even_odd()
    assert gauss_bonnet_consistency(even, odd, tol=1e-9)


def test_gauss_bonnet_detects_perturbation():
    (s0, s2), odd = _flat_cone_even_odd()
    nu = s0.nu.copy()
    nu[3] += 0.5
    bad = NuSpectrum(nu, s0.mult, s0.degree, GEO, s0.cutoff)
    assert not gauss_bonnet_consistency([bad, s2], odd)


@pytest.mark.parametrize("nu", [-0.5, math.inf, math.nan])
def test_single_nu_spectrum_refuses_bad_order(nu):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        single_nu_spectrum(nu)


def test_gauss_bonnet_needs_enough_modes():
    s = single_nu_spectrum(0.5)
    with pytest.raises(ValueError):
        gauss_bonnet_consistency([s], [s])


# ------------------------------------------------------------------- misc --

def test_shell_and_order_views_are_read_only():
    fiber = torus_spectrum([TWO_PI, TWO_PI], cutoff=4.0)
    spec = a_spectrum(fiber, 1, GEO, nu_max=3.0)
    assert len(fiber.entries) == len(fiber.mu2) and len(spec.modes) == len(spec.nu)
    with pytest.raises(ValueError):
        fiber.entries[0] = 0.0
    with pytest.raises(ValueError):
        spec.modes[0] = 0.0


def test_nu_spectrum_serialization():
    spec = a_spectrum(circle(1.0, 4.0), 0, GEO, nu_max=3.0)
    d = spec.to_json_dict()
    assert d["convention"] == "GeometricOracle"
    assert d["modes"][0]["log_branch"] is True
    assert d["modes"][0]["roots"] == [0.5, 0.5]
