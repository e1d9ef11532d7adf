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
    rows = [(0.0, spec.betti()[degree], "harmonic")]
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


def test_torus_harmonic_multiplicities_are_binomial():
    spec = torus_spectrum([TWO_PI, 2 * TWO_PI], cutoff=1.2)
    assert spec.betti() == [1, 2, 1]


def test_torus_rejects_empty_periods():
    with pytest.raises(ValueError):
        torus_spectrum([], cutoff=1.0)


def test_shell_means_are_per_shell_np_mean():
    """Each shell's mu2 is, bit for bit, np.mean of its lattice points' |kappa|^2
    in lattice order, on square, rectangular and cubic lattices; among the
    shells of 8 points or more are some where numpy's pairwise sum and a
    running sum give different means."""
    pairwise_differs = 0
    for periods, cutoff in (((TWO_PI, TWO_PI), 60.0), ((TWO_PI, 3.7), 40.0),
                            ((TWO_PI, TWO_PI, TWO_PI), 14.0)):
        _, mu2 = _lattice_points(periods, cutoff)
        keys = np.array([float(f"{v:.12g}") for v in mu2.tolist()])
        order = np.argsort(keys, kind="stable")
        shell_keys, starts = np.unique(keys[order], return_index=True)
        shells = [s for k, s in zip(shell_keys, np.split(mu2[order], starts[1:])) if k != 0.0]
        spec = torus_spectrum(periods, cutoff)
        assert spec.points.tolist() == [len(s) for s in shells]
        assert spec.mu2.tolist() == [np.mean(s) for s in shells]
        pairwise_differs += sum(len(s) >= 8 and functools.reduce(operator.add, s) / len(s)
                                != np.mean(s) for s in shells)
    assert pairwise_differs > 0


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


def test_indicial_roots_sum_to_one():
    fiber = torus_spectrum([TWO_PI, TWO_PI], cutoff=4.0)
    for p in range(0, 4):
        spec = a_spectrum(fiber, p, GEO, nu_max=3.0)
        for m in spec.to_json_dict()["modes"]:
            assert m["roots"][0] + m["roots"][1] == pytest.approx(1.0, abs=0)
            assert m["p"] == p


def test_a_nonnegative_geometric_oracle():
    for fiber in (circle(1.0, 8.0), circle(2.0, 8.0),
                  torus_spectrum([TWO_PI, TWO_PI], 6.0)):
        for p in range(fiber.dim_f + 2):
            nu2, mult, _ = a_block_eigenvalues(fiber, p, GEO)
            assert np.all(nu2 >= -1e-10) and np.all(mult > 0)


def test_paper_literal_indefinite_block_raises():
    """The literal constants make the 1-form block indefinite over S^1.

    The dense assembly confirms the negative eigenvalue is real, so the
    spectrum builder must refuse rather than silently truncate at zero.
    """
    fiber = circle(1.0, cutoff=6.0)
    nu2, _, _ = a_block_eigenvalues(fiber, 1, LIT)
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
