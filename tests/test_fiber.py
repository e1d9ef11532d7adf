"""Fiber spectra and the block operator, checked against a dense assembly.

The dense oracle builds the operator as an explicit Hermitian matrix on a
truncated lattice basis and diagonalizes it numerically; the closed-form
block route must reproduce its spectrum to 1e-9.
"""

import math

import numpy as np
import pytest

from torsionlab.errors import NegativeBlockEigenvalue, TailNotCertified
from torsionlab.fiber import (
    Convention,
    _lattice_points,
    _wedge_matrix,
    a_block_eigenvalues,
    a_spectrum,
    dense_a_eigenvalues,
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


# ------------------------------------------------------------ fiber spectra --

def test_circle_unit_function_spectrum():
    spec = circle(1.0, cutoff=3.5)
    vals = sorted(v for e in spec.degree_entries(0) for v in [e.mu2] * e.mult)
    assert vals == pytest.approx([0, 1, 1, 4, 4, 9, 9])


def test_circle_radius_two_first_eigenvalue():
    spec = circle(2.0, cutoff=2.0)
    nonzero = sorted(e.mu2 for e in spec.degree_entries(0) if e.mu2 > 0)
    assert nonzero[0] == pytest.approx(0.25)


def test_circle_degree_one_mirrors_degree_zero():
    spec = circle(1.7, cutoff=5.0)
    d0 = sorted((e.mu2, e.mult) for e in spec.degree_entries(0))
    d1 = sorted((e.mu2, e.mult) for e in spec.degree_entries(1))
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
    key = lambda e: (e.degree, round(e.mu2, 9), e.kind, e.mult)
    assert sorted(map(key, t.entries)) == sorted(want)


def test_torus_degree_one_split_at_first_eigenvalue():
    spec = torus_spectrum([TWO_PI, TWO_PI], cutoff=1.5)
    at_one = [e for e in spec.degree_entries(1) if abs(e.mu2 - 1.0) < 1e-12]
    mults = {e.kind: e.mult for e in at_one}
    assert mults == {"exact": 4, "coexact": 4}


def test_torus_harmonic_multiplicities_are_binomial():
    spec = torus_spectrum([TWO_PI, 2 * TWO_PI], cutoff=1.2)
    assert spec.betti() == [1, 2, 1]


def test_torus_rejects_empty_periods():
    with pytest.raises(ValueError):
        torus_spectrum([], cutoff=1.0)


def test_exact_degree_matches_coexact_below():
    spec = torus_spectrum([TWO_PI, TWO_PI], cutoff=3.2)
    for ell in range(1, 3):
        ex = {round(e.mu2, 9): e.mult for e in spec.degree_entries(ell) if e.kind == "exact"}
        co = {round(e.mu2, 9): e.mult for e in spec.degree_entries(ell - 1) if e.kind == "coexact"}
        assert ex == co


def test_hodge_duality_of_coexact_multiplicities():
    spec = torus_spectrum([TWO_PI, TWO_PI], cutoff=3.2)
    f = spec.dim_f
    for ell in range(f):
        co = {round(e.mu2, 9): e.mult for e in spec.degree_entries(ell) if e.kind == "coexact"}
        dual = {round(e.mu2, 9): e.mult
                for e in spec.degree_entries(f - ell - 1) if e.kind == "coexact"}
        assert co == dual


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
    for k, mu2 in _lattice_points(periods, 4.0):
        if mu2 == 0.0:
            continue
        kappa = [2.0 * math.pi * ki / L for ki, L in zip(k, periods)]
        for ell in range(len(periods)):
            key = (ell + 1, float(f"{mu2:.9g}"))
            want[key] = want.get(key, 0) + np.linalg.matrix_rank(_wedge_matrix(kappa, ell))
    got = {(e.degree, float(f"{e.mu2:.9g}")): e.mult for e in spec.entries if e.kind == "exact"}
    assert got == want


# ------------------------------------------------------------- nu spectra --

def test_flat_plane_scalar_separation():
    """Scalar cone over the unit circle: Bessel orders are exactly |k|."""
    fiber = circle(1.0, cutoff=9.0)
    spec = a_spectrum(fiber, 0, GEO, nu_max=7.5)
    want = [0.0] + [float(k) for k in range(1, 8) for _ in range(2)]
    assert spec.nu_multiset() == pytest.approx(want, abs=1e-12)


def test_flat_plane_harmonic_block_log_branch():
    fiber = circle(1.0, cutoff=4.0)
    spec = a_spectrum(fiber, 0, GEO, nu_max=3.0)
    zero_modes = [m for m in spec.modes if m.nu < 1e-12]
    assert len(zero_modes) == 1
    mode = zero_modes[0]
    assert mode.log_branch
    assert mode.indicial_roots == (0.5, 0.5)


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
        for m in spec.modes:
            assert m.indicial_roots[0] + m.indicial_roots[1] == pytest.approx(1.0, abs=0)


def test_a_nonnegative_geometric_oracle():
    for fiber in (circle(1.0, 8.0), circle(2.0, 8.0),
                  torus_spectrum([TWO_PI, TWO_PI], 6.0)):
        for p in range(fiber.dim_f + 2):
            for blk in a_block_eigenvalues(fiber, p, GEO):
                assert blk.nu2 >= -1e-10


def test_paper_literal_indefinite_block_raises():
    """The literal constants make the 1-form block indefinite over S^1.

    The dense assembly confirms the negative eigenvalue is real, so the
    spectrum builder must refuse rather than silently truncate at zero.
    """
    fiber = circle(1.0, cutoff=6.0)
    blocks = a_block_eigenvalues(fiber, 1, LIT)
    assert min(b.nu2 for b in blocks) < -0.5
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
    n_modes = sum(m.multiplicity for m in spec.modes)
    n_fiber = sum(e.mult for e in fiber.degree_entries(0) if math.sqrt(e.mu2) <= 20.0)
    assert n_fiber / 2 <= n_modes <= 2 * n_fiber


# ------------------------------------------------------------ dense oracle --

FIBERS = [
    ((TWO_PI,), "S1(1)"),
    ((2 * TWO_PI,), "S1(2)"),
    ((TWO_PI, TWO_PI), "T2"),
]


@pytest.mark.parametrize("periods,label", FIBERS, ids=[f[1] for f in FIBERS])
@pytest.mark.parametrize("convention", [GEO, LIT], ids=["geo", "lit"])
def test_closed_form_blocks_match_dense_assembly(periods, label, convention):
    f = len(periods)
    for p in range(f + 2):
        dense, kappa_max = dense_a_eigenvalues(periods, p, convention, n_modes=64)
        fiber = torus_spectrum(periods, cutoff=kappa_max * (1 + 1e-12))
        closed = sorted(b.nu2 for b in a_block_eigenvalues(fiber, p, convention)
                        for _ in range(b.mult))
        assert len(closed) == len(dense)
        assert np.max(np.abs(np.asarray(closed) - dense)) < 1e-9


@pytest.mark.parametrize("periods,label", FIBERS, ids=[f[1] for f in FIBERS])
def test_dense_truncation_convergence(periods, label):
    for p in range(len(periods) + 2):
        small, _ = dense_a_eigenvalues(periods, p, GEO, n_modes=64)
        big, _ = dense_a_eigenvalues(periods, p, GEO, n_modes=128)
        for e in small:
            assert np.min(np.abs(big - e)) < 1e-10


# ------------------------------------------------------- Gauss-Bonnet check --

def _flat_cone_even_odd(nu_max=10.0):
    fiber = circle(1.0, cutoff=nu_max + 1.5)
    s0 = a_spectrum(fiber, 0, GEO, nu_max=nu_max)
    s1 = a_spectrum(fiber, 1, GEO, nu_max=nu_max)
    s2 = a_spectrum(fiber, 2, GEO, nu_max=nu_max)
    from torsionlab.fiber import NuSpectrum
    even = NuSpectrum(tuple(sorted(s0.modes + s2.modes, key=lambda m: m.nu)),
                      GEO, nu_max)
    return even, s1


def test_gauss_bonnet_flat_cone():
    even, odd = _flat_cone_even_odd()
    assert gauss_bonnet_consistency(even, odd, tol=1e-9)


def test_gauss_bonnet_detects_perturbation():
    from torsionlab.fiber import NuMode, NuSpectrum
    even, odd = _flat_cone_even_odd()
    bad = list(even.modes)
    m = bad[3]
    bad[3] = NuMode(m.nu + 0.5, m.multiplicity, m.cone_degree,
                    m.indicial_roots, m.origin, m.log_branch)
    assert not gauss_bonnet_consistency(NuSpectrum(tuple(bad), GEO, even.cutoff), odd)


def test_gauss_bonnet_needs_enough_modes():
    s = single_nu_spectrum(0.5)
    with pytest.raises(ValueError):
        gauss_bonnet_consistency(s, s)


# ------------------------------------------------------------------- misc --

def test_nu_spectrum_serialization():
    spec = a_spectrum(circle(1.0, 4.0), 0, GEO, nu_max=3.0)
    d = spec.to_json_dict()
    assert d["convention"] == "GeometricOracle"
    assert d["modes"][0]["log_branch"] is True
    assert d["modes"][0]["roots"] == [0.5, 0.5]
