"""Fiber Hodge spectra and the block operator driving the cone Bessel orders.

The model fibers are flat: circles and tori, whose Hodge spectra are known
in closed form from lattice Fourier modes.  For cone form degree p the
radial separation produces a nonnegative block operator acting on pairs of
fiber form degrees (p-1, p); its eigenvalues nu^2 set the Bessel orders and
the indicial roots 1/2 +- nu of the model problem.

Two conventions for the squared constants on the diagonal are supported:

* ``PaperLiteral``   -- (l-(f+3)/2)^2 and (l-(f+1)/2)^2 verbatim.
* ``GeometricOracle`` -- (l-(f+3)/2)^2 and (l-(f-1)/2)^2, calibrated so the
  scalar cone over the unit circle reproduces the flat-plane separation
  nu = |k| (and the harmonic pair {1, log x} at k = 0).

GeometricOracle is the default: the flat-plane oracle is unambiguous, and
under it every block is positive semidefinite, while the literal constants
produce an indefinite block already for 1-forms over the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .errors import NegativeBlockEigenvalue, TailNotCertified

NU_ZERO_TOL = 1e-9
# A pair block can lower nu below the fiber eigenvalue by at most 1.
A_SPECTRUM_MARGIN = 1.0


class Convention(str, Enum):
    PAPER_LITERAL = "PaperLiteral"
    GEOMETRIC_ORACLE = "GeometricOracle"


def _as_convention(c) -> Convention:
    if isinstance(c, Convention):
        return c
    return Convention(c)


@dataclass(frozen=True)
class FiberEntry:
    degree: int
    mu2: float
    mult: int
    kind: str  # harmonic | exact | coexact


@dataclass(frozen=True)
class FiberSpectrum:
    """Hodge spectrum of a closed flat fiber, complete for mu <= cutoff."""

    dim_f: int
    cutoff: float
    entries: tuple[FiberEntry, ...]
    periods: tuple[float, ...]

    def degree_entries(self, degree: int) -> list[FiberEntry]:
        return [e for e in self.entries if e.degree == degree]

    def betti(self) -> list[int]:
        out = [0] * (self.dim_f + 1)
        for e in self.entries:
            if e.kind == "harmonic":
                out[e.degree] += e.mult
        return out


def _sig_key(x: float, digits: int = 12) -> float:
    """Rounding to significant digits: groups eigenvalues that differ only
    by accumulated float noise, independent of their magnitude."""
    return float(f"{x:.{digits}g}")


def _wedge_matrix(kappa: Sequence[float], ell: int) -> np.ndarray:
    """Matrix of (i kappa) wedge . : Lambda^ell -> Lambda^(ell+1) over C."""
    f = len(kappa)
    rows = list(combinations(range(f), ell + 1))
    cols = list(combinations(range(f), ell))
    row_pos = {I: i for i, I in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for cj, I in enumerate(cols):
        for j in range(f):
            if j in I:
                continue
            J = tuple(sorted(I + (j,)))
            sign = (-1) ** J.index(j)
            mat[row_pos[J], cj] += 1j * kappa[j] * sign
    return mat


def _lattice_points(periods: Sequence[float], cutoff: float) -> list[tuple[tuple[int, ...], float]]:
    """Lattice modes with |kappa| <= cutoff, kappa_i = 2 pi k_i / L_i."""
    f = len(periods)
    # the slack of the mu2 test below, so points on the cutoff sphere stay
    bounds = [int(math.floor(cutoff * L / (2.0 * math.pi) * (1 + 1e-12))) for L in periods]
    pts = []
    for k in product(*(range(-b, b + 1) for b in bounds)):
        mu2 = sum((2.0 * math.pi * ki / L) ** 2 for ki, L in zip(k, periods))
        if mu2 <= cutoff * cutoff * (1 + 1e-12):
            pts.append((k, mu2))
    return pts


def torus_spectrum(periods: Sequence[float], cutoff: float) -> FiberSpectrum:
    """Hodge spectrum of a flat torus with the given periods.

    Eigenvalues are |kappa|^2 over the dual lattice; multiplicities on
    degree l scale by binomial(f, l).  The exact/coexact split is the
    closed-form rank of d on each eigenspace: for kappa != 0, kappa wedge .
    on Lambda^l has rank binomial(f-1, l), so the exact l-forms number
    binomial(f-1, l-1) per lattice point.
    """
    if not periods:
        raise ValueError("period list must be nonempty")
    if any(L <= 0 for L in periods):
        raise ValueError("periods must be positive")
    f = len(periods)
    groups: dict[float, list[tuple[int, ...]]] = {}
    for k, mu2 in _lattice_points(periods, cutoff):
        groups.setdefault(_sig_key(mu2), []).append(k)

    entries = [FiberEntry(ell, 0.0, math.comb(f, ell), "harmonic") for ell in range(f + 1)]
    for key in sorted(groups):
        if key == 0.0:
            continue
        pts = groups[key]
        mu2 = float(np.mean([sum((2.0 * math.pi * ki / L) ** 2
                                 for ki, L in zip(k, periods)) for k in pts]))
        exact = [0] + [len(pts) * math.comb(f - 1, ell) for ell in range(f)]
        for ell in range(f + 1):
            coexact = len(pts) * math.comb(f, ell) - exact[ell]
            if exact[ell]:
                entries.append(FiberEntry(ell, mu2, exact[ell], "exact"))
            if coexact:
                entries.append(FiberEntry(ell, mu2, coexact, "coexact"))
    entries.sort(key=lambda e: (e.degree, e.mu2, e.kind))
    return FiberSpectrum(f, cutoff, tuple(entries), tuple(float(L) for L in periods))


# ------------------------------------------------------------ A operator --

def a_constants(ell: int, f: int, convention) -> tuple[float, float]:
    """Diagonal constants (c1, c2) on the (l-1, l) fiber-degree slots."""
    conv = _as_convention(convention)
    c1 = ell - (f + 3) / 2.0
    if conv is Convention.PAPER_LITERAL:
        c2 = ell - (f + 1) / 2.0
    else:
        c2 = ell - (f - 1) / 2.0
    return c1, c2


@dataclass(frozen=True)
class ABlock:
    """One eigenvalue of the degree-p block operator, before taking roots."""

    nu2: float
    mult: int
    origin: str
    mu2: float


def a_block_eigenvalues(fiber: FiberSpectrum, p: int, convention) -> list[ABlock]:
    """Closed-form eigenvalues of the block operator on fiber degrees (p-1, p).

    Invariant subspaces: fiber-harmonic forms give the squared diagonal
    constants; a coexact (p-1)-eigenform phi pairs with d phi / mu into a
    symmetric 2x2 block [[mu^2+c1^2, 2(-1)^p mu], [2(-1)^p mu, mu^2+c2^2]];
    leftover exact (p-1)-forms and coexact p-forms sit in 1-d blocks on
    their own diagonal entry.  Exact p-forms are consumed by the pair
    blocks (d is an isomorphism from coexact (p-1)-forms).
    """
    f = fiber.dim_f
    if not 0 <= p <= f + 1:
        raise ValueError(f"cone degree must satisfy 0 <= p <= {f + 1}, got {p}")
    c1, c2 = a_constants(p, f, convention)
    blocks: list[ABlock] = []

    for e in fiber.degree_entries(p - 1):
        if e.kind == "harmonic":
            blocks.append(ABlock(c1 * c1, e.mult, "harmonic-eta", 0.0))
        elif e.kind == "exact":
            blocks.append(ABlock(e.mu2 + c1 * c1, e.mult, "exact-eta", e.mu2))
        else:  # coexact: 2x2 pair with its differential
            mean = e.mu2 + 0.5 * (c1 * c1 + c2 * c2)
            disc = math.sqrt((0.5 * (c1 * c1 - c2 * c2)) ** 2 + 4.0 * e.mu2)
            blocks.append(ABlock(mean - disc, e.mult, "pair-minus", e.mu2))
            blocks.append(ABlock(mean + disc, e.mult, "pair-plus", e.mu2))

    pair_mults: dict[float, int] = {}
    for e in fiber.degree_entries(p - 1):
        if e.kind == "coexact":
            key = _sig_key(e.mu2)
            pair_mults[key] = pair_mults.get(key, 0) + e.mult
    for e in fiber.degree_entries(p):
        if e.kind == "harmonic":
            blocks.append(ABlock(c2 * c2, e.mult, "harmonic-mu", 0.0))
        elif e.kind == "coexact":
            blocks.append(ABlock(e.mu2 + c2 * c2, e.mult, "coexact-mu", e.mu2))
        else:  # exact: must be the image of the coexact (p-1)-forms
            have = pair_mults.get(_sig_key(e.mu2), 0)
            if have != e.mult:
                raise ValueError(
                    f"exact degree-{p} multiplicity {e.mult} at mu2={e.mu2} does not "
                    f"match coexact degree-{p - 1} multiplicity {have}")
    blocks.sort(key=lambda blk: (blk.nu2, blk.origin))
    return blocks


@dataclass(frozen=True)
class NuMode:
    """One Bessel order nu with its indicial data for a cone form degree."""

    nu: float
    multiplicity: int
    cone_degree: int
    indicial_roots: tuple[float, float]
    origin: str
    log_branch: bool


@dataclass(frozen=True)
class NuSpectrum:
    modes: tuple[NuMode, ...]
    convention: Convention
    cutoff: float

    def nu_multiset(self) -> list[float]:
        out: list[float] = []
        for m in self.modes:
            out.extend([m.nu] * m.multiplicity)
        return sorted(out)

    def to_json_dict(self) -> dict:
        return {
            "convention": self.convention.value,
            "cutoff": None if math.isinf(self.cutoff) else self.cutoff,
            "modes": [
                {
                    "nu": m.nu,
                    "mult": m.multiplicity,
                    "p": m.cone_degree,
                    "roots": [m.indicial_roots[0], m.indicial_roots[1]],
                    "log_branch": m.log_branch,
                }
                for m in self.modes
            ],
        }


def a_spectrum(fiber: FiberSpectrum, p: int, convention=Convention.GEOMETRIC_ORACLE,
               nu_max: float | None = None) -> NuSpectrum:
    """Nu-spectrum of the degree-p block operator, complete below nu_max.

    Raises NegativeBlockEigenvalue when a block eigenvalue is genuinely
    negative: the operator is nonnegative by construction, so this can only
    mean a convention or assembly error.
    """
    conv = _as_convention(convention)
    if nu_max is None:
        nu_max = fiber.cutoff - A_SPECTRUM_MARGIN
    if nu_max > fiber.cutoff - A_SPECTRUM_MARGIN + 1e-12:
        raise TailNotCertified(
            f"fiber cutoff {fiber.cutoff} cannot certify nu-completeness to {nu_max}; "
            f"need cutoff >= nu_max + {A_SPECTRUM_MARGIN}")
    blocks = a_block_eigenvalues(fiber, p, conv)
    scale = max((abs(b.nu2) for b in blocks), default=1.0)
    modes = []
    for blk in blocks:
        nu2 = blk.nu2
        if nu2 < -1e-10 * max(1.0, scale):
            raise NegativeBlockEigenvalue(
                f"block eigenvalue {nu2} < 0 for p={p}, origin={blk.origin}, "
                f"mu2={blk.mu2}, convention={conv.value}")
        nu = math.sqrt(max(nu2, 0.0))
        if nu > nu_max:
            continue
        modes.append(NuMode(
            nu=nu,
            multiplicity=blk.mult,
            cone_degree=p,
            indicial_roots=(0.5 - nu, 0.5 + nu),
            origin=blk.origin,
            log_branch=nu < NU_ZERO_TOL,
        ))
    modes.sort(key=lambda m: (m.nu, m.cone_degree, m.origin))
    return NuSpectrum(tuple(modes), conv, float(nu_max))


def single_nu_spectrum(nu: float, p: int = 0, mult: int = 1,
                       convention=Convention.GEOMETRIC_ORACLE) -> NuSpectrum:
    """Toy spectrum with one radial mode; the full spectrum of one l_nu."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    mode = NuMode(nu, mult, p, (0.5 - nu, 0.5 + nu), "single", nu < NU_ZERO_TOL)
    return NuSpectrum((mode,), _as_convention(convention), math.inf)


# ------------------------------------------------------------ dense oracle --

def dense_a_eigenvalues(periods: Sequence[float], p: int, convention,
                        n_modes: int = 64) -> tuple[np.ndarray, float]:
    """Eigenvalues of the block operator assembled as an explicit matrix.

    The basis is e_k dz_I over the n_modes lattice points of smallest
    |kappa|^2 (tie groups kept whole, so the spanned subspace is invariant
    and truncation is exact).  Returns the sorted eigenvalues and the
    largest |kappa| included, for rebuilding the matching fiber spectrum.
    """
    f = len(periods)
    conv = _as_convention(convention)
    c1, c2 = a_constants(p, f, conv)
    cut = 4.0 * math.pi * n_modes ** (1.0 / f) / min(periods)
    pts = _lattice_points(periods, cutoff=cut)
    while len(pts) < n_modes:
        cut *= 2.0
        pts = _lattice_points(periods, cutoff=cut)
    pts.sort(key=lambda km: (km[1], km[0]))
    r2 = pts[n_modes - 1][1]
    selected = [km for km in pts if km[1] <= r2 * (1 + 1e-12) or km[1] == 0.0]

    eigs: list[float] = []
    for k, mu2 in selected:
        kappa = [2.0 * math.pi * ki / L for ki, L in zip(k, periods)]
        n_eta = math.comb(f, p - 1) if 0 <= p - 1 <= f else 0
        n_mu = math.comb(f, p) if 0 <= p <= f else 0
        n = n_eta + n_mu
        if n == 0:
            continue
        mat = np.zeros((n, n), dtype=complex)
        if n_eta:
            mat[:n_eta, :n_eta] = (mu2 + c1 * c1) * np.eye(n_eta)
        if n_mu:
            mat[n_eta:, n_eta:] = (mu2 + c2 * c2) * np.eye(n_mu)
        if n_eta and n_mu:
            d = 2.0 * (-1) ** p * _wedge_matrix(kappa, p - 1)
            mat[n_eta:, :n_eta] = d
            mat[:n_eta, n_eta:] = d.conj().T
        eigs.extend(np.linalg.eigvalsh(mat).tolist())
    return np.sort(np.asarray(eigs)), math.sqrt(max(km[1] for km in selected))


# ----------------------------------------------------- Gauss-Bonnet check --

def gauss_bonnet_consistency(spec_plus: NuSpectrum, spec_minus: NuSpectrum,
                             tol: float = 1e-9) -> bool:
    """Whether a common first-order spectrum explains both nu-spectra.

    A self-adjoint P with (P +- 1/2)^2 equal to the even/odd block
    operators forces every even-degree nu+ to pair with an odd-degree nu-
    such that |nu+ - nu-| = 1 or nu+ + nu- = 1.  The check runs a bipartite
    matching on the two truncated multisets in both directions, leaving a
    one-unit guard band at the cutoff.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    plus = spec_plus.nu_multiset()
    minus = spec_minus.nu_multiset()
    if len(plus) + len(minus) < 10:
        raise ValueError("fewer than 10 modes below cutoff: matching unattempted")
    window = min(spec_plus.cutoff, spec_minus.cutoff) - 1.0 - 2 * tol

    def compatible(a: float, b: float) -> bool:
        return abs(abs(a - b) - 1.0) <= tol or abs(a + b - 1.0) <= tol

    def saturates(left: list[float], right: list[float]) -> bool:
        if not left:
            return True
        rows, cols = [], []
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                if compatible(a, b):
                    rows.append(i)
                    cols.append(j)
        graph = csr_matrix((np.ones(len(rows)), (rows, cols)),
                           shape=(len(left), len(right)))
        match = maximum_bipartite_matching(graph, perm_type="column")
        return bool(np.all(match >= 0))

    lo_plus = [a for a in plus if a <= window]
    hi_minus = [b for b in minus if b <= window + 1.0 + 2 * tol]
    lo_minus = [b for b in minus if b <= window]
    hi_plus = [a for a in plus if a <= window + 1.0 + 2 * tol]
    return saturates(lo_plus, hi_minus) and saturates(lo_minus, hi_plus)
