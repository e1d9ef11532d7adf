"""Fiber Hodge spectra and the block operator driving the cone Bessel orders.

The model fibers are flat: circles and tori, whose Hodge spectra are known
in closed form from lattice Fourier modes.  A fiber spectrum is held as
lattice shells, arrays of the nonzero eigenvalues |kappa|^2 and of the
lattice points on each; the harmonic, exact and coexact multiplicities of
every form degree are binomial multiples of those counts.  For cone form
degree p the radial separation produces a nonnegative block operator acting
on pairs of fiber form degrees (p-1, p).  Its eigenvalues nu^2, computed in
closed form as arrays over the shells, set the Bessel orders and the
indicial roots 1/2 +- nu of the model problem.

One numpy rule each decides when two spectral values are one: |kappa|^2
within 1e-12 relative are one shell (`_shells`), and Bessel orders equal
under round(v, 12) are one (`_merged_orders`).

Two conventions for the squared constants on the diagonal are supported:

* ``PaperLiteral``   -- (l-(f+3)/2)^2 and (l-(f+1)/2)^2 verbatim.
* ``GeometricOracle`` -- (l-(f+3)/2)^2 and (l-(f-1)/2)^2, calibrated so the
  scalar cone over the unit circle reproduces the flat-plane separation
  nu = |k| (and the harmonic pair {1, log x} at k = 0).

GeometricOracle is the default and the only operator the pipeline's
`trace`, `fit`, `zeta` and `torsion` run: the flat-plane oracle is
unambiguous, and under it every block is positive semidefinite, while the
literal constants shift the scalar orders over the unit circle to
sqrt(k^2+1) and produce an indefinite block already for 1-forms over the
circle.  PaperLiteral stays for `spectrum --convention paper-literal` and
for the `gauss_bonnet` and `convention_comparison` oracle rows, which show
these findings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import NegativeBlockEigenvalue, TailNotCertified

NU_ZERO_TOL = 1e-9
# A pair block can lower nu below the fiber eigenvalue by at most 1.
A_SPECTRUM_MARGIN = 1.0


class Convention(str, Enum):
    PAPER_LITERAL = "PaperLiteral"
    GEOMETRIC_ORACLE = "GeometricOracle"


def _comb(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class FiberSpectrum:
    """Hodge spectrum of a closed flat fiber, complete for mu <= cutoff.

    `mu2` holds the nonzero eigenvalues |kappa|^2 in increasing order, one
    per lattice shell, and `points` the number of lattice points on each
    shell.  For kappa != 0, kappa wedge . on Lambda^l has rank
    binomial(f-1, l), so a shell carries points binomial(f-1, l-1) exact
    and points binomial(f-1, l) coexact l-forms; the harmonic l-forms are
    the binomial(f, l) constant ones.
    """

    dim_f: int
    cutoff: float
    mu2: np.ndarray
    points: np.ndarray

    @property
    def entries(self) -> np.ndarray:
        # the shells, read-only: perfbench/layers.py counts them by len()
        return _read_only(self.mu2)

    def exact(self, degree: int) -> np.ndarray:
        """Multiplicity of the exact degree-forms on each shell."""
        return self.points * _comb(self.dim_f - 1, degree - 1)

    def coexact(self, degree: int) -> np.ndarray:
        """Multiplicity of the coexact degree-forms on each shell."""
        return self.points * _comb(self.dim_f - 1, degree)


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


def _lattice_points(periods: Sequence[float], cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Lattice modes k with |kappa| <= cutoff, kappa_i = 2 pi k_i / L_i, in
    lexicographic order: a (points, f) integer array and their |kappa|^2."""
    # the slack of the mu2 test below, so points on the cutoff sphere stay
    bounds = [int(math.floor(cutoff * L / (2.0 * math.pi) * (1 + 1e-12))) for L in periods]
    squares = [(2.0 * math.pi * np.arange(-b, b + 1) / L) ** 2 for b, L in zip(bounds, periods)]
    mu2 = reduce(np.add.outer, squares)
    keep = mu2 <= cutoff * cutoff * (1 + 1e-12)
    return np.argwhere(keep) - bounds, mu2[keep]


def _shells(mu2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shells of the values mu2, in increasing order: each shell's mean
    over its values in the order of mu2, and its size.  Sorted neighbours
    more than 1e-12 apart relative start a new shell, so values that
    differ only by float noise are one shell, whatever their magnitude."""
    by_value = np.argsort(mu2)
    srt = mu2[by_value]
    first = np.diff(srt, prepend=-np.inf) > 1e-12 * srt
    shell = np.empty(len(mu2), dtype=np.intp)
    shell[by_value] = np.cumsum(first) - 1
    # stable, so each shell keeps the order of mu2 and mean(axis=1) over one
    # row per shell of each size is np.mean of that shell alone, bit for
    # bit; the sizes come from a set, as a bare np.unique imports numpy.ma
    grouped = mu2[np.argsort(shell, kind="stable")]
    starts = np.flatnonzero(first)
    points = np.diff(starts, append=len(mu2))
    mean = np.empty(len(starts))
    for size in sorted(set(points.tolist())):
        sel = points == size
        mean[sel] = grouped[starts[sel][:, None] + np.arange(size)].mean(axis=1)
    return mean, points


def torus_spectrum(periods: Sequence[float], cutoff: float) -> FiberSpectrum:
    """Hodge spectrum of a flat torus with the given periods.

    Eigenvalues are |kappa|^2 over the dual lattice.  Lattice points whose
    |kappa|^2 lie within 1e-12 relative of each other form one shell
    (`_shells`), whose mu2 is their mean in lattice order.
    """
    if not periods:
        raise ValueError("period list must be nonempty")
    if any(L <= 0 for L in periods):
        raise ValueError("periods must be positive")
    _, mu2 = _lattice_points(periods, cutoff)
    mean, points = _shells(mu2)
    nonzero = mean != 0.0
    return FiberSpectrum(len(periods), cutoff, mean[nonzero], points[nonzero])


# ------------------------------------------------------------ A operator --

def a_constants(ell: int, f: int, convention) -> tuple[float, float]:
    """Diagonal constants (c1, c2) on the (l-1, l) fiber-degree slots."""
    literal = Convention(convention) is Convention.PAPER_LITERAL
    return ell - (f + 3) / 2.0, ell - (f + 1 if literal else f - 1) / 2.0


def a_block_eigenvalues(fiber: FiberSpectrum, p: int,
                        convention) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenvalues of the block operator on fiber degrees (p-1, p),
    as arrays (nu2, mult), unsorted.

    Invariant subspaces: fiber-harmonic forms give the squared diagonal
    constants; a coexact (p-1)-eigenform phi pairs with d phi / mu into a
    symmetric 2x2 block [[mu^2+c1^2, 2(-1)^p mu], [2(-1)^p mu, mu^2+c2^2]];
    leftover exact (p-1)-forms and coexact p-forms sit in 1-d blocks on
    their own diagonal entry.  Exact p-forms are consumed by the pair
    blocks: d maps the coexact (p-1)-forms of a shell onto them.
    """
    f = fiber.dim_f
    if not 0 <= p <= f + 1:
        raise ValueError(f"cone degree must satisfy 0 <= p <= {f + 1}, got {p}")
    c1, c2 = a_constants(p, f, convention)
    mu2 = fiber.mu2
    if c2 - c1 == 2.0:  # GeometricOracle
        # with c2 = c1 + 2 the pair branches mean -+ disc are (x -+ 1)^2,
        # x^2 = mu^2 + ((c1 + c2)/2)^2: squared from x - 1, an order that is
        # exactly 0 stays 0, where mean - disc cancels to a rounding
        # (sqrt(2.2e-16) at |kappa|^2 = 3/4 on T^2)
        x = np.sqrt(mu2 + (0.5 * (c1 + c2)) ** 2)
        lower, upper = (x - 1.0) ** 2, (x + 1.0) ** 2
    else:
        mean = mu2 + 0.5 * (c1 * c1 + c2 * c2)
        disc = np.sqrt((0.5 * (c1 * c1 - c2 * c2)) ** 2 + 4.0 * mu2)
        lower, upper = mean - disc, mean + disc
    pairs = fiber.coexact(p - 1)
    families = [  # (nu2, mult)
        (mu2 + c2 * c2, fiber.coexact(p)),                    # coexact p-forms
        (mu2 + c1 * c1, fiber.exact(p - 1)),                  # exact (p-1)-forms
        (np.array([c1 * c1]), np.array([_comb(f, p - 1)])),   # harmonic (p-1)-forms
        (np.array([c2 * c2]), np.array([_comb(f, p)])),       # harmonic p-forms
        (lower, pairs),                                       # pair branches
        (upper, pairs),
    ]
    nu2 = np.concatenate([v for v, _ in families])
    mult = np.concatenate([m for _, m in families])
    keep = mult > 0
    return nu2[keep], mult[keep]


# 1e12 = hi + lo, each of at most 26 significant bits, for Dekker's product
_E12_HI, _E12_LO = 1e12 - 4096.0, 4096.0


def _round12(x: np.ndarray) -> np.ndarray:
    """Python's round(v, 12) of each v in x, bit for bit.

    round takes the exact v * 10^12 to an integer N, half to even, and
    reads N / 10^12 back as the nearest float.  Dekker's product, with
    Veltkamp's split of x, gives v * 10^12 exactly as p + e, p the rounded
    product: N is rint(p), except that the sign of e settles a
    representable half-integer p.  N < 2^53 is exact, so one division
    rounds N / 10^12 once.  Where p >= 2^53, the key is v itself.
    """
    p = x * 1e12
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    lo = x - hi
    e = lo * _E12_LO - (((p - hi * _E12_HI) - lo * _E12_HI) - hi * _E12_LO)
    n = np.rint(p)
    tie = (np.abs(p - np.trunc(p)) == 0.5) & (e != 0.0)
    n[tie] = np.copysign(np.floor(p[tie]) + (e[tie] > 0.0), p[tie])
    return np.where(np.abs(p) < 2.0 ** 53, n / 1e12, x)


def _merged_orders(values: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strictly increasing values with summed multiplicities: values equal
    under Python's round(v, 12) (`_round12`) are one.  This merges the
    Bessel orders, whose zeros are computed at the merged order.
    """
    orders, inverse = np.unique(_round12(values), return_inverse=True)
    return orders, np.bincount(inverse, weights=mult, minlength=len(orders)).astype(mult.dtype)


@dataclass(frozen=True, eq=False)
class NuSpectrum:
    """Bessel orders `nu` with multiplicities `mult` of cone form degree
    `degree`, complete below `cutoff`, each order once and increasing (one
    built by hand may repeat an order).  Each order has the indicial roots
    1/2 -+ nu; at nu = 0 they coincide and the solutions take the log branch."""

    nu: np.ndarray
    mult: np.ndarray
    degree: int
    convention: Convention
    cutoff: float

    @property
    def modes(self) -> np.ndarray:
        # the orders, read-only: perfbench/layers.py counts them by len()
        return _read_only(self.nu)

    def nu_multiset(self) -> list[float]:
        return np.sort(np.repeat(self.nu, self.mult)).tolist()

    def to_json_dict(self) -> dict:
        return {
            "convention": self.convention.value,
            "cutoff": None if math.isinf(self.cutoff) else self.cutoff,
            "modes": [
                {"nu": nu, "mult": mult, "p": self.degree, "roots": [0.5 - nu, 0.5 + nu],
                 "log_branch": nu < NU_ZERO_TOL}
                for nu, mult in zip(self.nu.tolist(), self.mult.tolist())
            ],
        }


def a_spectrum(fiber: FiberSpectrum, p: int, convention=Convention.GEOMETRIC_ORACLE,
               nu_max: float | None = None) -> NuSpectrum:
    """Nu-spectrum of the degree-p block operator, complete below nu_max:
    each Bessel order once, increasing, with its summed multiplicity.

    Raises NegativeBlockEigenvalue when a block eigenvalue is genuinely
    negative: the operator is nonnegative by construction, so this can only
    mean a convention or assembly error.
    """
    conv = Convention(convention)
    if nu_max is None:
        nu_max = fiber.cutoff - A_SPECTRUM_MARGIN
    if nu_max > fiber.cutoff - A_SPECTRUM_MARGIN + 1e-12:
        raise TailNotCertified(
            f"fiber cutoff {fiber.cutoff} cannot certify nu-completeness to {nu_max}; "
            f"need cutoff >= nu_max + {A_SPECTRUM_MARGIN}")
    nu2, mult = a_block_eigenvalues(fiber, p, conv)
    lowest = float(np.min(nu2, initial=0.0))
    if lowest < -1e-10 * np.max(np.abs(nu2), initial=1.0):
        raise NegativeBlockEigenvalue(
            f"block eigenvalue {lowest} < 0 for p={p}, convention={conv.value}")
    nu = np.sqrt(np.maximum(nu2, 0.0))
    keep = nu <= nu_max
    return NuSpectrum(*_merged_orders(nu[keep], mult[keep]), p, conv, float(nu_max))


def frac_radius(radius: float) -> float:
    """a = frac(r) of the circle of radius r, as the cone over it sees it:
    its degree-1 Bessel orders |k/r -+ 1| (`a_block_eigenvalues`) are
    (n + a)/r and (n + 1 - a)/r, n >= 0.  An r within 1e-12 relative of an
    integer takes a = 0, as the orders do: 2 pi r / 2 pi leaves such a
    residue at r = 11, and its least order is then exactly 0."""
    a = radius % 1.0
    return 0.0 if min(a, 1.0 - a) <= 1e-12 * radius else a


def single_nu_spectrum(nu: float) -> NuSpectrum:
    """Toy spectrum with one radial mode in degree 0; the full spectrum of
    one l_nu."""
    if not 0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and nonnegative, got {nu!r}")
    return NuSpectrum(*_merged_orders(np.array([float(nu)]), np.array([1])), 0,
                      Convention.GEOMETRIC_ORACLE, math.inf)


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
    c1, c2 = a_constants(p, f, convention)
    cut = 4.0 * math.pi * n_modes ** (1.0 / f) / min(periods)
    k, mu2 = _lattice_points(periods, cutoff=cut)
    while len(mu2) < n_modes:
        cut *= 2.0
        k, mu2 = _lattice_points(periods, cutoff=cut)
    order = np.lexsort((*k.T[::-1], mu2))
    k, mu2 = k[order], mu2[order]
    keep = (mu2 <= mu2[n_modes - 1] * (1 + 1e-12)) | (mu2 == 0.0)
    n_eta, n_mu = _comb(f, p - 1), _comb(f, p)
    n = n_eta + n_mu

    eigs: list[float] = []
    for ki, m2 in zip(k[keep], mu2[keep].tolist()):
        mat = np.zeros((n, n), dtype=complex)
        mat[:n_eta, :n_eta] = (m2 + c1 * c1) * np.eye(n_eta)
        mat[n_eta:, n_eta:] = (m2 + c2 * c2) * np.eye(n_mu)
        if n_eta and n_mu:
            kappa = [2.0 * math.pi * kj / L for kj, L in zip(ki.tolist(), periods)]
            d = 2.0 * (-1) ** p * _wedge_matrix(kappa, p - 1)
            mat[n_eta:, :n_eta] = d
            mat[:n_eta, n_eta:] = d.conj().T
        eigs.extend(np.linalg.eigvalsh(mat).tolist())
    return np.sort(np.asarray(eigs)), math.sqrt(mu2[keep].max())


# ----------------------------------------------------- Gauss-Bonnet check --

def gauss_bonnet_consistency(even: Sequence[NuSpectrum], odd: Sequence[NuSpectrum],
                             tol: float = 1e-9) -> bool:
    """Whether a common first-order spectrum explains the nu-spectra of the
    even and of the odd cone degrees.

    A self-adjoint P with (P +- 1/2)^2 equal to the even/odd block
    operators forces every even-degree nu+ to pair with an odd-degree nu-
    such that |nu+ - nu-| = 1 or nu+ + nu- = 1.  The check runs a bipartite
    matching on the two truncated multisets in both directions, leaving a
    one-unit guard band at the cutoff.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    plus = sorted(nu for spec in even for nu in spec.nu_multiset())
    minus = sorted(nu for spec in odd for nu in spec.nu_multiset())
    if len(plus) + len(minus) < 10:
        raise ValueError("fewer than 10 modes below cutoff: matching unattempted")
    window = min(spec.cutoff for spec in (*even, *odd)) - 1.0 - 2 * tol

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
