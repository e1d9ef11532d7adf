"""Model heat kernel, certified heat traces, and expansion-coefficient fits.

The exactly solvable radial problem has the Friedrichs heat kernel

    (1/2t) (x xt)^(1/2) I_nu(x xt / 2t) exp(-(x^2 + xt^2)/4t),

computed here in the scaled-Bessel form so nothing overflows at small t.
Truncating the cone at x = 1 with a Dirichlet condition turns each Bessel
order nu into the eigenvalue family j_{nu,k}^2, and the heat trace becomes
a plain double sum over (nu, k).  Every trace sample carries a certified
tail bound obtained from a Weyl envelope N(s) <= C s^q with C read off the
computed spectrum, plus a bound on the rounding of the sum itself, which
runs as blocked array passes over the time grid.

Least-squares extraction of expansion coefficients works in the basis
{t^a, t^a log t} dictated by an ExpansionTemplate, with rows weighted by
t^(-a_min) so the leading term carries comparable influence across the
sample range.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .bessel import bessel_i, bessel_j_zeros_batch
from .errors import (
    IllConditioned,
    InsufficientSamples,
    MismatchedGrids,
    TailNotCertified,
)
from .fiber import FiberSpectrum, NuSpectrum
from .phg import ExpansionTemplate

TAIL_RELATIVE_LIMIT = 1e-10
PRECHECK_RELATIVE_LIMIT = 1e-14
CONDITION_LIMIT = 1e12
# float64 elements per block of the trace sum (256 KiB): larger blocks
# raise peak memory and run no faster
TRACE_BLOCK = 1 << 15
UNIT_ROUNDOFF = 2.0 ** -53
# exp(-x) is exactly 0.0 past x = 745.2, and so is E1(x) <= e^{-x}/x: no
# sum of exp(-t lam) or E1(t lam) reads an eigenvalue above EXP_REACH / t
EXP_REACH = 746.0


def gammaincc(a: float, x) -> np.ndarray:
    """Regularised upper incomplete gamma Q(a, x) for a in {1/2, 1, 3/2, ...}
    and x > 0.

    Upward from Q(1/2, x) = erfc(sqrt x) or Q(1, x) = e^{-x} by
    Q(a + 1, x) = Q(a, x) + x^a e^{-x} / Gamma(a + 1), a sum of positive
    terms.  Q(a, inf) = 0, as at the largest float.
    """
    if not (a > 0.0 and (2.0 * float(a)).is_integer()):
        raise ValueError(f"gammaincc needs a in {{1/2, 1, 3/2, ...}}, got {a}")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("gammaincc needs x > 0")
    x = np.minimum(x, np.finfo(float).max)
    if float(a).is_integer():
        s, q = 1.0, np.exp(-x)
    else:
        s, q = 0.5, np.vectorize(math.erfc, otypes=[float])(np.sqrt(x))
    log_x = np.log(x)
    while s < a:
        q = q + np.exp(s * log_x - x - math.lgamma(s + 1.0))
        s += 1.0
    return q


def cone_heat_kernel(nu: float, t: float, x: float, xt: float) -> float:
    """Friedrichs heat kernel of the radial model operator on the half line.

    Evaluated as (1/2t) sqrt(x xt) [e^{-z} I_nu(z)] e^{-(x-xt)^2/4t} with
    z = x xt / 2t, which is the same value with all exponentials paired so
    neither factor overflows.
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if t <= 0 or x <= 0 or xt <= 0:
        raise ValueError("t, x, xt must be positive")
    z = x * xt / (2.0 * t)
    gauss = math.exp(-((x - xt) ** 2) / (4.0 * t))
    return 0.5 / t * math.sqrt(x * xt) * bessel_i(nu, z, scaled=True) * gauss


ZERO_EIGENVALUE = 1e-14


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues `lam` with weights (multiplicities), as float64 arrays
    sorted by (lam, weight).  Every eigenvalue up to `cutoff` is present;
    the default `inf` marks a complete list."""

    lam: np.ndarray
    weight: np.ndarray
    cutoff: float = math.inf

    @classmethod
    def of(cls, lam, weight, cutoff: float = math.inf) -> "Spectrum":
        """Spectrum of unsorted eigenvalues and their weights."""
        lam = np.asarray(lam, dtype=float)
        weight = np.asarray(weight, dtype=float)
        order = np.lexsort((weight, lam))
        return cls(lam[order], weight[order], cutoff)

    def __len__(self) -> int:
        return len(self.lam)

    def positive(self) -> "Spectrum":
        keep = self.lam > ZERO_EIGENVALUE
        return Spectrum(self.lam[keep], self.weight[keep], self.cutoff)


@dataclass(frozen=True)
class ConeSpectrum:
    """Dirichlet eigenvalues j_{nu,k}^2 <= lambda_cutoff of a truncated cone."""

    nu_spectrum: NuSpectrum
    zeros: dict[float, list[float]]
    multiplicities: dict[float, int]
    lambda_cutoff: float
    cone_dim: int

    def spectrum(self) -> Spectrum:
        """Eigenvalues j_{nu,k}^2, each weighted by the multiplicity of nu."""
        z = np.fromiter(chain.from_iterable(self.zeros.values()), dtype=float)
        weight = np.repeat([self.multiplicities[nu] for nu in self.zeros],
                           [len(zs) for zs in self.zeros.values()])
        return Spectrum.of(z * z, weight, self.lambda_cutoff)


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _ZeroCache:
    """Bessel zeros by (nu, z_max), kept for the life of the process.

    Form degrees of one model share most Bessel orders, so each degree's
    `cone_spectrum` computes only the orders it lacks, in one batch.
    `cache_info()` counts lookups the way `functools.lru_cache` does.
    """

    def __init__(self) -> None:
        self._zeros: dict[tuple[float, float], tuple[float, ...]] = {}
        self._hits = self._misses = 0

    def lookup(self, nus: Sequence[float], z_max: float) -> dict[float, list[float]]:
        missing = [nu for nu in nus if (nu, z_max) not in self._zeros]
        for nu, zs in zip(missing, bessel_j_zeros_batch(missing, z_max)):
            self._zeros[nu, z_max] = tuple(zs)
        self._misses += len(missing)
        self._hits += len(nus) - len(missing)
        return {nu: list(self._zeros[nu, z_max]) for nu in nus}

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, None, len(self._zeros))


_cached_zeros = _ZeroCache()


def cone_spectrum(nu_spec: NuSpectrum, lambda_cutoff: float, cone_dim: int = 2) -> ConeSpectrum:
    """Enumerate all truncated-cone eigenvalues up to lambda_cutoff.

    Modes sharing the same Bessel order (to 1e-12) are merged so each order
    is root-searched once.
    """
    if lambda_cutoff <= 0:
        raise ValueError("lambda_cutoff must be positive")
    mult: dict[float, int] = {}
    for nu, m in zip(nu_spec.nu.tolist(), nu_spec.mult.tolist()):
        key = round(nu, 12)
        mult[key] = mult.get(key, 0) + m
    z_max = math.sqrt(lambda_cutoff)
    zeros = _cached_zeros.lookup(sorted(mult), z_max)
    for nu, zs in zeros.items():
        if zs and zs[0] <= nu:
            raise RuntimeError(f"first zero {zs[0]} not above its order {nu}")
    return ConeSpectrum(nu_spec, zeros, mult, lambda_cutoff, cone_dim)


@dataclass(frozen=True, eq=False)
class TraceSamples:
    """Heat-trace values on a time grid with certified truncation error."""

    grid: np.ndarray
    values: np.ndarray
    tail_bound: np.ndarray
    eigenvalues: Spectrum | None = None

    def __eq__(self, other) -> bool:
        """The same object, or bit-equal grid, values and tail bounds of a
        bit-equal eigenvalue spectrum (`lam`, `weight` and `cutoff`), or of
        none: every quantity computed from the samples is then the same."""
        if self is other:
            return True
        if not isinstance(other, TraceSamples):
            return NotImplemented
        a, b = self.eigenvalues, other.eigenvalues
        if (a is None) != (b is None):
            return False
        arrays = [(self.grid, other.grid), (self.values, other.values),
                  (self.tail_bound, other.tail_bound)]
        if a is not None:
            if a.cutoff != b.cutoff:
                return False
            arrays += [(a.lam, b.lam), (a.weight, b.weight)]
        return all(np.array_equal(x, y) for x, y in arrays)

    def restrict(self, t_max: float) -> "TraceSamples":
        keep = self.grid <= t_max
        return TraceSamples(self.grid[keep], self.values[keep],
                            self.tail_bound[keep], self.eigenvalues)

    def to_csv(self) -> str:
        lines = ["t,value,tail_bound"]
        for t, v, b in zip(self.grid, self.values, self.tail_bound):
            lines.append(f"{t:.17g},{v:.17g},{b:.17g}")
        return "\n".join(lines) + "\n"


def log_grid(t_min: float, t_max: float, points: int) -> np.ndarray:
    if not 0 < t_min < t_max:
        raise ValueError("need 0 < t_min < t_max")
    return np.geomspace(t_min, t_max, points)


def _blocked_sums(lams: np.ndarray, ws: np.ndarray, t_grid: np.ndarray,
                  ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums sum_{i < ends[r]} ws[i] exp(-t_grid[r] lams[i]) and a bound
    on their rounding error, TRACE_BLOCK matrix elements at a time.

    `ends` is nonincreasing along the grid, so a block of consecutive rows
    takes the columns of its first row; the extra columns of later rows
    are exact zeros.  numpy's pairwise row sum uses no BLAS and no threads.
    With n nonnegative terms w e, rounding the products and their sum, in
    any order, moves a row by at most gamma_{n+1} |value|, where
    gamma_k = k u / (1 - k u) and n counts the block's columns, since they
    set the pairwise tree.
    """
    values = np.empty(len(t_grid))
    rounding = np.empty(len(t_grid))
    start = 0
    while start < len(t_grid):
        n = int(ends[start])
        stop = start + max(1, TRACE_BLOCK // max(n, 1))
        terms = np.multiply.outer(-t_grid[start:stop], lams[:n])
        np.exp(terms, out=terms)
        terms *= ws[:n]
        values[start:stop] = terms.sum(axis=1)
        ku = (n + 1) * UNIT_ROUNDOFF
        rounding[start:stop] = ku / (1.0 - ku) * np.abs(values[start:stop])
        start = stop
    return values, rounding


def _certified_trace(spectrum: Spectrum, q: float, t_grid: np.ndarray) -> TraceSamples:
    """Sum w exp(-t lambda) with a bound on the Weyl-envelope tail beyond
    the spectrum's cutoff plus the rounding of the sum.

    The envelope constant is 2x the largest observed N(s)/s^q over the
    computed spectrum; the factor-of-two safety margin covers the
    extrapolation beyond the cutoff that the Weyl law justifies.  The
    rounding bound needs nonnegative terms, so a negative weight is refused.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or np.any(t_grid <= 0):
        raise ValueError("t grid must be positive")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t grid must be strictly increasing")
    lams, ws, cutoff = spectrum.lam, spectrum.weight, spectrum.cutoff
    if np.any(ws < 0):
        raise ValueError("weights must be nonnegative")
    positive = lams > ZERO_EIGENVALUE
    if np.any(positive):
        counts = np.cumsum(ws)[positive]
        envelope = 2.0 * float(np.max(counts / lams[positive] ** q))
    else:
        envelope = 0.0

    ends = np.searchsorted(lams, EXP_REACH / t_grid, side="right")
    values, rounding = _blocked_sums(lams, ws, t_grid, ends)
    # tail <= t C int_Lambda^inf s^q e^{-ts} ds = C t^{-q} Gamma(q+1, t Lambda)
    tail = envelope * math.gamma(q + 1.0) * t_grid ** (-q) \
        * gammaincc(q + 1.0, t_grid * cutoff)

    precheck = np.exp(-t_grid * cutoff)
    bad = precheck >= PRECHECK_RELATIVE_LIMIT * np.abs(values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise TailNotCertified(
            f"exp(-t*Lambda) = {precheck[i]:.3g} at t={t_grid[i]:.3g} is not below "
            f"{PRECHECK_RELATIVE_LIMIT} x trace ({values[i]:.6g}); raise lambda_cutoff")
    bad = tail >= TAIL_RELATIVE_LIMIT * np.abs(values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise TailNotCertified(
            f"tail bound {tail[i]:.3g} at t={t_grid[i]:.3g} exceeds "
            f"{TAIL_RELATIVE_LIMIT} x trace ({values[i]:.6g}); raise lambda_cutoff")
    return TraceSamples(t_grid, values, tail + rounding, spectrum)


def truncated_cone_trace(spec: ConeSpectrum, p: int, t_grid: Sequence[float]) -> TraceSamples:
    """Heat trace of the Dirichlet-truncated cone in form degree p."""
    nu_spec = spec.nu_spectrum
    if len(nu_spec.nu) and nu_spec.degree != p:
        raise ValueError(f"spectrum holds degree {nu_spec.degree}, asked for {p}")
    return _certified_trace(spec.spectrum(), q=spec.cone_dim / 2.0,
                            t_grid=np.asarray(t_grid, dtype=float))


def fiber_factor_trace(fiber: FiberSpectrum, degree: int,
                       t_grid: Sequence[float]) -> TraceSamples:
    """Heat trace of a closed flat factor (circle or torus) in one degree:
    its harmonic forms, then the exact and the coexact forms of each shell."""
    if not 0 <= degree <= fiber.dim_f:
        raise ValueError(f"no entries in degree {degree}")
    lam, weight = [[0.0]], [[fiber.betti()[degree]]]
    for mult in (fiber.exact(degree), fiber.coexact(degree)):
        lam.append(fiber.mu2[mult > 0])
        weight.append(mult[mult > 0])
    spectrum = Spectrum.of(np.concatenate(lam), np.concatenate(weight), fiber.cutoff ** 2)
    q = max(fiber.dim_f / 2.0, 0.5)
    return _certified_trace(spectrum, q=q, t_grid=np.asarray(t_grid, dtype=float))


def _common_grid(traces: Sequence[TraceSamples], what: str) -> np.ndarray:
    grid = traces[0].grid
    for s in traces[1:]:
        if s.grid.shape != grid.shape or not np.array_equal(s.grid, grid):
            raise MismatchedGrids(f"{what} must share one t grid")
    return grid


def _pair_sums(a: Spectrum, b: Spectrum, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Sums a.lam[i] + b.lam[j] <= cutoff with weights a.weight[i] * b.weight[j].

    Row i holds the b-eigenvalues up to cutoff - a.lam[i], so the full
    outer product is never formed.
    """
    counts = np.searchsorted(b.lam, cutoff - a.lam, side="right")
    rows = np.repeat(np.arange(len(a)), counts)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    return a.lam[rows] + b.lam[cols], a.weight[rows] * b.weight[cols]


def product_trace(a: Mapping[int, TraceSamples], b: Mapping[int, TraceSamples],
                  cutoff: float = math.inf) -> dict[int, TraceSamples]:
    """Kunneth assembly: Tr_k(A x B) = sum_{i+j=k} Tr_i(A) Tr_j(B).

    Tail bounds propagate through the product rule.  The product spectrum
    keeps the pair sums up to the smallest factor cutoff, or up to `cutoff`
    if that is smaller, which is every product eigenvalue up to there, and
    records that cutoff; it is absent when a factor carries no spectrum.
    """
    grid = _common_grid([*a.values(), *b.values()], "factor traces")
    out: dict[int, TraceSamples] = {}
    for k in range(max(a) + max(b) + 1):
        pairs = [(a[i], b[k - i]) for i in range(k + 1) if i in a and k - i in b]
        val = np.zeros_like(grid)
        tail = np.zeros_like(grid)
        for sa, sb in pairs:
            val += sa.values * sb.values
            tail += (np.abs(sa.values) * sb.tail_bound
                     + np.abs(sb.values) * sa.tail_bound
                     + sa.tail_bound * sb.tail_bound)
        eigs = [(sa.eigenvalues, sb.eigenvalues) for sa, sb in pairs]
        spectrum = None
        if all(ea is not None and eb is not None for ea, eb in eigs):
            cap = min([cutoff] + [c for ea, eb in eigs for c in (ea.cutoff, eb.cutoff)])
            # seeded empty, so a degree without factor pairs gets an empty spectrum
            sums = [(np.empty(0), np.empty(0))] + [_pair_sums(ea, eb, cap) for ea, eb in eigs]
            lam = np.round(np.concatenate([s for s, _ in sums]), 12)
            uniq, inverse = np.unique(lam, return_inverse=True)
            weight = np.bincount(inverse, weights=np.concatenate([w for _, w in sums]))
            spectrum = Spectrum(uniq, weight, cap)
        out[k] = TraceSamples(grid, val, tail, spectrum)
    return out


@dataclass(frozen=True)
class FittedExpansion:
    """Template basis coefficients with fit diagnostics.

    `coefficient_bounds` are worst-case sensitivities: the largest shift of
    each coefficient consistent with the observed weighted residuals (L1
    norm of the pseudoinverse row times the residual sup).  They dominate
    collinearity noise when the template carries log columns the data does
    not actually need.
    """

    template: ExpansionTemplate
    coefficients: dict[tuple[Fraction, bool], float]
    residual: float
    condition: float
    coefficient_bounds: dict[tuple[Fraction, bool], float]

    def coefficient(self, exponent, log: bool = False) -> float:
        return self.coefficients.get((Fraction(exponent), log), 0.0)

    def model(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for key, c in self.coefficients.items():
            out += c * _basis_column(t, *key)
        return out

    def to_json_dict(self) -> dict:
        return {
            "template": self.template.to_json_dict(),
            "coefficients": [
                {"exp": str(alpha), "log": is_log, "coeff": c,
                 "bound": self.coefficient_bounds[(alpha, is_log)]}
                for (alpha, is_log), c in sorted(self.coefficients.items())
            ],
            "residual": self.residual,
            "condition": self.condition,
        }


def _basis_column(t: np.ndarray, alpha: Fraction, is_log: bool) -> np.ndarray:
    """The basis function t^alpha, or t^alpha log t, on the grid t."""
    col = t ** float(alpha)
    return col * np.log(t) if is_log else col


def _solve_weighted(t: np.ndarray, values: np.ndarray,
                    basis: Sequence[tuple[Fraction, bool]]):
    """Weighted least squares: coefficients, condition estimate, relative
    residuals, and the weighted design and residuals (for the sensitivities)."""
    alpha_min = float(min(a for a, _ in basis))
    w = t ** (-alpha_min)
    design = np.column_stack([w * _basis_column(t, *key) for key in basis])
    rhs = w * values
    coeff, _, _, sing = np.linalg.lstsq(design, rhs, rcond=None)
    condition = float(sing[0] / sing[-1]) if sing[-1] > 0 else math.inf
    weighted_resid = design @ coeff - rhs
    rel_resid = np.abs(weighted_resid / w) / np.abs(values)
    return coeff, condition, rel_resid, design, weighted_resid


def _median(x: np.ndarray) -> float:
    """`float(np.median(x))` of a non-empty 1-d float array, bit for bit,
    NaN included, from a sort: np.median's NaN check imports numpy.ma, some
    15 ms on its first call in a process."""
    s = np.sort(x)
    if np.isnan(s[-1]):         # the sort puts NaN last, and np.median returns it
        return float(s[-1])
    half = len(s) // 2
    return float(np.mean(s[half:half + 1] if len(s) % 2 else s[half - 1:half + 1]))


def fit_expansion(samples: TraceSamples, template: ExpansionTemplate) -> FittedExpansion:
    """Weighted least squares of trace samples in the template basis.

    Weights t^(-alpha_min) equalize the influence of the leading term over
    a log-spaced grid.  A truncated template cannot represent the trace all
    the way to the largest times (the omitted content grows with t), so
    trailing samples are trimmed one at a time, down to twice the basis
    size, while the last relative residual stands out against the median
    by a factor 10; for data the template describes exactly, nothing is
    trimmed.  Fits whose design matrix is effectively singular are refused
    rather than returned.
    """
    basis = template.basis
    t, values = samples.grid, samples.values
    n = len(t)
    if n < 2 * len(basis):
        raise InsufficientSamples(f"{n} samples for {len(basis)} basis functions; need 2x")
    coeff, condition, rel_resid, design, resid = _solve_weighted(t, values, basis)
    while n > 2 * len(basis) and rel_resid[-1] > 10.0 * max(_median(rel_resid), 1e-13):
        n -= 1
        coeff, condition, rel_resid, design, resid = _solve_weighted(t[:n], values[:n], basis)
    if condition > CONDITION_LIMIT:
        raise IllConditioned(f"fit condition estimate {condition:.3g} exceeds {CONDITION_LIMIT:.0e}")
    # worst coefficient shift explained by residuals of the observed size
    sens = np.abs(np.linalg.pinv(design)).sum(axis=1) * float(np.max(np.abs(resid)))
    return FittedExpansion(
        template=template,
        coefficients={key: float(c) for key, c in zip(basis, coeff)},
        residual=float(np.max(rel_resid)),
        condition=condition,
        coefficient_bounds={key: float(s) for key, s in zip(basis, sens)},
    )


def mckean_singer_defect(per_degree: Sequence[TraceSamples], betti: Sequence[int]) -> float:
    """Sup over the grid of |sum_k (-1)^k (Tr_k(t) - beta_k)|."""
    if len(per_degree) != len(betti):
        raise ValueError("one Betti number per degree required")
    grid = _common_grid(per_degree, "per-degree traces")
    total = np.zeros_like(grid)
    for k, (s, beta) in enumerate(zip(per_degree, betti)):
        total += (-1.0) ** k * (s.values - beta)
    return float(np.max(np.abs(total)))
