"""Model heat kernel, certified heat traces, and expansion-coefficient fits.

The exactly solvable radial problem has the Friedrichs heat kernel

    (1/2t) (x xt)^(1/2) I_nu(x xt / 2t) exp(-(x^2 + xt^2)/4t),

computed here in the scaled-Bessel form so nothing overflows at small t.
Truncating the cone at x = 1 with a Dirichlet condition turns each Bessel
order nu into the eigenvalue family j_{nu,k}^2, and the heat trace becomes
a plain double sum over (nu, k).  Every trace sample carries a certified
tail bound obtained from a Weyl envelope N(s) <= C s^q with C read off the
computed spectrum, plus a bound on the rounding of the sum itself, which
runs as blocked array passes over the time grid.  Those passes take exp
only where t lambda <= NORMAL_REACH = -ln 2^-1022, where exp(-t lambda) is
a normal float: a subnormal result costs ~100 times a normal one.  Each
term left out is below w 2^-1022, and the rounding bound carries that
dropped mass.

Least-squares extraction of expansion coefficients works in the basis
{t^a, t^a log t} dictated by an ExpansionTemplate, with rows weighted by
t^(-a_min) so the leading fitted term carries comparable influence across
the sample range.  Coefficients that geometry fixes (`heat_pins`: the
plain cone's closed forms, carried to a product by the Kunneth line that
`product_trace` takes too) can be pinned, each with its error bound, so
that only the others are fitted, and a higher-order partner template can
be fitted alongside, to measure the truncation of the first.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .bessel import bessel_i, bessel_j_zeros_batch
from .errors import (
    IllConditioned,
    InsufficientSamples,
    MismatchedGrids,
    TailNotCertified,
)
from .fiber import FiberSpectrum, NuSpectrum, _comb, _lattice_points, frac_radius
from .phg import ExpansionTemplate

TAIL_RELATIVE_LIMIT = 1e-10
PRECHECK_RELATIVE_LIMIT = 1e-14
CONDITION_LIMIT = 1e12
# float64 elements per block of the trace sum (256 KiB): larger blocks
# raise peak memory and run no faster
TRACE_BLOCK = 1 << 15
# each row of a trace block sums in runs of SUM_BLOCK terms, then the runs,
# so its rounding bound grows with SUM_BLOCK + n / SUM_BLOCK, not with n
SUM_BLOCK = 128
# roundings in one trace term w exp(-t lam): the product, and two for np.exp
TERM_ROUNDINGS = 3
UNIT_ROUNDOFF = 2.0 ** -53
# exp(-x) is exactly 0.0 past x = 745.2: no sum of exp(-t lam) reads an
# eigenvalue above EXP_REACH / t
EXP_REACH = 746.0
# exp(-x) is a normal float up to x = -ln(2^-1022) = 708.396...; past it the
# result is subnormal, which costs ~100 times as much (see `_blocked_sums`)
SMALLEST_NORMAL = float(np.finfo(float).smallest_normal)
NORMAL_REACH = -math.log(SMALLEST_NORMAL)


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
    the default `inf` marks a complete list.  With `base_periods`, the
    trace is the scalar heat trace of the flat torus of those periods
    times sum w e^{-t lam}: the spectrum of a product with that base."""

    lam: np.ndarray
    weight: np.ndarray
    cutoff: float = math.inf
    base_periods: tuple[float, ...] = ()

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
        return replace(self, lam=self.lam[keep], weight=self.weight[keep])


@dataclass(frozen=True, eq=False)
class ConeSpectrum:
    """Dirichlet eigenvalues j_{nu,k}^2 <= lambda_cutoff of a truncated cone:
    the zeros j_{nu,k} of each Bessel order of `nu_spectrum`, flat in the
    order of its orders, and how many each order has."""

    nu_spectrum: NuSpectrum
    flat_zeros: np.ndarray
    counts: np.ndarray
    lambda_cutoff: float
    cone_dim: int

    @property
    def zeros(self) -> dict[float, tuple[float, ...]]:
        """{nu: its zeros}, built on each read for perfbench and the oracle
        table; the trace reads the flat zeros."""
        per_order = np.split(self.flat_zeros, np.cumsum(self.counts)[:-1])
        return {nu: tuple(zs.tolist()) for nu, zs in zip(self.nu_spectrum.nu.tolist(), per_order)}

    def spectrum(self) -> Spectrum:
        """Eigenvalues j_{nu,k}^2, each weighted by the multiplicity of nu."""
        weight = np.repeat(self.nu_spectrum.mult, self.counts)
        return Spectrum.of(self.flat_zeros * self.flat_zeros, weight, self.lambda_cutoff)


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _segments(flat: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """flat[starts[i]:starts[i] + counts[i]] for each i, concatenated."""
    out_starts = np.cumsum(counts) - counts
    return flat[np.arange(int(counts.sum())) + np.repeat(starts - out_starts, counts)]


class _ZeroCache:
    """Bessel zeros by z_max, kept for the life of the process: for each
    z_max, the orders computed so far as one increasing array, their zero
    counts, and their zeros as one flat array in the order of the orders.

    Form degrees of one model share most Bessel orders, so each degree's
    `cone_spectrum` computes only the orders it lacks, in one batch.
    `cache_info()` counts lookups the way `functools.lru_cache` does.
    """

    def __init__(self) -> None:
        self._tables: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._hits = self._misses = 0

    def lookup(self, nus: np.ndarray, z_max: float) -> tuple[np.ndarray, np.ndarray]:
        """The zeros of each order of `nus`, flat and in its order, and how
        many each order has."""
        empty = (np.empty(0), np.zeros(0, dtype=np.intp), np.empty(0))
        orders, counts, zeros = self._tables.get(z_max, empty)
        at = np.searchsorted(orders, nus)
        known = at < len(orders)
        known[known] = orders[at[known]] == nus[known]
        # sorted and deduplicated by hand: a bare np.unique imports numpy.ma
        missing = np.sort(nus[~known])
        first = np.ones(len(missing), dtype=bool)
        first[1:] = missing[1:] != missing[:-1]
        missing = missing[first]
        if len(missing):
            new_zeros, new_counts = bessel_j_zeros_batch(missing, z_max)
            all_orders = np.concatenate((orders, missing))
            all_counts = np.concatenate((counts, new_counts))
            starts = np.cumsum(all_counts) - all_counts
            by_order = np.argsort(all_orders, kind="stable")
            orders, counts = all_orders[by_order], all_counts[by_order]
            zeros = _segments(np.concatenate((zeros, new_zeros)), starts[by_order], counts)
            self._tables[z_max] = orders, counts, zeros
            at = np.searchsorted(orders, nus)
        self._misses += len(missing)
        self._hits += len(nus) - len(missing)
        starts = np.cumsum(counts) - counts
        return _segments(zeros, starts[at], counts[at]), counts[at]

    def cache_info(self) -> CacheInfo:
        size = sum(len(orders) for orders, _, _ in self._tables.values())
        return CacheInfo(self._hits, self._misses, None, size)


_cached_zeros = _ZeroCache()


def cone_spectrum(nu_spec: NuSpectrum, lambda_cutoff: float, cone_dim: int = 2) -> ConeSpectrum:
    """Enumerate all truncated-cone eigenvalues up to lambda_cutoff, from the
    zeros of each Bessel order of `nu_spec` as it holds them."""
    if lambda_cutoff <= 0:
        raise ValueError("lambda_cutoff must be positive")
    zeros, counts = _cached_zeros.lookup(nu_spec.nu, math.sqrt(lambda_cutoff))
    return ConeSpectrum(nu_spec, zeros, counts, lambda_cutoff, cone_dim)


@dataclass(frozen=True, eq=False)
class TraceSamples:
    """Heat-trace values on a time grid with certified truncation error."""

    grid: np.ndarray
    values: np.ndarray
    tail_bound: np.ndarray
    eigenvalues: Spectrum | None = None

    def __eq__(self, other) -> bool:
        """The same object, or bit-equal grid, values and tail bounds of a
        bit-equal eigenvalue spectrum (each field of it), or of none: every
        quantity computed from the samples is then the same."""
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
            if (a.cutoff, a.base_periods) != (b.cutoff, b.base_periods):
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


def rounding_gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u): a value that n roundings, each within the
    unit roundoff u, carry moves by at most gamma_n of itself (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, 3.1)."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def _blocked_sums(lams: np.ndarray, ws: np.ndarray, t_grid: np.ndarray,
                  ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums sum_{i < ends[r]} ws[i] exp(-t_grid[r] lams[i]) and a bound
    on their error, about TRACE_BLOCK matrix elements at a time.

    `ends` is nonincreasing along the grid, so a block of consecutive rows
    takes the n columns of its first row; the extra columns of later rows
    are exact zeros.  Each row sums in a fixed two-level order: its
    columns, zero-padded to k = ceil(n / SUM_BLOCK) runs of SUM_BLOCK, sum
    run by run, then the k run sums (einsum and a pairwise sum, each along
    a contiguous axis, with no BLAS and no threads).  With nonnegative
    terms, any order inside a level passes each term through at most
    min(n, SUM_BLOCK) - 1 + k - 1 roundings of a sum (Higham, 2002, 4.2),
    so the row moves by at most
    gamma_{min(n, SUM_BLOCK) + k + TERM_ROUNDINGS} |value|, where one sum
    of all n terms in any order could take gamma_{n - 1}.  TERM_ROUNDINGS
    = 3 covers each term w e: the product rounds once, and np.exp is
    within 1.15 u of exp(x) on [-NORMAL_REACH, 0] (222k points against
    mpmath, numpy 2.4 on an AVX-512 x86-64 CPU; tests/test_conekernel.py
    holds it to 2 u, two roundings).  The terms are those of the rounded
    arguments fl(t lam), as the oracle fsum_trace takes them: that
    rounding moves lam by at most u of itself, less than the error of a
    computed eigenvalue, which no bound here charges.

    A row takes exp only where t lam <= NORMAL_REACH; its other columns
    are 0.0.  Past that reach exp(-t lam) is below 2^-1022: subnormal up
    to t lam = 745.1 and 0.0 beyond.  With numpy 2.4 on an AVX-512 x86-64
    CPU one exp costs ~1.2 ns for a normal result, ~135 ns for a subnormal
    one and ~21 ns for an underflow to 0.0.  Taking every column of a block
    made 44k subnormal and 52k underflowing exps on the `torus` workload
    (t_min 1e-2), and 273k and 70k on the T^2 cone at t_min 2.5e-3.
    Each dropped term is below w 2^-1022, so the bound adds each row's
    dropped weight times 2^-1022.  The blocks, their n and the order of
    the sums are those of taking every exp; on the model spectra the
    dropped terms vanish beside the row's leading terms, and the sums are
    bit-equal to the ones that take every exp (tests/trace_oracle.py keeps
    that loop).
    """
    values = np.empty(len(t_grid))
    rounding = np.empty(len(t_grid))
    normal = np.searchsorted(lams, NORMAL_REACH / t_grid, side="right").tolist()
    # the first row's columns, zero-padded to whole runs, so that each
    # block's terms fill a C-contiguous buffer whose rows split into runs as
    # a view; the pad columns take no exp and weigh 0
    first = int(ends[0])
    pad = np.zeros(-first % SUM_BLOCK)
    lam_cols, w_cols = np.concatenate((lams[:first], pad)), np.concatenate((ws[:first], pad))
    start = 0
    while start < len(t_grid):
        n = int(ends[start])
        runs = -(-n // SUM_BLOCK)
        width = runs * SUM_BLOCK
        stop = min(len(t_grid), start + max(1, TRACE_BLOCK // max(width, 1)))
        terms = np.multiply.outer(-t_grid[start:stop], lam_cols[:width])
        for row, m in zip(terms, normal[start:stop]):
            np.exp(row[:m], out=row[:m])
            row[m:] = 0.0
        terms *= w_cols[:width]
        # einsum sums the runs as fast as one pairwise sum of each row, where
        # sum(axis=2) takes ~1.5 times as long
        run_sums = np.einsum("rkb->rk", terms.reshape(stop - start, runs, SUM_BLOCK))
        values[start:stop] = run_sums.sum(axis=1)
        rounding[start:stop] = rounding_gamma(min(n, SUM_BLOCK) + runs + TERM_ROUNDINGS) \
            * np.abs(values[start:stop])
        start = stop
    weight_below = np.concatenate(([0.0], np.cumsum(ws[:first])))
    rounding += (weight_below[ends] - weight_below[normal]) * SMALLEST_NORMAL
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


def fiber_factor_trace(fiber: FiberSpectrum, t_grid: Sequence[float]) -> TraceSamples:
    """Scalar heat trace Theta(t) = 1 + sum points e^(-t |kappa|^2) of a
    closed flat factor (circle or torus), certified.  Degree i of the
    factor has C(f, i) Theta as its trace, which `product_trace` takes."""
    spectrum = Spectrum.of(np.concatenate(([0.0], fiber.mu2)),
                           np.concatenate(([1.0], fiber.points)), fiber.cutoff ** 2)
    q = max(fiber.dim_f / 2.0, 0.5)
    return _certified_trace(spectrum, q=q, t_grid=np.asarray(t_grid, dtype=float))


def _common_grid(traces: Sequence[TraceSamples], what: str) -> np.ndarray:
    grid = traces[0].grid
    for s in traces[1:]:
        if s.grid.shape != grid.shape or not np.array_equal(s.grid, grid):
            raise MismatchedGrids(f"{what} must share one t grid")
    return grid


def product_trace(theta: TraceSamples, cone: Mapping[int, TraceSamples],
                  base_periods: Sequence[float]) -> dict[int, TraceSamples]:
    """Kunneth assembly over the flat torus B of periods `base_periods`,
    b of them, whose degree i is C(b, i) times its scalar trace `theta`:

        Tr_k(B x C) = sum_j C(b, k - j) Theta_B(t) Tr_j(C).

    Values, tails and spectrum weights all take that one binomial.  Tail
    bounds propagate through the product rule, and the bound adds the
    rounding of the products, of the multiplies by C where C is not a
    power of two (elsewhere exact), and of their sum.  Degree k's spectrum
    holds each cone degree j's eigenvalues, weights times C(b, k - j),
    complete to the least cone cutoff, and records the base periods; it is
    absent when a cone trace carries no spectrum.
    """
    grid = _common_grid([theta, *cone.values()], "factor traces")
    b = len(base_periods)
    out: dict[int, TraceSamples] = {}
    for k in range(b + max(cone) + 1):
        # each cone degree j = k - i with its rank, summed by base degree i
        pairs = [(cone[k - i], math.comb(b, i)) for i in range(min(k, b) + 1) if k - i in cone]
        val = np.zeros_like(grid)
        tail = np.zeros_like(grid)
        size = np.zeros_like(grid)
        for tr, rank in pairs:
            term = rank * (theta.values * tr.values)
            val += term
            size += np.abs(term)
            tail += rank * (np.abs(theta.values) * tr.tail_bound
                            + np.abs(tr.values) * theta.tail_bound
                            + theta.tail_bound * tr.tail_bound)
        # each product rounds once, a multiply by a rank that is not a power
        # of two once more, and the sum of the pairs rounds it again
        inexact = any(rank & (rank - 1) for _, rank in pairs)
        tail += rounding_gamma(len(pairs) + 1 + inexact) * size
        spectrum = None
        if all(tr.eigenvalues is not None for tr, _ in pairs):
            # seeded empty, so a degree without factor pairs gets an empty spectrum;
            # an eigenvalue of several cone degrees is one, its weights summed
            lam, at = np.unique(np.concatenate(
                [np.empty(0)] + [tr.eigenvalues.lam for tr, _ in pairs]), return_inverse=True)
            weight = np.concatenate([np.empty(0)] + [r * tr.eigenvalues.weight for tr, r in pairs])
            cutoff = min([math.inf] + [tr.eigenvalues.cutoff for tr, _ in pairs])
            spectrum = Spectrum(lam, np.bincount(at, weight, len(lam)), cutoff,
                                tuple(base_periods))
        out[k] = TraceSamples(grid, val, tail, spectrum)
    return out


@dataclass(frozen=True)
class FittedExpansion:
    """Template basis coefficients with fit diagnostics.

    `coefficient_bounds` are worst-case sensitivities: the largest shift of
    each coefficient consistent with the observed weighted residuals (L1
    norm of the pseudoinverse row times the residual sup).  They dominate
    collinearity noise when the template carries log columns the data does
    not actually need.  A `pinned` coefficient was given, not fitted, and
    its bound is the pin's own error, 0 unless one was given.  `partner`
    is the fit of a higher-order template to the same samples and pins,
    whose spread from this one measures truncation.
    """

    template: ExpansionTemplate
    coefficients: dict[tuple[Fraction, bool], float]
    residual: float
    condition: float
    coefficient_bounds: dict[tuple[Fraction, bool], float]
    pinned: tuple[tuple[Fraction, bool], ...] = ()
    partner: "FittedExpansion | None" = None

    def coefficient(self, exponent, log: bool = False) -> float:
        return self.coefficients.get((Fraction(exponent), log), 0.0)

    def to_json_dict(self) -> dict:
        out = {
            "template": self.template.to_json_dict(),
            "coefficients": [
                {"exp": str(alpha), "log": is_log, "coeff": c,
                 "bound": self.coefficient_bounds[(alpha, is_log)]}
                for (alpha, is_log), c in sorted(self.coefficients.items())
            ],
            "residual": self.residual,
            "condition": self.condition,
        }
        if self.pinned:
            out["pinned"] = [column_name(key) for key in self.pinned]
        if self.partner is not None:
            out["partner"] = self.partner.to_json_dict()
        return out


def circle_cone_zeta0(radius: float) -> tuple[Fraction, Fraction, Fraction]:
    """zeta(0), the t^0 heat coefficient, of the cone over the circle of
    radius r cut at x = 1 with a Dirichlet condition, in degrees 0, 1, 2:
    (r + 1/r)/12, (r + 1/r)/6 - a(1 - a)/r and (r + 1/r)/12, a = frac(r)
    (`fiber.frac_radius`).  Degree 0 is the boundary's integral of
    kappa ds / (12 pi) = r/6 plus the tip's cone-angle term (1/r - r)/12
    (Cheeger, J. Diff. Geom. 18 (1983) 575); degree 2 is its Hodge dual,
    and degree 1 follows from the supertrace Tr_0 - Tr_1 + Tr_2 =
    a(1 - a)/r at small t (the `cone_supertrace` oracle row).

    Exact in rationals at the float r.  Degree 1's terms cancel: for
    r < 1 it is (7r^2 - 6r + 1)/(6r), 0 at r = (3 +- sqrt 2)/7, and a
    float sum of them would be off by a rounding on their scale, not on
    its own, which the exactly pinned zeta(0) is charged
    (`zetator._fit_report`)."""
    r = Fraction(radius)
    a = Fraction(frac_radius(radius))
    z = (r + 1 / r) / 12
    return z, 2 * z - a * (1 - a) / r, z


@functools.lru_cache(maxsize=None)
def torus_cone_zeta0(periods: tuple[float, float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """zeta(0), the t^0 heat coefficient, of the cone over the flat torus
    of periods L1 x L2 cut at x = 1 with a Dirichlet condition, in degrees
    0 to 3, and a bound on the error of each.

    Degree 0's Bessel orders are mu = sqrt(|kappa|^2 + 1/4) over the dual
    lattice, so with zeta_N(s) = sum mu^(-2s), zeta(0) = -zeta_N(-1/2)/2
    - zeta_N(0)/4 (Bordag-Kirsten-Dowker, CMP 182 (1996) 371).  Poisson
    summation over the period lattice Lambda (Chowla-Selberg; Elizalde,
    LNP m35, 1995) makes it, with A = L1 L2,

        z0 = 5A/(192 pi) + A/(8 pi^(3/2)) sum_(m in Lambda, m != 0)
             |m|^(-3/2) K_(3/2)(|m|/2)
           = A/(8 pi) [5/24 + sum e^(-|m|/2) (|m| + 2)/|m|^3].

    Degree 1's orders are mu, mu + 1 and |mu - 1| (`a_block_eigenvalues`:
    nu_pm^2 = |kappa|^2 + 5/4 +- sqrt(1 + 4|kappa|^2) = (mu +- 1)^2), so
    its zeta_N is three of degree 0's, plus 2 sum max(0, 1 - mu) at
    s = -1/2 and the residue A/(2 pi) of 2s(2s + 1) zeta_N(s + 1) at s = 0:

        z1 = 3 z0 - A/(8 pi) - sum_kappa max(0, 1 - mu),

    kappa = 0 (mu = 1/2) included, so a square 2 pi-torus has z1 =
    3 z0 - 1/2 - pi/2.  Degrees 2 and 3 are the Hodge duals of 1 and 0.

    The lattice is cut at the radius R past which the Weyl count
    #{|m| <= r} <= pi (r + d)^2 / A, d half the cell's diagonal, bounds the
    sum's tail below a unit roundoff of 5/24; each term is charged
    (2|m| + 20) roundings (its exponent's rounding grows with |m|), and
    each value its own roundings.  Computed once per torus: the cut
    lattice has some 4 R^2 / A points, R ~ 80."""
    area = periods[0] * periods[1]
    half_diagonal = 0.5 * math.hypot(*periods)

    def tail(r: float) -> float:
        return (r + 2.0) / r ** 3 * math.pi / area * math.exp(-0.5 * r) \
            * ((r + half_diagonal) ** 2 + 4.0 * (r + half_diagonal) + 8.0)

    target = UNIT_ROUNDOFF * 5.0 / 24.0
    reach = 1.0
    while tail(reach) > target:
        reach += 1.0
    # the dual of the dual lattice: periods 2 pi / L put kappa at m
    dist = np.sqrt(_lattice_points([2.0 * math.pi / L for L in periods], reach)[1])
    dist = dist[dist > 0.0]
    terms = np.exp(-0.5 * dist) * (dist + 2.0) / dist ** 3
    theta = area / (8.0 * math.pi)
    z0 = theta * (5.0 / 24.0 + math.fsum(terms))
    err0 = theta * (UNIT_ROUNDOFF * math.fsum(terms * (2.0 * dist + 20.0)) + tail(reach)) \
        + rounding_gamma(8) * z0
    mu2 = _lattice_points(periods, math.sqrt(0.75))[1]
    below = np.maximum(1.0 - np.sqrt(mu2 + 0.25), 0.0)
    z1 = 3.0 * z0 - theta - math.fsum(below)
    err1 = 3.0 * err0 + rounding_gamma(8) * (3.0 * z0 + theta + math.fsum(below) + len(below))
    return (z0, z1, z1, z0), (err0, err1, err1, err0)


# the T^2 cone's t^(1/2), t^1 and t^(3/2) coefficients in degrees (0 and 3,
# 1 and 2), in units A / pi^(3/2), A / pi and A / pi^(3/2), A = L1 L2
TORUS_CONE_LATER = {Fraction(1, 2): (Fraction(17, 2520), Fraction(-53, 840)),
                    Fraction(1): (Fraction(1, 256), Fraction(-23, 768)),
                    Fraction(3, 2): (Fraction(9341, 1081080), Fraction(-3337, 72072))}


class Pin(NamedTuple):
    """A heat coefficient that geometry fixes, and a bound on its error
    that is more than its few roundings (0 where it is not)."""

    value: float
    bound: float = 0.0


def heat_pins(m: int, degree: int, fiber_periods: Sequence[float],
              base_volume: float) -> dict[Fraction, Pin]:
    """The heat coefficients that geometry fixes in form degree k of an
    m-dimensional model, the cone over the flat n-torus N of
    `fiber_periods` cut at x = 1 with a Dirichlet condition, times a flat
    base B of dimension b = m - n - 1 and volume `base_volume`.

    Each closed form is written once, for the plain cone, in its degrees
    j = 0..n+1 (Branson-Gilkey; Gilkey, Asymptotic Formulae in Spectral
    Geometry, 2004).  With A = vol(N):

    * t^(-(n+1)/2): C(n+1, j) A / ((n + 1) (4 pi)^((n+1)/2)) (Weyl);
    * t^(-n/2): -C(n+1, j) A / (4 (4 pi)^(n/2)), the Dirichlet boundary;
    * n = 2, at t^(-1/2): a_1 = n A [C(3, j)/6 + C(1, j-1)] / (4 pi)^(3/2),
      from the scalar curvature -n(n-1)/x^2, its Weitzenboeck trace on
      j-forms and the boundary's mean curvature n;
    * n = 1 or 2, at t^0, where the tip and the edge enter: zeta(0) z_j,
      on the circle of radius r = A / 2 pi `circle_cone_zeta0`'s exact
      rationals, on T^2 `torus_cone_zeta0`'s floats, within its bounds e_j;
    * n = 2, at t^(1/2), t^1 and t^(3/2): Res_(s=-alpha) Gamma(s) zeta(s),
      an exact rational of `TORUS_CONE_LATER` times A / pi^(3/2), or A / pi
      at t^1: there the Bordag-Kirsten-Dowker terms read zeta_N only by its
      residue at s = 1 and its values at s = 0, -1, -2, where its lattice
      part vanishes;
    * n = 1, at t^(1/2), t^1 and t^(3/2): the Dirichlet a_(3/2), a_2 and
      a_(5/2) of a flat plane region with a unit-curvature boundary,
      C(2, j) A / (128 (4 pi)^(1/2)), 4 C(2, j) A / (315 (4 pi)) and 37/128
      of a_(3/2).  The planar a_2 is the integral of kappa^3 ds / (315 pi)
      (van den Berg-Srisatkunarajah, 1990).

    A product degree's trace is Theta_B(t) sum_j C(b, k-j) Tr_j, and the
    base's theta function is vol(B) (4 pi t)^(-b/2) up to terms of order
    e^(-L^2/4t), so the cone's coefficient c_j of t^alpha lands on
    t^(alpha - b/2) as the one line

        vol(B) (4 pi)^(-b/2) sum_j C(b, k-j) c_j,

    the c_j summed exactly where they are exact rationals and rounded once.
    Its bound is the same line of e_j + gamma_(b+6) |c_j|, the sum's and the
    factor's roundings, where the cone's coefficients carry a bound e_j; the
    other pins are exact to a few roundings, which the fit charges on the
    scale of the value (`zetator._fit_report`).  On the plain cone (b = 0)
    the line is c_k itself, and on the circle product (m = 3) the pinned
    a_(3/2) is zeta(0).  A torus fiber of dimension 3 or more pins only the
    first two: no run has checked its a_1."""
    n, area = len(fiber_periods), math.prod(fiber_periods)
    b, four_pi = m - n - 1, 4.0 * math.pi
    flat = base_volume / four_pi ** (b / 2.0)
    base_ranks = [_comb(b, degree - j) for j in range(n + 2)]
    gamma = rounding_gamma(b + 6)

    def line(c, scale=1.0, divisor=1.0, errors=()) -> Pin:
        """The pin of the cone's coefficients scale c_j / divisor in degree
        j, with the bound of their errors e_j; an irrational unit scale /
        divisor stays out of the exact sum of the c_j."""
        value = flat * scale * float(sum(r * cj for r, cj in zip(base_ranks, c))) / divisor
        bound = flat * sum(r * (e + gamma * abs(cj)) for r, cj, e in zip(base_ranks, c, errors))
        return Pin(value, bound)

    rank = [math.comb(n + 1, j) for j in range(n + 2)]
    cone = {Fraction(-n - 1, 2): line([r * (area / (n + 1)) / four_pi ** ((n + 1) / 2.0)
                                       for r in rank]),
            Fraction(-n, 2): line([-r * area / (4.0 * four_pi ** (n / 2.0)) for r in rank])}
    if n == 1:
        cone[Fraction(0)] = line(circle_cone_zeta0(area / (2.0 * math.pi)))
        a_32 = [r * area / (128.0 * four_pi ** 0.5) for r in rank]
        cone[Fraction(1, 2)] = line(a_32)
        cone[Fraction(1)] = line([4.0 * r * area / (315.0 * four_pi) for r in rank])
        cone[Fraction(3, 2)] = line([37.0 / 128.0 * c for c in a_32])
    if n == 2:
        cone[Fraction(-1, 2)] = line([n * area * (r / 6.0 + _comb(1, j - 1)) / four_pi ** 1.5
                                      for j, r in enumerate(rank)])
        zeta0, errors = torus_cone_zeta0(tuple(fiber_periods))
        cone[Fraction(0)] = line(zeta0, errors=errors)
        for alpha, (outer, inner) in TORUS_CONE_LATER.items():
            cone[alpha] = line([outer, inner, inner, outer], scale=area,
                               divisor=math.pi ** (1.0 if alpha == 1 else 1.5))
    return {alpha - Fraction(b, 2): pin for alpha, pin in cone.items()}


def column_name(key: tuple[Fraction, bool]) -> str:
    """A basis column as it reads: t^alpha, or t^alpha log t."""
    alpha, is_log = key
    return f"t^{alpha}" + (" log t" if is_log else "")


def basis_column(t: np.ndarray, alpha: Fraction, is_log: bool) -> np.ndarray:
    """The basis function t^alpha, or t^alpha log t, on the grid t."""
    col = t ** float(alpha)
    return col * np.log(t) if is_log else col


def _median(x: np.ndarray) -> float:
    """`float(np.median(x))` of a non-empty 1-d float array, bit for bit,
    NaN included, from a sort: np.median's NaN check imports numpy.ma, some
    15 ms on its first call in a process.  The mean of the two middle
    values is np.mean's (a + b) / 2 on floats."""
    s = np.sort(x).tolist()
    if s[-1] != s[-1]:          # the sort puts NaN last, and np.median returns it
        return s[-1]
    half = len(s) // 2
    return s[half] if len(s) % 2 else (s[half - 1] + s[half]) / 2.0


def _trimmed_fit(t: np.ndarray, values: np.ndarray, free: Sequence[tuple[Fraction, bool]],
                 pins: Mapping[Fraction, float]):
    """Weighted least squares of `values` minus the pinned terms in the
    `free` columns, trimmed from the end (see `fit_expansion`).

    The weighted design is built once; each trim step solves its leading
    rows, which are bit for bit the design a rebuild on the shorter grid
    would make.  Returns the coefficients, the condition estimate of the
    trimmed design with unit columns, the residuals relative to `values`,
    and the trimmed design and weighted residuals (for the sensitivities).
    """
    w = t ** (-float(min(a for a, _ in free)))
    design = np.column_stack([w * basis_column(t, *key) for key in free])
    rhs = values
    for alpha, c in pins.items():
        rhs = rhs - c * basis_column(t, alpha, False)
    rhs = w * rhs
    size = np.abs(values)
    n = len(t)
    while True:
        coeff = np.linalg.lstsq(design[:n], rhs[:n], rcond=None)[0]
        weighted_resid = design[:n] @ coeff - rhs[:n]
        rel_resid = np.abs(weighted_resid / w[:n]) / size[:n]
        if n <= 2 * len(free) or rel_resid[-1] <= 10.0 * max(_median(rel_resid), 1e-13):
            break
        n -= 1
    # column scales say nothing of collinearity, and no bound depends on them:
    # for diagonal D, pinv(A D) = D^-1 pinv(A)
    sing = np.linalg.svd(design[:n] / np.linalg.norm(design[:n], axis=0), compute_uv=False)
    condition = float(sing[0] / sing[-1]) if sing[-1] > 0 else math.inf
    return coeff, condition, rel_resid, design[:n], weighted_resid


def fit_expansion(samples: TraceSamples, template: ExpansionTemplate,
                  pins: Mapping[Fraction, Pin] | None = None,
                  partner: ExpansionTemplate | None = None) -> FittedExpansion:
    """Weighted least squares of trace samples in the template basis.

    `pins` gives the coefficients of some t^alpha columns (`heat_pins`);
    their terms are subtracted from the samples, only the other columns
    are fitted, and each pin's bound is its column's coefficient bound.
    Weights t^(-alpha_min), alpha_min the least fitted exponent, equalize
    the influence of the leading fitted term over a log-spaced grid.  A
    truncated template cannot represent the trace all the way to the
    largest times (the omitted content grows with t), so trailing samples
    are trimmed one at a time, down to twice the number of fitted columns,
    while the last relative residual stands out against the median by a
    factor 10; for data the template describes exactly, nothing is
    trimmed.  Fits whose design matrix is effectively singular, with its
    columns scaled to unit norm, are refused rather than returned.  A
    `partner` template is fitted to the same samples with the same pins, in
    the same way, and returned with the fit.
    """
    pins = {Fraction(alpha): Pin(float(value), float(bound))
            for alpha, (value, bound) in (pins or {}).items()}
    fit = _fit(samples, template, pins)
    if partner is None:
        return fit
    return replace(fit, partner=_fit(samples, partner, pins))


def _fit(samples: TraceSamples, template: ExpansionTemplate,
         pins: dict[Fraction, Pin]) -> FittedExpansion:
    """One template's fit for `fit_expansion`."""
    pinned = tuple((alpha, False) for alpha in pins)
    missing = [column_name(key) for key in pinned if key not in template.basis]
    if missing:
        raise ValueError(f"pinned columns {missing} are not in the template")
    free = [key for key in template.basis if key not in pinned]
    t, values = samples.grid, samples.values
    if len(t) < 2 * len(free):
        raise InsufficientSamples(f"{len(t)} samples for {len(free)} fitted basis functions; "
                                  "need 2x")
    coeff, condition, rel_resid, design, resid = _trimmed_fit(
        t, values, free, {alpha: pin.value for alpha, pin in pins.items()})
    if condition > CONDITION_LIMIT:
        raise IllConditioned(f"fit condition estimate {condition:.3g} exceeds {CONDITION_LIMIT:.0e}")
    # worst coefficient shift explained by residuals of the observed size
    sens = np.abs(np.linalg.pinv(design)).sum(axis=1) * float(np.max(np.abs(resid)))
    # each column's coefficient and bound: the pin's own, or the fit's
    columns = {**{(alpha, False): pin for alpha, pin in pins.items()},
               **dict(zip(free, zip(coeff.tolist(), sens.tolist())))}
    return FittedExpansion(
        template=template,
        coefficients={key: columns[key][0] for key in template.basis},
        residual=float(np.max(rel_resid)),
        condition=condition,
        coefficient_bounds={key: columns[key][1] for key in template.basis},
        pinned=pinned,
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
