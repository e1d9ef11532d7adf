"""Test oracle: the T^2 cone's heat coefficients from the Bordag-Kirsten-Dowker residues.

The coefficient of t^alpha in the heat trace of the cone over the flat torus
N = T^2, cut at x = 1 with a Dirichlet condition, is Res_{s=-alpha}
Gamma(s) zeta(s) (Bordag-Kirsten-Dowker, CMP 182 (1996) 371;
Bordag-Elizalde-Kirsten, J. Math. Phys. 37 (1996) 895), with

    Gamma(s) zeta(s) = Gamma(s - 1/2) / (4 sqrt(pi) s) zeta_N(s - 1/2)
                       - Gamma(s) zeta_N(s) / 4
                       - sum_i zeta_N(s + i/2) sum_b x_(i,b) Gamma(s + b + i/2) / Gamma(b + i/2)
                       + Gamma(s) Z(s),

zeta_N(s) = sum_nu d(nu) nu^(-2s) over the degree's Bessel orders, and
D_i(t) = sum_b x_(i,b) t^(i + 2b) the terms of log(1 + sum_k U_k(t) nu^-k)
(`bessel._u_polynomials`).  Z(s) is analytic where these residues are
taken.  Degree 0's orders are mu = sqrt(|kappa|^2 + 1/4), so zeta_N(s) =
(A/4 pi) 4^(s-1) / (s - 1) plus a K-Bessel lattice part with a factor
1 / Gamma(s): A/(4 pi) is its residue at s = 1, and at s = -n it is
-(A/4 pi) 4^(-n-1) / (n + 1), A = L1 L2.  Degree 1's orders are mu, mu + 1
and |mu - 1|; binomial shifts give its residue and values exactly at these
integer points.  Every residue but the t^0 one needs zeta_N only there, so
each coefficient is an exact rational times A / pi^(3/2) (half-integer
alpha) or A / pi (integer alpha), in exact `Fraction`s: a residue that
would need zeta_N elsewhere raises.  The package pins these coefficients
from a table (`conekernel.heat_pins`); this derivation is kept only as the
reference that the table is right.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from torsionlab.bessel import _u_polynomials

HALF = Fraction(1, 2)


class Exact:
    """q pi^(p/2): a rational q and an integer power p of sqrt(pi)."""

    def __init__(self, q, p: int = 0):
        self.q, self.p = Fraction(q), p

    def __mul__(self, other: "Exact") -> "Exact":
        return Exact(self.q * other.q, self.p + other.p)

    def __add__(self, other: "Exact") -> "Exact":
        if self.q == 0:
            return other
        if other.q != 0 and other.p != self.p:
            raise ValueError("sum of different powers of pi")
        return Exact(self.q + other.q, self.p)


def _gamma(z: Fraction) -> Exact:
    """Gamma(z) at an integer z > 0 or a half-integer z."""
    if z.denominator == 1:
        if z <= 0:
            raise ValueError(f"Gamma has a pole at {z}")
        return Exact(math.factorial(int(z) - 1))
    value = Exact(1, 1)                        # Gamma(1/2) = sqrt(pi)
    for k in range(int(abs(z - HALF))):        # Gamma(z + 1) = z Gamma(z)
        value = value * Exact(HALF + k) if z > 0 else value * Exact(1 / (-HALF - k))
    return value


def _gamma_part(z: Fraction) -> tuple[Exact, Exact]:
    """(residue, value) of Gamma near z: the residue (-1)^n / n! at z = -n,
    else the value."""
    if z.denominator == 1 and z <= 0:
        n = int(-z)
        return Exact(Fraction((-1) ** n, math.factorial(n))), Exact(0)
    return Exact(0), _gamma(z)


def _log_terms(order: int) -> list[dict[int, Fraction]]:
    """D_1 .. D_order as {power of t: coefficient}: the terms of
    log(1 + w), w = sum_k U_k(t) e^k, e = 1/nu, as sum_m (-1)^(m+1) w^m / m
    in powers of e."""
    u = [dict(enumerate(c)) for c in _u_polynomials(order)]

    def times(a, b):
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                out[i + j] = out.get(i + j, 0) + x * y
        return out

    # w^m as a list over powers of e, each a polynomial in t; w has no e^0 term
    power, logs = [{0: Fraction(1)}] + [{}] * order, [{} for _ in range(order + 1)]
    for m in range(1, order + 1):
        power = [_sum(times(power[j], u[i - j]) for j in range(i)) for i in range(order + 1)]
        sign = Fraction((-1) ** (m + 1), m)
        logs = [_sum([old, {p: sign * c for p, c in new.items()}])
                for old, new in zip(logs, power)]
    return logs[1:]


def _sum(polys) -> dict[int, Fraction]:
    out = {}
    for poly in polys:
        for p, c in poly.items():
            out[p] = out.get(p, 0) + c
    return out


# degree 0's zeta_N: its residue at s = 1, in units A / pi, and its value at s = -n
RESIDUE = Fraction(1, 4)


def _plain(n: int) -> Fraction:
    return -RESIDUE / (4 ** (n + 1) * (n + 1))


class FiberZeta:
    """zeta_N of one degree's Bessel orders, where it is exact: its residue
    at s = 1 and its values at s = 0, -1, -2, ..., in units A / pi."""

    def __init__(self, degree: int):
        self.shifted = degree in (1, 2)

    def residue(self) -> Fraction:
        return 3 * RESIDUE if self.shifted else RESIDUE

    def value(self, s: Fraction) -> Fraction:
        if s.denominator != 1 or s > 0:
            raise ValueError(f"zeta_N({s}) needs the lattice sum")
        n = int(-s)
        if not self.shifted:
            return _plain(n)
        # (mu +- 1)^(-2s) = sum_j C(-2s, j) (+-1)^j mu^(-2s-j): the odd j
        # cancel between the two, the even j <= 2n are values, the larger j
        # vanish, but for j = 2n + 2: C(-2s, j) ~ 2 (s + n) / ((2n + 2)(2n + 1))
        # meets the pole RESIDUE / (s + n) of zeta_N(s + n + 1)
        shifts = sum(math.comb(2 * n, j) * _plain(n - j // 2) for j in range(2, 2 * n + 1, 2)) \
            + 2 * RESIDUE / ((2 * n + 2) * (2 * n + 1))
        return 3 * _plain(n) + 2 * shifts


def _term(zeta: FiberZeta, at: Fraction, gamma_residue: Exact, gamma_value: Exact) -> Exact:
    """Res at s0 of g(s) zeta_N(s + c), s0 + c = `at`, where g has a simple
    pole of residue `gamma_residue` or else the value `gamma_value`.  In
    units A."""
    pi_inv = Exact(1, -2)
    if at == 1:
        if gamma_residue.q != 0:
            raise ValueError("double pole")
        return gamma_value * Exact(zeta.residue()) * pi_inv
    if gamma_residue.q == 0:
        return Exact(0)
    return gamma_residue * Exact(zeta.value(at)) * pi_inv


@functools.lru_cache(maxsize=None)
def torus_cone_coefficient(alpha: Fraction, degree: int) -> Exact:
    """The coefficient of t^alpha in degree 0 .. 3, in units A = L1 L2
    (degree 3 is degree 0's Hodge dual, and 2 is 1's).  The t^0 one raises:
    it needs zeta_N(-1/2), the lattice sum."""
    zeta, s0 = FiberZeta(degree), -Fraction(alpha)
    # Gamma(s - 1/2) / (4 sqrt(pi) s) zeta_N(s - 1/2); at s = 0 its pole is 1/s's
    if s0 == 0:
        res, val = _gamma(-HALF) * Exact(Fraction(1, 4), -1), Exact(0)
    else:
        res, val = (x * Exact(1 / (4 * s0), -1) for x in _gamma_part(s0 - HALF))
    total = _term(zeta, s0 - HALF, res, val)
    # -Gamma(s) zeta_N(s) / 4
    res, val = _gamma_part(s0)
    total = total + _term(zeta, s0, res * Exact(Fraction(-1, 4)), val * Exact(Fraction(-1, 4)))
    # only i <= 2 alpha + 2 can have a pole at s0: zeta_N(s0 + i/2) at
    # s0 + i/2 = 1, or Gamma(s0 + b + i/2) at 0, -1, ...
    order = max(int(2 * alpha) + 2, 0)
    for i, d in enumerate(_log_terms(order), start=1):
        for b in range(i + 1):
            x = d.get(i + 2 * b, 0)
            if x == 0:
                continue
            res, val = _gamma_part(s0 + b + Fraction(i, 2))
            gamma = _gamma(b + Fraction(i, 2))
            scale = Exact(-x / gamma.q, -gamma.p)
            total = total + _term(zeta, s0 + Fraction(i, 2), res * scale, val * scale)
    return total
