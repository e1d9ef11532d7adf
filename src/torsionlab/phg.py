"""Exact calculus of polyhomogeneous index sets.

An index set collects the pairs (exponent, log power) allowed in an
asymptotic expansion at one boundary face.  Sets are represented by a
finite list of generators, each describing an arithmetic progression of
exponents together with a maximal log power:

    generator (a, p, s)  ->  members (a + k*s, q) for k in N0, 0 <= q <= p.

The default step s = 1 is the usual closure under exponent + 1; steps
other than 1 are needed to represent parity-constrained sets such as
-m + 2*N0 exactly.  All exponents are `fractions.Fraction`; coincidence
detection (which is what creates log terms) is exact rational arithmetic,
never floating point.

The module also derives, purely symbolically, the short-time heat-trace
template of the model spaces and the pole structure of the associated
zeta functions near s = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import IntegrabilityViolation

Rational = Fraction | int
ORDER_CUTOFF_DEFAULT = Fraction(3)


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational required, got {type(x).__name__}")


@dataclass(frozen=True, order=True)
class IndexTerm:
    """One (exponent, log power) pair of an index set."""

    exponent: Fraction
    logpower: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", _frac(self.exponent))
        if self.logpower < 0:
            raise ValueError("logpower must be nonnegative")


@dataclass(frozen=True, order=True)
class _Gen:
    """Internal generator: exponents start + step*N0, log powers <= logpower."""

    start: Fraction
    logpower: int
    step: Fraction

    def covers(self, other: "_Gen") -> bool:
        """Whether every member of `other` is a member via `self`."""
        if other.logpower > self.logpower:
            return False
        d = other.start - self.start
        if d < 0 or (d / self.step).denominator != 1:
            return False
        return (other.step / self.step).denominator == 1

    def contains_exponent(self, e: Fraction) -> bool:
        d = e - self.start
        return d >= 0 and (d / self.step).denominator == 1


def _progression_intersection(g: _Gen, h: _Gen) -> tuple[Fraction, Fraction] | None:
    """Intersection of two exponent progressions, as (start, step), or None.

    Solves z = g.start + i*g.step = h.start + j*h.step over i, j in N0 by
    scaling to integers and applying the CRT.
    """
    den = math.lcm(g.start.denominator, h.start.denominator,
                   g.step.denominator, h.step.denominator)
    a, s = g.start * den, g.step * den
    b, u = h.start * den, h.step * den
    a, s, b, u = int(a), int(s), int(b), int(u)
    gcd = math.gcd(s, u)
    if (a - b) % gcd != 0:
        return None
    # z = a + s*t with s*t = b - a (mod u)
    t0 = ((b - a) // gcd * pow(s // gcd, -1, u // gcd)) % (u // gcd)
    z = a + s * t0
    step = s // gcd * u
    lo = max(a, b)
    if z < lo:
        z += (lo - z + step - 1) // step * step
    return Fraction(z, den), Fraction(step, den)


class IndexSet:
    """Finite-generator representation of a polyhomogeneous index set.

    Membership is decidable and computed from the generators; the set
    itself is infinite unless empty.  Instances are immutable.
    """

    __slots__ = ("_gens",)

    def __init__(self, generators: Iterable[tuple[Rational, int] | tuple[Rational, int, Rational]] = ()):
        gens = []
        for g in generators:
            if len(g) == 2:
                start, logp = g
                step: Rational = 1
            else:
                start, logp, step = g
            step = _frac(step)
            if step <= 0:
                raise ValueError("generator step must be positive")
            if logp < 0:
                raise ValueError("logpower must be nonnegative")
            gens.append(_Gen(_frac(start), int(logp), step))
        self._gens = self._normalize(gens)

    @staticmethod
    def _normalize(gens: list[_Gen]) -> tuple[_Gen, ...]:
        gens = sorted(set(gens))
        kept: list[_Gen] = []
        for g in gens:
            if any(h != g and h.covers(g) for h in gens):
                continue
            kept.append(g)
        return tuple(kept)

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls) -> "IndexSet":
        return cls(())

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Rational, int]]) -> "IndexSet":
        """Step-1 generators: the plain N0-closure semantics."""
        return cls((e, p) for e, p in terms)

    @classmethod
    def progression(cls, start: Rational, step: Rational = 1, logpower: int = 0) -> "IndexSet":
        """The set start + step*N0 with log powers up to `logpower`."""
        return cls([(start, logpower, step)])

    # -- queries ---------------------------------------------------------

    @property
    def generators(self) -> tuple[IndexTerm, ...]:
        return tuple(IndexTerm(g.start, g.logpower) for g in self._gens)

    @property
    def is_empty(self) -> bool:
        return not self._gens

    @property
    def closure(self) -> bool:
        """True when the set is closed under exponent + 1 (and nonempty)."""
        return bool(self._gens) and all(
            (1 / g.step).denominator == 1 for g in self._gens
        )

    def log_order(self, exponent: Rational) -> int | None:
        """Maximal log power at `exponent`, or None when absent."""
        e = _frac(exponent)
        powers = [g.logpower for g in self._gens if g.contains_exponent(e)]
        return max(powers) if powers else None

    def contains(self, exponent: Rational, logpower: int = 0) -> bool:
        p = self.log_order(exponent)
        return p is not None and logpower <= p

    def __contains__(self, term: tuple[Rational, int] | IndexTerm) -> bool:
        if isinstance(term, IndexTerm):
            return self.contains(term.exponent, term.logpower)
        return self.contains(*term)

    def min_exponent(self) -> Fraction | None:
        if not self._gens:
            return None
        return min(g.start for g in self._gens)

    def terms_below(self, cutoff: Rational) -> list[IndexTerm]:
        """All (exponent, max log power) pairs with exponent <= cutoff."""
        cut = _frac(cutoff)
        best: dict[Fraction, int] = {}
        for g in self._gens:
            e = g.start
            while e <= cut:
                if best.get(e, -1) < g.logpower:
                    best[e] = g.logpower
                e += g.step
        return [IndexTerm(e, p) for e, p in sorted(best.items())]

    def equals_below(self, other: "IndexSet", cutoff: Rational) -> bool:
        return self.terms_below(cutoff) == other.terms_below(cutoff)

    def __repr__(self):
        gens = ", ".join(
            f"({g.start}, {g.logpower})" if g.step == 1 else f"({g.start}, {g.logpower}; step {g.step})"
            for g in self._gens
        )
        return f"IndexSet[{gens}]"

    # -- operations -------------------------------------------------------

    def union(self, other: "IndexSet") -> "IndexSet":
        out = IndexSet.empty()
        out._gens = self._normalize(list(self._gens) + list(other._gens))
        return out

    def shift(self, c: Rational) -> "IndexSet":
        c = _frac(c)
        out = IndexSet.empty()
        out._gens = tuple(_Gen(g.start + c, g.logpower, g.step) for g in self._gens)
        return out

    def scale(self, factor: Rational) -> "IndexSet":
        """Multiply all exponents (and steps) by a positive rational."""
        f = _frac(factor)
        if f <= 0:
            raise ValueError("scale factor must be positive")
        out = IndexSet.empty()
        out._gens = self._normalize(
            [_Gen(g.start * f, g.logpower, g.step * f) for g in self._gens]
        )
        return out

    def extended_union(self, other: "IndexSet") -> "IndexSet":
        """Union plus (z, p+q+1) wherever an exponent z lies in both sets."""
        gens = list(self._gens) + list(other._gens)
        for g in self._gens:
            for h in other._gens:
                meet = _progression_intersection(g, h)
                if meet is not None:
                    start, step = meet
                    gens.append(_Gen(start, g.logpower + h.logpower + 1, step))
        out = IndexSet.empty()
        out._gens = self._normalize(gens)
        return out


@dataclass(frozen=True)
class CompositionIndex:
    """Index family of a composition of two heat-calculus elements."""

    p_lf: IndexSet
    p_rf: IndexSet
    ff_order: int


def compose_index(l: int, l_prime: int,
                  e_lf: IndexSet, e_rf: IndexSet,
                  e2_lf: IndexSet, e2_rf: IndexSet) -> CompositionIndex:
    """Side-face index sets of a composition at front-face orders l, l'.

    The inner integral converges only when the left factor's lf set and the
    right factor's rf set together stay integrable: min exponents must sum
    to more than -1.  Empty sets (infinite-order vanishing) never obstruct.
    """
    a, b = e_lf.min_exponent(), e2_rf.min_exponent()
    if a is not None and b is not None and a + b <= -1:
        raise IntegrabilityViolation(
            f"E_lf + E'_rf = {a} + {b} <= -1: pushforward integral diverges"
        )
    return CompositionIndex(
        p_lf=e2_lf.extended_union(e_lf.shift(l_prime)),
        p_rf=e_rf.extended_union(e2_rf.shift(l)),
        ff_order=l + l_prime,
    )


def pushforward_trace_index(g_td: IndexSet, g_ff: IndexSet) -> IndexSet:
    """Time-expansion index set of a trace pushforward.

    Halves all exponents of the two face index sets and takes their
    extended union; a coincidence of halved exponents is exactly what
    produces a log term.  Integrability at the corner face is the caller's
    responsibility.
    """
    return g_td.scale(Fraction(1, 2)).extended_union(g_ff.scale(Fraction(1, 2)))


@dataclass(frozen=True)
class TemplateTerm:
    """One power of t in an expansion template.

    `haslog` means the basis contains t^exponent * log t alongside the
    pure power t^exponent.
    """

    exponent: Fraction
    haslog: bool
    source: str  # "td" | "ff" | "bdry"


@dataclass(frozen=True)
class ExpansionTemplate:
    """Truncated list of powers (and log flags) expected in a heat trace."""

    terms: tuple[TemplateTerm, ...]
    m: int
    b: int
    even: bool

    def __post_init__(self):
        exps = [t.exponent for t in self.terms]
        if exps != sorted(set(exps)):
            raise ValueError("template exponents must be strictly increasing")

    @property
    def exponents(self) -> tuple[Fraction, ...]:
        return tuple(t.exponent for t in self.terms)

    @property
    def log_exponents(self) -> tuple[Fraction, ...]:
        return tuple(t.exponent for t in self.terms if t.haslog)

    @property
    def basis(self) -> tuple[tuple[Fraction, bool], ...]:
        """The fit basis as (exponent, is_log) keys: t^a, then t^a log t
        where the term carries a log, in the order of the terms."""
        return tuple((t.exponent, is_log) for t in self.terms
                     for is_log in ((False, True) if t.haslog else (False,)))

    @property
    def basis_size(self) -> int:
        return len(self.basis)

    def without_logs(self, keep: Sequence[Rational] = ()) -> "ExpansionTemplate":
        """The same powers with no log column, except at the exponents in
        `keep` where the template has one."""
        keep = {_frac(e) for e in keep}
        return replace(self, terms=tuple(replace(t, haslog=t.haslog and t.exponent in keep)
                                         for t in self.terms))

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"exp": str(t.exponent), "log": t.haslog, "source": t.source}
                for t in self.terms
            ],
            "m": self.m,
            "b": self.b,
            "even": self.even,
        }

    @classmethod
    def from_terms(cls, terms: Sequence[tuple[Rational, bool]], m: int = 0,
                   b: int = 0, even: bool = False, source: str = "ff") -> "ExpansionTemplate":
        """Ad-hoc template from explicit (exponent, haslog) pairs."""
        tt = tuple(TemplateTerm(_frac(e), bool(lg), source) for e, lg in terms)
        return cls(terms=tt, m=m, b=b, even=even)


def heat_trace_structure(m: int, b: int, even: bool = False, boundary: bool = False,
                         cutoff: Rational = ORDER_CUTOFF_DEFAULT) -> ExpansionTemplate:
    """Predicted powers of t in Tr e^{-t Laplacian} for the model spaces.

    The interior face contributes t^(l - m/2); the edge face contributes
    t^((l-b)/2), or t^(l - b/2) in the even case, with log terms exactly at
    the coincidences of the two halved index sets.  With `boundary` set,
    the half-integer series (l+1-m)/2 of a smooth Dirichlet boundary is
    merged in by plain union: the artificial truncation at x = 1 adds
    clean boundary terms but no log interaction.
    """
    f = m - b - 1
    if m < 1 or b < 0 or f < 0:
        raise ValueError(f"invalid dimensions: need m >= 1 and 0 <= b <= m-1, got m={m}, b={b}")
    cut = _frac(cutoff)

    g_td = IndexSet.progression(-m, step=2)
    # The trace integrand has index -1-b+N0 at the edge face; the b-density
    # bookkeeping of the pushforward shifts it by +1 before halving.
    g_ff = IndexSet.progression(-b, step=2 if even else 1)
    t_index = pushforward_trace_index(g_td, g_ff)

    td_half = g_td.scale(Fraction(1, 2))
    ff_half = g_ff.scale(Fraction(1, 2))
    bdry = IndexSet.progression(Fraction(1 - m, 2), step=Fraction(1, 2)) if boundary \
        else IndexSet.empty()
    full = t_index.union(bdry)

    terms = []
    for term in full.terms_below(cut):
        e = term.exponent
        if ff_half.contains(e):
            source = "ff"
        elif td_half.contains(e):
            source = "td"
        else:
            source = "bdry"
        terms.append(TemplateTerm(e, term.logpower > 0, source))
    return ExpansionTemplate(terms=tuple(terms), m=m, b=b, even=even)


@dataclass(frozen=True)
class ZetaPoleReport:
    """Symbolic pole structure of one zeta function near s = 0.

    `poles` lists poles of zeta(s) itself; `gamma_zeta_poles` lists poles
    of Gamma(s)*zeta(s), which is what the Mellin transform of the template
    produces term by term before dividing by Gamma.
    """

    poles: tuple[tuple[Fraction, int], ...]
    gamma_zeta_poles: tuple[tuple[Fraction, int], ...]
    regular_at_zero: bool
    zeta0_coefficient_zero: bool
    zeta0_rule: str

    def to_json_dict(self) -> dict:
        return {
            "poles": [{"s": str(s), "order": o} for s, o in self.poles],
            "gamma_zeta_poles": [{"s": str(s), "order": o} for s, o in self.gamma_zeta_poles],
            "regular_at_zero": self.regular_at_zero,
            "zeta0_coefficient_zero": self.zeta0_coefficient_zero,
            "zeta0_rule": self.zeta0_rule,
        }


def zeta_pole_structure(tpl: ExpansionTemplate) -> ZetaPoleReport:
    """Poles of the zeta function determined by a heat-trace template.

    Each power t^alpha feeds 1/(s+alpha) into Gamma(s)*zeta(s), each
    t^alpha log t feeds -1/(s+alpha)^2.  Dividing by Gamma(s) removes one
    pole order at every nonpositive integer s, so a pure power at a
    nonnegative-integer exponent produces no pole of zeta itself.
    """
    gamma_poles = []
    zeta_poles = []
    for term in tpl.terms:
        loc = -term.exponent
        order = 2 if term.haslog else 1
        gamma_poles.append((loc, order))
        # s = 0, -1, -2, ... are poles of Gamma: zeta loses one order there.
        at_gamma_pole = loc.denominator == 1 and loc <= 0
        zeta_order = order - 1 if at_gamma_pole else order
        if zeta_order > 0:
            zeta_poles.append((loc, zeta_order))
    has_t0 = any(t.exponent == 0 for t in tpl.terms)
    log_at_zero = any(t.exponent == 0 and t.haslog for t in tpl.terms)
    return ZetaPoleReport(
        poles=tuple(sorted(zeta_poles, reverse=True)),
        gamma_zeta_poles=tuple(sorted(gamma_poles, reverse=True)),
        regular_at_zero=not log_at_zero,
        zeta0_coefficient_zero=not has_t0,
        zeta0_rule="zeta(0) = (coefficient of t^0 in the trace expansion) - dim ker",
    )

