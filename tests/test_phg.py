"""Index-set calculus: brute-force enumeration is the oracle throughout.

The enumeration oracle (`torsionlab.oracles`, shared with acceptance
criteria 8 and 10) materializes every (exponent, log power) member up to a
cutoff and applies the extended-union rule literally as a set operation;
the generator-based implementation must agree with it exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torsionlab.errors import IntegrabilityViolation
from torsionlab.oracles import (
    brute_extended_union,
    enumerate_members,
    members_of,
)
from torsionlab.phg import (
    ExpansionTemplate,
    IndexSet,
    compose_index,
    heat_trace_structure,
    pushforward_trace_index,
    zeta_pole_structure,
)

F = Fraction
CUT = F(6)


# ------------------------------------------------------------ membership --

def test_membership_closure_semantics():
    e = IndexSet.from_terms([(F(1, 2), 1)])
    assert (F(1, 2), 0) in e
    assert (F(1, 2), 1) in e
    assert (F(5, 2), 1) in e          # +2 under N0-closure
    assert (F(1, 2), 2) not in e      # log power above the generator
    assert (F(-1, 2), 0) not in e     # below the start
    assert (F(1), 0) not in e         # off the progression


def test_step_two_progression():
    e = IndexSet.progression(-3, step=2)
    assert e.contains(-3) and e.contains(-1) and e.contains(5)
    assert not e.contains(-2) and not e.contains(0)
    assert not e.closure
    assert IndexSet.progression(0, step=1).closure
    # a step-1/2 set is still closed under +1
    assert IndexSet.progression(0, step=F(1, 2)).closure


def test_empty_set():
    e = IndexSet.empty()
    assert e.is_empty
    assert e.min_exponent() is None
    assert e.terms_below(100) == []


def test_normalization_prunes_dominated_generators():
    e = IndexSet.from_terms([(0, 0), (1, 0), (3, 0)])
    assert len(e.generators) == 1
    f = IndexSet([(0, 0, 2), (1, 0, 2), (0, 1, 2)])
    assert members_of(f, CUT) == enumerate_members([(0, 1, 2), (1, 0, 2)], CUT)


# -------------------------------------------------------- extended union --

def test_extended_union_disjoint_exponents_is_plain_union():
    e = IndexSet.from_terms([(0, 0)])
    f = IndexSet.from_terms([(1, 0)])
    # 1+N0 is inside 0+N0, so the union collapses, but the coincidence at
    # the shared integers >= 1 creates a log there.
    got = e.extended_union(f)
    assert got.log_order(0) == 0
    assert got.log_order(1) == 1


def test_extended_union_equal_exponent_creates_log():
    e = IndexSet.from_terms([(0, 0)])
    got = e.extended_union(e)
    assert (F(0), 1) in got
    assert got.log_order(0) == 1


def test_extended_union_empty_is_neutral():
    f = IndexSet.from_terms([(F(-1, 2), 1), (0, 0)])
    assert IndexSet.empty().extended_union(f).equals_below(f, CUT)
    assert f.extended_union(IndexSet.empty()).equals_below(f, CUT)


def test_extended_union_incommensurate_steps():
    e = IndexSet.progression(-1, step=1)          # integers >= -1
    f = IndexSet.progression(F(-1, 2), step=1)    # half-odd-integers
    got = e.extended_union(f)
    assert got.log_order(2) == 0
    assert got.log_order(F(3, 2)) == 0
    # no exponent lies in both progressions: no logs anywhere
    assert all(t.logpower == 0 for t in got.terms_below(10))


def test_shift_examples():
    assert IndexSet.from_terms([(F(1, 2), 0)]).shift(1).contains(F(3, 2))
    assert IndexSet.empty().shift(5).is_empty
    e = IndexSet.from_terms([(0, 1)]).shift(F(-1, 2))
    assert e.log_order(F(-1, 2)) == 1


GEN = st.tuples(
    st.sampled_from([F(n, 2) for n in range(-4, 9)]),
    st.integers(0, 2),
    st.sampled_from([F(1), F(2), F(1, 2)]),
)
GENS = st.lists(GEN, max_size=3)


@given(GENS)
@settings(max_examples=200)
def test_membership_matches_enumeration(gens):
    assert members_of(IndexSet(gens), CUT) == enumerate_members(gens, CUT)


@given(GENS, GENS)
@settings(max_examples=200)
def test_extended_union_matches_bruteforce(a, b):
    got = members_of(IndexSet(a).extended_union(IndexSet(b)), CUT)
    want = brute_extended_union(enumerate_members(a, CUT), enumerate_members(b, CUT))
    assert got == want


@given(GENS, GENS)
@settings(max_examples=100)
def test_extended_union_commutes_and_contains_union(a, b):
    ea, eb = IndexSet(a), IndexSet(b)
    ab, ba = ea.extended_union(eb), eb.extended_union(ea)
    assert ab.equals_below(ba, CUT)
    assert members_of(ea.union(eb), CUT) <= members_of(ab, CUT)


@given(GENS, GENS, GENS)
@settings(max_examples=60)
def test_extended_union_associative(a, b, c):
    ea, eb, ec = IndexSet(a), IndexSet(b), IndexSet(c)
    left = ea.extended_union(eb).extended_union(ec)
    right = ea.extended_union(eb.extended_union(ec))
    assert left.equals_below(right, CUT)


@given(GENS, st.sampled_from([F(n, 2) for n in range(-3, 4)]),
       st.sampled_from([F(n, 2) for n in range(-3, 4)]))
@settings(max_examples=100)
def test_shift_composes_additively(gens, c1, c2):
    e = IndexSet(gens)
    assert e.shift(c1).shift(c2).equals_below(e.shift(c1 + c2), CUT)


@given(GENS, GENS, st.sampled_from([F(n, 2) for n in range(-2, 3)]))
@settings(max_examples=100)
def test_shift_distributes_over_extended_union(a, b, c):
    ea, eb = IndexSet(a), IndexSet(b)
    lhs = ea.extended_union(eb).shift(c)
    rhs = ea.shift(c).extended_union(eb.shift(c))
    assert lhs.equals_below(rhs, CUT)


@given(GENS)
@settings(max_examples=60)
def test_scale_composes_multiplicatively(gens):
    e = IndexSet(gens)
    half = e.scale(F(1, 2))
    quarter = half.scale(F(1, 2))
    assert quarter.equals_below(e.scale(F(1, 4)), CUT)
    # scaling preserves log powers
    for t in e.terms_below(CUT):
        assert half.log_order(t.exponent / 2) >= t.logpower


# ------------------------------------------------------------ composition --

def test_compose_index_halfinteger_example():
    half = IndexSet.from_terms([(F(1, 2), 0)])
    got = compose_index(2, 3, half, half, half, half)
    # P_lf = {1/2}-closure extended-union {7/2}-closure: 7/2 sits in both
    assert (F(1, 2), 0) in got.p_lf
    assert (F(7, 2), 1) in got.p_lf
    assert not got.p_lf.contains(F(5, 2), 1)
    # P_rf = {1/2} ext-union {5/2}: coincidence from 5/2 onward
    assert (F(5, 2), 1) in got.p_rf
    assert not got.p_rf.contains(F(3, 2), 1)
    assert got.ff_order == 5


def test_compose_index_empty_sets():
    e = IndexSet.empty()
    got = compose_index(0, 0, e, e, e, e)
    assert got.p_lf.is_empty and got.p_rf.is_empty and got.ff_order == 0


def test_compose_index_integrability_violation():
    bad_lf = IndexSet.from_terms([(-1, 0)])
    bad_rf = IndexSet.from_terms([(F(-1, 2), 0)])
    ok = IndexSet.from_terms([(F(1, 2), 0)])
    with pytest.raises(IntegrabilityViolation):
        compose_index(0, 0, bad_lf, ok, ok, bad_rf)


# ------------------------------------------------------------ pushforward --

def test_pushforward_m3_b1():
    got = pushforward_trace_index(
        IndexSet.progression(-3, step=2), IndexSet.progression(-2, step=1))
    # exponents {l - 3/2} union {(l-2)/2}
    for e in (F(-3, 2), F(-1), F(-1, 2), F(0), F(1, 2)):
        assert got.contains(e)
    # logs exactly at half-integers >= -1/2
    assert got.log_order(F(-1, 2)) == 1
    assert got.log_order(F(1, 2)) == 1
    assert got.log_order(F(-3, 2)) == 0
    assert got.log_order(F(-1)) == 0
    assert got.log_order(F(0)) == 0


def test_pushforward_empty_td():
    g_ff = IndexSet.progression(-2, step=1)
    got = pushforward_trace_index(IndexSet.empty(), g_ff)
    assert got.equals_below(g_ff.scale(F(1, 2)), CUT)
    assert all(t.logpower == 0 for t in got.terms_below(CUT))


def test_pushforward_even_m2_b0():
    """Halved sets {-1 + N0} and {-1/2 + N0} never coincide: no logs.

    With the density-shifted edge set 2*N0 the coincidences sit at every
    nonnegative integer, reproducing the even-case log pattern of the trace
    expansion for m - b even.
    """
    raw = pushforward_trace_index(
        IndexSet.progression(-2, step=2), IndexSet.progression(-1, step=2))
    assert all(t.logpower == 0 for t in raw.terms_below(CUT))

    corrected = pushforward_trace_index(
        IndexSet.progression(-2, step=2), IndexSet.progression(0, step=2))
    for n in range(0, 5):
        assert corrected.log_order(F(n)) == 1
    assert corrected.log_order(F(-1)) == 0
    assert corrected.log_order(F(-1, 2)) is None


# ------------------------------------------------------------- templates --

def test_heat_trace_structure_m3_b1():
    tpl = heat_trace_structure(3, 1)
    assert tpl.log_exponents == tuple(F(2 * k - 1, 2) for k in range(4))
    assert F(-3, 2) in tpl.exponents
    assert all(t.source in ("td", "ff", "bdry") for t in tpl.terms)


def test_heat_trace_structure_even_parity_rule():
    # no logs iff m - b odd, in the even calculus
    for m in range(2, 9):
        for b in range(0, m - 1):
            tpl = heat_trace_structure(m, b, even=True)
            if (m - b) % 2 == 1:
                assert tpl.log_exponents == ()
            else:
                assert tpl.log_exponents != ()
    assert heat_trace_structure(3, 0, even=True).log_exponents == ()


def test_heat_trace_structure_halfline_with_boundary():
    tpl = heat_trace_structure(1, 0, even=True, boundary=True)
    assert tpl.log_exponents == ()
    assert tpl.exponents[:4] == (F(-1, 2), F(0), F(1, 2), F(1))


def test_heat_trace_structure_boundary_adds_halfinteger_series():
    plain = heat_trace_structure(2, 0, even=True)
    with_b = heat_trace_structure(2, 0, even=True, boundary=True)
    assert F(-1, 2) not in plain.exponents
    assert F(-1, 2) in with_b.exponents
    # the boundary series must not create new logs
    assert plain.log_exponents == with_b.log_exponents


def test_heat_trace_structure_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        heat_trace_structure(2, 3)
    with pytest.raises(ValueError):
        heat_trace_structure(0, 0)


def test_template_serialization_roundtrip_fields():
    tpl = heat_trace_structure(3, 1, even=False, boundary=True)
    d = tpl.to_json_dict()
    assert d["m"] == 3 and d["b"] == 1 and d["even"] is False
    assert all(set(t) == {"exp", "log", "source"} for t in d["terms"])
    exps = [F(t["exp"]) for t in d["terms"]]
    assert exps == sorted(exps)


def test_without_logs_keeps_only_the_named_log_columns():
    """The m = 2 template's log columns sit at 0, 1, 2 and 3; the pipeline's
    partner keeps the one at 0, and its order-2 fit keeps none."""
    tpl = heat_trace_structure(2, 0, even=True, boundary=True, cutoff=3)
    assert tpl.log_exponents == (0, 1, 2, 3)
    for keep, logs in (((), ()), ((0,), (0,)), ((F(1, 2), 1), (1,))):
        stripped = tpl.without_logs(keep=keep)
        assert stripped.exponents == tpl.exponents and stripped.log_exponents == logs
        assert [t.source for t in stripped.terms] == [t.source for t in tpl.terms]


def test_template_invariants():
    with pytest.raises(ValueError):
        ExpansionTemplate.from_terms([(0, False), (0, True)])


# ------------------------------------------------------------ zeta poles --

def test_zeta_pole_structure_simple_template():
    tpl = ExpansionTemplate.from_terms([(F(-1, 2), False), (0, False)])
    rep = zeta_pole_structure(tpl)
    assert rep.poles == ((F(1, 2), 1),)
    assert rep.regular_at_zero
    assert not rep.zeta0_coefficient_zero
    assert "dim ker" in rep.zeta0_rule
    # Gamma(s)*zeta(s) still shows the t^0 pole at s = 0
    assert (F(0), 1) in rep.gamma_zeta_poles


def test_zeta_regular_at_zero_for_even_odd_m():
    for m in range(3, 9, 2):
        for b in range(0, m - 1):
            rep = zeta_pole_structure(heat_trace_structure(m, b, even=True))
            assert rep.regular_at_zero


def test_zeta0_vanishes_for_even_odd_m_odd_b():
    for m in range(3, 9, 2):
        for b in range(1, m - 1, 2):
            rep = zeta_pole_structure(heat_trace_structure(m, b, even=True))
            assert rep.zeta0_coefficient_zero


def test_zeta_log_at_zero_gives_pole():
    tpl = ExpansionTemplate.from_terms([(0, True)])
    rep = zeta_pole_structure(tpl)
    assert not rep.regular_at_zero
    assert (F(0), 1) in rep.poles
    assert (F(0), 2) in rep.gamma_zeta_poles
