"""Every References case that the fit route runs must lie within its bound.

The whole-model values are ROADMAP's References table: Weisberger's disk,
circle cones of radius r computed in mpmath at 25-30 digits, the cone over
the square 2 pi-torus (T^2), and one radial order nu with its closed forms
zeta(0) = -(2 nu + 1)/4 and zeta'(0) = nu log 2 + log Gamma(nu + 1)
- (1/2) log 2 pi.  The circle cones' zeta(0) are closed forms too.  Hodge
duality maps degree k to m - k, so a model's reference has one entry per
dual pair.

Both zeta(0) and zeta'(0) are asserted.  On T^2 the fit's zeta(0) missed
its own bound until the bound carried the fit's truncation bias, the
spread between the order-2 fit and its order-3 partner.  T^2 runs from
t_min 2e-2 down: at 3e-2 and above no sample lies in the fit window
t <= 1/36, and torsion refuses the run (tests/test_cli.py).  At 2e-2 the
order-2 fit's bound needs more than the spread: with three pins it
missed until it carried the partner's own bound too, up to the spread.

The circle cones' zeta(0) are the closed forms the fit pins at t^0, so
their check holds by construction; the oracle row heat_coefficients_pinned
measures the pin by a free fit, and with it and a_(5/2) pinned every
circle cone's zeta'(0) bound is at most 4e-10.  T^2's zeta(0) is pinned
too, to a float64 lattice sum whose own bound makes zeta0_bound about
1e-15, tighter than the earlier 10-digit reference; so the reference
has 15 decimals, from an mpmath Chowla-Selberg oracle here, and the
10-digit values are kept as an independent check within 5e-11.  Its
t^(1/2), t^1 and t^(3/2) are pinned to exact rationals, which
tests/heat_coefficient_oracle.py derives; with them T^2's log T bound at
t_min 1e-2 is at most 3e-6.

The circle products' zeta(0) is the Dirichlet a_(3/2) coefficient
C(3, k) L r / 256, which the fit pins; the oracle row
heat_coefficients_pinned measures it by a free fit.  Their log T has the
closed form of ROADMAP item 7's identity over the cone's spectrum (the
oracle row circle_product_identity), whose values at two radii and two
base lengths each lie within log_torsion_bound, with every degree's
zeta'(0) bound at most 1e-6 and at most 1.25 times its measured value.
Their zeta(0) bound charges only the pin's rounding.

The products over a flat T^2 base, and the circle base over the T^2 cone,
have log T = 0 exactly (Kunneth and Hodge); those zeros are their only
log T references, held here and by the oracle row zero_log_torsion.
"""

import json
import math

import mpmath
import pytest

from torsionlab import conekernel, oracles
from torsionlab.cli import Pipeline, main

T2 = ["--fiber", "torus", "--periods", "6.283185307179586", "6.283185307179586"]
# zeta(0) to 15 decimals (`_chowla_selberg_zeta0`), zeta'(0) to 10
T2_REFERENCE = ((0.337620444906454, -1.057934992075533), (0.2280004067, -5.1266568546))
# the earlier re-anchors' 10-digit zeta(0), computed independently
T2_ZETA0_10_DIGITS = (0.3376204449, -1.0579349921)

# flags, (zeta(0) per dual pair, zeta'(0) per dual pair)
CASES = {
    "disk": ([], ((1 / 6, 1 / 3), (0.7737138522837891, 1.547427704567578))),
    "r=0.5": (["--radius", "0.5"],
              ((5 / 24, -1 / 12), (0.3264658073242719, 0.8944960899190343))),
    "r=1.5": (["--radius", "1.5"],
              ((13 / 72, 7 / 36), (1.183287092211096, 2.411968994211762))),
    "r=2": (["--radius", "2"],
            ((5 / 24, 5 / 12), (1.586850722837555, 3.173701445675110))),
    "r=2.3": (["--radius", "2.3"],
              ((0.2278985507246377, 0.3644927536231884), (1.827970529142203, 3.678503678467674))),
    "T2 at 2e-2": (T2 + ["--t-min", "2e-2"], T2_REFERENCE),
    "T2 at 1.5e-2": (T2 + ["--t-min", "1.5e-2"], T2_REFERENCE),
    "T2 at 1e-2": (T2 + ["--t-min", "1e-2"], T2_REFERENCE),
    "T2 at 5e-3": (T2 + ["--t-min", "5e-3"], T2_REFERENCE),
    "T2 at 2.5e-3": (T2 + ["--t-min", "2.5e-3"], T2_REFERENCE),
    "single nu": (["--single-nu", "0.5", "--t-min", "1e-4"],
                  ((-(2 * 0.5 + 1) / 4,),
                   (0.5 * math.log(2.0) + math.lgamma(1.5) - 0.5 * math.log(2.0 * math.pi),))),
}
# each degree's zeta'(0) bound at most: with t^0 and a_(5/2) pinned to
# their closed forms, 4e-10 on every circle cone at t_min 1e-3 (measured:
# at most 3.84e-10, degree 1 at r = 2.3)
ZETA_PRIME0_CEILING = dict.fromkeys(["disk", "r=0.5", "r=1.5", "r=2", "r=2.3"], 4e-10)
# log T's bound at most: with T^2's t^(1/2), t^1 and t^(3/2) pinned, 3e-6 at
# t_min 1e-2 (measured: 2.0e-6, against 5.4e-5 with them free)
LOG_T_CEILING = {"T2 at 1e-2": 3e-6}
# the References' log T, and the rounding of the printed value
LOG_T_REFERENCE = {"disk": (0.0, 0.0), "r=0.5": (-0.1207822376352452, 0.0),
                   "r=1.5": (-0.02269740489478544, 0.0), "r=2": (0.0, 0.0),
                   "r=2.3": (-0.0112813100916336, 0.0),
                   **{name: (-2.9053290373, 5e-11) for name in CASES if name.startswith("T2")}}


def _torsion(capsys, flags):
    """The report of one case, whose torsion zeta function is regular at
    s = 0, as the calculus predicts for every case here."""
    assert main(["torsion", *flags]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["torsion_zeta_regular"]
    return report


@pytest.mark.parametrize("name", CASES)
def test_zeta_prime0_bound_covers_the_reference(capsys, name):
    """Each degree's zeta'(0) lies within its bound of the reference, and
    so does log T, and the bounds, and log T's, are at most their
    ceilings."""
    flags, (_, reference) = CASES[name]
    report = _torsion(capsys, flags)
    per = report["per_degree"]
    m = len(per) - 1
    for z in per:
        want = reference[min(z["degree"], m - z["degree"])]
        assert abs(z["zeta_prime0"] - want) <= z["diagnostics"]["zeta_prime0_bound"], z["degree"]
        assert z["diagnostics"]["zeta_prime0_bound"] <= ZETA_PRIME0_CEILING.get(name, math.inf)
    assert report["log_torsion_bound"] <= LOG_T_CEILING.get(name, math.inf)
    if name in LOG_T_REFERENCE:
        want, rounding = LOG_T_REFERENCE[name]
        assert abs(report["log_torsion"] - want) <= report["log_torsion_bound"] + rounding


@pytest.mark.parametrize("name", CASES)
def test_zeta0_bound_covers_the_reference(capsys, name):
    flags, (reference, _) = CASES[name]
    per = _torsion(capsys, flags)["per_degree"]
    m = len(per) - 1
    for z in per:
        want = reference[min(z["degree"], m - z["degree"])]
        assert abs(z["zeta0"] - want) <= z["diagnostics"]["zeta0_bound"], z["degree"]


def _chowla_selberg_zeta0(periods, dps=30):
    """Degree 0's zeta(0) on the cone over the flat torus of `periods`, in
    mpmath: -zeta_N(-1/2)/2 - zeta_N(0)/4, with the base zeta function of
    the orders sqrt(|kappa|^2 + 1/4) by Chowla-Selberg over the period
    lattice, A = L1 L2,

        zeta_N(s) = A/(4 pi) [4^(s-1)/(s-1)
                    + (2/Gamma(s)) sum_(m != 0) |m|^(s-1) K_(s-1)(|m|/2)],

    with mpmath's K_nu, over |m| <= 150 (the terms past it are below
    e^-75); at s = 0, 1/Gamma(s) = 0 leaves the first term."""
    with mpmath.workdps(dps):
        a, b = (mpmath.mpf(p) for p in periods)
        area = a * b

        def zeta_n(s):
            total = mpmath.mpf(0)
            for i in range(int(150 / a) + 1 if mpmath.rgamma(s) else 0):
                for j in range(int(150 / b) + 1):
                    r = mpmath.sqrt((i * a) ** 2 + (j * b) ** 2)
                    if 0 < r <= 150:
                        total += (4 if i and j else 2) * r ** (s - 1) \
                            * mpmath.besselk(s - 1, r / 2)
            return area / (4 * mpmath.pi) * (mpmath.power(4, s - 1) / (s - 1)
                                             + 2 * mpmath.rgamma(s) * total)

        return -zeta_n(mpmath.mpf(-0.5)) / 2 - zeta_n(mpmath.mpf(0)) / 4


def test_t2_zeta0_reference_is_chowla_selberg():
    """The References' T^2 zeta(0): degree 0 by the mpmath oracle to 1e-15,
    degree 1 as 3 z0 - 1/2 - pi/2 (`conekernel.torus_cone_zeta0`), and both
    within 5e-11 of the earlier 10-digit values."""
    z0 = _chowla_selberg_zeta0([2 * math.pi, 2 * math.pi])
    z1 = 3 * z0 - mpmath.mpf(1) / 2 - mpmath.pi / 2
    assert all(abs(float(z) - want) <= 1e-15 for z, want in zip((z0, z1), T2_REFERENCE[0]))
    assert all(abs(want - old) <= 5e-11 for want, old in zip(T2_REFERENCE[0], T2_ZETA0_10_DIGITS))


@pytest.mark.parametrize("periods", [(2 * math.pi, 2 * math.pi), (2 * math.pi, 3 * math.pi),
                                     (4.0, 5.0), (3.0, 4.5)])
def test_torus_cone_zeta0_bound_covers_chowla_selberg(periods):
    """The float64 lattice sum's degree-0 zeta(0) lies within its own
    bound of the mpmath oracle, and the bound is a few roundings."""
    (z0, *_), (bound, *_) = conekernel.torus_cone_zeta0(periods)
    assert abs(z0 - float(_chowla_selberg_zeta0(periods))) <= bound <= 1e-14 * z0


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
def test_circle_product_zeta0_is_the_boundary_coefficient(capsys, r):
    """On S^1_L x cone(S^1_r), m = 3, the Dirichlet a_(3/2) coefficient
    lands on t^0, the edge enters at t^(-1/2) only, so zeta(0) in degree k
    is C(3, k) L r / 256 (L = 2 pi here).  The fit pins that coefficient,
    and the report's zeta(0) is its closed form."""
    per = _torsion(capsys, ["--model", "product", "--base", "circle", "--radius", str(r)])
    for z in per["per_degree"]:
        want = math.comb(3, z["degree"]) * 2.0 * math.pi * r / 256.0
        assert abs(z["zeta0"] - want) <= z["diagnostics"]["zeta0_bound"], z["degree"]
        assert z["zeta0"] == pytest.approx(want, rel=1e-15, abs=0.0), z["degree"]
        assert "t^0" in z["diagnostics"]["pinned"]


def test_circle_product_zeta0_bound_is_the_pin_rounding(capsys):
    """With t^0 pinned and no t^0 log t column, zeta(0) is the pin and the
    residue is 0: their bounds charge only rounding, within 1e-14 of
    zeta(0), and the same at t_min 1e-3 and 3e-3."""
    bounds = []
    for t_min in ("1e-3", "3e-3"):
        per = _torsion(capsys, ["--model", "product", "--base", "circle", "--t-min", t_min])
        for z in per["per_degree"]:
            assert z["diagnostics"]["zeta0_bound"] <= 1e-14 * z["zeta0"], (t_min, z["degree"])
            assert z["residue_at_zero"] == 0.0
        bounds.append([(z["diagnostics"]["zeta0_bound"], z["diagnostics"]["residue_bound"])
                       for z in per["per_degree"]])
    assert bounds[0] == bounds[1]


# r, base radius rho: log T of S^1_(2 pi rho) x cone(S^1_r) by item 7's identity
CIRCLE_PRODUCT_LOG_T = {(0.5, 1.0): 1.5466061342, (1.5, 1.0): 0.4643978628,
                        (2.3, 1.0): 0.2514722576, (1.5, 0.5): 0.2315100693}
# each degree's zeta'(0) bound, at most 1.25 times the largest measured:
# 4.06e-9, 1.22e-8, 2.11e-8 and 5.91e-9
CIRCLE_PRODUCT_ZETA_PRIME0_BOUND = {(0.5, 1.0): 5.08e-9, (1.5, 1.0): 1.53e-8,
                                    (2.3, 1.0): 2.64e-8, (1.5, 0.5): 7.39e-9}


@pytest.mark.parametrize("r,rho", CIRCLE_PRODUCT_LOG_T)
def test_log_torsion_bound_covers_the_circle_product_identity(capsys, r, rho):
    """The References log T of circle products lies within the report's
    bound, and every degree's zeta'(0) bound is at most 1e-6, and at most
    its measured ceiling."""
    report = _torsion(capsys, ["--model", "product", "--base", "circle", "--radius", str(r),
                               "--base-radius", str(rho)])
    assert abs(report["log_torsion"] - CIRCLE_PRODUCT_LOG_T[r, rho]) \
        <= report["log_torsion_bound"]
    assert all(z["diagnostics"]["zeta_prime0_bound"] <= 1e-6 for z in report["per_degree"])
    assert all(z["diagnostics"]["zeta_prime0_bound"] <= CIRCLE_PRODUCT_ZETA_PRIME0_BOUND[r, rho]
               for z in report["per_degree"])


def test_log_torsion_bound_covers_the_circle_product(capsys):
    """S^1 x cone(S^1) has log T = 0."""
    report = _torsion(capsys, ["--model", "product", "--base", "circle"])
    assert abs(report["log_torsion"]) <= report["log_torsion_bound"]


def test_log_torsion_bound_covers_the_zero_of_the_products():
    """The products over a flat T^2 base, and the circle base over the T^2
    cone, have log T = 0 (oracle row zero_log_torsion): each report's bound
    covers it, and the samples' weighted supertrace vanishes."""
    passed, detail = oracles.zero_log_torsion()
    assert passed, detail


def test_circle_times_t2_cone_log_torsion_bound_ceiling():
    """With the T^2 cone's t^(1/2), t^1 and t^(3/2) pinned at t^0, t^(1/2)
    and t^1, log T's bound on the circle times the T^2 cone at t_min 1e-2
    is at most 2e-5 (measured: 1.48e-5, against 3.8e-3 with them free),
    and it covers log T = 0."""
    report = Pipeline(oracles.zero_log_torsion_models()["S^1 x cone(T^2)"]).torsion()
    assert abs(report.log_torsion) <= report.log_torsion_bound <= 2e-5


def test_torus_base_product_zeta_prime0_bound_ceiling():
    """With the edge's t^(-1) pinned, each degree's zeta'(0) bound on the
    unit circle cone times the square 2 pi torus is at most 2.5e-6
    (measured: at most 1.02e-6, degree 2)."""
    pipe = Pipeline(oracles.zero_log_torsion_models()["T^2(2pi x 2pi) x cone(r=1.0)"])
    assert max(z.diagnostics["zeta_prime0_bound"] for z in pipe.zetas().values()) <= 2.5e-6
