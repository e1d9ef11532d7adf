"""End-to-end runs of the torsion pipeline on full models.

These exercise the same code path as the CLI and check structural
identities that the models satisfy exactly: Kunneth proportionality,
Poincare-type degree pairing, and the regularity predictions of the
symbolic pole calculus.
"""

import dataclasses
import math
from fractions import Fraction as F

import pytest

from torsionlab import conekernel, fiber, zetator
from torsionlab.cli import PARTNER_CUTOFF, TEMPLATE_CUTOFF, ModelConfig, Pipeline
from torsionlab.conekernel import UNIT_ROUNDOFF

GOLDEN_MODELS = {
    "disk": ModelConfig(),
    "product": ModelConfig(model="product", base="circle", t_min=3e-3),
    "torus": ModelConfig(fiber_kind="torus", periods=[2 * math.pi, 2 * math.pi], t_min=1e-2),
}


def test_disk_model_duality_and_regularity():
    """Cone over S^1(1) is the flat disk: degree pairing kills log T."""
    cfg = ModelConfig()
    pipe = Pipeline(cfg)
    assert pipe.m == 2 and pipe.b == 0
    report = pipe.torsion()
    z = {d.degree: d for d in report.per_degree}
    # supersymmetry: Tr_1 = Tr_0 + Tr_2 with identical spectra pairs
    assert z[0].zeta_prime0 == pytest.approx(z[2].zeta_prime0, abs=1e-12)
    assert z[1].zeta_prime0 == pytest.approx(
        z[0].zeta_prime0 + z[2].zeta_prime0, abs=1e-9)
    assert report.log_torsion == pytest.approx(0.0, abs=1e-9)
    assert report.torsion_zeta_regular
    # smooth-disk heat invariant: t^0 coefficient is 1/6 in degree 0
    assert z[0].zeta0 == pytest.approx(1.0 / 6.0,
                                       abs=z[0].diagnostics["zeta0_bound"])


def test_product_model_kunneth_structure():
    """S^1 x cone(S^1): m = 3 odd and even metric, so every degree is
    regular at s = 0 and the circle factor makes log T vanish."""
    cfg = ModelConfig(model="product", base="circle")
    pipe = Pipeline(cfg)
    assert pipe.m == 3 and pipe.b == 1
    report = pipe.torsion()
    z = {d.degree: d for d in report.per_degree}
    # degree pairing of the two closed-circle slots
    assert z[0].zeta_prime0 == pytest.approx(z[3].zeta_prime0, abs=1e-10)
    assert z[1].zeta_prime0 == pytest.approx(z[2].zeta_prime0, abs=1e-10)
    # Tr_1 = 3 Tr_0 pointwise; the solves see scaled data through an
    # ill-conditioned basis, so proportionality holds to kappa * eps,
    # which the reported coefficient-level bounds dominate
    assert abs(z[1].zeta_prime0 - 3.0 * z[0].zeta_prime0) \
        <= z[1].diagnostics["zeta_prime0_bound"] + 3 * z[0].diagnostics["zeta_prime0_bound"]
    assert abs(z[1].zeta_prime0 - 3.0 * z[0].zeta_prime0) < 1e-5
    assert abs(z[1].zeta0 - 3.0 * z[0].zeta0) < 1e-6
    # paper-level prediction: even metric, odd m -> regular at 0
    assert report.all_degrees_regular
    assert all(d.residue_at_zero == 0.0 for d in report.per_degree)
    assert abs(report.log_torsion) < 1e-6


def test_torus_fiber_cone_regularity():
    """Cone over T^2: a genuinely singular 3-space; odd m and even metric
    force regularity at s = 0, and Hodge duality pairs degrees 0/3, 1/2."""
    cfg = ModelConfig(fiber_kind="torus",
                      periods=[2 * math.pi, 2 * math.pi], t_min=2e-2)
    pipe = Pipeline(cfg)
    assert pipe.m == 3
    report = pipe.torsion()
    z = {d.degree: d for d in report.per_degree}
    assert z[0].zeta_prime0 == pytest.approx(z[3].zeta_prime0, abs=1e-12)
    assert z[1].zeta_prime0 == pytest.approx(z[2].zeta_prime0, abs=1e-12)
    # no integer exponents below the boundary series for m = 3 even: the
    # predicted log set is half-integer, so the residues vanish identically
    assert all(d.residue_at_zero == 0.0 for d in report.per_degree)
    assert report.all_degrees_regular and report.torsion_zeta_regular
    assert report.diagnostics["supertrace_sup"] < 1e-9
    # log T = (1/2)(zeta_1' - 3 zeta_0') under the degree pairing
    want = 0.5 * (z[1].zeta_prime0 - 3.0 * z[0].zeta_prime0)
    assert report.log_torsion == pytest.approx(want, abs=1e-12)


def test_pipeline_template_matches_symbolic_prediction():
    """What the calculus decides on the fit route, on the disk (m = 2) and
    the circle product (m = 3): the fit's basis is the order-2 template
    without its log columns, the order-3 partner keeps t^0 log t exactly
    where the calculus says zeta is not regular at s = 0, and the residue
    at s = 0 is minus that column's coefficient, or 0 without it."""
    from torsionlab.phg import heat_trace_structure, zeta_pole_structure
    log_zero = (F(0), True)
    for cfg, regular in [(ModelConfig(), False),
                         (ModelConfig(model="product", base="circle"), True)]:
        pipe = Pipeline(cfg)

        def template(cutoff):
            return heat_trace_structure(pipe.m, pipe.b, even=True, boundary=True, cutoff=cutoff)

        assert zeta_pole_structure(template(PARTNER_CUTOFF)).regular_at_zero == regular
        basis = template(TEMPLATE_CUTOFF).without_logs().basis
        fits, zetas = pipe.fits(), pipe.zetas()
        for k in pipe.degrees:
            assert tuple(fits[k].coefficients) == basis
            partner = fits[k].partner.coefficients
            assert (log_zero in partner) == (not regular)
            want = 0.0 if regular else -partner[log_zero]
            assert zetas[k].residue_at_zero == want


def test_pins_are_the_volume_and_boundary_of_the_model():
    """Degree k pins C(m, k) V / (4 pi)^(m/2) and -C(m, k) A / (4 (4 pi)^((m-1)/2))
    first: the disk has V = pi and A = 2 pi, the T^2 cone (2 pi)^2 / 3 and (2 pi)^2,
    and a product multiplies both by the base's volume.  One radial mode
    takes no pins and no partner."""
    four_pi = 4.0 * math.pi
    cases = [(ModelConfig(), 2, math.pi, 2 * math.pi),
             (ModelConfig(fiber_kind="torus", periods=[2 * math.pi, 2 * math.pi], t_min=1e-2),
              3, (2 * math.pi) ** 2 / 3, (2 * math.pi) ** 2),
             (ModelConfig(model="product", base="circle", base_radius=2.0), 3,
              math.pi * 4 * math.pi, 2 * math.pi * 4 * math.pi)]
    for cfg, m, volume, boundary in cases:
        pipe = Pipeline(cfg)
        for k in pipe.degrees:
            rank = math.comb(m, k)
            want = {F(-m, 2): rank * volume / four_pi ** (m / 2),
                    F(1 - m, 2): -rank * boundary / (4 * four_pi ** ((m - 1) / 2))}
            pins = _values(pipe.pins(k))
            assert {alpha: pins[alpha] for alpha in want} == pytest.approx(want, rel=1e-15, abs=0.0), \
                (cfg, k)
    assert _values(Pipeline(ModelConfig()).pins(0)) == pytest.approx(
        {F(-1): 0.25, F(-1, 2): -math.sqrt(math.pi) / 4, F(0): 1 / 6,
         F(1, 2): math.sqrt(math.pi) / 128, F(1): 2 / 315,
         F(3, 2): 37 * math.sqrt(math.pi) / 16384}, rel=1e-15, abs=0.0)
    single = Pipeline(ModelConfig(single_nu=0.5, t_min=1e-2))
    assert single.pins(0) == {} and single.partner_template() is None
    fit = single.fits()[0]
    assert fit.pinned == () and fit.partner is None


def _values(pins: dict) -> dict:
    """The values of the pins, without their bounds."""
    return {alpha: pin.value for alpha, pin in pins.items()}


def _count_calls(monkeypatch, *names: str) -> dict[str, int]:
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(conekernel, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(conekernel, name, counted)
    return calls


TWO_PI = 2 * math.pi
# flags of each model, and the exponents of its pins after the first two:
# on circle fibers the tip's and edge's at t^(-b/2), a_(3/2) at
# t^(-(m-3)/2), a_2 at t^(-(m-4)/2) and a_(5/2) at t^(-(m-5)/2); on T^2
# fibers a_1 at t^(-(m-2)/2), then the tip's and edge's at t^(-b/2) and the
# cone's t^(1/2), t^1 and t^(3/2) at t^(1/2 - b/2) .. t^(3/2 - b/2); one
# radial mode takes no pins (test_pins_are_the_volume_and_boundary_of_the_model)
CIRCLE_CONE = [F(0), F(1, 2), F(1), F(3, 2)]
T2_CONE = [F(-1, 2), F(0), F(1, 2), F(1), F(3, 2)]
LATER_PINS = {
    "disk": (ModelConfig(), CIRCLE_CONE),
    "r=0.5": (ModelConfig(radius=0.5), CIRCLE_CONE),
    "r=2.3": (ModelConfig(radius=2.3), CIRCLE_CONE),
    "T^2": (ModelConfig(fiber_kind="torus", periods=[TWO_PI, TWO_PI], t_min=1e-2), T2_CONE),
    "rectangular T^2": (ModelConfig(fiber_kind="torus", periods=[3.0, 4.5]), T2_CONE),
    "2pi x 3pi T^2": (ModelConfig(fiber_kind="torus", periods=[TWO_PI, 3 * math.pi]), T2_CONE),
    "torus-base product": (ModelConfig(model="product", base="torus",
                                       base_periods=[TWO_PI, 3.0]),
                           [F(-1), F(-1, 2), F(0), F(1, 2)]),
    "circle x T^2": (ModelConfig(model="product", base="circle", fiber_kind="torus",
                                 periods=[TWO_PI, TWO_PI]), [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]),
    "circle product": (ModelConfig(model="product", base="circle", radius=1.5),
                       [F(-1, 2), F(0), F(1, 2), F(1)]),
}


def _circle_cone_zeta0(r: float) -> list[F]:
    """The circle cone's zeta(0) in degrees 0, 1, 2, written out in exact
    rationals at the float r: (r + 1/r)/12, (r + 1/r)/6 - a(1 - a)/r and
    (r + 1/r)/12, a = frac(r)."""
    r = F(r)
    a = r % 1
    return [(r + 1 / r) / 12, (r + 1 / r) / 6 - a * (1 - a) / r, (r + 1 / r) / 12]


def _torus_cone_zeta0(periods) -> list[float]:
    """The T^2 cone's zeta(0) in degrees 0 to 3, written out one lattice
    point at a time: z0 = 5A/(192 pi) + A/(8 pi^(3/2)) sum_(m != 0)
    |m|^(-3/2) K_(3/2)(|m|/2), K_(3/2)(x) = sqrt(pi/2x) e^-x (1 + 1/x),
    over |m| <= 120, and z1 = 3 z0 - A/(8 pi) - sum (1 - mu) over the dual
    vectors kappa with mu = sqrt(|kappa|^2 + 1/4) < 1."""
    (a, b), area = periods, periods[0] * periods[1]
    terms = []
    for i in range(-int(120 / a), int(120 / a) + 1):
        for j in range(-int(120 / b), int(120 / b) + 1):
            r = math.hypot(i * a, j * b)
            if 0 < r <= 120:
                x = r / 2
                terms.append(r ** -1.5 * math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (1 + 1 / x))
    z0 = 5 * area / (192 * math.pi) + area / (8 * math.pi ** 1.5) * math.fsum(terms)
    mus = [math.sqrt((TWO_PI * i / a) ** 2 + (TWO_PI * j / b) ** 2 + 0.25)
           for i in range(-2, 3) for j in range(-2, 3)]
    z1 = 3 * z0 - area / (8 * math.pi) - math.fsum(1 - mu for mu in mus if mu < 1)
    return [z0, z1, z1, z0]


@pytest.mark.parametrize("name", LATER_PINS)
def test_third_pin_where_the_edge_does_not_share_it(name):
    """The pinned exponents of each model, and the closed forms of the pins
    after the first two.  On the plain cone over a torus (n = 2) the third
    is a_1 = (4 pi)^(-3/2) n vol(N) [C(3, k)/6 + C(1, k-1)], whose exponent
    the edge does not share, and the fourth the one the tip and the edge
    share, zeta(0), within 1e-14 of its lattice sum written out (the later
    ones: test_heat_coefficient_oracle.py).  On the plain cone over a
    circle the third is zeta(0), exactly the closed form rounded once, then
    C(2, k) vol(N) / (128 (4 pi)^(1/2)), 4 C(2, k) vol(N) / (315 (4 pi))
    and 37/128 of the first.  Every pin of a product is the Kunneth line
    vol(B) (4 pi)^(-b/2) sum_j C(b, k-j) c_j of the plain cone's pins c_j,
    within 1e-15, and so is the T^2 tip's bound, of the cone's bounds with
    the roundings of b more terms.  The disk's are 1/6, the planar
    sqrt(pi t) / 128, 2 t / 315 and 37 sqrt(pi) t^(3/2) / 16384, the cone
    of radius 1/2 has the correctly rounded 5/24 and -1/12 at t^0, T^2's
    a_1 is sqrt(pi) [1/6, 3/2, 3/2, 1/6] and its t^0 the References'
    zeta(0), the circle product's t^0 pin is zeta(0) = C(3, k) L r / 256,
    and each is Hodge-symmetric."""
    cfg, later = LATER_PINS[name]
    pipe = Pipeline(cfg)
    m, n, b = pipe.m, len(pipe.fiber_periods), pipe.b
    area = math.prod(pipe.fiber_periods)
    cone = [conekernel.heat_pins(n + 1, j, pipe.fiber_periods, 1.0) for j in range(n + 2)]
    flat = math.prod(pipe.base_periods) * (4 * math.pi) ** (-b / 2)
    more = conekernel.rounding_gamma(b + 6) - conekernel.rounding_gamma(6)
    for k in pipe.degrees:
        pins = pipe.pins(k)
        assert list(pins) == [F(-m, 2), F(1 - m, 2)] + later, k
        assert _values(pins) == pytest.approx(_values(pipe.pins(m - k)), rel=1e-15, abs=0.0), k
        if b:
            for alpha in cone[0]:
                line = [(math.comb(b, k - j), cone[j][alpha]) for j in range(n + 2)
                        if 0 <= k - j <= b]
                value = flat * sum(r * c.value for r, c in line)
                bound = flat * sum(r * (c.bound + more * abs(c.value)) for r, c in line if c.bound)
                pin = pins[alpha - F(b, 2)]
                assert pin.value == pytest.approx(value, rel=1e-15, abs=1e-16), (k, alpha)
                assert pin.bound == pytest.approx(bound, rel=1e-15, abs=0.0), (k, alpha)
                assert (pin.bound > 0) == (n == 2 and alpha == 0), (k, alpha)
            continue
        rank = math.comb(m, k)
        if n == 2:
            assert pins[F(0)].value == pytest.approx(_torus_cone_zeta0(pipe.fiber_periods)[k],
                                                     rel=1e-14, abs=1e-15), k
            rest = later[:1]
            want = [n * area * (rank / 6 + (math.comb(1, k - 1) if k else 0)) / (4 * math.pi) ** 1.5]
        else:
            r = pipe.fiber_periods[0] / TWO_PI
            assert pins[F(0)].value == float(_circle_cone_zeta0(r)[k]), k
            rest, want = later[1:], [rank * area / (128 * (4 * math.pi) ** 0.5),
                                     4 * rank * area / (315 * 4 * math.pi),
                                     37 * rank * area / (2 ** 15 * math.sqrt(math.pi))]
        assert [pins[alpha].value for alpha in rest] == pytest.approx(want, rel=1e-15, abs=0.0), k
    if name == "disk":
        assert [pipe.pins(1)[alpha].value for alpha in later] \
            == pytest.approx([1 / 3, math.sqrt(math.pi) / 64, 4 / 315,
                              37 * math.sqrt(math.pi) / 8192], rel=1e-15, abs=0.0)
    if name == "r=0.5":
        assert [pipe.pins(k)[F(0)].value for k in pipe.degrees] == [5 / 24, -1 / 12, 5 / 24]
    if name == "T^2":
        assert [pipe.pins(k)[later[0]].value for k in pipe.degrees] \
            == pytest.approx([math.sqrt(math.pi) * c for c in (1 / 6, 1.5, 1.5, 1 / 6)], rel=1e-14,
                             abs=0.0)
        assert [pipe.pins(k)[F(0)].value for k in pipe.degrees] == pytest.approx(
            [0.3376204449064545, -1.0579349920755332, -1.0579349920755332, 0.3376204449064545],
            rel=1e-15, abs=0.0)
    if name == "2pi x 3pi T^2":
        # the degree-1 orders 1 - mu at kappa = (0, +-2/3) take 2 (1 - 5/6) off
        z = _torus_cone_zeta0(pipe.fiber_periods)
        assert z[1] == pytest.approx(3 * z[0] - 3 * math.pi / 4 - 0.5 - 1 / 3, rel=1e-14, abs=0.0)
    if name == "circle product":
        assert [pipe.pins(k)[F(0)].value for k in pipe.degrees] \
            == pytest.approx([c * TWO_PI * 1.5 / 256 for c in (1, 3, 3, 1)], rel=1e-15, abs=0.0)


TIP_PIN_MODELS = {"disk": ModelConfig(), "T^2": GOLDEN_MODELS["torus"],
                  "circle x T^2": ModelConfig(model="product", base="circle", fiber_kind="torus",
                                              periods=[TWO_PI, TWO_PI], t_min=1e-2)}


@pytest.mark.parametrize("name", TIP_PIN_MODELS)
def test_tip_pin_carries_its_own_error_bound(name):
    """On T^2 fibers the tip and edge pin at t^(-b/2) is a float lattice
    sum; its own error bound, a few roundings of the value, is that
    column's coefficient bound in both fits, and on the T^2 cone, where the
    column is t^0, zeta(0)'s bound is exactly it plus the pin's rounding
    and the bias.  The circle fibers' pins, exact to one rounding, carry
    none."""
    pipe = Pipeline(TIP_PIN_MODELS[name])
    tip, zetas = (F(-pipe.b, 2), False), pipe.zetas()
    for k, fit in pipe.fits().items():
        pin = pipe.pins(k)[tip[0]]
        if len(pipe.fiber_periods) == 1:
            assert pin.bound == 0.0 and fit.coefficient_bounds[tip] == 0.0
            continue
        assert 0.0 < pin.bound <= 1e-14 * abs(pin.value), k
        assert fit.coefficient_bounds[tip] == fit.partner.coefficient_bounds[tip] == pin.bound
        if tip[0] == 0:
            d = zetas[k].diagnostics
            chosen = fit if d["fit_order"] == str(TEMPLATE_CUTOFF) else fit.partner
            read = conekernel.rounding_gamma(len(chosen.coefficients) + 3) \
                * abs(chosen.coefficients[tip])
            assert d["zeta0_bound"] == pin.bound + read + d.get("zeta0_bias", 0.0), k


@pytest.mark.parametrize("r", [0.3, 0.5, 1.0, 1.5, 2.0, 2.3, 3.0, 11.0])
def test_tip_pin_reads_a_as_the_degree_one_orders_do(r):
    """The cone over the circle of radius r has the degree-1 Bessel orders
    (n + a)/r and (n + 1 - a)/r, so r times the least one is x = min(a,
    1 - a), and the degree-1 t^0 pin's a(1 - a)/r is x(1 - x)/r.  At an
    integer r both are exactly 0, and the degree-1 pin is twice degree 0's
    bit for bit, also at r = 11, whose period 2 pi r divided by 2 pi
    leaves 10.999999999999998."""
    pipe = Pipeline(ModelConfig(radius=r))
    radius = pipe.fiber_periods[0] / TWO_PI
    least = float(pipe.nu_spectra()[1].nu[0])
    x = radius * least
    tip = (radius + 1 / radius) / 6 - pipe.pins(1)[F(0)].value
    assert tip == pytest.approx(x * (1 - x) / radius, rel=1e-10, abs=1e-15)
    if r.is_integer():
        assert least == 0.0 and fiber.frac_radius(radius) == 0.0
        assert pipe.pins(1)[F(0)].value == 2 * pipe.pins(0)[F(0)].value
    else:
        assert min(fiber.frac_radius(radius), 1 - fiber.frac_radius(radius)) \
            == pytest.approx(x, rel=1e-10)


@pytest.mark.parametrize("r", [0.2, 0.25, (3 - math.sqrt(2)) / 7, (3 + math.sqrt(2)) / 7],
                         ids=["0.2", "0.25", "(3-sqrt2)/7", "(3+sqrt2)/7"])
def test_tip_pin_is_its_closed_form_rounded_once(r):
    """For r < 1 the degree-1 t^0 pin is (r + 1/r)/6 - (1 - r) =
    (7r^2 - 6r + 1)/(6r), whose terms cancel to 0 at r = (3 -+ sqrt 2)/7.
    The pin is that value at the pipeline's radius, correctly rounded, so
    a rounding on its own scale, which is what an exactly pinned zeta(0)
    is charged, covers it."""
    pipe = Pipeline(ModelConfig(radius=r))
    radius = F(pipe.fiber_periods[0] / TWO_PI)
    assert pipe.pins(1)[F(0)].value == float((7 * radius ** 2 - 6 * radius + 1) / (6 * radius))


def test_stages_computed_once(monkeypatch):
    """fits, zetas and torsion compute each stage once per distinct input:
    Hodge-dual degrees k and m - k share one cone spectrum, one fit and one
    zeta, and the zeta data keep their own degree.  A product takes its
    base's theta trace once, a cone none."""
    calls = _count_calls(monkeypatch, "fit_expansion", "cone_spectrum", "fiber_factor_trace")
    for cfg in (ModelConfig(model="product", base="circle", t_min=3e-3), ModelConfig(),
                ModelConfig(fiber_kind="torus", periods=[2 * math.pi, 2 * math.pi],
                            t_min=1e-2)):
        calls.update(dict.fromkeys(calls, 0))
        pipe = Pipeline(cfg)
        pipe.fits()
        zetas = pipe.zetas()
        pipe.torsion()
        assert calls == {"fit_expansion": 2, "cone_spectrum": 2,
                         "fiber_factor_trace": int(bool(pipe.base_periods))}, cfg
        assert [z.degree for z in zetas.values()] == pipe.degrees


def test_mirrored_degrees_are_compared_not_assumed(monkeypatch):
    """With the last Bessel order of degree m = 2 of the disk halved, degrees
    0 and 2 differ, and each gets its own cone spectrum, trace, fit and zeta."""
    a_spectrum = fiber.a_spectrum

    def perturbed(fib, p, *args, **kwargs):
        spec = a_spectrum(fib, p, *args, **kwargs)
        if p != 2:
            return spec
        nu = spec.nu.copy()
        nu[-1] /= 2.0
        return dataclasses.replace(spec, nu=nu)

    monkeypatch.setattr(fiber, "a_spectrum", perturbed)
    calls = _count_calls(monkeypatch, "fit_expansion", "cone_spectrum")
    pipe = Pipeline(ModelConfig(t_min=1e-2))
    zetas = pipe.zetas()
    assert calls == {"fit_expansion": 3, "cone_spectrum": 3}
    traces = pipe.traces()
    own = conekernel.truncated_cone_trace(
        conekernel.cone_spectrum(pipe.nu_spectra()[2], pipe.lambda_max), 2, pipe.grid)
    assert traces[2] == own and traces[2] != traces[0]
    assert zetas[2].zeta_prime0 != zetas[0].zeta_prime0
    assert [z.degree for z in zetas.values()] == [0, 1, 2]


def _reported_fit(fit: conekernel.FittedExpansion, z: zetator.ZetaData) -> conekernel.FittedExpansion:
    """The one of the two fits that `z` reports, without its partner."""
    reported = fit if z.diagnostics["fit_order"] == str(TEMPLATE_CUTOFF) else fit.partner
    return dataclasses.replace(reported, partner=None)


@pytest.mark.parametrize("name", GOLDEN_MODELS)
def test_zeta_prime0_weights_are_the_derivative_of_the_value(name):
    """Each coefficient's weight in the zeta'(0) bound of the reported fit
    is the derivative of the reported zeta'(0) in it.  The value is one
    linear map of the coefficients, with weights D_a = t1^a / a (its log
    form, or log t1 + g1 for t^0) at the first sample t1, so a central
    difference with a step that moves it by ~1 agrees to the rounding of
    the products D_a c_a, which reach ~1e3 (t^-3/2 on the circle product):
    relative 1e-12."""
    pipe = Pipeline(GOLDEN_MODELS[name])
    fits, traces, zetas = pipe.fits(), pipe.traces(), pipe.zetas()
    for k in (0, 1):
        fit, tr = _reported_fit(fits[k], zetas[k]), traces[k]
        assert zetator.zeta_near_zero(tr, fit, 0).zeta_prime0 == zetas[k].zeta_prime0
        weights = {key: zetator._closed_form_weight(key, float(tr.grid[0]))
                   for key in fit.coefficients}
        for key, w in weights.items():
            step = 1.0 / abs(w)

            def moved(sign):
                coefficients = dict(fit.coefficients)
                coefficients[key] += sign * step
                shifted = dataclasses.replace(fit, coefficients=coefficients)
                return zetator.zeta_near_zero(tr, shifted, 0).zeta_prime0

            difference = (moved(1.0) - moved(-1.0)) / (2.0 * step)
            assert abs(difference - w) <= 1e-12 * abs(w), (k, key)


@pytest.mark.parametrize("name", GOLDEN_MODELS)
def test_remainder_bound_charges_its_rounding(name):
    """The remainder bound holds twice |trace(t1) - model(t1)| and the
    sample's tail bound, with the model at t1 summed in either order of its
    terms: forming trace - model rounds on the scale of its terms, and the
    bound charges gamma_n (|trace(t1)| + sum_a |c_a t1^a|), n the terms
    plus three, which covers both orders."""
    pipe = Pipeline(GOLDEN_MODELS[name])
    fits, traces, zetas = pipe.fits(), pipe.traces(), pipe.zetas()
    for k in (0, 1):
        fit, tr, d = _reported_fit(fits[k], zetas[k]), traces[k], zetas[k].diagnostics
        t1, trace = tr.grid[:1], float(tr.values[0])
        terms = [c * float(conekernel.basis_column(t1, *key)[0])
                 for key, c in fit.coefficients.items()]
        n = len(terms) + 3
        charge = n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF) \
            * (abs(trace) + sum(map(abs, terms)))
        firsts = []
        for order in (1, -1):
            model = 0.0
            for term in terms[::order]:
                model += term
            firsts.append(trace - model)
        assert abs(firsts[0] - firsts[1]) <= 2.0 * charge, k
        for first in firsts:
            assert d["zeta_prime0_budget"]["remainder"] \
                >= 2.0 * (abs(first) + float(tr.tail_bound[0])), k


# the order of the fit each golden model reports: the one of the two fits
# whose zeta'(0) bound is the smaller once both carry the bias
REPORTED_ORDER = {"disk": TEMPLATE_CUTOFF, "product": PARTNER_CUTOFF, "torus": PARTNER_CUTOFF}


@pytest.mark.parametrize("name", GOLDEN_MODELS)
def test_bias_is_the_spread_to_the_partner(name):
    """The partner's bounds add the spread of the two fits' zeta data (the
    bias), and the order-2 fit's add the spread plus the partner's own
    bound, at most the spread again; the fit with the smaller zeta'(0)
    bound gives the values, bounds, budget, residual and condition: order
    2 on the disk, order 3 on the circle product and on T^2.  The residue
    at s = 0 is the partner's: minus its t^0 log t coefficient on the disk
    (m = 2), none on m = 3."""
    pipe = Pipeline(GOLDEN_MODELS[name])
    fit, tr = pipe.fits()[0], pipe.traces()[0]
    z = zetator.zeta_near_zero(tr, fit, 0)
    alone = zetator.zeta_near_zero(tr, dataclasses.replace(fit, partner=None), 0)
    partner = zetator.zeta_near_zero(tr, fit.partner, 0)
    d, own = z.diagnostics, partner.diagnostics
    spread0, spread = abs(alone.zeta0 - partner.zeta0), abs(alone.zeta_prime0 - partner.zeta_prime0)
    zeta0_biases = [spread0 + min(own["zeta0_bound"], spread0), spread0]
    biases = [spread + min(own["zeta_prime0_bound"], spread), spread]
    assert "bias" not in alone.diagnostics["zeta_prime0_budget"] and "zeta0_bias" not in alone.diagnostics
    budgets = [{**each.diagnostics["zeta_prime0_budget"], "bias": bias}
               for each, bias in zip((alone, partner), biases)]
    bounds = [sum(budget.values()) for budget in budgets]
    i = 0 if REPORTED_ORDER[name] == TEMPLATE_CUTOFF else 1
    assert bounds[i] < bounds[1 - i] and d["fit_order"] == str(REPORTED_ORDER[name])
    reported, reported_fit = (alone, partner)[i], (fit, fit.partner)[i]
    assert (z.zeta0, z.zeta_prime0) == (reported.zeta0, reported.zeta_prime0)
    assert d["zeta_prime0_budget"] == budgets[i] and d["zeta_prime0_bound"] == bounds[i]
    assert d["zeta0_bias"] == zeta0_biases[i]
    assert d["zeta0_bound"] == reported.diagnostics["zeta0_bound"] + zeta0_biases[i]
    assert (d["fit_residual"], d["fit_condition"]) == (reported_fit.residual, reported_fit.condition)
    assert (z.residue_at_zero, d["residue_bound"]) \
        == (partner.residue_at_zero, partner.diagnostics["residue_bound"])
    log_zero = (F(0), True)
    assert (log_zero in fit.partner.coefficients) == (name == "disk")
    assert z.residue_at_zero == -fit.partner.coefficients.get(log_zero, 0.0)
    assert d["pinned"] == [f"t^{alpha}" for alpha in pipe.pins(0)]


@pytest.mark.parametrize("name", GOLDEN_MODELS)
def test_partner_over_the_residual_limit_is_never_reported(name):
    """A partner whose residual is over FIT_RESIDUAL_LIMIT is not eligible:
    the order-2 fit is reported, also on the circle product and on T^2,
    where the partner's zeta'(0) bound is the smaller, and it still
    carries the order-2 bias of the spread to the partner: none in zeta(0)
    on the circle product and on T^2, whose two fits pin it and have no
    t^0 log t column."""
    pipe = Pipeline(GOLDEN_MODELS[name])
    fit, tr = pipe.fits()[0], pipe.traces()[0]
    rough = dataclasses.replace(fit, partner=dataclasses.replace(fit.partner, residual=2e-5))
    assert rough.partner.residual > zetator.FIT_RESIDUAL_LIMIT > fit.residual
    z = zetator.zeta_near_zero(tr, rough, 0)
    both = zetator.zeta_near_zero(tr, fit, 0)
    alone = zetator.zeta_near_zero(tr, dataclasses.replace(fit, partner=None), 0)
    partner = zetator.zeta_near_zero(tr, fit.partner, 0)
    assert both.diagnostics["fit_order"] == str(REPORTED_ORDER[name])
    d, own = z.diagnostics, partner.diagnostics
    spread0, spread = abs(alone.zeta0 - partner.zeta0), abs(alone.zeta_prime0 - partner.zeta_prime0)
    bias = spread + min(own["zeta_prime0_bound"], spread)
    assert d["fit_order"] == str(TEMPLATE_CUTOFF) and d["fit_residual"] == fit.residual
    assert (z.zeta0, z.zeta_prime0) == (alone.zeta0, alone.zeta_prime0)
    assert d["zeta0_bias"] == spread0 + min(own["zeta0_bound"], spread0) and bias > 0.0
    # zeta(0) reads t^0 and the partner's t^0 log t: both fits pin t^0 on
    # every golden model, and only the disk's partner (m even) has the log
    # column
    moves = "t^0" not in d["pinned"] or (F(0), True) in fit.partner.coefficients
    assert (d["zeta0_bias"] > 0.0) == moves == (name == "disk")
    assert d["zeta_prime0_budget"] == {**alone.diagnostics["zeta_prime0_budget"], "bias": bias}
    assert d["zeta0_bound"] == alone.diagnostics["zeta0_bound"] + d["zeta0_bias"]
    assert d["zeta_prime0_bound"] == alone.diagnostics["zeta_prime0_bound"] + bias
    assert z.residue_at_zero == both.residue_at_zero


# the dominant zeta'(0) term of each golden model's degrees 0, 1, ...: the
# remainder on the disk once its a_(5/2) is pinned, or the spread of the
# two fits, on T^2 once its t^(3/2) is pinned too
REMAINDER, BIAS = {"term": "remainder"}, {"term": "bias"}
DOMINANT = {"disk": [REMAINDER, REMAINDER, REMAINDER],
            "product": [BIAS, BIAS, BIAS, BIAS],
            "torus": [BIAS, BIAS, BIAS, BIAS]}


@pytest.mark.parametrize("name", GOLDEN_MODELS)
def test_zeta_prime0_budget_names_its_dominant_term(name):
    """The budget's four terms sum to the bound, and the dominant term is
    the largest: the remainder on the disk, and the bias on T^2 at 1e-2
    and on the circle product at 3e-3.  The circle product and T^2 report
    their order-3 fits."""
    zetas = Pipeline(GOLDEN_MODELS[name]).zetas()
    assert [z.diagnostics["zeta_prime0_dominant"] for z in zetas.values()] == DOMINANT[name]
    for z in zetas.values():
        d = z.diagnostics
        budget = d["zeta_prime0_budget"]
        assert set(budget) == {"fit_shift", "remainder", "large_t", "bias"}
        assert sum(budget.values()) == d["zeta_prime0_bound"]
        assert d["zeta_prime0_dominant"]["term"] == max(budget, key=budget.get)
        assert z.error_bound == max(d["zeta0_bound"], d["zeta_prime0_bound"])


def test_zeta_prime0_dominant_names_no_column_off_the_fit():
    """A column is named when the fit shift dominates, and only then: on
    one radial mode, and on its fit with every coefficient bound zeroed,
    where the remainder dominates and no column is named."""
    pipe = Pipeline(ModelConfig(single_nu=0.5, t_min=1e-4))
    (z,) = pipe.zetas().values()
    dominant = z.diagnostics["zeta_prime0_dominant"]
    assert ("column" in dominant) == (dominant["term"] == "fit_shift")
    fit = pipe.fits()[0]
    exact = dataclasses.replace(fit, coefficient_bounds=dict.fromkeys(fit.coefficient_bounds, 0.0))
    d = zetator.zeta_near_zero(pipe.traces()[0], exact, 0).diagnostics
    budget = d["zeta_prime0_budget"]
    assert d["zeta_prime0_dominant"] == {"term": "remainder"}
    assert budget["remainder"] > budget["large_t"] > budget["fit_shift"] == 0.0
