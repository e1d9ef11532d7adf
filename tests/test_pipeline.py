"""End-to-end runs of the torsion pipeline on full models.

These exercise the same code path as the CLI and check structural
identities that the models satisfy exactly: Kunneth proportionality,
Poincare-type degree pairing, and the regularity predictions of the
symbolic pole calculus.
"""

import dataclasses
import math

import pytest

from torsionlab import conekernel, fiber
from torsionlab.cli import ModelConfig, Pipeline


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
    assert report.diagnostics["mckean_singer_defect"] < 1e-9
    # log T = (1/2)(zeta_1' - 3 zeta_0') under the degree pairing
    want = 0.5 * (z[1].zeta_prime0 - 3.0 * z[0].zeta_prime0)
    assert report.log_torsion == pytest.approx(want, abs=1e-12)


def test_pipeline_template_matches_symbolic_prediction():
    from torsionlab.phg import zeta_pole_structure
    cfg = ModelConfig(model="product", base="circle")
    pipe = Pipeline(cfg)
    tpl = pipe.template()
    rep = zeta_pole_structure(tpl)
    assert rep.regular_at_zero  # m = 3 odd, even calculus
    zetas = pipe.zetas()
    for z in zetas.values():
        got = {(loc, order) for loc, order, _ in z.poles}
        assert got == set(rep.gamma_zeta_poles)


def _count_calls(monkeypatch, *names: str) -> dict[str, int]:
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(conekernel, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(conekernel, name, counted)
    return calls


def test_stages_computed_once(monkeypatch):
    """fits, zetas and torsion compute each stage once per distinct input:
    Hodge-dual degrees k and m - k share one cone spectrum, one fit and one
    zeta, and the zeta data keep their own degree."""
    calls = _count_calls(monkeypatch, "fit_expansion", "cone_spectrum")
    for cfg in (ModelConfig(model="product", base="circle", t_min=3e-3), ModelConfig(),
                ModelConfig(fiber_kind="torus", periods=[2 * math.pi, 2 * math.pi],
                            t_min=5e-2)):
        calls.update(dict.fromkeys(calls, 0))
        pipe = Pipeline(cfg)
        pipe.fits()
        zetas = pipe.zetas()
        pipe.torsion()
        assert calls == {"fit_expansion": 2, "cone_spectrum": 2}, cfg
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
