"""perfbench's traced child against the CLI it traces, and its counting
child.

`perfbench/layers.py trace` hooks the pipeline by name: the CLI's parser,
`ModelConfig.from_sources` and `validate`, the `Pipeline` stage methods,
and public functions of `fiber`, `conekernel`, `phg` and `zetator`.  A
renamed hook breaks the traced benchmark run, which the rest of the suite
never starts; these runs keep it honest.  The counting child replaces
`bessel.jv` and `bessel.jvp` by wrappers of (nu, x).
"""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from torsionlab import bessel, conekernel, fiber, phg, zetator
from torsionlab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


@pytest.fixture
def layers(monkeypatch):
    """perfbench/layers.py as a module.  `Tracer.wrap` replaces module
    attributes for good, so every public callable is first set to itself
    through monkeypatch, which restores the original after the test."""
    for module in (fiber, conekernel, phg, zetator, bessel):
        for name, value in vars(module).copy().items():
            if not name.startswith("_") and callable(value) and not inspect.isclass(value):
                monkeypatch.setattr(module, name, value)
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [
    ["torsion", "--single-nu", "0.5", "--t-min", "1e-2"],
    ["torsion", "--t-min", "1e-2"],
    ["torsion", "--model", "product", "--base", "circle", "--t-min", "3e-3"],
    ["torsion", "--fiber", "torus", "--periods", "6.283185307179586", "6.283185307179586",
     "--t-min", "1e-2"],
], ids=["single-nu", "disk", "product", "torus"])
def test_traced_report_is_the_cli_report(capsys, layers, argv):
    assert main(argv) == 0
    cli_out = capsys.readouterr().out
    tracer = layers.Tracer()
    report, figures = layers.traced_torsion(layers.build_pipeline(argv), tracer)
    assert report == cli_out
    assert figures["phg.basis_size"] > 0
    if "--single-nu" not in argv:
        assert figures["fiber.entries"] > 0 and figures["fiber.nu_modes"] > 0
    assert {"pipeline.traces", "zetator.kernel_dimension",
            "zetator.zeta_near_zero"} <= {s["name"] for s in tracer.spans}


def test_counting_child_runs(layers, monkeypatch):
    """perfbench/layers.py's `count` mode wraps `bessel.jv` and `bessel.jvp`
    in functions of exactly (nu, x) and runs the cone traces, here with a
    cold zero cache as in its own process.  The zero finder calls neither,
    so only the zero count must be positive."""
    monkeypatch.setattr(conekernel, "_cached_zeros", conekernel._ZeroCache())
    counts = layers.counted_zeros(layers.build_pipeline(["torsion", "--t-min", "1e-2"]))
    assert counts["bessel.zeros"] > 0
    assert {"bessel.jv_calls", "bessel.jv_evals", "bessel.jvp_calls"} <= set(counts)


def test_report_log_torsion_bound_is_the_benchmark_figure(capsys):
    """The report's `log_torsion_bound` is perfbench's `log_t_bound`, read
    from the report by `report_figures`, on each workload; and the
    workload's report passes perfbench's own check."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for name in ("disk", "product", "torus"):
        assert main(run.WORKLOADS[name]) == 0
        text = capsys.readouterr().out
        report = json.loads(text)["report"]
        assert report["log_torsion_bound"] == run.report_figures(name, text)["log_t_bound"]
        assert run.check_report(name, text, run._reference()) == []
