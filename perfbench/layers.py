"""Child-process side of the torsionlab benchmark.

Run as ``python3 perfbench/layers.py MODE -- torsion <flags>`` with the
package sources on PYTHONPATH; the flags after ``--`` are parsed by the
CLI's own parser, so a workload is exactly one CLI invocation.  Every
invocation is a fresh process, so `conekernel._cached_zeros` starts cold
as it does for a CLI user.

Modes:

``setup``  import `torsionlab.cli`, build the `Pipeline`, exit.  The
           parent times the whole process as `setup_s`.
``trace``  wrap the public functions the pipeline reaches through module
           attributes (`fiber.*`, `conekernel.*`, `phg.*`, `zetator.*`) in
           spans, then run `Pipeline.torsion` and the CLI's serialization
           unchanged; print one JSON object with the spans, the per-layer
           figures and the report, which is the CLI's by construction.
``count``  wrap `torsionlab.bessel.jv` / `jvp` in call counters and run
           `Pipeline.cone_traces`.  Kept apart from ``trace`` because the
           wrappers slow the zero finder by more than half.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans: name, start, end (seconds since process start),
    parent id, and the process's peak RSS at both ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter() - START, "end": None,
                "rss_start_mb": _maxrss_mb(), "rss_end_mb": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter() - START
            span["rss_end_mb"] = _maxrss_mb()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def wrap(self, owner, attr: str, name, note=None) -> None:
        """Replace `owner.attr` by a call in a span named `name` (a string,
        or a function of nothing that returns one); `note(result, *args,
        **kwargs)` sees each call's result outside the span."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name()):
                result = fn(*args, **kwargs)
            if note is not None:
                note(result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)

    def total(self, *names: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] in names)


def build_pipeline(cli_argv: list[str]):
    from torsionlab import cli

    args = cli.build_parser().parse_args(cli_argv)
    cfg = cli.ModelConfig.from_sources(args, {})
    cfg.validate()
    return cli.Pipeline(cfg)


def traced_torsion(pipe, tr: Tracer) -> tuple[str, dict]:
    """`Pipeline.torsion` and `cmd_torsion`'s serialization with a span on
    every public call they make.  Returns the report text and the
    per-layer figures."""
    from torsionlab import cli, conekernel, fiber, phg, zetator
    from torsionlab._serialize import dumps_canonical

    figures = {"fiber.nu_modes": 0, "conekernel.exp_evals": 0, "conekernel.product_pairs": 0}
    zeros_per_order: dict[float, int] = {}
    conditions: list[float] = []

    def fiber_entries(fib, *_, **__):
        figures["fiber.entries"] = len(fib.entries)

    def nu_modes(spec, *_, **__):
        figures["fiber.nu_modes"] += len(spec.modes)

    def zeros_found(cs, *_, **__):
        zeros_per_order.update((nu, len(zs)) for nu, zs in cs.zeros.items())

    def exp_evals(_, spec, p, t_grid):
        figures["conekernel.exp_evals"] += len(t_grid) * sum(len(zs) for zs in spec.zeros.values())

    def product_pairs(traces, *_, **__):
        figures["conekernel.product_pairs"] = sum(len(t.eigenvalues or ()) for t in traces.values())

    def basis_size(tpl, *_, **__):
        figures["phg.basis_size"] = tpl.basis_size

    # the fiber's spectrum is the one `Pipeline.fiber_spectrum` asks for; a
    # product's base circle or torus goes through the same function
    tr.wrap(pipe, "traces", "pipeline.traces")
    tr.wrap(pipe, "cone_traces", "pipeline.cone_traces")
    tr.wrap(pipe, "fiber_spectrum", "pipeline.fiber_spectrum", fiber_entries)
    tr.wrap(fiber, "torus_spectrum", lambda: "fiber.torus_spectrum"
            if tr.parent_name() == "pipeline.fiber_spectrum" else "base.torus_spectrum")
    tr.wrap(fiber, "a_spectrum", "fiber.a_spectrum", nu_modes)
    tr.wrap(conekernel, "cone_spectrum", "conekernel.cone_spectrum", zeros_found)
    tr.wrap(conekernel, "truncated_cone_trace", "conekernel.truncated_cone_trace", exp_evals)
    tr.wrap(conekernel, "fiber_factor_trace", "conekernel.fiber_factor_trace")
    tr.wrap(conekernel, "product_trace", "conekernel.product_trace", product_pairs)
    tr.wrap(zetator, "kernel_dimension", "zetator.kernel_dimension")
    tr.wrap(conekernel, "mckean_singer_defect", "conekernel.mckean_singer_defect")
    tr.wrap(phg, "heat_trace_structure", "phg.heat_trace_structure", basis_size)
    tr.wrap(conekernel, "fit_expansion", "conekernel.fit_expansion",
            lambda fit, *_, **__: conditions.append(fit.condition))
    tr.wrap(zetator, "zeta_near_zero", "zetator.zeta_near_zero")
    tr.wrap(zetator, "torsion_assemble", "zetator.torsion_assemble")

    cache_before = conekernel._cached_zeros.cache_info()
    with tr.span("pipeline"):
        report = pipe.torsion()
        with tr.span("cli.report"):
            text = dumps_canonical({"schema": cli.SCHEMA, "report": report.to_json_dict()})
    cache_after = conekernel._cached_zeros.cache_info()

    zeros = sum(zeros_per_order.values())
    zeros_s = tr.total("conekernel.cone_spectrum")
    product = [s for s in tr.spans if s["name"] == "conekernel.product_trace"]
    layers = {
        "bessel.zeros_s": zeros_s,
        "bessel.zeros": zeros,
        "bessel.orders": len(zeros_per_order),
        "bessel.us_per_zero": 1e6 * zeros_s / zeros,
        "bessel.cache_hits": cache_after.hits - cache_before.hits,
        "bessel.cache_misses": cache_after.misses - cache_before.misses,
        "bessel.cache_size_at_start": cache_before.currsize,
        "fiber.torus_spectrum_s": tr.total("fiber.torus_spectrum"),
        "fiber.a_spectrum_s": tr.total("fiber.a_spectrum"),
        "conekernel.cone_trace_s": tr.total("conekernel.truncated_cone_trace"),
        # the product step: what `traces` adds to `cone_traces`, i.e. the base
        # factor's spectrum and traces and the product (a pass-through for cones)
        "conekernel.product_s": tr.total("pipeline.traces") - tr.total("pipeline.cone_traces"),
        "conekernel.product_rss_mb": sum(s["rss_end_mb"] - s["rss_start_mb"] for s in product),
        "conekernel.fit_s": tr.total("conekernel.fit_expansion"),
        "conekernel.fit_condition_max": max(conditions),
        "phg.template_s": tr.total("phg.heat_trace_structure"),
        "zetator.zeta_s": tr.total("zetator.zeta_near_zero"),
        "zetator.assemble_s": tr.total("zetator.kernel_dimension",
                                       "conekernel.mckean_singer_defect",
                                       "zetator.torsion_assemble"),
        "cli.report_s": tr.total("cli.report"),
    }
    layers.update(figures)
    return text, layers


def counted_zeros(pipe) -> dict:
    """`jv` / `jvp` call counts of the cone spectra and traces."""
    import numpy as np
    from torsionlab import bessel, conekernel

    counts = {"bessel.jv_calls": 0, "bessel.jv_evals": 0, "bessel.jvp_calls": 0}
    zeros_per_order: dict[float, int] = {}
    jv, jvp, cone_spectrum = bessel.jv, bessel.jvp, conekernel.cone_spectrum

    def counting_jv(nu, x):
        counts["bessel.jv_calls"] += 1
        counts["bessel.jv_evals"] += int(np.size(x))
        return jv(nu, x)

    def counting_jvp(nu, x):
        counts["bessel.jvp_calls"] += 1
        return jvp(nu, x)

    def zeros_found(*args, **kwargs):
        cs = cone_spectrum(*args, **kwargs)
        zeros_per_order.update((nu, len(zs)) for nu, zs in cs.zeros.items())
        return cs

    bessel.jv, bessel.jvp, conekernel.cone_spectrum = counting_jv, counting_jvp, zeros_found
    pipe.cone_traces()
    counts["bessel.zeros"] = sum(zeros_per_order.values())
    return counts


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in ("setup", "trace", "count") or argv[1] != "--":
        sys.stderr.write("usage: layers.py setup|trace|count -- torsion <flags>\n")
        return 2
    mode, cli_argv = argv[0], argv[2:]
    pipe = build_pipeline(cli_argv)
    if mode == "setup":
        return 0
    if mode == "count":
        out = counted_zeros(pipe)
    else:
        tracer = Tracer()
        report, layers = traced_torsion(pipe, tracer)
        out = {"layers": layers, "spans": tracer.spans, "report": report}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
