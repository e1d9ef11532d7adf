"""Command-line front end: model configuration and pipeline orchestration.

Subcommands:

    structure   symbolic heat-trace template and zeta pole report
    spectrum    fiber and Bessel-order spectra of a configured model
    trace       per-degree heat traces (JSON, or CSV for one degree)
    fit         expansion coefficients fitted against the predicted template
    zeta        per-degree zeta data near s = 0
    torsion     full pipeline: spectrum -> trace -> fit -> zeta -> report
    selftest    the oracle table (torsionlab.oracles), one PASS/FAIL line each

Configuration comes from `--config file` (TOML-style `key = value` lines)
with command-line flags taking precedence.  Exit codes: 0 success, 2
invalid input, 3 I/O failure, 4 numerical certification failure.  All
output is deterministic: floats carry 17 significant digits and dict keys
are sorted, so identical configurations give byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import wraps
from fractions import Fraction

from . import conekernel, fiber, oracles, phg, zetator
from ._serialize import dumps_canonical, write_atomic
from .errors import (
    CertificationError,
    DecayRateUnknown,
    FitResidualTooLarge,
    TorsionLabError,
)

SCHEMA = "torsionlab/1"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

CONVENTION_ALIASES = {
    "paper-literal": "PaperLiteral",
    "geometric-oracle": "GeometricOracle",
    "PaperLiteral": "PaperLiteral",
    "GeometricOracle": "GeometricOracle",
}


# ------------------------------------------------------------- config file --

def _parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [_parse_value(v) for v in inner.split(",")] if inner else []
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip()] = _parse_value(value)
    return out


@dataclass
class ModelConfig:
    model: str = "cone"                  # cone | product
    fiber_kind: str = "circle"           # circle | torus
    radius: float = 1.0
    periods: list = field(default_factory=list)
    base: str = "point"                  # point | circle | torus
    base_radius: float = 1.0
    base_periods: list = field(default_factory=list)
    convention: str = "GeometricOracle"
    lambda_max: float | None = None
    t_min: float = 1e-3
    t_max: float = 1e-1
    points: int = 241
    even: bool = True
    single_nu: float | None = None
    # fit basis order: 3 (the symbolic default) makes the m = 2 log basis
    # collide with the conditioning limit, 2 is accurate and well-posed
    template_cutoff: str = "2"
    split: float = 1.0
    output: str | None = None
    format: str = "json"

    @classmethod
    def from_sources(cls, args: argparse.Namespace, file_cfg: dict) -> "ModelConfig":
        cfg = cls()
        for key in vars(cfg):
            flag = getattr(args, key, None)
            if flag is not None:
                setattr(cfg, key, flag)
            elif key in file_cfg:
                setattr(cfg, key, file_cfg[key])
        unknown = set(file_cfg) - set(vars(cfg))
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cfg

    def validate(self) -> None:
        if self.model not in ("cone", "product"):
            raise ValueError(f"model must be cone or product, got {self.model!r}")
        if self.fiber_kind not in ("circle", "torus"):
            raise ValueError(f"fiber must be circle or torus, got {self.fiber_kind!r}")
        if self.base not in ("point", "circle", "torus"):
            raise ValueError(f"base must be point, circle or torus, got {self.base!r}")
        if self.model == "cone" and self.base != "point":
            raise ValueError("cone model takes base = point; use model = product")
        if not 0 < self.t_min < self.t_max:
            raise ValueError("need 0 < t_min < t_max")
        if self.points < 16:
            raise ValueError("need at least 16 grid points")
        if self.lambda_max is not None and self.lambda_max <= 0:
            raise ValueError("lambda_max must be positive")
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.format!r}")
        if self.convention not in CONVENTION_ALIASES:
            raise ValueError(f"unknown convention {self.convention!r}")
        self.convention = CONVENTION_ALIASES[self.convention]


# --------------------------------------------------------------- pipeline --

def _stage(method):
    """Compute a pipeline stage once per instance.  The stage stays a plain
    method, so an instance attribute of the same name still replaces it."""
    @wraps(method)
    def once(self):
        if method.__name__ not in self._memo:
            self._memo[method.__name__] = method(self)
        return self._memo[method.__name__]
    return once


@dataclass
class Pipeline:
    """Lazily evaluated model pipeline shared by the subcommands."""

    cfg: ModelConfig
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        cfg = self.cfg
        self.lambda_max = cfg.lambda_max if cfg.lambda_max is not None \
            else 36.0 / cfg.t_min
        self.grid = conekernel.log_grid(cfg.t_min, max(cfg.split, cfg.t_max),
                                        cfg.points)
        if cfg.single_nu is not None:
            self.descriptor = zetator.ModelDescriptor("cone", fiber_dim=0)
            self.m = 1
            self.b = 0
            self.degrees = [0]
            return
        if cfg.fiber_kind == "circle":
            self.fiber_periods = (2.0 * math.pi * cfg.radius,)
        else:
            if not cfg.periods:
                raise ValueError("torus fiber needs periods")
            self.fiber_periods = tuple(float(p) for p in cfg.periods)
        f = len(self.fiber_periods)
        cone = zetator.ModelDescriptor("cone", fiber_dim=f)
        if cfg.base == "point":
            self.descriptor = cone
            self.b = 0
        else:
            if cfg.base == "circle":
                self.base_periods = (2.0 * math.pi * cfg.base_radius,)
            else:
                if not cfg.base_periods:
                    raise ValueError("torus base needs base_periods")
                self.base_periods = tuple(float(p) for p in cfg.base_periods)
            base = zetator.ModelDescriptor(cfg.base, periods=self.base_periods)
            self.descriptor = zetator.ModelDescriptor("product", parts=(base, cone))
            self.b = len(self.base_periods)
        self.m = self.descriptor.dimension()
        self.degrees = list(range(self.m + 1))

    # -- stages ---------------------------------------------------------

    def nu_cutoff(self) -> float:
        return math.sqrt(self.lambda_max) + 0.5

    def fiber_spectrum(self) -> fiber.FiberSpectrum:
        if self.cfg.single_nu is not None:
            raise ValueError("single-nu override has no fiber spectrum")
        return fiber.torus_spectrum(self.fiber_periods,
                                    cutoff=self.nu_cutoff() + fiber.A_SPECTRUM_MARGIN)

    def nu_spectra(self) -> dict[int, fiber.NuSpectrum]:
        if self.cfg.single_nu is not None:
            return {0: fiber.single_nu_spectrum(self.cfg.single_nu,
                                                convention=self.cfg.convention)}
        fib = self.fiber_spectrum()
        cone_degs = range(len(self.fiber_periods) + 2)
        return {p: fiber.a_spectrum(fib, p, self.cfg.convention, nu_max=self.nu_cutoff())
                for p in cone_degs}

    def cone_traces(self) -> dict[int, conekernel.TraceSamples]:
        cone_dim = 1 if self.cfg.single_nu is not None else len(self.fiber_periods) + 1
        out = {}
        for p, spec in self.nu_spectra().items():
            cs = conekernel.cone_spectrum(spec, self.lambda_max, cone_dim=cone_dim)
            out[p] = conekernel.truncated_cone_trace(cs, p, self.grid)
        return out

    @_stage
    def traces(self) -> dict[int, conekernel.TraceSamples]:
        cone = self.cone_traces()
        if self.cfg.base == "point" or self.cfg.single_nu is not None:
            return cone
        base_fiber = fiber.torus_spectrum(self.base_periods, cutoff=self.nu_cutoff())
        base = {d: conekernel.fiber_factor_trace(base_fiber, d, self.grid)
                for d in range(len(self.base_periods) + 1)}
        return conekernel.product_trace([base, cone])

    def template(self) -> phg.ExpansionTemplate:
        cutoff = Fraction(1) if self.cfg.single_nu is not None \
            else Fraction(self.cfg.template_cutoff)
        return phg.heat_trace_structure(self.m, self.b, even=self.cfg.even,
                                        boundary=True, cutoff=cutoff)

    @_stage
    def fits(self) -> dict[int, conekernel.FittedExpansion]:
        tpl = self.template()
        return {k: conekernel.fit_expansion(tr.restrict(t_max=self.cfg.t_max), tpl)
                for k, tr in self.traces().items()}

    def _kernels(self) -> list[int]:
        kernels = zetator.kernel_dimension(self.descriptor)
        return [kernels[k] if k < len(kernels) else 0 for k in self.degrees]

    @_stage
    def zetas(self) -> dict[int, zetator.ZetaData]:
        traces, fits = self.traces(), self.fits()
        return {k: zetator.zeta_near_zero(traces[k], fits[k], kernel, split=self.cfg.split,
                                          degree=k)
                for k, kernel in zip(self.degrees, self._kernels())}

    def torsion(self) -> zetator.TorsionReport:
        diagnostics = {"lambda_max": self.lambda_max, "t_min": self.cfg.t_min,
                       "grid_points": self.cfg.points}
        # the alternating sum pairs degrees; a single radial mode has only one
        if len(self.degrees) > 1:
            traces = self.traces()
            diagnostics["mckean_singer_defect"] = conekernel.mckean_singer_defect(
                [traces[k] for k in self.degrees], self._kernels())
        zetas = self.zetas()
        return zetator.torsion_assemble([zetas[k] for k in self.degrees],
                                        model=self.model_label(), diagnostics=diagnostics)

    def model_label(self) -> str:
        cfg = self.cfg
        if cfg.single_nu is not None:
            return f"single-nu({cfg.single_nu})"
        fib = f"circle(r={cfg.radius})" if cfg.fiber_kind == "circle" \
            else f"torus{tuple(cfg.periods)}"
        if cfg.base == "point":
            return f"cone[{fib}]"
        base = f"circle(r={cfg.base_radius})" if cfg.base == "circle" \
            else f"torus{tuple(cfg.base_periods)}"
        return f"{base} x cone[{fib}]"


# ----------------------------------------------------------------- output --

def _write(text: str, output: str | None) -> None:
    if output:
        write_atomic(output, text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, output: str | None) -> None:
    _write(dumps_canonical({"schema": SCHEMA, **payload}), output)


def _mode_error(exc: BaseException) -> int:
    if isinstance(exc, (CertificationError, FitResidualTooLarge, DecayRateUnknown)):
        return EXIT_NUMERICAL
    if isinstance(exc, OSError):
        return EXIT_IO
    return EXIT_INVALID


# --------------------------------------------------------------- commands --

def cmd_structure(args: argparse.Namespace) -> int:
    m, b = args.m, args.b
    if not 0 <= b <= m - 2:
        raise ValueError(f"b must satisfy b <= m-2 (edge needs a fiber), got m={m}, b={b}")
    tpl = phg.heat_trace_structure(m, b, even=args.even, boundary=args.boundary,
                                   cutoff=Fraction(args.cutoff))
    poles = phg.zeta_pole_structure(tpl)
    _emit({"template": tpl.to_json_dict(), "zeta": poles.to_json_dict()}, args.output)
    return EXIT_OK


def _pipeline(args: argparse.Namespace) -> Pipeline:
    file_cfg = parse_config_file(args.config) if args.config else {}
    cfg = ModelConfig.from_sources(args, file_cfg)
    cfg.validate()
    if cfg.format != "json" and args.command != "trace":
        raise ValueError(f"format = {cfg.format} applies only to trace")
    return Pipeline(cfg)


def cmd_trace(args: argparse.Namespace) -> int:
    pipe = _pipeline(args)
    if pipe.cfg.format == "csv" and args.degree is None:
        raise ValueError("csv trace output needs --degree")
    traces = pipe.traces()
    if pipe.cfg.format == "csv":
        _write(traces[args.degree].to_csv(), pipe.cfg.output)
        return EXIT_OK
    payload = {"model": pipe.model_label(), "traces": {}}
    for k, tr in sorted(traces.items()):
        payload["traces"][str(k)] = {
            "t": list(tr.grid), "value": list(tr.values),
            "tail_bound": list(tr.tail_bound)}
    _emit(payload, pipe.cfg.output)
    return EXIT_OK


def _stage_command(key: str, stage: str):
    """A subcommand that prints one pipeline stage, keyed by degree."""
    def command(args: argparse.Namespace) -> int:
        pipe = _pipeline(args)
        _emit({"model": pipe.model_label(),
               key: {str(k): v.to_json_dict() for k, v in getattr(pipe, stage)().items()}},
              pipe.cfg.output)
        return EXIT_OK
    return command


cmd_spectrum = _stage_command("nu_spectra", "nu_spectra")
cmd_fit = _stage_command("fits", "fits")
cmd_zeta = _stage_command("zeta", "zetas")


def cmd_torsion(args: argparse.Namespace) -> int:
    pipe = _pipeline(args)
    output = pipe.cfg.output
    summary = os.path.splitext(output)[0] + ".csv" if output else None
    if output and summary == output:
        raise ValueError(f"output {output!r} is also the name of its CSV summary")
    report = pipe.torsion()
    _emit({"report": report.to_json_dict()}, output)
    if summary:
        write_atomic(summary, report.to_csv())
    print(f"log T = {report.log_torsion:.12g}", file=sys.stderr)
    print(f"torsion zeta regular at 0: {report.torsion_zeta_regular} "
          f"(per-degree regular: {report.all_degrees_regular}, "
          f"residues cancel: {report.residues_cancel})", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- selftest --

def cmd_selftest(args: argparse.Namespace) -> int:
    convention = fiber.Convention(CONVENTION_ALIASES[args.convention or "GeometricOracle"])
    failures = 0
    width = max(len(name) for name, _, _ in oracles.ORACLES)
    for name, _, check in oracles.ORACLES:
        start = time.perf_counter()
        try:
            status, detail = check(args.quick, convention)
        except Exception as exc:  # a crashed oracle is a failure, not an abort
            status, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if status == "expected-fail":
            tag = "EXPECTED-FAIL"
        elif status:
            tag = "PASS"
        else:
            tag = "FAIL"
            failures += 1
        print(f"{name:<{width}}  {tag:<13} {elapsed:7.2f}s  {detail}")
    print(f"{'-' * (width + 24)}")
    print(f"{failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


# ------------------------------------------------------------------ parser --

def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="TOML-style key=value config file")
    sub.add_argument("--model", choices=["cone", "product"])
    sub.add_argument("--fiber", dest="fiber_kind", choices=["circle", "torus"])
    sub.add_argument("--radius", type=float, help="fiber circle radius")
    sub.add_argument("--periods", type=float, nargs="+", help="fiber torus periods")
    sub.add_argument("--base", choices=["point", "circle", "torus"])
    sub.add_argument("--base-radius", dest="base_radius", type=float)
    sub.add_argument("--base-periods", dest="base_periods", type=float, nargs="+")
    sub.add_argument("--convention",
                     choices=sorted(CONVENTION_ALIASES))
    sub.add_argument("--lambda-max", dest="lambda_max", type=float)
    sub.add_argument("--t-min", dest="t_min", type=float)
    sub.add_argument("--t-max", dest="t_max", type=float)
    sub.add_argument("--points", type=int)
    sub.add_argument("--even", dest="even", action="store_const", const=True)
    sub.add_argument("--no-even", dest="even", action="store_const", const=False)
    sub.add_argument("--single-nu", dest="single_nu", type=float,
                     help="replace the model by one radial mode of this order")
    sub.add_argument("--template-cutoff", dest="template_cutoff")
    sub.add_argument("--split", type=float, help="Mellin split point")
    sub.add_argument("--output", "-o")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="heat traces, zeta functions and analytic torsion of model edge spaces")
    subs = parser.add_subparsers(dest="command", required=True)

    st = subs.add_parser("structure", help="symbolic expansion template and pole report")
    st.add_argument("--m", type=int, required=True)
    st.add_argument("--b", type=int, required=True)
    st.add_argument("--even", action="store_true")
    st.add_argument("--boundary", action="store_true")
    st.add_argument("--cutoff", default="3")
    st.add_argument("--output", "-o")
    st.set_defaults(func=cmd_structure)

    for name, func, help_text in [
        ("spectrum", cmd_spectrum, "nu spectra of the configured model"),
        ("trace", cmd_trace, "per-degree heat traces"),
        ("fit", cmd_fit, "fitted expansion coefficients"),
        ("zeta", cmd_zeta, "per-degree zeta data near s = 0"),
        ("torsion", cmd_torsion, "full analytic-torsion pipeline"),
    ]:
        sub = subs.add_parser(name, help=help_text)
        _add_model_flags(sub)
        if name == "trace":
            sub.add_argument("--format", choices=["json", "csv"])
            sub.add_argument("--degree", type=int)
        sub.set_defaults(func=func)

    se = subs.add_parser("selftest", help="oracle suite")
    se.add_argument("--quick", action="store_true")
    se.add_argument("--convention", choices=sorted(CONVENTION_ALIASES))
    se.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_IO
    except (TorsionLabError, OSError, ValueError, KeyError) as exc:
        code = _mode_error(exc)
        sys.stderr.write(dumps_canonical(
            {"error": type(exc).__name__, "message": str(exc), "exit_code": code}))
        return code


if __name__ == "__main__":
    sys.exit(main())
