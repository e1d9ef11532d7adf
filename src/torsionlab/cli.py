"""Command-line front end: model configuration and pipeline orchestration.

Subcommands:

    structure   symbolic heat-trace template and zeta pole report
    spectrum    fiber and Bessel-order spectra of a configured model; only it
                takes --convention (see torsionlab.fiber)
    trace       per-degree heat traces (JSON, or CSV; --degree K picks one)
    fit         expansion coefficients fitted against the predicted template
    zeta        per-degree zeta data near s = 0
    torsion     full pipeline: spectrum -> trace -> fit -> zeta -> report
    selftest    the oracle table (torsionlab.oracles), one PASS/FAIL line each;
                it takes no options

The pipeline subcommands describe the model by a fiber (a circle of
`--radius`, or a torus of `--periods`), optionally times a base (`--model
product --base circle|torus` with `--base-radius` or `--base-periods`), or
replace it by one radial mode (`--single-nu`).  Their one method knob is
`--t-min`, which sets cost and accuracy; `--lambda-max` overrides the
spectral cutoff it implies.  The other method constants are fixed (see
GRID_T_MAX and its neighbours).  A flag the chosen model would not read is
refused, not ignored.

Configuration comes from `--config file` (TOML-style `key = value` lines)
with command-line flags taking precedence.  Exit codes: 0 success, 2
invalid input, 3 I/O failure, 4 numerical certification failure.  All
output is deterministic: floats carry 17 significant digits and dict keys
are sorted, so identical configurations give byte-identical files.
"""

from __future__ import annotations

import os
import sys

# The largest matrix here is a least-squares design of at most 241 x 13,
# too small for a BLAS thread pool, yet OpenBLAS starts one when numpy
# loads: timed inside the process, `import numpy` took a median 88 ms with
# the pool and 46 ms with one thread (numpy 2.4, 2 CPUs, 12 runs each).  So
# numpy starts with one thread, unless the caller set a count or loaded
# numpy already, and the environment is restored for any process this one
# starts.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import argparse
import math
import operator
import time
from dataclasses import dataclass, field, replace
from functools import wraps
from fractions import Fraction

import numpy as np

from . import conekernel, fiber, phg, zetator
from ._serialize import dumps_canonical, write_atomic
from .errors import CertificationError, TorsionLabError

SCHEMA = "torsionlab/1"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

# ------------------------------------------------------------- config file --

def _parse_value(text: str):
    """A list, quoted string, boolean, number or bare word.  A number is a
    float, as argparse makes it: `periods = [3, 3]` is `--periods 3 3`."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [_parse_value(v) for v in inner.split(",")] if inner else []
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _strip_comment(line: str) -> tuple[str, bool]:
    """`line` up to its first # outside double quotes, and whether it
    leaves a quote open."""
    quoted = False
    for i, char in enumerate(line):
        if char == '"':
            quoted = not quoted
        elif char == "#" and not quoted:
            return line[:i], False
    return line, quoted


def parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line, open_quote = _strip_comment(raw)
            if not line.strip():
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if open_quote:
                raise ValueError(f"{path}:{lineno}: the value of {key} opens a quote "
                                 "it does not close")
            out[key] = _parse_value(value)
    return out


# Method constants of the pipeline, whose one knob is t_min (lambda_max
# defaults to 36/t_min):
# - GRID_POINTS log-spaced samples cover [t_min, GRID_T_MAX], for `trace`
#   and `supertrace_sup`; the zeta data read the fit window and split the
#   Mellin integral at the first sample, on which they do not depend
#   within their bounds (zetator, acceptance criterion 5).
# - The expansion is asymptotic as t -> 0, so only t <= FIT_T_MAX enters
#   the fit.  The window keeps out terms like t^a e^(-d^2/4t), d >= 2, that
#   no template term models; geodesics diffracted at the cone tip and
#   reflected at x = 1 would make them (Cheeger-Taylor, CPAM 35 (1982)).
#   e^(-1/t) is 4.5e-5 at t = 0.1 and 2.3e-16 at 1/36; at 0.07 the T^2
#   cone misses its reference value.
# - TEMPLATE_CUTOFF is the order of the first fit.  The fit pins the volume
#   and boundary coefficients, and the later ones geometry fixes
#   (`Pipeline.pins`: a_1 on torus fibers; on circle and T^2 fibers the
#   tip's and edge's coefficient at t^(-b/2), then a_(3/2), a_2 and a_(5/2)
#   on circles, the cone's t^(1/2), t^1 and t^(3/2) on T^2), and has no
#   t^a log t column: these models' zeta functions have only simple poles
#   (Bordag-Kirsten-Dowker), and the log columns are near-collinear with
#   the powers (order 3 with all of them: condition 1.8e7 on the disk and
#   1.8e8 on the circle product, on unit columns).
# - PARTNER_CUTOFF is the order of a second fit to the same window, with
#   the same pins.  The spread |order 2 - order 3| of zeta(0) and zeta'(0)
#   is the truncation bias: order 3's bounds add it, and order 2's add it
#   plus order 3's own bound, at most the spread again (`zetator`).  The
#   report reads the fit with the smaller zeta'(0) bound: order 2 on the
#   circle cones and the torus-base product, order 3 on the circle product
#   and the T^2 cone.  Either fixed order is worse: order 2 makes the T^2
#   cone's log T bound 3.2 times larger at t_min 1e-2 and the circle
#   product's 1.09 times, and order 3 makes the disk's 1.24 times and the
#   torus-base product's 1.14 times larger.  The partner keeps the t^0
#   log t column where the full template has one (even m): minus its
#   coefficient is the measured residue at s = 0.
# - One radial mode has the two-term theta expansion, order 1, and takes
#   no pins and no partner.
# - The models are exact cones, so their metric is exactly even, the
#   paper's even case, and the template always uses the even calculus.  The
#   odd one adds terms the traces lack: on the cone over T^2 at t_min 1e-2
#   its zeta'(0) bounds are 1.6e3 and 2.8e3.
GRID_T_MAX = 1.0
GRID_POINTS = 241
FIT_T_MAX = 1.0 / 36.0
TEMPLATE_CUTOFF = Fraction(2)
PARTNER_CUTOFF = Fraction(3)
SINGLE_NU_TEMPLATE_CUTOFF = Fraction(1)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what each ModelConfig key holds; argparse types the flags, but a config
# file can give any key any type
_NUMBER = ("a number", _is_number)
_NUMBERS = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)))
_STRING = ("a string", lambda v: isinstance(v, str))
# the values of each choice key, for the flags and for a config file
_CHOICES = {"model": ("cone", "product"), "fiber_kind": ("circle", "torus"),
            "base": ("point", "circle", "torus"), "format": ("json", "csv")}
_KEY_TYPES = {
    "model": _STRING, "fiber_kind": _STRING, "radius": _NUMBER, "periods": _NUMBERS,
    "base": _STRING, "base_radius": _NUMBER, "base_periods": _NUMBERS,
    "lambda_max": _NUMBER, "t_min": _NUMBER,
    "single_nu": _NUMBER, "output": _STRING, "format": _STRING,
}


def _flag(key: str) -> str:
    return "--fiber" if key == "fiber_kind" else "--" + key.replace("_", "-")


@dataclass
class ModelConfig:
    """One run's settings.  The model keys default to None, so an unset
    flag differs from one set to its default value; unset, the model is
    the cone over the unit circle."""

    model: str | None = None
    fiber_kind: str | None = None
    radius: float | None = None
    periods: list | None = None
    base: str | None = None
    base_radius: float | None = None
    base_periods: list | None = None
    lambda_max: float | None = None
    t_min: float = 1e-3
    single_nu: float | None = None
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
        """Refuse a bad value, and every key the chosen model would not read."""
        for key, value in vars(self).items():
            what, holds = _KEY_TYPES[key]
            if value is not None and not holds(value):
                raise ValueError(f"{key} must be {what}, got {value!r}")
            if _is_number(value) and not math.isfinite(value) \
                    or isinstance(value, list) and not all(map(math.isfinite, value)):
                raise ValueError(f"{key} must be finite, got {value!r}")
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in (None, *choices):
                raise ValueError(f"{key} must be {' or '.join(choices)}, "
                                 f"got {getattr(self, key)!r}")
        if self.single_nu is not None:
            model_keys = ("model", "fiber_kind", "radius", "periods",
                          "base", "base_radius", "base_periods")
            given = [_flag(key) for key in model_keys if getattr(self, key) is not None]
            if given:
                raise ValueError(f"--single-nu replaces the model; {', '.join(given)} "
                                 "would be ignored")
        has_base = self.base not in (None, "point")
        if self.model != "product" and has_base:
            raise ValueError("cone model takes base = point; use model = product")
        if self.model == "product" and not has_base:
            raise ValueError("--model product needs --base circle or --base torus")
        for prefix, part, kind in (("", "fiber", self.fiber_kind or "circle"),
                                   ("base_", "base", self.base or "point")):
            for key, reader in (("radius", "circle"), ("periods", "torus")):
                if getattr(self, prefix + key) is not None and kind != reader:
                    raise ValueError(f"{_flag(prefix + key)} applies to a {reader} "
                                     f"{part}, and the {part} is {kind}")
            if kind == "torus" and not getattr(self, prefix + "periods"):
                raise ValueError(f"a torus {part} needs {_flag(prefix + 'periods')}")
        for key in ("radius", "periods", "base_radius", "base_periods", "lambda_max", "t_min"):
            value = getattr(self, key)
            if value is not None and not all(v > 0 for v in np.ravel(value)):
                raise ValueError(f"{_flag(key)} must be positive, got {value!r}")


def _flat_factor(kind: str, radius, periods) -> tuple[tuple[float, ...], str]:
    """Periods and label of a closed flat factor of the model: a circle of
    radius r (default 1) is the 1-torus of period 2 pi r."""
    if kind == "circle":
        r = 1.0 if radius is None else radius
        return (2.0 * math.pi * r,), f"circle(r={r})"
    return tuple(float(p) for p in periods), f"torus{tuple(periods)}"


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


def _each_distinct(inputs: dict, same, compute, reuse=lambda k, result: result) -> dict:
    """{k: compute(k, x)} over `inputs`, except that an x for which `same`
    holds with an earlier key's input takes that key's result, passed
    through `reuse(k, result)`: each distinct input is computed once.  The
    test is on the data, so degrees that Hodge duality would pair but whose
    inputs differ are each computed."""
    out: dict = {}
    computed: dict = {}
    for k, x in inputs.items():
        twin = next((j for j, y in computed.items() if same(y, x)), None)
        if twin is None:
            computed[k] = x
            out[k] = compute(k, x)
        else:
            out[k] = reuse(k, out[twin])
    return out


def _same_orders(a: fiber.NuSpectrum, b: fiber.NuSpectrum) -> bool:
    return np.array_equal(a.nu, b.nu) and np.array_equal(a.mult, b.mult)


@dataclass
class Pipeline:
    """Lazily evaluated model pipeline shared by the subcommands.

    The model is its fiber periods and its base periods: the cone over the
    flat fiber, times the flat base when there is one.  A single radial
    mode has neither and keeps degree 0 only.

    On the model cones the Hodge star pairs degree k with m - k, and their
    inputs come out bit-equal.  A degree whose Bessel orders equal an
    earlier degree's takes that degree's cone trace; one whose trace equals
    an earlier degree's takes its fit, and with the same kernel dimension
    its zeta data, relabelled.
    """

    cfg: ModelConfig
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        cfg = self.cfg
        self.lambda_max = cfg.lambda_max if cfg.lambda_max is not None \
            else 36.0 / cfg.t_min
        if cfg.t_min >= GRID_T_MAX:
            raise ValueError(f"--t-min {cfg.t_min!r} must lie below GRID_T_MAX = "
                             f"{GRID_T_MAX}, where the sample grid ends")
        self.grid = conekernel.log_grid(cfg.t_min, GRID_T_MAX, GRID_POINTS)
        self.fiber_periods: tuple[float, ...] = ()
        self.base_periods: tuple[float, ...] = ()
        if cfg.single_nu is not None:
            self.label = f"single-nu({cfg.single_nu})"
        else:
            self.fiber_periods, fib = _flat_factor(cfg.fiber_kind or "circle", cfg.radius,
                                                   cfg.periods)
            self.label = f"cone[{fib}]"
            if cfg.base not in (None, "point"):
                self.base_periods, base = _flat_factor(cfg.base, cfg.base_radius,
                                                       cfg.base_periods)
                self.label = f"{base} x {self.label}"
        self.cone_dim = len(self.fiber_periods) + 1
        self.b = len(self.base_periods)
        self.m = self.b + self.cone_dim
        self.degrees = [0] if cfg.single_nu is not None else list(range(self.m + 1))

    # -- stages ---------------------------------------------------------

    def nu_cutoff(self) -> float:
        return math.sqrt(self.lambda_max) + 0.5

    def fiber_spectrum(self) -> fiber.FiberSpectrum:
        if self.cfg.single_nu is not None:
            raise ValueError("single-nu override has no fiber spectrum")
        return fiber.torus_spectrum(self.fiber_periods,
                                    cutoff=self.nu_cutoff() + fiber.A_SPECTRUM_MARGIN)

    def nu_spectra(self, convention=fiber.Convention.GEOMETRIC_ORACLE) -> dict:
        if self.cfg.single_nu is not None:
            return {0: fiber.single_nu_spectrum(self.cfg.single_nu)}
        fib = self.fiber_spectrum()
        return {p: fiber.a_spectrum(fib, p, convention, nu_max=self.nu_cutoff())
                for p in range(self.cone_dim + 1)}

    def cone_traces(self) -> dict[int, conekernel.TraceSamples]:
        def trace(p, spec):
            cs = conekernel.cone_spectrum(spec, self.lambda_max, cone_dim=self.cone_dim)
            return conekernel.truncated_cone_trace(cs, p, self.grid)
        return _each_distinct(self.nu_spectra(), _same_orders, trace)

    @_stage
    def traces(self) -> dict[int, conekernel.TraceSamples]:
        cone = self.cone_traces()
        if not self.base_periods:
            return cone
        base_fiber = fiber.torus_spectrum(self.base_periods, cutoff=self.nu_cutoff())
        theta = conekernel.fiber_factor_trace(base_fiber, self.grid)
        return conekernel.product_trace(theta, cone, self.base_periods)

    def template(self) -> phg.ExpansionTemplate:
        cutoff = SINGLE_NU_TEMPLATE_CUTOFF if self.cfg.single_nu is not None \
            else TEMPLATE_CUTOFF
        return phg.heat_trace_structure(self.m, self.b, even=True, boundary=True,
                                        cutoff=cutoff).without_logs()

    def partner_template(self) -> phg.ExpansionTemplate | None:
        """The order-3 template whose fit's spread from the order-2 fit is
        both fits' truncation bias; it keeps the t^0 log column, which
        measures the residue at s = 0.  One radial mode has none."""
        if self.cfg.single_nu is not None:
            return None
        return phg.heat_trace_structure(self.m, self.b, even=True, boundary=True,
                                        cutoff=PARTNER_CUTOFF).without_logs(keep=(0,))

    def pins(self, degree: int) -> dict[Fraction, conekernel.Pin]:
        """The heat coefficients of `degree` that geometry fixes, each with
        its own error bound (`conekernel.heat_pins`).  One radial mode
        takes none."""
        if self.cfg.single_nu is not None:
            return {}
        return conekernel.heat_pins(self.m, degree, self.fiber_periods,
                                    math.prod(self.base_periods))

    @_stage
    def fits(self) -> dict[int, conekernel.FittedExpansion]:
        tpl, partner = self.template(), self.partner_template()
        columns = max(tpl.basis_size, partner.basis_size if partner else 0) \
            - len(self.pins(0))
        window = int(np.count_nonzero(self.grid <= FIT_T_MAX))
        if window < 2 * columns:
            raise ValueError(f"--t-min {self.cfg.t_min!r} leaves {window} samples in the fit "
                             f"window t <= FIT_T_MAX = {FIT_T_MAX:.4g}; it needs {2 * columns}")
        inputs = {k: (tr, self.pins(k)) for k, tr in self.traces().items()}
        return _each_distinct(
            inputs, operator.eq,
            lambda k, x: conekernel.fit_expansion(x[0].restrict(t_max=FIT_T_MAX), tpl,
                                                  x[1], partner))

    def _kernels(self) -> list[int]:
        kernels = zetator.kernel_dimension(self.m)
        return [kernels[k] for k in self.degrees]

    @_stage
    def zetas(self) -> dict[int, zetator.ZetaData]:
        fits, traces = self.fits(), self.traces()  # the fits check t_min first
        inputs = {k: (fits[k], kernel) for k, kernel in zip(self.degrees, self._kernels())}
        # `fits` shares a fit only between equal traces, so one fit object and
        # one kernel dimension give one zeta
        return _each_distinct(
            inputs, lambda a, b: a[0] is b[0] and a[1] == b[1],
            lambda k, x: zetator.zeta_near_zero(traces[k], *x, degree=k),
            lambda k, z: replace(z, degree=k))

    def torsion(self) -> zetator.TorsionReport:
        diagnostics = {"lambda_max": self.lambda_max, "t_min": self.cfg.t_min,
                       "grid_points": GRID_POINTS}
        zetas = self.zetas()  # before the traces, as in `zetas`
        # the alternating sum pairs degrees; a single radial mode has only one
        if len(self.degrees) > 1:
            traces = self.traces()
            diagnostics["supertrace_sup"] = conekernel.mckean_singer_defect(
                [traces[k] for k in self.degrees], self._kernels())
        return zetator.torsion_assemble([zetas[k] for k in self.degrees],
                                        model=self.label, diagnostics=diagnostics)


# ----------------------------------------------------------------- output --

def _write(text: str, output: str | None) -> None:
    if output:
        write_atomic(output, text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, output: str | None) -> None:
    _write(dumps_canonical({"schema": SCHEMA, **payload}), output)


def _mode_error(exc: BaseException) -> int:
    if isinstance(exc, CertificationError):
        return EXIT_NUMERICAL
    if isinstance(exc, OSError):
        return EXIT_IO
    return EXIT_INVALID


# --------------------------------------------------------------- commands --

# `structure` prints every term up to its cutoff, so its output grows with
# the cutoff (39 kB at 250 on m = 3, b = 1); the pipeline's templates stop at 2
STRUCTURE_CUTOFF_MAX = 100


def cmd_structure(args: argparse.Namespace) -> int:
    m, b = args.m, args.b
    if not 0 <= b <= m - 2:
        raise ValueError(f"b must satisfy b <= m-2 (edge needs a fiber), got m={m}, b={b}")
    try:
        cutoff = Fraction(args.cutoff)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--cutoff must be a rational number, got {args.cutoff!r}") from None
    # the report's claims at s = 0 read the t^0 terms, so the template must reach them
    if cutoff < 0:
        raise ValueError(f"--cutoff must be >= 0 to reach t^0, got {args.cutoff}")
    if cutoff > STRUCTURE_CUTOFF_MAX:
        raise ValueError(f"--cutoff must be <= {STRUCTURE_CUTOFF_MAX}, got {args.cutoff}")
    tpl = phg.heat_trace_structure(m, b, even=args.even, boundary=args.boundary,
                                   cutoff=cutoff)
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
    if args.degree is not None and args.degree not in pipe.degrees:
        raise ValueError(f"--degree {args.degree} is not a degree of {pipe.label}; "
                         f"its degrees are {pipe.degrees}")
    traces = pipe.traces()
    if pipe.cfg.format == "csv":
        _write(traces[args.degree].to_csv(), pipe.cfg.output)
        return EXIT_OK
    payload = {"model": pipe.label, "traces": {}}
    for k, tr in sorted(traces.items()):
        if args.degree in (None, k):
            payload["traces"][str(k)] = {
                "t": list(tr.grid), "value": list(tr.values),
                "tail_bound": list(tr.tail_bound)}
    _emit(payload, pipe.cfg.output)
    return EXIT_OK


def _stage_command(key: str, stage):
    """A subcommand that prints `stage(pipe, args)`, keyed by degree."""
    def command(args: argparse.Namespace) -> int:
        pipe = _pipeline(args)
        _emit({"model": pipe.label,
               key: {str(k): v.to_json_dict() for k, v in stage(pipe, args).items()}},
              pipe.cfg.output)
        return EXIT_OK
    return command


def _spectra(pipe: Pipeline, args: argparse.Namespace) -> dict:
    """`spectrum` alone reads --convention: the stages run GeometricOracle."""
    if args.convention is not None and pipe.cfg.single_nu is not None:
        raise ValueError("--single-nu replaces the model; --convention would be ignored")
    literal = args.convention == "paper-literal"
    return pipe.nu_spectra(fiber.Convention.PAPER_LITERAL) if literal else pipe.nu_spectra()


cmd_spectrum = _stage_command("nu_spectra", _spectra)
cmd_fit = _stage_command("fits", lambda pipe, args: pipe.fits())
cmd_zeta = _stage_command("zeta", lambda pipe, args: pipe.zetas())


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
    print(f"log T = {report.log_torsion:.12g} ± {report.log_torsion_bound:.3g}", file=sys.stderr)
    print(f"torsion zeta regular at 0: {report.torsion_zeta_regular} "
          f"(per-degree regular: {report.all_degrees_regular}, "
          f"residues cancel: {report.residues_cancel})", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- selftest --

def cmd_selftest(args: argparse.Namespace) -> int:
    from . import oracles  # only selftest compiles the table

    failures = 0
    width = max(len(name) for name, _, _ in oracles.ORACLES)
    for name, number, check in oracles.ORACLES:
        start = time.perf_counter()
        try:
            passed, detail = check()
        except Exception as exc:  # a crashed oracle is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        failures += not passed
        print(f"{number or '':>2}  {name:<{width}}  {'PASS' if passed else 'FAIL'} "
              f"{elapsed:7.2f}s  {detail}")
    print(f"{'-' * (width + 19)}")
    print(f"{failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


# ------------------------------------------------------------------ parser --

def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="TOML-style key=value config file")
    sub.add_argument("--model", choices=_CHOICES["model"])
    sub.add_argument("--fiber", dest="fiber_kind", choices=_CHOICES["fiber_kind"])
    sub.add_argument("--radius", type=float, help="fiber circle radius")
    sub.add_argument("--periods", type=float, nargs="+", help="fiber torus periods")
    sub.add_argument("--base", choices=_CHOICES["base"])
    sub.add_argument("--base-radius", dest="base_radius", type=float)
    sub.add_argument("--base-periods", dest="base_periods", type=float, nargs="+")
    sub.add_argument("--lambda-max", dest="lambda_max", type=float,
                     help="spectral cutoff (default 36/t_min)")
    sub.add_argument("--t-min", dest="t_min", type=float,
                     help="smallest sampled time: sets cost and accuracy (default 1e-3)")
    sub.add_argument("--single-nu", dest="single_nu", type=float,
                     help="replace the model by one radial mode of this order")
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
        if name == "spectrum":
            sub.add_argument("--convention", choices=["geometric-oracle", "paper-literal"])
        if name == "trace":
            sub.add_argument("--format", choices=_CHOICES["format"])
            sub.add_argument("--degree", type=int)
        sub.set_defaults(func=func)

    subs.add_parser("selftest", help="the oracle table").set_defaults(func=cmd_selftest)
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
