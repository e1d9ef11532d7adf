"""torsionlab benchmark: the `torsion` CLI on three model spaces.

    python3 perfbench/run.py --workload disk|product|torus|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/` (no
install).  Load is a closed loop of one client: one process at a time, and
every repetition is a fresh process, so each pays imports and starts with
the Bessel-zero cache cold, as a CLI user does.  The workloads are fixed
model configurations with no random part; the seed only shuffles the
order of the processes started within a run.

--trace 0 measures, for `--seconds`, shuffled rounds of
  * a CLI run, `python3 -m torsionlab.cli torsion <flags>`, timed from
    spawn to exit (`wall_s`) with its peak RSS from wait4 (`peak_rss_mb`);
  * SETUP_PROBES set-up probes (`layers.py setup`) that import
    `torsionlab.cli` and build the `Pipeline`, timed the same way
    (`setup_s`);
and reports the medians plus `log_t_bound` read from the report.

--trace 1 adds the layer view: a traced process (`layers.py trace`) in
every round times every public call the pipeline makes, and a separate
counting process (`layers.py count`) counts `jv` / `jvp` calls.
`trace.overhead_s` is the median over rounds of the traced process's wall
time minus the same round's CLI wall time: both are whole processes that
parse the same flags, import the same modules and print one report.

Every report is checked (see `check_report`); a failed check or a non-zero
exit counts in `failed`.  The last stdout line is the JSON result; the
lines before it are a readable summary with sample counts and run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    # defaults: cone over the unit circle, t_min 1e-3; 191 Bessel orders with
    # ~23 zeros each, no product step; the only model with a closed-form oracle
    "disk": ["torsion"],
    # S^1 x cone(S^1): the disk's zeros, then 855,680 eigenvalue pairs per
    # degree in the product step; the only workload where memory matters
    "product": ["torsion", "--model", "product", "--base", "circle"],
    # cone over the flat 2-torus: 3,238 orders with ~4 zeros each (the other
    # zero-finding regime) plus the torus fiber spectrum
    "torus": ["torsion", "--fiber", "torus",
              "--periods", "6.283185307179586", "6.283185307179586", "--t-min", "1e-2"],
}

SCHEMA = "torsionlab/1"
# Weisberger, CMP 112 (1987) 633: zeta'(0) of the Dirichlet Laplacian on the
# unit disk is 5/12 + (1/2) log pi + (1/6) log 2 + 2 zeta_R'(-1) (mpmath value)
DISK_ZETA_PRIME0 = 0.7737138522837891
DISK_ZETA0 = 1.0 / 6.0

MIN_ROUNDS = 3           # rounds per run, however long they take
SETUP_PROBES = 3         # set-up probes per round: each is ~1 s, a third of `disk`
CHILD_TIMEOUT_S = 120.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "TORSIONLAB_THREADS")

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "log_t_bound")
UNITS = {"log_t_bound": "nat", "oracle_abs_err": "1", "bessel.us_per_zero": "us/zero",
         "bessel.newton_per_zero": "jvp/zero", "conekernel.fit_condition_max": "ratio"}


def unit(key: str) -> str:
    if key in UNITS:
        return UNITS[key]
    if key.endswith("_s"):
        return "s"
    return "MB" if key.endswith("_mb") else "count"


class Child:
    """Outcome of one child process: exit code, output, wall time, peak RSS."""

    def __init__(self, argv: list[str]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out: dict[str, bytes] = {}
        readers = [threading.Thread(target=lambda k=k, s=s: out.__setitem__(k, s.read()))
                   for k, s in (("stdout", proc.stdout), ("stderr", proc.stderr))]
        for r in readers:
            r.start()
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4 rather than Popen.wait: it returns this child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            killer.cancel()
        self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        for r in readers:
            r.join()
        proc.stdout.close()
        proc.stderr.close()
        self.returncode = proc.returncode
        self.stdout = out.get("stdout", b"").decode()
        self.stderr = out.get("stderr", b"").decode()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0

    def problem(self) -> str | None:
        if self.returncode != 0:
            tail = self.stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {self.returncode}: {tail[0]}"
        return None


def cli_run(name: str) -> Child:
    return Child(["-m", "torsionlab.cli"] + WORKLOADS[name])


def layers_run(mode: str, name: str) -> Child:
    return Child([str(HERE / "layers.py"), mode, "--"] + WORKLOADS[name])


# ------------------------------------------------------------ output check --

def _reference() -> dict:
    with open(HERE / "reference.json") as handle:
        return json.load(handle)["zeta_prime0"]


def check_report(name: str, text: str, reference: dict) -> list[str]:
    """Problems with one `torsion` report; bounds, not bytes, so that later
    accuracy work still passes."""
    try:
        doc = json.loads(text)
        per = doc["report"]["per_degree"]
        values = [(z["zeta0"], z["zeta_prime0"], z["diagnostics"]["zeta0_bound"],
                   z["diagnostics"]["zeta_prime0_bound"]) for z in per]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
    problems = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema {doc.get('schema')!r} is not {SCHEMA!r}")
    m = len(values) - 1
    for k, (z0, zp, b0, bp) in enumerate(values):
        d0, dp, c0, cp = values[m - k]
        if abs(z0 - d0) > b0 + c0 or abs(zp - dp) > bp + cp:
            problems.append(f"Hodge duality: degree {k} differs from degree {m - k} "
                            f"beyond their bounds")
    ref = reference[name]
    if len(ref) != len(values):
        problems.append(f"{len(values)} degrees, reference has {len(ref)}")
    for k, ((_, zp, _, bp), (ref_zp, ref_bp)) in enumerate(zip(values, ref)):
        if abs(zp - ref_zp) > bp + ref_bp:
            problems.append(f"degree {k} zeta'(0) {zp!r} is {abs(zp - ref_zp):.3g} from the "
                            f"recorded {ref_zp!r}, beyond bounds {bp:.3g} + {ref_bp:.3g}")
    if name == "disk":
        z0, zp, b0, bp = values[0]
        if abs(zp - DISK_ZETA_PRIME0) > bp:
            problems.append(f"disk zeta'(0) {zp!r} misses the Weisberger value by "
                            f"{abs(zp - DISK_ZETA_PRIME0):.3g} > its bound {bp:.3g}")
        if abs(z0 - DISK_ZETA0) > b0:
            problems.append(f"disk zeta(0) {z0!r} misses 1/6 by {abs(z0 - DISK_ZETA0):.3g} "
                            f"> its bound {b0:.3g}")
    return problems


def report_figures(name: str, text: str) -> dict:
    per = json.loads(text)["report"]["per_degree"]
    figures = {"log_t_bound": 0.5 * sum(z["degree"] * z["diagnostics"]["zeta_prime0_bound"]
                                        for z in per)}
    if name == "disk":
        figures["oracle_abs_err"] = abs(per[0]["zeta_prime0"] - DISK_ZETA_PRIME0)
    return figures


# ------------------------------------------------------------- measurement --

class Run:
    """Samples and failures of one workload's measurement."""

    def __init__(self, name: str, reference: dict):
        self.name = name
        self.reference = reference
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.reports: list[str] = []

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def fail(self, what: str, problems: list[str]) -> None:
        """Count one failed run, whatever the number of its problems."""
        self.failures.append(what)
        for p in problems:
            print(f"FAIL {self.name} {what}: {p}", file=sys.stderr)

    def same_report(self, text: str) -> list[str]:
        # output is byte-deterministic, and the traced run must match the CLI
        if self.reports and text != self.reports[0]:
            return ["report differs from the first repetition's"]
        self.reports.append(text)
        return []

    def setup_probe(self) -> None:
        self.attempted += 1
        child = layers_run("setup", self.name)
        if child.problem():
            self.fail("set-up probe", [child.problem()])
        else:
            self.add("setup_s", child.wall_s)

    def cli(self) -> float | None:
        """One CLI run; its wall time if it passed the check."""
        self.attempted += 1
        child = cli_run(self.name)
        problems = [child.problem()] if child.problem() else \
            check_report(self.name, child.stdout, self.reference) \
            or self.same_report(child.stdout)
        if problems:
            self.fail("CLI run", problems)
            return None
        self.add("wall_s", child.wall_s)
        self.add("peak_rss_mb", child.peak_rss_mb)
        for key, value in report_figures(self.name, child.stdout).items():
            self.add(key, value)
        return child.wall_s

    def traced(self) -> float | None:
        """One traced run; its wall time if it passed the checks."""
        self.attempted += 1
        child = layers_run("trace", self.name)
        if child.problem():
            self.fail("traced run", [child.problem()])
            return None
        out = json.loads(child.stdout)
        problems = check_report(self.name, out["report"], self.reference)
        layers = out["layers"]
        # cold start: nothing cached at import, every order searched once
        if layers["bessel.cache_size_at_start"] != 0 \
                or layers["bessel.cache_misses"] != layers["bessel.orders"]:
            problems.append(f"zero cache not cold: {layers['bessel.cache_size_at_start']} "
                            f"entries at start, {layers['bessel.cache_misses']} misses for "
                            f"{layers['bessel.orders']} orders")
        problems = problems or self.same_report(out["report"])
        if problems:
            self.fail("traced run", problems)
            return None
        for key, value in layers.items():
            if key not in ("bessel.cache_misses", "bessel.cache_size_at_start"):
                self.add(key, value)
        print("spans " + json.dumps({"workload": self.name, "spans": out["spans"]}))
        return child.wall_s

    def counted(self) -> None:
        self.attempted += 1
        child = layers_run("count", self.name)
        if child.problem():
            self.fail("counting run", [child.problem()])
            return
        counts = json.loads(child.stdout)
        for key in ("bessel.jv_calls", "bessel.jv_evals", "bessel.jvp_calls"):
            self.add(key, counts[key])
        self.add("bessel.newton_per_zero", counts["bessel.jvp_calls"] / counts["bessel.zeros"])

    def measure(self, seconds: float, trace: bool, rng: random.Random) -> None:
        layers_run("setup", self.name)   # untimed warm-up: byte-compile, file cache
        start = time.perf_counter()
        if trace:
            self.counted()
        steps = [self.setup_probe] * SETUP_PROBES + [self.cli] + ([self.traced] if trace else [])
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            rng.shuffle(steps)
            walls = {step.__name__: step() for step in steps}
            if trace and walls["cli"] is not None and walls["traced"] is not None:
                self.add("trace.overhead_s", walls["traced"] - walls["cli"])
            rounds += 1

    def median(self, key: str) -> float:
        return statistics.median(self.samples[key])

    def metrics(self, trace: bool) -> dict:
        if not trace:
            return {k: {"value": self.median(k), "unit": unit(k)} for k in END_TO_END}
        layers = sorted(k for k in self.samples if "." in k)
        return {k: {"value": self.median(k), "unit": unit(k)} for k in layers}

    def summary(self) -> list[str]:
        lines = []
        for key in sorted(self.samples):
            vals = self.samples[key]
            lo, hi = min(vals), max(vals)
            lines.append(f"{self.name:<8} {key:<30} {statistics.median(vals):>14.6g} "
                         f"{unit(key):<8} median of n={len(vals)}  [min {lo:.6g}, max {hi:.6g}]")
        failed = len(self.failures)
        lines.append(f"{self.name:<8} {'failed_frac':<30} {failed / max(self.attempted, 1):>14.6g} "
                     f"{'1':<8} {failed} of {self.attempted} runs")
        return lines


# ---------------------------------------------------------------- metadata --

def run_metadata() -> dict:
    commit = None
    if (ROOT / ".git").exists():   # a plain checkout has no history; the digest still names the code
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "torsionlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit or None,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


# -------------------------------------------------------------------- main --

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torsionlab" / "cli.py").is_file():
        print(f"no torsionlab sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM becomes SystemExit, on which Child kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    print("meta " + json.dumps(run_metadata(), sort_keys=True))
    reference = _reference()
    rng = random.Random(args.seed)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        run = Run(name, reference)
        run.measure(args.seconds, bool(args.trace), rng)
        runs.append(run)
        for line in run.summary():
            print(line)

    metrics = {}
    try:
        for run in runs:
            prefix = f"{run.name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in run.metrics(bool(args.trace)).items()})
    except (KeyError, statistics.StatisticsError):
        print("no successful repetition of some metric; no result", file=sys.stderr)
        return 1
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failures) for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
