"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every criterion is a numbered row of the oracle table
in `torsionlab.oracles`, which `torsionlab selftest` runs too; only the
arbitrary-precision part of criterion 3 lives here, because mpmath is a
test dependency.  Every tolerance is fixed; nothing is calibrated at run
time.
"""

import time

import mpmath

from torsionlab import oracles
from torsionlab.bessel import bessel_j_zeros

from zero_oracle import bessel_j_series, bisect_zero

CHECKS = {number: check for _, number, check in oracles.ORACLES if number is not None}


def gate(number: int, limit: float = float("inf"), extra=None) -> None:
    """Run row `number` (and `extra`, a further (ok, detail) check), print
    its line and hold it to its time limit in seconds."""
    start = time.perf_counter()
    ok, detail = CHECKS[number]()
    if extra is not None:
        more_ok, more = extra()
        ok, detail = ok and more_ok, f"{detail}; {more}"
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  {detail} in {elapsed:.2f}s")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds {limit}s"


def test_numbered_rows_are_the_eleven_criteria():
    numbers = [number for _, number, _ in oracles.ORACLES if number is not None]
    assert sorted(numbers) == list(range(1, 12))


def j0_zeros_against_bisection():
    """The first 50 J_0 zeros against 30-digit bisection, and the first one
    against bisection of the in-repo ascending series."""
    mpmath.mp.dps = 30
    zeros0 = bessel_j_zeros(0.0, 160.0)[:50]
    f = lambda z: float(mpmath.besselj(0, mpmath.mpf(z)))
    roots = [bisect_zero(f, z - 0.5, z + 0.5) for z in zeros0]
    worst0 = max(abs(z - r) / r for z, r in zip(zeros0, roots))
    first = bisect_zero(lambda z: bessel_j_series(0.0, z), 2.0, 3.0)
    return len(zeros0) == 50 and worst0 <= 1e-10 and abs(zeros0[0] - first) < 1e-10, \
        f"J_0 first {len(zeros0)} vs bisection to {worst0:.2e}"


def test_criterion_01_bessel_closed_form():
    gate(1, limit=1.0)


def test_criterion_02_kernel_vs_images():
    gate(2, limit=1.0)


def test_criterion_03_spectral_exactness():
    gate(3, extra=j0_zeros_against_bisection)


def test_criterion_04_heat_trace_fit():
    gate(4, limit=10.0)


def test_criterion_05_zeta_oracle():
    gate(5)


def test_criterion_06_a_operator_oracle():
    gate(6)


def test_criterion_07_flat_plane_calibration():
    gate(7, limit=120.0)


def test_criterion_08_structure_predictions():
    gate(8)


def test_criterion_09_supersymmetry():
    gate(9)


def test_criterion_10_composition_algebra():
    gate(10)


def test_criterion_11_semigroup():
    gate(11)
