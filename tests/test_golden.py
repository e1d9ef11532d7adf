"""Reference-run reports, compared byte for byte with tests/golden/.

Output is deterministic, so any change to these bytes is a change in
behaviour and must come with regenerated files and a stated reason.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import torsionlab
from torsionlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
TORUS = ["torsion", "--fiber", "torus", "--periods", "6.283185307179586", "6.283185307179586",
         "--t-min", "5e-2"]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


@pytest.mark.parametrize("name,argv", [
    ("torsion_single_nu.json", ["torsion", "--single-nu", "0.5", "--t-min", "1e-4"]),
    ("torsion_product_circle.json",
     ["torsion", "--model", "product", "--base", "circle", "--t-min", "3e-3"]),
    ("trace_disk.json", ["trace", "--t-min", "1e-2"]),
    ("torsion_torus.json", TORUS),
    ("spectrum_torus_square.json", ["spectrum", *TORUS[1:6], "--lambda-max", "100"]),
    ("spectrum_torus_rect.json",
     ["spectrum", "--fiber", "torus", "--periods", "3", "4.5", "--lambda-max", "100"]),
    ("spectrum_torus_literal.json",
     ["spectrum", "--convention", "paper-literal", "--fiber", "torus", "--periods", "3", "3",
      "--lambda-max", "100"]),
    ("trace_product_torus.json",
     ["trace", "--degree", "1", "--model", "product", "--base", "torus",
      "--base-periods", "3", "4", "--t-min", "3e-2"]),
    ("zeta_product_circle.json",
     ["zeta", "--model", "product", "--base", "circle", "--t-min", "3e-3"]),
])
def test_report_matches_golden(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("var", THREAD_VARS)
def test_report_bytes_do_not_depend_on_thread_count(var, threads):
    """No trace, product or fit sum may go through a threaded reduction: the
    torus report is the golden bytes with one thread and with two."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env else []))
    env[var] = threads
    proc = subprocess.run([sys.executable, "-m", "torsionlab.cli", *TORUS],
                          capture_output=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "torsion_torus.json").read_bytes()
