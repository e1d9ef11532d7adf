"""Reference-run reports, compared byte for byte with tests/golden/.

Output is deterministic, so any change to these bytes is a change in
behaviour and must come with regenerated files and a stated reason.
"""

from pathlib import Path

import pytest

from torsionlab.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("torsion_single_nu.json", ["torsion", "--single-nu", "0.5", "--t-min", "1e-4"]),
    ("torsion_product_circle.json",
     ["torsion", "--model", "product", "--base", "circle", "--t-min", "3e-3"]),
    ("trace_disk.json", ["trace", "--t-min", "1e-2"]),
    ("torsion_torus.json",
     ["torsion", "--fiber", "torus", "--periods", "6.283185307179586", "6.283185307179586",
      "--t-min", "5e-2"]),
])
def test_report_matches_golden(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
