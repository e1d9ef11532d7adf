"""CLI surface: exit codes, determinism, machine-readable errors."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import torsionlab
from torsionlab import cli
from torsionlab.cli import main, parse_config_file

# a child interpreter finds the package the way this one did, installed or not
SRC = str(Path(torsionlab.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- structure --

def test_structure_m3_b1(capsys):
    code, out, _ = run(capsys, "structure", "--m", "3", "--b", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "torsionlab/1"
    logs = [t["exp"] for t in doc["template"]["terms"] if t["log"]]
    assert logs == ["-1/2", "1/2", "3/2", "5/2"]


def test_structure_even_regular_at_zero(capsys):
    code, out, _ = run(capsys, "structure", "--m", "3", "--b", "1", "--even")
    assert code == 0
    doc = json.loads(out)
    assert doc["zeta"]["regular_at_zero"] is True
    assert doc["zeta"]["zeta0_coefficient_zero"] is True


def test_structure_invalid_dimensions(capsys):
    for m, b in [("2", "3"), ("3", "2")]:
        code, _, err = run(capsys, "structure", "--m", m, "--b", b)
        assert code == 2
        doc = json.loads(err)
        assert "b must satisfy b <= m-2" in doc["message"]


# ----------------------------------------------------------------- torsion --

def test_torsion_single_nu_oracle(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "torsion", "--single-nu", "0.5",
                       "--t-min", "1e-4", "--output", str(out_path))
    assert code == 0
    assert "log T" in err
    doc = json.loads(out_path.read_text())
    z = doc["report"]["per_degree"][0]
    assert abs(z["zeta_prime0"] + math.log(2)) < 1e-5
    assert abs(z["zeta0"] + 0.5) < 1e-6
    # one degree has no alternating sum to check
    assert "mckean_singer_defect" not in doc["report"]["diagnostics"]
    csv_path = tmp_path / "report.csv"
    assert csv_path.exists()
    assert csv_path.read_text().splitlines()[0].startswith("degree,")


def test_torsion_summary_stays_beside_the_report(capsys, tmp_path):
    """A dot in a directory name is not the report's extension."""
    target = tmp_path / "out" / "run.v2"
    target.mkdir(parents=True)
    code, _, _ = run(capsys, "torsion", "--single-nu", "0.5", "--t-min", "1e-2",
                     "--output", str(target / "report"))
    assert code == 0
    assert json.loads((target / "report").read_text())["schema"] == "torsionlab/1"
    assert (target / "report.csv").read_text().startswith("degree,")
    assert not (tmp_path / "out" / "run.csv").exists()


def test_torsion_output_named_like_its_summary_is_refused(capsys, tmp_path, monkeypatch):
    def no_compute(self):
        raise AssertionError("the pipeline ran before the output was checked")
    monkeypatch.setattr(cli.Pipeline, "torsion", no_compute)
    out = tmp_path / "rep.csv"
    code, _, err = run(capsys, "torsion", "--single-nu", "0.5", "--output", str(out))
    assert code == 2
    assert "CSV summary" in json.loads(err)["message"]
    assert list(tmp_path.iterdir()) == []


def test_torsion_missing_output_directory(capsys, tmp_path):
    code, _, err = run(capsys, "torsion", "--single-nu", "0.5",
                       "--t-min", "1e-4",
                       "--output", str(tmp_path / "no" / "such" / "dir.json"))
    assert code == 3
    doc = json.loads(err)
    assert doc["exit_code"] == 3


def test_torsion_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "torsion", "--single-nu", "0.5",
                         "--t-min", "1e-4", "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_torsion_disk_reports_defect_diagnostic(capsys):
    code, out, _ = run(capsys, "torsion", "--fiber", "circle", "--radius", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["diagnostics"]["mckean_singer_defect"] < 1e-6


def test_torsion_certification_failure_exit_code(capsys):
    # cutoff too small for the requested window
    code, _, err = run(capsys, "torsion", "--single-nu", "0.5",
                       "--t-min", "1e-4", "--lambda-max", "1000")
    assert code == 4
    doc = json.loads(err)
    assert doc["error"] == "TailNotCertified"


# ------------------------------------------------------------------ config --

def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# toy run\n"
        "single_nu = 0.5\n"
        "t_min = 1e-4\n"
        "points = 241\n")
    out1 = tmp_path / "r1.json"
    code, _, _ = run(capsys, "torsion", "--config", str(cfg), "--output", str(out1))
    assert code == 0
    doc = json.loads(out1.read_text())
    assert abs(doc["report"]["per_degree"][0]["zeta0"] + 0.5) < 1e-6
    # flag overrides file: an impossible cutoff must now fail
    code, _, err = run(capsys, "torsion", "--config", str(cfg),
                       "--lambda-max", "500")
    assert code == 4


def test_nu_max_is_rejected(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["torsion", "--nu-max", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "nu.cfg"
    cfg.write_text("nu_max = 5\n")
    code, _, err = run(capsys, "torsion", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in json.loads(err)["message"]


def test_format_belongs_to_trace_only(capsys, tmp_path):
    for command in ("spectrum", "fit", "zeta", "torsion"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--single-nu", "0.5", "--format", "csv"])
        assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "csv.cfg"
    cfg.write_text("single_nu = 0.5\nt_min = 1e-3\nformat = csv\n")
    for command in ("spectrum", "fit", "zeta", "torsion"):
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert "applies only to trace" in json.loads(err)["message"]
    code, out, _ = run(capsys, "trace", "--config", str(cfg), "--degree", "0")
    assert code == 0
    assert out.splitlines()[0] == "t,value,tail_bound"
    cfg.write_text("single_nu = 0.5\nformat = xml\n")
    code, _, err = run(capsys, "trace", "--config", str(cfg))
    assert code == 2
    assert "format must be json or csv" in json.loads(err)["message"]


def test_config_parser_values(tmp_path):
    cfg = tmp_path / "x.cfg"
    cfg.write_text('a = 1\nb = 2.5\nc = "text"\nd = true\ne = [1, 2]\nf = word\n')
    parsed = parse_config_file(str(cfg))
    assert parsed == {"a": 1, "b": 2.5, "c": "text", "d": True, "e": [1, 2], "f": "word"}


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    code, _, err = run(capsys, "torsion", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in json.loads(err)["message"]


# ------------------------------------------------------- other subcommands --

def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "--fiber", "circle", "--radius", "1",
                       "--lambda-max", "50")
    assert code == 0
    doc = json.loads(out)
    spectra = doc["nu_spectra"]
    assert set(spectra) == {"0", "1", "2"}
    first = spectra["0"]["modes"][0]
    assert first["nu"] == 0.0 and first["log_branch"] is True


def test_trace_csv_output(capsys):
    code, out, _ = run(capsys, "trace", "--single-nu", "0.5", "--t-min", "1e-3",
                       "--format", "csv", "--degree", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,value,tail_bound"
    assert len(lines) > 100


def test_trace_csv_requires_degree(capsys, monkeypatch):
    def no_compute(self):
        raise AssertionError("the traces were computed before --degree was checked")
    monkeypatch.setattr(cli.Pipeline, "traces", no_compute)
    code, _, err = run(capsys, "trace", "--single-nu", "0.5", "--t-min", "1e-3",
                       "--format", "csv")
    assert code == 2
    assert "needs --degree" in json.loads(err)["message"]


def test_fit_command(capsys):
    code, out, _ = run(capsys, "fit", "--single-nu", "0.5", "--t-min", "1e-4")
    assert code == 0
    doc = json.loads(out)
    coeffs = {(c["exp"], c["log"]): c["coeff"] for c in doc["fits"]["0"]["coefficients"]}
    assert abs(coeffs[("-1/2", False)] - 1 / (2 * math.sqrt(math.pi))) < 1e-6


def test_zeta_command(capsys):
    code, out, _ = run(capsys, "zeta", "--single-nu", "0.5", "--t-min", "1e-4")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["zeta"]["0"]["zeta_prime0"] + math.log(2)) < 1e-5


def test_invalid_model_flag(capsys):
    code, _, err = run(capsys, "torsion", "--fiber", "torus")
    assert code == 2  # torus fiber without periods


def test_spectrum_paper_literal_indefinite_block(capsys):
    """The literal constants hit the nonnegativity guard on 1-forms."""
    code, _, err = run(capsys, "spectrum", "--fiber", "circle",
                       "--convention", "paper-literal", "--lambda-max", "50")
    assert code == 2
    assert json.loads(err)["error"] == "NegativeBlockEigenvalue"


# ---------------------------------------------------------------- selftest --

def test_selftest_quick_passes_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "selftest", "--quick")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "FAIL" not in out.replace("EXPECTED-FAIL", "")
    assert "0 failure(s)" in out
    assert elapsed < 10.0


def test_selftest_paper_literal_expected_fail(capsys):
    code, out, _ = run(capsys, "selftest", "--quick",
                       "--convention", "paper-literal")
    assert code == 0
    assert "EXPECTED-FAIL" in out


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", "structure", "--m", "3", "--b", "1"],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "torsionlab/1"


def test_torsion_path_loads_no_heavy_scipy_subpackage():
    """Start-up cost: the CLI and a torsion run need only scipy.special."""
    script = (
        "import sys\n"
        "def heavy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[:2] in\n"
        "                  (['scipy', 'interpolate'], ['scipy', 'optimize'],\n"
        "                   ['scipy', 'integrate']))\n"
        "import torsionlab.cli\n"
        "assert not heavy(), heavy()\n"
        "code = torsionlab.cli.main(['torsion', '--single-nu', '0.5', '--t-min', '1e-2'])\n"
        "assert code == 0, code\n"
        "assert not heavy(), heavy()\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
