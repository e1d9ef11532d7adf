"""CLI surface: exit codes, determinism, machine-readable errors."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import torsionlab
from torsionlab import cli, oracles
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


@pytest.mark.parametrize("m,b,cutoff", [("3", "1", "1/0"), ("2", "0", "-1/2"),
                                         ("3", "1", "201/2"), ("3", "1", "1e9")],
                         ids=["zero-denominator", "below-t0", "above-limit", "far-above-limit"])
def test_structure_cutoff_is_refused(capsys, m, b, cutoff):
    code, out, err = run(capsys, "structure", "--m", m, "--b", b, f"--cutoff={cutoff}")
    assert code == 2 and out == ""
    assert "--cutoff" in json.loads(err)["message"]


def test_structure_cutoff_at_the_limit(capsys):
    code, out, _ = run(capsys, "structure", "--m", "3", "--b", "1",
                       f"--cutoff={cli.STRUCTURE_CUTOFF_MAX}")
    assert code == 0
    last = max(Fraction(t["exp"]) for t in json.loads(out)["template"]["terms"])
    assert last == cli.STRUCTURE_CUTOFF_MAX


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


@pytest.mark.parametrize("command", ["trace", "zeta"])
def test_empty_cone_spectrum_is_not_certified(capsys, command):
    """No Bessel zero lies below sqrt(lambda_max) = 1, and a trace of no
    eigenvalues cannot be certified: every order has zeros, so the true
    trace is never zero."""
    code, out, err = run(capsys, command, "--lambda-max", "1", "--t-min", "1e-2")
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "TailNotCertified"


# ------------------------------------------------------------------ config --

def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# toy run\n"
        "single_nu = 0.5\n"
        "t_min = 1e-4\n")
    out1 = tmp_path / "r1.json"
    code, _, _ = run(capsys, "torsion", "--config", str(cfg), "--output", str(out1))
    assert code == 0
    doc = json.loads(out1.read_text())
    assert abs(doc["report"]["per_degree"][0]["zeta0"] + 0.5) < 1e-6
    # flag overrides file: an impossible cutoff must now fail
    code, _, err = run(capsys, "torsion", "--config", str(cfg),
                       "--lambda-max", "500")
    assert code == 4


@pytest.mark.parametrize("flag,line", [
    (["--nu-max", "5"], "nu_max = 5"),
    (["--split", "0.5"], "split = 0.5"),
    (["--points", "121"], "points = 121"),
    (["--t-max", "0.2"], "t_max = 0.2"),
    (["--even"], "even = true"),
    (["--no-even"], "even = false"),
    (["--template-cutoff", "3"], 'template_cutoff = "3"'),
    (["--convention", "paper-literal"], 'convention = "paper-literal"'),
], ids=["nu_max", "split", "points", "t_max", "even", "no-even", "template_cutoff",
        "convention"])
def test_removed_knob_is_rejected(capsys, tmp_path, flag, line):
    """t_min is the one method knob, and the pipeline runs one operator; the
    removed knobs are unknown as flags and as config keys."""
    toy = ["torsion", "--single-nu", "0.5", "--t-min", "1e-2"]
    with pytest.raises(SystemExit) as exc:
        main(toy + flag)
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = tmp_path / "knob.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, *toy, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "unknown config keys" in json.loads(err)["message"]


TORUS = ["6.283185307179586", "6.283185307179586"]
CIRCLE_RUN = ["spectrum", "--lambda-max", "50"]
TORUS_RUN = ["spectrum", "--lambda-max", "30", "--fiber", "torus", "--periods", *TORUS]
SINGLE_NU_RUN = ["zeta", "--single-nu", "0.5", "--t-min", "1e-2"]


@pytest.mark.parametrize("argv,flag", [
    pytest.param(CIRCLE_RUN + ["--model", "product"], "--base", id="product-without-base"),
    pytest.param(CIRCLE_RUN + ["--model", "product", "--base", "point"], "--base",
                 id="product-on-point"),
    pytest.param(CIRCLE_RUN + ["--periods", *TORUS], "--periods", id="periods-on-circle"),
    pytest.param(TORUS_RUN + ["--radius", "2"], "--radius", id="radius-on-torus"),
    pytest.param(CIRCLE_RUN + ["--base-radius", "2"], "--base-radius",
                 id="base-radius-without-base"),
    pytest.param(CIRCLE_RUN + ["--base-periods", "1", "2"], "--base-periods",
                 id="base-periods-without-base"),
    pytest.param(CIRCLE_RUN + ["--model", "product", "--base", "circle",
                               "--base-periods", "1", "2"], "--base-periods",
                 id="base-periods-on-circle"),
    pytest.param(CIRCLE_RUN + ["--model", "product", "--base", "torus",
                               "--base-periods", *TORUS, "--base-radius", "2"],
                 "--base-radius", id="base-radius-on-torus"),
    *[pytest.param(SINGLE_NU_RUN + extra, extra[0], id=f"single-nu{extra[0][1:]}-{extra[1]}")
      for extra in (["--model", "cone"], ["--model", "product"], ["--fiber", "circle"],
                    ["--radius", "2"], ["--periods", *TORUS], ["--base", "point"],
                    ["--base-radius", "2"], ["--base-periods", "1", "2"])],
    # only spectrum reads --convention
    pytest.param(["spectrum", "--single-nu", "0.5", "--convention", "paper-literal"],
                 "--convention", id="single-nu-convention-paper-literal"),
])
def test_flag_the_model_would_ignore_is_refused(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert flag in json.loads(err)["message"]


def test_ignored_config_key_is_refused(capsys, tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("base_periods = [1.0, 2.0]\n")
    code, out, err = run(capsys, *CIRCLE_RUN, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "--base-periods" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["spectrum", "torsion"])
@pytest.mark.parametrize("lines,key", [
    ('fiber_kind = "torus"\nperiods = 6.28\n', "periods"),
    ('t_min = "abc"\n', "t_min"),
], ids=["scalar-periods", "string-t_min"])
def test_config_value_of_the_wrong_type_is_refused(capsys, tmp_path, command, lines, key):
    cfg = tmp_path / "typed.cfg"
    cfg.write_text(lines)
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError" and error["message"].startswith(key + " must be")


NON_FINITE = [  # (flags, config file, key), with "{}" for the value
    (["spectrum", "--lambda-max", "{}"], "lambda_max = {}", "lambda_max"),
    (["spectrum", "--radius", "{}"], "radius = {}", "radius"),
    (["spectrum", "--fiber", "torus", "--periods", "6.28", "{}"],
     'fiber_kind = "torus"\nperiods = [6.28, {}]', "periods"),
    (["torsion", "--model", "product", "--base", "circle", "--base-radius", "{}"],
     'model = "product"\nbase = "circle"\nbase_radius = {}', "base_radius"),
    (["trace", "--model", "product", "--base", "torus", "--base-periods", "{}", "3"],
     'model = "product"\nbase = "torus"\nbase_periods = [{}, 3]', "base_periods"),
    (["spectrum", "--single-nu", "{}"], "single_nu = {}", "single_nu"),
    (["zeta", "--t-min", "{}"], "t_min = {}", "t_min"),
]


LENGTHS = [case for case in NON_FINITE
           if case[2] in ("radius", "periods", "base_radius", "base_periods")]


def assert_refused(capsys, tmp_path, argv, lines, value, message):
    """The NON_FINITE case with `value`, by flag and by config file, exits 2
    with `message` before any spectrum is built."""
    cfg = tmp_path / "refused.cfg"
    cfg.write_text(lines.format(value) + "\n")
    for case in ([arg.format(value) for arg in argv], [argv[0], "--config", str(cfg)]):
        code, out, err = run(capsys, *case)
        assert code == 2 and out == ""
        assert json.loads(err)["message"].startswith(message)


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("argv,lines,key", NON_FINITE, ids=[case[2] for case in NON_FINITE])
def test_non_finite_number_is_refused(capsys, tmp_path, value, argv, lines, key):
    assert_refused(capsys, tmp_path, argv, lines, value, f"{key} must be finite")


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("argv,lines,key", LENGTHS, ids=[case[2] for case in LENGTHS])
def test_non_positive_length_is_refused(capsys, tmp_path, value, argv, lines, key):
    assert_refused(capsys, tmp_path, argv, lines, value, f"{cli._flag(key)} must be positive")


def test_t_min_past_the_fit_window(capsys, monkeypatch):
    """trace samples [t_min, 1] and fits nothing, so it takes a t_min past
    the fit window t <= FIT_T_MAX; fit refuses one that leaves the window
    too few samples, naming --t-min, before any trace is computed."""
    code, out, _ = run(capsys, "trace", "--single-nu", "0.5", "--t-min", "0.2")
    assert code == 0 and json.loads(out)["traces"]["0"]["t"][0] == 0.2

    def no_compute(self):
        raise AssertionError("the traces were computed before --t-min was checked")
    monkeypatch.setattr(cli.Pipeline, "traces", no_compute)
    for t_min in ("0.2", "0.099"):
        code, out, err = run(capsys, "fit", "--single-nu", "0.5", "--t-min", t_min)
        assert code == 2 and out == ""
        message = json.loads(err)["message"]
        assert message.startswith(f"--t-min {t_min} ") and "FIT_T_MAX" in message


@pytest.mark.parametrize("argv", [["trace", "--t-min", "1"],
                                  ["trace", "--single-nu", "0.5", "--t-min", "5"]],
                         ids=["disk-at-split", "single-nu-past-split"])
def test_t_min_at_or_past_the_split(capsys, argv):
    """The samples cover [t_min, SPLIT], so a t_min at or above the Mellin
    split exits 2 with a message naming --t-min and SPLIT."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    message = json.loads(err)["message"]
    assert message.startswith(f"--t-min {float(argv[-1])!r} ")
    assert f"SPLIT = {cli.SPLIT}" in message


def test_format_belongs_to_trace_only(capsys, tmp_path):
    """Each (flag, subcommand) pair: only that subcommand declares the flag.
    --format belongs to trace, and --convention to spectrum."""
    parser = cli.build_parser()
    for flag, owner in ((["--format", "csv"], "trace"),
                        (["--convention", "paper-literal"], "spectrum")):
        assert parser.parse_args([owner, *flag]).command == owner
        for command in ("spectrum", "trace", "fit", "zeta", "torsion"):
            if command == owner:
                continue
            with pytest.raises(SystemExit) as exc:
                main([command, "--single-nu", "0.5", *flag])
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
    cfg.write_text('a = 1\nb = 2.5\nc = "text"\nd = true\ne = [1, 2]\nf = word\n'
                   '# a comment\ng = "run#1.json"  # the # in quotes stays\nh = 3 # "\n')
    parsed = parse_config_file(str(cfg))
    assert parsed == {"a": 1.0, "b": 2.5, "c": "text", "d": True, "e": [1.0, 2.0], "f": "word",
                      "g": "run#1.json", "h": 3.0}
    cfg.write_text('a = 1\noutput = "run#1.json\n')
    with pytest.raises(ValueError, match=r"x\.cfg:2: .*output"):
        parse_config_file(str(cfg))


def test_config_and_flags_give_the_same_bytes(capsys, tmp_path):
    """A config file's integers are floats, as the flags' are, so the model
    label and every other byte agree."""
    cfg = tmp_path / "run.cfg"
    for lines, flags in [('fiber_kind = "torus"\nperiods = [3, 3]\n',
                          ["--fiber", "torus", "--periods", "3", "3"]),
                         ("radius = 2\n", ["--radius", "2"]),
                         ("single_nu = 1\n", ["--single-nu", "1"])]:
        cfg.write_text(lines)
        by_file, by_flags = (run(capsys, "spectrum", "--lambda-max", "20", *argv)
                             for argv in (["--config", str(cfg)], flags))
        assert by_file[0] == 0 and by_file == by_flags, lines


def test_config_hash_in_a_quoted_value(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text('single_nu = 0.5\nt_min = 1e-2\noutput = "run#1.json"\n')
    code, _, _ = run(capsys, "torsion", "--config", "run.cfg")
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run#1.csv", "run#1.json", "run.cfg"]
    (tmp_path / "open.cfg").write_text('single_nu = 0.5\noutput = "run#2.json\n')
    code, out, err = run(capsys, "torsion", "--config", "open.cfg")
    assert code == 2 and out == ""
    assert "output" in json.loads(err)["message"]


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
    # geometric-oracle is the default; the CamelCase spellings are gone
    assert run(capsys, "spectrum", "--fiber", "circle", "--radius", "1", "--lambda-max",
               "50", "--convention", "geometric-oracle") == (0, out, "")
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--convention", "PaperLiteral"])
    assert exc.value.code == 2


def test_spectrum_single_nu(capsys):
    """A single mode is the complete spectrum: its cutoff prints as null."""
    code, out, _ = run(capsys, "spectrum", "--single-nu", "0.5")
    assert code == 0
    spec = json.loads(out)["nu_spectra"]["0"]
    assert spec["cutoff"] is None
    assert [m["nu"] for m in spec["modes"]] == [0.5]


def test_trace_json_degree_selects_one_degree(capsys):
    code, out, _ = run(capsys, "trace", "--t-min", "1e-2", "--degree", "1")
    assert code == 0
    traces = json.loads(out)["traces"]
    golden = json.loads((Path(__file__).parent / "golden" / "trace_disk.json").read_text())
    assert traces == {"1": golden["traces"]["1"]}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_trace_degree_the_model_lacks_is_refused(capsys, monkeypatch, fmt):
    def no_compute(self):
        raise AssertionError("the traces were computed before --degree was checked")
    monkeypatch.setattr(cli.Pipeline, "traces", no_compute)
    code, out, err = run(capsys, "trace", "--single-nu", "0.5", "--t-min", "1e-2",
                         "--format", fmt, "--degree", "5")
    assert code == 2 and out == ""
    assert "--degree 5" in json.loads(err)["message"]


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

def test_selftest_runs_every_row_once(capsys):
    """One PASS line per row, in table order, the eleven numbered acceptance
    criteria among them; the convention rows name both conventions'
    results; the removed --quick and --convention are refused."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "selftest")
    assert time.perf_counter() - start < 10.0
    lines = out.splitlines()
    assert code == 0 and len(lines) == len(oracles.ORACLES) + 2 and lines[-1] == "0 failure(s)"
    for line, (name, number, _) in zip(lines, oracles.ORACLES):
        assert line.startswith(f"{number or '':>2}  {name} ") and " PASS " in line
        if number is None:
            assert "GeometricOracle" in line and "PaperLiteral" in line
    for flags in (["--quick"], ["--convention", "paper-literal"]):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", *flags])
        assert exc.value.code == 2


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", "structure", "--m", "3", "--b", "1"],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "torsionlab/1"


def test_torsion_path_loads_no_scipy():
    """Start-up cost: the CLI and torsion runs on the disk, the torus fiber
    and the circle product load no scipy module at all, nor numpy.ma, which
    np.median and a bare np.unique(x) (numpy 2.4) would import, nor the
    oracle table, which only selftest runs.
    At this t_min the disk and the product stop at the fit with exit 4,
    after their zeros and traces; the torus run goes on through the zeta
    stage to its report."""
    runs = [[], ["--fiber", "torus", "--periods", "6.283185307179586", "6.283185307179586"],
            ["--model", "product", "--base", "circle"]]
    script = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import torsionlab.cli\n"
        "assert not loaded(), loaded()\n"
        "assert 'torsionlab.oracles' not in sys.modules\n"
        f"for flags in {runs!r}:\n"
        "    code = torsionlab.cli.main(['torsion', '--t-min', '5e-2', *flags])\n"
        "    assert code in (0, 4), (flags, code)\n"
        "    assert not loaded(), (flags, loaded())\n"
        "    assert 'numpy.ma' not in sys.modules, flags\n"
        "    assert 'torsionlab.oracles' not in sys.modules, flags\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
