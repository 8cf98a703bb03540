"""End-to-end command-line tests run through subprocess, pinning the output
contracts: schema tag, 17-significant-digit CSV floats, CRLF line endings,
byte determinism and the exit-code conventions."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from qgauss import (QContext, circle_gram_dg, circle_gram_mac, cli, evaluate,
                    gamma_family_gram, gram_phi, indefinite_gram,
                    orthonormal_weight_family)
from qgauss.chain import gram_budget
from qgauss.circle import MAC_TOL, circle_mac_magnitudes
from qgauss.dg import limit_grid, limit_ratio_curve
from qgauss.verify import FAMILIES

ALPHA = 0.8150352570704902
FLOAT17 = re.compile(r"^-?\d\.\d{16}e[+-]\d{2}$")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None):
    """Run the CLI from the source tree, whatever the working directory."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "qgauss", *args],
                          capture_output=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


def run_json(*args):
    proc = run_cli(*args, "--format", "json")
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode())


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_circle_amplification_past_double_range_is_strict_json():
    # the node-sum amplification at q = 0.05, nmax = 16 exceeds 1e308; the
    # term-mass condition that replaced it stays finite. In double the
    # exact route has no floor; at the budget's digits the budgeted one does
    digits = gram_budget(*circle_mac_magnitudes(0.05, 16), MAC_TOL)[1]
    for extra, exact in (((), True), (("--digits", str(digits)), False)):
        proc = run_cli("circle", "--family", "mac", "--q", "0.05", "--nmax",
                       "16", *extra, "--format", "json")
        assert proc.returncode == 0, proc.stderr.decode()
        data = json.loads(proc.stdout.decode(), parse_constant=reject_constant)
        notes = data["report"]["notes"]
        assert 70 < notes["log10_condition"] < 90
        if exact:
            assert notes["floor"] == 0.0 and notes["working_digits"] is None
        else:
            assert 0 < notes["floor"] <= 1e-20


def test_circle_past_the_double_range_writes_null():
    # at q = 0.01 the mac diagonal passes 1e308 near nmax 20
    proc = run_cli("circle", "--family", "mac", "--q", "0.01", "--nmax", "20")
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stdout.decode(),
                        parse_constant=reject_constant)["report"]
    assert report["matrix"][20][20] is None
    assert report["target"][20][20] is None


def test_coeffs_and_eval_past_the_double_range_write_null():
    # at q = 0.01, n = 30 zeta_n underflows to 0 while E^n_k overflows, so
    # most of B_30's double coefficients, and its values, are NaN
    proc = run_cli("coeffs", "--family", "mac", "--n", "30", "--q", "0.01",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr.decode()
    rows = json.loads(proc.stdout.decode(),
                      parse_constant=reject_constant)["rows"]
    values = [row["re"] for row in rows]
    assert len(values) == 31 and values.count(None) == 25
    assert [row["im"] for row in rows] == [0.0] * 31
    assert all(isinstance(v, float) for v in values if v is not None)
    proc = run_cli("eval", "--family", "mac", "--n", "30", "--q", "0.01",
                   "--grid", "-1:1:3", "--format", "json")
    assert proc.returncode == 0, proc.stderr.decode()
    rows = json.loads(proc.stdout.decode(),
                      parse_constant=reject_constant)["rows"]
    assert [(row["x"], row["re"], row["im"]) for row in rows] == [
        (-1.0, None, None), (0.0, None, None), (1.0, None, None)]


def test_eval_where_coefficients_overflow_warns_nothing(monkeypatch):
    # at q = 0.3 some of B_30's double coefficients are inf, and inf times
    # an underflowed Gaussian is NaN: written as null, with no warning
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    proc = run_cli("eval", "--family", "mac", "--n", "30", "--q", "0.3",
                   "--grid", "-1:1:3", "--format", "json")
    assert proc.returncode == 0 and not proc.stderr, proc.stderr.decode()
    rows = json.loads(proc.stdout.decode(),
                      parse_constant=reject_constant)["rows"]
    assert [row["x"] for row in rows] == [-1.0, 0.0, 1.0]
    assert None in [row["re"] for row in rows]


def test_quadrature_out_of_points_is_a_failing_row_not_a_traceback():
    proc = run_cli("verify", "--suite", "degeneracy", "--q", "0.99",
                   "--nmax", "15")
    assert proc.returncode == 1, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    result = json.loads(proc.stdout.decode(),
                        parse_constant=reject_constant)["result"]
    assert not result["passed"] and result["max_deviation"] is None
    assert [row for row in result["failures"]
            if row[0] == "quadrature" and row[3] is None] == [
        ["quadrature", 15, 6, None]]
    notes = result["notes"]
    assert notes["quadrature_dev"] is None
    [[n, m, message]] = notes["quadrature_errors"]
    assert (n, m) == (15, 6) and "trapezoid rule ran out" in message


def test_coeffs_ground_state():
    data = run_json("coeffs", "--family", "dg", "--n", "0", "--q", "0.5")
    assert data["schema"] == "qgauss/1"
    assert data["normalization"] == "phi-unit-norm"
    [row] = data["rows"]
    assert row["re"] == pytest.approx(ALPHA, rel=1e-15)
    assert row["im"] == 0.0


def test_coeffs_mac_level_one():
    data = run_json("coeffs", "--family", "mac", "--n", "1", "--q", "0.5")
    values = [row["re"] for row in data["rows"]]
    zeta = 1.1526339143613291
    assert values[0] == pytest.approx(zeta, rel=1e-14)
    assert values[1] == pytest.approx(-zeta * 2.0 ** 0.5, rel=1e-14)


def test_config_echoes_derived_scale():
    data = run_json("coeffs", "--family", "dg", "--n", "0", "--c", "1.0")
    assert data["config"]["supplied"] == "c"
    assert data["config"]["q"] == pytest.approx(0.36787944117144233)


def test_default_scale_is_q_half():
    data = run_json("coeffs", "--family", "dg", "--n", "0")
    assert data["config"]["q"] == 0.5
    assert data["config"]["defaulted"] is True


def test_both_scales_rejected():
    proc = run_cli("coeffs", "--family", "dg", "--n", "0",
                   "--q", "0.5", "--c", "1.0")
    assert proc.returncode == 1
    assert b"exactly one" in proc.stderr


def test_eval_ground_state_on_grid():
    data = run_json("eval", "--family", "dg", "--n", "0",
                    "--q", "0.5", "--grid", "-3:3:7")
    xs = [row["x"] for row in data["rows"]]
    assert xs == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    assert data["rows"][3]["re"] == pytest.approx(ALPHA, rel=1e-15)


def test_eval_first_excited_at_origin():
    data = run_json("eval", "--family", "dg", "--n", "1",
                    "--q", "0.5", "--grid", "0:0:1")
    assert data["rows"][0]["re"] == pytest.approx(0.23871829988982562, rel=1e-14)


def test_json_keys_are_sorted():
    proc = run_cli("coeffs", "--family", "dg", "--n", "2", "--q", "0.5",
                   "--format", "json")
    text = proc.stdout.decode()
    data = json.loads(text)
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_byte_determinism():
    args = ("gram", "--family", "dg", "--nmax", "6", "--q", "0.5",
            "--format", "json")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_csv_default_format_crlf_and_17_digits(tmp_path):
    out = tmp_path / "coeffs.csv"
    proc = run_cli("coeffs", "--family", "dg", "--n", "2", "--q", "0.5",
                   "--out", str(out))
    assert proc.returncode == 0
    raw = out.read_bytes()
    assert raw.count(b"\r\n") == raw.count(b"\n")
    lines = raw.decode().strip().split("\r\n")
    header = lines[0].split(",")
    assert header[:4] == ["c", "q", "family", "n"]
    coeff_col = header.index("coefficient_re")
    for line in lines[1:]:
        assert FLOAT17.match(line.split(",")[coeff_col])


def test_gram_csv_rows(tmp_path):
    out = tmp_path / "gram.csv"
    run_cli("gram", "--family", "mac", "--nmax", "3", "--q", "0.5",
            "--format", "csv", "--out", str(out))
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 16  # header plus 4x4 entries


def test_limit_csv_wide_table(tmp_path):
    out = tmp_path / "limit.csv"
    run_cli("limit", "--family", "dg", "--n", "1",
            "--c-list", "0.2,0.1", "--out", str(out))
    header = out.read_text().splitlines()[0]
    assert header.split(",") == ["s", "rho_c0.2", "rho_c0.1"]


@pytest.mark.parametrize("family", ["dg", "mac"])
def test_limit_evaluates_each_curve_once(monkeypatch, capsys, family):
    # CSV tabulates the curves and JSON reports the scan: either format
    # evaluates each width's ratio curve once
    from qgauss import dg
    calls = []
    original = dg.limit_ratio_curve

    def counted(fam, n, c, pts):
        calls.append(c)
        return original(fam, n, c, pts)
    for module in (cli, dg):
        monkeypatch.setattr(module, "limit_ratio_curve", counted)
    argv = ["limit", "--family", family, "--n", "2", "--c-list", "0.2,0.1,0.05"]
    for fmt in ("csv", "json"):
        calls.clear()
        assert cli.main(argv + ["--format", fmt]) == 0
        assert calls == [0.2, 0.1, 0.05], fmt
        assert capsys.readouterr().out == run_cli(
            *argv, "--format", fmt).stdout.decode()


def test_verify_pass_and_report(tmp_path):
    report = tmp_path / "dg.json"
    proc = run_cli("verify", "--suite", "dg-gram", "--q", "0.5",
                   "--out", str(report))
    assert proc.returncode == 0
    assert b"dg-gram: PASS" in proc.stdout
    data = json.loads(report.read_text())
    assert data["schema"] == "qgauss/1"
    assert data["result"]["passed"] is True


def test_verify_sw_at_set_digits(tmp_path):
    report = tmp_path / "sw.json"
    proc = run_cli("verify", "--suite", "sw", "--digits", "20",
                   "--out", str(report))
    assert proc.returncode == 0, proc.stderr.decode()
    data = json.loads(report.read_text())
    assert data["result"]["passed"] is True


def test_verify_poisson(tmp_path):
    proc = run_cli("verify", "--suite", "poisson", "--c", "1", cwd=tmp_path)
    assert proc.returncode == 0


def test_verify_failure_exit_code(tmp_path):
    report = tmp_path / "mac8.json"
    proc = run_cli("verify", "--suite", "mac-gram", "--q", "0.5",
                   "--nmax", "12", "--digits", "8", "--out", str(report))
    assert proc.returncode == 1
    data = json.loads(report.read_text())
    assert data["result"]["passed"] is False
    assert data["result"]["failures"]  # offending entries are listed
    # the report must explain the cancellation budget, not just say FAIL
    assert "digits" in data["result"]["notes"]["precision_analysis"]


def test_verify_without_out_prints_the_report(tmp_path):
    proc = run_cli("verify", "--suite", "poisson", "--c", "1", cwd=tmp_path)
    assert proc.returncode == 0
    assert list(tmp_path.iterdir()) == []
    data = json.loads(proc.stdout.decode(), parse_constant=reject_constant)
    assert data["schema"] == "qgauss/1"
    assert data["result"]["suite"] == "poisson"
    assert proc.stderr.decode().startswith("poisson: PASS ")


def test_weights_family_dump():
    data = run_json("weights", "--count", "3", "--q", "0.5")
    assert len(data["weights"]) == 3
    modes = data["weights"][0]["modes"]
    assert modes[0][0] == 0
    assert modes[0][1] == pytest.approx(ALPHA, rel=1e-13)


def test_unknown_family_rejected():
    proc = run_cli("coeffs", "--family", "hermite", "--n", "0", "--q", "0.5")
    assert proc.returncode == 2  # argparse choice validation


def test_bad_grid_rejected():
    proc = run_cli("eval", "--family", "dg", "--n", "0", "--q", "0.5",
                   "--grid", "0:1")
    assert proc.returncode == 1


def test_in_process_calls_keep_the_bytes_of_fresh_runs(tmp_path, capsys):
    # one process shares a parser across main calls; run the set forwards,
    # then backwards, with a usage error between calls, and hold every
    # stdout (and report file) to a fresh interpreter's
    from qgauss import cli
    report = str(tmp_path / "report.json")
    argvs = [
        ("coeffs", "--family", "mac", "--n", "3"),
        ("eval", "--family", "dg", "--n", "2", "--grid", "-3:3:7",
         "--format", "json"),
        ("gram", "--family", "mac", "--nmax", "4", "--q", "0.45"),
        ("circle", "--family", "dg", "--nmax", "3", "--points", "64",
         "--format", "csv"),
        ("limit", "--family", "dg", "--n", "1", "--c-list", "0.2,0.1"),
        ("verify", "--suite", "ladders", "--nmax", "4", "--c", "0.9"),
        ("verify", "--suite", "poisson", "--out", report),
    ]
    fresh = {}
    for argv in argvs:
        proc = run_cli(*argv)
        fresh[argv] = (proc.returncode, proc.stdout.decode(),
                       Path(report).read_bytes() if report in argv else None)
    for argv in argvs + argvs[::-1]:
        with pytest.raises(SystemExit, match="exactly one"):
            cli.main(["coeffs", "--family", "dg", "--n", "0",
                      "--q", "0.5", "--c", "1.0"])
        capsys.readouterr()
        code = cli.main(list(argv))
        written = Path(report).read_bytes() if report in argv else None
        assert (code, capsys.readouterr().out, written) == fresh[argv], argv


def test_parser_is_built_once_per_process_and_not_at_import():
    probe = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from qgauss import cli\n"
        "assert built == [], built\n"
        "for _ in range(3):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(['coeffs', '--family', 'dg', '--n', '1'])\n"
        "print(built.count('qgauss'))\n")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "1\n"


@pytest.mark.parametrize("argv", [
    ("coeffs", "--family", "dg", "--n", "-1"),
    ("coeffs", "--family", "mac", "--n", "-2"),
    ("limit", "--n", "-1"),
    ("gram", "--family", "dg", "--nmax", "-1"),
    ("verify", "--suite", "dg-gram", "--nmax", "-1"),
    ("verify", "--suite", "ladders", "--nmax", "-1"),
])
def test_negative_degree_is_one_error_line(argv):
    assert_one_error_line(argv)


@pytest.mark.parametrize("argv", [
    ("coeffs", "--family", "dg", "--n", "2", "--q", "1.5"),
    ("coeffs", "--family", "dg", "--n", "2", "--c", "0"),
    ("coeffs", "--family", "dg", "--n", "2", "--digits", "0"),
    ("gram", "--family", "mac", "--digits", "-3"),
    ("circle", "--points", "100"),
    ("verify", "--suite", "circle-dg", "--points", "100"),
    ("gram", "--family", "gamma", "--nweights", "0"),
    ("verify", "--suite", "gamma", "--nweights", "0"),
    ("weights", "--count", "0"),
    ("limit", "--n", "2", "--c-list", "0"),
    # a suite with no rows checked nothing; it must not pass
    ("verify", "--suite", "ladders", "--nmax", "0"),
    ("verify", "--suite", "commutators", "--count", "0"),
    ("verify", "--suite", "sw", "--digits", "0"),
    # a flag that the chosen family ignores
    ("circle", "--family", "dg", "--nmax", "2", "--conjugate-first"),
    ("gram", "--family", "dg", "--nmax", "2", "--nweights", "5"),
    ("gram", "--family", "mac", "--nmax", "2", "--nweights", "5"),
    # a width list that names no width, or one that is not a number
    ("limit", "--family", "mac", "--n", "2", "--c-list", ","),
    ("limit", "--n", "2", "--c-list", "0.1,x"),
], ids=" ".join)
def test_bad_argument_is_one_error_line(argv):
    line = assert_one_error_line(argv)
    # the flags the CLI checks itself are named in their message
    for flag in set(argv) & {"--digits", "--count", "--nweights",
                             "--conjugate-first"}:
        assert flag in line, line
    # and so is --c-list when it names no width or one that is no number
    if {",", "0.1,x"} & set(argv):
        assert "--c-list" in line, line


def assert_one_error_line(argv) -> str:
    """The command fails with exit code 1, prints nothing on stdout and
    exactly one line on stderr, an `error:` line, not a traceback; returns
    that line."""
    proc = run_cli(*argv)
    assert proc.returncode == 1 and proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    return lines[0]


@pytest.mark.parametrize("argv", [
    ("coeffs", "--family", "mac", "--n", "4", "--q", "0.5", "--digits", "30"),
    ("gram", "--family", "gamma", "--digits", "30"),
    ("circle", "--family", "mac"),
    ("verify", "--suite", "sw", "--digits", "20"),
], ids=" ".join)
def test_set_digit_output_ignores_the_global_precision(argv, capsys):
    """Each context's numbers carry its own precision, so mpmath's global
    precision changes no byte of a set-digit or auto-digit run."""
    outputs = []
    saved = mpmath.mp.dps
    try:
        for dps in (5, 15, 50):
            mpmath.mp.dps = dps
            assert cli.main(list(argv)) == 0
            outputs.append(capsys.readouterr())
    finally:
        mpmath.mp.dps = saved
    assert outputs[0] == outputs[1] == outputs[2]


def test_overflowing_ladder_check_reports_a_failure():
    # q^{-n k} passes the double range at q = 0.01, nmax = 15: the report
    # says FAIL, with the non-finite deviation written as null
    proc = run_cli("verify", "--suite", "ladders", "--q", "0.01",
                   "--nmax", "15")
    err = proc.stderr.decode()
    assert proc.returncode == 1 and "Traceback" not in err, err
    assert err.startswith("ladders: FAIL")
    result = json.loads(proc.stdout.decode(),
                        parse_constant=reject_constant)["result"]
    assert result["passed"] is False and result["max_deviation"] is None


def test_circle_rows_past_the_double_range_are_one_error_line():
    # (-q^{-1/2})^k passes the double range at q = 0.01 past k = 307
    proc = run_cli("circle", "--family", "dg", "--q", "0.01", "--nmax", "310",
                   "--points", "1024")
    err = proc.stderr.decode()
    assert proc.returncode == 1 and not proc.stdout
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "double range" in err and "--digits" in err


def reference_csv(header, rows):
    """The CSV every command printed before the bulk writer: csv.writer
    over the rows, each float field written as f"{x:.16e}"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([f"{v:.16e}" if isinstance(v, float) else v
                      for v in row] for row in rows)
    return buf.getvalue()


def test_bulk_csv_writer_matches_the_reference_writer(capsys):
    # a lead field and a label that need quoting, a % in the lead, and
    # the float spellings nan, inf, -inf and -0.0
    label = "(0, 1)"
    rows = [(label, float("nan"), float("inf"), -0.0),
            ("2", -float("inf"), 1e-300, -1.5)]
    cli._emit_csv(["lead,a", "pct", "label", "x", "y", "z"],
                  ["a,b", "5%"], "%s,%.16e,%.16e,%.16e",
                  [(cli._csv_line([name])[:-2], *values)
                   for name, *values in rows], None)
    out = capsys.readouterr().out
    assert out == reference_csv(["lead,a", "pct", "label", "x", "y", "z"],
                                [["a,b", "5%", *row] for row in rows])
    assert '"a,b",5%,"(0, 1)",nan,inf,-0.0000000000000000e+00\r\n' in out


def _gram_rows(ctx, report):
    return [[float(ctx.c), float(ctx.q), i, j, str(li), str(lj),
             float(report.matrix[i][j]), float(report.target[i][j]),
             float(report.matrix[i][j]) - float(report.target[i][j])]
            for i, li in enumerate(report.labels)
            for j, lj in enumerate(report.labels)]


def _coeffs_reference(ctx, family, n):
    name = {"dg": "phi-unit-norm", "mac": "zeta-times-E"}[family]
    return (["c", "q", "family", "n", "normalization", "k", "center",
             "coefficient_re", "coefficient_im"],
            [[float(ctx.c), float(ctx.q), family, n, name, k, float(k),
              float(v), 0.0]
             for k, v in enumerate(FAMILIES[family].table(ctx, n)[n])])


def test_coeffs_prints_row_n_of_the_family_table(capsys):
    for family in FAMILIES.values():
        for digits in (None, 25):
            ctx = QContext(q=0.37, digits=digits)
            for n in (0, 1, 6):
                argv = ["coeffs", "--family", family.name, "--n", str(n),
                        "--q", "0.37", "--format", "json"]
                if digits:
                    argv += ["--digits", str(digits)]
                assert cli.main(argv) == 0
                rows = json.loads(capsys.readouterr().out)["rows"]
                assert [row["re"] for row in rows] == [
                    float(v) for v in family.table(ctx, n)[n]]


def _eval_reference(ctx, family, n, grid):
    values = np.asarray(evaluate(FAMILIES[family].build(ctx, n), grid),
                        dtype=complex)
    return (["c", "q", "family", "n", "x", "value_re", "value_im"],
            [[float(ctx.c), float(ctx.q), family, n, float(x),
              float(v.real), float(v.imag)] for x, v in zip(grid, values)])


def _limit_reference(family, n, c_list):
    pts = limit_grid(n, np.arange(0.3, 3.31, 0.15))
    curves = [limit_ratio_curve(FAMILIES[family], n, c, pts) for c in c_list]
    return (["s"] + [f"rho_c{c:g}" for c in c_list],
            [[float(s)] + [float(col[i]) for col in curves]
             for i, s in enumerate(pts)])


GRAM_HEADER = ["c", "q", "i", "j", "label_i", "label_j", "value", "target",
               "deviation"]


@pytest.mark.parametrize("argv, reference", [
    (("coeffs", "--family", "dg", "--n", "5"),
     lambda ctx: _coeffs_reference(ctx, "dg", 5)),
    (("coeffs", "--family", "mac", "--n", "3"),
     lambda ctx: _coeffs_reference(ctx, "mac", 3)),
    (("eval", "--family", "dg", "--n", "4", "--grid", "-8:12:401"),
     lambda ctx: _eval_reference(ctx, "dg", 4, np.linspace(-8, 12, 401))),
    (("eval", "--family", "mac", "--n", "2", "--grid", "-40:40:81"),
     lambda ctx: _eval_reference(ctx, "mac", 2, np.linspace(-40, 40, 81))),
    (("gram", "--family", "dg", "--format", "csv"),
     lambda ctx: (GRAM_HEADER, _gram_rows(ctx, gram_phi(ctx, 8)))),
    (("gram", "--family", "mac", "--format", "csv"),
     lambda ctx: (GRAM_HEADER, _gram_rows(ctx, indefinite_gram(ctx, 8)))),
    (("gram", "--family", "gamma", "--nmax", "3", "--format", "csv"),
     lambda ctx: (GRAM_HEADER,
                  _gram_rows(ctx, gamma_family_gram(ctx, 3, 3)))),
    (("circle", "--family", "dg", "--points", "64", "--format", "csv"),
     lambda ctx: (GRAM_HEADER, _gram_rows(ctx, circle_gram_dg(ctx, 8, 64)))),
    (("circle", "--family", "mac", "--points", "64", "--format", "csv"),
     lambda ctx: (GRAM_HEADER,
                  _gram_rows(ctx, circle_gram_mac(ctx, 5, 64, False)))),
    (("weights", "--count", "4", "--format", "csv"),
     lambda ctx: (["c", "q", "weight_index", "mode", "coeff_re", "coeff_im"],
                  [[float(ctx.c), float(ctx.q), i, m, v.real, v.imag]
                   for i, w in enumerate(orthonormal_weight_family(ctx, 4))
                   for m, v in sorted(w.modes.items())])),
    (("limit", "--family", "dg", "--n", "2"),
     lambda ctx: _limit_reference("dg", 2, [0.2, 0.1, 0.05])),
    (("limit", "--family", "mac", "--n", "3"),
     lambda ctx: _limit_reference("mac", 3, [0.2, 0.1, 0.05])),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_every_csv_command_prints_the_reference_writer_bytes(argv, reference,
                                                             capsys):
    for q in ("0.5", "0.0731"):
        assert cli.main([*argv, "--q", q]) == 0
        header, rows = reference(QContext(q=float(q)))
        assert capsys.readouterr().out == reference_csv(header, rows), q


def test_csv_output_builds_no_json_rows(monkeypatch, capsys):
    # a CSV command never builds the JSON payload, nor a JSON one the CSV
    seen = []
    monkeypatch.setattr(cli, "_emit", lambda *a: seen.append("json") or 0)
    monkeypatch.setattr(cli, "_emit_csv", lambda *a: seen.append("csv") or 0)
    for argv in (("coeffs", "--family", "dg", "--n", "2"),
                 ("eval", "--family", "mac", "--n", "1", "--grid", "-2:2:5"),
                 ("weights",), ("limit", "--n", "1"), ("gram",)):
        for fmt in ("csv", "json"):
            seen.clear()
            assert cli.main([*argv, "--format", fmt]) == 0
            assert seen == [fmt], (argv, fmt)
