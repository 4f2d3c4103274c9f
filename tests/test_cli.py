"""CLI contracts: subcommands, formats, exit codes, byte stability."""

import importlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mqds import QGFunction, VarSpace, damped_pair, dho_f, oscillator_wigner, star
import mqds.cli as cli
from mqds.cli import _fmt, _write_json, main


def run_cli(*args, timeout=300):
    return subprocess.run([sys.executable, "-m", "mqds.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


def test_spectrum_toy_rows():
    r = run_cli("spectrum", "--model", "damped_toy", "--gamma", "1", "--hbar", "1",
                "--max-n", "2", "--sign", "+")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,re,im"
    assert lines[1:] == ["0,0,0.5", "1,0,1.5", "2,0,2.5"]


def test_spectrum_dho_f_row():
    r = run_cli("spectrum", "--model", "damped_ho", "--omega", "2", "--gamma", "1",
                "--family", "F", "--max-n", "0", "--max-m", "1", "--sign", "+")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "n,m,re,im"
    assert "0,1,2,-2" in lines


def test_spectrum_oscillator_ground():
    r = run_cli("spectrum", "--model", "oscillator", "--max-n", "0")
    assert r.returncode == 0
    assert r.stdout.strip().splitlines()[1] == "0,0.5,0"


def test_spectrum_json_metadata():
    r = run_cli("spectrum", "--model", "oscillator", "--max-n", "1", "--format", "json",
                "--hbar", "0.5")
    data = json.loads(r.stdout)
    assert data["metadata"]["hbar"] == 0.5
    assert data["rows"][0]["re"] == pytest.approx(0.25)


def test_eigenfunction_w0_grid(tmp_path):
    out = tmp_path / "w0.csv"
    r = run_cli("eigenfunction", "--model", "oscillator", "--family", "W", "--n", "0",
                "--grid", "x=-3:3:65,p=-3:3:65", "--out", str(out))
    assert r.returncode == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,p,re,im"
    assert len(rows) == 65 * 65 + 1
    best = max(rows[1:], key=lambda s: float(s.split(",")[2]))
    x, p, re, im = (float(v) for v in best.split(","))
    assert (x, p) == (0.0, 0.0)
    assert re == pytest.approx(1.0 / math.pi)
    assert im == 0.0


def test_eigenfunction_f0_modulus_and_phase(tmp_path):
    out = tmp_path / "f0.csv"
    r = run_cli("eigenfunction", "--model", "damped_toy", "--family", "F", "--n", "0",
                "--sign", "+", "--grid", "x=-2:2:9,p=-2:2:9", "--out", str(out))
    assert r.returncode == 0
    rows = out.read_text().strip().splitlines()[1:]
    for row in rows:
        x, p, re, im = (float(v) for v in row.split(","))
        val = complex(re, im)
        assert abs(val) == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert np.angle(val * np.exp(2j * x * p)) == pytest.approx(0.0, abs=1e-12)


def test_eigenfunction_two_dof_headers():
    r = run_cli("eigenfunction", "--model", "damped_ho", "--family", "F", "--n", "1",
                "--m", "0", "--sign", "+", "--grid", "x1=-1:1:3,x2=-1:1:3")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "x1,x2,p1,p2,re,im"
    assert len(r.stdout.strip().splitlines()) == 10


def test_eigenfunction_g_family_grid():
    r = run_cli("eigenfunction", "--model", "damped_ho", "--family", "G", "--n", "0",
                "--m", "0", "--grid", "x1=-1:1:2,p2=-1:1:2")
    assert r.returncode == 0
    rows = r.stdout.strip().splitlines()[1:]
    # G00 = e^{2(x1 p2 - x2 p1)} with x2 = p1 = 0 pinned
    for row in rows:
        x1, x2, p1, p2, re, im = (float(v) for v in row.split(","))
        assert complex(re, im) == pytest.approx(math.exp(2 * x1 * p2), rel=1e-12)


def test_eigenfunction_json_grid_dump(tmp_path):
    out = tmp_path / "w1.json"
    r = run_cli("eigenfunction", "--model", "oscillator", "--family", "W", "--n", "1",
                "--grid", "x=-2:2:7,p=-1:1:5", "--format", "json", "--out", str(out))
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert set(data) == {"spec", "metadata", "values"}
    pts = 1
    for axis in data["spec"].values():
        pts *= axis["points"]
    assert len(data["values"]) == pts  # row-major, one [re, im] per grid node
    meta = data["metadata"]
    assert meta["model"] == "harmonic_oscillator" and meta["indices"] == [1]
    assert {"hbar", "sign", "family", "parameters"} <= set(meta)


def test_eigenfunction_rows_are_x_major():
    grid = ("--model", "oscillator", "--family", "W", "--n", "2", "--grid", "x=-1:1:3,p=-2:2:5")
    csv = run_cli("eigenfunction", *grid)
    js = run_cli("eigenfunction", *grid, "--format", "json")
    assert csv.returncode == 0 and js.returncode == 0
    rows = [[float(v) for v in row.split(",")] for row in csv.stdout.strip().splitlines()[1:]]
    xs, ps = np.linspace(-1, 1, 3), np.linspace(-2, 2, 5)
    assert [(x, p) for x, p, _, _ in rows] == [(x, p) for x in xs for p in ps]
    W2 = oscillator_wigner(2, VarSpace(1, 1.0))
    values = json.loads(js.stdout)["values"]
    for (x, p, re, im), (jre, jim) in zip(rows, values):
        want = W2.evaluate([x, p])
        assert abs(complex(re, im) - want) <= 1e-14 and complex(jre, jim) == complex(re, im)


def old_csv(f, names, grids):
    """The CSV as formatted one number at a time from a meshgrid point array."""
    values = f.evaluate_grid(grids).ravel()
    mesh = np.meshgrid(*grids, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    lines = [",".join(names) + ",re,im"]
    for row, v in zip(pts, values):
        lines.append(",".join([f"{c.real:.17g}" for c in row] + [f"{v.real:.17g}", f"{v.imag:.17g}"]))
    return ("\n".join(lines) + "\n").encode()


def test_eigenfunction_csv_bytes_match_per_row_formatting(tmp_path):
    W12 = oscillator_wigner(12, VarSpace(1, 1.0))
    F33 = dho_f(3, 3, "+", VarSpace(2, 1.0))
    x, p = np.linspace(-3, 2.5, 23), np.linspace(-1.7, 4, 19)
    cases = [
        (["--model", "oscillator", "--family", "W", "--n", "12", "--grid", "x=-3:2.5:23,p=-1.7:4:19"],
         W12, ["x", "p"], [x, p]),
        (["--model", "damped_ho", "--family", "F", "--n", "3", "--m", "3", "--sign", "+",
          "--grid", "x1=-3:2.5:23,p2=-1.7:4:19"],
         F33, ["x1", "x2", "p1", "p2"], [x, np.array([0.0]), np.array([0.0]), p]),
    ]
    for argv, f, names, grids in cases:
        out = tmp_path / "grid.csv"
        assert main(["eigenfunction", *argv, "--out", str(out)]) == 0
        assert out.read_bytes() == old_csv(f, names, grids)


def test_eigenfunction_json_bytes_match_indented_dumps(tmp_path):
    # spec and metadata come from the output; the value block and layout are
    # pinned to json.dumps(indent=2, sort_keys=True) over [[re, im], ...]
    W12 = oscillator_wigner(12, VarSpace(1, 1.0))
    F33 = dho_f(3, 3, "+", VarSpace(2, 1.0))
    x, p = np.linspace(-3, 2.5, 23), np.linspace(-1.7, 4, 19)
    cases = [
        (["--model", "oscillator", "--family", "W", "--n", "12", "--grid", "x=-3:2.5:23,p=-1.7:4:19"],
         W12, [x, p]),
        (["--model", "damped_ho", "--family", "F", "--n", "3", "--m", "3", "--sign", "+",
          "--grid", "x1=-3:2.5:23,p2=-1.7:4:19"],
         F33, [x, np.array([0.0]), np.array([0.0]), p]),
    ]
    for argv, f, grids in cases:
        out = tmp_path / "grid.json"
        assert main(["eigenfunction", *argv, "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        data["values"] = [[v.real, v.imag] for v in f.evaluate_grid(grids).ravel()]
        assert out.read_bytes() == (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def test_json_values_writer_keeps_non_finite_spelling():
    values = np.array([1.5 - 0.0j, complex(math.nan, math.inf), complex(-math.inf, 1e-300),
                       complex(-0.0, 2.0 ** 70)])
    data = {"metadata": {"hbar": 1.0}, "spec": {"x": {"points": 4}}}
    want = json.dumps({**data, "values": [[v.real, v.imag] for v in values]}, indent=2, sort_keys=True)
    for slabs in ([values], [values[:1], values[1:]], [values[:2], values[2:3], values[3:]]):
        out = io.StringIO()
        _write_json(data, slabs, out)
        assert out.getvalue() == want + "\n"
    assert "NaN" in want and "-Infinity" in want


def _grid_output(argv, slab, to_file, monkeypatch, capsys, tmp_path):
    """The bytes `mqds eigenfunction` writes with slabs of at most `slab` points."""
    monkeypatch.setattr(cli, "_SLAB_POINTS", slab)
    if to_file:
        out = tmp_path / "grid.out"
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", [
    ["--model", "oscillator", "--family", "W", "--n", "5", "--grid", "x=-3:2.5:23,p=-1.7:4:19"],
    ["--model", "damped_ho", "--family", "G", "--n", "2", "--m", "1",
     "--grid", "x1=-2:2:5,x2=-1:1:4,p1=-2:2:3,p2=-1:2:6"],
    # x1 pinned: the slabs split the axes behind the first
    ["--model", "damped_ho", "--family", "F", "--n", "1", "--m", "2", "--grid", "x2=-2:2:7,p2=-1:1:9"],
], ids=["N1", "N2", "N2_first_axis_pinned"])
def test_streamed_grid_bytes_match_one_shot(grid, fmt, to_file, monkeypatch, capsys, tmp_path):
    argv = ["eigenfunction", *grid, "--format", fmt]
    whole = _grid_output(argv, 10**7, to_file, monkeypatch, capsys, tmp_path)
    for slab in (1, 3, 7, 40):
        assert _grid_output(argv, slab, to_file, monkeypatch, capsys, tmp_path) == whole


class _FailingStream(io.StringIO):
    """A text stream whose `fail_at`-th write raises ENOSPC."""

    def __init__(self, fail_at):
        super().__init__()
        self.writes, self.fail_at = 0, fail_at

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(28, "No space left on device")
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_failure_mid_stream_exits_3(fmt, monkeypatch, caplog):
    monkeypatch.setattr(cli, "_SLAB_POINTS", 5)
    stream = _FailingStream(fail_at=3)
    monkeypatch.setattr(sys, "stdout", stream)
    argv = ["eigenfunction", "--model", "oscillator", "--grid", "x=-1:1:4,p=-1:1:5", "--format", fmt]
    assert main(argv) == 3
    assert stream.writes == 3 and stream.getvalue()       # two pieces were out before it failed
    assert "I/O failure: [Errno 28] No space left on device" in caplog.text


def test_successive_calls_do_not_leak_options(tmp_path):
    out = tmp_path / "w.json"
    grid = ["eigenfunction", "--model", "oscillator", "--grid", "x=-1:1:3,p=-1:1:3", "--format", "json",
            "--out", str(out)]
    assert main([*grid, "--hbar", "2", "--n", "3"]) == 0
    assert json.loads(out.read_text())["metadata"]["hbar"] == 2.0
    assert main(["spectrum", "--model", "toy", "--max-n", "1", "--out", str(tmp_path / "s.csv")]) == 0
    assert main(grid) == 0
    meta = json.loads(out.read_text())["metadata"]
    assert meta["hbar"] == 1.0 and meta["indices"] == [0] and meta["sign"] == "+"
    assert cli._parser() is cli._parser()


def test_eigenfunction_degenerate_grid():
    r = run_cli("eigenfunction", "--model", "oscillator", "--family", "W", "--n", "0",
                "--grid", "x=-0.001:0.001:2,p=-0.001:0.001:2")
    assert r.returncode == 0
    assert len(r.stdout.strip().splitlines()) == 5  # header + 4 rows


def test_eigenfunction_bad_grid_usage_error():
    r = run_cli("eigenfunction", "--model", "oscillator", "--family", "W", "--n", "0",
                "--grid", "q=-1:1:5")
    assert r.returncode == 2


def test_verify_all_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("verify", "--suite", "all", "--out", str(out), timeout=600)
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert data["summary"]["failed"] == 0
    assert data["summary"]["passed"] > 0


def test_verify_selector_subset():
    r = run_cli("verify", "--suite", "classical_limit")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert {c["name"] for c in data["checks"]} == {"classical_limit"}


def test_verify_tolerance_override_fails():
    # the partial sums of identity_resolution stop short of their limit, so
    # their residuals are not 0, where koopman_zero_mode reads exactly 0 at the defaults
    r = run_cli("verify", "--suite", "identity_resolution",
                "--tolerance", "identity_resolution=1e-30")
    assert r.returncode == 1
    data = json.loads(r.stdout)
    assert data["summary"]["failed"] > 0


def test_verify_bad_selector_usage_error():
    r = run_cli("verify", "--suite", "not_a_check")
    assert r.returncode == 2


def test_verify_byte_stable():
    r1 = run_cli("verify", "--suite", "pair_transform_match", "--seed", "3")
    r2 = run_cli("verify", "--suite", "pair_transform_match", "--seed", "3")
    assert r1.stdout == r2.stdout


def test_oracle_x_p_table():
    # x and p do not decay: both columns hold the damped pair's product,
    # x e^{-eps|z|^2} * p e^{-eps|z|^2} with eps = 0.4 / hbar
    for hbar in (1.0, 2.0):
        r = run_cli("oracle", "--f", "x", "--g", "p", "--points", "1,1", "--hbar", str(hbar))
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "point,closed_re,closed_im,quadrature_re,quadrature_im,damping,rel_error"
        assert len(lines) == 2
        fields = lines[1].split(",")
        space = VarSpace(1, hbar)
        f, g, eps = damped_pair(QGFunction.coordinate(space, 0), QGFunction.coordinate(space, 1))
        closed = star(f, g).evaluate([1.0, 1.0])
        assert float(fields[5]) == eps == 0.4 / hbar
        assert complex(float(fields[1]), float(fields[2])) == closed
        assert abs(complex(float(fields[3]), float(fields[4])) - closed) <= 1e-12 * abs(closed)
        assert float(fields[6]) <= 1e-12


def test_oracle_w0_idempotency():
    r = run_cli("oracle", "--f", "W0", "--g", "W0", "--points", "0,0")
    assert r.returncode == 0
    fields = r.stdout.strip().splitlines()[1].split(",")
    assert float(fields[1]) == pytest.approx(1.0 / (2 * math.pi ** 2), rel=1e-10)
    assert fields[5] == "0"
    assert float(fields[6]) < 1e-6


@pytest.mark.parametrize("point", ["-0.006,-0.2313", "-0.0346,-0.7071"])
def test_oracle_x_star_x_near_its_zero(point, tmp_path):
    # x*x = x^2 is small at these points: a quadrature extrapolated to
    # eps = 0 missed them by 4.8e-6 and 1.2e-6 relative
    out = tmp_path / "out.csv"
    assert main(["oracle", "--f", "x", "--g", "x", f"--points={point}", "--out", str(out)]) == 0
    fields = out.read_text().splitlines()[1].split(",")
    assert fields[5] == _fmt(0.4)
    assert float(fields[-1]) <= 1e-12


def test_oscillatory_two_dof_oracle_is_refused_before_a_grid(monkeypatch):
    def no_rule(points):
        raise AssertionError(f"a {points}-point rule was built")

    monkeypatch.setattr(importlib.import_module("mqds.star"), "gauss_legendre", no_rule)
    assert main(["oracle", "--ndof", "2", "--f", "F00+", "--g", "F00+", "--points", "0,0,0,0"]) == 4


def test_oracle_g00_exit_code():
    r = run_cli("oracle", "--f", "G00", "--g", "G00", "--ndof", "2", "--points", "0,0,0,0")
    assert r.returncode == 4


def test_oracle_grid_bound_exit_code():
    # W0*W0 at hbar = 1e-3 and z = (0, 2) needs a 6708^2 grid: refused before it is built
    assert main(["oracle", "--f", "W0", "--g", "W0", "--points", "0,2", "--hbar", "0.001"]) == 4


SPECTRUM = ["spectrum", "--model", "oscillator", "--max-n", "0"]
EIGENFUNCTION = ["eigenfunction", "--model", "oscillator", "--grid", "x=-1:1:3,p=-1:1:3"]
VERIFY = ["verify", "--suite", "classical_limit"]
ORACLE = ["oracle", "--f", "x", "--g", "p", "--points", "1,1"]


@pytest.mark.parametrize("argv", [
    SPECTRUM + ["--seed", "1"], SPECTRUM + ["--tolerance", "classical_limit=1"],
    EIGENFUNCTION + ["--seed", "1"], EIGENFUNCTION + ["--tolerance", "classical_limit=1"],
    VERIFY + ["--format", "csv"],
    ORACLE + ["--format", "csv"], ORACLE + ["--seed", "1"],
    ORACLE + ["--tolerance", "classical_limit=1"],
    ORACLE + ["--halfwidth", "8"], ORACLE + ["--points-per-axis", "64"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, tmp_path):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_missing_star_product_is_a_usage_error():
    # F0+ * F0- has no closed composition: the composed quadratic form is singular
    r = run_cli("oracle", "--f", "F0+", "--g", "F0-", "--points", "0.1,0.2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["mqds:ERROR: composed quadratic form is singular"]


def test_defective_singular_star_product_is_a_usage_error():
    r = run_cli("oracle", "--ndof", "2", "--f", "F00+", "--g", "G00", "--points", "0,0,0,0")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["mqds:ERROR: composed quadratic form is singular"]


def _unreachable(*args, **kwargs):
    raise AssertionError("reached past the input bounds")


def test_grid_cap_is_checked_before_allocating(monkeypatch, tmp_path, caplog):
    monkeypatch.setattr(np, "linspace", _unreachable)
    argv = ["eigenfunction", "--model", "oscillator", "--grid", "x=-1:1:1000000000"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    assert "grid exceeds 10^7 points" in caplog.text


def test_repeated_grid_variable_is_a_usage_error(tmp_path, caplog):
    argv = ["eigenfunction", "--model", "oscillator", "--grid", "x=-1:1:2,x=0:1:3"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    assert "grid variable 'x' given twice" in caplog.text


@pytest.mark.parametrize("argv", [
    ["--model", "dho", "--max-n", "100000", "--max-m", "100000"],
    ["--model", "toy", "--max-n", "10000000"],
    ["--model", "dho", "--max-n", "-1"],
    ["--model", "toy", "--max-m", "-1"],
])
def test_spectrum_bounds_are_checked_before_computing(argv, monkeypatch, tmp_path):
    monkeypatch.setattr(importlib.import_module("mqds.cli"), "spectrum", _unreachable)
    assert main(["spectrum", *argv, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--hbar", "0"], ["verify", "--omega", "-1"],
    ["spectrum", "--model", "toy", "--hbar", "-1"], ["spectrum", "--model", "toy", "--hbar", "inf"],
    SPECTRUM + ["--hbar", "nan"], SPECTRUM + ["--gamma", "abc"], ORACLE + ["--gamma=-inf"],
])
def test_physical_parameters_must_be_positive_and_finite(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    assert "expected a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["toy", "dho"])
def test_spectrum_sign_the_family_lacks_is_a_usage_error(model):
    r = run_cli("spectrum", "--model", model, "--sign", "none")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["mqds:ERROR: the family has signs '+' and '-', not 'none'"]


def test_spectrum_families_without_sign_ignore_it(tmp_path):
    for argv in (["--model", "oscillator"], ["--model", "dho", "--family", "G"]):
        out = tmp_path / "out.csv"
        assert main(["spectrum", *argv, "--sign", "none", "--max-n", "1", "--max-m", "0",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3


def test_oracle_json_function_input(tmp_path):
    from mqds.algebra import QGFunction, VarSpace
    sp = VarSpace(1, 1.0)
    f = QGFunction.from_exponent(sp, 2.0 * np.eye(2), coeff=1.0 / math.pi)
    path = tmp_path / "w0.json"
    path.write_text(json.dumps(f.to_json_dict()))
    r = run_cli("oracle", "--f", f"@{path}", "--g", "W0", "--points", "0.2,-0.1")
    assert r.returncode == 0
    fields = r.stdout.strip().splitlines()[1].split(",")
    assert float(fields[-1]) < 1e-6


@pytest.mark.parametrize("content", ["{}", "[1, 2]"])
def test_oracle_malformed_json_function_is_a_usage_error(content, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(content)
    r = run_cli("oracle", "--f", f"@{path}", "--g", "W0", "--points", "0.2,-0.1")
    assert r.returncode == 2
    assert r.stdout == ""
    (line,) = r.stderr.splitlines()
    assert line.startswith("mqds:ERROR: malformed function file") and str(path) in line


@pytest.mark.parametrize("exponent", ["-1,0", "2147483648,0"])
def test_oracle_exponent_outside_the_packed_field_is_a_usage_error(exponent, tmp_path):
    # a negative exponent, and one past the 31-bit field of each of x and p
    f = QGFunction.from_exponent(VarSpace(1, 1.0), 2.0 * np.eye(2), coeff=1.0 / math.pi).to_json_dict()
    f["terms"][0]["poly"] = {exponent: [1.0, 0.0]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f))
    r = run_cli("oracle", "--f", f"@{path}", "--g", "W0", "--points", "0.1,0.2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["mqds:ERROR: an exponent is not an integer from 0 to 2147483647, "
                                     "the packed field of each of 2 variables"]


def test_io_error_exit_code():
    r = run_cli("spectrum", "--model", "oscillator", "--max-n", "1",
                "--out", "/nonexistent_dir/out.csv")
    assert r.returncode == 3


def test_unreadable_function_file_exit_code(tmp_path):
    missing = tmp_path / "missing.json"
    r = run_cli("oracle", "--f", f"@{missing}", "--g", "W0", "--points", "0,0")
    assert r.returncode == 3
    assert r.stderr.splitlines() == [
        f"mqds:ERROR: I/O failure: [Errno 2] No such file or directory: '{missing}'"]


def test_usage_error_without_subcommand():
    r = run_cli()
    assert r.returncode == 2


def _verify_passes(tmp_path, override):
    # conjugation_symmetry holds entries that read exactly 0 (minus_is_conj)
    # beside roundoff (conj_antihomomorphism, about 1e-15)
    out = tmp_path / f"report-{override}.json"
    main(["verify", "--suite", "conjugation_symmetry", "--tolerance",
          f"conjugation_symmetry={override}", "--out", str(out)])
    return [(c["params"], c["passed"]) for c in json.loads(out.read_text())["checks"]]


def test_verify_zero_tolerance_override_is_used(tmp_path):
    # a zero override is a tolerance like any other, not a request for the default
    zero = _verify_passes(tmp_path, "0")
    assert zero == _verify_passes(tmp_path, "1e-300")
    assert not all(passed for _, passed in zero)
    assert all(passed for _, passed in _verify_passes(tmp_path, "1e-9"))


@pytest.mark.parametrize("value", ["-1e-9", "inf", "-inf", "nan"])
def test_tolerance_override_must_be_finite_and_non_negative(value, tmp_path):
    r = run_cli("verify", "--suite", "classical_limit", "--tolerance", f"classical_limit={value}",
                "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert not (tmp_path / "out").exists()
    assert r.stderr.splitlines() == [f"mqds:ERROR: bad tolerance override 'classical_limit={value}' "
                                     "(expected a finite value >= 0)"]


@pytest.mark.parametrize("model, family", [("oscillator", "F"), ("oscillator", "G"), ("toy", "W"),
                                           ("damped_toy", "G"), ("dho", "W")])
def test_eigenfunction_family_the_model_lacks_is_a_usage_error(model, family, tmp_path):
    r = run_cli("eigenfunction", "--model", model, "--family", family, "--n", "1",
                "--grid", "x1=-1:1:3", "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert not (tmp_path / "out").exists()
    kind = {"oscillator": "harmonic_oscillator", "toy": "damped_toy", "dho": "damped_ho"}.get(model, model)
    assert r.stderr.splitlines() == [f"mqds:ERROR: model '{kind}' has no family '{family}'"]
