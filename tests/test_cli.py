import json
import subprocess
import sys

import pytest

from expkernel.cli import build_parser, cmd_verify
from expkernel.suites import SUITES, suite_properties


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "expkernel.cli", *args],
                          capture_output=True, text=True, **kw)


def test_eval_unit_disc_interior_pair():
    r = run_cli("eval", "unit-disc", "--lam", "0.5,0", "--w", "0,0")
    assert r.returncode == 0
    value = r.stdout.splitlines()[0].split()[1]
    assert complex(value) == pytest.approx(0.25, abs=1e-5)
    assert "diagonal_case: off_diagonal" in r.stdout


def test_eval_unit_disc_exterior_pair():
    r = run_cli("eval", "unit-disc", "--lam", "2+0j", "--w", "3,0")
    assert r.returncode == 0
    value = r.stdout.splitlines()[0].split()[1]
    assert complex(value) == pytest.approx(5.0 / 6.0, abs=1e-5)


def test_eval_divergent_diagonal():
    r = run_cli("eval", "unit-disc", "--lam", "0.5,0", "--w", "0.5,0")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "value: 0 (diagonal divergent)"
    assert "diagonal_case: diagonal_divergent" in r.stdout


def test_grid_zero_density_is_identically_one(tmp_path):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(
        {"support_center": [0.0, 0.0], "support_radius": 1.0, "terms": []}))
    r = run_cli("grid", str(cfg), "--w", "0,0",
                "--bounds", "-1,1,-1,1", "--n", "3")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "x,y,re_E,im_E,abs_E,err"
    assert len(lines) == 1 + 9
    for row in lines[1:]:
        cols = row.split(",")
        assert float(cols[4]) == 1.0


def test_grid_unit_disc_modulus_distance_squared():
    # E(lam, 0) = |lam|^2 inside the disc, so abs_E = x^2 + y^2
    r = run_cli("grid", "unit-disc", "--w", "0,0",
                "--bounds", "-0.5,0.5,-0.5,0.5", "--n", "3")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 10
    for row in lines[1:]:
        x, y, _, _, abs_e, _ = (float(c) for c in row.split(","))
        assert abs_e == pytest.approx(x * x + y * y, abs=1e-5)


def test_grid_file_output_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        r = run_cli("grid", "swiss-cheese", "--seed", "7", "--w", "0.1,0.2",
                    "--bounds", "-1,1,-1,1", "--n", "2", "--out", str(out))
        assert r.returncode == 0
        assert f"wrote 4 rows to {out}" in r.stdout
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_shift_suite_passes():
    r = run_cli("verify", "shift")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[-1] == "suite shift: PASS"
    assert all(l.startswith("PASS") for l in lines[:-1])


def test_verify_properties_parses():
    # parse only: the properties suite itself runs for minutes
    args = build_parser().parse_args(["verify", "properties"])
    assert args.func is cmd_verify
    assert SUITES[args.suite] is suite_properties


def test_verify_unknown_suite_is_usage_error():
    r = run_cli("verify", "no-such-suite")
    assert r.returncode == 2
    assert "invalid choice" in r.stderr


def test_exit_code_config_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("eval", str(bad), "--lam", "0,0", "--w", "1,0")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


def test_exit_code_config_missing_file():
    r = run_cli("eval", "/no/such/density.json", "--lam", "0,0", "--w", "1,0")
    assert r.returncode == 2


def test_exit_code_config_bad_grid_size():
    r = run_cli("grid", "unit-disc", "--w", "0,0",
                "--bounds", "-1,1,-1,1", "--n", "1")
    assert r.returncode == 2


def test_exit_code_tolerance():
    r = run_cli("eval", "unit-disc", "--lam", "0.5,0", "--w", "0,0",
                "--tol", "0")
    assert r.returncode == 3
    r = run_cli("verify", "shift", "--tol", "-1")
    assert r.returncode == 3


def test_exit_code_estimator_precondition():
    r = run_cli("estimate", "unit-disc", "--w", "2,0", "--mode", "lipschitz")
    assert r.returncode == 4
    assert "error:" in r.stderr


def test_estimate_gamma_output():
    r = run_cli("estimate", "unit-disc", "--w", "0,0", "--mode", "gamma")
    assert r.returncode == 0
    assert r.stdout.strip() == "gamma_hat = 1.000000"


def test_bad_complex_argument_is_usage_error():
    r = run_cli("eval", "unit-disc", "--lam", "spam", "--w", "0,0")
    assert r.returncode == 2
    assert "not a complex number" in r.stderr
