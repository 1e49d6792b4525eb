import json
import subprocess
import sys

import pytest

from expkernel import cli
from expkernel.cli import COMMANDS, build_parser, cmd_verify
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


def test_eval_finite_diagonal_next_to_the_circle():
    # w = lam 1e-6 outside the unit disc at tol 1e-10: E(w, w) = 1 - 1/|w|^2,
    # with w - 1 exact
    r = run_cli("eval", "unit-disc", "--lam", "1.000001,0", "--w", "1.000001,0",
                "--tol", "1e-10")
    assert r.returncode == 0
    assert "diagonal_case: diagonal_finite" in r.stdout
    w = 1.000001
    want = (w - 1.0) * (w + 1.0) / w ** 2
    assert abs(complex(r.stdout.split()[1]) - want) <= 1e-9 * want


def test_eval_and_grid_leave_numpy_ma_unimported():
    # numpy.ma takes some 20 ms to import, and np.unique imports it on its
    # first call: that cost would land in the first evaluation of a process,
    # off the diagonal or on it
    code = ("import sys\n"
            "from expkernel.cli import main\n"
            "main(['eval', 'unit-disc', '--lam', '0.5,0', '--w', '0,0'])\n"
            "main(['eval', 'unit-disc', '--lam', '1,0', '--w', '1,0'])\n"
            "main(['grid', 'swiss-cheese', '--w', '0.1,0.2', '--bounds', '-1.2,1.2,-1.2,1.2',"
            " '--n', '3'])\n"
            "print('numpy.ma' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


def test_one_process_runs_many_calls_as_fresh_ones(monkeypatch, capsys):
    # main builds its parser on the first call and keeps it: every later call
    # must still behave as it does in a fresh interpreter, a usage error too
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    sequence = [
        ["eval", "unit-disc", "--lam", "0.5,0", "--w", "0,0", "--tol", "1e-4"],
        ["eval", "unit-disc", "--lam", "spam", "--w", "0,0"],
        ["grid", "swiss-cheese", "--w", "0.1,0.2", "--bounds", "-1.2,1.2,-1.2,1.2",
         "--n", "3", "--out", "-"],
        ["verify", "shift"],
        ["eval", "swiss-cheese", "--seed", "2", "--lam", "-0.3,0.1", "--w", "0.2,-0.4",
         "--tol", "1e-5"],
    ]
    codes = []
    for argv in sequence:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        out, err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 2, 0, 0, 0]
    assert len(built) == 1


def test_import_builds_no_parser():
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1),"
            " init(self, *a, **k))[1]\n"
            "import expkernel.cli\n"
            "print(len(built), expkernel.cli._parser)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "None"]


def test_eval_diagonal_with_a_node_on_the_end_of_the_last_curve(tmp_path):
    # a Gauss node of the radial rule rounds onto the end of the last curve
    # of g's jumps, and once named a curve past the table (IndexError)
    path = tmp_path / "ring_and_rectangle.json"
    path.write_text(json.dumps({"support_center": [0, 0], "support_radius": 1, "terms": [
        {"shape": {"kind": "annulus", "center": [0, 0], "r_inner": 0.25, "r_outer": 0.5},
         "coeff": 0.0},
        {"shape": {"kind": "rectangle",
                   "corner_min": [-0.0074156945879640945, 0.12129215270601795],
                   "corner_max": [0.37870784729398205, 0.5074156945879641]},
         "coeff": 0.5}]}))
    w = "-0.010395790089745735,0.8408020520388497"
    r = run_cli("eval", str(path), "--lam", w, "--w", w)
    assert r.returncode == 0, r.stderr
    assert "diagonal_case: diagonal_finite" in r.stdout


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
    assert COMMANDS[args.command] is cmd_verify
    assert SUITES[args.suite] is suite_properties


def test_verify_unknown_suite_is_usage_error():
    r = run_cli("verify", "no-such-suite")
    assert r.returncode == 2
    assert "invalid choice" in r.stderr


def test_verify_takes_no_seed():
    # the suites carry their own fixtures; a seed would be silently ignored
    r = run_cli("verify", "shift", "--seed", "1")
    assert r.returncode == 2
    assert "unrecognized arguments: --seed" in r.stderr


def test_exit_code_config_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("eval", str(bad), "--lam", "0,0", "--w", "1,0")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


@pytest.mark.parametrize("radius", ["abc", [1], None, True])
def test_exit_code_config_non_numeric_field(tmp_path, radius):
    # a usage error (2), not a traceback and exit 1, which reads as a failed check
    path = tmp_path / "disc.json"
    path.write_text(json.dumps({"support_center": [0, 0], "support_radius": 1, "terms": [
        {"shape": {"kind": "disk", "center": [0, 0], "radius": radius}, "coeff": 1}]}))
    r = run_cli("eval", str(path), "--lam", "0,0", "--w", "1,0")
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "must be a number" in r.stderr


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


def test_points_close_to_the_diagonal_evaluate():
    # lam and w 3e-8 apart: too close for the quadtree's separate excised
    # blocks, but the boundary route has no blocks
    r = run_cli("eval", "unit-disc", "--lam", "0.3,0.2", "--w", "0.3,0.20000003",
                "--tol", "1e-3")
    assert r.returncode == 0
    lam, w = 0.3 + 0.2j, 0.3 + 0.20000003j
    got = complex(r.stdout.split()[1])
    want = abs(lam - w) ** 2 / (1 - w.conjugate() * lam)  # about 1e-15
    assert abs(got - want) <= 10 * 1e-3 * abs(want)


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
    # nan and inf parse as floats but name no point
    for args in (("eval", "unit-disc", "--lam", "nan,0", "--w", "0,0"),
                 ("eval", "unit-disc", "--lam", "0,0", "--w", "nan,0"),
                 ("eval", "unit-disc", "--lam", "inf", "--w", "0,0"),
                 ("grid", "unit-disc", "--w", "0,0", "--bounds", "-inf,1,-1,1", "--n", "2"),
                 ("estimate", "unit-disc", "--w", "nan,0", "--mode", "gamma")):
        r = run_cli(*args)
        assert r.returncode == 2, args
        assert "finite" in r.stderr, args
