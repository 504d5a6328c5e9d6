"""CLI behavior: exit codes, stderr reporting, derive output."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import lcdeco.cli as cli
from lcdeco.emit import read_csv

GOOD_SWEEP = """\
scenario = sweep
[model]
omega_a = 1.8
g = 0.05
alpha = 2, 30
"""

DEVICE_SI = """\
scenario = derive-params
[device]
c_j = 1.0e-16
c_g = 1.0e-16
l = 5.0e-6
e_j0_kelvin = 0.05
n_g = 0.48344
phi_x = 9.9224e-16
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_success_exit_zero(tmp_path, capsys):
    cfg = _write(tmp_path, "sweep.cfg", GOOD_SWEEP)
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg, "--out", out]) == 0
    captured = capsys.readouterr()
    assert "scenario sweep" in captured.out
    assert os.path.exists(os.path.join(out, "sweep.csv"))
    assert os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("scenario", ["fig2", "sweep"])
def test_run_uncoupled_exit_zero(tmp_path, scenario):
    """g = 0 is a valid config: D ≡ 1, so every d_min is 1."""
    cfg = _write(tmp_path, "g0.cfg",
                 "scenario = %s\n[model]\nomega_a = 1.8\ng = 0\n"
                 "alpha = 2, 30\nsamples = 40\n" % scenario)
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        params = json.load(fh)["params"]
    if scenario == "fig2":
        assert set(params["d_min"].values()) == {1.0}
    else:
        _, columns, rows = read_csv(os.path.join(out, "sweep.csv"))
        col = columns.index("d_min_exact")
        assert [row[col] for row in rows] == ["1", "1"]


def test_run_config_error_exit_two(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg",
                 "scenario = fig2\n[model]\nomega_a = oops\ng = 0.05\n")
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err
    # every problem is reported, not just the first
    assert "line 3" in err
    assert "model.alpha" in err


@pytest.mark.parametrize("text, key", [
    ("scenario = sweep\n[model]\nomega_a = nan\ng = 0.05\nalpha = 2\n",
     "model.omega_a"),
    ("scenario = fig2\n[model]\nomega_a = 8.0\ng = 0.35\nalpha = 1, inf\n"
     "samples = 40\n", "model.alpha"),
    ("scenario = fig2\n[model]\nomega_a = 8.0\ng = 0.35\nalpha = 2\n"
     "samples = 40\nt_max = inf\n", "model.t_max"),
    (DEVICE_SI.replace("l = 5.0e-6", "l = inf"), "device.l"),
], ids=["omega_a-nan", "alpha-inf", "t_max-inf", "device-inf"])
def test_run_non_finite_value_exit_two(tmp_path, capsys, text, key):
    cfg = _write(tmp_path, "nonfinite.cfg", text)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg,
                     "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "%s: expected a finite number" % key in err
    assert not out.exists()


def test_run_non_finite_values_all_listed(tmp_path, capsys):
    cfg = _write(tmp_path, "nonfinite.cfg",
                 "scenario = fig2\n[model]\nomega_a = inf\ng = nan\n"
                 "alpha = 2, -inf\n")
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    for line, key, raw in ((3, "model.omega_a", "'inf'"),
                           (4, "model.g", "'nan'"),
                           (5, "model.alpha", "'-inf'")):
        assert ("line %d: %s: expected a finite number, got %s"
                % (line, key, raw)) in err


def test_run_missing_config_file_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["run", "--config", missing]) == cli.EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_run_regime_error_exit_three(tmp_path, capsys):
    # omega_a = 1 is exact resonance in dimensionless mode
    cfg = _write(tmp_path, "res.cfg",
                 "scenario = sweep\n[model]\nomega_a = 1.0\ng = 0.05\n"
                 "alpha = 2\n")
    assert cli.main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_NUMERIC
    assert "error:" in capsys.readouterr().err


def test_run_sw_check_at_its_gamma_bound_exit_zero(tmp_path):
    # the doubled coupling 2*gamma = 0.15 puts branch 1's lowest 24
    # states 11/13 across the parity sectors
    cfg = _write(tmp_path, "sw.cfg",
                 "scenario = sw-check\n[model]\nomega_a = 10.0\n"
                 "gamma = 0.075\ndim = 64\n")
    assert cli.main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0


def test_run_truncation_error_exit_three(tmp_path, capsys):
    cfg = _write(tmp_path, "trunc.cfg",
                 "scenario = fig2\n[model]\nomega_a = 8.0\ng = 0.35\n"
                 "alpha = 5\ndim = 32\nsamples = 40\n")
    assert cli.main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "suggested dim" in err


def test_run_check_failure_exit_four(tmp_path, capsys, monkeypatch):
    """No natural config fails its own checks while the guards hold, so
    exit code 4 is exercised by stubbing the scenario result."""
    manifest = {
        "scenario": "oracle-check", "files": {},
        "wall_time_s": 0.0,
        "checks": [{"name": "fock_vs_exact", "at": 2.0, "value": 1.0,
                    "limit": 1e-6, "status": "FAIL"}],
    }
    monkeypatch.setattr(cli, "run_scenario",
                        lambda cfg, **kw: (manifest, None))
    cfg = _write(tmp_path, "sweep.cfg", GOOD_SWEEP)
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_CHECK
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "1 check(s), 1 failed" in out


@pytest.mark.parametrize("exc, message", [
    (MemoryError("cannot allocate"), "error: out of memory (cannot"),
    (MemoryError(), "error: out of memory (allocation failed)"),
    (np.linalg.LinAlgError("eigh did not converge"),
     "error: eigh did not converge"),
])
def test_run_numeric_failure_exit_three(exc, message, tmp_path, capsys,
                                        monkeypatch):
    """Memory exhaustion and a failed LAPACK routine exit 3 with one line
    on stderr (LinAlgError is a ValueError), not a traceback."""
    def fail(cfg, **kw):
        raise exc
    monkeypatch.setattr(cli, "run_scenario", fail)
    cfg = _write(tmp_path, "sweep.cfg", GOOD_SWEEP)
    assert cli.main(["run", "--config", cfg]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1


def test_cli_import_skips_scipy():
    """Importing the CLI must load no scipy module: scipy is imported only
    where a Fock state is built or a sector diagonalized, so --version,
    derive, sweep and device_si never pay for loading it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import lcdeco.cli, sys; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command", [["run", "--config", "x.cfg"], ["check"]])
def test_threads_option_rejected(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_check_command(tmp_path, capsys):
    out = str(tmp_path / "checks")
    assert cli.main(["check", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "[oracle-check]" in captured
    assert "[sw-check]" in captured
    assert "FAIL" not in captured
    for sub in ("check-oracle", "check-sw"):
        assert os.path.exists(os.path.join(out, sub, "manifest.json"))
    with open(os.path.join(out, "check-oracle", "manifest.json")) as fh:
        manifest = json.load(fh)
    assert all(c["status"] == "PASS" for c in manifest["checks"])


def test_derive_prints_both_conventions(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "device.cfg", DEVICE_SI)
    assert cli.main(["derive", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "junction_C" in out and "series_C" in out
    assert "gamma" in out
    # derive is read-only: no output directory appears
    assert sorted(os.listdir(tmp_path)) == ["device.cfg"]


def test_derive_requires_device(tmp_path, capsys):
    cfg = _write(tmp_path, "dimless.cfg", GOOD_SWEEP)
    assert cli.main(["derive", "--config", cfg]) == cli.EXIT_CONFIG
    assert "device" in capsys.readouterr().err


def test_out_dir_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LCDECO_OUT", str(tmp_path / "from_env"))
    cfg = _write(tmp_path, "sweep.cfg", GOOD_SWEEP)
    assert cli.main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    assert os.path.exists(str(tmp_path / "from_env" / "sweep.csv"))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("lcdeco ")
