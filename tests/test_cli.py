"""CLI behavior: exit codes, stderr reporting, derive output."""

import json
import os
import re
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


@pytest.mark.parametrize("scenario", ["fig2", "sweep"])
def test_run_overflowing_alpha_exit_three(scenario, tmp_path, capsys):
    """|alpha|^2 overflows a float at alpha = 1e200: exit 3 with one
    error line, and the output directory holds only the manifest, which
    records the error."""
    cfg = _write(tmp_path, "big.cfg",
                 "scenario = %s\n[model]\nomega_a = 8.0\ng = 0.35\n"
                 "alpha = 1e200\nsamples = 40\n" % scenario)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == \
        cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: OverflowError: ")
    assert err.count("\n") == 1
    assert os.listdir(out) == ["manifest.json"]
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["error"].startswith("OverflowError: ")


def test_run_non_finite_cell_exit_three(tmp_path, capsys, monkeypatch):
    """A NaN in the second of fig2's tables is refused as its CSV is
    written: exit 3 with one error line that names the column and row,
    and the first table's CSV, written before it, is removed, so the
    directory holds only the error manifest."""
    import lcdeco.runner as runner

    exact = runner.decoherence_exact

    def nan_at_alpha_3(m, alpha, ts):
        d = exact(m, alpha, ts)
        if alpha == 3:
            d[5] = np.nan
        return d

    monkeypatch.setattr(runner, "decoherence_exact", nan_at_alpha_3)
    cfg = _write(tmp_path, "nan.cfg",
                 "scenario = fig2\n[model]\nomega_a = 8.0\ng = 0.35\n"
                 "alpha = 2, 3\ndim = 48\nsamples = 40\n")
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == \
        cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err == "error: non-finite value nan in column 'D_exact', row 5\n"
    assert os.listdir(out) == ["manifest.json"]
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["error"] == ("ValueError: non-finite value nan "
                                          "in column 'D_exact', row 5")


def test_derive_overflowing_alpha_exit_three(tmp_path, capsys, monkeypatch):
    """derive with alpha = 1e200 exits 3 with one error line and writes
    no file."""
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "device.cfg", DEVICE_SI.replace(
        "[device]", "[model]\nalpha = 1e200\n[device]"))
    assert cli.main(["derive", "--config", cfg]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: OverflowError: ")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["device.cfg"]


def _in_fresh_process(code, **env):
    """`code` run to its end by a new interpreter on this checkout's src,
    with `env` added to the environment; a run that outlives the timeout
    fails."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **env)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)


TIMED_MAIN = """\
import time
import lcdeco.cli
start = time.perf_counter()
code = lcdeco.cli.main(%r)
print(code, time.perf_counter() - start)
"""


@pytest.mark.parametrize("t_max", ["1e300", "1e17"])
def test_run_unphaseable_time_step_exit_three(t_max, tmp_path):
    """A fig2 grid whose step no double can split on the line sums' FFT
    grid is refused within a second, with exit 3 and one error line: at
    1e300 the Taylor orders had grown without bound, and at 1e17 every
    D_fock cell had been written as NaN under exit 0.  The run is a
    child process, so a hang fails at its timeout."""
    cfg = _write(tmp_path, "long.cfg",
                 "scenario = fig2\n[model]\nomega_a = 8\ng = 0.35\n"
                 "alpha = 2\ndim = 64\nsamples = 400\nt_max = %s\n" % t_max)
    out = tmp_path / "o"
    proc = _in_fresh_process(
        TIMED_MAIN % (["run", "--config", cfg, "--out", str(out)],))
    code, seconds = proc.stdout.split()
    assert int(code) == cli.EXIT_NUMERIC
    assert float(seconds) < 1.0
    assert proc.stderr.startswith("error: time step ")
    assert "too long to phase in double precision" in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert os.listdir(out) == ["manifest.json"]


def test_run_unindexable_alpha_exit_three(tmp_path, capsys):
    """fig4 at alpha = 1e20 puts the coherent state's weight near level
    1e40, which no Fock truncation can index: exit 3 with one error line
    that says so, not a TypeError from a pmf over Python integers."""
    cfg = _write(tmp_path, "huge.cfg",
                 "scenario = fig4\n[model]\nomega_a = 8.0\ng = 0.35\n"
                 "alpha = 1e20\ndim = 64\nsamples = 4096\n")
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == \
        cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: coherent state alpha=1e+20 ")
    assert "beyond the last level any Fock truncation can index" in err
    assert err.count("\n") == 1
    assert os.listdir(out) == ["manifest.json"]


NUMPY_AFTER_MAIN = """\
import sys
import lcdeco.cli
try:
    code = lcdeco.cli.main(%r)
except SystemExit as exc:
    code = exc.code
print(code, 'numpy' in sys.modules)
"""


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["run"], 2),
    (["run", "--config", "{unknown}"], 2),
], ids=["version", "help", "usage-error", "unknown-key"])
def test_commands_that_compute_nothing_load_no_numpy(argv, code, tmp_path):
    """--version, --help, a usage error and a config error end before
    any command computes, so they never import numpy."""
    cfg = _write(tmp_path, "unknown.cfg",
                 "scenario = fig2\n[model]\nomega_a = 8.0\ng = 0.35\n"
                 "alpha = 2\nno_such_key = 1\n")
    argv = [a.format(unknown=cfg) for a in argv]
    out = _in_fresh_process(NUMPY_AFTER_MAIN % (argv,)).stdout
    assert out.splitlines()[-1] == "%d False" % code


def test_cli_import_skips_scipy():
    """Importing the CLI must load no scipy module: scipy's LAPACK wrapper
    is loaded only where a sector is diagonalized, so --version, --help,
    usage and config errors, derive, sweep and device_si never load any
    scipy file, and no command imports the scipy package."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import lcdeco.cli, sys; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_cli_import_skips_numpy_fft():
    """Importing the CLI must not load numpy.fft: only the spectra and
    the probe current's line sums use it, inside their calls.  Skipped
    where importing numpy alone loads it (numpy < 2)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, numpy; bare = 'numpy.fft' in sys.modules; "
            "import lcdeco.cli; print(bare, 'numpy.fft' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    bare, loaded = out.stdout.split()
    if bare == "True":
        pytest.skip("importing numpy alone loads numpy.fft")
    assert loaded == "False"


SCIPY_AFTER_MAIN = """\
import sys
import lcdeco.cli
from lcdeco import fock
code = lcdeco.cli.main(%r)
print(code, fock._dstevd.cache_info().currsize, [m for m in
      ('scipy', 'scipy.linalg', 'scipy.special') if m in sys.modules])
"""


def test_fock_run_skips_scipy_linalg_and_special(tmp_path):
    """A fig2 run that writes a D_fock column loads neither the scipy
    package, scipy.linalg nor scipy.special: the sector eigensolver calls
    scipy's compiled LAPACK wrapper, loaded by path, and the
    coherent-state weights are built from math.lgamma."""
    cfg = _write(tmp_path, "fig2.cfg",
                 "scenario = fig2\n[model]\nomega_a = 1.8\ng = 0.05\n"
                 "alpha = 2\ndim = 40\nsamples = 40\n")
    out = str(tmp_path / "out")
    proc = _in_fresh_process(
        SCIPY_AFTER_MAIN % (["run", "--config", cfg, "--out", out],))
    assert proc.stdout.splitlines()[-1] == "0 1 []"
    _, columns, _ = read_csv(os.path.join(out, "fig2_alpha2.csv"))
    assert "D_fock" in columns


def test_check_loads_no_scipy_package(tmp_path):
    """lcdeco check diagonalizes through the same wrapper and imports
    neither the scipy package nor scipy.linalg."""
    proc = _in_fresh_process(
        SCIPY_AFTER_MAIN % (["check", "--out", str(tmp_path / "out")],))
    assert proc.stdout.splitlines()[-1] == "0 1 []"


def test_fig2_with_an_axis_a_few_ulps_wide_exits(tmp_path):
    """At g = 1.5e-4, D(t) spans 0.9999999999999998 to 1.0; the run must
    still draw its SVG axis and exit 0, not loop on the axis ticks, and
    every tick must stay inside the 560 px view box."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    cfg = _write(tmp_path, "fig2.cfg",
                 "scenario = fig2\n[model]\nomega_a = 8\ng = 1.5e-4\n"
                 "alpha = 1\ndim = 40\nsamples = 50\n")
    out = str(tmp_path / "out")
    code = ("import lcdeco.cli, sys; "
            "sys.exit(lcdeco.cli.main(['run', '--config', %r, '--out', %r]))"
            % (cfg, out))
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, timeout=60)
    with open(os.path.join(out, "fig2_overlay.svg")) as fh:
        ys = [float(y) for y in re.findall(r' y1?="([-0-9.]+)"', fh.read())]
    assert ys and all(0.0 <= y <= 560.0 for y in ys)


TWO_BLAS_THREADS = {var: "2" for var in cli.BLAS_THREAD_VARS}

LIBRARY_RUN = """\
import json
from lcdeco import config, fock, runner
with open(%r, encoding="utf-8") as fh:
    text = fh.read()
runner.run_scenario(config.parse_config(text), out_dir=%r, config_text=text)
print(json.dumps([get() for get, _ in fock._openblas_thread_calls()]))
"""


def test_fig4_across_blas_thread_counts(tmp_path):
    """The shipped fig4 config through the CLI, which pins every BLAS
    library to one thread, and through runner.run_scenario in a process
    whose libraries keep the two threads its environment asks for, where
    only fock._one_blas_thread limits them: fig4.csv and fig4.svg are
    byte-identical, I_numeric included, and the manifests differ only in
    wall_time_s."""
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "fig4.cfg")
    out = {side: str(tmp_path / side) for side in ("cli", "library")}
    _in_fresh_process(
        "import lcdeco.cli, sys; sys.exit(lcdeco.cli.main(%r))"
        % (["run", "--config", cfg, "--out", out["cli"]],),
        **TWO_BLAS_THREADS)
    kept = json.loads(_in_fresh_process(
        LIBRARY_RUN % (cfg, out["library"]), **TWO_BLAS_THREADS).stdout)
    assert kept == [2] * len(kept)
    manifests = []
    for side in ("cli", "library"):
        with open(os.path.join(out[side], "manifest.json")) as fh:
            manifests.append(json.load(fh))
        manifests[-1].pop("wall_time_s")
    for name in ("fig4.csv", "fig4.svg"):
        assert ((tmp_path / "cli" / name).read_bytes()
                == (tmp_path / "library" / name).read_bytes()), name
    assert manifests[0] == manifests[1]


COLD_MAIN = """\
import atexit, json, os
import lcdeco.cli
hooks = atexit._ncallbacks()
code = lcdeco.cli.main(%r)
from lcdeco import fock
print(json.dumps({
    "code": code, "hooks": atexit._ncallbacks() - hooks,
    "threads": len(os.listdir("/proc/self/task")),
    "blas": [get() for get, _ in fock._openblas_thread_calls()],
    "env": [os.environ[var] for var in lcdeco.cli.BLAS_THREAD_VARS]}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="a process's threads are counted in /proc")
def test_cold_cli_process_starts_no_blas_threads(tmp_path):
    """A fresh process whose first BLAS load is a command of main, here
    a fig2 run that diagonalizes, under an environment asking for two
    BLAS threads: main pins every BLAS library to one thread before it
    loads, so the process ends with its one thread, every OpenBLAS
    library found reads 1, and main registered the exit freeze."""
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "fig2.cfg")
    got = json.loads(_in_fresh_process(
        COLD_MAIN % (["run", "--config", cfg, "--out", str(tmp_path)],),
        **TWO_BLAS_THREADS).stdout.splitlines()[-1])
    assert got["code"] == 0
    assert got["threads"] == 1
    assert got["blas"] == [1] * len(got["blas"])
    assert got["env"] == ["1"] * len(cli.BLAS_THREAD_VARS)
    assert got["hooks"] == 1


WARM_MAIN = """\
import atexit, json, os
import numpy
import lcdeco.cli
env, hooks = dict(os.environ), atexit._ncallbacks()
code = lcdeco.cli.main(%r)
print(json.dumps({"code": code, "env": dict(os.environ) == env,
                  "hooks": atexit._ncallbacks() - hooks}))
"""


def test_cli_main_after_numpy_keeps_environment_and_exit(tmp_path):
    """main called in a process that imported numpy first, as a test, a
    notebook or an in-process benchmark does, leaves os.environ as it
    was and registers no exit hook."""
    cfg = _write(tmp_path, "sweep.cfg", GOOD_SWEEP)
    got = json.loads(_in_fresh_process(
        WARM_MAIN % (["run", "--config", cfg, "--out", str(tmp_path)],),
        **TWO_BLAS_THREADS).stdout.splitlines()[-1])
    assert got == {"code": 0, "env": True, "hooks": 0}


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


def test_run_derive_params_prints_the_derive_report(tmp_path, capsys):
    """`lcdeco run` on a derive-params config prints derive_report.txt's
    text first, and that text is what `lcdeco derive` prints."""
    cfg = _write(tmp_path, "device.cfg", DEVICE_SI)
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    with open(os.path.join(out, "derive_report.txt"), encoding="utf-8",
              newline="") as fh:
        report = fh.read()
    assert report and printed.startswith(report)
    assert cli.main(["derive", "--config", cfg]) == 0
    assert capsys.readouterr().out == report


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
