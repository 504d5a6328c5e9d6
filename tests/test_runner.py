"""Scenario runner: emitted files, manifests, determinism, golden SVG."""

import json
import math
import os

import numpy as np
import pytest

from lcdeco.config import parse_config
from lcdeco.emit import read_csv, sha256_file
from lcdeco.errors import TruncationError
from lcdeco.runner import (BUILTIN_ORACLE_CONFIG, BUILTIN_SW_CONFIG,
                           config_digest, derive_report, failed_checks,
                           run_scenario)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

FIG2_SMALL = """\
scenario = fig2
[model]
omega_a = 8.0
g = 0.35
alpha = 5, 10, 30
dim = 96
samples = 120
"""

FIG4_UNCOUPLED = """\
scenario = fig4
[model]
omega_a = 8.0
g = 0.0
alpha = 2
dim = 32
samples = 4096
t_max = 6.283185307179586
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


def _floats(rows, col_index):
    return np.array([float(r[col_index]) for r in rows])


def test_fig2_outputs(tmp_path):
    cfg = parse_config(FIG2_SMALL)
    manifest, report = run_scenario(cfg, out_dir=str(tmp_path))
    assert report is None
    names = set(manifest["files"])
    assert names == {"fig2_alpha5.csv", "fig2_alpha10.csv",
                     "fig2_alpha30.csv", "fig2_overlay.svg"}
    # fock column present only for |alpha| <= 5
    _, cols5, rows5 = read_csv(str(tmp_path / "fig2_alpha5.csv"))
    assert cols5 == ["t", "D_exact", "D_approx", "D_gaussian", "D_fock"]
    _, cols30, rows30 = read_csv(str(tmp_path / "fig2_alpha30.csv"))
    assert cols30 == ["t", "D_exact", "D_approx", "D_gaussian"]
    assert len(rows5) == len(rows30) == 120
    # emitted fock curve really is oracle-close to the closed form
    d_ex = _floats(rows5, 1)
    d_fk = _floats(rows5, 4)
    assert np.max(np.abs(d_ex - d_fk)) <= 1e-6
    # deeper minimum for larger alpha, and the alpha=30 dip is deep
    d_min = manifest["params"]["d_min"]
    assert d_min["5"] > d_min["10"] > d_min["30"]
    assert d_min["30"] < 0.5


def test_fig2_overlay_golden(tmp_path):
    """Byte-exact reproduction of the committed overlay plot."""
    cfg = parse_config(FIG2_SMALL)
    run_scenario(cfg, out_dir=str(tmp_path))
    produced = str(tmp_path / "fig2_overlay.svg")
    golden = os.path.join(DATA_DIR, "fig2_overlay_golden.svg")
    assert sha256_file(produced) == sha256_file(golden)
    text = open(produced).read()
    assert text.count("<polyline") == 3
    for label in ("alpha=5", "alpha=10", "alpha=30"):
        assert label in text


def test_manifest_digests_verify(tmp_path):
    cfg = parse_config(FIG2_SMALL)
    manifest, _ = run_scenario(cfg, out_dir=str(tmp_path))
    assert manifest["files"]
    for name, entry in manifest["files"].items():
        path = tmp_path / name
        assert sha256_file(str(path)) == entry["sha256"]
        assert path.stat().st_size == entry["bytes"]
    # the manifest on disk matches what was returned
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["files"] == manifest["files"]
    assert on_disk["config_sha256"] == config_digest(cfg)


def test_thread_count_does_not_change_bytes(tmp_path):
    m1, _ = run_scenario(parse_config(FIG2_SMALL),
                         out_dir=str(tmp_path / "t1"))
    m4, _ = run_scenario(parse_config(FIG2_SMALL + "[run]\nthreads = 4\n"),
                         out_dir=str(tmp_path / "t4"))
    assert m1["config_sha256"] == m4["config_sha256"]
    for name in m1["files"]:
        b1 = (tmp_path / "t1" / name).read_bytes()
        b4 = (tmp_path / "t4" / name).read_bytes()
        assert b1 == b4, name


def test_fig4_uncoupled_columns(tmp_path):
    cfg = parse_config(FIG4_UNCOUPLED)
    manifest, _ = run_scenario(cfg, out_dir=str(tmp_path))
    assert set(manifest["files"]) == {"fig4.csv", "fig4.svg"}
    _, cols, rows = read_csv(str(tmp_path / "fig4.csv"))
    assert cols == ["t", "I_analytic", "I_numeric", "I_uncoupled"]
    ia = _floats(rows, 1)
    iu = _floats(rows, 3)
    assert np.max(np.abs(ia - iu)) <= 1e-12
    inum = _floats(rows, 2)
    assert np.max(np.abs(inum - ia)) <= 0.005 * np.max(np.abs(ia))


def test_oracle_check_scenario(tmp_path):
    cfg = parse_config(BUILTIN_ORACLE_CONFIG)
    manifest, _ = run_scenario(cfg, out_dir=str(tmp_path))
    assert not failed_checks(manifest)
    by_name = {}
    for c in manifest["checks"]:
        by_name.setdefault(c["name"], []).append(c)
    assert set(by_name) == {"exact_revival", "fock_vs_exact",
                            "gaussian_vs_fock", "gaussian_vs_exact"}
    assert all(c["status"] == "PASS" for cs in by_name.values() for c in cs)
    fock = by_name["fock_vs_exact"][0]
    assert fock["at"] == 2.0 and fock["value"] <= 1e-6
    # alpha = 30 runs through the gaussian oracle only
    assert [c["at"] for c in by_name["gaussian_vs_exact"]] == [2.0, 30.0]
    _, cols, rows = read_csv(str(tmp_path / "oracle_check.csv"))
    assert cols == ["check", "alpha", "max_abs_diff", "limit", "status"]
    assert len(rows) == len(manifest["checks"])


def test_sw_check_scenario(tmp_path):
    cfg = parse_config(BUILTIN_SW_CONFIG)
    manifest, _ = run_scenario(cfg, out_dir=str(tmp_path))
    assert not failed_checks(manifest)
    names = [c["name"] for c in manifest["checks"]]
    assert names == ["omega_dev_monotone", "lam_dev_monotone",
                     "omega_dev_tol", "lam_dev_tol"]
    assert manifest["params"]["max_omega_dev"] <= 0.10
    assert manifest["params"]["max_lam_dev"] <= 0.15
    _, cols, rows = read_csv(str(tmp_path / "sw_fit.csv"))
    assert cols[:2] == ["gamma", "branch"]
    assert len(rows) == 4   # two gammas x two branches


def test_sweep_scenario(tmp_path):
    cfg = parse_config("scenario = sweep\n[model]\nomega_a = 1.8\n"
                       "g = 0.05\nalpha = 1, 2, 5, 10, 30\n")
    manifest, _ = run_scenario(cfg, out_dir=str(tmp_path))
    _, cols, rows = read_csv(str(tmp_path / "sweep.csv"))
    assert cols == ["alpha", "Omega", "period", "t_min", "d_min_exact",
                    "d_min_approx", "d_min_gaussian"]
    assert len(rows) == 5
    from lcdeco.circuit import params_from_dimensionless
    from lcdeco.decoherence import jump_metrics
    m = params_from_dimensionless(1.8, 0.05)
    d_min = _floats(rows, 4)
    for i, alpha in enumerate((1.0, 2.0, 5.0, 10.0, 30.0)):
        assert abs(d_min[i] - jump_metrics(m, alpha).d_min) < 1e-15
    periods = _floats(rows, 2)
    assert np.max(np.abs(periods - math.pi / m.Omega)) < 1e-15
    # exact and gaussian minima agree where both are computed
    assert np.max(np.abs(d_min - _floats(rows, 6))) < 1e-8


def test_derive_scenario(tmp_path):
    cfg = parse_config(DEVICE_SI)
    manifest, report = run_scenario(cfg, out_dir=str(tmp_path))
    assert set(manifest["files"]) == {"derive_report.txt", "derived.csv"}
    assert manifest["checks"] == []
    assert "junction_C" in report and "series_C" in report
    assert report == (tmp_path / "derive_report.txt").read_text()
    _, cols, rows = read_csv(str(tmp_path / "derived.csv"))
    assert cols == ["convention", "quantity", "value"]
    values = {(r[0], r[1]): float(r[2]) for r in rows}
    assert abs(values[("junction_C", "omega")] - 4.47e10) / 4.47e10 < 0.005
    assert abs(values[("series_C", "omega")]
               - values[("junction_C", "omega")] * math.sqrt(2.0)) < 1e4
    assert abs(values[("junction_C", "gamma")] - 0.0716) < 5e-4


def test_derive_report_is_pure(tmp_path):
    cfg = parse_config(DEVICE_SI)
    before = set(os.listdir(tmp_path))
    text, csv_rows, echo = derive_report(cfg)
    assert set(os.listdir(tmp_path)) == before
    assert "junction_C" in echo and "series_C" in echo
    assert len(csv_rows) > 20
    assert text.startswith("circuit inputs:")


def test_error_manifest_written(tmp_path):
    # alpha = 5 cannot fit in dim = 32: the failure must be recorded, and
    # the curve of alpha = 2, computed first, must not be written
    cfg = parse_config("scenario = fig2\n[model]\nomega_a = 8.0\n"
                       "g = 0.35\nalpha = 2, 5\ndim = 32\nsamples = 40\n")
    with pytest.raises(TruncationError):
        run_scenario(cfg, out_dir=str(tmp_path))
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert "error" in on_disk
    assert on_disk["error"].startswith("TruncationError")
    assert on_disk["scenario"] == "fig2"
    assert os.listdir(tmp_path) == ["manifest.json"]


def test_config_digest_thread_invariant():
    cfg1 = parse_config(FIG2_SMALL)
    cfg4 = parse_config(FIG2_SMALL + "[run]\nthreads = 4\n")
    assert cfg1 == cfg4
    assert config_digest(cfg1) == config_digest(cfg4)
