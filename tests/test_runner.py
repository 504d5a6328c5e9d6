"""Scenario runner: emitted files, manifests, determinism, golden SVG."""

import json
import math
import os

import numpy as np
import pytest

import lcdeco.runner as runner
from lcdeco.config import parse_config
from lcdeco.emit import read_csv, sha256_file
from lcdeco.errors import RegimeError, TruncationError
from lcdeco.runner import (BUILTIN_ORACLE_CONFIG, BUILTIN_SW_CONFIG,
                           config_digest, derive_report, failed_checks,
                           resolve_model, run_scenario)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

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
    with open(produced) as fh:
        text = fh.read()
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


ENVELOPE_FIELDS = {"carrier_period", "modulation_depth",
                   "envelope_width_ratio"}


def test_fig4_flat_envelope_recorded(tmp_path):
    """Without coupling both envelopes are flat: each trace is recorded
    in full, with a depth of at most 0.01, on disk as returned."""
    manifest, _ = run_scenario(parse_config(FIG4_UNCOUPLED),
                               out_dir=str(tmp_path))
    for name in ("envelope_analytic", "envelope_numeric"):
        record = manifest["params"][name]
        assert set(record) == ENVELOPE_FIELDS, name
        assert record["modulation_depth"] <= 0.01, name
    with open(tmp_path / "manifest.json") as fh:
        on_disk = json.load(fh)["params"]
    assert on_disk["envelope_numeric"] == manifest["params"]["envelope_numeric"]


def test_fig4_coupled_envelope_recorded(tmp_path):
    """A coupled fig4 run records the analytic trace's envelope metrics:
    the carrier period 2π/ω_a, to the 2 % that
    test_envelope_modulation_period allows.  The numeric trace comes from
    the full H, whose envelope is not the effective model's (ROADMAP
    item 2), so its record is not pinned here."""
    cfg = parse_config(FIG4_UNCOUPLED.replace("g = 0.0", "g = 0.35")
                       .replace("alpha = 2", "alpha = 5")
                       .replace("dim = 32", "dim = 96")
                       .replace("samples = 4096", "samples = 1024")
                       .replace("t_max = 6.283185307179586\n", ""))
    manifest, _ = run_scenario(cfg, out_dir=str(tmp_path))
    model = manifest["params"]["model"]
    carrier = 2.0 * math.pi / model["omega_a"]
    record = manifest["params"]["envelope_analytic"]
    assert set(record) == ENVELOPE_FIELDS
    assert abs(record["carrier_period"] - carrier) <= 0.02 * carrier


def test_fig4_constant_trace_recorded_as_skipped(tmp_path):
    """At θ = 0 the analytic current is identically zero: its record is
    skipped with the reason envelope_metrics gives, while the numeric
    trace of the full H still moves and is recorded in full."""
    cfg = parse_config(FIG4_UNCOUPLED.replace("g = 0.0", "g = 0.35")
                       .replace("alpha = 2", "alpha = 3\ntheta = 0")
                       .replace("dim = 32", "dim = 64")
                       .replace("samples = 4096", "samples = 1024")
                       .replace("t_max = 6.283185307179586\n", ""))
    manifest, _ = run_scenario(cfg, out_dir=str(tmp_path))
    assert manifest["params"]["model"]["theta"] == 0.0
    assert manifest["params"]["envelope_analytic"] == {
        "skipped": "constant trace: no carrier or envelope to analyse"}
    assert set(manifest["params"]["envelope_numeric"]) == ENVELOPE_FIELDS


def test_fig4_small_alpha_envelope_recorded(tmp_path):
    """A small-α fig4 op of the regime-scan workload (α = 0.667,
    ω_a ≈ 7.7, 612 samples over 8 jump periods), shallowly modulated:
    its analytic record holds the three fields, the carrier within 2 %
    of 2π/ω_a."""
    text = """\
scenario = fig4
[model]
omega_a = 7.701680380383707
g = 0.19480483219896347
alpha = 0.667
dim = 39
samples = 612
"""
    manifest, _ = run_scenario(parse_config(text), out_dir=str(tmp_path))
    carrier = 2.0 * math.pi / 7.701680380383707
    record = manifest["params"]["envelope_analytic"]
    assert set(record) == ENVELOPE_FIELDS
    assert abs(record["carrier_period"] - carrier) <= 0.02 * carrier


def test_fig4_too_short_to_analyse_recorded_as_skipped(tmp_path):
    """A coupled fig4 run of 8 samples is too short for envelope analysis:
    the manifest records envelope_metrics' reason for each trace."""
    cfg = parse_config(FIG4_UNCOUPLED.replace("g = 0.0", "g = 0.35")
                       .replace("samples = 4096", "samples = 8")
                       .replace("t_max = 6.283185307179586", "t_max = 0.2"))
    manifest, _ = run_scenario(cfg, out_dir=str(tmp_path))
    skipped = {"skipped": "trace too short for envelope analysis"}
    assert manifest["params"]["envelope_analytic"] == skipped
    assert manifest["params"]["envelope_numeric"] == skipped


def test_fig4_trace_without_a_peak_recorded_as_skipped(tmp_path,
                                                     monkeypatch):
    """An analytic current of half a sine over the span has no spectral
    peak above one cycle per window: its record is skipped with
    envelope_metrics' reason, while the numeric trace is recorded in
    full."""
    def half_sine(m, alpha, ts):
        return np.sin(math.pi * (ts - ts[0]) / (ts[-1] - ts[0]))
    monkeypatch.setattr(runner, "current_analytic", half_sine)
    cfg = parse_config(FIG4_UNCOUPLED.replace("g = 0.0", "g = 0.35")
                       .replace("samples = 4096", "samples = 1024")
                       .replace("t_max = 6.283185307179586\n", ""))
    manifest, _ = run_scenario(cfg, out_dir=str(tmp_path))
    assert manifest["params"]["envelope_analytic"] == {
        "skipped": "no spectral peak above one cycle per window"}
    assert set(manifest["params"]["envelope_numeric"]) == ENVELOPE_FIELDS


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


@pytest.mark.parametrize("scenario, name", [("fig2", "fig2_alpha2.csv"),
                                            ("sweep", "sweep.csv")])
def test_si_mode_curves_in_seconds(tmp_path, scenario, name):
    """An SI run's times are the dimensionless grid times the time scale,
    and its CSV head gives omega in rad/s, which turns the head's
    frequencies (in units of omega) into the columns' rad/s."""
    cfg = parse_config(DEVICE_SI.replace("derive-params",
                                         scenario + "\nmode = si")
                       + "[model]\nalpha = 2\nsamples = 50\n")
    m, time_scale, _ = resolve_model(cfg)
    run_scenario(cfg, out_dir=str(tmp_path))
    meta_lines, _, rows = read_csv(str(tmp_path / name))
    meta = dict(line[2:].split(" = ", 1) for line in meta_lines)
    omega_si = float(meta["omega_rad_per_s"])
    assert omega_si == 1.0 / time_scale
    if scenario == "fig2":
        ts = np.linspace(0.0, math.pi / m.Omega, cfg.samples)
        assert np.array_equal(_floats(rows, 0), ts * time_scale)
    else:
        assert abs(_floats(rows, 1)[0] / (float(meta["Omega"]) * omega_si)
                   - 1.0) < 1e-15


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


@pytest.mark.parametrize("text, exc", [
    # alpha = 5 cannot fit in dim = 32; alpha = 2 is computed first
    ("scenario = fig2\n[model]\nomega_a = 8.0\ng = 0.35\n"
     "alpha = 2, 5\ndim = 32\nsamples = 40\n", TruncationError),
    ("scenario = oracle-check\n[model]\nomega_a = 8.0\ng = 0.35\n"
     "alpha = 2, 5\ndim = 32\nsamples = 40\n", TruncationError),
    # gamma = 0.1 passes, the doubled-g model (gamma = 0.2) does not
    ("scenario = sw-check\n[model]\nomega_a = 10.0\ngamma = 0.1\n",
     RegimeError),
], ids=["fig2", "oracle-check", "sw-check"])
def test_error_manifest_written(tmp_path, text, exc):
    # the failure must be recorded, and nothing computed before it written
    cfg = parse_config(text)
    with pytest.raises(exc):
        run_scenario(cfg, out_dir=str(tmp_path))
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert "error" in on_disk
    assert on_disk["error"].startswith(exc.__name__)
    assert on_disk["scenario"] == cfg.scenario
    assert os.listdir(tmp_path) == ["manifest.json"]


FIG2_ALPHA2 = ("scenario = fig2\n[model]\nomega_a = 8.0\ng = 0.35\n"
               "alpha = 2\ndim = 64\nsamples = 50\n")


def _lone_manifest_error(out):
    """The error of a run that left only its manifest in out."""
    assert os.listdir(out) == ["manifest.json"]
    on_disk = json.loads((out / "manifest.json").read_text())
    assert "files" not in on_disk
    return on_disk["error"]


def test_unreadable_output_leaves_only_the_error_manifest(tmp_path,
                                                          monkeypatch):
    """An output that cannot be read back for its digest fails the run
    after every file is written: they are removed, and the manifest
    records the OSError."""
    def unreadable(path):
        raise OSError("cannot read %s" % os.path.basename(path))

    monkeypatch.setattr(runner, "sha256_file", unreadable)
    with pytest.raises(OSError):
        run_scenario(parse_config(FIG2_ALPHA2), out_dir=str(tmp_path))
    assert _lone_manifest_error(tmp_path) == \
        "OSError: cannot read fig2_alpha2.csv"


def test_interrupt_after_the_first_csv_leaves_only_the_error_manifest(
        tmp_path, monkeypatch):
    """An interrupt between two output files is recorded like an error:
    the CSV written before it is removed, and the manifest names the
    KeyboardInterrupt."""
    written = []

    def interrupt(path, *args, **kwargs):
        written.extend(sorted(os.listdir(tmp_path)))
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "emit_svg", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_scenario(parse_config(FIG2_ALPHA2), out_dir=str(tmp_path))
    assert written == ["fig2_alpha2.csv"]
    assert _lone_manifest_error(tmp_path) == "KeyboardInterrupt: "


def test_sw_check_names_the_doubled_gamma(tmp_path):
    # gamma = 0.1 is valid; it is the doubled-coupling model that is not
    cfg = parse_config("scenario = sw-check\n[model]\nomega_a = 10.0\n"
                       "gamma = 0.1\n")
    with pytest.raises(RegimeError) as err:
        run_scenario(cfg, out_dir=str(tmp_path))
    assert str(err.value) == ("gamma = 0.1: sw-check also fits the doubled "
                              "coupling 2*gamma = 0.2, so it needs "
                              "gamma <= 0.075")


@pytest.mark.parametrize("text", [
    FIG2_SMALL, FIG4_UNCOUPLED, BUILTIN_ORACLE_CONFIG, BUILTIN_SW_CONFIG,
    "scenario = sweep\n[model]\nomega_a = 1.8\ng = 0.05\nalpha = 2, 30\n",
], ids=["fig2", "fig4", "oracle-check", "sw-check", "sweep"])
def test_every_csv_starts_with_meta_head(tmp_path, text):
    manifest, _ = run_scenario(parse_config(text), out_dir=str(tmp_path))
    names = [name for name in manifest["files"] if name.endswith(".csv")]
    assert names
    for name in names:
        meta_lines, _, _ = read_csv(str(tmp_path / name))
        meta = [line[2:].split(" = ", 1) for line in meta_lines]
        assert [key for key, _ in meta[:9]] == [
            "tool", "scenario", "mode", "config_sha256", "omega", "omega_a",
            "g", "Omega", "gamma"], name
        assert meta[3][1] == manifest["config_sha256"], name


def test_config_digest_thread_invariant():
    cfg1 = parse_config(FIG2_SMALL)
    cfg4 = parse_config(FIG2_SMALL + "[run]\nthreads = 4\n")
    assert cfg1 == cfg4
    assert config_digest(cfg1) == config_digest(cfg4)


def _shipped(name):
    with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
        return parse_config(fh.read())


@pytest.mark.parametrize("name, builtin", [
    ("oracle_check.cfg", BUILTIN_ORACLE_CONFIG),
    ("sw_check.cfg", BUILTIN_SW_CONFIG),
])
def test_shipped_check_configs_match_the_builtins(name, builtin):
    # the shipped copies promise the defaults of `lcdeco check`
    assert _shipped(name) == parse_config(builtin)


@pytest.mark.parametrize("name, digest", [
    ("device_si.cfg",
     "794b883a39ab497281765dc7a0ad08bdd0d7ca732309a851d2118981294af023"),
    ("fig2.cfg",
     "dbc027f45ba27c72a207fbd0c3df325c283ceefbb560f4113007b8c227a8bf58"),
    ("fig4.cfg",
     "5d0fb408bb4777f9664db3b492fdd9bf90397e0203b49a062f17fe8595fd203b"),
    ("oracle_check.cfg",
     "e4eb970f0ab56761da3a9ec3a258ad79b2a98010e284b71bdd8b33d006692398"),
    ("sw_check.cfg",
     "e69482d10814876aa3251970ba8ec200f734407b16cde0aeba48d7312f874abb"),
    ("sweep.cfg",
     "5bc6b342365e865172671ab0833e7db70582b8e332cbac366d1eb69b32681097"),
])
def test_shipped_config_digests_pinned(name, digest):
    """config_sha256 keys every emitted curve to its configuration, so the
    canonical text of the shipped configs must not drift."""
    assert config_digest(_shipped(name)) == digest
