"""Correctness checks of one op's outputs, against seedref and the
reference data recorded when the benchmark was defined.

An op fails on a nonzero exit or an exception, a FAIL check row, a
closed-form CSV column or the fig2 SVG whose bytes differ from the
seed's, or a numeric column outside the tolerance recorded in
reference.json.  Each check returns a list of problems; empty means
correct.
"""

import hashlib
import json
import os

import numpy as np

import seedref
from workloads import (FOCK_ALPHA_MAX, ORACLE_BUILTIN, SW_BUILTIN,
                       pinned_config, read_keys)

HERE = os.path.dirname(os.path.abspath(__file__))

_REFERENCE = {}


def reference():
    """reference.json, read on first use (make_reference.py writes it)."""
    if not _REFERENCE:
        with open(os.path.join(HERE, "reference.json"),
                  encoding="utf-8") as fh:
            _REFERENCE.update(json.load(fh))
    return _REFERENCE


def _tol(name):
    return reference()["tolerances"][name]


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def csv_body(path):
    """The header row and data rows, without the '# key = value' block
    (it carries the tool version and config digest)."""
    lines = _read(path).decode("utf-8").split("\n")
    return "\n".join(line for line in lines if not line.startswith("#"))


def csv_columns(path):
    rows = [line.split(",") for line in csv_body(path).split("\n") if line]
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


def _model(keys):
    omega_a = float(keys["model.omega_a"])
    if "model.g" in keys:
        g = float(keys["model.g"])
    else:
        g = float(keys["model.gamma"]) * abs(omega_a - 1.0)
    return seedref.model(omega_a, g)


def _same_bytes(label, got, want):
    return [] if got == want else ["%s: bytes differ from the seed's" % label]


def _within(label, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - want)))
    if not err <= tol:
        return ["%s: max deviation %.3g above tolerance %.3g"
                % (label, err, tol)]
    return []


def check_manifest(out_dir, n_checks=None):
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        return ["no manifest.json"]
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = []
    if "error" in manifest:
        problems.append("manifest error: %s" % manifest["error"])
    for name, rec in manifest.get("files", {}).items():
        fpath = os.path.join(out_dir, name)
        if sha256_bytes(_read(fpath)) != rec["sha256"]:
            problems.append("%s: digest differs from the manifest" % name)
    checks = manifest.get("checks", [])
    problems += ["check %s at %s: FAIL" % (c["name"], c["at"])
                 for c in checks if c["status"] != "PASS"]
    if n_checks is not None and len(checks) != n_checks:
        problems.append("%d check rows, expected %d"
                        % (len(checks), n_checks))
    return problems


def _alphas(keys):
    return [float(a) for a in keys["model.alpha"].split(",")]


def check_fig2(keys, out_dir, svg_sha=None):
    m = _model(keys)
    ts = seedref.time_grid(m, 1.0, int(keys.get("model.samples", 400)))
    dim = int(keys.get("model.dim", 64))
    problems = []
    for alpha in _alphas(keys):
        name = "fig2_alpha%g.csv" % alpha
        cols = csv_columns(os.path.join(out_dir, name))
        exact = seedref.d_exact(m, alpha, ts)
        problems += _same_bytes(name + " t", cols["t"], seedref.fmt(ts))
        problems += _same_bytes(name + " D_exact", cols["D_exact"],
                                seedref.fmt(exact))
        problems += _same_bytes(name + " D_approx", cols["D_approx"],
                                seedref.fmt(seedref.d_approx(m, alpha, ts)))
        problems += _within(name + " D_gaussian", cols["D_gaussian"], exact,
                            _tol("D_gaussian_abs"))
        if abs(alpha) <= FOCK_ALPHA_MAX:
            if "D_fock" not in cols:
                problems.append(name + ": D_fock column missing")
            else:
                problems += _within(name + " D_fock", cols["D_fock"],
                                    seedref.d_fock(m, alpha, ts, dim),
                                    _tol("D_fock_abs"))
    if svg_sha is not None:
        svg = _read(os.path.join(out_dir, "fig2_overlay.svg"))
        if sha256_bytes(svg) != svg_sha:
            problems.append("fig2_overlay.svg: bytes differ from the seed's")
    return problems


def fig4_numeric_reference(m, alpha, ts, dim):
    key = "fig4 alpha=%g dim=%d samples=%d" % (alpha, dim, len(ts))
    stored = reference()["stored_numeric"].get(key)
    if stored is not None:
        with np.load(os.path.join(HERE, stored["file"])) as data:
            return data[stored["array"]]
    return seedref.current_numeric(m, alpha, ts, dim)


def check_fig4(keys, out_dir):
    m = _model(keys)
    alpha = _alphas(keys)[0]
    dim = int(keys["model.dim"])
    ts = seedref.time_grid(m, 8.0, int(keys["model.samples"]))
    cols = csv_columns(os.path.join(out_dir, "fig4.csv"))
    m0 = seedref.model(m.omega_a, 0.0)
    problems = _same_bytes("fig4.csv t", cols["t"], seedref.fmt(ts))
    problems += _same_bytes(
        "fig4.csv I_analytic", cols["I_analytic"],
        seedref.fmt(seedref.current_analytic(m, alpha, ts)))
    problems += _same_bytes(
        "fig4.csv I_uncoupled", cols["I_uncoupled"],
        seedref.fmt(seedref.current_analytic(m0, alpha, ts)))
    ref = fig4_numeric_reference(m, alpha, ts, dim)
    problems += _within("fig4.csv I_numeric", cols["I_numeric"], ref,
                        _tol("I_numeric_rel") * float(np.max(np.abs(ref))))
    return problems


def check_sweep(keys, out_dir):
    m = _model(keys)
    cols = csv_columns(os.path.join(out_dir, "sweep.csv"))
    want = {k: [] for k in ("alpha", "Omega", "period", "t_min",
                            "d_min_exact", "d_min_approx")}
    period = np.pi / m.Omega
    t_min = 0.5 * period
    for alpha in _alphas(keys):
        for key, value in (("alpha", alpha), ("Omega", m.Omega),
                           ("period", period), ("t_min", t_min),
                           ("d_min_exact", seedref.d_exact(m, alpha, t_min)),
                           ("d_min_approx",
                            seedref.d_approx(m, alpha, t_min))):
            want[key].append(value)
    problems = []
    for key, values in want.items():
        problems += _same_bytes("sweep.csv " + key, cols[key],
                                seedref.fmt(values))
    problems += _within("sweep.csv d_min_gaussian", cols["d_min_gaussian"],
                        want["d_min_exact"], _tol("D_gaussian_abs"))
    return problems


def _oracle_rows(keys):
    return 1 + sum(3 if abs(a) <= FOCK_ALPHA_MAX else 1
                   for a in _alphas(keys))


def check_scenario(text, out_dir, svg_sha=None):
    """Checks for one `lcdeco run` of config text into out_dir."""
    keys = read_keys(text)
    scenario = keys["scenario"]
    if scenario == "oracle-check":
        return check_manifest(out_dir, _oracle_rows(keys))
    if scenario == "sw-check":
        return check_manifest(out_dir, 4)
    problems = check_manifest(out_dir, 0)
    if problems:
        return problems
    if scenario == "fig2":
        return check_fig2(keys, out_dir, svg_sha)
    if scenario == "fig4":
        return check_fig4(keys, out_dir)
    if scenario == "sweep":
        return check_sweep(keys, out_dir)
    if scenario == "derive-params":
        want = reference()["derive"]
        return (_same_bytes("derive_report.txt", sha256_bytes(_read(
            os.path.join(out_dir, "derive_report.txt"))), want["report"])
            + _same_bytes("derived.csv", sha256_bytes(csv_body(
                os.path.join(out_dir, "derived.csv")).encode("utf-8")),
                want["derived_csv_body"]))
    return ["unknown scenario %r" % scenario]


def check_cli(op, out_dir, stdout):
    """Checks for one CLI op after a zero exit."""
    name = op["name"]
    if name == "check":
        return (check_scenario(ORACLE_BUILTIN % 1,
                               os.path.join(out_dir, "check-oracle"))
                + check_scenario(SW_BUILTIN % 1,
                                 os.path.join(out_dir, "check-sw")))
    if name == "derive":
        return _same_bytes("derive stdout", sha256_bytes(stdout),
                           reference()["derive"]["report"])
    svg = reference()["fig2_svg_sha256"] if name == "fig2" else None
    return check_scenario(pinned_config(name), out_dir, svg)
