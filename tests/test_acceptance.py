"""End-to-end release gates.

Each test evaluates one numbered gate at a fixed tolerance and prints a
single PASS/FAIL line (run with ``pytest -s`` to see the lines for
passing tests too).  Parameter sets are pinned here so the numbers are
reproducible:

  * core oracle set:     omega_a = 1.8, g = 0.05   (gamma = 0.0625)
  * gamma = 0.07 set:    omega_a = 1.8, g = 0.056
  * display set:         omega_a = 8.0, g = 0.35   (deep alpha = 30 dips)
  * far-detuned SW set:  omega_a = 10.0, g = 0.45 / 0.90
"""

import math
import time

import numpy as np

from dense_ref import annihilation_op, number_op
from lcdeco.circuit import model_params, params_from_dimensionless
from lcdeco.config import parse_config
from lcdeco.decoherence import (decoherence_exact, decoherence_fock_oracle,
                                decoherence_gaussian_oracle,
                                full_model_coherence, jump_metrics)
from lcdeco.fock import SpectralPropagator, coherent_state, hermitian_eig
from lcdeco.hamiltonians import (build_effective_hamiltonian,
                                 predicted_moments, schrieffer_wolff_check,
                                 squeeze_coefficients)
from lcdeco.observables import (current_analytic, current_numeric,
                                spectral_peaks, spectrum)
from lcdeco.runner import run_scenario

M_CORE = params_from_dimensionless(1.8, 0.05)
M_GAMMA007 = model_params(1.0, 1.8, 0.056)
M_DISPLAY = params_from_dimensionless(8.0, 0.35)
SQ = 1.0 / math.sqrt(2.0)

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

FIG2_SMALL = """\
scenario = fig2
[model]
omega_a = 8.0
g = 0.35
alpha = 5, 10, 30
dim = 96
samples = 120
"""


def _report(num, label, ok, detail):
    print("%s  [%2d] %s: %s" % ("PASS" if ok else "FAIL", num, label,
                                detail))
    assert ok, "[%d] %s: %s" % (num, label, detail)


def test_01_oracle_equivalence_core():
    started = time.perf_counter()
    ts = np.linspace(0.0, 2.0 * math.pi / M_CORE.Omega, 200)
    d_fock = decoherence_fock_oracle(M_CORE, 2.0, ts, 64)
    d_exact = decoherence_exact(M_CORE, 2.0, ts)
    dev = float(np.max(np.abs(d_fock - d_exact)))
    elapsed = time.perf_counter() - started
    _report(1, "Fock oracle vs closed form",
            dev <= 1e-6 and elapsed < 30.0,
            "max|D_fock - D_exact| = %.3g (limit 1e-6), %.1f s" % (dev,
                                                                   elapsed))


def test_02_gaussian_oracle_validation():
    started = time.perf_counter()
    ts = np.linspace(0.0, 2.0 * math.pi / M_CORE.Omega, 200)
    d_fock = decoherence_fock_oracle(M_CORE, 2.0, ts, 64)
    d_gauss2 = decoherence_gaussian_oracle(M_CORE, 2.0, ts)
    dev2 = float(np.max(np.abs(d_gauss2 - d_fock)))
    d_gauss30 = decoherence_gaussian_oracle(M_CORE, 30.0, ts)
    d_exact30 = decoherence_exact(M_CORE, 30.0, ts)
    dev30 = float(np.max(np.abs(d_gauss30 - d_exact30)))
    elapsed = time.perf_counter() - started
    _report(2, "Gaussian oracle validation",
            dev2 <= 1e-8 and dev30 <= 1e-8 and elapsed < 5.0,
            "alpha=2 vs fock %.3g, alpha=30 vs exact %.3g (limit 1e-8), "
            "%.1f s" % (dev2, dev30, elapsed))


def test_03_jump_revival_and_periodicity():
    period = math.pi / M_CORE.Omega
    rev = abs(decoherence_exact(M_CORE, 2.0, period) - 1.0)
    ts = np.linspace(0.0, 2.0 * period, 200)
    per = float(np.max(np.abs(decoherence_exact(M_CORE, 2.0, ts + period)
                              - decoherence_exact(M_CORE, 2.0, ts))))
    full_rev = full_model_coherence(M_GAMMA007, SQ, SQ, 2.0,
                                    math.pi / M_GAMMA007.Omega, 64)
    ok = rev <= 1e-12 and per <= 1e-12 and full_rev >= 0.90
    _report(3, "quantum-jump revival",
            ok, "|D(pi/Omega)-1| = %.2g, periodicity %.2g (limit 1e-12), "
                "full-model revival %.4f (floor 0.90)" % (rev, per,
                                                          full_rev))


def test_04_alpha_ordering_of_minima():
    d_min = {a: jump_metrics(M_DISPLAY, a).d_min for a in (5.0, 10.0, 30.0)}
    ok = d_min[5.0] > d_min[10.0] > d_min[30.0] and d_min[30.0] < 0.5
    _report(4, "deeper coherence dips for larger alpha", ok,
            "d_min(5) = %.4f > d_min(10) = %.4f > d_min(30) = %.4f < 0.5"
            % (d_min[5.0], d_min[10.0], d_min[30.0]))


def test_05_full_model_tracking():
    ts = np.linspace(0.0, math.pi / M_GAMMA007.Omega, 200)
    full = full_model_coherence(M_GAMMA007, SQ, SQ, 2.0, ts, 64)
    ref = decoherence_exact(M_GAMMA007, 2.0, ts)
    dev = float(np.max(np.abs(full - ref)))
    _report(5, "full model tracks closed form", dev <= 0.1,
            "max deviation over one jump period = %.4f (limit 0.1)" % dev)


def test_06_effective_spectrum_spacing():
    dim = 128
    worst = 0.0
    for k in (0, 1):
        H = build_effective_hamiltonian(k, M_CORE, dim)
        w = np.sort(np.concatenate([hermitian_eig(s.diag, s.offdiag)[0]
                                    for s in H.sectors]))
        gaps = np.diff(w[: int(0.9 * dim)])   # top 10% of levels excluded
        worst = max(worst, float(np.max(np.abs(gaps - M_CORE.Omega)))
                    / M_CORE.Omega)
    _report(6, "effective spectrum spacing = Omega", worst <= 1e-9,
            "max relative gap deviation = %.3g (limit 1e-9)" % worst)


def test_07_schrieffer_wolff_check():
    r1 = schrieffer_wolff_check(model_params(1.0, 10.0, 0.45), dim=64)
    r2 = schrieffer_wolff_check(model_params(1.0, 10.0, 0.90), dim=64)
    ok = (r1.max_omega_dev <= 0.10 and r1.max_lam_dev <= 0.15
          and r1.max_omega_dev < r2.max_omega_dev
          and r1.max_lam_dev < r2.max_lam_dev)
    _report(7, "dispersive-model fit", ok,
            "gamma=0.05: omega dev %.3f (limit 0.10), lam dev %.3f "
            "(limit 0.15); gamma=0.10: %.3f / %.3f (must be larger)"
            % (r1.max_omega_dev, r1.max_lam_dev, r2.max_omega_dev,
               r2.max_lam_dev))


def test_08_bogoliubov_property_suite():
    rng = np.random.default_rng(20260816)
    dim = 40
    a = annihilation_op(dim)
    a2 = a @ a
    nn = number_op(dim)
    worst_defect = 0.0
    worst_moment = 0.0
    for _ in range(1000):
        m = params_from_dimensionless(rng.uniform(1.3, 4.0),
                                      rng.uniform(0.0, 0.15))
        k = int(rng.integers(0, 2))
        t = rng.uniform(0.0, 20.0)
        mu, nu = squeeze_coefficients(k, m, t)
        worst_defect = max(worst_defect, abs(abs(mu) ** 2 - abs(nu) ** 2
                                             - 1.0))
        alpha = rng.uniform(0.2, 3.0) * np.exp(2j * math.pi * rng.uniform())
        psi = SpectralPropagator(build_effective_hamiltonian(k, m, dim)) \
            .evolve_grid(coherent_state(alpha, dim), [t],
                         lambda b, _: b)[0][:, 0]
        ma, m2, mn = predicted_moments(k, m, alpha, t)
        worst_moment = max(
            worst_moment,
            abs(np.vdot(psi, a @ psi) - ma),
            abs(np.vdot(psi, a2 @ psi) - m2),
            abs(np.vdot(psi, nn @ psi).real - mn))
    ok = worst_defect <= 1e-12 and worst_moment <= 1e-6
    _report(8, "Bogoliubov suite (1000 draws)", ok,
            "max |mu|^2-|nu|^2 defect = %.2g (limit 1e-12), max moment "
            "deviation = %.2g (limit 1e-6)" % (worst_defect, worst_moment))


def test_09_current_observable():
    # uncoupled analytic trace: a pure tone at omega_a, amplitude omega_a
    m0 = params_from_dimensionless(8.0, 0.0)
    ts0 = np.linspace(0.0, 8.0 * 2.0 * math.pi / m0.omega_a, 4096)
    tone_dev = float(np.max(np.abs(
        current_analytic(m0, 2.0, ts0)
        - m0.omega_a * np.sin(m0.omega_a * ts0)))) / m0.omega_a
    # coupled trace at alpha = 30: sidebands at omega_a +/- 2 Omega
    ts = np.linspace(0.0, 8.0 * math.pi / M_DISPLAY.Omega, 4096)
    w, mag = spectrum(ts, current_analytic(M_DISPLAY, 30.0, ts))
    peaks = np.sort(spectral_peaks(w, mag)[:3, 0])
    expected = np.sort([M_DISPLAY.omega_a,
                        M_DISPLAY.omega_a - 2.0 * M_DISPLAY.Omega,
                        M_DISPLAY.omega_a + 2.0 * M_DISPLAY.Omega])
    sideband_dev = float(np.max(np.abs(peaks - expected) / expected))
    # numeric vs analytic in the uncoupled case
    _, inum = current_numeric(m0, 2.0, ts0, 32)
    iref = current_analytic(m0, 2.0, ts0)
    amp_dev = float(np.max(np.abs(inum - iref)) / np.max(np.abs(iref)))
    ok = tone_dev <= 1e-9 and sideband_dev < 0.01 and amp_dev <= 0.005
    _report(9, "probe current", ok,
            "pure-tone dev %.2g (limit 1e-9); sidebands at %s vs %s; "
            "numeric amp dev %.2g (limit 5e-3)"
            % (tone_dev, np.round(peaks, 3), np.round(expected, 3),
               amp_dev))


def test_10_parameter_derivation(tmp_path):
    cfg = parse_config(DEVICE_SI)
    manifest, report = run_scenario(cfg, out_dir=str(tmp_path))
    omega = manifest["params"]["junction_C"]["omega"]
    gamma = manifest["params"]["junction_C"]["gamma"]
    ok = (abs(omega - 4.47e10) / 4.47e10 < 0.005
          and 0.05 <= gamma <= 0.10
          and "junction_C" in report and "series_C" in report)
    _report(10, "device parameter derivation", ok,
            "omega = %.4g Hz (target 4.47e10 +/- 0.5%%), gamma = %.4g "
            "(accepted 0.05..0.10), both conventions printed" % (omega,
                                                                 gamma))


def test_11_determinism(tmp_path):
    m1, _ = run_scenario(parse_config(FIG2_SMALL + "[run]\nthreads = 1\n"),
                         out_dir=str(tmp_path / "a"))
    m2, _ = run_scenario(parse_config(FIG2_SMALL + "[run]\nthreads = 4\n"),
                         out_dir=str(tmp_path / "b"))
    same = all((tmp_path / "a" / name).read_bytes()
               == (tmp_path / "b" / name).read_bytes()
               for name in m1["files"])
    _report(11, "byte-identical reruns across thread counts",
            same and m1["config_sha256"] == m2["config_sha256"],
            "%d files compared" % len(m1["files"]))
