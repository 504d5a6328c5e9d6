"""Circuit-constant mapping, model-parameter invariants, regime checks."""

import math

import numpy as np
import pytest

from lcdeco.circuit import (CircuitParams, charging_energy,
                            circuit_from_kelvin, coherent_flux_rms,
                            coupling_rate, derive_params, flux_zero_point,
                            gate_charge_from_voltage, josephson_energy,
                            mixing_angle, model_params, oscillator_frequency,
                            params_from_dimensionless, qubit_splitting,
                            series_capacitance, validate_regime)
from lcdeco.constants import HBAR, K_B, PHI0
from lcdeco.errors import RegimeError

# reference device (capacitances in F, inductance in H, energy in K)
DEVICE = dict(c_j=1.0e-16, c_g=1.0e-16, l=5.0e-6, e_j0_kelvin=0.05,
              n_g=0.48344, phi_x=9.9224e-16)


def _device():
    return circuit_from_kelvin(**DEVICE)


def test_oscillator_frequency_junction_convention():
    w = oscillator_frequency(_device(), "junction_C")
    assert abs(w - 4.47e10) / 4.47e10 < 0.005
    # exact value frozen so regressions are visible at full precision
    assert abs(w - 44721359549.995789) < 1.0


def test_oscillator_frequency_series_convention():
    # series C = C_J/2 here, so the frequency is sqrt(2) higher
    c = _device()
    ws = oscillator_frequency(c, "series_C")
    wj = oscillator_frequency(c, "junction_C")
    assert abs(ws - wj * math.sqrt(2.0)) < 1e-4 * ws
    assert abs(series_capacitance(c) - 0.5e-16) < 1e-32


def test_flux_half_quantum_kills_josephson_energy():
    c = circuit_from_kelvin(1e-16, 1e-16, 5e-6, 0.05, phi_x=PHI0 / 2.0)
    assert abs(josephson_energy(c)) < 1e-40


def test_degeneracy_point():
    # n_g = 1/2: theta = pi/2 and omega_a = E_J/hbar
    c = circuit_from_kelvin(1e-16, 1e-16, 5e-6, 0.05, n_g=0.5)
    assert abs(mixing_angle(c) - math.pi / 2.0) < 1e-12
    assert abs(qubit_splitting(c) - josephson_energy(c) / HBAR) \
        <= 1e-12 * qubit_splitting(c)


def test_kelvin_conversion():
    c = _device()
    assert abs(c.e_j0 - K_B * 0.05) < 1e-40


def test_gate_charge_from_voltage():
    from lcdeco.constants import E_CHARGE
    v_g = 2.0 * E_CHARGE * 0.48344 / 1.0e-16
    assert abs(gate_charge_from_voltage(1.0e-16, v_g) - 0.48344) < 1e-12


def test_reference_device_regime():
    """The reference working point sits in the dispersive window:
    gamma near 0.07, passing the 0.15 threshold."""
    m = derive_params(_device(), "junction_C")
    assert abs(m.gamma - 0.07) < 0.01
    report = validate_regime(m)
    assert report.gamma_pass and not report.gamma_warn


def test_derived_params_frozen_values():
    m = derive_params(_device(), "junction_C")
    assert abs(m.omega - 44721359549.995789) < 1.0
    assert abs(m.omega_a - 80622800919.837189) < 1.0
    assert abs(m.g - 2569650736.63) < 1e4
    assert abs(m.theta - 0.010275348) < 1e-7


def test_model_params_invariants():
    rng = np.random.default_rng(3)
    for _ in range(200):
        omega_a = rng.uniform(1.2, 5.0)
        g = rng.uniform(0.0, 0.2)
        m = params_from_dimensionless(omega_a, g)
        assert abs(m.n0 * m.n1 - 1.0) < 1e-12
        assert abs(m.Omega ** 2 - (m.omega ** 2 + 4 * g * g * m.omega
                                   / m.delta)) <= 1e-12 * m.Omega ** 2
        assert abs(m.Omega ** 2 - (m.omega_tilde ** 2 - 4 * m.lam ** 2)) \
            <= 1e-12 * m.Omega ** 2
        assert m.gamma >= 0.0
        assert m.delta != 0.0


def test_dimensionless_examples():
    m = params_from_dimensionless(1.8, 0.05)
    assert abs(m.delta - 0.8) < 1e-15
    assert abs(m.gamma - 0.0625) < 1e-15
    assert abs(m.Omega - math.sqrt(1.0125)) < 1e-15
    assert abs(m.n0 - math.sqrt(0.8 / 0.81)) < 1e-15


def test_dimensionless_zero_coupling():
    m = params_from_dimensionless(2.0, 0.0)
    assert m.Omega == 1.0
    assert m.n0 == 1.0 and m.n1 == 1.0
    assert m.lam == 0.0


def test_epsilon_branch_constants():
    m = params_from_dimensionless(1.8, 0.05)
    lam = 0.05 ** 2 / 0.8
    assert abs(m.eps0 - (lam - 0.9)) < 1e-15
    assert abs(m.eps1 - (lam + 0.9)) < 1e-15


def test_resonance_rejected():
    with pytest.raises(RegimeError):
        params_from_dimensionless(1.0, 0.05)


def test_degenerate_splitting_rejected():
    with pytest.raises(RegimeError):
        model_params(1.0, 0.0, 0.05)


def test_negative_radicand_rejected():
    # omega*delta + 4g^2 > 0 but omega*delta < 0: ratio negative
    with pytest.raises(RegimeError):
        model_params(1.0, 0.99, 0.2)


def test_mixing_angle_identity():
    """sin(theta) = E_J / sqrt(16 E_C^2 (1-2n_g)^2 + E_J^2) whenever
    E_J > 0 (atan2 keeps theta in (0, pi) there)."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        c = CircuitParams(c_j=rng.uniform(0.5, 2) * 1e-16,
                          c_g=rng.uniform(0.5, 2) * 1e-16,
                          l=rng.uniform(1, 10) * 1e-6,
                          e_j0=rng.uniform(0.01, 0.1) * K_B,
                          n_g=rng.uniform(0.3, 0.7),
                          phi_x=rng.uniform(0.0, 0.4) * PHI0)
        th = mixing_angle(c)
        assert 0.0 < th < math.pi
        ej = josephson_energy(c)
        ec = charging_energy(c)
        s = ej / math.sqrt(16 * ec * ec * (1 - 2 * c.n_g) ** 2 + ej * ej)
        assert abs(math.sin(th) - s) < 1e-12


def test_scale_consistency():
    """Scaling C, L by s and E_J0 by 1/s rescales every frequency by 1/s
    and leaves the dimensionless shape (theta, gamma) untouched."""
    s = 7.3
    base = _device()
    scaled = CircuitParams(c_j=base.c_j * s, c_g=base.c_g * s,
                           l=base.l * s, e_j0=base.e_j0 / s,
                           n_g=base.n_g, phi_x=base.phi_x)
    m1 = derive_params(base, "junction_C")
    m2 = derive_params(scaled, "junction_C")
    for attr in ("omega", "omega_a", "g", "Omega"):
        v1 = getattr(m1, attr)
        v2 = getattr(m2, attr)
        assert abs(v2 - v1 / s) <= 1e-12 * abs(v1 / s)
    assert abs(m1.theta - m2.theta) < 1e-12
    assert abs(m1.gamma - m2.gamma) <= 1e-12 * m1.gamma
    # zero-point flux (L/C)^(1/4) is scale-free under this map
    assert abs(flux_zero_point(base) - flux_zero_point(scaled)) \
        <= 1e-12 * flux_zero_point(base)


def test_validate_regime_flags():
    m = params_from_dimensionless(1.8, 0.1)    # gamma = 0.125: warn zone
    report = validate_regime(m)
    assert report.gamma_pass and report.gamma_warn
    bad = validate_regime(params_from_dimensionless(1.3, 0.06))
    assert abs(bad.gamma - 0.2) < 1e-12 and not bad.gamma_pass


def test_validate_regime_zero_coupling():
    report = validate_regime(params_from_dimensionless(1.8, 0.0))
    assert report.gamma == 0.0 and report.gamma_pass


def test_flux_expansion_parameter():
    """For the reference device at alpha=2 the linearized-coupling
    expansion parameter is far above 0.1 and must be flagged."""
    c = _device()
    m = derive_params(c, "junction_C")
    report = validate_regime(m,
                             phi_rms_estimate=coherent_flux_rms(c, 2.0),
                             cap_ratio=series_capacitance(c) / c.c_j)
    assert not report.coupling_pass
    assert report.coupling_param > 1.0
    assert any("flux expansion" in note for note in report.notes)


def test_coupling_rate_magnitude():
    # g is reported as a magnitude even past half a flux quantum
    c = circuit_from_kelvin(1e-16, 1e-16, 5e-6, 0.05, phi_x=0.6 * PHI0)
    assert josephson_energy(c) < 0.0
    assert coupling_rate(c) > 0.0
