"""Circuit constants → model parameters.

Maps raw superconducting-circuit values (junction/gate capacitances,
inductance, Josephson energy, gate charge, external flux) onto the three
model frequencies (oscillator ω, qubit splitting ω_a, coupling g) plus the
mixing angle θ, and derives the effective-channel constants used
throughout (detuning Δ, squeeze ratios N_k, dressed frequency Ω, ...).

Two capacitance conventions are exposed for the oscillator frequency
because the defining formula (series combination C = C_J·C_g/(C_J+C_g))
and the commonly quoted numeric value (which matches using C_J alone)
disagree for the reference device; both are computed so the discrepancy
stays visible.
"""

import math
from dataclasses import asdict, dataclass

from .constants import E_CHARGE, HBAR, K_B, PHI0
from .errors import RegimeError

CAP_CONVENTIONS = ("junction_C", "series_C")

# largest γ at which the dispersive elimination, and with it the effective
# model and its Schrieffer-Wolff check, is valid
GAMMA_MAX = 0.15


# ---------------------------------------------------------------------------
# model parameters (dimensionless-friendly)

@dataclass(frozen=True)
class ModelParams:
    """The three model frequencies plus every derived channel constant.

    All frequencies are angular (rad/s in SI mode, units of ω in
    dimensionless mode).  Invariants maintained by construction:
    n0·n1 = 1, Omega² = ω² + 4g²ω/Δ = ω̃² − 4λ².
    """
    omega: float
    omega_a: float
    g: float
    theta: float
    delta: float
    gamma: float
    Omega: float
    n0: float
    n1: float
    omega_tilde: float
    lam: float
    eps0: float
    eps1: float

    def as_dict(self):
        return asdict(self)


def model_params(omega, omega_a, g, theta=math.pi / 2):
    """Build ModelParams from (ω, ω_a, g), validating the regime.

    Raises RegimeError on resonance (Δ = 0), degenerate splitting
    (ω_a = 0), or a negative squeeze-ratio radicand
    (ωΔ/(ωΔ + 4g²) ≤ 0, i.e. Δ in the interval (−4g²/ω, 0)).
    """
    omega = float(omega)
    omega_a = float(omega_a)
    g = float(g)
    if omega <= 0:
        raise RegimeError("oscillator frequency must be positive")
    if omega_a == 0:
        raise RegimeError("degenerate qubit splitting omega_a = 0")
    delta = omega_a - omega
    if delta == 0:
        raise RegimeError("resonance omega_a = omega: detuning-based "
                          "elimination undefined")
    ratio = omega * delta / (omega * delta + 4.0 * g * g)
    if ratio <= 0:
        raise RegimeError(
            "squeeze-ratio radicand omega*delta/(omega*delta+4g^2) = %.4g "
            "is not positive; detuning too small for coupling g=%.4g"
            % (ratio, g))
    n0 = math.sqrt(ratio)
    lam = g * g / delta
    omega_tilde = omega + 2.0 * lam
    big_omega = math.sqrt(omega * omega + 4.0 * g * g * omega / delta)
    return ModelParams(
        omega=omega, omega_a=omega_a, g=g, theta=float(theta),
        delta=delta, gamma=g / abs(delta), Omega=big_omega,
        n0=n0, n1=1.0 / n0, omega_tilde=omega_tilde, lam=lam,
        eps0=lam - 0.5 * omega_a, eps1=lam + 0.5 * omega_a)


def params_from_dimensionless(omega_a_ratio, g_ratio, theta=math.pi / 2):
    """ModelParams with ω = 1 (frequencies in units of ω, times in 1/ω)."""
    return model_params(1.0, omega_a_ratio, g_ratio, theta)


# ---------------------------------------------------------------------------
# circuit records

@dataclass(frozen=True)
class CircuitParams:
    """Raw circuit constants, SI units; e_j0 is the single-junction
    Josephson energy in joules (see from_kelvin)."""
    c_j: float        # junction capacitance [F]
    c_g: float        # gate capacitance [F]
    l: float          # inductance [H]
    e_j0: float       # single-junction Josephson energy [J]
    n_g: float = 0.5  # gate charge [dimensionless]
    phi_x: float = 0.0  # external flux [Wb]

    def __post_init__(self):
        if self.c_j <= 0 or self.c_g <= 0 or self.l <= 0:
            raise ValueError("capacitances and inductance must be positive")
        if self.e_j0 < 0:
            raise ValueError("Josephson energy must be nonnegative")


def circuit_from_kelvin(c_j, c_g, l, e_j0_kelvin, n_g=0.5, phi_x=0.0):
    """CircuitParams with the Josephson energy given in kelvin."""
    return CircuitParams(c_j, c_g, l, e_j0=K_B * e_j0_kelvin,
                         n_g=n_g, phi_x=phi_x)


def gate_charge_from_voltage(c_g, v_g):
    """n_g = C_g·V_g/2e."""
    return c_g * v_g / (2.0 * E_CHARGE)


def series_capacitance(c: CircuitParams):
    """C = C_J·C_g/(C_J + C_g)."""
    return c.c_j * c.c_g / (c.c_j + c.c_g)


def charging_energy(c: CircuitParams):
    """E_C = e²/2(C_J + C_g)."""
    return E_CHARGE ** 2 / (2.0 * (c.c_j + c.c_g))


def josephson_energy(c: CircuitParams):
    """Flux-tuned two-junction energy E_J(φ_x) = 2·E_J⁰·cos(πφ_x/φ_0).

    Signed: working points beyond half a flux quantum flip the sign,
    which only ever enters through the mixing angle.
    """
    return 2.0 * c.e_j0 * math.cos(math.pi * c.phi_x / PHI0)


def flux_zero_point(c: CircuitParams):
    """Oscillator zero-point flux scale (ħ²L/4C)^{1/4}, series C."""
    cs = series_capacitance(c)
    return (HBAR ** 2 * c.l / (4.0 * cs)) ** 0.25


def effective_capacitance(c: CircuitParams, convention):
    if convention == "junction_C":
        return c.c_j
    if convention == "series_C":
        return series_capacitance(c)
    raise ValueError("capacitance convention must be one of %s, got %r"
                     % (CAP_CONVENTIONS, convention))


def oscillator_frequency(c: CircuitParams, convention):
    """ω = 1/√(C_eff·L) under the chosen capacitance convention."""
    return 1.0 / math.sqrt(effective_capacitance(c, convention) * c.l)


def qubit_splitting(c: CircuitParams):
    """ω_a = (1/ħ)·√(16·E_C²·(1−2n_g)² + E_J²)."""
    ec = charging_energy(c)
    ej = josephson_energy(c)
    return math.sqrt(16.0 * ec * ec * (1.0 - 2.0 * c.n_g) ** 2 + ej * ej) / HBAR


def mixing_angle(c: CircuitParams):
    """θ = atan2(E_J, 4·E_C·(1−2n_g)) ∈ (−π, π]."""
    return math.atan2(josephson_energy(c),
                      4.0 * charging_energy(c) * (1.0 - 2.0 * c.n_g))


def coupling_rate(c: CircuitParams):
    """g = (π·E_J/φ_0·ħ)·(C/C_J)·(ħ²L/4C)^{1/4} with C the series
    capacitance.  Returned as a magnitude (the sign of E_J lives in θ)."""
    cs = series_capacitance(c)
    return abs(math.pi * josephson_energy(c) / (PHI0 * HBAR)
               * (cs / c.c_j) * flux_zero_point(c))


def derive_params(c: CircuitParams, convention="junction_C"):
    """Full circuit → ModelParams map under one capacitance convention."""
    ej = josephson_energy(c)
    if ej == 0.0 and c.n_g == 0.5:
        raise RegimeError("E_J and (1−2n_g) both zero: qubit splitting "
                          "degenerate")
    return model_params(
        oscillator_frequency(c, convention),
        qubit_splitting(c),
        coupling_rate(c),
        mixing_angle(c))


# ---------------------------------------------------------------------------
# regime report

@dataclass(frozen=True)
class RegimeReport:
    gamma: float
    gamma_pass: bool          # γ ≤ GAMMA_MAX
    gamma_warn: bool          # 0.1 < γ ≤ GAMMA_MAX
    coupling_param: float     # (C/C_J)·√⟨φ²⟩·(2π/φ_0); nan when unknown
    coupling_pass: bool
    notes: tuple


def validate_regime(m: ModelParams, phi_rms_estimate=None, cap_ratio=None):
    """Report-only regime validation.

    γ must stay ≤ GAMMA_MAX = 0.15 (warn above 0.1).  When a flux RMS
    estimate and the capacitance ratio C/C_J are supplied (SI path), the
    linear-coupling expansion parameter (C/C_J)·√⟨φ²⟩·(2π/φ_0) is checked
    against 0.1.
    """
    notes = []
    gamma_pass = m.gamma <= GAMMA_MAX
    gamma_warn = 0.1 < m.gamma <= GAMMA_MAX
    if not gamma_pass:
        notes.append("gamma=%.4g exceeds %g: dispersive elimination "
                     "unreliable" % (m.gamma, GAMMA_MAX))
    elif gamma_warn:
        notes.append("gamma=%.4g above 0.1: effective-model accuracy "
                     "degrades" % m.gamma)
    if phi_rms_estimate is not None and cap_ratio is not None:
        coupling_param = cap_ratio * phi_rms_estimate * 2.0 * math.pi / PHI0
        coupling_pass = coupling_param < 0.1
        if not coupling_pass:
            notes.append("flux expansion parameter %.4g not << 1: linear "
                         "coupling model questionable" % coupling_param)
    else:
        coupling_param = float("nan")
        coupling_pass = True
    return RegimeReport(
        gamma=m.gamma, gamma_pass=gamma_pass, gamma_warn=gamma_warn,
        coupling_param=coupling_param, coupling_pass=coupling_pass,
        notes=tuple(notes))


def coherent_flux_rms(c: CircuitParams, alpha):
    """√⟨φ²⟩ estimate for a coherent oscillator state of amplitude α."""
    return flux_zero_point(c) * math.sqrt(2.0 * abs(alpha) ** 2 + 1.0)
