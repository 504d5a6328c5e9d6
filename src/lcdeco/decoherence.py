"""Branch-overlap decoherence factor D(t), four independent ways.

* closed form ("exact"): D = G(t)·exp(−8g⁴sin²Ωt·|α|²/(Δ²Ω²+8g⁴sin²Ωt))
  with G = ΔΩ/√(Δ²Ω²+8g⁴sin²Ωt),
* simplified form ("approx"): D = exp(−8g⁴sin²Ωt·|α|²/(Δ²Ω²)),
* Fock oracle: evolve |α⟩ under both branch Hamiltonians on the truncated
  space and take |⟨s₁(t)|s₀(t)⟩| directly,
* Gaussian oracle: the analytic overlap of the two squeezed coherent
  states, evaluated in the log domain so |α| = 30 costs the same as
  |α| = 2.

All evaluators accept scalar or array t and return matching shape.
"""

from dataclasses import dataclass

import numpy as np

from .circuit import ModelParams
from .fock import (SpectralPropagator, assert_leakage, coherent_state,
                   joint_state)
from .hamiltonians import (build_effective_hamiltonian,
                           build_full_hamiltonian, evolution_coefficients)


def decoherence_exact(m: ModelParams, alpha, t):
    """Closed-form D(t); revives to exactly 1 at every multiple of π/Ω."""
    t = np.asarray(t, dtype=float)
    s2 = np.sin(m.Omega * t) ** 2
    d2o2 = (m.delta * m.Omega) ** 2
    den = d2o2 + 8.0 * m.g ** 4 * s2
    out = np.sqrt(d2o2 / den) * np.exp(
        -8.0 * m.g ** 4 * s2 * abs(alpha) ** 2 / den)
    return float(out) if out.ndim == 0 else out


def decoherence_approx(m: ModelParams, alpha, t):
    """Simplified D(t): pure Gaussian suppression, no prefactor."""
    t = np.asarray(t, dtype=float)
    s2 = np.sin(m.Omega * t) ** 2
    out = np.exp(-8.0 * m.g ** 4 * s2 * abs(alpha) ** 2
                 / (m.delta * m.Omega) ** 2)
    return float(out) if out.ndim == 0 else out


def decoherence_fock_oracle(m: ModelParams, alpha, t, dim):
    """|⟨s₁(t)|s₀(t)⟩| by direct truncated-space evolution.

    The branch constants ε_k drop out of the modulus.  Leakage-guarded.
    Each H_k is solved as two tridiagonal sectors, so the cost grows only
    quadratically with the needed truncation: |α| = 30 at dim = 1200 takes
    a fraction of a second.
    """
    t = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t)
    psi0 = coherent_state(alpha, dim)
    states = []
    for k in (0, 1):
        prop = SpectralPropagator(build_effective_hamiltonian(k, m, dim))
        grid = prop.evolve_grid(psi0, ts)
        assert_leakage(grid, pruned=prop.pruned_weight(psi0))
        states.append(grid)
    d = np.abs(np.sum(np.conj(states[1]) * states[0], axis=0))
    return float(d[0]) if t.ndim == 0 else d


def decoherence_gaussian_oracle(m: ModelParams, alpha, t):
    """|⟨s₁(t)|s₀(t)⟩| from the analytic two-squeezed-state overlap.

    Each evolved branch state is characterized by the pair
    (M_k, V_k) = (conj(u_k), v_k) of its Heisenberg coefficients
    (hamiltonians.evolution_coefficients), a composed Bogoliubov
    transformation with |M|² − |V|² = 1.  With
    c_k = V_k/M_k and d_k = α/M_k the log-magnitude of the overlap is a
    closed expression; everything is evaluated in the log domain so the
    e^{−|α|²}-scale intermediate factors never underflow.
    """
    t = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t)
    c = []
    d = []
    al = complex(alpha)
    for k in (0, 1):
        u, v = evolution_coefficients(k, m, ts)
        mk = np.conj(u)
        c.append(v / mk)
        d.append(al / mk)
    c0, c1 = c[0], c[1]
    d0, d1 = d[0], d[1]
    cross = 1.0 - np.conj(c1) * c0
    log_mag = (0.25 * np.log1p(-np.abs(c1) ** 2)
               + 0.25 * np.log1p(-np.abs(c0) ** 2)
               - 0.5 * np.log(np.abs(cross))
               + np.real((np.conj(d1) ** 2 * c0 + d0 ** 2 * np.conj(c1)
                          + 2.0 * np.conj(d1) * d0) / (2.0 * cross))
               - (np.real(np.conj(c1) * d1 ** 2) + np.abs(d1) ** 2)
               / (2.0 * (1.0 - np.abs(c1) ** 2))
               - (np.real(np.conj(c0) * d0 ** 2) + np.abs(d0) ** 2)
               / (2.0 * (1.0 - np.abs(c0) ** 2)))
    out = np.exp(log_mag)
    return float(out[0]) if t.ndim == 0 else out


def full_model_coherence(m: ModelParams, c0, c1, alpha, t, dim):
    """Normalized off-diagonal coherence of the qubit under the full H.

    Evolves (c0|0⟩ + c1|1⟩)⊗|α⟩ exactly and returns
    |ρ_01(t)| / |c0·c1|, so 1 means undamped coherence.
    """
    if abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) > 1e-9:
        raise ValueError("qubit weights must satisfy |c0|^2+|c1|^2 = 1")
    if c0 == 0 or c1 == 0:
        raise ValueError("normalized coherence undefined for c0*c1 = 0")
    t = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t)
    psi = joint_state(c0, c1, coherent_state(alpha, dim))
    prop = SpectralPropagator(build_full_hamiltonian(m, dim))
    grid = prop.evolve_grid(psi, ts)
    assert_leakage(grid, osc_dim=dim, pruned=prop.pruned_weight(psi))
    rho01 = np.sum(grid[:dim, :] * np.conj(grid[dim:, :]), axis=0)
    out = np.abs(rho01) / abs(c0 * np.conj(c1))
    return float(out[0]) if t.ndim == 0 else out


@dataclass(frozen=True)
class JumpMetrics:
    period: float   # π/Ω, the revival (jump) period
    t_min: float    # π/(2Ω), deepest suppression
    d_min: float    # closed-form D at t_min


def jump_metrics(m: ModelParams, alpha):
    """Revival period, minimum position, and minimum value of D(t).

    At g = 0 there is no jump: D ≡ 1, so d_min = 1 at the nominal t_min.
    """
    period = np.pi / m.Omega
    t_min = 0.5 * period
    return JumpMetrics(period=period, t_min=t_min,
                       d_min=decoherence_exact(m, alpha, t_min))
