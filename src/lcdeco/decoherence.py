"""Branch-overlap decoherence factor D(t): three independent routes plus
the simplified form.

* closed form ("exact"): D = G(t)·exp(−8g⁴sin²Ωt·|α|²/(Δ²Ω²+8g⁴sin²Ωt))
  with G = ΔΩ/√(Δ²Ω²+8g⁴sin²Ωt),
* simplified form ("approx"): D = exp(−8g⁴sin²Ωt·|α|²/(Δ²Ω²)), the
  closed form without its prefactor and denominator shift, so not an
  independent route,
* Fock oracle: the effective model's joint coherence, |⟨s₁(t)|s₀(t)⟩|
  from |α⟩ evolved under both branch Hamiltonians on the truncated space,
* Gaussian oracle: the analytic overlap of the two squeezed coherent
  states, evaluated in the log domain so |α| = 30 costs the same as
  |α| = 2.

All evaluators accept scalar or array t and return matching shape.
Both Fock routes and observables.current_numeric share evolve_joint.
"""

from dataclasses import dataclass

import numpy as np

from .circuit import ModelParams
from .fock import (Sector, SectorHamiltonian, SpectralPropagator,
                   assert_leakage, coherent_state, joint_state)
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


def evolve_joint(H, psi, ts, reduce):
    """reduce(block) of psi evolved under the joint-space H to every t in
    ts, chunk by chunk (SpectralPropagator.evolve_grid), each block
    leakage-guarded with the pruned weight before reduce sees it."""
    def guarded(block, pruned):
        assert_leakage(block, pruned=pruned)
        return reduce(block)

    return SpectralPropagator(H).evolve_grid(psi, ts, guarded)[0]


def _coherence(H, psi, t, weight):
    """|ρ_01(t)| / weight of psi evolved under H; float for scalar t."""
    t = np.asarray(t, dtype=float)
    dim = H.size // 2
    rho01 = evolve_joint(H, psi, np.atleast_1d(t), lambda block: np.sum(
        block[:dim] * np.conj(block[dim:]), axis=0))
    out = np.abs(rho01) / weight
    return float(out[0]) if t.ndim == 0 else out


def decoherence_fock_oracle(m: ModelParams, alpha, t, dim):
    """|⟨s₁(t)|s₀(t)⟩| by direct truncated-space evolution.

    The joint coherence of the effective model: the unnormalized state
    |α⟩ ⊕ |α⟩ evolved under the direct sum H₀ ⊕ H₁ has ρ_01 = ⟨s₁|s₀⟩.
    The branch constants ε_k drop out of the modulus.  Each H_k is two
    tridiagonal sectors, so |α| = 30 at dim = 1200 takes a fraction of a
    second.  Unnormalized, the guarded top-level population is the sum of
    both branches' own, never less than either.
    """
    psi0 = coherent_state(alpha, dim)
    h0, h1 = (build_effective_hamiltonian(k, m, dim) for k in (0, 1))
    h = SectorHamiltonian(2 * dim, h0.sectors + tuple(
        Sector(s.index + dim, s.diag, s.offdiag) for s in h1.sectors))
    return _coherence(h, np.concatenate([psi0, psi0]), t, 1.0)


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
    psi = joint_state(c0, c1, coherent_state(alpha, dim))
    return _coherence(build_full_hamiltonian(m, dim), psi, t,
                      abs(c0 * np.conj(c1)))


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
