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
  states, |⟨α|U₁†U₀|α⟩| from the one relative Bogoliubov pair of the
  branches, evaluated in the log domain so |α| = 30 costs the same as
  |α| = 2.

Every evaluator takes a scalar or array t and returns its shape.  The
closed forms and the Gaussian oracle take any t; the Fock oracle and
full_model_coherence, on the line route, a scalar or a grid uniform to
rounding, and refuse any other (ValueError).
Every truncated-space evolution in the package goes through evolve_form:
the Fock oracle's and the full model's coherence ρ_01, and
observables.current_numeric's P_c, are each a quadratic form of the
evolved state, summed from its line spectrum
(fock.SpectralPropagator.evolve_grid), and guarded by the one leakage
guard, fock.assert_leakage, which reads a bound that holds at every t
from the state's eigencomponents, once per call.
"""

from dataclasses import dataclass

import numpy as np

from .circuit import ModelParams
from .fock import (Sector, SectorHamiltonian, SpectralPropagator,
                   assert_leakage, coherent_state, joint_state)
from .hamiltonians import (build_effective_hamiltonian,
                           build_full_hamiltonian, evolution_coefficients,
                           lowest_level)


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


def evolve_form(H, psi, ts, form, n_lo=0):
    """The value of `form` on psi evolved under the joint-space H on the
    levels from n_lo up, at every t in ts (flattened, uniform to
    rounding), as a complex array: Σ ψ_iᴴ·diag(w)·ψ_j(t) over the form's
    sector pairs (i, j, w) of H (SpectralPropagator.evolve_grid),
    leakage-guarded (assert_leakage) at the top and, with n_lo > 0, the
    bottom levels, at every t, from psi's eigencomponents before any line
    is built."""
    return SpectralPropagator(H).evolve_grid(
        psi, ts, form,
        lambda sectors, pruned: assert_leakage(sectors, pruned, n_lo))


def level_masks(H):
    """One array per sector of the joint-space H, 1.0 on its qubit-0 rows
    and 0.0 on its qubit-1 rows.  Each sector must hold one row of each
    level, in level order, as the full H's parity sectors do, so that
    their rows pair up level by level in a form; any other H raises
    ValueError."""
    levels = H.size // 2
    masks = []
    for s in H.sectors:
        if not np.array_equal(s.index % levels, np.arange(levels)):
            raise ValueError("a form over the full H needs sectors of one "
                             "row per level, in level order")
        masks.append((s.index < levels).astype(float))
    return masks


def _coherence(H, psi, t, form, weight, n_lo):
    """|ρ_01(t)| / weight of psi evolved under H on the levels from n_lo
    up, ρ_01 the value of `form`, in t's shape; float for scalar t."""
    t = np.asarray(t, dtype=float)
    rho01 = evolve_form(H, psi, t.ravel(), form, n_lo)
    out = (np.abs(rho01) / weight).reshape(t.shape)
    return float(out) if t.ndim == 0 else out


def decoherence_fock_oracle(m: ModelParams, alpha, t, dim):
    """|⟨s₁(t)|s₀(t)⟩| by direct truncated-space evolution.

    The joint coherence of the effective model: the unnormalized state
    |α⟩ ⊕ |α⟩ evolved under the direct sum H₀ ⊕ H₁ has ρ_01 = ⟨s₁|s₀⟩.
    The branch constants ε_k drop out of the modulus.  Each H_k is two
    tridiagonal sectors on the levels from lowest_level(m, α) up, so
    |α| = 30 at dim = 1200 takes a fraction of a second.  Unnormalized,
    the guarded population at either edge is the sum of both branches'
    own, never less than either.  ρ_01 = Σ_n ψ_{0,n}·ψ̄_{1,n} pairs each
    parity sector of H₁ with the same one of H₀, row by row, with unit
    weights.
    """
    n_lo = lowest_level(m, alpha)
    psi0 = coherent_state(alpha, dim, n_lo)
    h0, h1 = (build_effective_hamiltonian(k, m, dim, n_lo) for k in (0, 1))
    h = SectorHamiltonian(2 * h0.size, h0.sectors + tuple(
        Sector(s.index + h0.size, s.diag, s.offdiag) for s in h1.sectors))
    parities = len(h0.sectors)
    form = [(parities + p, p, np.ones(len(s.index)))
            for p, s in enumerate(h0.sectors)]
    return _coherence(h, np.concatenate([psi0, psi0]), t, form, 1.0, n_lo)


def decoherence_gaussian_oracle(m: ModelParams, alpha, t):
    """|⟨s₁(t)|s₀(t)⟩| = |⟨α|W|α⟩| in closed form, W = U₁†U₀ (Yuen,
    PRA 13, 2226 (1976)).

    U_k = e^{−iH_k t} maps a to U_k†aU_k = u_k a + v_k a†
    (hamiltonians.evolution_coefficients); inverting the first,
    U₁aU₁† = ū₁a − v₁a†, so W is the Gaussian unitary with

        W†aW = p a + q a†,  p = ū₁u₀ − v₁v̄₀,  q = ū₁v₀ − v₁ū₀,

    and |p|² − |q|² = 1.  The constants ε_k only add a phase.  Then
    W D(α) = D(β) W with β = pα + qᾱ, so up to a phase
    ⟨α|W|α⟩ = ⟨γ|W|0⟩ with γ = α − β = α(1 − p) − ᾱq.  W|0⟩ is
    annihilated by WaW† = p̄a − qa†, so W|0⟩ = N exp(½(q/p̄)a†²)|0⟩ with
    |N|² = 1/|p|, and ⟨γ| = ⟨0|e^{γ̄a}e^{−|γ|²/2} gives

        ln D = −½ ln|p| − ½|γ|² + ½ Re(q γ̄²/p̄).

    −½ ln|p| is taken as −¼ log1p(|q|²), exact for small q, so g = 0
    (q = 0) gives D = 1.  All in the log domain: the e^{−|α|²}-scale
    factors never underflow.
    """
    t = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t)
    u0, v0 = evolution_coefficients(0, m, ts)
    u1, v1 = evolution_coefficients(1, m, ts)
    p = np.conj(u1) * u0 - v1 * np.conj(v0)
    q = np.conj(u1) * v0 - v1 * np.conj(u0)
    al = complex(alpha)
    gam = al * (1.0 - p) - np.conj(al) * q
    log_mag = (-0.25 * np.log1p(np.abs(q) ** 2) - 0.5 * np.abs(gam) ** 2
               + 0.5 * np.real(q * np.conj(gam) ** 2 / np.conj(p)))
    out = np.exp(log_mag)
    return float(out[0]) if t.ndim == 0 else out


def full_model_coherence(m: ModelParams, c0, c1, alpha, t, dim):
    """Normalized off-diagonal coherence of the qubit under the full H.

    Evolves (c0|0⟩ + c1|1⟩)⊗|α⟩ exactly, on the levels from
    lowest_level(m, α) up, and returns |ρ_01(t)| / |c0·c1|, so 1 means
    undamped coherence.  Level n's qubit-0 and qubit-1 rows lie in the
    full H's two different parity sectors A and B, at one position, so
    ρ_01 = Σ_n ψ_{0,n}·ψ̄_{1,n} is the form (B, A, m_A) + (A, B, m_B),
    m_S the mask of sector S's qubit-0 rows (level_masks).
    """
    if abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) > 1e-9:
        raise ValueError("qubit weights must satisfy |c0|^2+|c1|^2 = 1")
    if c0 == 0 or c1 == 0:
        raise ValueError("normalized coherence undefined for c0*c1 = 0")
    n_lo = lowest_level(m, alpha)
    psi = joint_state(c0, c1, coherent_state(alpha, dim, n_lo))
    H = build_full_hamiltonian(m, dim, n_lo)
    mask_a, mask_b = level_masks(H)
    return _coherence(H, psi, t, [(1, 0, mask_a), (0, 1, mask_b)],
                      abs(c0 * np.conj(c1)), n_lo)


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
