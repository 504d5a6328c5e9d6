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

All evaluators accept scalar or array t and return matching shape.
Both Fock routes share evolve_joint; observables.current_numeric's P_c
comes from evolve_charge, its line spectrum, on a uniform grid.  Both
entries are guarded by the one leakage guard.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuit import ModelParams
from .fock import (PRUNE_TOL, Sector, SectorHamiltonian, SpectralPropagator,
                   _edge_levels, _leak_guard, _line_sums, assert_leakage,
                   coherent_state, joint_state)
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


def evolve_joint(H, psi, ts, reduce, n_lo=0):
    """reduce(block) of psi evolved under the joint-space H on the levels
    from n_lo up to every t in ts, chunk by chunk
    (SpectralPropagator.evolve_grid), each block leakage-guarded, at the
    top and, with n_lo > 0, the bottom levels, with the pruned weight
    before reduce sees it."""
    def guarded(block, pruned):
        assert_leakage(block, pruned=pruned, n_lo=n_lo)
        return reduce(block)

    return SpectralPropagator(H).evolve_grid(psi, ts, guarded)[0]


def evolve_charge(H, psi, ts, theta, n_lo=0):
    """P_c(t) = Σ_n |sin(θ/2)·ψ_{0,n} + cos(θ/2)·ψ_{1,n}|² of psi evolved
    under the full H (hamiltonians.build_full_hamiltonian) on the levels
    from n_lo up, at the uniform grid t0 + i·dt, i < len(ts), with t0 and
    dt ts's first time and mean step; leakage-guarded at the top and,
    with n_lo > 0, the bottom levels.

    Nothing is evolved state by state: P_c and both edge populations are
    quadratic forms of psi's eigencomponents, and each is evaluated from
    its line spectrum (SpectralPropagator.lines) by one Taylor-expanded
    FFT pass (fock._line_sums), P_c and the edges in the same pass.
    Each of H's sectors must hold one row of each level, in level order,
    as the full H's parity sectors do, so that their rows pair up level
    by level; any other H raises ValueError.  The guard gets, per
    edge, the sampled maximum plus the summed |C| of the lines left out
    and the expansion's error bound: at every sample at least the edge
    population of the band-cut state, so the guard is an upper bound of
    the unpruned state's population there, as evolve_joint's is.
    """
    levels = H.size // 2
    for s in H.sectors:
        if not np.array_equal(s.index % levels, np.arange(levels)):
            raise ValueError("evolve_charge needs sectors of one row per "
                             "level, in level order")
    half = 0.5 * theta
    charge = [np.where(s.index < levels, math.sin(half), math.cos(half))
              for s in H.sectors]
    edges = []
    for _, lo, hi in _edge_levels(levels, n_lo):
        rows = np.zeros(levels)
        rows[lo:hi] = 1.0
        edges.append(([rows] * len(H.sectors), False))
    ts = np.asarray(ts, dtype=float).ravel()
    if not np.all(np.isfinite(ts)):
        raise ValueError("evolution times must be finite")
    lines, pruned = SpectralPropagator(H).lines(psi, [(charge, True)]
                                                + edges)
    n = len(ts)
    dt = (ts[-1] - ts[0]) / (n - 1) if n > 1 else 0.0
    budget = math.sqrt(PRUNE_TOL) * float(np.vdot(psi, psi).real)
    values, tail = _line_sums([(C, d) for C, d, _ in lines],
                              ts[0] if n else 0.0, dt, n, budget)
    values = values.real
    _leak_guard([np.max(v, initial=0.0) + dropped + tail * np.sum(np.abs(C))
                 for v, (C, _, dropped) in zip(values[1:], lines[1:])],
                pruned, n_lo, levels)
    return values[0]


def _coherence(H, psi, t, weight, n_lo):
    """|ρ_01(t)| / weight of psi evolved under H on the levels from n_lo
    up, in t's shape; float for scalar t."""
    t = np.asarray(t, dtype=float)
    levels = H.size // 2
    rho01 = evolve_joint(H, psi, t.ravel(), lambda block: np.sum(
        block[:levels] * np.conj(block[levels:]), axis=0), n_lo)
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
    own, never less than either.
    """
    n_lo = lowest_level(m, alpha)
    psi0 = coherent_state(alpha, dim, n_lo)
    h0, h1 = (build_effective_hamiltonian(k, m, dim, n_lo) for k in (0, 1))
    h = SectorHamiltonian(2 * h0.size, h0.sectors + tuple(
        Sector(s.index + h0.size, s.diag, s.offdiag) for s in h1.sectors))
    return _coherence(h, np.concatenate([psi0, psi0]), t, 1.0, n_lo)


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
    undamped coherence.
    """
    if abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) > 1e-9:
        raise ValueError("qubit weights must satisfy |c0|^2+|c1|^2 = 1")
    if c0 == 0 or c1 == 0:
        raise ValueError("normalized coherence undefined for c0*c1 = 0")
    n_lo = lowest_level(m, alpha)
    psi = joint_state(c0, c1, coherent_state(alpha, dim, n_lo))
    return _coherence(build_full_hamiltonian(m, dim, n_lo), psi, t,
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
