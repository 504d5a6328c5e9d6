"""Model Hamiltonians and squeeze algebra.

The full two-branch model on the joint space,

    H = ω a†a − (ω_a/2) σ_z + g σ_y · i(a − a†),

its qubit-conditioned effective oscillator Hamiltonians,

    H_k = ω̃ a†a + (−1)^k λ (a² + a†²) + ε_k ,

the paper's squeeze pair (μ_k, ν_k), and the Heisenberg coefficients
(u_k, v_k) of the conditioned evolution, solved from H_k directly.

Both Hamiltonians are built as their two parity sectors
(fock.SectorHamiltonian).  The full H commutes with the Rabi-model parity
Π = σ_z ⊗ (−1)^{a†a} and, with this σ_y convention, has only real
elements; ordered by n, each sector {|n mod 2, n⟩} and {|1 − n mod 2, n⟩}
is a real symmetric tridiagonal chain.  H_k couples n ↔ n ± 2, so its even
and odd levels are the two chains.  Both builders can start at a lowest
level n_lo, the one lowest_level picks for an evolution of |α⟩, and then
hold only the levels [n_lo, dim).

A numerical effective-block extraction (direct-rotation block
diagonalization of the full H, one parity sector at a time from that
sector's eigendecomposition) is provided to quantify how well the
dispersive effective model approximates the full one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuit import GAMMA_MAX, ModelParams
from .errors import RegimeError, TruncationError
from .fock import (Sector, SectorHamiltonian, _check_dim, _poisson_reach,
                   hermitian_eig)


def branch_sign(k):
    if k not in (0, 1):
        raise ValueError("branch index must be 0 or 1, got %r" % (k,))
    return 1.0 if k == 0 else -1.0


def build_full_hamiltonian(m: ModelParams, dim, n_lo=0):
    """Joint-space H on the oscillator levels [n_lo, dim) (qubit-slow
    ordering, |q, n⟩ at index q·(dim − n_lo) + n − n_lo) as its two
    parity sectors.

    Elements: ⟨q,n|H|q,n⟩ = ωn ∓ ω_a/2 (− for q = 0), and the coupling
    ⟨0,n|H|1,n+1⟩ = −g√(n+1), ⟨1,n|H|0,n+1⟩ = +g√(n+1).
    """
    dim = _check_dim(dim, n_lo)
    levels = dim - n_lo
    n = np.arange(n_lo, dim)
    root = np.sqrt(np.arange(n_lo + 1.0, dim))     # ⟨n|a|n+1⟩ = √(n+1)
    sectors = []
    for first in (0, 1):            # qubit state of the even levels
        q = (n + first) % 2
        diag = m.omega * n - 0.5 * m.omega_a * (1.0 - 2.0 * q)
        # the link n → n+1 leaves qubit q[n]: −g√(n+1) from 0, +g√(n+1)
        # from 1
        offdiag = (2.0 * q[:-1] - 1.0) * (m.g * root)
        sectors.append(Sector(q * levels + n - n_lo, diag, offdiag))
    return SectorHamiltonian(2 * levels, sectors)


def build_effective_hamiltonian(k, m: ModelParams, dim, n_lo=0):
    """Oscillator-space H_k for qubit branch k on the levels [n_lo, dim)
    (level n at index n − n_lo), as its two sectors of one level
    parity each, n_lo's first."""
    dim = _check_dim(dim, n_lo)
    eps = m.eps0 if k == 0 else m.eps1
    squeeze = branch_sign(k) * m.lam
    sectors = []
    for first in (n_lo, n_lo + 1):
        n = np.arange(first, dim, 2)
        # ⟨n|a²|n+2⟩ = √(n+1)·√(n+2)
        root = np.sqrt(n[:-1] + 1.0) * np.sqrt(n[:-1] + 2.0)
        sectors.append(Sector(n - n_lo, m.omega_tilde * n + eps,
                              squeeze * root))
    return SectorHamiltonian(dim - n_lo, sectors)


# ---------------------------------------------------------------------------
# Bogoliubov / squeeze coefficients

def squeeze_coefficients(k, m: ModelParams, t):
    """μ_k(t) = ½(√N_k + 1/√N_k)e^{+iΩt}, ν_k(t) = ½(√N_k − 1/√N_k)e^{−iΩt}
    with N_0 = 1/N_1 = √(ωΔ/(ωΔ + 4g²)).

    Returns (mu, nu): complex numbers for scalar t, arrays for array t.
    """
    rt = math.sqrt(m.n0 if k == 0 else m.n1)
    mu_mag = 0.5 * (rt + 1.0 / rt)
    nu_mag = 0.5 * (rt - 1.0 / rt)
    tt = np.asarray(t, dtype=float)
    mu = mu_mag * np.exp(1j * m.Omega * tt)
    nu = nu_mag * np.exp(-1j * m.Omega * tt)
    if np.ndim(t) == 0:
        return complex(mu), complex(nu)
    return mu, nu


def evolution_coefficients(k, m: ModelParams, t):
    """Heisenberg coefficients (u, v) with a(t) = u·a(0) + v·a†(0)
    under H_k, solved from da/dt = −i(ω̃a + 2(−1)^k λ a†):

        u = cos Ωt − i(ω̃/Ω) sin Ωt,   v = −i(−1)^k (2λ/Ω) sin Ωt,

    with Ω² = ω̃² − 4λ².  u(0) = 1, v(0) = 0, and |u|² − |v|² = 1 for
    all t.  The paper's squeeze pair composes to the same (u, v):
    u = conj(μ_tμ_0 − ν_tν_0), v = μ_tν_0 − μ_0ν_t.
    Accepts scalar or array t.
    """
    phase = m.Omega * np.asarray(t, dtype=float)
    sin = np.sin(phase)
    u = np.cos(phase) - 1j * (m.omega_tilde / m.Omega) * sin
    v = -1j * branch_sign(k) * (2.0 * m.lam / m.Omega) * sin
    if np.ndim(t) == 0:
        return complex(u), complex(v)
    return u, v


def lowest_level(m: ModelParams, alpha):
    """n_lo = max(0, ⌊(|α|/s)² − R(s|α|)⌋), the lowest oscillator level
    an evolution of |α⟩ starts at, R = fock._poisson_reach.

    s = (ω̃ + 2|λ|)/Ω = √((ω̃ + 2|λ|)/(ω̃ − 2|λ|)) is the largest
    stretch |u| + |v| of evolution_coefficients over all t, so either
    branch's mean amplitude |uα + vᾱ| never falls below |α|/s, and R(s|α|)
    levels is the reach of a photon-number spread stretched by s
    (squeezed coherent states, Yuen, PRA 13, 2226 (1976)).  Since
    n_lo ≤ |α|² − R(|α|), the initial weight left out is below e^{−60}.
    The edge is a rule, not a bound, so the leakage guard also watches
    the bottom levels of every evolution that starts above level 0.
    """
    s = (m.omega_tilde + 2.0 * abs(m.lam)) / m.Omega
    reach = _poisson_reach(s * abs(alpha))
    return max(0, math.floor((abs(alpha) / s) ** 2 - reach))


def predicted_moments(k, m: ModelParams, alpha, t):
    """Gaussian-predicted ⟨a⟩, ⟨a²⟩, ⟨a†a⟩ of the evolved coherent state.

    Built from the (u, v) evolution coefficients; this is the
    operationally testable content of the squeeze-coefficient formulas.
    """
    u, v = evolution_coefficients(k, m, t)
    al = complex(alpha)
    alc = np.conj(al)
    mean_a = u * al + v * alc
    mean_a2 = u * u * al * al + v * v * alc * alc \
        + u * v * (2.0 * abs(al) ** 2 + 1.0)
    mean_n = (abs(u) ** 2 * abs(al) ** 2
              + 2.0 * np.real(np.conj(u) * v * alc * alc)
              + abs(v) ** 2 * (1.0 + abs(al) ** 2))
    return mean_a, mean_a2, mean_n


# ---------------------------------------------------------------------------
# numerical effective-block extraction

# levels per branch in the extracted effective block, and the lowest of
# them that the (frequency, squeeze) fit averages over
SW_LEVELS = 24
SW_FIT_LEVELS = 10
# largest γ at which sw-check also holds the fit to the absolute
# tolerances (ω dev ≤ 0.10, λ dev ≤ 0.15): γ = 0.05, with room for the
# rounding of a γ derived from (ω, ω_a, g)
SW_TOL_GAMMA_MAX = 0.0501

@dataclass(frozen=True)
class BranchFit:
    k: int
    omega_fit: float
    lam_fit: float
    omega_ref: float
    lam_ref: float

    @property
    def omega_dev(self):
        return abs(self.omega_fit - self.omega_ref) / abs(self.omega_ref)

    @property
    def lam_dev(self):
        return abs(self.lam_fit - self.lam_ref) / abs(self.lam_ref) \
            if self.lam_ref != 0 else abs(self.lam_fit)


@dataclass(frozen=True)
class SWReport:
    gamma: float
    branches: tuple

    @property
    def max_omega_dev(self):
        return max(b.omega_dev for b in self.branches)

    @property
    def max_lam_dev(self):
        return max(b.lam_dev for b in self.branches)


def effective_block(sectors, k):
    """Direct-rotation effective Hamiltonian of branch k.

    `sectors` holds the full H's parity sectors, even then odd, as
    (index, w, Q): the sector's basis indices, one per level n, and its
    hermitian_eig eigenvalues (ascending) and eigenvector columns.  The
    bare rows |k, n < SW_LEVELS⟩ of a sector overlap only its own
    eigenvectors, so the block is built one sector at a time: branch k's
    lowest states (most weight on qubit k), as many as the sector has
    bare rows, are rotated onto those rows with the polar
    (least-distortion) factor of their overlap.  Selecting per sector
    keeps the overlap nonsingular where the branch's lowest SW_LEVELS
    states split unevenly between the sectors.  Returns the real
    SW_LEVELS × SW_LEVELS block, symmetric, whose spectrum is exactly
    the selected eigenvalues.
    """
    block = np.zeros((SW_LEVELS, SW_LEVELS))
    for p, (index, w, Q) in enumerate(sectors):
        dim = len(index)            # index < dim: the rows of qubit 0
        pop0 = np.sum(Q[index < dim] ** 2, axis=0)
        found = np.flatnonzero(pop0 > 0.5 if k == 0 else pop0 <= 0.5)
        n = index - k * dim
        rows = np.flatnonzero((n >= 0) & (n < SW_LEVELS))
        if len(found) < len(rows):
            raise RegimeError(
                "branch %d classification found only %d states of parity "
                "%d (%d requested): branches too strongly mixed"
                % (k, len(found), p, len(rows)))
        found = found[:len(rows)]     # w is ascending: the lowest
        wm, s, qh = np.linalg.svd(Q[np.ix_(rows, found)])
        if s[-1] < 1e-6:
            raise RegimeError("effective block extraction ill-conditioned "
                              "(smallest overlap singular value %.2e)"
                              % s[-1])
        rot = wm @ qh
        block[np.ix_(n[rows], n[rows])] = rot @ np.diag(w[found]) @ rot.T
    return block


def fit_branch_coefficients(block):
    """Least-structure fit of (frequency, squeeze coefficient) from an
    effective oscillator block: mean adjacent-diagonal spacing and mean
    normalized two-off-diagonal element over the lowest SW_FIT_LEVELS
    levels."""
    d = np.diag(block)
    omega_fit = float(np.mean(d[1:SW_FIT_LEVELS + 1] - d[:SW_FIT_LEVELS]))
    n = np.arange(SW_FIT_LEVELS)
    offd = np.diag(block, 2)[:SW_FIT_LEVELS]
    lam_fit = float(np.mean(offd / np.sqrt((n + 1.0) * (n + 2.0))))
    return omega_fit, lam_fit


def schrieffer_wolff_check(m: ModelParams, dim):
    """Compare numerically extracted branch coefficients against the
    modeled (ω̃, (−1)^k λ), fitted over the SW_FIT_LEVELS lowest of the
    SW_LEVELS lowest levels of each branch.  Report-only; see SWReport."""
    if m.gamma > GAMMA_MAX:
        raise RegimeError("gamma = %.3g above %g: effective-model check "
                          "not meaningful" % (m.gamma, GAMMA_MAX))
    if dim < SW_LEVELS:
        raise TruncationError("dispersive fit needs %d levels per branch, "
                              "got dim = %d" % (SW_LEVELS, dim),
                              suggested_dim=SW_LEVELS)
    # the two sector solves of the full H serve both branches
    H = build_full_hamiltonian(m, dim)
    sectors = [(s.index, *hermitian_eig(s.diag, s.offdiag))
               for s in H.sectors]
    branches = []
    for k in (0, 1):
        omega_fit, lam_fit = fit_branch_coefficients(
            effective_block(sectors, k))
        branches.append(BranchFit(
            k=k, omega_fit=omega_fit, lam_fit=lam_fit,
            omega_ref=m.omega_tilde,
            lam_ref=branch_sign(k) * m.lam))
    return SWReport(gamma=m.gamma, branches=tuple(branches))
