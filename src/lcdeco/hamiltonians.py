"""Model Hamiltonians and squeeze algebra.

The full two-branch model on the joint space,

    H = ω a†a − (ω_a/2) σ_z + g σ_y · i(a − a†),

its qubit-conditioned effective oscillator Hamiltonians,

    H_k = ω̃ a†a + (−1)^k λ (a² + a†²) + ε_k ,

and the analytic Bogoliubov (squeeze) coefficients of the conditioned
evolution.

Both Hamiltonians are built as their two parity sectors
(fock.SectorHamiltonian).  The full H commutes with the Rabi-model parity
Π = σ_z ⊗ (−1)^{a†a} and, with this σ_y convention, has only real
elements; ordered by n, each sector {|n mod 2, n⟩} and {|1 − n mod 2, n⟩}
is a real symmetric tridiagonal chain.  H_k couples n ↔ n ± 2, so its even
and odd levels are the two chains.

A numerical effective-block extraction (direct-rotation block
diagonalization of the full H, from the eigendecompositions of its two
sectors) is provided to quantify how well the dispersive effective model
approximates the full one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuit import ModelParams
from .errors import RegimeError, TruncationError
from .fock import Sector, SectorHamiltonian, _check_dim, hermitian_eig


def branch_sign(k):
    if k not in (0, 1):
        raise ValueError("branch index must be 0 or 1, got %r" % (k,))
    return 1.0 if k == 0 else -1.0


def build_full_hamiltonian(m: ModelParams, dim):
    """Joint-space H (qubit-slow ordering) as its two parity sectors.

    Elements: ⟨q,n|H|q,n⟩ = ωn ∓ ω_a/2 (− for q = 0), and the coupling
    ⟨0,n|H|1,n+1⟩ = −g√(n+1), ⟨1,n|H|0,n+1⟩ = +g√(n+1).
    """
    dim = _check_dim(dim)
    n = np.arange(dim)
    root = np.sqrt(np.arange(1.0, dim))     # ⟨n|a|n+1⟩ = √(n+1)
    sectors = []
    for first in (0, 1):            # qubit state of the n = 0 member
        q = (n + first) % 2
        diag = m.omega * n - 0.5 * m.omega_a * (1.0 - 2.0 * q)
        # the link n → n+1 leaves qubit q[n]: −g√(n+1) from 0, +g√(n+1)
        # from 1
        offdiag = (2.0 * q[:-1] - 1.0) * (m.g * root)
        sectors.append(Sector(q * dim + n, diag, offdiag))
    return SectorHamiltonian(2 * dim, sectors)


def build_effective_hamiltonian(k, m: ModelParams, dim):
    """Oscillator-space H_k for qubit branch k, as its even- and odd-level
    sectors."""
    dim = _check_dim(dim)
    eps = m.eps0 if k == 0 else m.eps1
    squeeze = branch_sign(k) * m.lam
    sectors = []
    for first in (0, 1):
        n = np.arange(first, dim, 2)
        # ⟨n|a²|n+2⟩ = √(n+1)·√(n+2)
        root = np.sqrt(n[:-1] + 1.0) * np.sqrt(n[:-1] + 2.0)
        sectors.append(Sector(n, m.omega_tilde * n + eps, squeeze * root))
    return SectorHamiltonian(dim, sectors)


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
    under H_k, composed from the squeeze pair at times 0 and t.

    u(0) = 1, v(0) = 0, and |u|² − |v|² = 1 for all t.
    Accepts scalar or array t.
    """
    mu_0, nu_0 = squeeze_coefficients(k, m, 0.0)
    mu_t, nu_t = squeeze_coefficients(k, m, np.atleast_1d(t))
    u = np.conj(mu_t * mu_0 - nu_t * nu_0)
    v = mu_t * nu_0 - mu_0 * nu_t
    if np.ndim(t) == 0:
        return complex(u[0]), complex(v[0])
    return u, v


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
# largest γ at which the dispersive fit is meaningful
SW_GAMMA_MAX = 0.15

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
    dim: int
    branches: tuple

    @property
    def max_omega_dev(self):
        return max(b.omega_dev for b in self.branches)

    @property
    def max_lam_dev(self):
        return max(b.lam_dev for b in self.branches)


def effective_block(w, V, k, n_levels):
    """Direct-rotation effective Hamiltonian of branch k.

    (w, V) is the eigendecomposition of the full H, order 2·dim, with
    eigenvalues ascending: schrieffer_wolff_check assembles it from the
    hermitian_eig solves of the two parity sectors, so V is real and each
    eigenvector lies in one sector.  Classifies eigenvectors by qubit
    population and by parity sector (the sector {|q, n⟩ : q + n ≡ p}
    holding most of their weight) and takes, per sector, as many of
    branch k's lowest states as the bare rows |k, n < n_levels⟩ have of
    that parity.  The overlap matrix with those rows is then
    block-diagonal by sector, so it stays nonsingular where the branch's
    lowest n_levels states split unevenly between the sectors.  Rotates
    them onto the bare subspace with the polar (least-distortion)
    unitary of the overlap matrix.  Returns an (n_levels × n_levels)
    Hermitian block whose spectrum is exactly the selected eigenvalues.
    """
    dim = len(w) // 2
    pop0 = np.sum(np.abs(V[:dim, :]) ** 2, axis=0)
    in_branch = pop0 > 0.5 if k == 0 else pop0 <= 0.5
    n = np.arange(dim)
    parity = np.concatenate([n % 2, (n + 1) % 2])   # q + n mod 2, by row
    odd = np.sum(np.abs(V[parity == 1, :]) ** 2, axis=0) > 0.5
    bare = parity[k * dim:k * dim + n_levels]
    sel = []
    for p in (0, 1):
        found = np.flatnonzero(in_branch & (odd == p))
        want = int(np.sum(bare == p))
        if len(found) < want:
            raise RegimeError(
                "branch %d classification found only %d states of parity "
                "%d (%d requested): branches too strongly mixed"
                % (k, len(found), p, want))
        sel.append(found[:want])   # w is ascending, so these are the lowest
    sel = np.sort(np.concatenate(sel))
    # overlap of selected eigenvectors with bare |k, n⟩, n < n_levels
    T = V[k * dim:k * dim + n_levels, sel]
    wm, s, qh = np.linalg.svd(T)
    if s[-1] < 1e-6:
        raise RegimeError("effective block extraction ill-conditioned "
                          "(smallest overlap singular value %.2e)" % s[-1])
    rot = wm @ qh
    return rot @ np.diag(w[sel]) @ rot.conj().T


def fit_branch_coefficients(block, n_fit):
    """Least-structure fit of (frequency, squeeze coefficient) from an
    effective oscillator block: mean adjacent-diagonal spacing and mean
    normalized two-off-diagonal element over the lowest n_fit levels."""
    d = np.real(np.diag(block))
    omega_fit = float(np.mean(d[1:n_fit + 1] - d[:n_fit]))
    n = np.arange(n_fit)
    offd = np.real(np.diag(block, 2))[:n_fit]
    lam_fit = float(np.mean(offd / np.sqrt((n + 1.0) * (n + 2.0))))
    return omega_fit, lam_fit


def schrieffer_wolff_check(m: ModelParams, dim=64):
    """Compare numerically extracted branch coefficients against the
    modeled (ω̃, (−1)^k λ), fitted over the SW_FIT_LEVELS lowest of the
    SW_LEVELS lowest levels of each branch.  Report-only; see SWReport."""
    if m.gamma > SW_GAMMA_MAX:
        raise RegimeError("gamma = %.3g above %g: effective-model check "
                          "not meaningful" % (m.gamma, SW_GAMMA_MAX))
    if dim < SW_LEVELS:
        raise TruncationError("dispersive fit needs %d levels per branch, "
                              "got dim = %d" % (SW_LEVELS, dim),
                              suggested_dim=SW_LEVELS)
    # the two sector solves of the full H serve both branches: each
    # sector's eigenvectors fill its rows, then all are sorted by energy
    H = build_full_hamiltonian(m, dim)
    w = np.empty(H.size)
    V = np.zeros((H.size, H.size))
    start = 0
    for s in H.sectors:
        ws, Q = hermitian_eig(s.diag, s.offdiag)
        cols = slice(start, start + len(ws))
        w[cols] = ws
        V[s.index, cols] = Q
        start += len(ws)
    order = np.argsort(w, kind="stable")
    w, V = w[order], V[:, order]
    branches = []
    for k in (0, 1):
        block = effective_block(w, V, k, SW_LEVELS)
        omega_fit, lam_fit = fit_branch_coefficients(block, SW_FIT_LEVELS)
        branches.append(BranchFit(
            k=k, omega_fit=omega_fit, lam_fit=lam_fit,
            omega_ref=m.omega_tilde,
            lam_ref=branch_sign(k) * m.lam))
    return SWReport(gamma=m.gamma, dim=dim, branches=tuple(branches))
