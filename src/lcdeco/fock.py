"""Truncated-Fock-space linear algebra.

Operators, coherent states, tensor products with a two-level system, and
exact time evolution of time-independent Hamiltonians.  Everything here is
dimensionless and O(1)-scaled; SI inputs are converted at the package
boundary (see circuit / runner).

Basis ordering for joint qubit+oscillator vectors is fixed as
qubit-slow / oscillator-fast: amplitude of |k⟩⊗|n⟩ sits at index k*dim + n.

Evolution works on sectors: a Hamiltonian is handed over as a
SectorHamiltonian, invariant blocks that are each a real symmetric
tridiagonal matrix in their own basis order (the parity sectors of the
model Hamiltonians, see hamiltonians).  SpectralPropagator diagonalizes
each block with a tridiagonal eigensolver and propagates in real
arithmetic; the initial state's smallest eigencomponents, at most
PRUNE_TOL of its weight, are dropped.  hermitian_eig remains for dense
matrices (SectorHamiltonian.dense()).
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammainc, gammaln

from .errors import TruncationError

# tail mass above the truncation edge that we still accept when building
# a coherent state
COHERENT_TAIL_TOL = 1e-12

# evolution leakage guard: population allowed in the top LEAK_LEVELS
# oscillator levels of an accepted run
LEAK_LEVELS = 5
LEAK_TOL = 1e-8

# weight of the initial state, as a fraction of its total, that the
# propagator may drop from its smallest eigencomponents; the dropped part
# has norm at most √PRUNE_TOL = 1e-13 relative to the state at every t,
# an order below the 1e-12 agreement the propagation tests demand
PRUNE_TOL = 1e-26


# ---------------------------------------------------------------------------
# operators

def annihilation_op(dim):
    """Boson annihilation operator a on a dim-level truncated Fock space."""
    dim = _check_dim(dim)
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def number_op(dim):
    """Number operator a†a."""
    dim = _check_dim(dim)
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def position_quad(dim):
    """Hermitian combination i(a − a†) used as the coupling quadrature."""
    a = annihilation_op(dim)
    return 1j * (a - a.conj().T)


_QUBIT_OPS = {
    # qubit basis {|0>, |1>} with sigma_z = |0><0| − |1><1|
    "sigma_x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "sigma_y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    "sigma_z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "projector_0": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "projector_1": np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
}


def qubit_op(which):
    """2x2 qubit operator by name.

    Conventions: sigma_z = |0⟩⟨0| − |1⟩⟨1| (so |0⟩ is the low-energy
    eigenstate of −(ω_a/2)σ_z), sigma_y = −i(|1⟩⟨0| − |0⟩⟨1|),
    sigma_x = |1⟩⟨0| + |0⟩⟨1|.
    """
    try:
        return _QUBIT_OPS[which].copy()
    except KeyError:
        raise ValueError(
            "unknown qubit operator %r (valid: %s)"
            % (which, ", ".join(sorted(_QUBIT_OPS))))


def tensor(qubit_part, osc_part):
    """Kronecker product, qubit factor slow: (2x2) ⊗ (dim x dim)."""
    q = np.asarray(qubit_part, dtype=complex)
    o = np.asarray(osc_part, dtype=complex)
    if q.shape != (2, 2):
        raise ValueError("qubit factor must be 2x2, got %r" % (q.shape,))
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        raise ValueError("oscillator factor must be square, got %r" % (o.shape,))
    return np.kron(q, o)


def check_hermitian(M):
    """Return the hermiticity defect max|M − M†|; raise if above 1e-12
    (scaled by max(1, max|M|) so O(10) dimensionless matrices are not
    penalized for representation rounding)."""
    M = np.asarray(M)
    defect = float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0
    scale = max(1.0, float(np.max(np.abs(M)))) if M.size else 1.0
    if defect > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian (defect %.3e)" % defect)
    return defect


def hermitian_eig(M):
    """Eigendecomposition of a certified-Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns).
    """
    check_hermitian(M)
    return np.linalg.eigh(np.asarray(M, dtype=complex))


# ---------------------------------------------------------------------------
# states

def fock_state(n, dim):
    dim = _check_dim(dim)
    if not 0 <= n < dim:
        raise ValueError("Fock level %d outside [0, %d)" % (n, dim))
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


def coherent_tail_mass(alpha, dim):
    """Poisson mass of the untruncated coherent state above level dim−1.

    For mean photon number |α|² the tail P(n ≥ dim) is the regularized
    lower incomplete gamma gammainc(dim, |α|²).
    """
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 0.0
    return float(gammainc(dim, lam))


def min_adequate_dim(alpha, tol=COHERENT_TAIL_TOL):
    """Smallest truncation with coherent tail mass below tol."""
    lo = 2
    hi = max(4, int(abs(alpha) ** 2) + 2)
    while coherent_tail_mass(alpha, hi) >= tol:
        lo = hi
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if coherent_tail_mass(alpha, mid) < tol:
            hi = mid
        else:
            lo = mid + 1
    return max(hi, 2)


def coherent_state(alpha, dim):
    """Coherent state |α⟩ truncated to dim levels, renormalized.

    Amplitudes are built in the log domain so large |α| does not overflow.
    Raises TruncationError (with a suggested dimension) when the analytic
    tail mass at the requested truncation is not below COHERENT_TAIL_TOL.
    """
    dim = _check_dim(dim)
    tail = coherent_tail_mass(alpha, dim)
    if tail >= COHERENT_TAIL_TOL:
        raise TruncationError(
            "coherent state alpha=%r needs a larger Fock space "
            "(tail mass %.3e at dim=%d)" % (alpha, tail, dim),
            suggested_dim=min_adequate_dim(alpha))
    if alpha == 0:
        return fock_state(0, dim)
    n = np.arange(dim)
    mag = np.exp(n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
                 - 0.5 * abs(alpha) ** 2)
    phase = np.exp(1j * n * np.angle(alpha))
    v = mag * phase
    return v / np.linalg.norm(v)


def joint_state(c0, c1, osc):
    """(c0|0⟩ + c1|1⟩) ⊗ |osc⟩ in qubit-slow ordering, normalized."""
    osc = np.asarray(osc, dtype=complex)
    v = np.concatenate([c0 * osc, c1 * osc])
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("joint state has zero norm")
    return v / nrm


def overlap(s1, s2):
    """Inner product ⟨s1|s2⟩."""
    s1 = np.asarray(s1)
    s2 = np.asarray(s2)
    if s1.shape != s2.shape:
        raise ValueError("state shapes differ: %r vs %r" % (s1.shape, s2.shape))
    return complex(np.vdot(s1, s2))


def partial_trace_qubit(psi, dim):
    """Reduced 2x2 qubit density matrix of a joint pure state."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2 * dim,):
        raise ValueError("joint state of length %d expected, got %r"
                         % (2 * dim, psi.shape))
    block = psi.reshape(2, dim)
    return block @ block.conj().T


def top_level_population(states, osc_dim=None):
    """Population in the top LEAK_LEVELS oscillator levels.

    `states` is one state vector or a (N, nt) array of column states.
    For joint states pass osc_dim; both qubit branches are summed.
    """
    arr = np.asarray(states)
    vecs = arr[:, None] if arr.ndim == 1 else arr
    n = vecs.shape[0]
    d = n if osc_dim is None else osc_dim
    if osc_dim is not None and n != 2 * osc_dim:
        raise ValueError("joint states of length %d expected" % (2 * osc_dim))
    out = (np.abs(vecs[d - LEAK_LEVELS:d]) ** 2).sum(axis=0)
    if osc_dim is not None:
        out = out + (np.abs(vecs[2 * d - LEAK_LEVELS:]) ** 2).sum(axis=0)
    return float(out[0]) if arr.ndim == 1 else out


def assert_leakage(states, osc_dim=None, pruned=0.0):
    """Raise TruncationError when the top LEAK_LEVELS oscillator levels
    hold LEAK_TOL or more of the population.

    `pruned` is the weight a propagator dropped from the evolved state
    (SpectralPropagator.pruned_weight).  The dropped part has norm √pruned,
    so the unpruned state's top-level population is at most
    (√leak + √pruned)²; the guard tests and returns that bound, so pruning
    can never turn a trip into a pass.
    """
    leak = float(np.max(top_level_population(states, osc_dim)))
    if pruned:
        leak = (math.sqrt(leak) + math.sqrt(pruned)) ** 2
    if leak >= LEAK_TOL:
        arr = np.asarray(states)
        d = arr.shape[0] if osc_dim is None else osc_dim
        raise TruncationError(
            "leakage guard tripped: top-%d-level population %.3e >= %.1e"
            % (LEAK_LEVELS, leak, LEAK_TOL),
            suggested_dim=2 * d)
    return leak


# ---------------------------------------------------------------------------
# evolution

def _real_finite(values, what):
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        raise ValueError("sector %s must be real" % what)
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("sector %s has non-finite entries" % what)
    return arr


class Sector:
    """One invariant block of a Hamiltonian: the basis indices it spans, in
    chain order, and its real symmetric tridiagonal matrix in that order
    (diagonal, and off-diagonal coupling index[i] to index[i+1]).

    Real, finite entries are enforced here; with the tridiagonal shape
    they make the block Hermitian by construction.
    """

    __slots__ = ("index", "diag", "offdiag")

    def __init__(self, index, diag, offdiag):
        self.index = np.asarray(index)
        self.diag = _real_finite(diag, "diagonal")
        self.offdiag = _real_finite(offdiag, "off-diagonal")
        n = len(self.index)
        if (self.index.ndim != 1 or n == 0
                or not np.issubdtype(self.index.dtype, np.integer)):
            raise ValueError("sector index must be a non-empty 1-D integer "
                             "array")
        if self.diag.shape != (n,) or self.offdiag.shape != (n - 1,):
            raise ValueError(
                "sector of %d states needs %d diagonal and %d off-diagonal "
                "entries, got shapes %r and %r"
                % (n, n, n - 1, self.diag.shape, self.offdiag.shape))


class SectorHamiltonian:
    """A Hermitian matrix of order `size` given as sectors whose indices
    partition range(size); entries between different sectors are zero."""

    def __init__(self, size, sectors):
        self.size = int(size)
        self.sectors = tuple(sectors)
        covered = np.sort(np.concatenate([s.index for s in self.sectors]))
        if not np.array_equal(covered, np.arange(self.size)):
            raise ValueError("sector indices must partition range(%d)"
                             % self.size)

    def dense(self):
        """The full real matrix; for checks and small orders only."""
        M = np.zeros((self.size, self.size))
        for s in self.sectors:
            M[s.index, s.index] = s.diag
            M[s.index[:-1], s.index[1:]] = s.offdiag
            M[s.index[1:], s.index[:-1]] = s.offdiag
        return M


class SpectralPropagator:
    """exp(−iHt) applied through a one-time eigendecomposition of H.

    H is a SectorHamiltonian; each sector is diagonalized with the real
    tridiagonal eigensolver, so the cost is O(n²) per sector instead of a
    dense O(n³) complex eigh.  A state is projected onto the real
    eigenvectors and the smallest eigencomponents are dropped, up to
    PRUNE_TOL of its total weight: the evolved state is then off by a norm
    of at most √PRUNE_TOL·‖ψ‖ at every t, and pruned_weight reports the
    dropped weight for the leakage guard.  Rows are formed as real
    eigenvector block × float view of the complex phase array.

    `eigenvalues` holds every sector's eigenvalues, sector by sector
    (ascending within each).  The spectral data is computed once at
    construction and only read afterwards (each call keeps its projection
    local), so a single instance may be shared across threads.
    """

    def __init__(self, H):
        if not isinstance(H, SectorHamiltonian):
            raise TypeError("SpectralPropagator takes a SectorHamiltonian, "
                            "got %s" % type(H).__name__)
        self.size = H.size
        self._sectors = []
        for s in H.sectors:
            w, Q = eigh_tridiagonal(s.diag, s.offdiag)
            self._sectors.append((s.index, w, Q))
        self.eigenvalues = np.concatenate([w for _, w, _ in self._sectors])

    def _project(self, psi):
        """([(index, kept eigenvalues, kept eigenvectors, kept
        coefficients)] per sector, pruned weight)."""
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (self.size,):
            raise ValueError("state of length %d expected, got %r"
                             % (self.size, psi.shape))
        coeffs = []
        for index, _, Q in self._sectors:
            pairs = psi[index].view(float).reshape(-1, 2)   # (re, im) rows
            coeffs.append((Q.T @ pairs).view(complex)[:, 0])
        weight = np.abs(np.concatenate(coeffs)) ** 2
        order = np.argsort(weight, kind="stable")
        cum = np.cumsum(weight[order])
        n_drop = int(np.searchsorted(cum, PRUNE_TOL * cum[-1], side="right"))
        keep = np.ones(len(weight), dtype=bool)
        keep[order[:n_drop]] = False
        pruned = float(cum[n_drop - 1]) if n_drop else 0.0
        kept = []
        start = 0
        for (index, w, Q), c in zip(self._sectors, coeffs):
            k = keep[start:start + len(w)]
            start += len(w)
            kept.append((index, w[k], Q[:, k], c[k]))
        return kept, pruned

    def pruned_weight(self, psi):
        """Weight of psi's eigencomponents dropped by evolve_grid; at most
        PRUNE_TOL·‖psi‖²."""
        return self._project(psi)[1]

    def evolve_grid(self, psi, ts):
        """Column-per-time array of states at each t in ts (one time t:
        ts = [t], column 0)."""
        ts = np.asarray(ts, dtype=float).ravel()
        out = np.empty((self.size, len(ts)), dtype=complex)
        for index, w, Q, c in self._project(psi)[0]:
            arg = np.outer(w, -ts)
            phases = np.empty(arg.shape, dtype=complex)
            np.cos(arg, out=phases.real)
            np.sin(arg, out=phases.imag)
            phases *= c[:, None]
            out[index] = (Q @ phases.view(float)).view(complex)
        return out


def _check_dim(dim):
    d = int(dim)
    if d != dim or d < 2:
        raise ValueError("Fock truncation dim must be an integer >= 2, got %r"
                         % (dim,))
    return d
