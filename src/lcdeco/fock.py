"""Truncated-Fock-space linear algebra.

Coherent and joint qubit+oscillator states, truncation guards, and exact
time evolution of time-independent Hamiltonians.  Everything here is
dimensionless and O(1)-scaled; SI inputs are converted at the package
boundary (see circuit / runner).

Basis ordering for joint qubit+oscillator vectors is fixed as
qubit-slow / oscillator-fast: amplitude of |k⟩⊗|n⟩ sits at index k*dim + n.

Evolution works on sectors: a Hamiltonian is handed over as a
SectorHamiltonian, invariant blocks that are each a real symmetric
tridiagonal matrix in their own basis order (the parity sectors of the
model Hamiltonians, see hamiltonians).  SpectralPropagator diagonalizes
each block with hermitian_eig and propagates in real arithmetic.  Two
cuts share one dropped-weight budget of PRUNE_TOL of the initial state's
weight: its smallest eigencomponents are dropped first, and the rest of
the budget buys a row window per sector, the rows at either end of the
chain that a time-independent bound from the kept components shows the
state never reaches; only the window's rows are built.  Evolution is
streamed: the time grid is walked in chunks of at most CHUNK_SAMPLES
samples, and the caller's reduction turns each chunk of states into its
observable before the next chunk is built, so memory per call is
O(size·CHUNK_SAMPLES) plus the eigenvectors, not size × samples.
hermitian_eig, the tridiagonal eigensolver of one sector, is the
package's only eigensolver: the Schrieffer-Wolff check calls it on the
full Hamiltonian's two sectors too.

scipy is imported inside the three functions that use it, so importing
lcdeco, and every command that builds no Fock state, loads no scipy.
"""

import math

import numpy as np

from .errors import TruncationError

# tail mass above the truncation edge that we still accept when building
# a coherent state
COHERENT_TAIL_TOL = 1e-12

# evolution leakage guard: population allowed in the top LEAK_LEVELS
# oscillator levels of both qubit branches together in an accepted run
LEAK_LEVELS = 5
LEAK_TOL = 1e-8

# weight of the initial state, as a fraction of its total, that the
# propagator may drop: its smallest eigencomponents first, then, with what
# they leave, the rows outside each sector's level window; the dropped
# part has norm at most √PRUNE_TOL = 1e-13 relative to the state at every
# t, an order below the 1e-12 agreement the propagation tests demand
PRUNE_TOL = 1e-26

# most time samples SpectralPropagator.evolve_grid builds at once; a
# chunk of the fig4 joint space (2·1200 states) is then ~10 MB, and
# smaller chunks save little more memory for more BLAS calls
CHUNK_SAMPLES = 256


# ---------------------------------------------------------------------------
# eigensolver

def hermitian_eig(diag, offdiag):
    """Eigendecomposition of one real symmetric tridiagonal sector
    (a Sector's diag and offdiag).

    Returns (eigenvalues ascending, real eigenvector columns).
    """
    from scipy.linalg import eigh_tridiagonal
    return eigh_tridiagonal(diag, offdiag)


# ---------------------------------------------------------------------------
# states

def coherent_tail_mass(alpha, dim):
    """Poisson mass of the untruncated coherent state above level dim−1.

    For mean photon number |α|² the tail P(n ≥ dim) is the regularized
    lower incomplete gamma gammainc(dim, |α|²).
    """
    from scipy.special import gammainc
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 0.0
    return float(gammainc(dim, lam))


def min_adequate_dim(alpha):
    """Smallest truncation with coherent tail mass below
    COHERENT_TAIL_TOL."""
    lo = 2
    hi = max(4, int(abs(alpha) ** 2) + 2)
    while coherent_tail_mass(alpha, hi) >= COHERENT_TAIL_TOL:
        lo = hi
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if coherent_tail_mass(alpha, mid) < COHERENT_TAIL_TOL:
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
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    from scipy.special import gammaln
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


def assert_leakage(states, pruned=0.0):
    """Raise TruncationError when the top LEAK_LEVELS oscillator levels
    hold LEAK_TOL or more of the population; return that population.

    `states` is one joint state vector (2·dim,) or a (2·dim, nt) array of
    column states; the top levels of both qubit branches are summed.
    Below LEAK_LEVELS levels every level counts as a top level.

    `pruned` is the weight a propagator dropped from the evolved state
    (the second value SpectralPropagator.evolve_grid returns).  The
    dropped part has norm √pruned, so the unpruned state's top-level
    population is at most (√leak + √pruned)²; the guard tests and returns
    that bound, so pruning, eigencomponents and window rows alike, can
    never turn a trip into a pass.
    """
    arr = np.asarray(states)
    vecs = arr[:, None] if arr.ndim == 1 else arr
    d = vecs.shape[0] // 2
    lo = max(d - LEAK_LEVELS, 0)
    top = ((np.abs(vecs[lo:d]) ** 2).sum(axis=0)
           + (np.abs(vecs[d + lo:]) ** 2).sum(axis=0))
    leak = float(np.max(top))
    if pruned:
        leak = (math.sqrt(leak) + math.sqrt(pruned)) ** 2
    if not leak < LEAK_TOL:     # a NaN population trips too
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


class SpectralPropagator:
    """exp(−iHt) applied through a one-time eigendecomposition of H.

    H is a SectorHamiltonian; each sector is diagonalized with
    hermitian_eig, so the cost is O(n²) per sector instead of a dense
    O(n³) complex eigh.  A state is projected onto the real eigenvectors
    once per evolve_grid call and the smallest eigencomponents are
    dropped, up to PRUNE_TOL of its total weight.  What the prune leaves
    of that budget, split evenly over both ends of every sector's chain,
    sets a row window: row r's amplitude never exceeds
    b_r = Σ_j |Q_rj|·|c_j| over the kept eigenvectors Q and components c,
    so the end rows whose summed b_r² fit an end's share stay zero and
    are never multiplied.  The evolved state is then off by a norm of at
    most √PRUNE_TOL·‖ψ‖ at every t, and evolve_grid returns the combined
    dropped weight for the leakage guard.

    The states are never held for the whole grid: evolve_grid builds
    them CHUNK_SAMPLES samples at a time, as real eigenvector block ×
    float view of the complex phase array, window rows only, and hands
    each chunk to the caller's reduction.  Memory per call is
    O(size·CHUNK_SAMPLES) plus the kept eigenvectors, whatever the number
    of samples.

    `eigenvalues` holds every sector's eigenvalues, sector by sector
    (ascending within each).
    """

    def __init__(self, H):
        if not isinstance(H, SectorHamiltonian):
            raise TypeError("SpectralPropagator takes a SectorHamiltonian, "
                            "got %s" % type(H).__name__)
        self.size = H.size
        self._sectors = []
        for s in H.sectors:
            w, Q = hermitian_eig(s.diag, s.offdiag)
            self._sectors.append((s.index, w, Q))
        self.eigenvalues = np.concatenate([w for _, w, _ in self._sectors])

    def evolve_grid(self, psi, ts, reduce):
        """(reduced, pruned): psi evolved to every t in ts and reduced
        chunk by chunk, and the weight dropped from the evolution,
        (√eigencomponents + √window rows)², at most PRUNE_TOL·‖psi‖².

        ts must be finite; it is walked in chunks of at most CHUNK_SAMPLES
        samples.  For each chunk, reduce(block, pruned) gets the
        (size, chunk) array of states, one column per t, zero outside the
        sectors' windows, and returns an array whose last axis runs over
        that chunk's samples; `reduced` is those arrays joined along the
        last axis.  `lambda block, _: block` returns the states themselves.
        """
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (self.size,):
            raise ValueError("state of length %d expected, got %r"
                             % (self.size, psi.shape))
        ts = np.asarray(ts, dtype=float).ravel()
        if not np.all(np.isfinite(ts)):
            raise ValueError("evolution times must be finite")
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
        # the budget the prune leaves (norms add, weights do not), shared
        # evenly by both ends of every sector's chain
        end_budget = ((math.sqrt(PRUNE_TOL * cum[-1]) - math.sqrt(pruned))
                      ** 2 / (2 * len(self._sectors)))
        kept = []
        outside = []
        dropped = 0.0
        start = 0
        for (index, w, Q), c in zip(self._sectors, coeffs):
            k = keep[start:start + len(w)]
            start += len(w)
            # |ψ_r(t)| ≤ b_r at every t, so end rows whose b_r² fit an
            # end's budget can be left zero; einsum, as a threaded BLAS
            # matrix-vector product of this shape measured 25× slower
            # (8 ms against 0.3 ms, 1200 × 600, two OpenBLAS threads on
            # two vCPUs)
            Q, c = Q[:, k], c[k]
            b2 = np.einsum("rj,j->r", np.abs(Q), np.abs(c)) ** 2
            r0 = int(np.searchsorted(np.cumsum(b2), end_budget, "right"))
            r1 = max(r0, len(b2) - int(np.searchsorted(
                np.cumsum(b2[::-1]), end_budget, "right")))
            dropped += float(b2[:r0].sum() + b2[r1:].sum())
            outside += [index[:r0], index[r1:]]
            kept.append((index[r0:r1], w[k], Q[r0:r1], c[:, None]))
        outside = np.concatenate(outside)
        if dropped:
            pruned = (math.sqrt(pruned) + math.sqrt(dropped)) ** 2
        results = []
        for lo in range(0, len(ts), CHUNK_SAMPLES):
            chunk = ts[lo:lo + CHUNK_SAMPLES]
            block = np.empty((self.size, len(chunk)), dtype=complex)
            block[outside] = 0.0
            for index, w, Q, c in kept:
                arg = np.outer(w, -chunk)
                phases = np.empty(arg.shape, dtype=complex)
                np.cos(arg, out=phases.real)
                np.sin(arg, out=phases.imag)
                phases *= c
                block[index] = (Q @ phases.view(float)).view(complex)
            results.append(reduce(block, pruned))
        return np.concatenate(results, axis=-1), pruned


def _check_dim(dim):
    d = int(dim)
    if d != dim or d < 2:
        raise ValueError("Fock truncation dim must be an integer >= 2, got %r"
                         % (dim,))
    return d
