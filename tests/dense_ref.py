"""Dense operator references for the tests.

lcdeco builds its Hamiltonians as real tridiagonal parity sectors and
never forms these operators, nor evolved states: its propagator returns
quadratic forms of the state (the qubit coherence ρ_01, the charge
occupation P_c).  The tests compare the builders and those forms against
the dense operators and states here, on the uniform time grids
(uniform_grids) that the propagator takes.

Conventions (pinned here, and through the exact builder comparison in
test_hamiltonians, for the package): joint vectors are qubit-slow, so
np.kron(qubit, oscillator) puts |k⟩⊗|n⟩ at index k*dim + n;
sigma_z = |0⟩⟨0| − |1⟩⟨1|, sigma_y = −i(|1⟩⟨0| − |0⟩⟨1|) (the
sign-flipped standard Pauli y), sigma_x = |1⟩⟨0| + |0⟩⟨1|.
"""

import math

import numpy as np
from hypothesis import strategies as st

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PROJECTOR_0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def uniform_grids(t_max, max_size):
    """Hypothesis strategy: a uniform grid t0 + i·dt of 1 to max_size
    times in [0, t_max], built as numpy.arange builds one, dt of either
    sign; one time is a one-sample grid."""
    def grid(t0, t1, n):
        return t0 + np.arange(n) * ((t1 - t0) / max(n - 1, 1))
    return st.builds(grid, st.floats(0.0, t_max), st.floats(0.0, t_max),
                     st.integers(1, max_size))


def dense(H):
    """The full real matrix of a SectorHamiltonian."""
    M = np.zeros((H.size, H.size))
    for s in H.sectors:
        M[s.index, s.index] = s.diag
        M[s.index[:-1], s.index[1:]] = s.offdiag
        M[s.index[1:], s.index[:-1]] = s.offdiag
    return M


def dense_evolution(H, psi, ts):
    """psi evolved under the SectorHamiltonian H to each t in ts by the
    dense eigendecomposition, one column per t."""
    w, V = np.linalg.eigh(dense(H))
    return V @ (np.exp(-1j * np.outer(w, ts)) * (V.T @ psi)[:, None])


def coherence(states):
    """ρ_01 = Σ_n ψ_{0,n}·ψ̄_{1,n} of each joint column state (2·levels, nt),
    or of one joint vector."""
    arr = np.asarray(states, dtype=complex)
    d = len(arr) // 2
    return np.sum(arr[:d] * np.conj(arr[d:]), axis=0)


def charge_occupation(states, theta):
    """P_c = |⟨1_c|ψ⟩|² with |1⟩_c = sin(θ/2)|0⟩ + cos(θ/2)|1⟩.

    `states` is a joint vector (2·dim,) or a grid (2·dim, nt); the
    oscillator part is traced by summing the projected amplitudes.
    """
    arr = np.asarray(states, dtype=complex)
    vecs = arr[:, None] if arr.ndim == 1 else arr
    dim = vecs.shape[0] // 2
    b = (math.sin(0.5 * theta) * vecs[:dim, :]
         + math.cos(0.5 * theta) * vecs[dim:, :])
    p = np.sum(np.abs(b) ** 2, axis=0)
    return float(p[0]) if arr.ndim == 1 else p


def edge_population(states, lo, hi):
    """Population of the levels at offsets [lo, hi) of both qubit
    branches of each joint column state (2·levels, nt)."""
    d = len(states) // 2
    return np.sum(np.abs(states[lo:hi]) ** 2
                  + np.abs(states[d + lo:d + hi]) ** 2, axis=0)


def annihilation_op(dim):
    """a on dim levels: ⟨n|a|n+1⟩ = √(n+1)."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def number_op(dim):
    """a†a on dim levels."""
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def position_quad(dim):
    """i(a − a†), the quadrature the qubit couples to."""
    a = annihilation_op(dim)
    return 1j * (a - a.conj().T)


def fock_state(n, dim):
    """Fock state |n⟩ on dim levels."""
    return np.eye(dim, dtype=complex)[n]


def partial_trace_qubit(psi, dim):
    """2x2 qubit density matrix of a joint pure state (oscillator traced
    out)."""
    block = np.asarray(psi, dtype=complex).reshape(2, dim)
    return block @ block.conj().T
