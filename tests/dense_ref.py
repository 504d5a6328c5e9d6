"""Dense operator references for the tests.

lcdeco builds its Hamiltonians as real tridiagonal parity sectors and
never forms these operators; the tests compare the builders, states and
propagators against them.

Conventions (pinned here, and through the exact builder comparison in
test_hamiltonians, for the package): joint vectors are qubit-slow, so
np.kron(qubit, oscillator) puts |k⟩⊗|n⟩ at index k*dim + n;
sigma_z = |0⟩⟨0| − |1⟩⟨1|, sigma_y = −i(|1⟩⟨0| − |0⟩⟨1|) (the
sign-flipped standard Pauli y), sigma_x = |1⟩⟨0| + |0⟩⟨1|.
"""

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PROJECTOR_0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def dense(H):
    """The full real matrix of a SectorHamiltonian."""
    M = np.zeros((H.size, H.size))
    for s in H.sectors:
        M[s.index, s.index] = s.diag
        M[s.index[:-1], s.index[1:]] = s.offdiag
        M[s.index[1:], s.index[:-1]] = s.offdiag
    return M


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
