"""Truncated-Fock-space basics: operators, coherent states, evolution."""

import math

import numpy as np
import pytest

from lcdeco.errors import TruncationError
from lcdeco.fock import (LEAK_TOL, PRUNE_TOL, Sector, SectorHamiltonian,
                         SpectralPropagator, annihilation_op, assert_leakage,
                         check_hermitian, coherent_state, coherent_tail_mass,
                         fock_state, hermitian_eig, joint_state,
                         min_adequate_dim, number_op, overlap,
                         partial_trace_qubit, position_quad, qubit_op, tensor)


def _one_sector(dim, diag, offdiag):
    return SectorHamiltonian(dim, [Sector(np.arange(dim), diag, offdiag)])


def _number_hamiltonian(dim, omega=1.0):
    """omega·a†a as a single (diagonal) sector."""
    return _one_sector(dim, omega * np.arange(dim), np.zeros(dim - 1))


def test_annihilation_matrix_elements():
    a = annihilation_op(3)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2.0)
    assert np.array_equal(a, expected)


def test_annihilation_kills_vacuum():
    a = annihilation_op(16)
    assert np.linalg.norm(a @ fock_state(0, 16)) == 0.0


def test_annihilation_rejects_tiny_space():
    with pytest.raises(ValueError):
        annihilation_op(1)


def test_coherent_mean_of_a():
    # <alpha|a|alpha> = alpha
    psi = coherent_state(0.5, 64)
    val = np.vdot(psi, annihilation_op(64) @ psi)
    assert abs(val - 0.5) < 1e-10


def test_coherent_zero_is_vacuum():
    assert np.array_equal(coherent_state(0.0, 8), fock_state(0, 8))


def test_coherent_norm_and_mean_photon():
    psi = coherent_state(2.0, 64)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    n = np.vdot(psi, number_op(64) @ psi).real
    assert abs(n - 4.0) < 1e-9


def test_coherent_poisson_distribution():
    """Photon statistics match e^{-|a|^2} |a|^{2n}/n! level by level."""
    alpha = 1.7 - 0.4j
    dim = 64
    psi = coherent_state(alpha, dim)
    lam = abs(alpha) ** 2
    n = np.arange(dim)
    from scipy.special import gammaln
    poisson = np.exp(n * math.log(lam) - lam - gammaln(n + 1.0))
    assert np.max(np.abs(np.abs(psi) ** 2 - poisson)) < 1e-10


def test_coherent_truncation_guard():
    with pytest.raises(TruncationError) as err:
        coherent_state(4.0, 16)
    suggested = err.value.suggested_dim
    assert suggested is not None and suggested > 16
    # the suggestion must actually be adequate
    assert coherent_tail_mass(4.0, suggested) < 1e-12
    coherent_state(4.0, suggested)


def test_min_adequate_dim_is_minimal():
    d = min_adequate_dim(3.0)
    assert coherent_tail_mass(3.0, d) < 1e-12
    assert coherent_tail_mass(3.0, d - 1) >= 1e-12


def test_qubit_conventions():
    sz = qubit_op("sigma_z")
    e0 = np.array([1.0, 0.0], dtype=complex)
    assert np.array_equal(sz @ e0, e0)          # sigma_z |0> = +|0>
    sy = qubit_op("sigma_y")
    assert np.allclose(sy @ sy, np.eye(2))
    # direct 2x2 multiplication with these conventions
    # (sigma_y = -i(|1><0| - |0><1|), the sign-flipped standard Pauli):
    sx = qubit_op("sigma_x")
    comm = sx @ sy - sy @ sx
    assert np.max(np.abs(comm - (-2j) * sz)) < 1e-15


def test_qubit_op_unknown_name():
    with pytest.raises(ValueError):
        qubit_op("sigma_w")


def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(5)), np.eye(10))


def test_tensor_ordering_qubit_slow():
    # tensor(projector_0, N) on |0> x |n| must return n times the state
    dim = 6
    n = 4
    v = np.zeros(2 * dim, dtype=complex)
    v[0 * dim + n] = 1.0
    out = tensor(qubit_op("projector_0"), number_op(dim)) @ v
    assert np.allclose(out, n * v)
    # and annihilate the |1> branch entirely
    w = np.zeros(2 * dim, dtype=complex)
    w[1 * dim + n] = 1.0
    assert np.linalg.norm(tensor(qubit_op("projector_0"), number_op(dim)) @ w) == 0.0


def test_tensor_sigma_z_balanced_superposition():
    dim = 32
    psi = joint_state(1.0, 1.0, coherent_state(1.0, dim))
    val = np.vdot(psi, tensor(qubit_op("sigma_z"), np.eye(dim)) @ psi)
    assert abs(val) < 1e-12


def test_tensor_shape_check():
    with pytest.raises(ValueError):
        tensor(np.eye(3), np.eye(4))


def test_hermitian_eig_diagonal():
    w, _ = hermitian_eig(np.diag([3.0, -1.0, 2.0]).astype(complex))
    assert np.allclose(w, [-1.0, 2.0, 3.0])


def test_hermitian_eig_number_op():
    w, _ = hermitian_eig(number_op(8))
    assert np.allclose(w, np.arange(8.0), atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        hermitian_eig(M)


def test_hermitian_eig_residuals_random():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    H = A + A.conj().T
    w, V = hermitian_eig(H)
    scale = np.linalg.norm(H)
    for i in range(40):
        assert np.linalg.norm(H @ V[:, i] - w[i] * V[:, i]) <= 1e-10 * scale
    assert np.max(np.abs(V.conj().T @ V - np.eye(40))) < 1e-10


def test_quadratic_oscillator_interior_gap():
    """Spectrum of wt*n + lam*(a^2 + a+^2) has uniform spacing
    sqrt(wt^2 - 4 lam^2) away from the truncation edge."""
    dim = 128
    wt, lam = 1.1, 0.05
    a = annihilation_op(dim)
    H = wt * number_op(dim) + lam * (a @ a + a.conj().T @ a.conj().T)
    w, _ = hermitian_eig(H)
    gap_ref = math.sqrt(wt * wt - 4.0 * lam * lam)
    interior = np.diff(w[: dim // 2])   # lowest half is edge-clean
    assert np.max(np.abs(interior - gap_ref)) < 1e-9


def test_position_quad_is_hermitian():
    check_hermitian(position_quad(32))


def test_evolve_t0_identity():
    psi = coherent_state(1.0, 32)
    out = SpectralPropagator(_number_hamiltonian(32)).evolve_grid(
        psi, [0.0])[:, 0]
    assert np.max(np.abs(out - psi)) < 1e-12


def test_evolve_rotating_coherent_state():
    # H = w a+a sends |alpha> to |alpha e^{-iwt}> up to a global phase
    dim = 48
    omega, t, alpha = 1.3, 2.1, 1.5
    out = SpectralPropagator(_number_hamiltonian(dim, omega)).evolve_grid(
        coherent_state(alpha, dim), [t])[:, 0]
    ref = coherent_state(alpha * np.exp(-1j * omega * t), dim)
    fidelity = abs(np.vdot(ref, out))
    assert fidelity >= 1.0 - 1e-10


def test_evolve_composition():
    dim = 32
    rng = np.random.default_rng(11)
    prop = SpectralPropagator(_one_sector(dim, rng.normal(size=dim),
                                          rng.normal(size=dim - 1)))
    psi = coherent_state(0.8, dim)
    one = prop.evolve_grid(prop.evolve_grid(psi, [0.7])[:, 0], [1.9])[:, 0]
    two = prop.evolve_grid(psi, [2.6])[:, 0]
    assert np.linalg.norm(one - two) < 1e-10


def test_evolve_full_model_unitarity():
    """One jump period under the full Hamiltonian: norm exact, energy
    drift at rounding level."""
    from lcdeco.circuit import model_params
    from lcdeco.hamiltonians import build_full_hamiltonian

    m = model_params(1.0, 1.8, 0.056)    # gamma = 0.07
    dim = 64
    H = build_full_hamiltonian(m, dim)
    psi = joint_state(1.0, 1.0, coherent_state(2.0, dim))
    prop = SpectralPropagator(H)
    ts = np.linspace(0.0, math.pi / m.Omega, 40)
    grid = prop.evolve_grid(psi, ts)
    norms = np.linalg.norm(grid, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    Hd = H.dense()
    e0 = np.vdot(psi, Hd @ psi).real
    energies = np.real(np.sum(np.conj(grid) * (Hd @ grid), axis=0))
    assert np.max(np.abs(energies - e0)) <= 1e-10 * max(abs(e0), 1.0)


def test_sector_dense_layout():
    H = SectorHamiltonian(4, [Sector([0, 3], [1.0, 2.0], [5.0]),
                              Sector([2, 1], [3.0, 4.0], [6.0])])
    assert np.array_equal(H.dense(), [[1.0, 0.0, 0.0, 5.0],
                                      [0.0, 4.0, 6.0, 0.0],
                                      [0.0, 6.0, 3.0, 0.0],
                                      [5.0, 0.0, 0.0, 2.0]])


@pytest.mark.parametrize("diag, offdiag", [
    ([1.0, np.nan, 2.0], [0.5, 0.5]),
    ([1.0, 2.0, 3.0], [np.inf, 0.5]),
    ([1.0, 2.0 + 1e-3j, 3.0], [0.5, 0.5]),
    ([1.0, 2.0, 3.0], np.array([0.5, 0.5], dtype=complex)),
    ([1.0, 2.0, 3.0], [0.5]),
])
def test_sector_rejects_bad_entries(diag, offdiag):
    with pytest.raises(ValueError):
        Sector(np.arange(3), diag, offdiag)


def test_sector_hamiltonian_rejects_bad_partition():
    with pytest.raises(ValueError):
        SectorHamiltonian(3, [Sector([0, 1], [1.0, 2.0], [0.5]),
                              Sector([1], [3.0], [])])
    with pytest.raises(TypeError):
        SpectralPropagator(np.eye(3))


def test_pruned_weight_bounded_and_reproduced():
    """A coherent state far from the vacuum has eigencomponents of weight
    far below PRUNE_TOL; the dropped weight stays within PRUNE_TOL and
    the kept part reproduces the unpruned evolution to √PRUNE_TOL."""
    dim = 160
    rng = np.random.default_rng(4)
    H = _one_sector(dim, np.arange(dim) + 0.1 * rng.normal(size=dim),
                    0.3 * np.sqrt(np.arange(1.0, dim)))
    psi = coherent_state(7.0, dim)
    prop = SpectralPropagator(H)
    pruned = prop.pruned_weight(psi)
    assert 0.0 < pruned <= PRUNE_TOL
    ts = np.linspace(0.0, 5.0, 7)
    w, V = np.linalg.eigh(H.dense())
    ref = V @ (np.exp(-1j * np.outer(w, ts)) * (V.T @ psi)[:, None])
    assert np.max(np.abs(prop.evolve_grid(psi, ts) - ref)) \
        <= math.sqrt(PRUNE_TOL) + 1e-13


def test_leakage_guard_adds_pruned_weight():
    dim = 16
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    psi[-1] = math.sqrt(0.81 * LEAK_TOL)
    leak = assert_leakage(psi)
    assert leak == pytest.approx(0.81 * LEAK_TOL, rel=1e-12)
    # (0.9 + 0.1)² · LEAK_TOL: the pruned weight alone is below the
    # tolerance and so is the population, but their worst case is not
    with pytest.raises(TruncationError):
        assert_leakage(psi, pruned=0.01 * LEAK_TOL)
    assert assert_leakage(psi, pruned=PRUNE_TOL) > leak


def test_overlap_basics():
    psi = coherent_state(1.2, 32)
    assert abs(overlap(psi, psi) - 1.0) < 1e-12
    assert overlap(fock_state(1, 8), fock_state(3, 8)) == 0.0
    # <0|alpha> = e^{-|alpha|^2/2}
    val = overlap(fock_state(0, 64), coherent_state(1.0, 64))
    assert abs(val - math.exp(-0.5)) < 1e-10


def test_overlap_shape_mismatch():
    with pytest.raises(ValueError):
        overlap(fock_state(0, 8), fock_state(0, 9))


def test_partial_trace_product_state():
    dim = 32
    c0, c1 = 0.6, 0.8
    rho = partial_trace_qubit(joint_state(c0, c1, coherent_state(1.0, dim)),
                              dim)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert abs(rho[0, 1] - c0 * np.conj(c1)) < 1e-12
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-12


def test_partial_trace_branch_state():
    # c0|0>|s0> + c1|1>|s1>  ->  rho01 = c0 conj(c1) <s1|s0>
    dim = 48
    c0 = 1.0 / math.sqrt(3.0)
    c1 = math.sqrt(2.0 / 3.0)
    s0 = coherent_state(1.0, dim)
    s1 = coherent_state(1.0j, dim)
    psi = np.concatenate([c0 * s0, c1 * s1])
    rho = partial_trace_qubit(psi, dim)
    expected = c0 * np.conj(c1) * overlap(s1, s0)
    assert abs(rho[0, 1] - expected) < 1e-12


def test_partial_trace_orthogonal_branches():
    dim = 16
    s = 1.0 / math.sqrt(2.0)
    psi = np.concatenate([s * fock_state(0, dim), s * fock_state(1, dim)])
    rho = partial_trace_qubit(psi, dim)
    assert abs(rho[0, 1]) == 0.0
    assert abs(rho[0, 0] - 0.5) < 1e-12
