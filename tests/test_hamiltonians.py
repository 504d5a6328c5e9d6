"""Full and effective Hamiltonians, squeeze coefficients, block fits."""

import math

import numpy as np
import pytest

from lcdeco.circuit import model_params, params_from_dimensionless
from lcdeco.errors import RegimeError
from lcdeco.fock import (SpectralPropagator, annihilation_op,
                         check_hermitian, coherent_state, hermitian_eig,
                         joint_state, number_op, position_quad, qubit_op,
                         tensor)
from lcdeco.hamiltonians import (branch_sign, build_effective_hamiltonian,
                                 build_full_hamiltonian,
                                 evolution_coefficients, predicted_moments,
                                 schrieffer_wolff_check,
                                 squeeze_coefficients)

M_REF = params_from_dimensionless(1.8, 0.05)


def _kron_full(m, dim):
    """The full H assembled densely from its operator definition."""
    ident = np.eye(dim, dtype=complex)
    return (m.omega * tensor(np.eye(2), number_op(dim))
            - 0.5 * m.omega_a * tensor(qubit_op("sigma_z"), ident)
            + m.g * tensor(qubit_op("sigma_y"), position_quad(dim)))


def _dense_effective(k, m, dim):
    a = annihilation_op(dim)
    eps = m.eps0 if k == 0 else m.eps1
    return (m.omega_tilde * number_op(dim)
            + branch_sign(k) * m.lam * (a @ a + a.conj().T @ a.conj().T)
            + eps * np.eye(dim, dtype=complex))


def _random_regimes(seed, count):
    """(model, dim) over omega_a in [1.2, 12], gamma <= 0.15, odd and even
    dim."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        omega_a = rng.uniform(1.2, 12.0)
        g = rng.uniform(0.0, 0.15) * (omega_a - 1.0)
        yield (params_from_dimensionless(omega_a, g),
               2 * int(rng.integers(1, 32)) + i % 2)


def test_sector_builders_match_dense_reference_exactly():
    for m, dim in _random_regimes(41, 20):
        assert np.array_equal(build_full_hamiltonian(m, dim).dense(),
                              _kron_full(m, dim))
        for k in (0, 1):
            assert np.array_equal(
                build_effective_hamiltonian(k, m, dim).dense(),
                _dense_effective(k, m, dim))


def _eigh_grid(H, psi, ts):
    w, V = np.linalg.eigh(H)
    c = V.conj().T @ psi
    return V @ (np.exp(-1j * np.outer(w, ts)) * c[:, None])


def test_sector_propagation_matches_dense_eigh():
    ts = np.linspace(0.0, 12.0, 25)
    for i, (m, dim) in enumerate(_random_regimes(43, 8)):
        dim = max(dim, 40)     # holds |alpha| ~ 1.5 with a clean tail
        alpha = 1.5 * np.exp(0.7j * (i + 1))
        osc = coherent_state(alpha, dim)
        psi = joint_state(0.6, 0.8j, osc)
        got = SpectralPropagator(build_full_hamiltonian(m, dim)) \
            .evolve_grid(psi, ts)
        ref = _eigh_grid(_kron_full(m, dim), psi, ts)
        assert np.max(np.abs(got - ref)) <= 1e-12
        for k in (0, 1):
            got = SpectralPropagator(build_effective_hamiltonian(k, m, dim)) \
                .evolve_grid(osc, ts)
            ref = _eigh_grid(_dense_effective(k, m, dim), osc, ts)
            assert np.max(np.abs(got - ref)) <= 1e-12


def test_full_hamiltonian_uncoupled_spectrum():
    m = params_from_dimensionless(1.8, 0.0)
    dim = 12
    w, _ = hermitian_eig(build_full_hamiltonian(m, dim).dense())
    expected = np.sort(np.concatenate(
        [np.arange(dim) * m.omega - 0.5 * m.omega_a,
         np.arange(dim) * m.omega + 0.5 * m.omega_a]))
    assert np.max(np.abs(w - expected)) < 1e-12


def test_full_hamiltonian_hermitian_random_params():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = params_from_dimensionless(rng.uniform(1.2, 4.0),
                                      rng.uniform(0.0, 0.15))
        check_hermitian(build_full_hamiltonian(m, 24).dense())


def test_full_hamiltonian_ground_energy_dispersive_shift():
    """Numeric ground energy vs second-order perturbation theory.

    The exact second-order shift of |0, n=0> is -g^2/(omega_a + omega)
    (the only virtual state is |1, n=1>), so the ground level sits below
    -omega_a/2 by that amount.  Note the denominator: the sum frequency,
    not the detuning."""
    m = M_REF
    w, _ = hermitian_eig(build_full_hamiltonian(m, 64).dense())
    shift = w[0] - (-0.5 * m.omega_a)
    shift_ref = -m.g ** 2 / (m.omega_a + m.omega)
    assert abs(shift - shift_ref) <= 2e-3 * abs(shift_ref)
    assert shift < 0.0


def test_effective_hamiltonian_uncoupled():
    m = params_from_dimensionless(1.8, 0.0)
    dim = 10
    h0 = build_effective_hamiltonian(0, m, dim).dense()
    h1 = build_effective_hamiltonian(1, m, dim).dense()
    ref = m.omega * number_op(dim)
    assert np.max(np.abs(h0 - (ref - 0.5 * m.omega_a * np.eye(dim)))) < 1e-12
    assert np.max(np.abs(h1 - (ref + 0.5 * m.omega_a * np.eye(dim)))) < 1e-12


def test_effective_hamiltonian_branch_swap():
    dim = 16
    h0 = build_effective_hamiltonian(0, M_REF, dim).dense()
    h1 = build_effective_hamiltonian(1, M_REF, dim).dense()
    diff = h1 - h0
    # constant offset on the diagonal...
    assert np.max(np.abs(np.diag(diff) - (M_REF.eps1 - M_REF.eps0))) < 1e-12
    # ...and a flipped squeeze term off the diagonal
    a = annihilation_op(dim)
    sq = a @ a + a.conj().T @ a.conj().T
    off = diff - np.diag(np.diag(diff))
    assert np.max(np.abs(off - (-2.0 * M_REF.lam) * (sq - np.diag(np.diag(sq))))) < 1e-12


def test_effective_hamiltonian_interior_gap():
    dim = 128
    for k in (0, 1):
        w, _ = hermitian_eig(
            build_effective_hamiltonian(k, M_REF, dim).dense())
        gaps = np.diff(w[: int(0.9 * dim)])   # top 10% excluded
        assert np.max(np.abs(gaps - M_REF.Omega)) <= 1e-9 * M_REF.Omega


def test_branch_sign():
    assert branch_sign(0) == 1.0 and branch_sign(1) == -1.0
    with pytest.raises(ValueError):
        branch_sign(2)


def test_squeeze_uncoupled():
    m = params_from_dimensionless(1.8, 0.0)
    mu, nu = squeeze_coefficients(0, m, 0.37)
    assert abs(mu - np.exp(1j * m.omega * 0.37)) < 1e-12
    assert nu == 0.0


def test_squeeze_invariant_random():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(300):
        m = params_from_dimensionless(rng.uniform(1.3, 4.0),
                                      rng.uniform(0.0, 0.15))
        mu, nu = squeeze_coefficients(int(rng.integers(0, 2)), m,
                                      rng.uniform(0.0, 20.0))
        worst = max(worst, abs(abs(mu) ** 2 - abs(nu) ** 2 - 1.0))
    assert worst < 1e-12


def test_evolution_coefficients_start_at_identity():
    u, v = evolution_coefficients(0, M_REF, 0.0)
    assert abs(u - 1.0) < 1e-15 and abs(v) < 1e-15


def test_moments_match_fock_evolution():
    """<a>, <a^2>, <a+a> of the evolved coherent state agree with the
    Bogoliubov-predicted Gaussian moments.  This is the operational
    content of the closed-form squeeze solution."""
    dim = 64
    alpha = 2.0
    a = annihilation_op(dim)
    a2 = a @ a
    nn = number_op(dim)
    psi0 = coherent_state(alpha, dim)
    for k in (0, 1):
        prop = SpectralPropagator(build_effective_hamiltonian(k, M_REF, dim))
        for t in (0.0, 0.3, math.pi / (2 * M_REF.Omega), 2.7):
            psi = prop.evolve_grid(psi0, [t])[:, 0]
            ma, m2, mn = predicted_moments(k, M_REF, alpha, t)
            assert abs(np.vdot(psi, a @ psi) - ma) < 1e-6
            assert abs(np.vdot(psi, a2 @ psi) - m2) < 1e-6
            assert abs(np.vdot(psi, nn @ psi).real - mn) < 1e-6


def test_sw_check_uncoupled_is_exact():
    rep = schrieffer_wolff_check(params_from_dimensionless(1.8, 0.0),
                                 dim=32, n_levels=12, n_fit=6)
    assert rep.max_omega_dev < 1e-12
    assert rep.max_lam_dev < 1e-12


def test_sw_check_tolerances_at_gamma_005():
    # far-detuned point so the folded 1/Delta denominators are a fair
    # stand-in for the true 1/(omega_a + omega) ones
    m = model_params(1.0, 10.0, 0.45)
    assert abs(m.gamma - 0.05) < 1e-12
    rep = schrieffer_wolff_check(m, dim=64)
    assert rep.max_omega_dev <= 0.10
    assert rep.max_lam_dev <= 0.15
    # frozen probes (regression guards, not physics claims)
    assert abs(rep.max_omega_dev - 0.0798927) < 5e-4
    assert abs(rep.max_lam_dev - 0.133726) < 5e-4


def test_sw_check_monotone_in_gamma():
    m1 = model_params(1.0, 10.0, 0.45)
    m2 = model_params(1.0, 10.0, 0.90)
    r1 = schrieffer_wolff_check(m1, dim=64)
    r2 = schrieffer_wolff_check(m2, dim=64)
    assert r1.max_omega_dev < r2.max_omega_dev
    assert r1.max_lam_dev < r2.max_lam_dev


def test_sw_check_one_eigendecomposition_per_model(monkeypatch):
    calls = []

    def counted(M):
        calls.append(M.shape)
        return hermitian_eig(M)

    monkeypatch.setattr("lcdeco.hamiltonians.hermitian_eig", counted)
    schrieffer_wolff_check(model_params(1.0, 10.0, 0.45), dim=32)
    assert calls == [(64, 64)]


def test_sw_check_rejects_strong_coupling():
    with pytest.raises(RegimeError):
        schrieffer_wolff_check(model_params(1.0, 2.0, 0.2))
