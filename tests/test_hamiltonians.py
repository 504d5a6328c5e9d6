"""Full and effective Hamiltonians, squeeze coefficients, block fits."""

import math

import numpy as np
import pytest

from dense_ref import (SIGMA_Y, SIGMA_Z, annihilation_op, charge_occupation,
                       coherence, dense, dense_evolution, number_op,
                       position_quad)
from lcdeco.circuit import model_params, params_from_dimensionless
from lcdeco.decoherence import level_masks
from lcdeco.errors import RegimeError, TruncationError
from lcdeco.fock import (Sector, SectorHamiltonian, SpectralPropagator,
                         coherent_state, hermitian_eig, joint_state)
from lcdeco.hamiltonians import (SW_LEVELS, branch_sign,
                                 build_effective_hamiltonian,
                                 build_full_hamiltonian, effective_block,
                                 evolution_coefficients,
                                 fit_branch_coefficients, predicted_moments,
                                 schrieffer_wolff_check,
                                 squeeze_coefficients)
from lcdeco.observables import charge_form

M_REF = params_from_dimensionless(1.8, 0.05)


def _kron_full(m, dim):
    """The full H assembled densely from its operator definition."""
    ident = np.eye(dim, dtype=complex)
    return (m.omega * np.kron(np.eye(2, dtype=complex), number_op(dim))
            - 0.5 * m.omega_a * np.kron(SIGMA_Z, ident)
            + m.g * np.kron(SIGMA_Y, position_quad(dim)))


def _dense_effective(k, m, dim):
    a = annihilation_op(dim)
    eps = m.eps0 if k == 0 else m.eps1
    return (m.omega_tilde * number_op(dim)
            + branch_sign(k) * m.lam * (a @ a + a.conj().T @ a.conj().T)
            + eps * np.eye(dim, dtype=complex))


def _spectrum(H):
    """Every eigenvalue of a SectorHamiltonian, ascending."""
    return np.sort(np.concatenate([hermitian_eig(s.diag, s.offdiag)[0]
                                   for s in H.sectors]))


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
        assert np.array_equal(dense(build_full_hamiltonian(m, dim)),
                              _kron_full(m, dim))
        for k in (0, 1):
            assert np.array_equal(
                dense(build_effective_hamiltonian(k, m, dim)),
                _dense_effective(k, m, dim))


def test_builders_from_n_lo_are_the_dense_reference_cut():
    """Started at level n_lo, odd and even, each builder is its dense
    reference with the levels below n_lo of every branch deleted, entry
    for entry."""
    for i, (m, dim) in enumerate(_random_regimes(47, 12)):
        n_lo = i % (dim - 1)
        keep = np.r_[n_lo:dim, dim + n_lo:2 * dim]
        assert np.array_equal(dense(build_full_hamiltonian(m, dim, n_lo)),
                              _kron_full(m, dim)[np.ix_(keep, keep)])
        for k in (0, 1):
            assert np.array_equal(
                dense(build_effective_hamiltonian(k, m, dim, n_lo)),
                _dense_effective(k, m, dim)[n_lo:, n_lo:])


def test_builders_reject_windows_below_two_levels():
    for n_lo in (-1, 31, 1.5):
        with pytest.raises(ValueError):
            build_full_hamiltonian(M_REF, 32, n_lo)
        with pytest.raises(ValueError):
            build_effective_hamiltonian(0, M_REF, 32, n_lo)


def _eigh_grid(H, psi, ts):
    w, V = np.linalg.eigh(H)
    c = V.conj().T @ psi
    return V @ (np.exp(-1j * np.outer(w, ts)) * c[:, None])


def test_sector_propagation_matches_dense_eigh():
    """ρ_01 and P_c (at θ = 1.1, so each sector's own form keeps its
    imbalance lines) of the full H, and ρ_01 = ⟨s₁|s₀⟩ of the effective
    model's H₀ ⊕ H₁, from SpectralPropagator.evolve_grid: each within
    1e-12 of the dense eigendecomposition of the operator-defined H."""
    ts = np.linspace(0.0, 12.0, 25)
    theta = 1.1
    for i, (m, dim) in enumerate(_random_regimes(43, 8)):
        dim = max(dim, 40)     # holds |alpha| ~ 1.5 with a clean tail
        alpha = 1.5 * np.exp(0.7j * (i + 1))
        osc = coherent_state(alpha, dim)
        psi = joint_state(0.6, 0.8j, osc)
        H = build_full_hamiltonian(m, dim)
        mask_a, mask_b = level_masks(H)
        P = SpectralPropagator(H)
        ref = _eigh_grid(_kron_full(m, dim), psi, ts)
        rho01 = P.evolve_grid(psi, ts, [(1, 0, mask_a), (0, 1, mask_b)])
        assert np.max(np.abs(rho01 - coherence(ref))) <= 1e-12
        pc = P.evolve_grid(psi, ts, charge_form(H, theta)).real
        assert np.max(np.abs(pc - charge_occupation(ref, theta))) <= 1e-12
        h0, h1 = (build_effective_hamiltonian(k, m, dim) for k in (0, 1))
        joint = SectorHamiltonian(2 * dim, h0.sectors + tuple(
            Sector(s.index + dim, s.diag, s.offdiag) for s in h1.sectors))
        overlap = SpectralPropagator(joint).evolve_grid(
            np.concatenate([osc, osc]), ts,
            [(2 + p, p, np.ones(len(s.index)))
             for p, s in enumerate(h0.sectors)])
        branches = [_eigh_grid(_dense_effective(k, m, dim), osc, ts)
                    for k in (0, 1)]
        assert np.max(np.abs(overlap - np.sum(
            branches[0] * np.conj(branches[1]), axis=0))) <= 1e-12


def test_full_hamiltonian_uncoupled_spectrum():
    m = params_from_dimensionless(1.8, 0.0)
    dim = 12
    w = _spectrum(build_full_hamiltonian(m, dim))
    expected = np.sort(np.concatenate(
        [np.arange(dim) * m.omega - 0.5 * m.omega_a,
         np.arange(dim) * m.omega + 0.5 * m.omega_a]))
    assert np.max(np.abs(w - expected)) < 1e-12


def test_full_hamiltonian_hermitian_random_params():
    # the operator-defined H is real and symmetric, which is what lets
    # the builder hand it over as real tridiagonal sectors
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = params_from_dimensionless(rng.uniform(1.2, 4.0),
                                      rng.uniform(0.0, 0.15))
        K = _kron_full(m, 24)
        assert not np.any(K.imag)
        assert np.array_equal(K, K.T)


def test_full_hamiltonian_ground_energy_dispersive_shift():
    """Numeric ground energy vs second-order perturbation theory.

    The exact second-order shift of |0, n=0> is -g^2/(omega_a + omega)
    (the only virtual state is |1, n=1>), so the ground level sits below
    -omega_a/2 by that amount.  Note the denominator: the sum frequency,
    not the detuning."""
    m = M_REF
    w = _spectrum(build_full_hamiltonian(m, 64))
    shift = w[0] - (-0.5 * m.omega_a)
    shift_ref = -m.g ** 2 / (m.omega_a + m.omega)
    assert abs(shift - shift_ref) <= 2e-3 * abs(shift_ref)
    assert shift < 0.0


def test_effective_hamiltonian_uncoupled():
    m = params_from_dimensionless(1.8, 0.0)
    dim = 10
    h0 = dense(build_effective_hamiltonian(0, m, dim))
    h1 = dense(build_effective_hamiltonian(1, m, dim))
    ref = m.omega * number_op(dim)
    assert np.max(np.abs(h0 - (ref - 0.5 * m.omega_a * np.eye(dim)))) < 1e-12
    assert np.max(np.abs(h1 - (ref + 0.5 * m.omega_a * np.eye(dim)))) < 1e-12


def test_effective_hamiltonian_branch_swap():
    dim = 16
    h0 = dense(build_effective_hamiltonian(0, M_REF, dim))
    h1 = dense(build_effective_hamiltonian(1, M_REF, dim))
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
        w = _spectrum(build_effective_hamiltonian(k, M_REF, dim))
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
    """<a>, <a^2>, <a+a> of the coherent state evolved under H_k on the
    truncated space (the dense reference) agree with the
    Bogoliubov-predicted Gaussian moments.  This is the operational
    content of the closed-form squeeze solution."""
    dim = 64
    alpha = 2.0
    a = annihilation_op(dim)
    a2 = a @ a
    nn = number_op(dim)
    psi0 = coherent_state(alpha, dim)
    ts = [0.0, 0.3, math.pi / (2 * M_REF.Omega), 2.7]
    for k in (0, 1):
        states = dense_evolution(build_effective_hamiltonian(k, M_REF, dim),
                                 psi0, ts)
        for t, psi in zip(ts, states.T):
            ma, m2, mn = predicted_moments(k, M_REF, alpha, t)
            assert abs(np.vdot(psi, a @ psi) - ma) < 1e-6
            assert abs(np.vdot(psi, a2 @ psi) - m2) < 1e-6
            assert abs(np.vdot(psi, nn @ psi).real - mn) < 1e-6


def test_sw_check_uncoupled_is_exact():
    rep = schrieffer_wolff_check(params_from_dimensionless(1.8, 0.0), dim=32)
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


def test_sw_check_two_sector_solves_per_model(monkeypatch):
    calls = []

    def counted(diag, offdiag):
        calls.append(len(diag))
        return hermitian_eig(diag, offdiag)

    def no_dense_solve(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr("lcdeco.hamiltonians.hermitian_eig", counted)
    monkeypatch.setattr(np.linalg, "eigh", no_dense_solve)
    schrieffer_wolff_check(model_params(1.0, 10.0, 0.45), dim=32)
    assert calls == [32, 32]


def _dense_block(m, dim, k):
    """Branch k's effective block from a dense eigh of the whole full H,
    with every eigenvector classified by its weights: on qubit 0 for the
    branch, on the rows |q, n⟩ with q + n odd for the parity sector.
    Per sector it takes as many of the branch's lowest states as the bare
    rows |k, n < SW_LEVELS⟩ have of that parity and rotates them onto
    those rows with the polar factor of their overlap.  Returns the block
    and the selected eigenvalues."""
    w, V = np.linalg.eigh(dense(build_full_hamiltonian(m, dim)))
    pop0 = np.sum(V[:dim, :] ** 2, axis=0)
    in_branch = pop0 > 0.5 if k == 0 else pop0 <= 0.5
    n = np.arange(dim)
    parity = np.concatenate([n % 2, (n + 1) % 2])   # q + n mod 2, by row
    odd = np.sum(V[parity == 1, :] ** 2, axis=0) > 0.5
    bare = parity[k * dim:k * dim + SW_LEVELS]
    sel = []
    for p in (0, 1):
        found = np.flatnonzero(in_branch & (odd == p))
        want = int(np.sum(bare == p))
        if len(found) < want:
            raise RegimeError("branch %d: %d states of parity %d, %d wanted"
                              % (k, len(found), p, want))
        sel.append(found[:want])
    sel = np.sort(np.concatenate(sel))
    wm, s, qh = np.linalg.svd(V[k * dim:k * dim + SW_LEVELS, sel])
    if s[-1] < 1e-6:
        raise RegimeError("smallest overlap singular value %.2e" % s[-1])
    rot = wm @ qh
    return rot @ np.diag(w[sel]) @ rot.T, w[sel]


def _sector_solves(m, dim):
    return [(s.index, *hermitian_eig(s.diag, s.offdiag))
            for s in build_full_hamiltonian(m, dim).sectors]


def _sw_regimes():
    """Random regimes up to the gamma = 0.15 limit, after the pinned regime
    omega_a = 10, gamma = 0.15, whose lowest 24 states of branch 1 split
    11/13 across the parity sectors at dim 64."""
    rng = np.random.default_rng(61)
    regimes = [params_from_dimensionless(10.0, 0.15 * 9.0)]
    for _ in range(40):
        omega_a = rng.uniform(1.5, 12.0)
        regimes.append(params_from_dimensionless(
            omega_a, rng.uniform(0.0, 0.15) * (omega_a - 1.0)))
    return regimes


def test_sw_check_sector_extraction_matches_dense_eigh():
    """The sector solves give the dense solve's fitted (omega, lambda),
    and fail with the same error where the extraction is ill-conditioned,
    over random regimes up to the gamma = 0.15 limit, at even and odd
    dims.  Selecting per sector, both paths extract the pinned regime."""
    failed = []
    for i, m in enumerate(_sw_regimes()):
        for dim in (32, 33, 64):
            try:
                ref = [fit_branch_coefficients(_dense_block(m, dim, k)[0])
                       for k in (0, 1)]
            except RegimeError as exc:
                failed.append((i, dim))
                with pytest.raises(type(exc)):
                    schrieffer_wolff_check(m, dim=dim)
                continue
            rep = schrieffer_wolff_check(m, dim=dim)
            for b, (omega_fit, lam_fit) in zip(rep.branches, ref):
                assert abs(b.omega_fit - omega_fit) <= 1e-12
                assert abs(b.lam_fit - lam_fit) <= 1e-12
    assert [f for f in failed if f[0] == 0] == []


def test_effective_block_selects_the_dense_states():
    """Per branch, the block built from the sector solves has the dense
    path's selected eigenvalues as its spectrum, and the dense path's
    entries to 1e-12 of the spectral scale, with exact zeros between
    levels of opposite parity.  (Near a resonance the polar factor of a
    poorly conditioned overlap moves far entries by up to 5.6e-12 at
    |w| = 28 while the fitted entries agree to 1e-14.)"""
    odd = (np.arange(SW_LEVELS)[:, None] + np.arange(SW_LEVELS)) % 2 == 1
    for m in _sw_regimes():
        for dim in (32, 33, 64):
            sectors = _sector_solves(m, dim)
            for k in (0, 1):
                ref, w_sel = _dense_block(m, dim, k)
                block = effective_block(sectors, k)
                scale = np.max(np.abs(w_sel))
                assert np.max(np.abs(np.linalg.eigvalsh(block) - w_sel)) \
                    <= 1e-12 * scale
                assert np.max(np.abs(block - ref)) <= 1e-12 * scale
                assert np.max(np.abs(block - block.T)) <= 1e-12 * scale
                assert np.all(block[odd] == 0.0)


def test_sw_check_rejects_dim_below_extracted_levels():
    m = model_params(1.0, 10.0, 0.45)
    with pytest.raises(TruncationError) as err:
        schrieffer_wolff_check(m, dim=SW_LEVELS - 4)
    assert err.value.suggested_dim == SW_LEVELS
    schrieffer_wolff_check(m, dim=SW_LEVELS)


def test_sw_check_rejects_strong_coupling():
    with pytest.raises(RegimeError):
        schrieffer_wolff_check(model_params(1.0, 2.0, 0.2), dim=64)
