"""Truncated-Fock-space basics: coherent and joint states, the leakage
guard, and evolution, read through the quadratic forms its callers
take (the qubit coherence ρ_01 and the charge occupation P_c), held to
the dense reference."""

import ast
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_ref import (PROJECTOR_0, SIGMA_X, SIGMA_Y, SIGMA_Z,
                       annihilation_op, charge_occupation, coherence, dense,
                       dense_evolution, edge_population, fock_state,
                       number_op, partial_trace_qubit, position_quad)
from lcdeco.errors import TruncationError
from lcdeco.fock import (COHERENT_TAIL_TOL, LEAK_LEVELS, LEAK_TOL, PRUNE_TOL,
                         Sector, SectorHamiltonian, SpectralPropagator,
                         assert_leakage, coherent_mass_below, coherent_state,
                         coherent_tail_mass, hermitian_eig, joint_state,
                         min_adequate_dim)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "lcdeco")


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
    assert np.linalg.norm(a @ coherent_state(0.0, 16)) == 0.0


def test_annihilation_rejects_tiny_space():
    # a needs two levels; every truncated space rejects fewer
    with pytest.raises(ValueError):
        coherent_state(0.0, 1)


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


def test_coherent_amplitudes_match_gammaln_at_alpha_30():
    """The math.lgamma pmf against scipy's gammaln, the test-only
    reference, at the paper's largest amplitude."""
    from scipy.special import gammaln
    n = np.arange(1200)
    ref = np.exp(n * math.log(30.0) - 0.5 * gammaln(n + 1.0) - 450.0)
    ref /= np.linalg.norm(ref)
    assert np.max(np.abs(coherent_state(30.0, 1200) - ref)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.05, 0.7, 3.0 - 1.0j, 10.0, 30.0, 35.0])
def test_coherent_tail_mass_matches_gammainc(alpha):
    """P(n >= dim) = gammainc(dim, |alpha|^2), from below the mean to far
    out in the tail (wherever the reference is a normal double)."""
    from scipy.special import gammainc
    lam = abs(alpha) ** 2
    for dim in (2, int(lam) + 1, int(lam + 3 * abs(alpha)) + 2,
                min_adequate_dim(alpha),
                min_adequate_dim(alpha) + int(8 * abs(alpha)) + 20):
        ref = gammainc(dim, lam)
        assert ref > 1e-300
        assert abs(coherent_tail_mass(alpha, dim) - ref) <= 1e-10 * ref


def test_min_adequate_dim_matches_gammainc_scan():
    """The first dim >= 2 with gammainc(dim, |alpha|^2) below
    COHERENT_TAIL_TOL, scanned level by level, for alpha = 0 ... 35; at
    alpha = 1e-7, where the tail above level 2 is already below it; and
    at alpha = 100 and 300, where the crossing lies 528 and 1521 levels
    below the top of min_adequate_dim's one sum."""
    from scipy.special import gammainc
    grid = np.round(np.arange(0.0, 35.0 + 1e-9, 0.05), 2)
    for alpha in np.concatenate([grid, [1e-7, 100.0, 300.0]]):
        dims = np.arange(2, int(alpha ** 2 + 12 * alpha) + 60)
        below = gammainc(dims, alpha ** 2) < COHERENT_TAIL_TOL
        assert min_adequate_dim(alpha) == dims[np.argmax(below)], alpha


def test_qubit_conventions():
    # the literals the dense reference of the full H is built from
    sz = SIGMA_Z
    e0 = np.array([1.0, 0.0], dtype=complex)
    assert np.array_equal(sz @ e0, e0)          # sigma_z |0> = +|0>
    sy = SIGMA_Y
    assert np.allclose(sy @ sy, np.eye(2))
    # direct 2x2 multiplication with these conventions
    # (sigma_y = -i(|1><0| - |0><1|), the sign-flipped standard Pauli):
    sx = SIGMA_X
    comm = sx @ sy - sy @ sx
    assert np.max(np.abs(comm - (-2j) * sz)) < 1e-15


def test_tensor_ordering_qubit_slow():
    # kron(projector_0, N) on |0> x |n> must return n times the state
    dim = 6
    n = 4
    v = joint_state(1.0, 0.0, fock_state(n, dim))
    assert v[0 * dim + n] == 1.0
    out = np.kron(PROJECTOR_0, number_op(dim)) @ v
    assert np.allclose(out, n * v)
    # and annihilate the |1> branch entirely
    w = joint_state(0.0, 1.0, fock_state(n, dim))
    assert w[1 * dim + n] == 1.0
    assert np.linalg.norm(np.kron(PROJECTOR_0, number_op(dim)) @ w) == 0.0


def test_tensor_sigma_z_balanced_superposition():
    dim = 32
    psi = joint_state(1.0, 1.0, coherent_state(1.0, dim))
    val = np.vdot(psi, np.kron(SIGMA_Z, np.eye(dim)) @ psi)
    assert abs(val) < 1e-12


def test_hermitian_eig_diagonal():
    w, _ = hermitian_eig([3.0, -1.0, 2.0], [0.0, 0.0])
    assert np.allclose(w, [-1.0, 2.0, 3.0])


def test_hermitian_eig_number_op():
    # a†a is diagonal: its chain has no couplings
    w, V = hermitian_eig(np.diag(number_op(8)).real, np.zeros(7))
    assert np.allclose(w, np.arange(8.0), atol=1e-12)
    assert np.allclose(np.abs(V), np.eye(8), atol=1e-12)


def test_hermitian_eig_residuals_random():
    rng = np.random.default_rng(7)
    diag, offdiag = rng.normal(size=40), rng.normal(size=39)
    H = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
    w, V = hermitian_eig(diag, offdiag)
    assert not np.iscomplexobj(V)
    assert np.all(np.diff(w) >= 0.0)
    scale = np.linalg.norm(H)
    for i in range(40):
        assert np.linalg.norm(H @ V[:, i] - w[i] * V[:, i]) <= 1e-10 * scale
    assert np.max(np.abs(V.T @ V - np.eye(40))) < 1e-10


def _fig_sector(omega_a, g, alpha, dim):
    """The first parity sector of the full Hamiltonian that a figure's
    run at (omega_a, g, alpha, dim) solves."""
    from lcdeco.circuit import params_from_dimensionless
    from lcdeco.hamiltonians import build_full_hamiltonian, lowest_level

    m = params_from_dimensionless(omega_a, g)
    s = build_full_hamiltonian(m, dim, lowest_level(m, alpha)).sectors[0]
    return s.diag, s.offdiag


def _sector_cases():
    rng = np.random.default_rng(11)
    return {
        "random 2 levels": lambda: (rng.normal(size=2), rng.normal(size=1)),
        "fig2, 96 levels": lambda: _fig_sector(8.0, 0.35, 5.0, 96),
        "fig4, 772 levels": lambda: _fig_sector(8.0, 0.35, 30.0, 1200),
        "one level": lambda: (np.array([0.25]), np.zeros(0)),
    }


@pytest.mark.parametrize("case", list(_sector_cases()))
def test_hermitian_eig_bit_identical_to_scipy_stevd(case):
    """hermitian_eig calls LAPACK's dstevd itself; its eigenvalues and
    eigenvectors are the same bits scipy.linalg.eigh_tridiagonal returns
    with the same driver, so a scipy upgrade that changes either shows
    here.  The driver is named: older scipy defaulted to stemr.  Both run
    on one BLAS thread, since at 772 levels dstevd's bits follow the
    thread count."""
    from scipy.linalg import eigh_tridiagonal

    from lcdeco.fock import _one_blas_thread

    diag, offdiag = _sector_cases()[case]()
    assert len(diag) in (1, 2, 96, 772)
    w, Q = hermitian_eig(diag, offdiag)
    with _one_blas_thread():
        w_ref, Q_ref = eigh_tridiagonal(diag, offdiag, lapack_driver="stevd")
    assert np.array_equal(w, w_ref)
    assert np.array_equal(Q, Q_ref)


def test_hermitian_eig_raises_when_dstevd_fails(monkeypatch):
    """A nonzero LAPACK info is a LinAlgError, as eigh_tridiagonal made
    it."""
    from lcdeco import fock

    monkeypatch.setattr(fock, "_dstevd", lambda: lambda d, e, compute_v: (
        d, np.eye(len(d)), 2))
    with pytest.raises(np.linalg.LinAlgError, match="info=2"):
        hermitian_eig(np.arange(3.0), np.ones(2))


@pytest.fixture
def fresh_dstevd():
    """fock._dstevd's cache emptied before and after the test."""
    from lcdeco import fock

    fock._dstevd.cache_clear()
    yield fock._dstevd
    fock._dstevd.cache_clear()


def test_missing_flapack_extension_names_it(fresh_dstevd, monkeypatch,
                                            tmp_path):
    """A scipy whose linalg folder holds no _flapack extension fails with
    an ImportError that names it, not with a fallback."""
    import types
    import sys

    fake = types.ModuleType("scipy")
    fake.__path__, fake.__version__ = [str(tmp_path)], "0.0"
    monkeypatch.setitem(sys.modules, "scipy", fake)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    with pytest.raises(ImportError, match="_flapack"):
        fresh_dstevd()


def test_flapack_without_dstevd_names_it(fresh_dstevd, monkeypatch):
    import types
    import sys

    fake = types.ModuleType("scipy.linalg._flapack")
    fake.__file__ = "_flapack.so"
    monkeypatch.setitem(sys.modules, "scipy.linalg._flapack", fake)
    with pytest.raises(ImportError, match="has no dstevd"):
        fresh_dstevd()


LATER_IMPORT = """\
import sys
import numpy as np
from lcdeco.fock import hermitian_eig

d, e = np.arange(6.0), np.ones(5)
w, Q = hermitian_eig(d, e)
before = sorted(m for m in sys.modules if m.startswith("scipy.linalg"))
import scipy.linalg
w_ref, Q_ref = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stevd")
w_ext, Q_ext, _ = scipy.linalg._flapack.dstevd(d, e)
print(before, all(np.array_equal(a, b) for a, b in
                  ((w, w_ref), (Q, Q_ref), (w, w_ext), (Q, Q_ext))))
"""


def test_scipy_linalg_imports_after_the_direct_call():
    """In a fresh process, the first eigensolve loads scipy's LAPACK
    wrapper without importing scipy.linalg, and a later normal import of
    scipy.linalg still works, its _flapack submodule included."""
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(
        SRC, os.pardir)))
    done = subprocess.run([sys.executable, "-c", LATER_IMPORT], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=60)
    assert done.stdout.strip() == "[] True"


def test_quadratic_oscillator_interior_gap():
    """Spectrum of wt*n + lam*(a^2 + a+^2) has uniform spacing
    sqrt(wt^2 - 4 lam^2) away from the truncation edge."""
    dim = 128
    wt, lam = 1.1, 0.05
    a = annihilation_op(dim)
    H = (wt * number_op(dim) + lam * (a @ a + a.conj().T @ a.conj().T)).real
    # a² couples n to n + 2, so the even and odd levels are two chains
    w = np.sort(np.concatenate([
        hermitian_eig(np.diag(H)[n], H[n[:-1], n[1:]])[0]
        for n in (np.arange(0, dim, 2), np.arange(1, dim, 2))]))
    gap_ref = math.sqrt(wt * wt - 4.0 * lam * lam)
    interior = np.diff(w[: dim // 2])   # lowest half is edge-clean
    assert np.max(np.abs(interior - gap_ref)) < 1e-9


def test_position_quad_is_hermitian():
    P = position_quad(32)
    assert np.array_equal(P, P.conj().T)


def _number_pair(dim, omegas):
    """ω_k·a†a on dim levels for each branch k, one diagonal sector each:
    the direct sum of two rotating oscillators."""
    return SectorHamiltonian(2 * dim, [
        Sector(np.arange(dim) + k * dim, omega * np.arange(dim),
               np.zeros(dim - 1)) for k, omega in enumerate(omegas)])


def _rho01_form(H):
    """ρ_01 = Σ_n ψ_{0,n}·ψ̄_{1,n} as a form over the full H's two sectors,
    as full_model_coherence reads it."""
    from lcdeco.decoherence import level_masks

    mask_a, mask_b = level_masks(H)
    return [(1, 0, mask_a), (0, 1, mask_b)]


def _charge_form(H, theta=1.1):
    """P_c's form at θ = 1.1, where each sector's own form keeps its
    imbalance lines."""
    from lcdeco.observables import charge_form

    return charge_form(H, theta)


def test_evolve_t0_identity():
    """At t = 0 every form reads the initial state: ρ_01 and P_c of the
    full H."""
    _, H, psi = _full_model(8.0, 0.35, 1.0, 24)
    psi = joint_state(0.6, 0.8j, coherent_state(1.0, 24))
    P = SpectralPropagator(H)
    assert abs(P.evolve_grid(psi, [0.0], _rho01_form(H))[0]
               - coherence(psi)) < 1e-12
    assert abs(P.evolve_grid(psi, [0.0], _charge_form(H))[0].real
               - charge_occupation(psi, 1.1)) < 1e-12


def test_evolve_rotating_coherent_state():
    """ω_k·a†a sends |α⟩ to |α·e^{−iω_k t}⟩, so the overlap of two
    branches rotating at ω₀ and ω₁ is exp(|α|²(e^{i(ω₁−ω₀)t} − 1))."""
    dim = 48
    omegas, alpha = (1.3, 0.4), 1.5
    ts = np.linspace(0.0, 4.0, 9)
    osc = coherent_state(alpha, dim)
    got = SpectralPropagator(_number_pair(dim, omegas)).evolve_grid(
        np.concatenate([osc, osc]), ts, [(1, 0, np.ones(dim))])
    ref = np.exp(alpha ** 2 * (np.exp(1j * (omegas[1] - omegas[0]) * ts)
                               - 1.0))
    assert np.max(np.abs(got - ref)) <= 1e-10


def test_evolve_full_model_unitarity():
    """One jump period under the full Hamiltonian: the norm form (each
    sector with itself, unit weights) stays 1 to rounding, and the
    qubit-0 population, whose form keeps each sector's imbalance lines,
    matches the dense reference."""
    from lcdeco.circuit import model_params
    from lcdeco.decoherence import level_masks
    from lcdeco.hamiltonians import build_full_hamiltonian

    m = model_params(1.0, 1.8, 0.056)    # gamma = 0.07
    dim = 64
    H = build_full_hamiltonian(m, dim)
    psi = joint_state(1.0, 1.0, coherent_state(2.0, dim))
    prop = SpectralPropagator(H)
    ts = np.linspace(0.0, math.pi / m.Omega, 40)
    ones = np.ones(dim)
    norms = prop.evolve_grid(psi, ts, [(0, 0, ones), (1, 1, ones)]).real
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    mask_a, mask_b = level_masks(H)
    p0 = prop.evolve_grid(psi, ts, [(0, 0, mask_a), (1, 1, mask_b)]).real
    ref = np.sum(np.abs(dense_evolution(H, psi, ts)[:dim]) ** 2, axis=0)
    assert np.max(np.abs(p0 - ref)) <= 1e-12


def test_sector_dense_layout():
    H = SectorHamiltonian(4, [Sector([0, 3], [1.0, 2.0], [5.0]),
                              Sector([2, 1], [3.0, 4.0], [6.0])])
    assert np.array_equal(dense(H), [[1.0, 0.0, 0.0, 5.0],
                                      [0.0, 4.0, 6.0, 0.0],
                                      [0.0, 6.0, 3.0, 0.0],
                                      [5.0, 0.0, 0.0, 2.0]])


@pytest.mark.parametrize("diag, offdiag", [
    ([1.0, np.nan, 2.0], [0.5, 0.5]),
    ([1.0, 2.0, 3.0], [np.inf, 0.5]),
    ([1.0, 2.0 + 1e-3j, 3.0], [0.5, 0.5]),
    ([1.0, 2.0, 3.0], np.array([0.5, 0.5], dtype=complex)),
    ([1.0, 2.0, 3.0], [0.5]),
    ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]),
    ([1.0], [0.5]),
])
def test_sector_rejects_bad_entries(diag, offdiag):
    """Sector is where a sector's entries are checked, once: hermitian_eig
    takes a Sector's arrays and does not check them again."""
    with pytest.raises(ValueError):
        Sector(np.arange(len(diag)), diag, offdiag)


def test_sector_hamiltonian_rejects_bad_partition():
    with pytest.raises(ValueError):
        SectorHamiltonian(3, [Sector([0, 1], [1.0, 2.0], [0.5]),
                              Sector([1], [3.0], [])])
    with pytest.raises(TypeError):
        SpectralPropagator(np.eye(3))


def _full_model(omega_a, g, alpha, dim):
    from lcdeco.circuit import params_from_dimensionless
    from lcdeco.hamiltonians import build_full_hamiltonian

    m = params_from_dimensionless(omega_a, g)
    return m, build_full_hamiltonian(m, dim), joint_state(
        1.0, 1.0, coherent_state(alpha, dim))


def test_pruned_weight_bounded_and_reproduced():
    """A coherent state far from the vacuum has eigencomponents of weight
    far below PRUNE_TOL; the dropped weight stays within PRUNE_TOL and a
    form of the kept part, Σ_n w_n·|ψ_n(t)|² with weights that differ
    level to level, reproduces the unpruned evolution's to 1e-12."""
    dim = 160
    rng = np.random.default_rng(4)
    H = _one_sector(dim, np.arange(dim) + 0.1 * rng.normal(size=dim),
                    0.3 * np.sqrt(np.arange(1.0, dim)))
    psi = coherent_state(7.0, dim)
    ts = np.linspace(0.0, 5.0, 7)
    P = SpectralPropagator(H)
    _, pruned = P._banded(psi)
    assert 0.0 < pruned <= PRUNE_TOL
    w = np.linspace(0.5, 1.0, dim)
    got = P.evolve_grid(psi, ts, [(0, 0, w)]).real
    ref = w @ np.abs(dense_evolution(H, psi, ts)) ** 2
    assert np.max(np.abs(got - ref)) <= 1e-12


def _recorded_cuts(monkeypatch):
    """The list that every later fock._band_cut call appends its
    (c, lo, hi) to."""
    from lcdeco import fock

    cuts = []
    band_cut = fock._band_cut

    def recording(Q, c, budget):
        out = band_cut(Q, c, budget)
        cuts.append((c, *out[:2]))
        return out

    monkeypatch.setattr(fock, "_band_cut", recording)
    return cuts


def test_one_band_cut_per_sector_serves_every_chunk(monkeypatch):
    """Full H at α = 10 on 240 levels, a grid evaluated in 4 chunks of at
    most 3 samples, one evolve_grid call each: each call chooses the cut
    once per sector, every call the same cut, a tile multiplies fewer
    than all eigencomponents, and every chunk's ρ_01 matches the dense
    reference to 1e-12."""
    dim = 240
    m, H, psi = _full_model(8.0, 0.35, 10.0, dim)
    ts = np.linspace(0.0, math.pi / m.Omega, 10)
    cuts = _recorded_cuts(monkeypatch)
    P = SpectralPropagator(H)
    rho01 = np.concatenate([P.evolve_grid(psi, ts[lo:lo + 3], _rho01_form(H))
                            for lo in range(0, len(ts), 3)])
    sectors = len(H.sectors)
    assert len(cuts) == 4 * sectors
    for k, (_, lo, hi) in enumerate(cuts):
        _, lo0, hi0 = cuts[k % sectors]
        assert np.array_equal(lo, lo0) and np.array_equal(hi, hi0)
    assert any(0 < np.count_nonzero(c[a:b]) < np.count_nonzero(c)
               for c, lo, hi in cuts for a, b in zip(lo, hi))
    _, pruned = P._banded(psi)
    assert pruned <= PRUNE_TOL * np.linalg.norm(psi) ** 2
    assert np.max(np.abs(rho01 - coherence(dense_evolution(H, psi, ts)))) \
        <= 1e-12


def test_fig4_tiles_multiply_at_most_15_percent_of_each_sector(monkeypatch):
    """At fig4's point (α = 30 on levels lowest_level to 1200) each
    eigenvector reaches only a band of levels: summed over the tiles,
    each sector multiplies at most 15 % of its levels × eigencomponents
    (about 11.5 % measured) in P_c's lines, so a fall back to
    whole-sector products fails here."""
    from lcdeco import fock
    from lcdeco.circuit import params_from_dimensionless
    from lcdeco.decoherence import evolve_form
    from lcdeco.hamiltonians import build_full_hamiltonian, lowest_level

    m = params_from_dimensionless(8.0, 0.35)
    n_lo = lowest_level(m, 30.0)
    H = build_full_hamiltonian(m, 1200, n_lo)
    psi = joint_state(1.0, 1.0, coherent_state(30.0, 1200, n_lo))
    cuts = _recorded_cuts(monkeypatch)
    evolve_form(H, psi, [0.0, 0.1, 0.2], _charge_form(H, m.theta), n_lo)
    assert len(cuts) == len(H.sectors)
    for c, lo, hi in cuts:
        n = len(c)
        tile_rows = np.diff(np.r_[np.arange(0, n, fock.TILE_ROWS), n])
        multiplied = np.sum(tile_rows * np.maximum(hi - lo, 0))
        assert multiplied <= 0.15 * n * n


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 150), st.integers(0, 2 ** 32 - 1),
       st.floats(1.0, 40.0), st.floats(-30.0, 0.0))
def test_band_cut_bounds_the_error_it_reports(n, seed, width, log_budget):
    """Random real tridiagonal sectors and components spread over a random
    band of eigenvalues: whatever the phases, the product over the tiles
    and their column ranges differs from the full Q @ P by a squared norm
    within the weight _band_cut reports (to rounding), and that weight
    within the budget it was given."""
    from lcdeco.fock import TILE_ROWS, _band_cut

    rng = np.random.default_rng(seed)
    _, Q = hermitian_eig(n * rng.normal(size=n), rng.normal(size=n - 1))
    c = (rng.normal(size=n) + 1j * rng.normal(size=n)) * np.exp(
        -((np.arange(n) - rng.uniform(0, n)) / width) ** 2)
    budget = 10.0 ** log_budget * np.sum(np.abs(c) ** 2)
    lo, hi, dropped = _band_cut(Q, c, budget)
    # the entries the tiled product leaves out, multiplied on their own
    left_out = np.ones((n, n), dtype=bool)
    for r, a, b in zip(range(0, n, TILE_ROWS), lo, hi):
        left_out[r:r + TILE_ROWS, a:max(a, b)] = False
    P = c * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    error = np.where(left_out, Q, 0.0) @ P
    assert np.sum(np.abs(error) ** 2) <= dropped * (1.0 + 1e-12)
    assert dropped <= budget


def test_leakage_guard_sees_an_empty_top_tile():
    """At α = 6 on 160 levels no eigencomponent reaches the top tile, so
    it writes zeros: every component's norm over that tile, and so over
    the top LEAK_LEVELS levels in it, is within the dropped weight, and
    the guard reads between that weight and four times it, and
    passes."""
    from lcdeco.decoherence import evolve_form

    dim = 160
    m, H, psi = _full_model(8.0, 0.35, 6.0, dim)
    sectors, pruned = SpectralPropagator(H)._banded(psi)
    for *_, tiles in sectors:
        rows, a, b = tiles[-1]
        assert rows.stop >= dim > dim - LEAK_LEVELS >= rows.start
        assert a >= b
    assert 0.0 < pruned <= PRUNE_TOL * np.linalg.norm(psi) ** 2
    assert pruned <= assert_leakage(sectors, pruned) <= 4.0 * pruned
    ts = np.linspace(0.0, math.pi / m.Omega, 9)
    evolve_form(H, psi, ts, _charge_form(H))   # the guard passes


@settings(max_examples=40, deadline=None)
@given(st.floats(1.5, 12.0), st.floats(0.0, 0.15), st.floats(0.0, 6.0),
       st.integers(0, 48), st.lists(st.floats(0.0, 4.0), min_size=1,
                                    max_size=8))
def test_windowed_evolution_matches_dense_random(omega_a, gamma, alpha,
                                                 extra, ts):
    """Random valid regimes of the full H, with truncations from tight to
    roomy and times in any order: ρ_01 and P_c of the banded evolution
    stay within 1e-12 of the dense reference, and the dropped weight
    within its budget.  t stays below 4, where the dense reference itself
    holds ~1e-13."""
    dim = min_adequate_dim(alpha) + extra
    _, H, psi = _full_model(omega_a, gamma * (omega_a - 1.0), alpha, dim)
    P = SpectralPropagator(H)
    _, pruned = P._banded(psi)
    assert pruned <= PRUNE_TOL * np.linalg.norm(psi) ** 2
    states = dense_evolution(H, psi, ts)
    assert np.max(np.abs(P.evolve_grid(psi, ts, _rho01_form(H))
                         - coherence(states))) <= 1e-12
    assert np.max(np.abs(P.evolve_grid(psi, ts, _charge_form(H)).real
                         - charge_occupation(states, 1.1))) <= 1e-12


def _edge_case(name):
    """(H, psi, ts) of an evolution with nothing, or next to nothing, to
    cut."""
    _, H, psi = _full_model(8.0, 0.35, 1.0, 24)
    ts = np.linspace(0.0, 1.0, 5)
    if name == "zero state":
        psi = np.zeros_like(psi)
    elif name == "one sector":
        psi = np.where(np.isin(np.arange(48), H.sectors[0].index), psi, 0.0)
        psi /= np.linalg.norm(psi)
    elif name == "one level":
        H = SectorHamiltonian(3, [Sector([1], [1.0], []),
                                  Sector([0, 2], [0.0, 2.0], [0.5])])
        psi = np.array([0.6, 0.8, 0.0], dtype=complex)
    else:
        ts = np.array([])
    return H, psi, ts


@pytest.mark.parametrize("name", ["zero state", "one sector", "one level",
                                  "empty ts"])
def test_evolution_with_nothing_to_cut(name):
    """A zero state, a state in one sector only (the other keeps no
    eigencomponent), a one-level sector and an empty grid: the form
    Σ_S ψ_Sᴴ·diag(w_S)·ψ_S, weights that differ row to row, is the dense
    reference's, of shape (samples,), and nothing is reported
    dropped."""
    H, psi, ts = _edge_case(name)
    P = SpectralPropagator(H)
    _, pruned = P._banded(psi)
    assert pruned == 0.0
    weights = [np.linspace(0.5, 1.0, len(s.index)) for s in H.sectors]
    forms = [(k, k, w) for k, w in enumerate(weights)]
    got = P.evolve_grid(psi, ts, forms)
    assert got.shape == (len(ts),)
    states = np.abs(dense_evolution(H, psi, ts)) ** 2
    ref = sum(w @ states[s.index] for s, w in zip(H.sectors, weights))
    assert np.max(np.abs(got.real - ref), initial=0.0) <= 1e-13
    if name == "one sector":
        assert np.all(P.evolve_grid(psi, ts, forms[1:]) == 0.0)


def _fig4_span_grids(m, samples):
    """fig4's eight jump periods (t up to 24.3 at the display set) sampled
    uniformly, uniformly with a ±1e-9 jitter (far above the rounding of
    the times, far below the spacing), and geometrically."""
    t_max = 8.0 * math.pi / m.Omega
    uniform = np.linspace(0.0, t_max, samples)
    jitter = np.random.default_rng(13).uniform(-1e-9, 1e-9, samples)
    return {"uniform": uniform, "jittered": uniform + jitter,
            "geometric": np.geomspace(1e-3, t_max, samples)}


def test_chunked_uniform_grid_matches_one_chunk_out_to_fig4_span():
    """1025 samples over fig4's span, evaluated in 147 chunks of 7 (the
    last one short), one evolve_grid call each, so each its own uniform
    pass from its own first time: ρ_01 and P_c within √PRUNE_TOL + 1e-13
    of one call over the whole grid and of the dense reference.  α = 1
    on 24 levels keeps |w|·t, and so the dense reference's own
    rounding, small at t = 24."""
    m, H, psi = _full_model(8.0, 0.35, 1.0, 24)
    ts = _fig4_span_grids(m, 1025)["uniform"]
    P = SpectralPropagator(H)
    states = dense_evolution(H, psi, ts)
    bound = math.sqrt(PRUNE_TOL) + 1e-13
    # P_c is its form's real part
    for form, ref, read in (
            (_rho01_form(H), coherence(states), np.asarray),
            (_charge_form(H), charge_occupation(states, 1.1), np.real)):
        whole = read(P.evolve_grid(psi, ts, form))
        chunked = read(np.concatenate([
            P.evolve_grid(psi, ts[lo:lo + 7], form)
            for lo in range(0, len(ts), 7)]))
        assert np.max(np.abs(chunked - whole)) <= bound
        assert np.max(np.abs(chunked - ref)) <= bound


@pytest.mark.parametrize("grid", ["uniform", "jittered", "geometric"])
def test_grid_matches_single_sample_evolution(grid):
    """Every sample of the grid is what evolving to its time alone gives,
    for ρ_01 and P_c: on the uniform grid one Taylor-expanded pass
    against direct sums, off it direct sums both."""
    m, H, psi = _full_model(8.0, 0.35, 1.0, 24)
    ts = _fig4_span_grids(m, 99)[grid]
    P = SpectralPropagator(H)
    # P_c is its form's real part
    for form, read in ((_rho01_form(H), np.asarray),
                       (_charge_form(H), np.real)):
        values = read(P.evolve_grid(psi, ts, form))
        single = read(np.concatenate([P.evolve_grid(psi, [t], form)
                                      for t in ts]))
        assert np.max(np.abs(values - single)) \
            <= math.sqrt(PRUNE_TOL) + 1e-13


@pytest.mark.parametrize("grid", ["uniform", "jittered", "geometric"])
def test_each_chunk_phased_at_its_own_times(monkeypatch, grid):
    """A grid of 20 samples evaluated in 3 chunks of at most 7, one
    evolve_grid call each: a uniform chunk is one _line_sums pass from
    its own first time at its own step, and a chunk off uniform one
    one-sample call per time, at that time, so every sample is phased at
    its own time."""
    from lcdeco import fock

    m, H, psi = _full_model(8.0, 0.35, 1.0, 24)
    ts = _fig4_span_grids(m, 20)[grid]
    P = SpectralPropagator(H)
    calls = []
    line_sums = fock._line_sums

    def recording(C, delta, t0, dt, n, budget):
        calls.append((t0, dt, n))
        return line_sums(C, delta, t0, dt, n, budget)

    monkeypatch.setattr(fock, "_line_sums", recording)
    expected = []
    for lo in range(0, 20, 7):
        chunk = ts[lo:lo + 7]
        P.evolve_grid(psi, chunk, _rho01_form(H))
        if grid == "uniform":
            expected.append((chunk[0], (chunk[-1] - chunk[0])
                             / (len(chunk) - 1), len(chunk)))
        else:
            expected += [(t, 0.0, 1) for t in chunk]
    assert calls == expected


@pytest.mark.parametrize("grid", ["uniform", "jittered", "geometric"])
def test_forms_match_the_dense_reference_on_any_grid(grid):
    """fig4's span sampled uniformly, with a jitter and geometrically:
    the Fock oracle's ρ_01 (H₀ ⊕ H₁), the full model's ρ_01 and P_c, each
    within 1e-12 of the dense reference, and the public routes'
    |ρ_01| too."""
    from lcdeco.decoherence import (decoherence_fock_oracle,
                                    full_model_coherence)

    m, _, _ = _full_model(8.0, 0.35, 1.0, 24)
    ts = _fig4_span_grids(m, 99)[grid]
    oracle, pair = _guarded_model(False, m, 1.0, 24, 0)
    rho01 = SpectralPropagator(oracle).evolve_grid(pair, ts, [
        (2 + p, p, np.ones(len(s.index)))
        for p, s in enumerate(oracle.sectors[:2])])
    ref = coherence(dense_evolution(oracle, pair, ts))
    assert np.max(np.abs(rho01 - ref)) <= 1e-12
    assert np.max(np.abs(decoherence_fock_oracle(m, 1.0, ts, 24)
                         - np.abs(ref))) <= 1e-12
    H, psi = _guarded_model(True, m, 1.0, 24, 0)
    states = dense_evolution(H, psi, ts)
    P = SpectralPropagator(H)
    assert np.max(np.abs(P.evolve_grid(psi, ts, _rho01_form(H))
                         - coherence(states))) <= 1e-12
    assert np.max(np.abs(
        full_model_coherence(m, math.sqrt(0.5), math.sqrt(0.5), 1.0, ts, 24)
        - 2.0 * np.abs(coherence(states)))) <= 1e-12
    assert np.max(np.abs(P.evolve_grid(psi, ts, _charge_form(H)).real
                         - charge_occupation(states, 1.1))) <= 1e-12


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_evolve_grid_rejects_non_finite_times(t):
    with pytest.raises(ValueError):
        SpectralPropagator(_number_hamiltonian(16)).evolve_grid(
            coherent_state(0.5, 16), [0.0, t, 1.0], [(0, 0, np.ones(16))])


def _guard(psi, pruned=0.0, n_lo=0):
    """assert_leakage on the joint vector psi's eigencomponents under one
    diagonal sector per qubit branch: each level is its own eigenvector,
    so each edge's bound sums, over the branches, (Σ|ψ_n|)² of its
    levels, the population where a branch holds one of them."""
    levels = len(psi) // 2
    H = SectorHamiltonian(2 * levels, [
        Sector(np.arange(levels) + k * levels, np.arange(float(levels)),
               np.zeros(levels - 1)) for k in (0, 1)])
    sectors, _ = SpectralPropagator(H)._banded(psi)
    return assert_leakage(sectors, pruned, n_lo)


def test_leakage_guard_trips_on_nan():
    with pytest.raises(TruncationError):
        _guard(np.full(8, np.nan))


def test_leakage_guard_adds_pruned_weight():
    dim = 16
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    psi[-1] = math.sqrt(0.81 * LEAK_TOL)
    leak = _guard(psi)
    assert leak == pytest.approx(0.81 * LEAK_TOL, rel=1e-12)
    # (0.9 + 0.1)² · LEAK_TOL: the pruned weight alone is below the
    # tolerance and so is the population, but their worst case is not
    with pytest.raises(TruncationError):
        _guard(psi, pruned=0.01 * LEAK_TOL)
    assert _guard(psi, pruned=PRUNE_TOL) > leak


def test_leakage_guard_counts_every_level_below_leak_levels():
    # with fewer than LEAK_LEVELS levels all of them are top levels, so
    # the vacuum of the qubit-0 branch trips
    dim = 3
    assert dim < LEAK_LEVELS
    psi = np.zeros(2 * dim, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(TruncationError):
        _guard(psi)


def test_leakage_guard_sums_both_branches():
    """Each branch's top levels hold 0.6·LEAK_TOL: either branch alone
    passes, the joint state does not."""
    dim = 16
    branch = np.zeros(dim, dtype=complex)
    branch[0] = 1.0
    branch[-1] = math.sqrt(0.6 * LEAK_TOL)
    empty = np.zeros(dim, dtype=complex)
    empty[0] = 1.0
    for one in (np.concatenate([branch, empty]),
                np.concatenate([empty, branch])):
        assert _guard(one) == pytest.approx(0.6 * LEAK_TOL, rel=1e-12)
    with pytest.raises(TruncationError):
        _guard(np.concatenate([branch, branch]))


def test_leakage_guard_watches_the_bottom_edge_above_level_zero():
    """With n_lo > 0 the bottom LEAK_LEVELS levels of both branches are
    summed too: each branch's bottom level holds 0.6·LEAK_TOL, so the
    joint state trips at the bottom edge, with no dim suggested, while
    the same vector at n_lo = 0 passes.  A top trip suggests twice the
    true top level, 2·(n_lo + levels), not twice the rows."""
    levels = 16
    branch = np.zeros(levels, dtype=complex)
    branch[levels // 2] = 1.0
    branch[0] = math.sqrt(0.6 * LEAK_TOL)
    psi = np.concatenate([branch, branch])
    assert _guard(psi) == 0.0
    with pytest.raises(TruncationError, match="bottom-") as err:
        _guard(psi, n_lo=100)
    assert err.value.suggested_dim is None
    one = np.concatenate([branch, np.zeros(levels)])
    assert _guard(one, n_lo=100) == pytest.approx(0.6 * LEAK_TOL, rel=1e-12)
    # the same (√leak + √pruned)² bound as at the top
    with pytest.raises(TruncationError, match="bottom-"):
        _guard(one, pruned=0.1 * LEAK_TOL, n_lo=100)
    with pytest.raises(TruncationError, match="top-") as err:
        _guard(psi[::-1], n_lo=100)
    assert err.value.suggested_dim == 2 * (100 + levels)


def test_leakage_guard_counts_each_level_once_in_a_narrow_window():
    """A window of 7 levels, narrower than 2·LEAK_LEVELS: the top edge is
    its top LEAK_LEVELS levels and the bottom edge the 2 below them.
    Levels 1 and 2 hold 0.6·LEAK_TOL each, one per edge, so the guard
    passes; a bottom edge of LEAK_LEVELS levels would hold both."""
    levels = 7
    assert levels < 2 * LEAK_LEVELS
    psi = np.zeros(2 * levels, dtype=complex)
    psi[1] = psi[2] = math.sqrt(0.6 * LEAK_TOL)
    assert _guard(psi, n_lo=3) == pytest.approx(0.6 * LEAK_TOL, rel=1e-12)
    psi[0] = psi[1]
    with pytest.raises(TruncationError, match="bottom-"):
        _guard(psi, n_lo=3)


def _edges(levels, n_lo):
    """{edge: (lo, hi)} the guard watches: the top LEAK_LEVELS of the
    levels, and with n_lo > 0 the bottom LEAK_LEVELS below those."""
    top = max(levels - LEAK_LEVELS, 0)
    edges = {"top": (top, levels)}
    if n_lo:
        edges["bottom"] = (0, min(LEAK_LEVELS, top))
    return edges


def _guarded_model(full, m, alpha, dim, n_lo):
    """(H, psi) on the levels [n_lo, dim): the full H with
    (|0⟩ + |1⟩)/√2 ⊗ |α⟩, or the effective model's H₀ ⊕ H₁ with
    |α⟩ ⊕ |α⟩ as decoherence_fock_oracle evolves it; |α⟩ is cut below
    n_lo and renormalized, so the bottom levels may hold population."""
    from lcdeco.hamiltonians import (build_effective_hamiltonian,
                                     build_full_hamiltonian)

    osc = coherent_state(alpha, dim)[n_lo:]
    osc /= np.linalg.norm(osc)
    if full:
        return (build_full_hamiltonian(m, dim, n_lo),
                joint_state(1.0, 1.0, osc))
    h0, h1 = (build_effective_hamiltonian(k, m, dim, n_lo) for k in (0, 1))
    return SectorHamiltonian(2 * h0.size, h0.sectors + tuple(
        Sector(s.index + h0.size, s.diag, s.offdiag)
        for s in h1.sectors)), np.concatenate([osc, osc])


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.floats(1.5, 12.0), st.floats(0.0, 0.15),
       st.floats(0.5, 5.0), st.integers(0, 24), st.integers(0, 40),
       st.lists(st.floats(0.0, 4.0), min_size=1, max_size=8))
def test_leakage_bound_never_below_the_dense_edge_population(
        full, omega_a, gamma, alpha, extra, n_lo, ts):
    """Random regimes of both H kinds, the full H and H₀ ⊕ H₁, with
    truncations from tight to roomy and levels from n_lo up: at each edge
    the guard watches, the time-independent bound (_edge_bounds) is at
    least the dense reference's population at every sample, to the
    reference's own ~1e-13 per amplitude.  t stays below 4, where the
    dense reference holds that."""
    from lcdeco.circuit import params_from_dimensionless
    from lcdeco.fock import _edge_bounds

    m = params_from_dimensionless(omega_a, gamma * (omega_a - 1.0))
    dim = min_adequate_dim(alpha) + extra
    n_lo = min(n_lo, dim - 2)
    H, psi = _guarded_model(full, m, alpha, dim, n_lo)
    levels = H.size // 2
    sectors, pruned = SpectralPropagator(H)._banded(psi)
    bounds = dict(_edge_bounds(sectors, pruned, n_lo, levels))
    edges = _edges(levels, n_lo)
    assert bounds.keys() == edges.keys()
    states = dense_evolution(H, psi, ts)
    for edge, (lo, hi) in edges.items():
        population = np.max(edge_population(states, lo, hi))
        assert math.sqrt(population) <= math.sqrt(bounds[edge]) + 1e-12


@pytest.mark.parametrize("n_lo, trips", [(260, False), (300, True)])
def test_leakage_bound_holds_both_edges_for_every_form(monkeypatch, n_lo,
                                                       trips):
    """At ω_a = 4, γ = 0.15, α = 20 on levels n_lo to 560 (the rule would
    start at level 4), both edges hold population over a jump period:
    ~3e-11 at the top and from 6e-11 (n_lo = 260) to 1e-5 (n_lo = 300)
    at the bottom (dense reference).  The guarded entry, evolve_form,
    hands the guard the same bounds whatever the form, ρ_01 or P_c, each
    at least its edge's population at every sample; the guard passes at
    n_lo = 260 and trips the bottom edge at n_lo = 300 for both forms."""
    from lcdeco import decoherence
    from lcdeco.circuit import params_from_dimensionless
    from lcdeco.decoherence import evolve_form
    from lcdeco.fock import _edge_bounds
    from lcdeco.hamiltonians import build_full_hamiltonian

    m = params_from_dimensionless(4.0, 0.45)
    dim, alpha = 560, 20.0
    levels = dim - n_lo
    H = build_full_hamiltonian(m, dim, n_lo)
    psi = joint_state(1.0, 1.0, coherent_state(alpha, dim)[n_lo:])
    ts = np.linspace(0.0, math.pi / m.Omega, 41)
    states = dense_evolution(H, psi, ts)
    populations = {edge: np.max(edge_population(states, lo, hi))
                   for edge, (lo, hi) in _edges(levels, n_lo).items()}
    assert min(populations.values()) > 1e-11
    seen = []
    guard = decoherence.assert_leakage

    def recording(sectors, pruned, n_lo):
        seen.append(dict(_edge_bounds(sectors, pruned, n_lo, levels)))
        return guard(sectors, pruned, n_lo)

    monkeypatch.setattr(decoherence, "assert_leakage", recording)
    outcomes = []
    for form in (_rho01_form(H), _charge_form(H, m.theta)):
        try:
            evolve_form(H, psi, ts, form, n_lo)
            outcomes.append(False)
        except TruncationError as err:
            assert err.args[0].startswith("leakage guard tripped: bottom-")
            outcomes.append(True)
    assert outcomes == [trips, trips]
    assert len(seen) == 2 and seen[0] == seen[1]
    for edge, population in populations.items():
        assert population <= seen[0][edge]


def test_coherent_state_from_n_lo_is_the_full_state_cut():
    """Levels [n_lo, dim) of |α⟩: the full state's entries from n_lo up,
    renormalized, while the mass below n_lo stays under
    COHERENT_TAIL_TOL; one level higher than that is refused."""
    alpha, dim = 20.0 * np.exp(0.3j), 700
    full = coherent_state(alpha, dim)
    n_lo = 180
    cut = coherent_state(alpha, dim, n_lo)
    assert cut.shape == (dim - n_lo,)
    ref = full[n_lo:] / np.linalg.norm(full[n_lo:])
    assert np.max(np.abs(cut - ref)) <= 1e-15
    edge = next(n for n in range(n_lo, dim)
                if coherent_mass_below(alpha, n + 1) >= COHERENT_TAIL_TOL)
    coherent_state(alpha, dim, edge)
    with pytest.raises(TruncationError, match="below n_lo"):
        coherent_state(alpha, dim, edge + 1)
    with pytest.raises(ValueError):
        coherent_state(alpha, dim, dim - 1)


@pytest.mark.parametrize("alpha, n_lo", [(2.0, 1), (20.0, 150), (20.0, 400),
                                         (30.0, 428), (30.0, 800),
                                         (30.0, 1400)])
def test_coherent_mass_below_matches_gammaincc(alpha, n_lo):
    """P(n < n_lo) of a Poisson(|α|²) is Q(n_lo, |α|²), the regularized
    upper incomplete gamma function."""
    from scipy.special import gammaincc

    ref = gammaincc(n_lo, alpha ** 2)
    assert coherent_mass_below(alpha, n_lo) == pytest.approx(
        ref, rel=1e-9, abs=1e-300)


def test_coherent_mass_below_edges():
    assert coherent_mass_below(3.0, 0) == 0.0
    assert coherent_mass_below(0.0, 1) == 1.0


def test_overlap_basics():
    psi = coherent_state(1.2, 32)
    assert abs(np.vdot(psi, psi) - 1.0) < 1e-12
    assert np.vdot(fock_state(1, 8), fock_state(3, 8)) == 0.0
    # <0|alpha> = e^{-|alpha|^2/2}
    val = np.vdot(coherent_state(0.0, 64), coherent_state(1.0, 64))
    assert abs(val - math.exp(-0.5)) < 1e-10


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
    expected = c0 * np.conj(c1) * np.vdot(s1, s0)
    assert abs(rho[0, 1] - expected) < 1e-12


def test_partial_trace_orthogonal_branches():
    dim = 16
    s = 1.0 / math.sqrt(2.0)
    psi = np.concatenate([s * fock_state(0, dim), s * fock_state(1, dim)])
    rho = partial_trace_qubit(psi, dim)
    assert abs(rho[0, 1]) == 0.0
    assert abs(rho[0, 0] - 0.5) < 1e-12


def test_hermitian_eig_is_the_only_eigensolver():
    """No code in lcdeco calls an eigensolver except fock.hermitian_eig,
    so every spectrum the package uses comes from one tridiagonal
    solve per sector."""
    solvers = {"eig", "eigh", "eigvals", "eigvalsh", "eigh_tridiagonal",
               "eigvalsh_tridiagonal", "stevd", "dstevd"}
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        allowed = set()
        if name == "fock.py":
            for node in tree.body:
                if (isinstance(node, ast.FunctionDef)
                        and node.name == "hermitian_eig"):
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            used = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if used in solvers and id(node) not in allowed:
                found.append("%s:%d %s" % (name, node.lineno, used))
    assert found == []


def test_evolve_joint_is_the_only_propagation():
    """No code in lcdeco builds a SpectralPropagator or calls the leakage
    guard except decoherence's one guarded entry, evolve_form, which
    every truncated-space evolution (ρ_01 of the Fock oracle and of the
    full model, the probe current's P_c) goes through, so every
    evolution is guarded by the one guard, assert_leakage."""
    names = {"SpectralPropagator", "assert_leakage"}
    entries = {"decoherence.py": {"evolve_form"}}
    found = []
    calls = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        allowed = {}
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name in entries.get(name, ())):
                allowed.update((id(n), node.name) for n in ast.walk(node))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = (node.func.id if isinstance(node.func, ast.Name)
                      else node.func.attr
                      if isinstance(node.func, ast.Attribute) else None)
            if called not in names:
                continue
            if id(node) in allowed:
                calls.setdefault(allowed[id(node)], set()).add(called)
            else:
                found.append("%s:%d %s" % (name, node.lineno, called))
    assert found == []
    assert calls == {"evolve_form": {"SpectralPropagator", "assert_leakage"}}


# ---------------------------------------------------------------------------
# the guarded callers: the qubit coherence ρ_01 of the Fock oracle and of
# the full model, and the probe current's P_c

RHO_CALLERS = ["full_model_coherence", "decoherence_fock_oracle"]

GUARDED_CALLERS = ["current_numeric"] + RHO_CALLERS


def _guarded_callers(dim):
    """{name: run(ts)} for the guarded callers at truncation dim, in a
    regime (ω_a = 4, g = 0.5, α = 3) whose squeezed spread reaches the
    top of 40 levels within a quarter jump period."""
    from lcdeco.circuit import params_from_dimensionless
    from lcdeco.decoherence import (decoherence_fock_oracle,
                                    full_model_coherence)
    from lcdeco.observables import current_numeric

    m = params_from_dimensionless(4.0, 0.5)
    c = math.sqrt(0.5)
    return m, {
        "current_numeric":
            lambda ts: np.concatenate(current_numeric(m, 3.0, ts, dim)),
        "full_model_coherence":
            lambda ts: full_model_coherence(m, c, c, 3.0, ts, dim),
        "decoherence_fock_oracle":
            lambda ts: decoherence_fock_oracle(m, 3.0, ts, dim),
    }


@pytest.mark.parametrize("caller", RHO_CALLERS)
@pytest.mark.parametrize("samples", [1, 7, 8, 23])
def test_chunked_evolution_matches_one_chunk(caller, samples):
    """A grid of 1, 7, 8 and 23 samples evaluated in chunks of 7, one
    call each, so each chunk summed from its own first time, or at its
    one time, gives the same trace as one call over the whole grid."""
    from lcdeco.observables import sampling_limit

    m, callers = _guarded_callers(64)
    run = callers[caller]
    ts = np.arange(samples) * sampling_limit(m)
    whole = run(ts)
    chunked = np.concatenate([run(ts[lo:lo + 7])
                              for lo in range(0, samples, 7)])
    assert chunked.shape == whole.shape
    assert np.max(np.abs(chunked - whole)) <= 1e-14


@pytest.mark.parametrize("caller", GUARDED_CALLERS)
def test_leakage_after_the_grid_ends_trips(caller):
    """The guard holds at every t, not only at the samples: on 3 samples
    from t = 0 the full model's top LEAK_LEVELS levels hold less than
    LEAK_TOL (dense reference), but within a quarter jump period they
    hold more, and every guarded caller trips at the top edge."""
    from lcdeco.hamiltonians import build_full_hamiltonian
    from lcdeco.observables import sampling_limit

    dim = 40
    m, callers = _guarded_callers(dim)
    ts = np.arange(3) * sampling_limit(m)
    later = np.arange(0.0, math.pi / (2.0 * m.Omega), sampling_limit(m))
    psi = joint_state(1.0, 1.0, coherent_state(3.0, dim))
    top = [np.max(edge_population(dense_evolution(
        build_full_hamiltonian(m, dim), psi, grid), dim - LEAK_LEVELS, dim))
        for grid in (ts, later)]
    assert top[0] < LEAK_TOL <= top[1]
    with pytest.raises(TruncationError, match="top-") as err:
        callers[caller](ts)
    assert err.value.suggested_dim == 2 * dim


def test_streamed_current_holds_no_state_grid():
    """current_numeric at the fig4 regime with α = 10, dim = 224 and 4096
    samples allocates well under one joint state grid: no state is ever
    built, only P_c's lines and their sums."""
    import tracemalloc

    from lcdeco.circuit import params_from_dimensionless
    from lcdeco.observables import current_numeric

    m = params_from_dimensionless(8.0, 0.35)
    dim, samples = 224, 4096
    ts = np.linspace(0.0, 8.0 * math.pi / m.Omega, samples)
    grid_bytes = 2 * dim * samples * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        current_numeric(m, 10.0, ts, dim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * grid_bytes


# ---------------------------------------------------------------------------
# one BLAS thread: every sector eigensolve and evolution

def _blas_threads():
    """Thread count of every OpenBLAS library the limiter found."""
    from lcdeco import fock
    return [get() for get, _ in fock._openblas_thread_calls()]


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS library the limiter finds set to two threads, and
    its own count back after the test; skipped where it finds none."""
    from lcdeco import fock

    hermitian_eig(np.zeros(2), np.ones(1))  # scipy's library, then discovery
    calls = fock._openblas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS library found in this process")
    saved = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(2)
    try:
        yield _blas_threads()
    finally:
        for (_, set_), n in zip(calls, saved):
            set_(n)


def test_eigensolve_and_evolution_run_on_one_blas_thread(two_blas_threads,
                                                          monkeypatch):
    """Inside hermitian_eig's eigensolver, inside evolve_grid's guard and
    around each sector pair's products of the form's lines every found
    library reports one thread; afterwards each reports its count from
    before."""
    from lcdeco import fock

    solver = fock._dstevd()
    pair_lines = fock._pair_lines
    seen = []

    def dstevd(diag, offdiag, compute_v):
        seen.append(("eigh", _blas_threads()))
        return solver(diag, offdiag, compute_v=compute_v)

    def guard(sectors, pruned):
        seen.append(("guard", _blas_threads()))

    def spied_pair_lines(*args):
        seen.append(("lines", _blas_threads()))
        out = pair_lines(*args)
        seen.append(("lines", _blas_threads()))
        return out

    monkeypatch.setattr(fock, "_dstevd", lambda: dstevd)
    monkeypatch.setattr(fock, "_pair_lines", spied_pair_lines)
    _, H, psi = _full_model(8.0, 0.35, 3.0, 40)
    P = SpectralPropagator(H)
    # weights that differ row to row, so each sector's own form keeps its
    # imbalance part and all three sector pairs multiply
    w = np.linspace(0.5, 1.0, 40)
    P.evolve_grid(psi, np.linspace(0.0, 1.0, 9),
                  [(0, 0, w ** 2), (0, 1, 2.0 * w * w), (1, 1, w ** 2)], guard)
    ones = [1] * len(two_blas_threads)
    assert seen == ([("eigh", ones)] * 2 + [("guard", ones)]
                    + [("lines", ones)] * 6)
    assert _blas_threads() == two_blas_threads


def test_blas_threads_restored_when_the_leakage_guard_trips(
        two_blas_threads):
    """A TruncationError raised inside the evolution, here by the leakage
    guard on a state at the top level, leaves every library on its
    count from before."""
    from lcdeco.decoherence import evolve_form

    dim = 20
    psi = np.zeros(2 * dim, dtype=complex)
    psi[dim - 1] = 1.0
    with pytest.raises(TruncationError, match="leakage guard tripped"):
        evolve_form(_number_hamiltonian(2 * dim), psi, [0.0, 1.0],
                    [(0, 0, np.ones(2 * dim))])
    assert _blas_threads() == two_blas_threads


def test_evolution_unchanged_when_no_blas_library_is_found(monkeypatch):
    """With discovery finding nothing, as with MKL or off Linux, the
    limiter does nothing, and an evolution small enough for OpenBLAS to
    run on one thread anyway gives the same numbers."""
    from lcdeco import fock
    from lcdeco.circuit import params_from_dimensionless
    from lcdeco.observables import current_numeric, sampling_limit

    m = params_from_dimensionless(4.0, 0.5)
    ts = np.arange(23) * sampling_limit(m)
    limited = np.concatenate(current_numeric(m, 3.0, ts, 64))
    monkeypatch.setattr(fock, "_openblas_thread_calls", lambda: ())
    assert np.array_equal(np.concatenate(current_numeric(m, 3.0, ts, 64)),
                          limited)


FIRST_EVOLUTION = """\
import json, sys
import numpy as np
from lcdeco import fock

scipy_before = "scipy.linalg" in sys.modules
seen = []

def guard(sectors, pruned):
    seen.append([get() for get, _ in fock._openblas_thread_calls()])

H = fock.SectorHamiltonian(40, [fock.Sector(np.arange(40), np.arange(40.0),
                                            np.zeros(39))])
fock.SpectralPropagator(H).evolve_grid(np.eye(40)[0], [0.0, 1.0],
                                       [(0, 0, np.ones(40))], guard)
with open("/proc/self/maps") as fh:
    mapped = {line.split(None, 5)[5].strip() for line in fh
              if "openblas" in line.rsplit("/", 1)[-1]}
print(json.dumps({"scipy_before": scipy_before, "seen": seen,
                  "mapped": len(mapped), "after": [
                      get() for get, _ in fock._openblas_thread_calls()]}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="OpenBLAS libraries are found from /proc/self/maps")
def test_first_evolution_of_a_process_limits_every_blas_library():
    """A fresh process whose first lcdeco call is an evolution loads
    scipy inside it, and the limiter still finds and limits every mapped
    OpenBLAS library, numpy's and scipy's, and gives each its two
    threads back."""
    import json
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(
        SRC, os.pardir)), OPENBLAS_NUM_THREADS="2")
    done = subprocess.run([sys.executable, "-c", FIRST_EVOLUTION], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=60)
    got = json.loads(done.stdout)
    if not got["mapped"]:
        pytest.skip("no OpenBLAS library mapped into the process")
    assert not got["scipy_before"]
    assert got["seen"] == [[1] * got["mapped"]]
    assert got["after"] == [2] * got["mapped"]


def test_readme_layout_states_the_fock_constants():
    """Every "`NAME` = value" in README's `lcdeco.fock` Layout row is the
    constant's value, and the row states each propagator, line-sum and
    leakage constant."""
    import re

    from lcdeco import fock

    readme = os.path.join(SRC, os.pardir, os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        row, = [line for line in fh if line.startswith("| `lcdeco.fock` |")]
    stated = dict(re.findall(r"`(\w+)` = (-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)",
                             row))
    assert set(stated) == {"PRUNE_TOL", "TILE_ROWS", "LINE_OVERSAMPLE",
                           "LEAK_LEVELS", "LEAK_TOL"}
    for name, value in stated.items():
        assert float(value) == getattr(fock, name), name
