"""Truncated-Fock-space basics: coherent and joint states, the leakage
guard, evolution, and the streamed evolution as its callers reduce it."""

import ast
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_ref import (PROJECTOR_0, SIGMA_X, SIGMA_Y, SIGMA_Z,
                       annihilation_op, dense, fock_state, number_op,
                       partial_trace_qubit, position_quad)
from lcdeco.errors import TruncationError
from lcdeco.fock import (LEAK_LEVELS, LEAK_TOL, PRUNE_TOL, Sector,
                         SectorHamiltonian, SpectralPropagator,
                         assert_leakage, coherent_state, coherent_tail_mass,
                         hermitian_eig, joint_state, min_adequate_dim)

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


def test_evolve_t0_identity():
    psi = coherent_state(1.0, 32)
    out = SpectralPropagator(_number_hamiltonian(32)).evolve_grid(
        psi, [0.0], lambda b, _: b)[0][:, 0]
    assert np.max(np.abs(out - psi)) < 1e-12


def test_evolve_rotating_coherent_state():
    # H = w a+a sends |alpha> to |alpha e^{-iwt}> up to a global phase
    dim = 48
    omega, t, alpha = 1.3, 2.1, 1.5
    out = SpectralPropagator(_number_hamiltonian(dim, omega)).evolve_grid(
        coherent_state(alpha, dim), [t], lambda b, _: b)[0][:, 0]
    ref = coherent_state(alpha * np.exp(-1j * omega * t), dim)
    fidelity = abs(np.vdot(ref, out))
    assert fidelity >= 1.0 - 1e-10


def test_evolve_composition():
    dim = 32
    rng = np.random.default_rng(11)
    prop = SpectralPropagator(_one_sector(dim, rng.normal(size=dim),
                                          rng.normal(size=dim - 1)))
    psi = coherent_state(0.8, dim)
    mid = prop.evolve_grid(psi, [0.7], lambda b, _: b)[0][:, 0]
    one = prop.evolve_grid(mid, [1.9], lambda b, _: b)[0][:, 0]
    two = prop.evolve_grid(psi, [2.6], lambda b, _: b)[0][:, 0]
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
    grid, _ = prop.evolve_grid(psi, ts, lambda b, _: b)
    norms = np.linalg.norm(grid, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    Hd = dense(H)
    e0 = np.vdot(psi, Hd @ psi).real
    energies = np.real(np.sum(np.conj(grid) * (Hd @ grid), axis=0))
    assert np.max(np.abs(energies - e0)) <= 1e-10 * max(abs(e0), 1.0)


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


def _full_model(omega_a, g, alpha, dim):
    from lcdeco.circuit import params_from_dimensionless
    from lcdeco.hamiltonians import build_full_hamiltonian

    m = params_from_dimensionless(omega_a, g)
    return m, build_full_hamiltonian(m, dim), joint_state(
        1.0, 1.0, coherent_state(alpha, dim))


def _dense_evolution(H, psi, ts):
    w, V = np.linalg.eigh(dense(H))
    return V @ (np.exp(-1j * np.outer(w, ts)) * (V.T @ psi)[:, None])


def test_pruned_weight_bounded_and_reproduced():
    """A coherent state far from the vacuum has eigencomponents of weight
    far below PRUNE_TOL; the dropped weight stays within PRUNE_TOL and
    the kept part reproduces the unpruned evolution to √PRUNE_TOL."""
    dim = 160
    rng = np.random.default_rng(4)
    H = _one_sector(dim, np.arange(dim) + 0.1 * rng.normal(size=dim),
                    0.3 * np.sqrt(np.arange(1.0, dim)))
    psi = coherent_state(7.0, dim)
    ts = np.linspace(0.0, 5.0, 7)
    grid, pruned = SpectralPropagator(H).evolve_grid(psi, ts,
                                                      lambda b, _: b)
    assert 0.0 < pruned <= PRUNE_TOL
    assert np.max(np.abs(grid - _dense_evolution(H, psi, ts))) \
        <= math.sqrt(PRUNE_TOL) + 1e-13


def test_window_drops_unreachable_rows(monkeypatch):
    """Full H at α = 10 on 240 levels: n̄ = 100 ± 10 never reaches the
    lowest or the highest levels, so the window leaves rows at both ends
    of the chains zero in every chunk, and the grid still matches the
    dense reference to √PRUNE_TOL."""
    from lcdeco import fock

    dim = 240
    m, H, psi = _full_model(8.0, 0.35, 10.0, dim)
    ts = np.linspace(0.0, math.pi / m.Omega, 10)
    monkeypatch.setattr(fock, "CHUNK_SAMPLES", 3)
    zero_rows = []

    def reduce(block, _):
        zero_rows.append(np.flatnonzero(np.all(block == 0.0, axis=1)))
        return block

    grid, pruned = SpectralPropagator(H).evolve_grid(psi, ts, reduce)
    assert len(zero_rows) == 4
    for rows in zero_rows:
        assert np.array_equal(rows, zero_rows[0])
    assert {0, dim - 1, dim, 2 * dim - 1} <= set(zero_rows[0])
    assert pruned <= PRUNE_TOL * np.linalg.norm(psi) ** 2
    assert np.max(np.abs(grid - _dense_evolution(H, psi, ts))) \
        <= math.sqrt(PRUNE_TOL) + 1e-13


def test_leakage_guard_sees_window_rows():
    """At α = 6 on 160 levels the window ends below the top LEAK_LEVELS
    levels: the guard finds them zero and tests the combined dropped
    weight alone, which passes."""
    from lcdeco.decoherence import evolve_joint

    dim = 160
    m, H, psi = _full_model(8.0, 0.35, 6.0, dim)
    ts = np.linspace(0.0, math.pi / m.Omega, 9)
    seen = []

    def reduce(block, pruned):
        top = np.r_[dim - LEAK_LEVELS:dim, 2 * dim - LEAK_LEVELS:2 * dim]
        assert np.all(block[top] == 0.0)
        seen.append((assert_leakage(block, pruned), pruned))
        return block

    _, pruned = SpectralPropagator(H).evolve_grid(psi, ts, reduce)
    assert 0.0 < pruned <= PRUNE_TOL * np.linalg.norm(psi) ** 2
    assert seen == [(pytest.approx(pruned, rel=1e-12), pruned)]
    evolve_joint(H, psi, ts, lambda block: block)   # the guard passes


@settings(max_examples=40, deadline=None)
@given(st.floats(1.5, 12.0), st.floats(0.0, 0.15), st.floats(0.0, 6.0),
       st.integers(0, 48), st.lists(st.floats(0.0, 4.0), min_size=1,
                                    max_size=8))
def test_windowed_evolution_matches_dense_random(omega_a, gamma, alpha,
                                                 extra, ts):
    """Random valid regimes of the full H, with truncations from tight to
    roomy: the windowed evolution stays within √PRUNE_TOL of the dense
    reference, and the dropped weight within its budget.  t stays below
    4, where the dense reference itself holds ~1e-13."""
    dim = min_adequate_dim(alpha) + extra
    _, H, psi = _full_model(omega_a, gamma * (omega_a - 1.0), alpha, dim)
    grid, pruned = SpectralPropagator(H).evolve_grid(psi, ts,
                                                     lambda b, _: b)
    assert pruned <= PRUNE_TOL * np.linalg.norm(psi) ** 2
    assert np.max(np.abs(grid - _dense_evolution(H, psi, ts))) \
        <= math.sqrt(PRUNE_TOL) + 1e-13


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_evolve_grid_rejects_non_finite_times(t):
    with pytest.raises(ValueError):
        SpectralPropagator(_number_hamiltonian(16)).evolve_grid(
            coherent_state(0.5, 16), [0.0, t, 1.0], lambda b, _: b)


def test_leakage_guard_trips_on_nan():
    with pytest.raises(TruncationError):
        assert_leakage(np.full(8, np.nan))


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


def test_leakage_guard_counts_every_level_below_leak_levels():
    # with fewer than LEAK_LEVELS levels all of them are top levels, so
    # the vacuum of the qubit-0 branch trips
    dim = 3
    assert dim < LEAK_LEVELS
    psi = np.zeros(2 * dim, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(TruncationError):
        assert_leakage(psi)


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
        assert assert_leakage(one) == pytest.approx(0.6 * LEAK_TOL,
                                                    rel=1e-12)
    with pytest.raises(TruncationError):
        assert_leakage(np.concatenate([branch, branch]))


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
               "eigvalsh_tridiagonal"}
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
    guard except decoherence.evolve_joint, so every evolution is guarded
    the same way."""
    names = {"SpectralPropagator", "assert_leakage"}
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        allowed = set()
        if name == "decoherence.py":
            for node in tree.body:
                if (isinstance(node, ast.FunctionDef)
                        and node.name == "evolve_joint"):
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            called = (node.func.id if isinstance(node.func, ast.Name)
                      else node.func.attr
                      if isinstance(node.func, ast.Attribute) else None)
            if called in names:
                found.append("%s:%d %s" % (name, node.lineno, called))
    assert found == []


# ---------------------------------------------------------------------------
# streamed evolution: every caller reduces chunk by chunk

STREAM_CALLERS = ["current_numeric", "full_model_coherence",
                  "decoherence_fock_oracle"]


def _stream_callers(dim):
    """{name: run(ts)} for the three callers of evolve_grid at truncation
    dim, in a regime (ω_a = 4, g = 0.5, α = 3) whose squeezed spread
    reaches the top of 40 levels within a quarter jump period."""
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


@pytest.mark.parametrize("caller", STREAM_CALLERS)
@pytest.mark.parametrize("samples", [1, 7, 8, 23])
def test_chunked_evolution_matches_one_chunk(monkeypatch, caller, samples):
    """Chunks of 7 samples give the same reduced trace as one chunk, for
    sample counts below, at, just above and well above a chunk."""
    from lcdeco import fock
    from lcdeco.observables import sampling_limit

    m, callers = _stream_callers(64)
    run = callers[caller]
    if caller == "current_numeric":
        samples = max(samples, 3)   # finite differences need 3 samples
    ts = np.arange(samples) * sampling_limit(m)
    monkeypatch.setattr(fock, "CHUNK_SAMPLES", 10 ** 6)
    whole = run(ts)
    monkeypatch.setattr(fock, "CHUNK_SAMPLES", 7)
    chunked = run(ts)
    assert chunked.shape == whole.shape
    assert np.max(np.abs(chunked - whole)) <= 1e-14


@pytest.mark.parametrize("caller", STREAM_CALLERS)
def test_leakage_only_in_last_chunk_trips(monkeypatch, caller):
    """The guard runs on every chunk: the shortest grid that trips it
    reaches LEAK_TOL only at its last sample, beyond the first chunk,
    and one sample less passes."""
    from lcdeco import fock
    from lcdeco.observables import sampling_limit

    m, callers = _stream_callers(40)
    run = callers[caller]
    ts = np.arange(0.0, math.pi / (2.0 * m.Omega), sampling_limit(m))
    monkeypatch.setattr(fock, "CHUNK_SAMPLES", 7)
    passed = 0
    for n in range(3, len(ts) + 1):
        try:
            run(ts[:n])
        except TruncationError:
            break
        passed = n
    else:
        pytest.fail("the regime never reached the leakage tolerance")
    # sample index `passed` trips; index 7 opens the second chunk
    assert passed >= 7


def test_streamed_current_holds_no_state_grid():
    """current_numeric at the fig4 regime with α = 10, dim = 224 and 4096
    samples allocates well under one joint state grid: the states exist
    one chunk at a time."""
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
