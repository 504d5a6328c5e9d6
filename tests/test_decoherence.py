"""Decoherence factor: closed forms, oracles, full-model coherence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcdeco.circuit import model_params, params_from_dimensionless
from lcdeco.decoherence import (decoherence_approx, decoherence_exact,
                                decoherence_fock_oracle,
                                decoherence_gaussian_oracle,
                                full_model_coherence, jump_metrics)
from lcdeco.errors import TruncationError
from lcdeco.fock import min_adequate_dim
from lcdeco.hamiltonians import evolution_coefficients
from lcdeco.runner import FOCK_ALPHA_MAX

M_REF = params_from_dimensionless(1.8, 0.05)


def _grid(m, periods=1.0, n=200):
    return np.linspace(0.0, periods * math.pi / m.Omega, n)


def test_exact_endpoints():
    assert decoherence_exact(M_REF, 2.0, 0.0) == 1.0
    # jump revival: sin(Omega * pi/Omega) = 0 exactly up to rounding
    t_rev = math.pi / M_REF.Omega
    assert abs(decoherence_exact(M_REF, 2.0, t_rev) - 1.0) < 1e-12


def test_exact_periodicity():
    ts = _grid(M_REF, periods=1.0, n=257)
    period = math.pi / M_REF.Omega
    d0 = decoherence_exact(M_REF, 2.0, ts)
    d1 = decoherence_exact(M_REF, 2.0, ts + period)
    assert np.max(np.abs(d0 - d1)) < 1e-12


def test_exact_range():
    ts = _grid(M_REF, periods=3.0, n=1001)
    d = decoherence_exact(M_REF, 30.0, ts)
    assert np.all(d > 0.0) and np.all(d <= 1.0 + 1e-9)


def test_approx_trivial_limits():
    assert decoherence_approx(M_REF, 5.0, 0.0) == 1.0
    m0 = params_from_dimensionless(1.8, 0.0)
    ts = np.linspace(0.0, 20.0, 64)
    assert np.all(decoherence_approx(m0, 5.0, ts) == 1.0)
    assert np.all(decoherence_exact(m0, 5.0, ts) == 1.0)


def test_approx_vs_exact_bound():
    """|approx - exact| <= (1 - G_min) + |exponent difference| pointwise,
    and the aggregate bound (1 - G_min) + 8 g^4/(Delta Omega)^2 holds for
    the supremum (evaluated on a dense grid)."""
    m = M_REF
    alpha = 2.0
    ts = _grid(m, periods=1.0, n=4001)
    d_ex = decoherence_exact(m, alpha, ts)
    d_ap = decoherence_approx(m, alpha, ts)
    s2 = np.sin(m.Omega * ts) ** 2
    d2o2 = (m.delta * m.Omega) ** 2
    g_pref = np.sqrt(d2o2 / (d2o2 + 8 * m.g ** 4 * s2))
    expo_diff = (8 * m.g ** 4 * s2 * alpha ** 2) \
        * (1.0 / d2o2 - 1.0 / (d2o2 + 8 * m.g ** 4 * s2))
    assert np.all(g_pref <= 1.0 + 1e-15)
    assert np.all(np.abs(d_ex - d_ap) <= (1.0 - g_pref) + expo_diff + 1e-15)
    g_min = math.sqrt(d2o2 / (d2o2 + 8 * m.g ** 4))
    sup_bound = (1.0 - g_min) + 8 * m.g ** 4 / d2o2
    assert np.max(np.abs(d_ex - d_ap)) <= sup_bound


def test_fock_oracle_trivial_limits():
    assert abs(decoherence_fock_oracle(M_REF, 2.0, 0.0, 64) - 1.0) < 1e-12
    m0 = params_from_dimensionless(1.8, 0.0)
    ts = np.linspace(0.0, 10.0, 32)
    d = decoherence_fock_oracle(m0, 2.0, ts, 64)
    assert np.max(np.abs(d - 1.0)) < 1e-12


def test_fock_oracle_matches_exact():
    ts = _grid(M_REF, periods=1.0, n=200)
    d_fock = decoherence_fock_oracle(M_REF, 2.0, ts, 64)
    d_ex = decoherence_exact(M_REF, 2.0, ts)
    assert np.max(np.abs(d_fock - d_ex)) <= 1e-6


def test_fock_oracle_matches_exact_at_alpha_30():
    """The paper's display amplitude on the truncated-Fock route: display
    set (omega_a = 8, g = 0.35), dim = 1200, two jump periods."""
    m = params_from_dimensionless(8.0, 0.35)
    ts = _grid(m, periods=2.0, n=200)
    d_fock = decoherence_fock_oracle(m, 30.0, ts, 1200)
    d_ex = decoherence_exact(m, 30.0, ts)
    assert np.min(d_ex) < 0.2          # the deep alpha = 30 dips are covered
    assert np.max(np.abs(d_fock - d_ex)) <= 1e-8


def test_fock_oracle_guard_trips_below_leak_levels():
    """dim = 4 holds fewer than LEAK_LEVELS levels, so the guard must
    count all of them; counting only level 3 let this run through 5.5e-8
    off the Gaussian oracle, above its 1e-8 gate."""
    with pytest.raises(TruncationError):
        decoherence_fock_oracle(M_REF, 1e-3, np.linspace(0.0, 50.0, 400), 4)


def test_fock_oracle_branch_symmetry():
    """Swapping the two branch Hamiltonians cannot change |<s1|s0>|, and
    the oracle's one direct-sum evolution matches the two branches
    evolved separately, the reference kept here."""
    from lcdeco.fock import SpectralPropagator, coherent_state
    from lcdeco.hamiltonians import build_effective_hamiltonian

    dim = 64
    ts = _grid(M_REF, periods=1.0, n=50)
    psi0 = coherent_state(2.0, dim)
    grids = [SpectralPropagator(build_effective_hamiltonian(k, M_REF, dim))
             .evolve_grid(psi0, ts, lambda b, _: b)[0] for k in (0, 1)]
    d01 = np.abs(np.sum(np.conj(grids[1]) * grids[0], axis=0))
    d10 = np.abs(np.sum(np.conj(grids[0]) * grids[1], axis=0))
    assert np.max(np.abs(d01 - d10)) < 1e-12
    d_oracle = decoherence_fock_oracle(M_REF, 2.0, ts, dim)
    assert np.max(np.abs(d_oracle - d01)) < 1e-12


def test_fock_oracle_joint_guard_trips_no_later_than_either_branch():
    """The oracle guards both branches' top levels summed: at the regime
    of test_fock's streamed callers (omega_a = 4, g = 0.5, alpha = 3,
    dim = 40) it trips by the first sample at which either branch,
    evolved on its own, holds LEAK_TOL in its top LEAK_LEVELS levels."""
    from lcdeco.fock import (LEAK_LEVELS, LEAK_TOL, SpectralPropagator,
                             coherent_state)
    from lcdeco.hamiltonians import build_effective_hamiltonian
    from lcdeco.observables import sampling_limit

    m = params_from_dimensionless(4.0, 0.5)
    dim = 40
    ts = np.arange(0.0, math.pi / (2.0 * m.Omega), sampling_limit(m))
    psi0 = coherent_state(3.0, dim)
    top = [np.sum(np.abs(SpectralPropagator(
        build_effective_hamiltonian(k, m, dim)).evolve_grid(
            psi0, ts, lambda b, _: b)[0][dim - LEAK_LEVELS:]) ** 2, axis=0)
        for k in (0, 1)]
    reached = np.flatnonzero(np.maximum(*top) >= LEAK_TOL)
    assert len(reached) > 0, "the regime never reached the leakage tolerance"
    with pytest.raises(TruncationError):
        decoherence_fock_oracle(m, 3.0, ts[:reached[0] + 1], dim)


def test_gaussian_oracle_trivial_limit():
    m0 = params_from_dimensionless(1.8, 0.0)
    ts = np.linspace(0.0, 10.0, 32)
    assert np.max(np.abs(decoherence_gaussian_oracle(m0, 3.0, ts) - 1.0)) \
        < 1e-12


def test_gaussian_oracle_matches_fock_small_alpha():
    ts = _grid(M_REF, periods=1.0, n=200)
    d_g = decoherence_gaussian_oracle(M_REF, 2.0, ts)
    d_f = decoherence_fock_oracle(M_REF, 2.0, ts, 64)
    assert np.max(np.abs(d_g - d_f)) <= 1e-8


def test_gaussian_oracle_matches_exact_large_alpha():
    # no Fock space could hold alpha=30; the Gaussian form costs the same
    ts = _grid(M_REF, periods=1.0, n=400)
    d_g = decoherence_gaussian_oracle(M_REF, 30.0, ts)
    d_ex = decoherence_exact(M_REF, 30.0, ts)
    assert np.max(np.abs(d_g - d_ex)) <= 1e-8


def _regimes(alpha_max):
    """Random valid regimes: omega_a in [1.5, 12], gamma <= 0.15, complex
    alpha with |alpha| <= alpha_max, t in [0, 50]."""
    return st.tuples(
        st.floats(1.5, 12.0), st.floats(0.0, 0.15),
        st.floats(0.0, alpha_max), st.floats(0.0, 2.0 * math.pi),
        st.lists(st.floats(0.0, 50.0), min_size=1, max_size=16))


def _regime(omega_a, gamma, r, phase, ts):
    m = params_from_dimensionless(omega_a, gamma * (omega_a - 1.0))
    return m, r * complex(math.cos(phase), math.sin(phase)), np.array(ts)


@settings(max_examples=300, deadline=None)
@given(_regimes(30.0))
def test_gaussian_oracle_matches_exact_random(regime):
    m, alpha, ts = _regime(*regime)
    d_g = decoherence_gaussian_oracle(m, alpha, ts)
    assert np.max(np.abs(d_g - decoherence_exact(m, alpha, ts))) <= 1e-8


@settings(max_examples=300, deadline=None)
@given(_regimes(FOCK_ALPHA_MAX))
def test_fock_oracle_matches_gaussian_random(regime):
    """The truncated-Fock route over every amplitude the runner sends
    through it, with a truncation chosen from alpha.  The 32 extra levels
    hold the squeezed vacuum's own tail: with 16, alpha = 0 at
    omega_a = 12, gamma = 0.15 (dim 20) is 4e-7 off, and the leakage
    guard does not trip."""
    m, alpha, ts = _regime(*regime)
    dim = 2 * min_adequate_dim(alpha) + 32
    d_f = decoherence_fock_oracle(m, alpha, ts, dim)
    assert np.max(np.abs(d_f - decoherence_gaussian_oracle(m, alpha, ts))) \
        <= 1e-8


@settings(max_examples=300, deadline=None)
@given(_regimes(30.0), st.sampled_from((0, 1)))
def test_evolution_coefficients_canonical_random(regime, k):
    m, _, ts = _regime(*regime)
    u, v = evolution_coefficients(k, m, ts)
    assert np.max(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0)) <= 1e-12


def test_phase_insensitivity():
    """D depends on alpha only through |alpha|."""
    rng = np.random.default_rng(29)
    ts = _grid(M_REF, periods=1.0, n=60)
    base_g = decoherence_gaussian_oracle(M_REF, 2.0, ts)
    base_f = decoherence_fock_oracle(M_REF, 2.0, ts, 64)
    for _ in range(5):
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rotated = 2.0 * phase
        assert np.max(np.abs(decoherence_gaussian_oracle(M_REF, rotated, ts)
                             - base_g)) < 1e-12
        assert np.max(np.abs(decoherence_fock_oracle(M_REF, rotated, ts, 64)
                             - base_f)) < 1e-8
    # closed forms only ever see |alpha|
    assert decoherence_exact(M_REF, 2.0j, 0.7) \
        == decoherence_exact(M_REF, 2.0, 0.7)


def test_monotone_in_alpha():
    t = 0.5 * math.pi / M_REF.Omega   # sin(Omega t) != 0
    values = [decoherence_exact(M_REF, a, t) for a in (0.0, 5.0, 10.0, 30.0)]
    assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))


def test_full_model_trivial_limits():
    s = 1.0 / math.sqrt(2.0)
    assert abs(full_model_coherence(M_REF, s, s, 2.0, 0.0, 64) - 1.0) < 1e-9
    m0 = params_from_dimensionless(1.8, 0.0)
    ts = np.linspace(0.0, 10.0, 16)
    d = full_model_coherence(m0, s, s, 2.0, ts, 64)
    assert np.max(np.abs(d - 1.0)) < 1e-9


def test_full_model_weight_validation():
    with pytest.raises(ValueError):
        full_model_coherence(M_REF, 0.9, 0.9, 2.0, 0.5, 64)
    with pytest.raises(ValueError):
        full_model_coherence(M_REF, 1.0, 0.0, 2.0, 0.5, 64)
    # unequal but normalized weights are fine
    full_model_coherence(M_REF, 0.6, 0.8, 2.0, 0.5, 64)


def test_full_model_tracks_exact():
    """gamma = 0.07: the exactly evolved coherence follows the
    branch-overlap prediction to within 0.1 over a jump period."""
    m = model_params(1.0, 1.8, 0.056)
    s = 1.0 / math.sqrt(2.0)
    ts = _grid(m, periods=1.0, n=200)
    full = full_model_coherence(m, s, s, 2.0, ts, 64)
    ref = decoherence_exact(m, 2.0, ts)
    assert np.max(np.abs(full - ref)) <= 0.1


def test_full_model_revival():
    m = model_params(1.0, 1.8, 0.056)
    s = 1.0 / math.sqrt(2.0)
    val = full_model_coherence(m, s, s, 2.0, math.pi / m.Omega, 64)
    assert val >= 0.90


def test_jump_metrics():
    jm = jump_metrics(M_REF, 0.0)
    assert abs(jm.period * M_REF.Omega - math.pi) < 1e-12
    assert abs(jm.t_min - 0.5 * jm.period) < 1e-15
    d2o2 = (M_REF.delta * M_REF.Omega) ** 2
    g_min = M_REF.delta * M_REF.Omega / math.sqrt(d2o2 + 8 * M_REF.g ** 4)
    assert abs(jm.d_min - g_min) < 1e-12


def test_jump_metrics_ordering():
    d_mins = [jump_metrics(M_REF, a).d_min for a in (5.0, 10.0, 30.0)]
    assert d_mins[0] > d_mins[1] > d_mins[2]


def test_jump_metrics_uncoupled():
    """g = 0: no jump, D ≡ 1, so the minimum is exactly 1."""
    assert jump_metrics(params_from_dimensionless(1.8, 0.0), 2.0).d_min \
        == 1.0
