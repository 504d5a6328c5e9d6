"""Decoherence factor: closed forms, oracles, full-model coherence."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_ref import dense_evolution
from lcdeco.circuit import model_params, params_from_dimensionless
from lcdeco.decoherence import (decoherence_approx, decoherence_exact,
                                decoherence_fock_oracle,
                                decoherence_gaussian_oracle,
                                full_model_coherence, jump_metrics)
from lcdeco.errors import TruncationError
from lcdeco.fock import _poisson_reach, hermitian_eig, min_adequate_dim
from lcdeco.hamiltonians import (evolution_coefficients, lowest_level,
                                 squeeze_coefficients)
from lcdeco.observables import current_numeric, sampling_limit
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
    the oracle's one direct-sum form matches the two branches evolved
    separately by the dense reference to 1e-12."""
    from lcdeco.fock import coherent_state
    from lcdeco.hamiltonians import build_effective_hamiltonian

    dim = 64
    ts = _grid(M_REF, periods=1.0, n=50)
    psi0 = coherent_state(2.0, dim)
    grids = [dense_evolution(build_effective_hamiltonian(k, M_REF, dim),
                             psi0, ts) for k in (0, 1)]
    d01 = np.abs(np.sum(np.conj(grids[1]) * grids[0], axis=0))
    d10 = np.abs(np.sum(np.conj(grids[0]) * grids[1], axis=0))
    assert np.max(np.abs(d01 - d10)) < 1e-12
    d_oracle = decoherence_fock_oracle(M_REF, 2.0, ts, dim)
    assert np.max(np.abs(d_oracle - d01)) < 1e-12


def test_fock_oracle_joint_guard_trips_no_later_than_either_branch():
    """The oracle guards both branches' top levels summed: at the regime
    of test_fock's guarded callers (omega_a = 4, g = 0.5, alpha = 3,
    dim = 40) it trips by the first sample at which either branch,
    evolved on its own by the dense reference, holds LEAK_TOL in its top
    LEAK_LEVELS levels."""
    from lcdeco.fock import LEAK_LEVELS, LEAK_TOL, coherent_state
    from lcdeco.hamiltonians import build_effective_hamiltonian
    from lcdeco.observables import sampling_limit

    m = params_from_dimensionless(4.0, 0.5)
    dim = 40
    ts = np.arange(0.0, math.pi / (2.0 * m.Omega), sampling_limit(m))
    psi0 = coherent_state(3.0, dim)
    top = [np.sum(np.abs(dense_evolution(
        build_effective_hamiltonian(k, m, dim), psi0,
        ts)[dim - LEAK_LEVELS:]) ** 2, axis=0) for k in (0, 1)]
    reached = np.flatnonzero(np.maximum(*top) >= LEAK_TOL)
    assert len(reached) > 0, "the regime never reached the leakage tolerance"
    with pytest.raises(TruncationError):
        decoherence_fock_oracle(m, 3.0, ts[:reached[0] + 1], dim)


def test_gaussian_oracle_trivial_limit():
    m0 = params_from_dimensionless(1.8, 0.0)
    ts = np.linspace(0.0, 10.0, 32)
    assert np.max(np.abs(decoherence_gaussian_oracle(m0, 3.0, ts) - 1.0)) \
        < 1e-12


def test_gaussian_oracle_uncoupled_is_exactly_one():
    """g = 0: the relative pair has q = 0 exactly, so D is exactly 1."""
    m0 = params_from_dimensionless(1.8, 0.0)
    ts = np.linspace(0.0, 50.0, 401)
    assert np.all(decoherence_gaussian_oracle(m0, 30.0 - 4.0j, ts) == 1.0)


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
    assert np.max(np.abs(d_g - decoherence_exact(m, alpha, ts))) <= 1e-13


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


# ---------------------------------------------------------------------------
# the lowest level an evolution starts at

def _stretch(m):
    """(ω̃ + 2|λ|)/Ω, the largest |u| + |v| over all t."""
    return (m.omega_tilde + 2.0 * abs(m.lam)) / m.Omega


def _at_level_zero(run):
    """run() with every evolution started at level 0, as without
    lowest_level."""
    with mock.patch("lcdeco.decoherence.lowest_level", return_value=0), \
            mock.patch("lcdeco.observables.lowest_level", return_value=0):
        return run()


@settings(max_examples=12, deadline=None)
@example((8.0, 0.05, 30.0, 0.4, 3.0, 5))      # fig4's point
@example((4.0, 0.15, 30.0, 2.0, 0.7, 4))      # n_lo = 262 of 1589 levels
@example((8.0, 0.15, 30.0, 0.0, 1.2, 3))  # s = 1.28: 52, 500 if s were 1
@given(st.tuples(st.floats(1.5, 12.0), st.floats(0.0, 0.15),
                 st.floats(15.0, 30.0), st.floats(0.0, 2.0 * math.pi),
                 st.floats(0.0, 10.0), st.integers(3, 6)))
def test_evolution_from_lowest_level_matches_level_zero_random(regime):
    """P_c (full H) and D_fock (H₀ ⊕ H₁) from the windowed evolution agree
    with the same evolution started at level 0 to 1e-12, at a truncation
    that holds the stretched state, ⌈(s|α|)² + R(s|α|)⌉ levels.  Grids
    start by t = 10: two solves of matrices of different order drift
    apart like t·eps·‖H‖, so by t = 50 a level-0 run and one with a
    single extra top level already differ by ~1e-12."""
    omega_a, gamma, r, phase, t0, n = regime
    m, alpha, _ = _regime(omega_a, gamma, r, phase, [])
    ts = t0 + np.arange(n) * sampling_limit(m) / 2
    stretched = _stretch(m) * r
    dim = math.ceil(stretched ** 2 + _poisson_reach(stretched))

    def both():
        return (current_numeric(m, alpha, ts, dim)[0],
                decoherence_fock_oracle(m, alpha, ts, dim))

    for got, ref in zip(both(), _at_level_zero(both)):
        assert np.max(np.abs(got - ref)) <= 1e-12


def test_fig4_solves_two_sectors_of_772_levels(monkeypatch):
    """At fig4's point (ω_a = 8, g = 0.35, α = 30, dim = 1200) the full H
    starts at level 428: each parity sector has 1200 − 428 = 772 levels."""
    from lcdeco import fock

    calls = []

    def counted(diag, offdiag):
        calls.append(len(diag))
        return hermitian_eig(diag, offdiag)

    monkeypatch.setattr(fock, "hermitian_eig", counted)
    m = params_from_dimensionless(8.0, 0.35)
    assert lowest_level(m, 30.0) == 428
    current_numeric(m, 30.0, np.arange(3) * sampling_limit(m) / 2, 1200)
    assert calls == [772, 772]


@given(_regimes(FOCK_ALPHA_MAX))
def test_lowest_level_is_zero_up_to_the_fock_limit(regime):
    """Every amplitude the runner sends through the Fock routes starts at
    level 0, so those runs evolve exactly what they did before n_lo."""
    m, alpha, _ = _regime(*regime)
    assert lowest_level(m, alpha) == 0


def test_lowest_level_is_zero_at_the_alpha_10_fig4_point():
    # the cli-cold benchmark's fig4 config (perfbench/configs/fig4.cfg)
    assert lowest_level(params_from_dimensionless(8.0, 0.35), 10.0) == 0


@pytest.mark.parametrize("route", ["current", "fock", "full"])
def test_dim_below_lowest_level_reports_the_coherent_tail(route):
    """dim = 400 at fig4's point lies below n_lo = 428: every route still
    raises the coherent state's TruncationError with its suggested dim,
    as it did before the evolution started above level 0."""
    m = params_from_dimensionless(8.0, 0.35)
    ts = np.arange(3) * sampling_limit(m) / 2
    run = {"current": lambda: current_numeric(m, 30.0, ts, 400),
           "fock": lambda: decoherence_fock_oracle(m, 30.0, ts, 400),
           "full": lambda: full_model_coherence(m, 0.6, 0.8, 30.0, ts, 400)}
    with pytest.raises(TruncationError, match="tail mass") as err:
        run[route]()
    assert err.value.suggested_dim > 1000


def test_lowest_level_set_too_high_trips_the_bottom_edge(monkeypatch):
    """At ω_a = 4, γ = 0.15, α = 20 the rule starts at level 4.  Forced to
    start at level 240 instead, where the initial state holds only 2e-18
    below it, the Fock oracle trips the guard: H₀'s squeezed branch
    reaches lower, and the bottom edge trips with no dim suggested."""
    m = params_from_dimensionless(4.0, 0.45)
    ts = _grid(m, periods=1.0, n=41)
    assert lowest_level(m, 20.0) == 4
    decoherence_fock_oracle(m, 20.0, ts, 820)
    monkeypatch.setattr("lcdeco.decoherence.lowest_level",
                        lambda m, alpha: 240)
    with pytest.raises(TruncationError, match="bottom-") as err:
        decoherence_fock_oracle(m, 20.0, ts, 820)
    assert err.value.suggested_dim is None


@settings(max_examples=300, deadline=None)
@given(_regimes(30.0), st.sampled_from((0, 1)))
def test_evolution_coefficients_canonical_random(regime, k):
    m, _, ts = _regime(*regime)
    u, v = evolution_coefficients(k, m, ts)
    assert np.max(np.abs(np.abs(u) ** 2 - np.abs(v) ** 2 - 1.0)) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(_regimes(30.0), st.sampled_from((0, 1)))
def test_squeeze_pair_composes_to_evolution_coefficients_random(regime, k):
    """The paper's squeeze pair (mu_k, nu_k), composed at 0 and t, is the
    Heisenberg solution of H_k that evolution_coefficients returns."""
    m, _, ts = _regime(*regime)
    mu_0, nu_0 = squeeze_coefficients(k, m, 0.0)
    mu_t, nu_t = squeeze_coefficients(k, m, ts)
    u, v = evolution_coefficients(k, m, ts)
    assert np.max(np.abs(np.conj(mu_t * mu_0 - nu_t * nu_0) - u)) <= 1e-12
    assert np.max(np.abs(mu_t * nu_0 - mu_0 * nu_t - v)) <= 1e-12


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


D_ROUTES = {
    "exact": lambda t: decoherence_exact(M_REF, 2.0, t),
    "approx": lambda t: decoherence_approx(M_REF, 2.0, t),
    "gaussian_oracle": lambda t: decoherence_gaussian_oracle(M_REF, 2.0, t),
    "fock_oracle": lambda t: decoherence_fock_oracle(M_REF, 2.0, t, 64),
    "full_model": lambda t: full_model_coherence(
        M_REF, math.sqrt(0.5), math.sqrt(0.5), 2.0, t, 64),
}


@pytest.mark.parametrize("route", sorted(D_ROUTES))
def test_every_route_returns_the_shape_of_t(route):
    """A float for scalar t, a (2, 3) array for a (2, 3) grid, each entry
    the value at its own t, and an empty array for an empty t."""
    run = D_ROUTES[route]
    t = _grid(M_REF, n=6).reshape(2, 3)
    grid = run(t)
    assert grid.shape == (2, 3)
    assert np.max(np.abs(grid.ravel() - run(t.ravel()))) <= 1e-14
    scalar = run(t[1, 2])
    assert isinstance(scalar, float)
    assert abs(scalar - grid[1, 2]) <= 1e-14
    assert run(np.empty(0)).shape == (0,)


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
