"""P_c(t) from its line spectrum: the Taylor-expanded FFT evaluator, the
lines against dense evolution, the dropped lines' weight, and the edge
populations the leakage guard reads from the lines."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_ref import dense
from lcdeco import decoherence, fock
from lcdeco.circuit import params_from_dimensionless
from lcdeco.decoherence import evolve_charge, evolve_joint
from lcdeco.errors import TruncationError
from lcdeco.fock import (PRUNE_TOL, SpectralPropagator, _line_sums,
                         _poisson_reach, coherent_state, joint_state)
from lcdeco.hamiltonians import build_full_hamiltonian
from lcdeco.observables import (charge_occupation, current_numeric,
                                sampling_limit)

EPS = np.finfo(float).eps


def _direct_sum(C, delta, t0, dt, n):
    """Σ_p C_p·e^{iΔ_p·t} at t = t0 + i·dt in extended precision."""
    t = np.longdouble(t0) + np.arange(n, dtype=np.longdouble) * \
        np.longdouble(dt)
    phase = np.outer(t, np.asarray(delta, dtype=np.longdouble))
    re = np.cos(phase) @ C.real.astype(np.longdouble) \
        - np.sin(phase) @ C.imag.astype(np.longdouble)
    im = np.sin(phase) @ C.real.astype(np.longdouble) \
        + np.cos(phase) @ C.imag.astype(np.longdouble)
    return re.astype(float) + 1j * im.astype(float)


@pytest.mark.parametrize("t0", [0.0, 13.7])
@pytest.mark.parametrize("n", [3, 4, 7, 4096, 4097])
def test_line_sums_match_an_extended_precision_direct_sum(n, t0):
    """Lines from far below to five times the grid's Nyquist frequency,
    magnitudes over twelve decades, in two sets: each set's sum is
    within (1e-13 + 8·eps·max|Δ|·max|t|)·Σ|C| of the direct sum, and
    the reported expansion tail keeps that budget."""
    rng = np.random.default_rng(n)
    dt = 0.05
    nyquist = math.pi / dt
    sets = []
    for size in (300, 41):
        delta = rng.uniform(-5.0 * nyquist, 5.0 * nyquist, size)
        delta[:5] = [0.0, nyquist, -nyquist, 1e-9, 2.0 * nyquist]
        C = (rng.normal(size=size) + 1j * rng.normal(size=size)) \
            * 10.0 ** rng.uniform(-12.0, 0.0, size)
        sets.append((C, delta))
    total = sum(np.sum(np.abs(C)) for C, _ in sets)
    values, tail = _line_sums(sets, t0, dt, n, 1e-14 * total)
    assert values.shape == (2, n)
    assert tail * total <= 1e-14 * total
    t_max = abs(t0) + (n - 1) * dt
    for got, (C, delta) in zip(values, sets):
        tol = (1e-13 + 8.0 * EPS * np.max(np.abs(delta)) * t_max) \
            * np.sum(np.abs(C))
        assert np.max(np.abs(got - _direct_sum(C, delta, t0, dt, n))) <= tol


def test_line_sums_of_no_lines_are_zero():
    empty = (np.zeros(0, dtype=complex), np.zeros(0))
    values, tail = _line_sums([empty, empty], 1.0, 0.1, 5, 1e-13)
    assert values.shape == (2, 5) and not values.any() and tail == 0.0


def _stretch(m):
    return (m.omega_tilde + 2.0 * abs(m.lam)) / m.Omega


def _dense_charge(H, psi, ts, theta):
    """P_c at ts of psi evolved by the dense eigendecomposition of H."""
    w, V = np.linalg.eigh(dense(H))
    states = V @ (np.exp(-1j * np.outer(w, ts)) * (V.T @ psi)[:, None])
    return charge_occupation(states, theta)


@settings(max_examples=40, deadline=None)
@example((8.0, 0.05, 5.0, math.pi / 2, math.pi / 4, 0.0, 0.0, 0.05, 40))
@example((4.0, 0.15, 3.0, 0.4, 0.3, 2.0, 1.3, 0.02, 3))
@given(st.tuples(st.floats(1.5, 12.0), st.floats(0.0, 0.15),
                 st.floats(0.0, 5.0), st.floats(0.05, math.pi - 0.05),
                 st.floats(0.1, math.pi / 2 - 0.1),
                 st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0),
                 st.floats(1e-3, 0.05), st.integers(3, 40)))
def test_charge_lines_match_dense_evolution_random(regime):
    """Random regimes of the full H, any mixing angle θ and qubit weights
    c0 = cos φ, c1 = sin φ·e^{iχ}: P_c from the lines is within 1e-12 of
    dense evolution on a uniform grid starting at t0, at a truncation
    that holds the stretched state.  t stays below 4, where the dense
    reference itself holds ~1e-13."""
    omega_a, gamma, alpha, theta, phi, chi, t0, dt, n = regime
    m = params_from_dimensionless(omega_a, gamma * (omega_a - 1.0), theta)
    stretched = _stretch(m) * alpha
    dim = max(math.ceil(stretched ** 2 + _poisson_reach(stretched)), 2)
    H = build_full_hamiltonian(m, dim)
    psi = joint_state(math.cos(phi), math.sin(phi) * np.exp(1j * chi),
                      coherent_state(alpha, dim))
    ts = t0 + np.arange(n) * dt
    got = evolve_charge(H, psi, ts, theta)
    assert np.max(np.abs(got - _dense_charge(H, psi, ts, theta))) <= 1e-12


def test_dropped_lines_weigh_at_most_their_budget(monkeypatch):
    """α = 6 on 160 levels at θ = 1.1 and c0 ≠ c1: lines are dropped, the
    |C| they would have carried sums, over every sector pair, to at most
    the reported weight and that to at most √PRUNE_TOL·‖ψ‖², and P_c
    still matches dense evolution to 1e-12."""
    theta = 1.1
    m = params_from_dimensionless(8.0, 0.35, theta)
    dim = 160
    H = build_full_hamiltonian(m, dim)
    psi = joint_state(0.6, 0.8j, coherent_state(6.0, dim))
    left_out = []
    prune = fock._prune

    def recording(mag, budget):
        keep, dropped = prune(mag, budget)
        out = np.ones(len(mag), dtype=bool)
        out[keep] = False
        left_out.append((float(np.sum(mag[out])), dropped, budget))
        return keep, dropped

    monkeypatch.setattr(fock, "_prune", recording)
    levels = H.size // 2
    charge = [np.where(s.index < levels, math.sin(0.5 * theta),
                       math.cos(0.5 * theta)) for s in H.sectors]
    (lines,), _ = SpectralPropagator(H).lines(psi, [(charge, True)])
    assert len(left_out) == 3          # the pairs AA, AB and BB
    exact = sum(s for s, _, _ in left_out)
    assert exact > 0.0
    for s, dropped, budget in left_out:
        assert s <= dropped * (1.0 + 1e-12) and dropped <= budget
    assert exact <= lines[2] * (1.0 + 1e-12)
    assert lines[2] <= math.sqrt(PRUNE_TOL) * np.vdot(psi, psi).real
    ts = np.linspace(0.0, 3.0, 31)
    got = evolve_charge(H, psi, ts, theta)
    assert np.max(np.abs(got - _dense_charge(H, psi, ts, theta))) <= 1e-12


def test_evolve_charge_needs_one_row_per_level():
    """A sector whose rows run against the level order cannot be paired
    level by level with another."""
    from lcdeco.fock import Sector, SectorHamiltonian
    H = SectorHamiltonian(4, [Sector([0, 3], [0.0, 1.0], [0.5]),
                              Sector([1, 2], [0.0, 1.0], [0.5])])
    with pytest.raises(ValueError, match="one row per level"):
        evolve_charge(H, np.eye(4)[0], [0.0, 0.1, 0.2], 1.0)


def _recorded_guards(monkeypatch):
    """The edge bounds every later leakage-guard test gets, from either
    route, before the guard tests them."""
    seen = []
    guard = fock._leak_guard

    def recording(leaks, pruned, n_lo, levels):
        seen.append(list(leaks))
        return guard(leaks, pruned, n_lo, levels)

    monkeypatch.setattr(fock, "_leak_guard", recording)
    monkeypatch.setattr(decoherence, "_leak_guard", recording)
    return seen


@pytest.mark.parametrize("n_lo, trips", [(260, False), (300, True)])
def test_edge_populations_from_lines_match_the_states(monkeypatch, n_lo,
                                                      trips):
    """At ω_a = 4, γ = 0.15, α = 20 on levels n_lo to 560 (the rule would
    start at level 4), both edges hold population: ~3e-11 at the top and
    from 6e-11 (n_lo = 260) to 1e-5 (n_lo = 300) at the bottom.  The
    edge bounds the line route hands the guard are at least the edge
    populations of evolve_grid's states (assert_leakage, one chunk) and
    at most 3·√PRUNE_TOL above them; the guard passes at n_lo = 260 and
    trips the bottom edge at n_lo = 300 on both routes."""
    m = params_from_dimensionless(4.0, 0.45)
    dim, alpha = 560, 20.0
    H = build_full_hamiltonian(m, dim, n_lo)
    psi = joint_state(math.sqrt(0.5), math.sqrt(0.5),
                      coherent_state(alpha, dim, 0)[n_lo:])
    psi /= np.linalg.norm(psi)
    ts = np.linspace(0.0, math.pi / m.Omega, 41)
    monkeypatch.setattr(fock, "CHUNK_SAMPLES", len(ts))
    seen = _recorded_guards(monkeypatch)
    outcomes = []
    for run in (lambda: evolve_joint(H, psi, ts, lambda block: block[0],
                                     n_lo),
                lambda: evolve_charge(H, psi, ts, m.theta, n_lo)):
        try:
            run()
            outcomes.append(False)
        except TruncationError as err:
            assert err.args[0].startswith("leakage guard tripped: bottom-")
            outcomes.append(True)
    assert outcomes == [trips, trips]
    states, lines = seen
    assert len(lines) == 2 and min(states) > 1e-11
    for s, line in zip(states, lines):
        assert s - 1e-15 <= line <= s + 3.0 * math.sqrt(PRUNE_TOL)


def test_off_grid_times_take_the_states(monkeypatch):
    """A grid that current_numeric accepts as uniform (each step within
    1e-9·dt of the first) but whose times sit ~1e-10·dt off
    ts[0] + i·dt, far above their rounding: the line sums, which sample
    ts[0] + i·dt, miss the dense P_c at ts by more than 1e-12, so
    current_numeric reduces P_c from the states at ts, within 1e-12 of
    dense evolution, and never calls evolve_charge."""
    from lcdeco import observables

    m = params_from_dimensionless(8.0, 0.35)
    dim, alpha = 64, 3.0
    dt = sampling_limit(m) / 2
    jitter = np.random.default_rng(5).uniform(-2e-10, 2e-10, 100) * dt
    ts = np.arange(100) * dt + jitter
    assert np.max(np.abs(np.diff(ts) - (ts[1] - ts[0]))) <= 1e-9 * dt
    H = build_full_hamiltonian(m, dim)
    psi = joint_state(math.sqrt(0.5), math.sqrt(0.5),
                      coherent_state(alpha, dim))
    ref = _dense_charge(H, psi, ts, m.theta)
    assert np.max(np.abs(evolve_charge(H, psi, ts, m.theta) - ref)) > 1e-12
    monkeypatch.setattr(observables, "evolve_charge", None)
    pc, _ = current_numeric(m, alpha, ts, dim)
    assert np.max(np.abs(pc - ref)) <= 1e-12
