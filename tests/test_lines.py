"""P_c(t) from its line spectrum: the Taylor-expanded FFT evaluator, the
lines against dense evolution, the dropped lines' weight, the refusal of
grids that are not uniform, and the phase rule at its limit."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_ref import charge_occupation, dense_evolution
from lcdeco import fock
from lcdeco.circuit import params_from_dimensionless
from lcdeco.decoherence import (decoherence_fock_oracle,
                                decoherence_gaussian_oracle, evolve_form)
from lcdeco.fock import (PRUNE_TOL, SpectralPropagator, _line_sums, _lines,
                         _poisson_reach, coherent_state, joint_state)
from lcdeco.hamiltonians import build_full_hamiltonian
from lcdeco.observables import charge_form, current_numeric, sampling_limit

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
    the reported expansion tail keeps its budget of 1e-14·Σ|C|."""
    rng = np.random.default_rng(n)
    dt = 0.05
    nyquist = math.pi / dt
    t_max = abs(t0) + (n - 1) * dt
    for size in (300, 41):
        delta = rng.uniform(-5.0 * nyquist, 5.0 * nyquist, size)
        delta[:5] = [0.0, nyquist, -nyquist, 1e-9, 2.0 * nyquist]
        C = (rng.normal(size=size) + 1j * rng.normal(size=size)) \
            * 10.0 ** rng.uniform(-12.0, 0.0, size)
        total = np.sum(np.abs(C))
        got, tail = _line_sums(C, delta, t0, dt, n, 1e-14 * total)
        assert got.shape == (n,)
        assert tail * total <= 1e-14 * total
        tol = (1e-13 + 8.0 * EPS * np.max(np.abs(delta)) * t_max) * total
        assert np.max(np.abs(got - _direct_sum(C, delta, t0, dt, n))) <= tol


def test_line_sums_of_no_lines_are_zero():
    values, tail = _line_sums(np.zeros(0, dtype=complex), np.zeros(0), 1.0,
                              0.1, 5, 1e-13)
    assert values.shape == (5,) and not values.any() and tail == 0.0


def _stretch(m):
    return (m.omega_tilde + 2.0 * abs(m.lam)) / m.Omega


def _dense_charge(H, psi, ts, theta):
    """P_c at ts of psi evolved by the dense eigendecomposition of H."""
    return charge_occupation(dense_evolution(H, psi, ts), theta)


def _charge(H, psi, ts, theta):
    """P_c at ts from its line spectrum, as current_numeric takes it."""
    return evolve_form(H, psi, ts, charge_form(H, theta)).real


def _charge_lines(H, psi, theta):
    """(C, Δ, dropped) of P_c's form, as evolve_grid builds them."""
    sectors, _ = SpectralPropagator(H)._banded(psi)
    return _lines(sectors, charge_form(H, theta),
                  math.sqrt(PRUNE_TOL) * np.vdot(psi, psi).real)


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
    got = _charge(H, psi, ts, theta)
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
    lines = _charge_lines(H, psi, theta)
    assert len(left_out) == 3          # the pairs AA, AB and BB
    exact = sum(s for s, _, _ in left_out)
    assert exact > 0.0
    for s, dropped, budget in left_out:
        assert s <= dropped * (1.0 + 1e-12) and dropped <= budget
    assert exact <= lines[2] * (1.0 + 1e-12)
    assert lines[2] <= math.sqrt(PRUNE_TOL) * np.vdot(psi, psi).real
    ts = np.linspace(0.0, 3.0, 31)
    got = _charge(H, psi, ts, theta)
    assert np.max(np.abs(got - _dense_charge(H, psi, ts, theta))) <= 1e-12


def test_forms_need_one_row_per_level():
    """A sector whose rows run against the level order cannot be paired
    level by level with another, so no form over it is built."""
    from lcdeco.fock import Sector, SectorHamiltonian
    H = SectorHamiltonian(4, [Sector([0, 3], [0.0, 1.0], [0.5]),
                              Sector([1, 2], [0.0, 1.0], [0.5])])
    with pytest.raises(ValueError, match="one row per level"):
        charge_form(H, 1.0)


def test_off_grid_times_are_refused_before_any_line_sum(monkeypatch):
    """A grid within the sampling limit whose steps each sit within
    1e-9·dt of the first, but whose times sit ~1e-10·dt off
    ts[0] + i·dt, far above their rounding: the line sums at
    ts[0] + i·dt would miss the dense P_c at ts by more than 1e-12, so
    current_numeric refuses the grid, naming its deviation, and no line
    is summed."""
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
    uniform = ts[0] + np.arange(100) * ((ts[-1] - ts[0]) / 99)
    assert np.max(np.abs(_charge(H, psi, uniform, m.theta) - ref)) > 1e-12

    def unreachable(*args):
        raise AssertionError("_line_sums called on a grid off uniform")

    monkeypatch.setattr(fock, "_line_sums", unreachable)
    off = np.max(np.abs(ts - uniform))
    with pytest.raises(ValueError, match="time grid is not uniform: a time "
                       "is %.3g off" % off):
        current_numeric(m, alpha, ts, dim)


def _same_sector_d_part(sector, squares):
    """Σ_jk |c_j|·|M_jk|·|c_k| of the imbalance part of one sector's own
    form, M = Qᵀ·diag(d)·Q over the span's components with every row,
    no tile cut: the summed |C| of the lines that part would give."""
    _, _, Q, c, _ = sector
    d = squares - 0.5 * (np.max(squares) + np.min(squares))
    M = Q.T @ (d[:, None] * Q)
    return float(np.abs(c) @ np.abs(M) @ np.abs(c))


def test_same_sector_forms_at_half_mixing_are_one_trace_line(monkeypatch):
    """θ = π/2, α = 6 on 160 levels: each sector's own form is one line at
    Δ = 0, since its squared weights sin²(π/4) and cos²(π/4) differ by an
    ulp; `dropped` is at least the dense summed |C| of the imbalance
    parts left out, and P_c still matches dense evolution to 1e-12."""
    theta = math.pi / 2
    m = params_from_dimensionless(8.0, 0.35, theta)
    dim = 160
    H = build_full_hamiltonian(m, dim)
    psi = joint_state(0.6, 0.8j, coherent_state(6.0, dim))
    forms = []
    form_lines = fock._form_lines

    def recording(sector, squares, budget):
        out = form_lines(sector, squares, budget)
        forms.append((sector, squares, out))
        return out

    monkeypatch.setattr(fock, "_form_lines", recording)
    lines = _charge_lines(H, psi, theta)
    assert len(forms) == 2
    left_out = 0.0
    for sector, squares, (C, delta, _) in forms:
        assert len(C) == 1 and delta.tolist() == [0.0]
        assert 0.0 < np.ptp(squares) < 4.0 * EPS
        left_out += _same_sector_d_part(sector, squares)
    assert 0.0 < left_out <= lines[2]
    assert lines[2] <= math.sqrt(PRUNE_TOL) * np.vdot(psi, psi).real
    ts = np.linspace(0.0, 3.0, 31)
    got = _charge(H, psi, ts, theta)
    assert np.max(np.abs(got - _dense_charge(H, psi, ts, theta))) <= 1e-12


def test_phase_rule_refuses_just_past_the_limit_it_names(monkeypatch):
    """fig2's model at α = 2 on 64 levels: a grid to t = 1e12 is refused
    with the largest admissible max|t|.  A 400-sample grid ending just
    inside that limit keeps the Fock oracle within gaussian_vs_fock's
    1e-8 bar of the Gaussian oracle; one ending just outside it is
    refused before any line is summed."""
    m = params_from_dimensionless(8.0, 0.35)
    with pytest.raises(ValueError, match="too long to phase in double "
                       "precision") as refused:
        decoherence_fock_oracle(m, 2.0, np.linspace(0.0, 1e12, 400), 64)
    assert str(refused.value).startswith("time step max|t| = 1e+12 ")
    limit = float(re.search(r"largest admissible max\|t\| is (\S+);",
                            str(refused.value)).group(1))
    assert 1e3 < limit < 1e12
    inside = np.linspace(0.0, limit * (1.0 - 1e-5), 400)
    assert np.max(np.abs(decoherence_fock_oracle(m, 2.0, inside, 64)
                         - decoherence_gaussian_oracle(m, 2.0, inside))) \
        <= 1e-8

    def unreachable(*args):
        raise AssertionError("_line_sums called past the phase limit")

    monkeypatch.setattr(fock, "_line_sums", unreachable)
    with pytest.raises(ValueError, match="largest admissible max"):
        decoherence_fock_oracle(
            m, 2.0, np.linspace(0.0, limit * (1.0 + 1e-5), 400), 64)
