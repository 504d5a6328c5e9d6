"""Probe current (analytic and numeric) and envelope analysis."""

import json
import math
import os

import numpy as np
import pytest
from scipy.signal import hilbert

from dense_ref import charge_occupation
import lcdeco.observables as observables
from lcdeco.circuit import model_params, params_from_dimensionless
from lcdeco.decoherence import decoherence_approx, decoherence_exact
from lcdeco.fock import coherent_state, joint_state
from lcdeco.observables import (PEAK_FLOOR, analytic_signal,
                                current_analytic, current_numeric,
                                envelope_metrics, sampling_limit,
                                spectral_peaks, spectrum)

M_REF = params_from_dimensionless(1.8, 0.05)
SQ = 1.0 / math.sqrt(2.0)
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _uniform_grid(m, periods, samples):
    return np.linspace(0.0, periods * 2.0 * math.pi / m.omega_a, samples)


def test_charge_occupation_pure_states():
    dim = 16
    osc = coherent_state(1.0, dim)
    # |1> with theta = pi/2: |<1_c|1>|^2 = cos^2(pi/4) = 1/2
    psi = np.concatenate([np.zeros(dim), osc])
    assert abs(charge_occupation(psi, math.pi / 2.0) - 0.5) < 1e-12
    # a qubit aligned with |1>_c = sin(t/2)|0> + cos(t/2)|1> gives 1
    theta = 0.73
    aligned = np.concatenate([math.sin(theta / 2) * osc,
                              math.cos(theta / 2) * osc])
    assert abs(charge_occupation(aligned, theta) - 1.0) < 1e-12


def test_charge_occupation_superposition():
    # equal superposition at theta = pi/2:
    # P_c = |(sin(pi/4) c0 + cos(pi/4) c1)|^2 = 1/2 + Re(c0 conj(c1))
    dim = 16
    psi = joint_state(SQ, SQ, coherent_state(0.5, dim))
    assert abs(charge_occupation(psi, math.pi / 2.0) - 1.0) < 1e-12
    psi2 = joint_state(SQ, -SQ, coherent_state(0.5, dim))
    assert abs(charge_occupation(psi2, math.pi / 2.0)) < 1e-12


def test_analytic_current_zero_at_t0():
    assert current_analytic(M_REF, 30.0, 0.0) == 0.0


def test_analytic_current_uncoupled_is_pure_rabi():
    m0 = params_from_dimensionless(1.8, 0.0)
    ts = np.linspace(0.0, 25.0, 2000)
    trace = current_analytic(m0, 5.0, ts)
    ref = m0.omega_a * np.sin(m0.omega_a * ts)   # sin(theta) = 1 here
    assert np.max(np.abs(trace - ref)) <= 1e-9 * m0.omega_a


def _charge_occupation_analytic(m, alpha, t):
    """Dispersive-regime P_c(t) ≈ 1/2 + (sinθ/2)·D(t)·cos(ω_a t) of the
    equal-weight superposition, D the simplified factor."""
    return 0.5 + 0.5 * math.sin(m.theta) * decoherence_approx(m, alpha, t) \
        * np.cos(m.omega_a * t)


def test_analytic_current_matches_derivative_of_occupation():
    """The closed-form current is exactly -2q d/dt P_c for the analytic
    occupation; checked against a high-order finite difference."""
    m = M_REF
    alpha = 30.0
    ts = np.linspace(0.1, 0.1 + 4.0 * math.pi / m.Omega, 3000)
    h = 1e-6
    dpc = (_charge_occupation_analytic(m, alpha, ts + h)
           - _charge_occupation_analytic(m, alpha, ts - h)) / (2.0 * h)
    trace = current_analytic(m, alpha, ts)
    assert np.max(np.abs(trace - (-2.0 * dpc))) < 1e-4 * np.max(np.abs(trace))


def test_analytic_current_sidebands():
    """alpha = 30 trace carries sidebands at omega_a +/- 2 Omega."""
    m = params_from_dimensionless(8.0, 0.35)
    ts = np.linspace(0.0, 8.0 * math.pi / m.Omega, 4096)
    trace = current_analytic(m, 30.0, ts)
    w, mag = spectrum(ts, trace)
    peaks = spectral_peaks(w, mag)
    freqs = np.sort(peaks[:3, 0])
    expected = np.sort([m.omega_a, m.omega_a - 2 * m.Omega,
                        m.omega_a + 2 * m.Omega])
    assert np.max(np.abs(freqs - expected) / expected) < 0.01


def _refined_peak_ref(w, mag, i):
    """Reference: w[i] moved to the vertex of the parabola through the
    three bins around the maximum at i, by at most half a bin."""
    den = mag[i - 1] - 2.0 * mag[i] + mag[i + 1]
    shift = 0.5 * (mag[i - 1] - mag[i + 1]) / den if den != 0 else 0.0
    return w[i] + float(np.clip(shift, -0.5, 0.5)) * (w[1] - w[0])


def _spectral_peaks_ref(w, mag, lo=0.0):
    """Reference: the per-bin loop over local maxima with magnitude >=
    PEAK_FLOOR·max, parabolic-refined, strongest first, here also cut
    at bins above lo."""
    floor = PEAK_FLOOR * np.max(mag)
    out = []
    for i in range(1, len(mag) - 1):
        if (w[i] > lo and mag[i] >= floor and mag[i] > mag[i - 1]
                and mag[i] >= mag[i + 1]):
            out.append((_refined_peak_ref(w, mag, i), mag[i]))
    out.sort(key=lambda p: -p[1])
    return np.array(out) if out else np.empty((0, 2))


def _peak_frequency_ref(w, mag, lo=0.0):
    """Reference: the bin of the largest magnitude in (lo, w[-1]) and its
    refined frequency (the rule fig4's carrier once had), or None when
    the window holds no bin."""
    sel = np.flatnonzero((w > lo) & (w < w[-1]))
    if len(sel) == 0:
        return None
    i = sel[np.argmax(mag[sel])]
    return i, float(_refined_peak_ref(w, mag, i))


def _random_spectra(rng, count):
    """(w, mag, lo) cases: smooth and quantized magnitudes (plateaus and
    ties), maxima at either end, and lo at 0, on a bin and between
    bins."""
    for case in range(count):
        n = int(rng.integers(3, 80))
        w = np.arange(n) * float(rng.uniform(0.01, 3.0))
        if case % 3 == 0:
            mag = rng.integers(0, 6, n).astype(float)
        elif case % 3 == 1:
            mag = np.abs(np.convolve(rng.standard_normal(n + 4),
                                     np.ones(5) / 5.0, mode="valid"))
        else:
            mag = rng.exponential(1.0, n)
        if case % 5 == 0:
            mag[0] = 2.0 * np.max(mag)
        if case % 7 == 0:
            mag[-1] = 2.0 * np.max(mag)
        k = int(rng.integers(0, n))
        for lo in (0.0, w[k], 0.5 * (w[k] + w[min(k + 1, n - 1)])):
            yield w, mag, lo


def test_spectral_peaks_match_the_per_bin_loop():
    """The vectorized rule gives the reference loop's rows bit for bit,
    ties in order, on random spectra with plateaus, ties, maxima at both
    ends and lo cuts; at lo = 0 that loop is the rule gate 9's sidebands
    were read with."""
    rng = np.random.default_rng(30)
    for w, mag, lo in _random_spectra(rng, 600):
        got = spectral_peaks(w, mag, lo)
        ref = _spectral_peaks_ref(w, mag, lo)
        assert got.shape == ref.shape and np.array_equal(got, ref), (mag, lo)


def test_first_spectral_peak_is_the_old_carrier_pick():
    """Wherever the largest bin in (lo, w[-1]) is a local maximum at or
    above the floor, the first row is that bin's refined frequency, bit
    for bit as the old largest-bin rule; elsewhere that bin is no peak
    (a window edge on a slope, or under the floor) and no row is
    stronger than it."""
    rng = np.random.default_rng(31)
    agreed = 0
    for w, mag, lo in _random_spectra(rng, 600):
        got = spectral_peaks(w, mag, lo)
        pick = _peak_frequency_ref(w, mag, lo)
        if pick is None:
            assert len(got) == 0
            continue
        i, freq = pick
        if (mag[i] > mag[i - 1] and mag[i] >= mag[i + 1]
                and mag[i] >= PEAK_FLOOR * np.max(mag)):
            assert (got[0, 0], got[0, 1]) == (freq, mag[i])
            agreed += 1
        else:
            assert len(got) == 0 or got[0, 1] <= mag[i]
    assert agreed > 300


def test_envelope_without_a_peak_above_one_cycle_refused():
    """Half a sine over the window has no spectral peak above one cycle
    per window, so no carrier: it is refused by name."""
    ts = np.linspace(0.0, 10.0, 256)
    x = np.sin(math.pi * ts / 10.0)
    assert len(spectral_peaks(*spectrum(ts, x),
                              lo=2.0 * math.pi / 10.0)) == 0
    with pytest.raises(ValueError,
                       match="no spectral peak above one cycle per window"):
        envelope_metrics(ts, x)


def test_numeric_current_uncoupled_amplitude():
    m0 = params_from_dimensionless(8.0, 0.0)
    ts = _uniform_grid(m0, 8, 4096)
    assert ts[1] - ts[0] <= sampling_limit(m0)
    _, inum = current_numeric(m0, 2.0, ts, 32)
    iref = current_analytic(m0, 2.0, ts)
    amp = np.max(np.abs(iref))
    assert np.max(np.abs(inum - iref)) <= 0.005 * amp


def test_numeric_current_second_order_convergence():
    # halving dt shrinks the finite-difference error by about 4x
    m0 = params_from_dimensionless(8.0, 0.0)
    errs = []
    for samples in (2048, 4096):
        ts = _uniform_grid(m0, 4, samples)
        _, inum = current_numeric(m0, 1.0, ts, 24)
        iref = current_analytic(m0, 1.0, ts)
        errs.append(np.max(np.abs(inum - iref)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_numeric_current_envelope_level():
    """gamma = 0.07, alpha = 2: the numeric trace's envelope follows
    e sin(theta) omega_a D(t) at the 10% level in rms.

    Pointwise agreement is NOT expected: at this coupling the full model
    carries real sidebands (a few percent of the carrier) that beat into
    the envelope, so only the aggregate level is budgeted."""
    m = model_params(1.0, 1.8, 0.056)
    ts = _uniform_grid(m, 8, 4096)
    _, inum = current_numeric(m, 2.0, ts, 64)
    env = np.abs(analytic_signal(inum - inum.mean()))
    ref = math.sin(m.theta) * m.omega_a * decoherence_exact(m, 2.0, ts)
    k = int(0.08 * len(ts))
    dev = env[k:-k] - ref[k:-k]
    rms = math.sqrt(float(np.mean(dev ** 2))) / float(np.max(np.abs(ref)))
    assert rms <= 0.10


def test_numeric_current_matches_stored_fig4_alpha_30():
    """The benchmark's fig4 point (display set, α = 30, dim = 1200, 4096
    samples over eight jump periods) agrees with the benchmark's stored
    I_numeric column to its own I_numeric_rel of max|I|."""
    with open(os.path.join(PERFBENCH, "reference.json"),
              encoding="utf-8") as fh:
        reference = json.load(fh)
    stored = reference["stored_numeric"][
        "fig4 alpha=30 dim=1200 samples=4096"]
    with np.load(os.path.join(PERFBENCH, stored["file"])) as data:
        ref = data[stored["array"]]
    m = params_from_dimensionless(8.0, 0.35)
    ts = np.linspace(0.0, 8.0 * math.pi / m.Omega, 4096)
    _, inum = current_numeric(m, 30.0, ts, 1200)
    tol = reference["tolerances"]["I_numeric_rel"] * np.max(np.abs(ref))
    assert np.max(np.abs(inum - ref)) <= tol


def test_numeric_current_grid_validation():
    m = params_from_dimensionless(8.0, 0.0)
    coarse = np.linspace(0.0, 10.0, 40)   # dt well above the limit
    assert coarse[1] - coarse[0] > sampling_limit(m)
    with pytest.raises(ValueError, match="sampling criterion"):
        current_numeric(m, 1.0, coarse, 24)
    uneven = np.array([0.0, 0.01, 0.03])   # each step inside the limit
    assert np.max(np.diff(uneven)) <= sampling_limit(m)
    with pytest.raises(ValueError, match="time grid is not uniform: a time "
                       "is 0.005 off"):
        current_numeric(m, 1.0, uneven, 24)


@pytest.mark.parametrize("ts", [np.zeros(5), np.linspace(10.0, 0.0, 5)],
                         ids=["zero-step", "descending"])
def test_numeric_current_needs_positive_step(ts):
    # the descending grid's |step| 2.5 is far above the limit (0.079)
    m = params_from_dimensionless(8.0, 0.0)
    with pytest.raises(ValueError, match="positive step"):
        current_numeric(m, 1.0, ts, 24)


def test_bounded_charge():
    # |integral of I over a carrier period| <= 2q * max P_c excursion
    m = params_from_dimensionless(8.0, 0.35)
    ts = _uniform_grid(m, 8, 4096)
    pc, inum = current_numeric(m, 2.0, ts, 48)
    period = 2.0 * math.pi / m.omega_a
    n_per = int(round(period / (ts[1] - ts[0])))
    q_int = abs(np.trapezoid(inum[:n_per + 1], ts[:n_per + 1]))
    assert q_int <= 2.0 * (pc.max() - pc.min()) + 1e-12


def test_envelope_flat_for_uncoupled():
    m0 = params_from_dimensionless(8.0, 0.0)
    ts = _uniform_grid(m0, 12, 4096)
    trace = current_analytic(m0, 5.0, ts)
    em = envelope_metrics(ts, trace)
    assert em.modulation_depth <= 0.01


@pytest.mark.parametrize("eps, flat", [(0.002, True), (0.005, True),
                                       (0.009, False)])
def test_flat_envelope_has_no_modulation_period(eps, flat):
    """A carrier modulated by 1 + ε·cos(2πt/40): at ε = 0.002 and 0.005
    the envelope's depth, edge ripple included, reads 0.0046 and 0.0075,
    at most 0.01; at ε = 0.009 it reads 0.0115, above it."""
    ts = np.linspace(0.0, 200.0, 8192)
    trace = (1.0 + eps * np.cos(2.0 * math.pi * ts / 40.0)) * np.sin(8.0 * ts)
    em = envelope_metrics(ts, trace)
    assert (em.modulation_depth <= 0.01) == flat


def test_envelope_modulation_period():
    """The fig4 analytic trace over 8 jump periods: carrier 2π/ω_a and
    an envelope below its mid level for part of the span.  The
    modulation period itself is π/Ω in closed form and is not read from
    the trace."""
    m = params_from_dimensionless(8.0, 0.35)
    ts = np.linspace(0.0, 8.0 * math.pi / m.Omega, 4096)
    em = envelope_metrics(ts, current_analytic(m, 30.0, ts))
    assert abs(em.carrier_period - 2.0 * math.pi / m.omega_a) \
        / em.carrier_period < 0.02
    assert 0.0 < em.envelope_width_ratio < 1.0


def test_envelope_depth_ordering():
    """Deeper decoherence dips for larger alpha (5 -> 10 -> 30)."""
    m = params_from_dimensionless(8.0, 0.35)
    ts = np.linspace(0.0, 8.0 * math.pi / m.Omega, 4096)
    depths = [envelope_metrics(ts, current_analytic(m, a, ts))
              .modulation_depth for a in (5.0, 10.0, 30.0)]
    assert depths[0] < depths[1] < depths[2]
    assert depths[2] > 0.5


@pytest.mark.parametrize("n", [16, 17, 1023, 4096, 4097])
def test_analytic_signal_matches_scipy_hilbert(n):
    """scipy.signal.hilbert is the test-only reference; odd and even n
    differ in whether the Nyquist bin is kept."""
    x = np.random.default_rng(n).standard_normal(n)
    ref = hilbert(x)
    got = analytic_signal(x)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_envelope_metrics_same_as_scipy_route(monkeypatch):
    """The fig4 analytic trace (alpha = 30, 8 jump periods, 4096
    samples) gives the same three envelope fields as with
    scipy.signal.hilbert in place of analytic_signal."""
    m = params_from_dimensionless(8.0, 0.35)
    ts = np.linspace(0.0, 8.0 * math.pi / m.Omega, 4096)
    trace = current_analytic(m, 30.0, ts)
    got = envelope_metrics(ts, trace)
    monkeypatch.setattr(observables, "analytic_signal", hilbert)
    ref = envelope_metrics(ts, trace)
    for field in ("carrier_period", "modulation_depth",
                  "envelope_width_ratio"):
        a, b = getattr(got, field), getattr(ref, field)
        assert abs(a - b) <= 1e-12 * abs(b), field


def test_envelope_too_short():
    """A trace spanning 1.2 jump periods is analysed, its carrier read to
    2 %; one of 15 samples is refused as too short."""
    m = params_from_dimensionless(8.0, 0.35)
    ts = np.linspace(0.0, 1.2 * math.pi / m.Omega, 1024)
    em = envelope_metrics(ts, current_analytic(m, 30.0, ts))
    assert abs(em.carrier_period - 2.0 * math.pi / m.omega_a) \
        / em.carrier_period < 0.02
    with pytest.raises(ValueError, match="too short"):
        envelope_metrics(ts[:15], current_analytic(m, 30.0, ts[:15]))


def test_envelope_of_constant_trace_refused():
    """At θ = 0 the analytic current is identically zero: a constant
    trace has no carrier to read, so it is refused by name, as is any
    other constant trace, instead of reporting a bin of a zero
    spectrum."""
    m = model_params(1.0, 8.0, 0.35, 0.0)
    ts = np.linspace(0.0, 8.0 * math.pi / m.Omega, 1024)
    trace = current_analytic(m, 3.0, ts)
    assert not np.any(trace)
    for x in (trace, np.full(len(ts), 0.1)):
        with pytest.raises(ValueError, match="constant trace"):
            envelope_metrics(ts, x)


def test_sampling_limit_value():
    m = params_from_dimensionless(8.0, 0.35)
    assert abs(sampling_limit(m) - 2.0 * math.pi / (20.0 * 8.0)) < 1e-15
    m2 = model_params(1.0, 0.5, 0.05)   # Omega > omega_a here
    assert sampling_limit(m2) == 2.0 * math.pi / (20.0 * m2.Omega)
