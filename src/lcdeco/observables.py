"""Probe-current observables and envelope analysis.

The measured quantity is the charge-state occupation P_c(t) of the probe
junction; the average current is I = −2q·dP_c/dt.  An analytic form
(valid in the dispersive regime for equal-weight superpositions) and a
numeric form (finite differences of the full model's exact P_c, a
quadratic form of the evolved state summed from its line spectrum) are
provided, plus spectral utilities to pull carrier frequency, sideband
positions and envelope depth out of sampled traces.  The modulation
period is not read from a trace: the jumps revive at kπ/Ω, which
decoherence.jump_metrics gives in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuit import ModelParams
from .config import SQRT_HALF
# decoherence_exact and assert_leakage (the one leakage guard, which
# evolve_form calls from decoherence) are not called here, but
# perfbench/spans.py patches them at this module, so they stay importable
# from it
from .decoherence import (decoherence_approx, decoherence_exact,  # noqa: F401
                          evolve_form, level_masks)
from .fock import assert_leakage, coherent_state, joint_state  # noqa: F401
from .hamiltonians import build_full_hamiltonian, lowest_level


def sampling_limit(m: ModelParams):
    """Largest admissible grid spacing: 2π/(20·max(ω_a, Ω))."""
    return 2.0 * np.pi / (20.0 * max(m.omega_a, m.Omega))


def charge_form(H, theta):
    """The form (see decoherence.evolve_form) whose value's real part is
    P_c = Σ_n |sin(θ/2)·ψ_{0,n} + cos(θ/2)·ψ_{1,n}|² over the full H's
    sectors: with w_S each sector's row weights, sin(θ/2) on its qubit-0
    rows and cos(θ/2) on its qubit-1 rows (decoherence.level_masks),
    (S, S, w_S²) for each sector and (S, S', 2·w_S·w_S') for each pair
    S < S', whose value's real part is the cross terms of S with S' and
    of S' with S together."""
    half = 0.5 * theta
    weights = [np.where(mask, math.sin(half), math.cos(half))
               for mask in level_masks(H)]
    n = len(weights)
    return [(i, j, weights[i] ** 2 if i == j
             else 2.0 * weights[i] * weights[j])
            for i in range(n) for j in range(i, n)]


def current_analytic(m: ModelParams, alpha, t):
    """I(t) = sinθ·D(t)·[ω_a·sin(ω_a t) + BΩ·sin(2Ωt)·cos(ω_a t)]
    in units of e·ω, with θ = m.theta and B = 8g⁴|α|²/(Δ²Ω²).

    This is exactly −2·d/dt of the dispersive-regime occupation
    P_c(t) ≈ 1/2 + (sinθ/2)·D(t)·cos(ω_a t) of the equal-weight
    superposition (note the Ω multiplying the sideband term: it comes
    from d/dt sin²Ωt).  D is the simplified factor, consistent with the
    derivation regime.
    """
    t = np.asarray(t, dtype=float)
    d = decoherence_approx(m, alpha, t)
    b = 8.0 * m.g ** 4 * abs(alpha) ** 2 / (m.delta * m.Omega) ** 2
    out = math.sin(m.theta) * d * (
        m.omega_a * np.sin(m.omega_a * t)
        + b * m.Omega * np.sin(2.0 * m.Omega * t) * np.cos(m.omega_a * t))
    return float(out) if out.ndim == 0 else out


def current_numeric(m: ModelParams, alpha, ts, dim, c0=SQRT_HALF,
                    c1=SQRT_HALF):
    """(P_c(t), I(t)) of the exactly evolved full model on a uniform
    grid, with P_c at θ = m.theta and I in units of e·ω.

    The evolution runs on the oscillator levels [lowest_level(m, α),
    dim), leakage-guarded at both edges.  P_c is the real part of
    charge_form's value, summed from its line spectrum with no state
    built (decoherence.evolve_form), at the grid's own times.  I is the
    second-order finite difference of −2·P_c (central in the interior,
    one-sided at the ends).  The grid must have a positive first step
    dt ≤ 2π/(20·max(ω_a, Ω)), the sampling criterion, and be uniform to
    rounding, the line route's one grid rule
    (fock.SpectralPropagator.evolve_grid).
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or len(ts) < 3:
        raise ValueError("need a 1-D grid of at least 3 samples")
    dt = ts[1] - ts[0]
    if not dt > 0.0:
        raise ValueError("time grid must have a positive step")
    if dt > sampling_limit(m):
        raise ValueError("grid spacing %.3g violates the sampling criterion "
                         "%.3g" % (dt, sampling_limit(m)))
    n_lo = lowest_level(m, alpha)
    psi = joint_state(c0, c1, coherent_state(alpha, dim, n_lo))
    H = build_full_hamiltonian(m, dim, n_lo)
    pc = evolve_form(H, psi, ts, charge_form(H, m.theta), n_lo).real
    current = -2.0 * np.gradient(pc, ts, edge_order=2)
    return pc, current


# ---------------------------------------------------------------------------
# spectral utilities

def analytic_signal(x):
    """x + i·H[x] of a real trace via the FFT: the spectrum is kept at
    DC (and Nyquist for even n), doubled at positive and zeroed at
    negative frequencies.  This is the transform scipy.signal.hilbert
    computes, written in numpy so importing lcdeco does not pay for
    scipy.signal."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    h = np.zeros(n)
    h[0] = 1.0
    h[1:(n + 1) // 2] = 2.0
    if n % 2 == 0:
        h[n // 2] = 1.0
    return np.fft.ifft(np.fft.fft(x) * h)


def spectrum(ts, x):
    """(angular frequencies, magnitude) of the Hann-windowed, mean-free
    discrete Fourier transform of a real uniform trace, zero-padded to
    SPECTRUM_PAD times its length."""
    x = np.asarray(x, dtype=float)
    ts = np.asarray(ts, dtype=float)
    y = (x - x.mean()) * np.hanning(len(x))
    n = SPECTRUM_PAD * len(x)
    mag = np.abs(np.fft.rfft(y, n))
    w = 2.0 * np.pi * np.fft.rfftfreq(n, ts[1] - ts[0])
    return w, mag


def spectral_peaks(w, mag, lo=0.0):
    """(frequency, magnitude) rows of the local maxima above frequency lo
    with magnitude ≥ PEAK_FLOOR·max, strongest first, ties in frequency
    order.  A local maximum is an interior bin above its lower neighbour
    and not below its upper one; its frequency is moved to the vertex of
    the parabola through its three bins, by at most half a bin."""
    mid = mag[1:-1]
    i = 1 + np.flatnonzero((w[1:-1] > lo) & (mid >= PEAK_FLOOR * np.max(mag))
                           & (mid > mag[:-2]) & (mid >= mag[2:]))
    den = mag[i - 1] - 2.0 * mag[i] + mag[i + 1]
    shift = np.divide(0.5 * (mag[i - 1] - mag[i + 1]), den,
                      out=np.zeros(len(i)), where=den != 0)
    freq = w[i] + np.clip(shift, -0.5, 0.5) * (w[1] - w[0])
    order = np.argsort(-mag[i], kind="stable")
    return np.column_stack((freq, mag[i]))[order]


@dataclass(frozen=True)
class EnvelopeMetrics:
    carrier_period: float
    modulation_depth: float       # (max−min)/(max+min) of the envelope
    envelope_width_ratio: float   # fraction of time below the mid level


# fraction of the envelope dropped at each end (transform edge ripple)
ENVELOPE_TRIM = 0.08

# zero-padding factor of every spectrum (DFT length / trace length)
SPECTRUM_PAD = 8

# spectral_peaks keeps local maxima at or above this fraction of the
# largest magnitude
PEAK_FLOOR = 0.05


def envelope_metrics(ts, x):
    """Carrier period, envelope depth and envelope width of a sampled
    trace.

    The carrier is the strongest peak of the trace's spectrum above one
    cycle per window (spectral_peaks).  The envelope is the magnitude of
    the numpy FFT analytic signal (`analytic_signal`, the discrete
    Hilbert transform) with ENVELOPE_TRIM of the samples dropped at each
    end to discard transform edge ripple.  Raises ValueError for a trace
    of fewer than 16 samples or a constant one, which has neither
    carrier nor envelope, and for one with no spectral peak above one
    cycle per window.  The depth and width are meaningful only when the
    carrier is well above the modulation frequency (ω_a ≳ 3Ω here).
    """
    ts = np.asarray(ts, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 16:
        raise ValueError("trace too short for envelope analysis")
    if np.all(x == x[0]):
        raise ValueError("constant trace: no carrier or envelope to analyse")
    # carrier: the strongest spectral peak above one cycle per window
    peaks = spectral_peaks(*spectrum(ts, x),
                           lo=2.0 * np.pi / (ts[-1] - ts[0]))
    if not len(peaks):
        raise ValueError("no spectral peak above one cycle per window")
    env = np.abs(analytic_signal(x - x.mean()))
    k = max(int(ENVELOPE_TRIM * n), 1)
    ee = env[k:n - k]
    lo, hi = float(np.min(ee)), float(np.max(ee))
    mid = 0.5 * (hi + lo)
    return EnvelopeMetrics(
        carrier_period=2.0 * np.pi / float(peaks[0, 0]),
        modulation_depth=(hi - lo) / (hi + lo),
        envelope_width_ratio=float(np.mean(ee < mid)))
