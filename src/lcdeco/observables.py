"""Probe-current observables and envelope analysis.

The measured quantity is the charge-state occupation P_c(t) of the probe
junction; the average current is I = −2q·dP_c/dt.  An analytic form
(valid in the dispersive regime for equal-weight superpositions) and a
numeric form (finite differences of the full model's exact P_c, a
quadratic form of the evolved state summed from its line spectrum) are
provided, plus spectral utilities to pull carrier frequency, sideband
positions, modulation period, and envelope depth out of sampled traces.
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
    one-sided at the ends).  The grid must be uniform with a positive step
    dt ≤ 2π/(20·max(ω_a, Ω)), the sampling criterion, each step within
    1e-9·dt of the first.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or len(ts) < 3:
        raise ValueError("need a 1-D grid of at least 3 samples")
    dts = np.diff(ts)
    if not dts[0] > 0.0:
        raise ValueError("time grid must have a positive step")
    if np.max(np.abs(dts - dts[0])) > 1e-9 * dts[0]:
        raise ValueError("time grid must be uniform")
    if dts[0] > sampling_limit(m):
        raise ValueError(
            "grid spacing %.3g violates the sampling criterion %.3g"
            % (dts[0], sampling_limit(m)))
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


def _refined_peak(w, mag, i):
    """w[i] moved to the vertex of the parabola through the three bins
    around the maximum at i, by at most half a bin."""
    den = mag[i - 1] - 2.0 * mag[i] + mag[i + 1]
    shift = 0.5 * (mag[i - 1] - mag[i + 1]) / den if den != 0 else 0.0
    return w[i] + float(np.clip(shift, -0.5, 0.5)) * (w[1] - w[0])


def peak_frequency(w, mag, lo=0.0, hi=None):
    """Frequency of the largest spectral magnitude in (lo, hi), refined
    by parabolic interpolation of the three bins around the maximum.
    Returns nan when the window contains no bins."""
    hi = w[-1] if hi is None else hi
    sel = np.flatnonzero((w > lo) & (w < hi))
    if len(sel) == 0:
        return float("nan")
    i = sel[np.argmax(mag[sel])]
    if not 1 <= i < len(w) - 1:
        return float(w[i])
    return float(_refined_peak(w, mag, i))


def spectral_peaks(w, mag):
    """Local maxima with magnitude ≥ PEAK_FLOOR·max, parabolic-refined,
    strongest first.  Returns an array of (frequency, magnitude) rows."""
    floor = PEAK_FLOOR * np.max(mag)
    out = []
    for i in range(1, len(mag) - 1):
        if mag[i] >= floor and mag[i] > mag[i - 1] and mag[i] >= mag[i + 1]:
            out.append((_refined_peak(w, mag, i), mag[i]))
    out.sort(key=lambda p: -p[1])
    return np.array(out) if out else np.empty((0, 2))


@dataclass(frozen=True)
class EnvelopeMetrics:
    carrier_period: float
    modulation_period: float
    modulation_depth: float       # (max−min)/(max+min) of the envelope
    envelope_width_ratio: float   # fraction of time below the mid level


# envelopes with depth at or below this are reported as unmodulated
# (infinite modulation period) instead of chasing noise peaks
FLAT_ENVELOPE_DEPTH = 0.01

# fraction of the envelope dropped at each end (transform edge ripple)
ENVELOPE_TRIM = 0.08

# zero-padding factor of every spectrum (DFT length / trace length)
SPECTRUM_PAD = 8

# spectral_peaks keeps local maxima at or above this fraction of the
# largest magnitude
PEAK_FLOOR = 0.05


def envelope_metrics(ts, x):
    """Carrier/modulation periods and envelope depth of a sampled trace.

    The envelope is the magnitude of the numpy FFT analytic signal
    (`analytic_signal`, the discrete Hilbert transform) with
    ENVELOPE_TRIM of the samples dropped at each end to discard
    transform edge ripple.  The modulation peak is searched only below
    0.6× the carrier so residual carrier ripple in the envelope cannot
    masquerade as modulation.  An essentially flat envelope
    (depth ≤ FLAT_ENVELOPE_DEPTH) is reported with an infinite
    modulation period, decided before any peak is searched, so no
    noise or edge-ripple peak is fitted.  Meaningful only
    when the carrier is well above the modulation frequency
    (ω_a ≳ 3Ω here).
    """
    ts = np.asarray(ts, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 16:
        raise ValueError("trace too short for envelope analysis")
    w, mag = spectrum(ts, x)
    # carrier: the dominant tone above one cycle per window
    wc = peak_frequency(w, mag, lo=2.0 * np.pi / (ts[-1] - ts[0]))
    env = np.abs(analytic_signal(x - x.mean()))
    k = max(int(ENVELOPE_TRIM * n), 1)
    te = ts[k:n - k]
    ee = env[k:n - k]
    lo, hi = float(np.min(ee)), float(np.max(ee))
    depth = (hi - lo) / (hi + lo) if hi + lo > 0 else 0.0
    if depth <= FLAT_ENVELOPE_DEPTH:
        mod_period = float("inf")
    else:
        we, me = spectrum(te, ee)
        span = te[-1] - te[0]
        wm = peak_frequency(we, me, lo=2.0 * np.pi / span, hi=0.6 * wc)
        if not np.isfinite(wm):
            raise ValueError("no modulation peak below the carrier; trace "
                             "too short or carrier/modulation not separated")
        mod_period = 2.0 * np.pi / wm
        if span < 2.0 * mod_period:
            raise ValueError("trace spans %.3g < 2 modulation periods (%.3g)"
                             % (span, mod_period))
    mid = 0.5 * (hi + lo)
    width_ratio = float(np.mean(ee < mid))
    return EnvelopeMetrics(
        carrier_period=2.0 * np.pi / wc,
        modulation_period=mod_period,
        modulation_depth=depth,
        envelope_width_ratio=width_ratio)
