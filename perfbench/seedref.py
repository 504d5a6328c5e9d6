"""Reference numerics pinned at the commit that introduced the benchmark.

The benchmark checks lcdeco's outputs against this file, never against
lcdeco itself.  The closed-form expressions are copied operation for
operation, so their CSV columns must match byte for byte; the dense
truncated-Fock route is the plain eigendecomposition the program used
then, and later solvers are held to it only within a tolerance.
Dimensionless mode throughout (ω = 1).
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy.special import gammainc, gammaln


def model(omega_a, g, theta=math.pi / 2):
    omega = 1.0
    delta = omega_a - omega
    ratio = omega * delta / (omega * delta + 4.0 * g * g)
    lam = g * g / delta
    return SimpleNamespace(
        omega=omega, omega_a=omega_a, g=g, theta=theta, delta=delta,
        Omega=math.sqrt(omega * omega + 4.0 * g * g * omega / delta),
        lam=lam, omega_tilde=omega + 2.0 * lam, n0=math.sqrt(ratio),
        eps0=lam - 0.5 * omega_a, eps1=lam + 0.5 * omega_a)


def time_grid(m, periods, samples):
    return np.linspace(0.0, periods * math.pi / m.Omega, samples)


def d_exact(m, alpha, t):
    t = np.asarray(t, dtype=float)
    s2 = np.sin(m.Omega * t) ** 2
    d2o2 = (m.delta * m.Omega) ** 2
    den = d2o2 + 8.0 * m.g ** 4 * s2
    out = np.sqrt(d2o2 / den) * np.exp(
        -8.0 * m.g ** 4 * s2 * abs(alpha) ** 2 / den)
    return float(out) if out.ndim == 0 else out


def d_approx(m, alpha, t):
    t = np.asarray(t, dtype=float)
    s2 = np.sin(m.Omega * t) ** 2
    out = np.exp(-8.0 * m.g ** 4 * s2 * abs(alpha) ** 2
                 / (m.delta * m.Omega) ** 2)
    return float(out) if out.ndim == 0 else out


def current_analytic(m, alpha, t):
    t = np.asarray(t, dtype=float)
    d = d_approx(m, alpha, t)
    b = 8.0 * m.g ** 4 * abs(alpha) ** 2 / (m.delta * m.Omega) ** 2
    return 1.0 * math.sin(m.theta) * d * (
        m.omega_a * np.sin(m.omega_a * t)
        + b * m.Omega * np.sin(2.0 * m.Omega * t) * np.cos(m.omega_a * t))


def fmt(values):
    """CSV cell text of each float (17 significant digits)."""
    return [format(float(v), ".17g") for v in values]


# ---------------------------------------------------------------------------
# dense truncated-Fock route

def min_adequate_dim(alpha, tol=1e-12):
    lam = abs(alpha) ** 2
    dim = max(2, int(lam))
    while lam > 0 and gammainc(dim, lam) >= tol:
        dim += 1
    return dim


def coherent(alpha, dim):
    n = np.arange(dim)
    v = np.exp(n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
               - 0.5 * abs(alpha) ** 2).astype(complex)
    return v / np.linalg.norm(v)


def _evolve(H, psi, ts):
    w, V = np.linalg.eigh(H)
    c = V.conj().T @ psi
    return V @ (np.exp(-1j * np.outer(w, ts)) * c[:, None])


def _lowering(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def d_fock(m, alpha, ts, dim):
    a = _lowering(dim)
    num = np.diag(np.arange(dim, dtype=float)).astype(complex)
    psi = coherent(alpha, dim)
    states = []
    for sign, eps in ((1.0, m.eps0), (-1.0, m.eps1)):
        H = (m.omega_tilde * num + sign * m.lam * (a @ a + a.T @ a.T)
             + eps * np.eye(dim))
        states.append(_evolve(H, psi, ts))
    return np.abs(np.sum(np.conj(states[1]) * states[0], axis=0))


def current_numeric(m, alpha, ts, dim):
    a = _lowering(dim)
    num = np.diag(np.arange(dim, dtype=float)).astype(complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    sy = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    H = (np.kron(np.eye(2), num) - 0.5 * m.omega_a * np.kron(sz, np.eye(dim))
         + m.g * np.kron(sy, 1j * (a - a.T)))
    osc = coherent(alpha, dim)
    psi = np.concatenate([osc, osc]) / math.sqrt(2.0)
    grid = _evolve(H, psi, ts)
    b = (math.sin(0.5 * m.theta) * grid[:dim]
         + math.cos(0.5 * m.theta) * grid[dim:])
    pc = np.sum(np.abs(b) ** 2, axis=0)
    return -2.0 * np.gradient(pc, ts, edge_order=2)
