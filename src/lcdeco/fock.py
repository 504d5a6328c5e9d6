"""Truncated-Fock-space linear algebra.

Coherent and joint qubit+oscillator states, truncation guards, and exact
time evolution of time-independent Hamiltonians.  Everything here is
dimensionless and O(1)-scaled; SI inputs are converted at the package
boundary (see circuit / runner).

A state or Hamiltonian may start at a lowest oscillator level n_lo
(hamiltonians.lowest_level) and then holds only levels [n_lo, dim).
Basis ordering for joint qubit+oscillator vectors is fixed as
qubit-slow / oscillator-fast: amplitude of |k⟩⊗|n⟩ sits at index
k·(dim − n_lo) + n − n_lo, k·dim + n when n_lo = 0.

Evolution works on sectors: a Hamiltonian is handed over as a
SectorHamiltonian, invariant blocks that are each a real symmetric
tridiagonal matrix in their own basis order (the parity sectors of the
model Hamiltonians, see hamiltonians).  SpectralPropagator diagonalizes
each block with hermitian_eig and propagates in real arithmetic.  It
makes one cut, the band, with a dropped-weight budget of PRUNE_TOL of
the initial state's weight: each eigenvector of a chain is localized,
so each tile of TILE_ROWS levels multiplies only the range of
eigencomponents that reaches it (about a ninth of levels ×
eigencomponents at fig4's α = 30), and a tile none reaches is zero.
The band-cut state reaches its callers only as the values of quadratic
forms, never as states: SpectralPropagator.evolve_grid takes a form, a
list of sector pairs standing for Σ ψ_iᴴ·diag(w)·ψ_j(t), and turns it
into a sum of lines C_p·e^{iΔ_p t}, built once from the tiles' bands;
_line_sums evaluates them, on a uniform grid by a Taylor-expanded FFT
oversampled LINE_OVERSAMPLE times, on any other grid one time at a
time.  Lines whose |C| sum to at most √PRUNE_TOL of the state's weight
are left out; a sector's own form is one line, the mid-range of its
weights times its norm, plus an imbalance part left out whole when its
bound fits that budget.  The probe current's P_c and the qubit
coherence ρ_01 are such forms.  evolve_grid hands the state's
eigencomponents, once per call, to the leakage guard (assert_leakage),
which bounds each edge's population at every t from them alone,
whatever the time grid.
hermitian_eig, the tridiagonal eigensolver of one sector, is the
package's only eigensolver: the Schrieffer-Wolff check calls it on the
full Hamiltonian's two sectors too.

hermitian_eig and evolve_grid (the caller's guard included) run with
every OpenBLAS library in the process on one thread, and give each
library its thread count back when they return or raise
(_one_blas_thread).  So their results are the same bits at any BLAS
thread count the host sets, and fig4's probe current at α = 30 takes
about a fifth less time than on two threads of two vCPUs.  Where no
OpenBLAS is found (MKL, Accelerate, a platform without /proc/self/maps)
nothing is limited, and the bits follow the host's thread count.  A
process that the CLI starts has every BLAS library on one thread from
the moment it loads (cli._cold_process), whatever the BLAS, so there the
limiter finds nothing to change: it serves callers that imported numpy
first, such as tests, notebooks and in-process benchmarks.

hermitian_eig calls LAPACK's dstevd through scipy's compiled wrapper
scipy.linalg._flapack, which _dstevd loads by file path at the first
eigensolve of a process, from the folder importlib finds for scipy, so
no run imports the scipy package or scipy.linalg (334 modules, about a
quarter of a second on a two-vCPU Xeon): the wrapper alone is loaded.
The coherent-state weights come from one log-domain Poisson pmf built on
math.lgamma.  numpy.fft is reached only inside _line_sums, so importing
lcdeco.fock does not load it.
"""

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import TruncationError

# tail mass above the truncation edge that we still accept when building
# a coherent state
COHERENT_TAIL_TOL = 1e-12

# evolution leakage guard: population allowed in the top LEAK_LEVELS
# oscillator levels of both qubit branches together in an accepted run,
# and, when the levels start at n_lo > 0, in the bottom LEAK_LEVELS too
LEAK_LEVELS = 5
LEAK_TOL = 1e-8

# weight of the initial state, as a fraction of its total, that the
# propagator may drop: the eigencomponents outside each tile's band; the
# dropped part has norm at most √PRUNE_TOL = 1e-13 relative to the state
# at every t, an order below the 1e-12 agreement the propagation tests
# demand
PRUNE_TOL = 1e-26

# frequencies of _line_sums' FFT grid per time sample: each line's
# phase off the grid then stays within π/(2·LINE_OVERSAMPLE) over half the
# time grid, and 14 to 18 Taylor orders reach the lines' budget; at fig4's
# α = 30 an oversampling of 4 took 12 orders and was no faster
LINE_OVERSAMPLE = 2

# levels of a sector that share one range of eigencomponents in a form's
# lines (see _band_cut); at fig4's α = 30, tiles of 16, 32 and 64 levels
# multiply 10, 11.5 and 15 % of levels × eigencomponents, and
# current_numeric there took medians of 37, 38 and 34 ms at 16 levels,
# 37, 33 and 33 at 32, and 37, 32 and 32 at 64 (three rounds of 15
# interleaved calls, one OpenBLAS thread, two-vCPU Xeon): no size is
# clearly fastest
TILE_ROWS = 32


# ---------------------------------------------------------------------------
# BLAS threads

# (get, set) thread-count entry points an OpenBLAS build may export,
# tried in this order: numpy's scipy-openblas (64-bit integers), scipy's
# scipy-openblas, a plain OpenBLAS, and the 64-bit-integer OpenBLAS of
# numpy < 2's wheels
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_",
     "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


@functools.cache
def _openblas_thread_calls():
    """(get, set) thread-count functions of every OpenBLAS library mapped
    into the process, found once, from /proc/self/maps, at the first
    _one_blas_thread; empty where that file is missing or no mapped
    library exports them (MKL, Accelerate, another platform)."""
    try:
        with open("/proc/self/maps", encoding="utf-8",
                  errors="replace") as fh:
            paths = {parts[5].strip() for parts in
                     (line.split(None, 5) for line in fh) if len(parts) == 6}
    except OSError:
        return ()
    calls = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                calls.append((get, set_))
                break
    return tuple(calls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every OpenBLAS library in the process on one
    thread, and give each its own count back afterwards, also when the
    block raises.

    Its products and eigensolves then sum in one order whatever the
    host's thread count, so their bits do not depend on it, and at the
    sizes lcdeco multiplies a second thread only costs: at fig4's
    α = 30 on two vCPUs, current_numeric took medians of 32–33 ms on
    one thread against 40–41 ms on two (three rounds of 15 interleaved
    calls).  The libraries are found at the first
    entry, so that entry must follow the loading of scipy's LAPACK
    wrapper in hermitian_eig (_dstevd), which maps scipy's OpenBLAS; a
    library loaded later is never limited.  The thread count is
    process-wide, so of two Python threads inside this block at once,
    the one that leaves last may run its rest on the host's count.
    """
    calls = _openblas_thread_calls()
    saved = [get() for get, _ in calls]
    try:
        for (_, set_), n in zip(calls, saved):
            if n != 1:
                set_(1)
        yield
    finally:
        for (_, set_), n in zip(calls, saved):
            if n != 1:
                set_(n)


# ---------------------------------------------------------------------------
# eigensolver

# the real name of scipy's compiled LAPACK wrapper: the extension's init
# symbol, PyInit__flapack, must match the last part of it
_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _dstevd():
    """LAPACK's dstevd from scipy's compiled wrapper, loaded once by file
    path so that scipy.linalg is never imported; where sys.modules
    already holds the wrapper (scipy.linalg was imported), that one.

    The wrapper registers itself in sys.modules as it loads, with no
    scipy.linalg there; it is taken out again, so that a later
    `import scipy.linalg` loads it as that package's own submodule.
    Raises ImportError, naming what is missing, where scipy has no such
    extension or the extension no dstevd.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        # scipy's folder, found without running scipy's __init__ (about
        # 15 ms of subprocess, sysconfig and test utilities): the wrapper
        # finds scipy's OpenBLAS by its rpath
        scipy = sys.modules.get("scipy")
        if scipy is not None:
            roots = scipy.__path__
        else:
            spec = importlib.util.find_spec("scipy")
            if spec is None:
                raise ImportError("no module named scipy: the eigensolver "
                                  "needs its compiled LAPACK wrapper",
                                  name="scipy")
            roots = spec.submodule_search_locations
        folder = os.path.join(roots[0], "linalg")
        paths = [os.path.join(folder, "_flapack" + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError("scipy has no compiled LAPACK wrapper "
                              "_flapack in %s" % folder, name=_FLAPACK)
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(_FLAPACK, None)
    routine = getattr(module, "dstevd", None)
    if routine is None:
        raise ImportError("%s (%s) has no dstevd, LAPACK's tridiagonal "
                          "eigensolver" % (_FLAPACK, module.__file__),
                          name=_FLAPACK)
    return routine


def hermitian_eig(diag, offdiag):
    """Eigendecomposition of one real symmetric tridiagonal sector
    (a Sector's diag and offdiag) by LAPACK's dstevd (_dstevd), on one
    BLAS thread (_one_blas_thread).

    Returns (eigenvalues ascending, real eigenvector columns), the bits
    scipy.linalg.eigh_tridiagonal(diag, offdiag, lapack_driver="stevd")
    returns, and raises LinAlgError when dstevd reports failure.  The
    entries are checked once, where a Sector is made (real, finite, one
    more diagonal entry than off-diagonal), and are not checked again
    here.  A one-level sector is its own solution, w = diag and
    Q = [[1]]: the wrapper rejects an empty off-diagonal.
    """
    d = np.asarray(diag, dtype=float)
    if len(d) == 1:
        return d.copy(), np.ones((1, 1))
    dstevd = _dstevd()
    with _one_blas_thread():
        w, Q, info = dstevd(d, offdiag, compute_v=1)
    if info:
        raise np.linalg.LinAlgError("dstevd failed in a sector of %d "
                                    "levels (LAPACK info=%d)" % (len(d), info))
    return w, Q


# ---------------------------------------------------------------------------
# states

def _poisson_log_pmf(alpha, lo, hi):
    """ln P(n) = ln(e^{−|α|²}|α|^{2n}/n!), the log Poisson weight of level
    n in |α⟩ (α ≠ 0), for lo ≤ n < hi.  ln n! is math.lgamma(n + 1): a
    cumulative sum of ln n drifts, 1.2e-11 off by n = 1400."""
    n = np.arange(lo, hi)
    log_fact = np.fromiter(map(math.lgamma, range(lo + 1, hi + 1)), float,
                           hi - lo)
    return 2.0 * n * math.log(abs(alpha)) - log_fact - abs(alpha) ** 2


def _poisson_reach(alpha):
    """12 standard deviations and 40 levels: the Poisson weight of |α⟩
    farther than this from the mean |α|², on either side, is below
    e^{−60}."""
    return 12.0 * abs(alpha) + 40.0


def min_adequate_dim(alpha):
    """Smallest truncation (at least 2) with coherent tail mass below
    COHERENT_TAIL_TOL: the first level where the reverse cumulative sum
    of the pmf falls below it.  The one sum runs down from
    _poisson_reach above the mean to max(⌊|α|²⌋, 2): the tail at the
    mean is about ½, so the crossing lies above it, and where |α|² < 2
    a tail already below the tolerance at level 2 gives 2.  Raises
    ValueError, before any pmf is built, where that sum's top level lies
    beyond the largest array index."""
    if alpha == 0:
        return 2
    top = int(abs(alpha) ** 2 + _poisson_reach(alpha)) + 1
    if top > np.iinfo(np.intp).max:
        raise ValueError(
            "coherent state alpha=%r holds its weight near level |alpha|^2 "
            "= %.3g, beyond the last level any Fock truncation can index"
            % (alpha, abs(alpha) ** 2))
    lo = max(int(abs(alpha) ** 2), 2)
    run = np.cumsum(np.exp(_poisson_log_pmf(alpha, lo, top))[::-1])
    # run rises from the top level down: the levels where it has reached
    # the tolerance are the ones the truncation must keep
    return lo + int(np.count_nonzero(run >= COHERENT_TAIL_TOL))


def coherent_state(alpha, dim, n_lo=0):
    """Coherent state |α⟩ on levels [n_lo, dim), renormalized: entry i is
    level n_lo + i.

    Amplitudes are e^{½ ln P(n) + inφ}, built in the log domain so large
    |α| does not overflow.  The same pmf, taken _poisson_reach levels
    beyond [min(n_lo, |α|²), max(dim, |α|²)), gives the mass above dim − 1
    (1 with no pmf built when dim lies that far below |α|²) and the mass
    below n_lo.  Raises TruncationError (with a suggested dimension) when
    the mass above is not below COHERENT_TAIL_TOL, and (without one) when
    the mass below is not.
    """
    dim = _check_dim(dim)
    lam, reach = abs(alpha) ** 2, _poisson_reach(alpha)
    lo = int(max(min(n_lo, lam) - reach, 0))
    if alpha == 0 or dim <= lam - reach:
        log_p, tail = None, float(alpha != 0)
    else:
        log_p = _poisson_log_pmf(alpha, lo, int(max(dim, lam) + reach))
        tail = float(np.sum(np.exp(log_p[dim - lo:])))
    if tail >= COHERENT_TAIL_TOL:
        raise TruncationError(
            "coherent state alpha=%r needs a larger Fock space "
            "(tail mass %.3e at dim=%d)" % (alpha, tail, dim),
            suggested_dim=min_adequate_dim(alpha))
    _check_dim(dim, n_lo)
    below = (float(n_lo > 0) if log_p is None
             else float(np.sum(np.exp(log_p[:n_lo - lo]))))
    if below >= COHERENT_TAIL_TOL:
        raise TruncationError(
            "coherent state alpha=%r needs levels below n_lo=%d (mass "
            "%.3e below it)" % (alpha, n_lo, below))
    if alpha == 0:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    mag = np.exp(0.5 * log_p[n_lo - lo:dim - lo])
    phase = np.exp(1j * np.arange(n_lo, dim) * np.angle(alpha))
    v = mag * phase
    return v / np.linalg.norm(v)


def joint_state(c0, c1, osc):
    """(c0|0⟩ + c1|1⟩) ⊗ |osc⟩ in qubit-slow ordering, normalized."""
    osc = np.asarray(osc, dtype=complex)
    v = np.concatenate([c0 * osc, c1 * osc])
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("joint state has zero norm")
    return v / nrm


def assert_leakage(sectors, pruned, n_lo=0):
    """Raise TruncationError when the top LEAK_LEVELS oscillator levels,
    or with n_lo > 0 the bottom LEAK_LEVELS, may hold LEAK_TOL or more of
    the population at any t; return the larger edge's bound
    (_edge_bounds).

    `sectors` and `pruned` are a joint state's eigencomponents on the
    levels [n_lo, n_lo + levels) and the weight their band cut dropped,
    as SpectralPropagator._banded gives them and evolve_grid hands them
    to its guard.  A top trip suggests twice the true top level,
    2·(n_lo + levels); a bottom trip suggests no dim, since no larger
    truncation reaches down.
    """
    levels = sum(len(index) for index, *_ in sectors) // 2
    worst = 0.0
    for edge, leak in _edge_bounds(sectors, pruned, n_lo, levels):
        if not leak < LEAK_TOL:     # a NaN population trips too
            raise TruncationError(
                "leakage guard tripped: %s-%d-level population %.3e >= %.1e"
                % (edge, LEAK_LEVELS, leak, LEAK_TOL),
                suggested_dim=2 * (n_lo + levels) if edge == "top" else None)
        worst = max(worst, leak)
    return worst


def _edge_bounds(sectors, pruned, n_lo, levels):
    """[(edge, bound)]: for each edge the leakage guard watches, a bound
    on its population, both qubit branches summed, at every t, from
    eigencomponents and a dropped weight as assert_leakage takes them.

    The edges are offsets [lo, hi) into the levels [n_lo, n_lo + levels):
    the top LEAK_LEVELS, every level when there are fewer, and with
    n_lo > 0 the bottom LEAK_LEVELS, stopping where the top edge starts
    below 2·LEAK_LEVELS levels, so each level is in one edge.  Each
    tile of a sector's band-cut state ψ_S(t) sums part of
    Q_S·(c_S·e^{−iw_S t}) over the components _banded keeps, and
    |e^{−iwt}| = 1, so on the sector's rows R at the edge
    ‖ψ_{S,R}(t)‖ ≤ Σ_j |c_j|·‖Q_S[R, j]‖ at every t; the sectors' rows
    are disjoint, so the edge's population is at most the sum over S of
    that squared.  The dropped part has norm √pruned, so the unpruned
    state's population is at most (√that + √pruned)², the bound: neither
    the time grid nor the band cut can turn a trip into a pass.
    """
    top = max(levels - LEAK_LEVELS, 0)
    edges = [("top", top, levels)]
    if n_lo:
        edges.append(("bottom", 0, min(LEAK_LEVELS, top)))
    bounds = []
    for edge, lo, hi in edges:
        at_edge = np.zeros(levels, dtype=bool)
        at_edge[lo:hi] = True
        norm2 = 0.0
        for index, _, Q, c, _ in sectors:
            rows = Q[at_edge[index % levels]]
            norm2 += float(np.sqrt(np.einsum("ij,ij->j", rows, rows))
                           @ np.abs(c)) ** 2
        bounds.append((edge, (math.sqrt(norm2) + math.sqrt(pruned)) ** 2))
    return bounds


# ---------------------------------------------------------------------------
# evolution

def _real_finite(values, what):
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        raise ValueError("sector %s must be real" % what)
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("sector %s has non-finite entries" % what)
    return arr


class Sector:
    """One invariant block of a Hamiltonian: the basis indices it spans, in
    chain order, and its real symmetric tridiagonal matrix in that order
    (diagonal, and off-diagonal coupling index[i] to index[i+1]).

    Real, finite entries and the shapes are enforced here, and only
    here: hermitian_eig takes a Sector's arrays unchecked.  With the
    tridiagonal shape they make the block Hermitian by construction.
    """

    __slots__ = ("index", "diag", "offdiag")

    def __init__(self, index, diag, offdiag):
        self.index = np.asarray(index)
        self.diag = _real_finite(diag, "diagonal")
        self.offdiag = _real_finite(offdiag, "off-diagonal")
        n = len(self.index)
        if (self.index.ndim != 1 or n == 0
                or not np.issubdtype(self.index.dtype, np.integer)):
            raise ValueError("sector index must be a non-empty 1-D integer "
                             "array")
        if self.diag.shape != (n,) or self.offdiag.shape != (n - 1,):
            raise ValueError(
                "sector of %d states needs %d diagonal and %d off-diagonal "
                "entries, got shapes %r and %r"
                % (n, n, n - 1, self.diag.shape, self.offdiag.shape))


class SectorHamiltonian:
    """A Hermitian matrix of order `size` given as sectors whose indices
    partition range(size); entries between different sectors are zero."""

    def __init__(self, size, sectors):
        self.size = int(size)
        self.sectors = tuple(sectors)
        covered = np.sort(np.concatenate([s.index for s in self.sectors]))
        if not np.array_equal(covered, np.arange(self.size)):
            raise ValueError("sector indices must partition range(%d)"
                             % self.size)


class SpectralPropagator:
    """exp(−iHt) applied through a one-time eigendecomposition of H.

    H is a SectorHamiltonian; each sector is diagonalized with
    hermitian_eig, so the cost is O(n²) per sector instead of a dense
    O(n³) complex eigh.  A state is projected onto the real eigenvectors
    Q once per call of evolve_grid, giving components c (_banded).  The
    propagator makes one cut, the band (_band_cut): a budget of
    PRUNE_TOL of the state's weight, split evenly over the sectors, gives
    each tile of TILE_ROWS levels the range of components it multiplies,
    dropping on either side the eigenvectors whose norms over the tile,
    |c_j| times Q's, sum to its share; a tile no component reaches is
    zero.  The evolved state is then off by a norm of at most
    √PRUNE_TOL·‖ψ‖ at every t.  evolve_grid hands the components and the
    dropped weight once to the caller's guard, if any, so the leakage
    guard (assert_leakage) needs no projection of its own.

    No state is ever built: evolve_grid turns a quadratic form of the
    band-cut state into a line spectrum (_lines), from one real matrix
    per sector pair summed over the tiles' bands (_pair_lines), a sector
    with itself as a trace line plus, unless its bound fits the budget,
    an imbalance matrix (_form_lines), and sums the lines at the times
    asked for (_line_sums).  Its memory is a few sector-sized matrices
    and the kept lines, whatever the number of samples.

    `eigenvalues` holds every sector's eigenvalues, sector by sector
    (ascending within each).
    """

    def __init__(self, H):
        if not isinstance(H, SectorHamiltonian):
            raise TypeError("SpectralPropagator takes a SectorHamiltonian, "
                            "got %s" % type(H).__name__)
        self.size = H.size
        self._sectors = []
        for s in H.sectors:
            w, Q = hermitian_eig(s.diag, s.offdiag)
            self._sectors.append((s.index, w, Q))
        self.eigenvalues = np.concatenate([w for _, w, _ in self._sectors])

    def _banded(self, psi):
        """(sectors, pruned): psi's eigencomponents and band cut
        (_band_cut) per sector, and the weight the cuts drop, at most
        PRUNE_TOL·‖psi‖²: the sum of the sectors' cuts, whose rows are
        disjoint, so their weights add.

        Each sector is (index, w, Q, c, tiles) over the span of its
        tiles' bands: w, Q's columns (a view, never a copy) and c there,
        and each tile (rows, a, b) multiplying the span's columns
        [a, b), none when a ≥ b.
        """
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (self.size,):
            raise ValueError("state of length %d expected, got %r"
                             % (self.size, psi.shape))
        # the budget, shared evenly by the sectors' cuts: their rows are
        # disjoint, so the weights they drop add, and Q is orthogonal, so
        # the components' weight is ‖psi‖² to rounding
        budget = (PRUNE_TOL * float(np.vdot(psi, psi).real)
                  / len(self._sectors))
        banded = []
        pruned = 0.0
        for index, w, Q in self._sectors:
            # (re, im) rows projected as pairs.T @ Q, which measured 0.45 ms
            # against 0.77–0.93 ms for Q.T @ pairs (772-level sector,
            # median of 50, one OpenBLAS thread)
            re, im = psi[index].view(float).reshape(-1, 2).T @ Q
            c = re + 1j * im
            band_lo, band_hi, dropped = _band_cut(Q, c, budget)
            pruned += dropped
            reached = band_lo < band_hi
            a0 = int(np.min(band_lo[reached], initial=len(w)))
            span = slice(a0, int(np.max(band_hi[reached], initial=a0)))
            tiles = [(slice(r, r + TILE_ROWS), a - a0, b - a0)
                     for r, a, b in zip(range(0, len(w), TILE_ROWS),
                                        band_lo.tolist(), band_hi.tolist())]
            banded.append((index, w[span], Q[:, span], c[span], tiles))
        return banded, pruned

    @_one_blas_thread()
    def evolve_grid(self, psi, ts, form, guard=None):
        """The value of one quadratic form of psi evolved, at every t in
        ts (flattened), as a complex array.

        `form` lists sector pairs (i, j, w), w a real weight for each row
        of sector i, in chain order, and stands for the sum over them of
        ψ_iᴴ·diag(w)·ψ_j(t), ψ_S(t) the sector's rows of the band-cut
        state, the two sectors' rows paired position by position (so
        they must have as many rows).  Since ψ_S = Q_S·(c_S·e^{−iw_S t}),
        band by band, the value is Σ_p C_p·e^{iΔ_p t}, a line p for each
        pair of components (_lines).  A pair of two sectors is complex,
        and its lines give it whole (_pair_lines).  A sector paired with
        itself is real, and its lines give it as their real part only
        (_form_lines): a form with such a pair is read by its real part.
        At every t the kept lines are within √PRUNE_TOL·‖psi‖² of the
        band-cut state's value, and a uniform grid's sums within as much
        again of the lines'.

        ts must be finite.  A grid uniform to rounding, each time within
        2·eps·max|t| of t0 + i·dt (t0 the first time, dt the mean step),
        is summed in one Taylor-expanded FFT pass (_line_sums).  Any other
        grid is summed one time at a time, each a one-sample _line_sums
        call, which is the direct sum Σ_p C_p·e^{iΔ_p t}: its cost is
        lines × samples.  The Fock oracle's ρ_01 has 1,345 lines at
        fig2's α = 5 (dim 96) and 48,671 at α = 30 (dim 1200); each time
        off a uniform grid took 0.08 and 1.6 ms there, against 1.1 and
        16 ms for a whole uniform grid of 400 samples, eigensolves
        included (one BLAS thread, two-vCPU Xeon).  Only tests and scalar
        t pass such grids.  guard(sectors, pruned), when given, gets
        _banded's components and dropped weight once, before any line is
        built (see assert_leakage).  The call, guard included, runs on
        one BLAS thread (_one_blas_thread).
        """
        ts = np.asarray(ts, dtype=float).ravel()
        if not np.all(np.isfinite(ts)):
            raise ValueError("evolution times must be finite")
        banded, pruned = self._banded(psi)
        if guard is not None:
            guard(banded, pruned)
        budget = math.sqrt(PRUNE_TOL) * float(np.vdot(psi, psi).real)
        C, delta, _ = _lines(banded, form, budget)
        n = len(ts)
        t0 = ts[0] if n else 0.0
        dt = (ts[-1] - t0) / (n - 1) if n > 1 else 0.0
        off = np.abs(ts - (t0 + np.arange(n) * dt))
        rounding = 2.0 * np.finfo(float).eps * np.max(np.abs(ts), initial=0.0)
        if np.max(off, initial=0.0) <= rounding:
            return _line_sums(C, delta, t0, dt, n, budget)[0]
        return np.array([_line_sums(C, delta, t, 0.0, 1, budget)[0][0]
                         for t in ts])


def _lines(sectors, form, budget):
    """(C, Δ, dropped): the lines of a form, as evolve_grid takes it, of
    the band-cut state whose sectors _banded gives, entry by entry:
    _form_lines for a sector with itself, _pair_lines for two sectors,
    each with an even share of `budget` for the lines it leaves out.
    `dropped` bounds the summed |C| of all lines left out, at most
    `budget`."""
    share = budget / len(form)
    parts = [_form_lines(sectors[i], w, share) if i == j
             else _pair_lines(sectors[i], sectors[j], w, share)
             for i, j, w in form]
    return (np.concatenate([C for C, _, _ in parts]),
            np.concatenate([d for _, d, _ in parts]),
            sum(dropped for _, _, dropped in parts))


def _form_lines(sector, weights, budget):
    """(C, Δ, dropped): lines whose real part is ψᴴ·diag(weights)·ψ(t)
    for one sector as _banded gives it, split as trace plus imbalance.

    With a = (max + min)/2 of `weights` and d = weights − a, the a-part
    is a·‖ψ(t)‖² = a·Σ_j |c_j|² at every t: one line at Δ = 0, over the
    span's components uncut; the band-cut state's a·‖ψ(t)‖² differs from
    it by at most |a|·(2‖c‖√pruned + pruned), within the band cut's own
    error.

    The d-part's lines have summed |C| of at most δ·(Σ_j |c_j|)², δ the
    largest |d_r|, since |Σ_r d_r·Q_rj·Q_rk| ≤ δ for Q's unit columns:
    when that fits in `budget` the d-part is left out and `dropped` is
    that bound, else its lines come from _pair_lines with weights d.
    """
    _, _, _, c, _ = sector
    a = 0.5 * (float(np.max(weights)) + float(np.min(weights)))
    d = weights - a
    bound = float(np.max(np.abs(d))) * float(np.sum(np.abs(c))) ** 2
    trace = np.array([a * float(np.vdot(c, c).real)], dtype=complex)
    if bound <= budget:
        return trace, np.zeros(1), bound
    C, delta, dropped = _pair_lines(sector, sector, d, budget)
    return np.concatenate([trace, C]), np.concatenate([[0.0], delta]), dropped


def _pair_lines(one, two, weights, budget):
    """(C, Δ, dropped): the lines of ψ_oneᴴ·diag(weights)·ψ_two(t) for two
    sectors as _banded gives them, rows paired position by position; when
    `one` is `two` (the imbalance part of _form_lines, its weights of
    either sign), lines whose real part is that real form.

    The form's matrix between the components, M_jk = Σ_r weights_r·
    Q[r, j]·Q'[r, k], is summed tile by tile over the tiles' bands into
    one real accumulator over the components they reach, and each of its
    entries is a line C = c̄_j·M_jk·c'_k at Δ = w_j − w'_k.  Of one
    sector's symmetric M only the upper triangle is kept, its entries off
    the diagonal doubled, since each stands for itself and its conjugate
    mirror.  The smallest lines whose |C| sum to at most `budget` are
    left out (_prune), and `dropped` bounds that sum.
    """
    _, w1, Q1, c1, tiles1 = one
    _, w2, Q2, c2, tiles2 = two
    if len(Q1) != len(Q2):
        raise ValueError("a form pairs sectors of one length, got %d and "
                         "%d rows" % (len(Q1), len(Q2)))
    blocks = [(rows, a, b, a2, b2)
              for (rows, a, b), (_, a2, b2) in zip(tiles1, tiles2)
              if a < b and a2 < b2 and weights[rows].any()]
    if not blocks:
        return np.zeros(0, dtype=complex), np.zeros(0), 0.0
    j0, k0 = min(blk[1] for blk in blocks), min(blk[3] for blk in blocks)
    j1, k1 = max(blk[2] for blk in blocks), max(blk[4] for blk in blocks)
    M = np.zeros((j1 - j0, k1 - k0))
    for rows, a, b, a2, b2 in blocks:
        M[a - j0:b - j0, a2 - k0:b2 - k0] += (
            (weights[rows, None] * Q1[rows, a:b]).T @ Q2[rows, a2:b2])
    if one is two:      # one sector's tiles: j0 = k0, and M is square
        M = 2.0 * np.triu(M)
        M.ravel()[::len(M) + 1] *= 0.5
    c1, c2 = c1[j0:j1], c2[k0:k1]
    mag = np.abs(M)
    mag *= np.abs(c1)[:, None]
    mag *= np.abs(c2)
    keep, dropped = _prune(mag.ravel(), budget)
    j, k = np.divmod(keep, k1 - k0)
    return (np.conj(c1[j]) * M.ravel()[keep] * c2[k], w1[j0 + j] - w2[k0 + k],
            dropped)


def _prune(mag, budget):
    """(keep, dropped): the indices of the entries of `mag` (≥ 0) that are
    kept, and a bound on the sum of the rest, at most `budget`.

    Entries up to budget/(2·len(mag)) go first, all together at most
    half the budget.  The rest are binned by their exponent and leading
    five mantissa bits (bins 2^(1/32) wide, in the order of their
    values), and the lowest bins whose sums add up to at most the other
    half are left out too."""
    floor = 0.5 * budget / max(len(mag), 1)
    above = np.flatnonzero(mag > floor)
    below = (len(mag) - len(above)) * floor
    if not len(above):
        return above, below
    vals = mag[above]
    keys = vals.view(np.int64) >> 47
    keys -= keys.min()
    run = np.cumsum(np.bincount(keys, weights=vals))
    cut = int(np.searchsorted(run, 0.5 * budget, side="right"))
    return (above[keys >= cut],
            below + (float(run[cut - 1]) if cut else 0.0))


def _line_sums(C, delta, t0, dt, n, budget):
    """(values, tail): Σ_p C_p·e^{iΔ_p·t} at the n times t = t0 + i·dt, as
    a complex array of n values, and the bound on their error from the
    expansion below, per unit of the summed |C|.  No lines sum to zero
    and cost nothing.

    A type-1 nonuniform FFT (Dutt & Rokhlin, SIAM J. Sci. Comput. 14,
    1368 (1993)) in its Taylor-expanded form (Anderson & Dahleh, SIAM J.
    Sci. Comput. 17, 913 (1996)).  Each line's phase step Δ·dt is split
    as 2πk/N' + ε on the grid of N' = LINE_OVERSAMPLE·n frequencies,
    |ε| ≤ π/N', and taken about the middle sample h = (n − 1)/2:

        e^{iΔt_i} = e^{iΔt0 + iεh}·e^{2πi·k·i/N'}·Σ_l (iε(i − h))^l / l!,

    so each order l is one np.bincount of the weights
    C·e^{iΔt0 + iεh}·u^l into N' bins (k modulo N': exact, by
    periodicity) and one inverse FFT, u = ε·max(h, 1).  With
    |ε(i − h)| ≤ |u| ≤ x = max|u| (at most π/(2·LINE_OVERSAMPLE) once
    n ≥ 2), the orders l ≤ L leave an error of at most x^{L+1}/(L+1)!
    per unit of |C| (`tail`), and L is the least with summed |C| × tail
    ≤ `budget`: 15 orders at fig4's α = 30.  One sample (n = 1, dt = 0)
    has ε = 0, so it takes order 0 alone: the direct sum.  Rounding adds
    about eps·|Δ|·max|t| of phase per line.

    A step of 2^53 grid frequencies or more (or not finite) is refused
    with a ValueError: k is then no exact integer in a double, ε no
    longer stays within π/N', and the orders would grow without bound.
    Below it rounding moves k and ε by a few grid frequencies at most, so
    x < 2π and L stays below about 40.
    """
    if not len(C) or not n:
        return np.zeros(n, dtype=complex), 0.0
    size = LINE_OVERSAMPLE * n
    mid = 0.5 * (n - 1)
    scale = max(mid, 1.0)
    step = delta * dt
    k = np.rint(step * (size / (2.0 * math.pi)))
    if not np.all(np.abs(k) < 2.0 ** 53):
        raise ValueError(
            "time step %.6g is too long to phase in double precision: a "
            "line's phase step is %.3g steps of its %d-frequency grid, "
            "2^53 at most; lower t_max" % (dt, float(np.max(np.abs(k))), size))
    eps = step - k * (2.0 * math.pi / size)
    weight = C * np.exp(1j * (delta * t0 + eps * mid))
    u = eps * scale
    # (re, im) of bin b at 2·b and the one after it
    pos = 2 * (k.astype(np.int64) % size)
    pos = np.stack([pos, pos + 1], axis=-1).ravel()
    x = float(np.max(np.abs(u)))
    total = float(np.sum(np.abs(C)))
    order, tail = 0, x
    while total * tail > budget:
        order += 1
        tail *= x / (order + 1)
    r = (np.arange(n) - mid) / scale
    power = np.ones(n, dtype=complex)
    sums = np.zeros(n, dtype=complex)
    for l in range(order + 1):
        if l:
            weight = weight * u
            power *= (1j / l) * r
        grid = np.bincount(pos, weight.view(float), minlength=2 * size)
        sums += np.fft.ifft(grid.view(complex), norm="forward")[:n] * power
    return sums, tail


def _band_cut(Q, c, budget):
    """(lo, hi, dropped): which entries of a sector's Q, levels ×
    eigencomponents, each tile brings to a form's lines: the band-cut
    state is the product Q @ (c·e^{−iwt}) over those entries only
    (_banded makes the cut once per evolve_grid call).

    The levels are cut into tiles of TILE_ROWS rows, and tile i
    multiplies only the columns [lo[i], hi[i]) (none when
    lo[i] ≥ hi[i]).  Leaving out some columns changes a tile's rows by a
    norm of at most those columns' norms over the tile, |c_j| times Q's,
    summed; so each tile leaves out, on either side, the most columns
    whose norms sum to at most √(budget / (4·tiles)).  `dropped`, the
    sum over the tiles of (left + right)², the two sides' summed norms,
    bounds the squared norm of the product's error for any phases of
    modulus one and never exceeds `budget`.
    """
    starts = np.arange(0, len(Q), TILE_ROWS)
    norms = np.sqrt(np.add.reduceat(Q * Q, starts, axis=0)) * np.abs(c)
    # the running sums of the norms from the left and from the right
    sums = np.array([norms, norms[:, ::-1]]).cumsum(axis=-1)
    fits = sums <= math.sqrt(budget / (4.0 * len(starts)))
    lo, n_right = fits.sum(axis=-1)
    left, right = (sums * fits).max(axis=-1, initial=0.0)
    return lo, len(c) - n_right, float(((left + right) ** 2).sum())


def _check_dim(dim, n_lo=0):
    """dim as an int, checked with the lowest level n_lo: at least two
    levels [n_lo, dim)."""
    d = int(dim)
    if d != dim or d < 2:
        raise ValueError("Fock truncation dim must be an integer >= 2, got %r"
                         % (dim,))
    if int(n_lo) != n_lo or not 0 <= n_lo <= d - 2:
        raise ValueError("lowest level n_lo must be an integer in [0, %d], "
                         "got %r" % (d - 2, n_lo))
    return d
