"""In-memory span tracer that wraps lcdeco's public functions from outside.

Each patch replaces a function at the module attribute where its callers
look it up (``lcdeco.observables.SpectralPropagator`` is one class, so its
methods are patched once on the class).  ``src/`` is never edited: the
tracer is installed for a traced op and removed afterwards, so untraced
ops run the original code with no wrapper in between.

A span is (id, parent, name, start, end, op, attrs).  Spans opened on a
pool thread with nothing open on that thread get, as parent, the span
that is innermost on the op's main thread at that moment (the waiting
``run_scenario``), so the pool's work is charged to the op that caused it.

Only the standard library is imported here, so a traced CLI child can
load this module without moving lcdeco's import cost.
"""

import contextlib
import functools
import importlib
import itertools
import os
import threading
import time

# (module, attribute, span name).  A layer is the part of the span name
# before the first dot.
_FUNCTIONS = [
    # fock
    ("lcdeco.fock", "hermitian_eig", "fock.eigh"),
    ("lcdeco.hamiltonians", "hermitian_eig", "fock.eigh"),
    ("lcdeco.decoherence", "coherent_state", "fock.state"),
    ("lcdeco.decoherence", "joint_state", "fock.state"),
    ("lcdeco.observables", "coherent_state", "fock.state"),
    ("lcdeco.observables", "joint_state", "fock.state"),
    ("lcdeco.decoherence", "assert_leakage", "fock.leak"),
    ("lcdeco.observables", "assert_leakage", "fock.leak"),
    # hamiltonians
    ("lcdeco.decoherence", "build_effective_hamiltonian",
     "hamiltonians.build"),
    ("lcdeco.decoherence", "build_full_hamiltonian", "hamiltonians.build"),
    ("lcdeco.observables", "build_full_hamiltonian", "hamiltonians.build"),
    ("lcdeco.hamiltonians", "build_full_hamiltonian", "hamiltonians.build"),
    ("lcdeco.runner", "schrieffer_wolff_check", "hamiltonians.sw"),
    # decoherence
    ("lcdeco.runner", "decoherence_exact", "decoherence.closed"),
    ("lcdeco.runner", "decoherence_approx", "decoherence.closed"),
    ("lcdeco.runner", "jump_metrics", "decoherence.closed"),
    ("lcdeco.observables", "decoherence_exact", "decoherence.closed"),
    ("lcdeco.observables", "decoherence_approx", "decoherence.closed"),
    ("lcdeco.runner", "decoherence_gaussian_oracle", "decoherence.gaussian"),
    ("lcdeco.runner", "decoherence_fock_oracle", "decoherence.fock_oracle"),
    # observables
    ("lcdeco.runner", "current_numeric", "observables.current_numeric"),
    ("lcdeco.runner", "current_analytic", "observables.current_analytic"),
    ("lcdeco.runner", "envelope_metrics", "observables.envelope"),
    # circuit
    ("lcdeco.runner", "model_params", "circuit.derive"),
    ("lcdeco.runner", "derive_params", "circuit.derive"),
    ("lcdeco.runner", "circuit_from_kelvin", "circuit.derive"),
    ("lcdeco.runner", "gate_charge_from_voltage", "circuit.derive"),
    ("lcdeco.runner", "charging_energy", "circuit.derive"),
    ("lcdeco.runner", "josephson_energy", "circuit.derive"),
    ("lcdeco.runner", "flux_zero_point", "circuit.derive"),
    ("lcdeco.runner", "effective_capacitance", "circuit.derive"),
    ("lcdeco.runner", "series_capacitance", "circuit.derive"),
    ("lcdeco.runner", "coherent_flux_rms", "circuit.derive"),
    ("lcdeco.runner", "validate_regime", "circuit.derive"),
    # config
    ("lcdeco.config", "parse_config", "config.parse"),
    ("lcdeco.cli", "parse_config", "config.parse"),
    ("lcdeco.runner", "canonical_config", "config.canonical"),
    # emit
    ("lcdeco.runner", "emit_csv", "emit.csv"),
    ("lcdeco.runner", "emit_svg", "emit.svg"),
    ("lcdeco.runner", "write_manifest", "emit.manifest"),
    ("lcdeco.runner", "sha256_file", "emit.digest"),
    ("lcdeco.runner", "sha256_text", "emit.digest"),
    # runner
    ("lcdeco.runner", "run_scenario", "runner.run_scenario"),
    ("lcdeco.cli", "run_scenario", "runner.run_scenario"),
    ("lcdeco.cli", "derive_report", "runner.derive_report"),
]

_METHODS = [
    ("lcdeco.fock", "SpectralPropagator", "__init__", "fock.propagator"),
    ("lcdeco.fock", "SpectralPropagator", "evolve_grid", "fock.propagate"),
]

_EMITTERS = ("emit.csv", "emit.svg", "emit.manifest")


def _attrs(name, args):
    """Sizes a span records: matrix order for eigh, (order, samples) for
    propagation, bytes written for emission."""
    if name == "fock.eigh":
        return {"n": int(args[0].shape[0])}
    if name == "fock.propagate":
        return {"n": int(args[0].eigenvalues.shape[0]), "t": len(args[2])}
    if name in _EMITTERS:
        path = args[0]
        return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._saved = []
        self.op_id = None

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end,
                                     tracer.op_id, _attrs(name, args)))
        return traced

    @contextlib.contextmanager
    def op(self, op_id, name="bench.op"):
        """The root span of one op, opened on the calling thread."""
        self.op_id = op_id
        self._main_stack = stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, None, name, start, end, op_id, None))
            self._main_stack = None

    # -- patching ----------------------------------------------------------

    def install(self):
        for mod_name, attr, name in _FUNCTIONS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))
        for mod_name, cls_name, attr, name in _METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# analysis

def self_times(spans):
    """{span id: duration minus the part of it covered by child spans}."""
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for sid, _parent, _name, start, end, _op, _attrs in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def layer_totals(spans):
    """Per-op sums keyed by metric name; spans of all ops together.

    Returns (named totals, per-layer self totals).
    """
    selfs = self_times(spans)
    named = {}
    layers = {}

    def add(key, value):
        named[key] = named.get(key, 0.0) + value

    eigh_max = 0
    for s in spans:
        sid, _parent, name, start, end, _op, attrs = s
        dur = end - start
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + selfs[sid]
        add(name + "_s", dur)
        add(name + "_self_s", selfs[sid])
        add(name + "_calls", 1)
        if name == "fock.eigh":
            n = attrs["n"]
            eigh_max = max(eigh_max, n)
            # complex Hermitian: Householder tridiagonalisation 16/3·n³
            # plus eigenvector back-transformation 8·n³ real flops
            add("fock.eigh_flop_computed", (16.0 / 3.0 + 8.0) * n ** 3)
        elif name == "fock.propagate":
            n, t = attrs["n"], attrs["t"]
            # complex128: eigenvector matrix V, the n×t phase array and
            # the n×t output grid, each touched once
            add("fock.propagate_bytes_computed", 16 * (n * n + 2 * n * t))
        elif name in _EMITTERS:
            add("emit.files", 1)
            add("emit.bytes_written", attrs["bytes"])
    named["fock.eigh_dim_max"] = eigh_max
    return named, layers
