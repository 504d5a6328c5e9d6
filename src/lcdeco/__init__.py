"""Deterministic simulator and analysis toolkit for the progressive
decoherence of a Josephson charge qubit coupled to an LC oscillator.

The working pieces:

* :mod:`lcdeco.fock` — truncated-Fock-space linear algebra (coherent
  and joint states, parity-sector spectral time evolution, truncation
  guards).
* :mod:`lcdeco.circuit` — SI circuit constants → dimensionless model
  parameters, plus regime validation.
* :mod:`lcdeco.hamiltonians` — full and per-branch effective
  Hamiltonians, Bogoliubov squeeze coefficients, and a numerical
  effective-model cross-check.
* :mod:`lcdeco.decoherence` — closed-form decoherence factor with two
  independent oracles (Fock overlap, Gaussian moments).
* :mod:`lcdeco.observables` — probe current (analytic, and numeric from
  the charge occupation's line spectrum), spectral envelope metrics.
* :mod:`lcdeco.runner` / :mod:`lcdeco.cli` — scenario execution with
  deterministic CSV/SVG/manifest emission.

The names below are re-exported lazily (PEP 562): each module is
imported when one of its names is first read, so importing lcdeco, or
running `lcdeco --version`, loads no numpy.
"""

import importlib

from .version import VERSION as __version__

# public name -> the module that defines it
_EXPORTS = {
    "CircuitParams": "circuit", "ModelParams": "circuit",
    "RegimeReport": "circuit", "circuit_from_kelvin": "circuit",
    "derive_params": "circuit", "model_params": "circuit",
    "params_from_dimensionless": "circuit", "validate_regime": "circuit",
    "JumpMetrics": "decoherence", "decoherence_approx": "decoherence",
    "decoherence_exact": "decoherence",
    "decoherence_fock_oracle": "decoherence",
    "decoherence_gaussian_oracle": "decoherence",
    "full_model_coherence": "decoherence", "jump_metrics": "decoherence",
    "ConfigError": "errors", "RegimeError": "errors",
    "TruncationError": "errors",
    "coherent_state": "fock",
    "SWReport": "hamiltonians",
    "build_effective_hamiltonian": "hamiltonians",
    "build_full_hamiltonian": "hamiltonians",
    "schrieffer_wolff_check": "hamiltonians",
    "squeeze_coefficients": "hamiltonians",
    "EnvelopeMetrics": "observables", "current_analytic": "observables",
    "current_numeric": "observables", "envelope_metrics": "observables",
    "DeviceConfig": "config", "RunConfig": "config",
    "parse_config": "config",
    "run_scenario": "runner",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
