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
* :mod:`lcdeco.observables` — charge occupation, probe current
  (analytic and numeric), spectral envelope metrics.
* :mod:`lcdeco.runner` / :mod:`lcdeco.cli` — scenario execution with
  deterministic CSV/SVG/manifest emission.
"""

from .circuit import (CircuitParams, ModelParams, RegimeReport,
                      circuit_from_kelvin, derive_params, model_params,
                      params_from_dimensionless, validate_regime)
from .decoherence import (JumpMetrics, decoherence_approx, decoherence_exact,
                          decoherence_fock_oracle,
                          decoherence_gaussian_oracle, full_model_coherence,
                          jump_metrics)
from .errors import ConfigError, RegimeError, TruncationError
from .fock import coherent_state
from .hamiltonians import (SWReport, build_effective_hamiltonian,
                           build_full_hamiltonian, schrieffer_wolff_check,
                           squeeze_coefficients)
from .observables import (EnvelopeMetrics, charge_occupation,
                          current_analytic, current_numeric,
                          envelope_metrics)
from .config import DeviceConfig, RunConfig, parse_config
from .runner import run_scenario
from .version import VERSION as __version__

__all__ = [
    "CircuitParams", "ConfigError", "DeviceConfig", "EnvelopeMetrics",
    "JumpMetrics", "ModelParams", "RegimeError", "RegimeReport",
    "RunConfig", "SWReport", "TruncationError",
    "build_effective_hamiltonian", "build_full_hamiltonian",
    "charge_occupation", "circuit_from_kelvin", "coherent_state",
    "current_analytic", "current_numeric", "decoherence_approx",
    "decoherence_exact", "decoherence_fock_oracle",
    "decoherence_gaussian_oracle", "derive_params", "envelope_metrics",
    "full_model_coherence", "jump_metrics", "model_params",
    "params_from_dimensionless", "parse_config", "run_scenario",
    "schrieffer_wolff_check", "squeeze_coefficients", "validate_regime",
    "__version__",
]
