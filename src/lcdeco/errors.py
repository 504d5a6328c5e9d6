"""Error types shared across the package.

The CLI maps these onto distinct exit codes so scripted callers can tell
configuration mistakes from physics-regime violations from numerical
(truncation) problems from failed self-checks.
"""


class ConfigError(Exception):
    """Invalid run configuration.  Carries ALL collected problems, not
    just the first one; each message is prefixed with the offending line
    number where one is known."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class RegimeError(Exception):
    """Parameters outside the validity domain of the model (resonance,
    negative squeeze-ratio radicand, degenerate qubit splitting, ...)."""


class TruncationError(Exception):
    """Fock-space truncation too small for the requested state or run.

    ``suggested_dim`` carries the smallest dimension estimated to be
    adequate, when the estimate is available."""

    def __init__(self, message, suggested_dim=None):
        self.suggested_dim = suggested_dim
        if suggested_dim is not None:
            message = "%s (suggested dim >= %d)" % (message, suggested_dim)
        super().__init__(message)
