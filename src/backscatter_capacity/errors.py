"""Exception types shared across the package.

The ValueError subclasses mark bad input (the CLI exits 1 on them);
ConvergenceError marks a numerical failure (the CLI exits 2).
"""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation (e.g. a
    non-positive SNR or a correlation outside [0, 1])."""


class ParameterError(ValueError):
    """Invalid accuracy setting (e.g. a non-positive tolerance)."""


class ConvergenceError(RuntimeError):
    """A numerical scheme failed to reach the requested tolerance.

    Carries diagnostics so callers can report the offending computation
    instead of silently truncating.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ConfigError(ValueError):
    """Invalid run configuration (CLI flags, JSON config, MC setup)."""
