"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ParameterError(ValueError):
    """Structurally invalid parameter set (e.g. a non-positive tolerance)."""


class UnsupportedParameterError(ParameterError):
    """Parameters are representable but this evaluation path cannot serve them."""


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
