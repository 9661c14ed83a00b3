"""Shared exception types."""


class KSUnfoldError(Exception):
    """Base class for all package errors; `state` holds the state at fault,
    when there is one."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class DomainError(KSUnfoldError):
    """A state lies outside the admissible domain of a map or vector field
    (e.g. r < r_min for the Kepler right-hand side)."""


class LiftError(KSUnfoldError):
    """A 3-D state cannot be lifted (|x| = 0, or its lift is not finite)."""


class IntegrationError(KSUnfoldError):
    """Integration failed; carries the time and state where it gave up and
    the integrator's counts up to then (`stats`, as `Trajectory.stats`)."""

    def __init__(self, message, t=None, state=None, stats=None):
        super().__init__(message, state)
        self.t = t
        self.stats = {} if stats is None else stats


class DegenerateStructureError(KSUnfoldError):
    """The symplectic matrix is (numerically) singular at a state."""


class HorizonError(KSUnfoldError, ValueError):
    """A requested horizon lies beyond what the computation can represent
    (e.g. the closed-form unfold overflows before tau_end)."""


class ConfigError(KSUnfoldError):
    """Invalid run configuration (CLI exit code 2)."""
