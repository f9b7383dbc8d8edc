"""Exception and warning types shared across the package, and the shared input check."""

import math


class SpecError(ValueError):
    """Invalid design input: bad frequency list, nonpositive duration, bad flags."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (endpoint verification, mismatched provenance)."""


class GridError(ValueError):
    """Spatial grid cannot resolve the requested state."""


class BoundaryLeakError(RuntimeError):
    """Wavefunction amplitude reached the grid edges; enlarge the domain."""


class ResolutionWarning(UserWarning):
    """Integrator step count is marginal for the requested frequency."""


class AccuracyWarning(UserWarning):
    """A quadrature did not reach its target relative stability."""


class BracketWarning(UserWarning):
    """A scalar minimizer landed on the bracket edge; widen the search window."""


def check_positive(name: str, value) -> None:
    """Raise SpecError unless value is a positive finite number."""
    if not (value > 0 and math.isfinite(value)):
        raise SpecError(f"{name} must be positive and finite, got {value}")
