"""Exception and warning types shared across the package."""


class TorusRegError(Exception):
    """Base class for all torusreg errors."""


class GridMismatch(TorusRegError):
    """Two signals (or a signal and an operator) live on different grids."""


class ConfigError(TorusRegError):
    """Invalid or inconsistent configuration value."""


class SourceDivisionError(TorusRegError):
    """Spectral division blew up: the signal lacks the required smoothness.

    Carries the first offending Fourier mode in ``mode``.
    """

    def __init__(self, message, mode=None):
        super().__init__(message)
        self.mode = mode


class SubgradientUndefined(TorusRegError):
    """No subgradient selection exists (base point on the domain boundary)."""


class NonConvergence(TorusRegError):
    """Iterative solver hit its iteration cap or took a non-finite step.

    Carries ``final_residual`` and ``iterations`` so the caller can retry
    with a different splitting step.
    """

    def __init__(self, message, final_residual=None, iterations=None):
        super().__init__(message)
        self.final_residual = final_residual
        self.iterations = iterations


class Unsupported(TorusRegError):
    """Operation not available for this input family (e.g. non-Hoelder index)."""


class DomainError(TorusRegError):
    """Argument outside the mathematical domain of the function."""


class InsufficientData(TorusRegError):
    """Not enough rows/points for a fit."""


class NonPositiveError(TorusRegError):
    """Log-log fit got a non-positive value."""


class InteriorityWarning(UserWarning):
    """A Bregman iterate is within tolerance of the box bounds.

    The next step's subgradient selection may involve a normal-cone element;
    the iteration proceeds with the interior formula regardless.
    """
