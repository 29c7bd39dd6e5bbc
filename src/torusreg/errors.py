"""Exception and warning types shared across the package, and the config field check."""

import math
import numbers
from dataclasses import fields
from functools import cache
from typing import get_args, get_origin, get_type_hints


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


@cache  # get_type_hints evaluates every annotation string on each call
def field_types(cls) -> dict:
    """Field name -> evaluated annotation of dataclass ``cls``; shared, do not mutate."""
    return get_type_hints(cls)


# range rules, as field metadata for check_fields: a value failing the test "must <key>"
FINITE = {"be finite": lambda v: -math.inf < v < math.inf}
POSITIVE = {"be finite and positive": lambda v: 0 < v < math.inf}
AT_LEAST_ONE = {"be >= 1": lambda v: v >= 1}


def one_of(*choices) -> dict:
    return {f"be one of {', '.join(map(repr, choices))}": choices.__contains__}


def _fits(value, hint) -> bool:
    if get_origin(hint) is tuple:  # tuple[X, ...]
        return isinstance(value, tuple) and all(_fits(v, get_args(hint)[0]) for v in value)
    if get_args(hint):  # X | None
        return any(_fits(value, h) for h in get_args(hint))
    if isinstance(value, bool):  # a bool is neither an int nor a float
        return hint is bool
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(hint, hint))


def check_fields(obj) -> None:
    """Raise ConfigError naming the first field of dataclass ``obj`` whose value does not
    fit its annotation (int and float take numpy scalars, a bool is neither) or fails a
    range rule of its metadata; rules test each item of a tuple and skip None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not _fits(value, field_types(type(obj))[f.name]):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if value is None:
            continue
        for text, test in f.metadata.items():
            if not all(map(test, value if isinstance(value, tuple) else (value,))):
                raise ConfigError(f"{f.name} must {text}, got {value!r}")
