"""Exception and warning types shared across the package, and the config field and
argument check."""

import math
import numbers
import os
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


# range rules, as field metadata for check_fields or rules for check_value: a value
# failing the test "must <key>"
FINITE = {"be finite": lambda v: -math.inf < v < math.inf}
POSITIVE = {"be finite and positive": lambda v: 0 < v < math.inf}
NON_NEGATIVE = {"be finite and non-negative": lambda v: 0 <= v < math.inf}
AT_LEAST_ONE = {"be >= 1": lambda v: v >= 1}
FILE_NAME = {"be a plain file name: non-empty, without '/', and not '.' or '..'":
             lambda v: v not in ("", ".", "..") and "/" not in v and os.sep not in v}


def one_of(*choices) -> dict:
    return {f"be one of {', '.join(map(repr, choices))}": choices.__contains__}


def _fits(value, hint) -> bool:
    if type(value) is hint:  # the common case, a value of exactly the hinted type
        return True
    if get_origin(hint) is tuple:  # tuple[X, ...]
        return isinstance(value, tuple) and all(_fits(v, get_args(hint)[0]) for v in value)
    if get_args(hint):  # X | None
        return any(_fits(value, h) for h in get_args(hint))
    if isinstance(value, bool):  # a bool is neither an int nor a float
        return hint is bool
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(hint, hint))


def check_value(name: str, value, hint, rules, shown=None) -> None:
    """Raise ConfigError naming ``name`` if ``value`` does not fit the type ``hint`` (int
    and float take numpy scalars, a bool is neither; shown as ``shown``, default its
    name) or fails a range rule of ``rules``; rules test each item of a tuple and skip None."""
    if not _fits(value, hint):
        raise ConfigError(f"{name} must be {shown or hint.__name__}, got {value!r}")
    if value is None:
        return
    for text, test in rules.items():
        if not all(map(test, value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{name} must {text}, got {value!r}")


def check_fields(obj) -> None:
    """check_value on each field of dataclass ``obj``, first to last: its annotation and
    the range rules of its metadata."""
    for f in fields(obj):
        check_value(f.name, getattr(obj, f.name), field_types(type(obj))[f.name], f.metadata, f.type)
