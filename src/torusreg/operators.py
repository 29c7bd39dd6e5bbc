"""Self-adjoint smoothing operators on the torus in Fourier-multiplier form.

The test operator is the inverse Helmholtz operator, the periodic
convolution with kernel cosh((2x - 2*floor(x) - 1)/4) / sinh(1/4), whose
symbol is 1 / (4 pi^2 j^2 + 1/4). Symbols are positive, even and
non-increasing in |j|, so T = T* and the spectral calculus of T*T is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NON_NEGATIVE, ConfigError, SourceDivisionError, check_value
from .torus import Signal, TorusGrid, _freeze, _read_only, check_same_grid

__all__ = [
    "FourierMultiplierOperator",
    "make_inverse_helmholtz",
    "kernel_signal",
    "apply",
    "power_apply",
    "multiplier_power_apply",
]

OVERFLOW_LIMIT = 1e300


@dataclass(frozen=True)
class FourierMultiplierOperator:
    """Diagonal operator (Tf)^_j = mu_j f^_j with a positive even symbol.

    ``smoothing_order`` records how many derivatives the operator gains
    (metadata used by the rate predictors, not by the arithmetic). The
    symbol and its half spectrum are read-only; a writeable symbol is
    copied, so a caller's later writes do not reach the operator.
    """

    grid: TorusGrid
    symbol: np.ndarray = field(repr=False)
    smoothing_order: float = 0.0

    def __post_init__(self):
        check_value("smoothing_order", self.smoothing_order, float, NON_NEGATIVE)
        mu = _read_only(np.asarray(self.symbol, dtype=float))
        if mu.shape != (self.grid.n,):
            raise ConfigError("symbol length does not match grid size")
        if not np.all((mu > 0) & (mu < np.inf)):
            raise ConfigError("symbol must be finite and strictly positive")
        j = self.grid.modes
        mu_by_absj = mu[np.argsort(np.abs(j), kind="stable")]
        if not np.all(np.diff(mu_by_absj) <= 1e-15 * mu_by_absj[:-1] + 1e-300):
            raise ConfigError("symbol must be non-increasing in |j|")
        pos = j >= 1
        neg_sorted = mu[j <= -1][::-1]
        if not np.allclose(mu[pos][: neg_sorted.size], neg_sorted[: mu[pos].size], rtol=1e-14):
            raise ConfigError("symbol must be even in j")
        object.__setattr__(self, "symbol", mu)

    __setstate__ = Signal.__setstate__  # unpickled arrays are frozen again

    @cached_property
    def symbol_rfft(self) -> np.ndarray:
        """Symbol on the rfft half spectrum: mu_j for j = 0, ..., n/2 (mu is even)."""
        half = self.grid.n // 2
        return _freeze(np.append(self.symbol[half:], self.symbol[0]))


def make_inverse_helmholtz(grid: TorusGrid) -> FourierMultiplierOperator:
    """T = (-d^2/dx^2 + I/4)^{-1}: symbol 1/(4 pi^2 j^2 + 1/4), 2-smoothing."""
    j = grid.modes
    mu = 1.0 / (4.0 * np.pi**2 * j.astype(float) ** 2 + 0.25)
    return FourierMultiplierOperator(grid, mu, smoothing_order=2.0)


def kernel_signal(grid: TorusGrid) -> Signal:
    """Samples of the closed-form convolution kernel of the inverse Helmholtz T.

    Its exact Fourier coefficients are the symbol 1/(4 pi^2 j^2 + 1/4); the
    DFT of the samples matches the symbol up to the aliasing defect
    sum_{m != 0} mu_{j+mn}, which is below 1/(4 n^2) in every mode.
    """
    x = grid.points
    vals = np.cosh((2.0 * x - 2.0 * np.floor(x) - 1.0) / 4.0) / np.sinh(0.25)
    return Signal(grid, vals)


def apply(op: FourierMultiplierOperator, f: Signal) -> Signal:
    """Apply the multiplier: (Tf)^_j = mu_j f^_j."""
    check_same_grid(op, f)
    return Signal.from_rfft(f.grid, f.rfft * op.symbol_rfft)


def multiplier_power_apply(op: FourierMultiplierOperator, p: float, f: Signal) -> Signal:
    """Apply mu_j^p mode-wise, failing loudly on blow-up.

    Negative powers amplify high modes; any output coefficient beyond
    1e300 (or non-finite) raises :class:`SourceDivisionError` carrying the
    first offending |j|. Zero coefficients stay zero.
    """
    check_same_grid(op, f)
    if p == 0:
        return f
    c = f.rfft
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.where(c == 0, 0.0 + 0.0j, c * op.symbol_rfft**p)
    bad = ~np.isfinite(out) | (np.abs(out) > OVERFLOW_LIMIT)
    if np.any(bad):
        mode = int(np.argmax(bad))
        raise SourceDivisionError(
            f"mode {mode} blows up under symbol power {p:g}", mode=mode
        )
    return Signal.from_rfft(f.grid, out)


def power_apply(op: FourierMultiplierOperator, s: float, f: Signal) -> Signal:
    """Apply (T*T)^s, i.e. the multiplier mu_j^{2s} (T is self-adjoint)."""
    return multiplier_power_apply(op, 2.0 * s, f)
