"""Uniform grids, signals and discrete Fourier transforms on the unit torus.

All signals are real-valued samples on the equidistant grid x_i = i/n.
Norms and inner products carry the quadrature weight 1/n, so they
approximate the continuous L^p quantities and are grid-size independent.
Spectra use the continuous-Fourier-coefficient normalization

    c_j = (1/n) sum_i f(x_i) exp(-2*pi*i*j*x_i),   j = -n/2, ..., n/2 - 1,

which makes operator symbols grid independent. Inside the program a real
signal's transform is its rfft half spectrum j = 0, ..., n/2; the full
shifted spectrum above is only the analysis view :func:`to_spectrum`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline

from .errors import ConfigError, GridMismatch

__all__ = [
    "TorusGrid",
    "Signal",
    "to_spectrum",
    "bspline_truth",
    "norm_l1",
    "norm_l2",
    "inner",
]


@dataclass(frozen=True)
class TorusGrid:
    """Equidistant grid with ``n`` points on [0, 1); spacing 1/n.

    ``n`` must be even and at least 4 so that Fourier modes pair
    symmetrically as j = -n/2, ..., n/2 - 1.
    """

    n: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ConfigError(f"grid size must be even and >= 4, got {self.n}")

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    @property
    def modes(self) -> np.ndarray:
        """Fourier mode indices j = -n/2, ..., n/2 - 1 in ascending order."""
        return np.arange(-self.n // 2, self.n // 2)


@dataclass(frozen=True)
class Signal:
    """Real samples of a function on a :class:`TorusGrid`."""

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ConfigError(
                f"signal length {values.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigError("signal values must be finite")
        object.__setattr__(self, "values", values)

    def __add__(self, other: "Signal") -> "Signal":
        check_same_grid(self, other)
        return Signal(self.grid, self.values + other.values)

    def __sub__(self, other: "Signal") -> "Signal":
        check_same_grid(self, other)
        return Signal(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Signal":
        return Signal(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def check_same_grid(*objs):
    grids = {o.grid.n for o in objs}
    if len(grids) > 1:
        raise GridMismatch(f"mixed grid sizes {sorted(grids)}")


def to_spectrum(f: Signal) -> np.ndarray:
    """Forward DFT c_j = (1/n) sum_i f(x_i) e^{-2pi i j x_i} in ``grid.modes`` order.

    The complex coefficients are indexed like an operator's ``symbol``.
    """
    return np.fft.fftshift(np.fft.fft(f.values)) / f.grid.n


def _cardinal_bspline(degree: int):
    """Cardinal B-spline of the given degree on knots 0, 1, ..., degree+1."""
    return BSpline.basis_element(np.arange(degree + 2), extrapolate=False)


def bspline_truth(grid: TorusGrid, degree: int = 5) -> Signal:
    """The test phantom 1 + B, with B a cardinal B-spline rescaled to [0, 1].

    B has degree+1 equal knot intervals, unit integral on its native support,
    hence integral 1/(degree+1) after rescaling; the phantom is >= 1
    everywhere, equals 1 at x = 0, and peaks at x = 1/2.
    """
    if degree not in (4, 5):
        raise ConfigError(f"unsupported B-spline degree {degree}; use 4 or 5")
    if grid.n < 8 * (degree + 1):
        raise ConfigError(
            f"grid size {grid.n} too coarse for degree {degree} (need >= {8 * (degree + 1)})"
        )
    spline = _cardinal_bspline(degree)
    vals = spline(grid.points * (degree + 1))
    vals = np.nan_to_num(vals, nan=0.0)
    return Signal(grid, 1.0 + vals)


def norm_l1(f: Signal) -> float:
    """L1 norm with quadrature weight 1/n."""
    return float(np.sum(np.abs(f.values)) / f.grid.n)


def norm_l2(f: Signal) -> float:
    """L2 norm with quadrature weight 1/n."""
    return float(np.sqrt(np.sum(f.values**2) / f.grid.n))


def inner(f: Signal, g: Signal) -> float:
    """L2 inner product with quadrature weight 1/n."""
    check_same_grid(f, g)
    return float(np.sum(f.values * g.values) / f.grid.n)
