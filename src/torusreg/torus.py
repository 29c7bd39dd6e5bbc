"""Uniform grids, signals and discrete Fourier transforms on the unit torus.

All signals are real-valued samples on the equidistant grid x_i = i/n.
Norms and inner products carry the quadrature weight 1/n, so they
approximate the continuous L^p quantities and are grid-size independent.
Spectra use the continuous-Fourier-coefficient normalization

    c_j = (1/n) sum_i f(x_i) exp(-2*pi*i*j*x_i),   j = -n/2, ..., n/2 - 1,

which makes operator symbols grid independent. Inside the program a real
signal's transform is its rfft half spectrum j = 0, ..., n/2 (numpy's
unnormalized ``rfft``). A :class:`Signal` stores its samples, and its half
spectrum is computed on first read and kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, GridMismatch, check_fields, check_value, one_of

__all__ = [
    "TorusGrid",
    "Signal",
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
        check_fields(self)
        if self.n < 4 or self.n % 2 != 0:
            raise ConfigError(f"grid size n must be even and >= 4, got {self.n}")

    @cached_property
    def ones(self) -> np.ndarray:
        """n ones (read-only; computed once)."""
        return _freeze(np.ones(self.n))

    @cached_property
    def points(self) -> np.ndarray:
        """x_i = i/n (read-only; computed once)."""
        return _freeze(np.arange(self.n) / self.n)

    @property
    def modes(self) -> np.ndarray:
        """Fourier mode indices j = -n/2, ..., n/2 - 1 in ascending order."""
        return np.arange(-self.n // 2, self.n // 2)


@dataclass(frozen=True)
class Signal:
    """Real samples of a function on a :class:`TorusGrid`.

    A signal stores its samples; its rfft half spectrum :attr:`rfft` is
    computed on first read and kept, or given up front by :meth:`from_rfft`.
    Both are read-only. A writeable input array is copied: building a signal
    never freezes, or aliases, the caller's array.
    """

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ConfigError("signal values must be real")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ConfigError(
                f"signal length {values.shape} does not match grid size {self.grid.n}"
            )
        # a finite sum proves every sample finite (inf and nan propagate); the
        # dot with ones is that sum through BLAS, faster than .sum()
        if not (math.isfinite(values.dot(self.grid.ones)) or np.isfinite(values).all()):
            raise ConfigError("signal values must be finite")
        object.__setattr__(self, "values", _read_only(values))

    @classmethod
    def from_rfft(cls, grid: TorusGrid, c: np.ndarray) -> "Signal":
        """The signal irfft(c, n) with half spectrum c, which it keeps as :attr:`rfft`.

        c must be finite, and c[0] and c[n/2] real, as they are for every
        real signal; finiteness is tested first, so a NaN or inf mode is
        reported as such. The samples are computed at once; samples that
        overflow raise :class:`ConfigError`.
        """
        c = np.asarray(c, dtype=complex)
        if c.shape != (grid.n // 2 + 1,):
            raise ConfigError(f"half spectrum length {c.shape} does not match grid size {grid.n}")
        if not math.isfinite(np.vdot(c, c).real) and not np.isfinite(c).all():
            raise ConfigError("half spectrum must be finite")  # a finite sum of squares proves it
        if c[0].imag or c[-1].imag:
            raise ConfigError("half spectrum needs real modes 0 and n/2")
        c = _read_only(c)
        with np.errstate(over="ignore", invalid="ignore"):
            values = _freeze(np.fft.irfft(c, grid.n))
        out = cls(grid, values)
        out.__dict__["rfft"] = c
        return out

    @cached_property
    def rfft(self) -> np.ndarray:
        """rfft half spectrum of the values (read-only; computed once)."""
        return _freeze(np.fft.rfft(self.values))

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays come back writeable
        for value in state.values():
            if isinstance(value, np.ndarray):
                _freeze(value)
        self.__dict__.update(state)

    def __add__(self, other: "Signal") -> "Signal":
        check_same_grid(self, other)
        return Signal(self.grid, _freeze(self.values + other.values))

    def __sub__(self, other: "Signal") -> "Signal":
        check_same_grid(self, other)
        return Signal(self.grid, _freeze(self.values - other.values))

    def __mul__(self, scalar: float) -> "Signal":
        return Signal(self.grid, _freeze(self.values * float(scalar)))

    __rmul__ = __mul__


def _freeze(a: np.ndarray) -> np.ndarray:
    """Mark a freshly computed array, which nothing else references, read-only."""
    a.setflags(write=False)
    return a


def _read_only(a: np.ndarray) -> np.ndarray:
    """a if it is read-only and owns its data, else a read-only copy of it."""
    flags = a.flags
    if flags.writeable or not flags.owndata:
        a = _freeze(a.copy())
    return a


def check_same_grid(*objs):
    n = objs[0].grid.n
    for o in objs:
        if o.grid.n != n:
            raise GridMismatch(f"mixed grid sizes {sorted({o.grid.n for o in objs})}")


def _cardinal_bspline(degree: int, x: np.ndarray) -> np.ndarray:
    """Cardinal B-spline of the given degree on knots 0, 1, ..., degree+1, at x.

    Cox-de Boor recursion on the unit knots: B_{i,0} is the indicator of
    [i, i+1) and B_{i,p}(x) = ((x - i) B_{i,p-1}(x) + (i+p+1 - x) B_{i+1,p-1}(x)) / p.
    """
    i = np.arange(degree + 1)[:, None]
    basis = ((i <= x) & (x < i + 1)).astype(float)
    for p in range(1, degree + 1):
        basis = ((x - i[: degree + 1 - p]) * basis[:-1]
                 + (i[: degree + 1 - p] + p + 1 - x) * basis[1:]) / p
    return basis[0]


def bspline_truth(grid: TorusGrid, degree: int = 5) -> Signal:
    """The test phantom 1 + B, with B a cardinal B-spline rescaled to [0, 1].

    B has degree+1 equal knot intervals, unit integral on its native support,
    hence integral 1/(degree+1) after rescaling; the phantom is >= 1
    everywhere, equals 1 at x = 0, and peaks at x = 1/2.
    """
    check_value("degree", degree, int, one_of(4, 5))
    if grid.n < 8 * (degree + 1):
        raise ConfigError(f"n must be >= 8 * (bspline_degree + 1) = {8 * (degree + 1)}, got {grid.n}")
    return Signal(grid, 1.0 + _cardinal_bspline(degree, grid.points * (degree + 1)))


def norm_l1(f: Signal) -> float:
    """L1 norm with quadrature weight 1/n."""
    return norm_l1_array(f.values)


def norm_l2(f: Signal) -> float:
    """L2 norm with quadrature weight 1/n."""
    return norm_l2_array(f.values)


def norm_l1_array(v: np.ndarray) -> float | np.ndarray:
    """:func:`norm_l1` of the samples v, a float; for a stack of sample rows
    along the last axis, the array of the rows' norms, each bit-equal to
    the norm of its row alone."""
    norms = np.abs(v).sum(axis=-1) / v.shape[-1]
    return float(norms) if v.ndim == 1 else norms


def norm_l2_array(v: np.ndarray) -> float:
    """:func:`norm_l2` of the samples v."""
    return math.sqrt((v * v).sum() / v.size)


def norm_l2_rfft(c: np.ndarray, n: int) -> float | np.ndarray:
    """:func:`norm_l2` of the signal irfft(c, n), from its half spectrum c by
    Parseval: sqrt(|c_0|^2 + 2 sum_{0<j<n/2} |c_j|^2 + |c_{n/2}|^2) / n, a
    float; for a stack of half spectra along the last axis, the array of
    their norms, each bit-equal to the norm of its row alone.
    """
    norms = norm_l2_parseval(np.vecdot(c, c).real, edge_squares(c[..., [0, -1]]), n)
    return float(norms) if c.ndim == 1 else norms


def edge_squares(edges: np.ndarray) -> np.ndarray:
    """|c_0|^2 + |c_{n/2}|^2 of half spectra whose modes 0 and n/2 are
    ``edges``, along a last axis of two: libm's hypot and pow, as
    ``abs(c) ** 2`` rounds on a complex scalar; numpy's ``abs`` and ``**``
    on arrays round otherwise."""
    squares = np.float_power(np.hypot(edges.real, edges.imag), 2)
    return squares[..., 0] + squares[..., 1]


def norm_l2_parseval(dots: np.ndarray, edges: np.ndarray, n: int) -> np.ndarray:
    """:func:`norm_l2_rfft` from its parts, element by element: ``dots`` the
    real parts of the half spectra's vecdot with themselves, and ``edges``
    their :func:`edge_squares`, broadcast against dots."""
    return np.sqrt(2.0 * dots - edges) / n


def inner(f: Signal, g: Signal) -> float:
    """L2 inner product with quadrature weight 1/n."""
    check_same_grid(f, g)
    return float(np.sum(f.values * g.values) / f.grid.n)
