"""Uniform grids, signals and discrete Fourier transforms on the unit torus.

All signals are real-valued samples on the equidistant grid x_i = i/n.
Norms and inner products carry the quadrature weight 1/n, so they
approximate the continuous L^p quantities and are grid-size independent.
Spectra use the continuous-Fourier-coefficient normalization

    c_j = (1/n) sum_i f(x_i) exp(-2*pi*i*j*x_i),   j = -n/2, ..., n/2 - 1,

which makes operator symbols grid independent. Inside the program a real
signal's transform is its rfft half spectrum j = 0, ..., n/2 (numpy's
unnormalized ``rfft``). A :class:`Signal` is built from either form, its
samples or its half spectrum, and computes the other on first read and
keeps it; the full shifted spectrum above is only the analysis view
:func:`to_spectrum`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, GridMismatch, check_fields, check_value, one_of

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

    A signal is built from its samples, or by :meth:`from_rfft` from its
    rfft half spectrum :attr:`rfft`; it computes the other form on first
    read and keeps it. Both are read-only. A writeable input array is
    copied: building a signal never freezes, or aliases, the caller's array.
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
        if not _finite_samples(values, self.grid):
            raise ConfigError("signal values must be finite")
        object.__setattr__(self, "values", _read_only(values))

    @classmethod
    def from_rfft(cls, grid: TorusGrid, c: np.ndarray) -> "Signal":
        """The signal irfft(c, n) with half spectrum c, which it keeps as :attr:`rfft`.

        c must be finite, and c[0] and c[n/2] real, as they are for every
        real signal; finiteness is tested first, so a NaN or inf mode is
        reported as such. The samples are computed on the first read of
        :attr:`values`, which raises :class:`ConfigError` if they overflow.
        """
        c = np.asarray(c, dtype=complex)
        if c.shape != (grid.n // 2 + 1,):
            raise ConfigError(f"half spectrum length {c.shape} does not match grid size {grid.n}")
        _check_finite_rfft(c)
        if c[0].imag or c[-1].imag:
            raise ConfigError("half spectrum needs real modes 0 and n/2")
        return _built(grid, rfft=_read_only(c))

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


class _SamplesOnFirstRead:
    """:attr:`Signal.values` of a signal built from its half spectrum:
    irfft(rfft, n), computed on the first read and kept in the instance.

    A non-data descriptor: kept samples, and those of a signal built from
    samples, shadow it, so reading them costs what a plain attribute does.
    """

    def __get__(self, signal, owner=None):
        if signal is None:
            return self
        if "rfft" not in signal.__dict__:  # neither form: not a built signal
            raise AttributeError("values")
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.fft.irfft(signal.rfft, signal.grid.n)
        if not _finite_samples(values, signal.grid):
            raise ConfigError("signal values must be finite: the half spectrum's samples overflow")
        signal.__dict__["values"] = _freeze(values)
        return values


# set after the dataclass decorator, which removes a field's class attribute
Signal.values = _SamplesOnFirstRead()


def _built(grid: TorusGrid, **fields: np.ndarray) -> Signal:
    """A signal with the given checked, read-only fields, built without
    :meth:`Signal.__post_init__`."""
    out = object.__new__(Signal)
    out.__dict__.update(grid=grid, **fields)
    return out


class _SignalRows(Sequence):
    """The rows of a checked, read-only (K, n) sample block as signals, each
    built when read; ``spectra`` holds the rows' half spectra, so a caller
    that needs only those builds no signal."""

    def __init__(self, grid: TorusGrid, block: np.ndarray, spectra: np.ndarray):
        self.grid, self.block, self.spectra = grid, block, spectra

    def __len__(self) -> int:
        return len(self.block)

    def __getitem__(self, i: int) -> Signal:
        return _built(self.grid, values=self.block[i], rfft=self.spectra[i])


def signal_rows(grid: TorusGrid, block: np.ndarray) -> _SignalRows:
    """One signal per row of the (K, n) sample block, each with its half
    spectrum from one batched rfft of the block; a signal is built when its
    row is read.

    The signals hold rows of the block and of its spectra as views; a row's
    half spectrum is bit-equal to the rfft of that row alone. As for
    :class:`Signal`, a writeable block is copied first.
    """
    if np.iscomplexobj(block):
        raise ConfigError("signal values must be real")
    block = _read_only(np.asarray(block, dtype=float))
    if block.ndim != 2 or block.shape[1] != grid.n:
        raise ConfigError(f"sample block shape {block.shape} does not match grid size {grid.n}")
    if not np.isfinite(block).all():
        raise ConfigError("signal values must be finite")
    return _SignalRows(grid, block, _freeze(np.fft.rfft(block)))


def _check_finite_rfft(c: np.ndarray) -> None:
    """Raise :class:`ConfigError` unless every mode of the half spectrum c is
    finite. A finite sum of squares proves it, as for the samples."""
    if not math.isfinite(np.vdot(c, c).real) and not np.isfinite(c).all():
        raise ConfigError("half spectrum must be finite")


def _finite_samples(values: np.ndarray, grid: TorusGrid) -> bool:
    """Whether every sample is finite. A finite sum proves it (inf and nan
    propagate); only an overflowing sum or a non-finite value takes the full
    check. The dot with ones is that sum through BLAS, faster than .sum()."""
    return math.isfinite(values.dot(grid.ones)) or bool(np.isfinite(values).all())


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


def to_spectrum(f: Signal) -> np.ndarray:
    """Forward DFT c_j = (1/n) sum_i f(x_i) e^{-2pi i j x_i} in ``grid.modes`` order.

    The complex coefficients are indexed like an operator's ``symbol``.
    """
    return np.fft.fftshift(np.fft.fft(f.values)) / f.grid.n


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


def norm_l1_array(v: np.ndarray) -> float:
    """:func:`norm_l1` of the samples v."""
    return float(np.abs(v).sum() / v.size)


def norm_l2_array(v: np.ndarray) -> float:
    """:func:`norm_l2` of the samples v."""
    return math.sqrt((v * v).sum() / v.size)


def norm_l2_rfft(c: np.ndarray, n: int) -> float:
    """:func:`norm_l2` of the signal irfft(c, n), from its half spectrum c by
    Parseval: sqrt(|c_0|^2 + 2 sum_{0<j<n/2} |c_j|^2 + |c_{n/2}|^2) / n."""
    edges = abs(c[0]) ** 2 + abs(c[-1]) ** 2
    return math.sqrt(2.0 * np.vdot(c, c).real - edges) / n


def inner(f: Signal, g: Signal) -> float:
    """L2 inner product with quadrature weight 1/n."""
    check_same_grid(f, g)
    return float(np.sum(f.values * g.values) / f.grid.n)
