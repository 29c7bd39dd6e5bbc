import numpy as np
import pytest

from torusreg import Signal, TorusGrid


@pytest.fixture
def grid():
    return TorusGrid(64)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_signal(grid, rng, scale=1.0):
    return Signal(grid, scale * rng.standard_normal(grid.n))


def band_limited_signal(grid, rng, band):
    """Real signal with spectral content only in modes |j| <= band."""
    c = np.zeros(grid.n // 2 + 1, dtype=complex)
    c[0] = rng.standard_normal()
    for m in range(1, band + 1):
        re, im = rng.standard_normal(2)
        c[m] = (re + 1j * im) / 2
    return Signal(grid, np.fft.irfft(c, grid.n) * grid.n)


def single_mode_signal(grid, j, kind="cos"):
    """Unit-norm pure mode: sqrt(2) cos/sin(2 pi j x), or the constant 1."""
    x = grid.points
    if j == 0:
        return Signal(grid, np.ones(grid.n))
    if kind == "cos":
        return Signal(grid, np.sqrt(2.0) * np.cos(2 * np.pi * j * x))
    return Signal(grid, np.sqrt(2.0) * np.sin(2 * np.pi * j * x))
