import dataclasses
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import torusreg
from torusreg import (
    ConfigError,
    GridMismatch,
    Signal,
    TorusGrid,
    bspline_truth,
    inner,
    norm_l1,
    norm_l2,
    to_spectrum,
)

from conftest import random_signal


def cox_de_boor(x, p, i, t):
    """Independent oracle: textbook recursion for the B-spline basis."""
    if p == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    c1 = 0.0
    if t[i + p] != t[i]:
        c1 = (x - t[i]) / (t[i + p] - t[i]) * cox_de_boor(x, p - 1, i, t)
    c2 = 0.0
    if t[i + p + 1] != t[i + 1]:
        c2 = (t[i + p + 1] - x) / (t[i + p + 1] - t[i + 1]) * cox_de_boor(x, p - 1, i + 1, t)
    return c1 + c2


class TestTorusGrid:
    def test_points_and_modes(self):
        g = TorusGrid(8)
        assert np.allclose(g.points, np.arange(8) / 8)
        assert list(g.modes) == [-4, -3, -2, -1, 0, 1, 2, 3]

    @pytest.mark.parametrize("n", [2, 3, 7, 0, -4])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ConfigError):
            TorusGrid(n)


class TestSignal:
    def test_length_checked(self, grid):
        with pytest.raises(ConfigError):
            Signal(grid, np.zeros(grid.n + 1))

    def test_finite_checked(self, grid):
        bad = np.zeros(grid.n)
        bad[3] = np.inf
        with pytest.raises(ConfigError):
            Signal(grid, bad)

    def test_arithmetic_needs_same_grid(self, grid):
        other = TorusGrid(32)
        with pytest.raises(GridMismatch):
            Signal(grid, np.zeros(grid.n)) + Signal(other, np.zeros(other.n))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_caught_among_huge_values(self, grid, bad):
        # the sum of these values overflows (numpy warns), so the full
        # element check runs
        values = np.full(grid.n, 1e307)
        with np.errstate(over="ignore", invalid="ignore"):
            Signal(grid, values)
            values[5] = bad
            with pytest.raises(ConfigError, match="finite"):
                Signal(grid, values)

    def test_values_read_only_and_caller_array_writeable(self, grid, rng):
        raw = rng.standard_normal(grid.n)
        f = Signal(grid, raw)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.values = np.zeros(grid.n)
        with pytest.raises(ValueError, match="read-only"):
            f.values[0] = 1.0
        assert raw.flags.writeable
        raw[0] += 1.0  # the signal does not alias the caller's array
        assert f.values[0] == raw[0] - 1.0

    def test_rfft_memoized_bit_for_bit(self, grid, rng):
        f = random_signal(grid, rng)
        assert np.array_equal(f.rfft, np.fft.rfft(f.values))
        assert f.rfft is f.rfft
        with pytest.raises(ValueError, match="read-only"):
            f.rfft[0] = 0.0

    def test_from_rfft_round_trip(self, grid, rng):
        f = random_signal(grid, rng)
        c = np.fft.rfft(f.values)
        back = Signal.from_rfft(grid, c)
        assert np.max(np.abs(back.values - f.values)) <= 4e-15 * np.max(np.abs(f.values))
        assert np.array_equal(back.values, np.fft.irfft(c, grid.n))
        assert np.array_equal(back.rfft, c)
        assert c.flags.writeable
        c[1] += 1.0  # the kept spectrum does not alias the caller's array
        assert back.rfft[1] == c[1] - 1.0

    def test_from_rfft_checks_its_input(self, grid):
        with pytest.raises(ConfigError, match="length"):
            Signal.from_rfft(grid, np.zeros(grid.n // 2, dtype=complex))
        for mode in (0, grid.n // 2):
            c = np.zeros(grid.n // 2 + 1, dtype=complex)
            c[mode] = 1j
            with pytest.raises(ConfigError, match="real"):
                Signal.from_rfft(grid, c)
        c = np.zeros(grid.n // 2 + 1, dtype=complex)
        c[1] = np.inf
        with pytest.raises(ConfigError, match="finite"), np.errstate(invalid="ignore"):
            Signal.from_rfft(grid, c)

    def test_pickle_keeps_spectrum_and_read_only(self, grid, rng):
        f = Signal.from_rfft(grid, np.fft.rfft(rng.standard_normal(grid.n)) * 0.5)
        back = pickle.loads(pickle.dumps(f))
        assert np.array_equal(back.values, f.values) and np.array_equal(back.rfft, f.rfft)
        assert not back.values.flags.writeable and not back.rfft.flags.writeable


class TestTransforms:
    def test_constant_signal_dc_mode(self, grid):
        c = to_spectrum(Signal(grid, np.ones(grid.n)))
        j = grid.modes
        assert abs(c[j == 0][0] - 1.0) < 1e-14
        assert np.max(np.abs(c[j != 0])) < 1e-14

    def test_sine_mode_closed_form(self):
        g = TorusGrid(8)
        f = Signal(g, np.sin(2 * np.pi * g.points))
        c = to_spectrum(f)
        j = g.modes
        assert abs(c[j == 1][0] - (-0.5j)) < 1e-14
        assert abs(c[j == -1][0] - 0.5j) < 1e-14
        others = c[(j != 1) & (j != -1)]
        assert np.max(np.abs(others)) < 1e-14

    def test_matches_dft_sum(self, grid, rng):
        x, j = grid.points, grid.modes
        basis = np.exp(-2j * np.pi * np.outer(j, x))
        for _ in range(20):
            f = random_signal(grid, rng)
            oracle = basis @ f.values / grid.n
            assert np.max(np.abs(to_spectrum(f) - oracle)) <= 1e-13 * max(
                1.0, np.max(np.abs(f.values))
            )

    def test_parseval(self, grid, rng):
        for _ in range(200):
            f = random_signal(grid, rng)
            c = to_spectrum(f)
            lhs = norm_l2(f) ** 2
            rhs = float(np.sum(np.abs(c) ** 2))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)

    def test_linearity(self, grid, rng):
        for _ in range(50):
            f, g = random_signal(grid, rng), random_signal(grid, rng)
            a, b = rng.standard_normal(2)
            lhs = to_spectrum(a * f + b * g)
            rhs = a * to_spectrum(f) + b * to_spectrum(g)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


class TestBsplineTruth:
    @pytest.mark.parametrize("degree", [4, 5])
    @pytest.mark.parametrize("n", [48, 64, 480, 512, 960])
    def test_matches_scipy_basis_element(self, degree, n):
        from scipy.interpolate import BSpline

        grid = TorusGrid(n)
        spline = BSpline.basis_element(np.arange(degree + 2), extrapolate=False)
        oracle = np.nan_to_num(spline(grid.points * (degree + 1)), nan=0.0)
        assert np.max(np.abs(bspline_truth(grid, degree).values - 1.0 - oracle)) <= 4.4e-16

    def test_import_leaves_scipy_interpolate_out(self):
        # import the package this suite tests, from a fresh interpreter
        src = os.path.dirname(os.path.dirname(torusreg.__file__))
        code = "import sys, torusreg.cli; print('scipy.interpolate' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=env)
        assert done.stdout.strip() == "False"

    def test_supported_degrees_only(self):
        with pytest.raises(ConfigError):
            bspline_truth(TorusGrid(480), degree=3)

    def test_grid_too_coarse(self):
        with pytest.raises(ConfigError):
            bspline_truth(TorusGrid(32), degree=5)

    @pytest.mark.parametrize("degree", [4, 5])
    def test_endpoints_are_one(self, degree):
        f = bspline_truth(TorusGrid(480), degree)
        assert abs(f.values[0] - 1.0) < 1e-14

    @pytest.mark.parametrize("degree,midpoint", [(4, 115.0 / 192.0), (5, 0.55)])
    def test_midpoint_against_recursion_oracle(self, degree, midpoint):
        k = degree + 1
        oracle = cox_de_boor(k / 2.0, degree, 0, list(range(k + 1)))
        assert abs(oracle - midpoint) < 1e-12
        f = bspline_truth(TorusGrid(480), degree)
        assert abs(f.values[240] - (1.0 + midpoint)) < 1e-12

    @pytest.mark.parametrize("degree", [4, 5])
    def test_matches_recursion_oracle_everywhere(self, degree):
        g = TorusGrid(96)
        f = bspline_truth(g, degree)
        k = degree + 1
        knots = list(range(k + 1))
        oracle = np.array([cox_de_boor(k * x, degree, 0, knots) for x in g.points])
        assert np.max(np.abs(f.values - 1.0 - oracle)) < 1e-12

    @pytest.mark.parametrize("degree", [4, 5])
    def test_unit_integral_rescaled(self, degree):
        f = bspline_truth(TorusGrid(480), degree)
        integral = float(np.sum(f.values - 1.0) / 480)
        assert abs(integral - 1.0 / (degree + 1)) < 1e-12

    @pytest.mark.parametrize("degree", [4, 5])
    def test_bounded_below_and_symmetric(self, degree):
        n = 480  # multiple of 2 (degree + 1) for both degrees
        f = bspline_truth(TorusGrid(n), degree)
        assert np.all(f.values >= 1.0)
        assert f.values.argmax() == n // 2
        # symmetry about x = 1/2: f(x) = f(1 - x), i.e. index i <-> n - i
        reflected = np.concatenate(([f.values[0]], f.values[1:][::-1]))
        assert np.max(np.abs(f.values - reflected)) < 1e-12


class TestNorms:
    def test_constant_norms(self, grid):
        f = Signal(grid, 3.0 * np.ones(grid.n))
        assert abs(norm_l1(f) - 3.0) < 1e-14
        assert abs(norm_l2(f) - 3.0) < 1e-14

    def test_sine_l2(self):
        g = TorusGrid(4096)
        f = Signal(g, np.sin(2 * np.pi * g.points))
        assert abs(norm_l2(f) - 1.0 / np.sqrt(2.0)) < 1e-10

    def test_inner_consistent_with_norm(self, grid, rng):
        for _ in range(50):
            f = random_signal(grid, rng)
            assert abs(inner(f, f) - norm_l2(f) ** 2) < 1e-12 * max(1.0, norm_l2(f) ** 2)

    def test_grid_mismatch(self, grid):
        other = TorusGrid(32)
        with pytest.raises(GridMismatch):
            inner(Signal(grid, np.zeros(grid.n)), Signal(other, np.zeros(other.n)))
