import pickle
import warnings

import numpy as np
import pytest

from torusreg import (
    ConfigError,
    EntropyPenalty,
    ExperimentConfig,
    FourierMultiplierOperator,
    GridMismatch,
    NoiseModel,
    Problem,
    QuadraticPenalty,
    Signal,
    SolverConfig,
    SourceDivisionError,
    SweepConfig,
    TorusGrid,
    apply,
    inner,
    kernel_signal,
    make_inverse_helmholtz,
    norm_l2,
    power_apply,
    solve_generalized_dr,
    worst_case_search,
)
from torusreg.functionals import prox_fidelity

from conftest import (
    band_limited_signal, random_signal, single_mode_signal, spectral_projection, to_spectrum,
)


class TestConstruction:
    def test_rejects_nonpositive_symbol(self, grid):
        mu = np.ones(grid.n)
        mu[0] = 0.0
        with pytest.raises(ConfigError):
            FourierMultiplierOperator(grid, mu)

    @pytest.mark.parametrize("mode, bad", [(0, np.inf), ("n/2", np.inf), (3, np.nan)])
    def test_rejects_non_finite_symbol(self, grid, mode, bad):
        mu = make_inverse_helmholtz(grid).symbol.copy()
        j = grid.modes
        at = j == -grid.n // 2 if mode == "n/2" else np.abs(j) == mode
        mu[at] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite and strictly positive"):
                FourierMultiplierOperator(grid, mu)

    def test_rejects_increasing_symbol(self, grid):
        mu = 1.0 + np.abs(grid.modes.astype(float))
        with pytest.raises(ConfigError):
            FourierMultiplierOperator(grid, mu)

    def test_rejects_odd_symbol(self, grid):
        mu = 1.0 / (1.0 + np.abs(grid.modes + 0.3))
        with pytest.raises(ConfigError):
            FourierMultiplierOperator(grid, mu)


class TestImmutable:
    """An operator's symbol and its half spectrum are read-only arrays of its
    own, also once unpickled, and its instance dict holds nothing else."""

    def test_a_callers_symbol_is_copied(self, grid):
        mu = make_inverse_helmholtz(grid).symbol.copy()
        op = FourierMultiplierOperator(grid, mu)
        half = op.symbol_rfft.copy()
        assert op.symbol is not mu and np.array_equal(op.symbol, mu)
        mu[:] = -1.0  # the caller's array only
        assert np.array_equal(op.symbol_rfft, half)
        assert np.array_equal(np.append(op.symbol[grid.n // 2:], op.symbol[0]), half)

    def test_arrays_are_read_only(self, grid):
        op = make_inverse_helmholtz(grid)
        for array in (op.symbol, op.symbol_rfft):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("read_half", [False, True])
    def test_pickled_state_stays_read_only(self, grid, read_half):
        # pickled before and after symbol_rfft is first read, as a pool job's is
        op = make_inverse_helmholtz(grid)
        if read_half:
            op.symbol_rfft
        back = pickle.loads(pickle.dumps(op))
        assert set(back.__dict__) == set(op.__dict__)
        for array in (back.symbol, back.symbol_rfft):
            assert not array.flags.writeable
        assert np.array_equal(back.symbol_rfft, op.symbol_rfft)

    def test_solves_leave_only_fields_and_symbol_rfft(self):
        # a DR solve, a spectral search and prox_fidelity keep nothing on the operator
        grid = TorusGrid(64)
        op = make_inverse_helmholtz(grid)
        f_true = band_limited_signal(grid, np.random.default_rng(3), 6)
        prior = Signal(grid, np.ones(grid.n))
        g = apply(op, f_true)
        solve_generalized_dr(op, g, 1e-2, EntropyPenalty(prior, 0.0, 10.0))
        config = ExperimentConfig(solver=SolverConfig(method="spectral"),
                                  sweep=SweepConfig(noise=NoiseModel(k_max=4)))
        worst_case_search(config, Problem(grid, op, QuadraticPenalty(prior), f_true, g), 1e-2, 1e-2)
        prox_fidelity(op, g, f_true, 1.0, 1e-3)
        assert set(op.__dict__) == {"grid", "symbol", "smoothing_order", "symbol_rfft"}


class TestInverseHelmholtz:
    def test_symbol_values(self, grid):
        op = make_inverse_helmholtz(grid)
        j = grid.modes
        assert abs(op.symbol[j == 0][0] - 4.0) < 1e-14
        assert abs(op.symbol[j == 1][0] - 1.0 / (4.0 * np.pi**2 + 0.25)) < 1e-16
        assert op.smoothing_order == 2.0

    def test_order_two_decay(self):
        g = TorusGrid(1024)
        op = make_inverse_helmholtz(g)
        j = g.modes
        for jj in (32, 64, 128):
            ratio = op.symbol[j == jj][0] / op.symbol[j == 2 * jj][0]
            assert abs(ratio - 4.0) < 0.01


class TestKernel:
    def test_closed_form_values(self):
        g = TorusGrid(480)
        k = kernel_signal(g)
        assert abs(k.values[0] - np.cosh(0.25) / np.sinh(0.25)) < 1e-12
        assert abs(k.values[240] - 1.0 / np.sinh(0.25)) < 1e-12

    def test_mean_is_symbol_at_zero(self):
        g = TorusGrid(480)
        c = to_spectrum(kernel_signal(g))
        j = g.modes
        # exact integral of the kernel is 4 = mu_0; sampling sees it up to aliasing
        assert abs(c[j == 0][0] - 4.0) < 1.0 / (4.0 * 480**2)

    @pytest.mark.parametrize("n", [256, 480, 1024])
    def test_symbol_consistency_aliasing_limited(self, n):
        # DFT of the sampled kernel equals the symbol plus the alias sum
        # sum_{m != 0} mu_{j+mn}, which is below 1/(4 n^2) uniformly in j;
        # the defect also decays at the 1/n^2 rate.
        g = TorusGrid(n)
        c = to_spectrum(kernel_signal(g))
        op = make_inverse_helmholtz(g)
        defect = float(np.max(np.abs(c - op.symbol)))
        assert defect < 1.0 / (4.0 * n**2)
        assert defect > 1.0 / (40.0 * n**2)  # genuinely aliasing-limited, not zero


class TestApply:
    def test_constant_scales_by_dc_symbol(self, grid):
        op = make_inverse_helmholtz(grid)
        out = apply(op, Signal(grid, np.ones(grid.n)))
        assert np.max(np.abs(out.values - 4.0)) < 1e-12

    def test_sine_is_eigenfunction(self, grid):
        op = make_inverse_helmholtz(grid)
        f = single_mode_signal(grid, 1, "sin")
        out = apply(op, f)
        mu1 = op.symbol[grid.modes == 1][0]
        assert np.max(np.abs(out.values - mu1 * f.values)) < 1e-14

    def test_composition_is_squared_symbol(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        squared = FourierMultiplierOperator(grid, op.symbol**2, smoothing_order=4.0)
        f = random_signal(grid, rng)
        twice = apply(op, apply(op, f))
        once = apply(squared, f)
        assert np.max(np.abs(twice.values - once.values)) < 1e-12

    def test_self_adjoint(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        for _ in range(200):
            f, g = random_signal(grid, rng), random_signal(grid, rng)
            defect = abs(inner(apply(op, f), g) - inner(f, apply(op, g)))
            assert defect <= 1e-10 * norm_l2(f) * norm_l2(g)

    def test_grid_mismatch(self, grid):
        op = make_inverse_helmholtz(grid)
        other = TorusGrid(32)
        with pytest.raises(GridMismatch):
            apply(op, Signal(other, np.zeros(other.n)))


class TestPowerApply:
    def test_zero_power_is_identity(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f = random_signal(grid, rng)
        assert np.array_equal(power_apply(op, 0.0, f).values, f.values)

    def test_half_power_equals_apply(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f = random_signal(grid, rng)
        assert np.max(np.abs(power_apply(op, 0.5, f).values - apply(op, f).values)) < 1e-12

    def test_inverse_pair(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f = band_limited_signal(grid, rng, band=8)
        back = power_apply(op, 1.0, power_apply(op, -1.0, f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-9 * max(1.0, np.max(np.abs(f.values)))

    def test_blow_up_reports_mode(self):
        g = TorusGrid(64)
        # unit symbol below mode |j| = cliff, then a cliff: inverting blows up
        # exactly from there on, and the error reports the first offending |j|;
        # the Nyquist mode j = -n/2 reports n/2
        for cliff in (20, g.n // 2):
            mu = np.where(np.abs(g.modes) < cliff, 1.0, 1e-200)
            op = FourierMultiplierOperator(g, mu)
            f = single_mode_signal(g, cliff, "cos")
            with pytest.raises(SourceDivisionError) as info:
                power_apply(op, -1.0, f)
            assert info.value.mode == cliff


class TestSpectralProjection:
    def test_threshold_above_max_is_identity(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f = random_signal(grid, rng)
        out = spectral_projection(op, 17.0, f)  # mu_0^2 = 16 is the max
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_threshold_below_min_is_zero(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f = random_signal(grid, rng)
        lam = 0.5 * float(np.min(op.symbol)) ** 2
        out = spectral_projection(op, lam, f)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_half_open_interval_excludes_eigenvalue(self, grid):
        op = make_inverse_helmholtz(grid)
        f = single_mode_signal(grid, 3, "cos")
        mu3 = op.symbol[grid.modes == 3][0]
        out = spectral_projection(op, mu3**2, f)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_idempotent(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f = random_signal(grid, rng)
        lam = float(op.symbol[grid.modes == 5][0]) ** 2 * 1.5
        once = spectral_projection(op, lam, f)
        twice = spectral_projection(op, lam, once)
        # exact mode-wise; the transform round trip leaves only float noise
        assert np.max(np.abs(once.values - twice.values)) < 1e-14 * max(
            1.0, np.max(np.abs(f.values))
        )

    def test_monotone_in_threshold(self, grid, rng):
        helm = make_inverse_helmholtz(grid)
        for _ in range(50):
            f = random_signal(grid, rng)
            lams = np.sort(rng.uniform(1e-10, 20.0, size=2))
            lo = norm_l2(spectral_projection(helm, lams[0], f))
            hi = norm_l2(spectral_projection(helm, lams[1], f))
            assert lo <= hi + 1e-14
