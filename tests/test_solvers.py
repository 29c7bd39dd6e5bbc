import itertools
import math
import pickle

import numpy as np
import pytest

import torusreg.solvers
from torusreg import (
    ConfigError,
    EntropyPenalty,
    GridMismatch,
    NonConvergence,
    QuadraticPenalty,
    Signal,
    SolverConfig,
    TorusGrid,
    Unsupported,
    accumulated_subgradient,
    apply,
    bregman_iterate,
    bspline_truth,
    make_inverse_helmholtz,
    norm_l2,
    prox_fidelity,
    solve_generalized_dr,
)
from torusreg.functionals import _fidelity_prox_constants
from torusreg.solvers import solve_quadratic_spectral

from conftest import (
    allocating_dr, count_calls, count_ffts, make_identity, prox_signal, random_signal,
    spectral_chains, spectral_solve, to_spectrum,
)


def signal_level_dr(op, g_obs, alpha, penalty, cfg=SolverConfig()):
    """Oracle: the Signal-per-iteration Douglas-Rachford loop, with the
    fidelity prox on the full complex spectrum. Returns (minimizer, iterations)."""
    gamma = cfg.gamma
    t = gamma / alpha
    mu = np.fft.ifftshift(op.symbol)
    gc = np.fft.fft(g_obs.values)

    def prox_data(x):
        vc = (np.fft.fft(x.values) + t * mu * gc) / (1.0 + t * mu**2)
        return Signal(x.grid, np.fft.ifft(vc).real)

    z = Signal(g_obs.grid, penalty.prior.values.copy())
    u = prox_signal(penalty, z, gamma)
    for it in range(1, cfg.max_iter + 1):
        w = prox_data(2.0 * u - z)
        z_new = z + (w - u)
        residual = norm_l2(z_new - z) / max(1.0, norm_l2(z))
        z = z_new
        u = prox_signal(penalty, z, gamma)
        if residual <= cfg.tol:
            return u, it
    raise AssertionError("oracle loop did not converge")


def array_level_spectral_route(op, g_obs, alpha, prior, steps=1):
    """Oracle: the spectral Bregman chain on plain arrays, one dict per step;
    the prior of step k > 1 is the minimizer of step k - 1.

    ``f`` is the minimizer. ``misfit_per_use`` and ``objective_per_use`` take
    an rfft per use, as the route did before signals kept their spectra.
    ``misfit``, ``objective``, ``dual`` and ``accumulated`` repeat, operation
    for operation, the eager per-step arithmetic on kept spectra: misfit
    irfft(mu f^ - g^), objective 1/2 rms(misfit)^2 / alpha + 1/2 rms(f - prior)^2,
    dual misfit * (-1/alpha), and accumulated the irfft of the running sum
    of -mu m^_k / alpha.
    """
    mu, n = op.symbol_rfft, op.grid.n
    t = 1.0 / alpha
    g_rfft = np.fft.rfft(g_obs.values)
    shift = t * mu * g_rfft
    scale = 1.0 + t * mu**2
    prior_values, prior_rfft = prior.values, np.fft.rfft(prior.values)
    accumulated_rfft = 0.0
    out = []
    for _ in range(steps):
        f_rfft = (prior_rfft + shift) / scale
        f = np.fft.irfft(f_rfft, n)
        misfit_per_use = np.fft.irfft(np.fft.rfft(f) * mu, n) - g_obs.values
        misfit_rfft = mu * f_rfft - g_rfft
        misfit = np.fft.irfft(misfit_rfft, n)
        accumulated_rfft = accumulated_rfft - mu * misfit_rfft / alpha
        out.append({
            "f": f,
            "misfit_per_use": misfit_per_use,
            "objective_per_use": 0.5 * np.sum(misfit_per_use**2) / n / alpha
            + 0.5 * np.sum((f - prior_values) ** 2) / n,
            "misfit": misfit,
            "objective": 0.5 * math.sqrt((misfit * misfit).sum() / n) ** 2 / alpha
            + 0.5 * math.sqrt(((f - prior_values) * (f - prior_values)).sum() / n) ** 2,
            "dual": misfit * float(-1.0 / alpha),
            "accumulated": np.fft.irfft(accumulated_rfft, n),
        })
        prior_values, prior_rfft = f, f_rfft
    return out


@pytest.fixture
def problem(grid, rng):
    op = make_inverse_helmholtz(grid)
    prior = Signal(grid, rng.standard_normal(grid.n))
    g_obs = Signal(grid, rng.standard_normal(grid.n))
    return op, g_obs, prior


@pytest.fixture
def data(grid):
    """The smoothing operator and noisy data of the truth 1 + 0.4 cos."""
    op = make_inverse_helmholtz(grid)
    x = grid.points
    f_true = Signal(grid, 1.0 + 0.4 * np.cos(2 * np.pi * x))
    g_obs = apply(op, f_true) + Signal(grid, 1e-3 * np.sin(6 * np.pi * x))
    return op, g_obs


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.gamma == 1.0
        assert cfg.max_iter == 20000 and cfg.tol == 1e-10 and cfg.method == "dr"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": -1.0},
            {"gamma": 0.0},
            {"gamma": float("nan")},
            {"max_iter": 0},
            {"tol": 0.0},
            {"method": "cg"},
            {"gamma": float("inf")},
            {"tol": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError, match=rf"\b{next(iter(kwargs))}\b"):
            SolverConfig(**kwargs)


class TestSpectralSolver:
    def test_single_mode_normal_equation(self, grid):
        op = make_identity(grid)
        g = Signal(grid, np.ones(grid.n))
        zero = Signal(grid, np.zeros(grid.n))
        out = spectral_solve(op, g, 1.0, zero)
        assert np.max(np.abs(out.values - 0.5)) < 1e-14

    def test_large_alpha_returns_prior(self, problem):
        op, g_obs, prior = problem
        out = spectral_solve(op, g_obs, 1e14, prior)
        assert np.max(np.abs(out.values - prior.values)) < 1e-10

    def test_small_alpha_recovers_truth_from_exact_data(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f_true = random_signal(grid, rng)
        g = apply(op, f_true)
        out = spectral_solve(op, g, 1e-18, f_true * 0.0)
        # mode-wise consistency: f_j -> g_j / mu_j as alpha -> 0
        assert norm_l2(out - f_true) < 1e-6 * norm_l2(f_true)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-2, 0.37, 1e3])
    def test_array_solve_is_the_unit_step_fidelity_prox(self, problem, alpha):
        # the half spectrum in, the half spectrum out, bit-equal to the Signal-level prox
        op, g_obs, prior = problem
        [out] = spectral_chains(op, g_obs.rfft, alpha, QuadraticPenalty(prior), 1)
        assert type(out) is np.ndarray and out.shape == (op.grid.n // 2 + 1,)
        assert np.array_equal(out, prox_fidelity(op, g_obs, prior, 1.0, alpha).rfft)

    def test_solve_writes_out_and_returns_it(self, problem):
        # (shift + prior) * recip, two ufuncs on the chain's constants; the
        # inputs are not written
        op, g_obs, prior = problem
        shift, recip = _fidelity_prox_constants(op, g_obs.rfft, 1.0, 0.37)
        shift_before, prior_before = shift.copy(), prior.rfft.copy()
        out = np.empty_like(shift)
        assert solve_quadratic_spectral(shift, prior.rfft, recip, out) is out
        assert np.array_equal(out, (shift + prior.rfft) * recip)
        assert np.array_equal(shift, shift_before) and np.array_equal(prior.rfft, prior_before)

    def test_mode_wise_optimality(self, problem, rng):
        op, g_obs, prior = problem
        alpha = 0.37
        f = spectral_solve(op, g_obs, alpha, prior)
        fc = to_spectrum(f)
        gc = to_spectrum(g_obs)
        pc = to_spectrum(prior)
        residual = op.symbol * (op.symbol * fc - gc) / alpha + (fc - pc)
        assert np.max(np.abs(residual)) < 1e-10


class TestSpectralRoute:
    SPECTRAL = SolverConfig(method="spectral")

    @pytest.mark.parametrize("alpha", [1.0, 1e-2, 1e-6])
    def test_matches_array_level_oracle(self, problem, alpha):
        op, g_obs, prior = problem
        (report,) = bregman_iterate(op, g_obs, alpha, QuadraticPenalty(prior), 1, self.SPECTRAL)
        (expected,) = array_level_spectral_route(op, g_obs, alpha, prior)
        assert np.array_equal(report.minimizer.values, expected["f"])
        assert np.array_equal(report.minimizer.values,
                              prox_fidelity(op, g_obs, prior, 1.0, alpha).values)
        assert (np.max(np.abs(report.misfit.values - expected["misfit_per_use"]))
                <= 1e-14 * np.max(np.abs(g_obs.values)))
        objective = expected["objective_per_use"]
        assert abs(report.objective - objective) <= 1e-13 * objective
        assert report.iterations == 0 and report.final_residual == 0.0

    @pytest.mark.parametrize("alpha", [1.0, 1e-2, 1e-6])
    def test_fields_read_on_demand_match_eager_arithmetic(self, problem, alpha):
        # misfit, objective and dual are computed on first read, and the
        # accumulated subgradient only when asked for; each is bit-identical
        # to the eager per-step arithmetic
        op, g_obs, prior = problem
        reports = bregman_iterate(op, g_obs, alpha, QuadraticPenalty(prior), 3, self.SPECTRAL)
        expected = array_level_spectral_route(op, g_obs, alpha, prior, steps=3)
        for n, (r, ex) in enumerate(zip(reports, expected, strict=True), 1):
            assert np.array_equal(r.minimizer.values, ex["f"])
            assert np.array_equal(r.misfit.values, ex["misfit"])
            assert r.objective == ex["objective"]
            assert np.array_equal(r.dual.values, ex["dual"])
            assert np.array_equal(accumulated_subgradient(op, reports[:n]).values, ex["accumulated"])

    def test_accumulated_subgradient_matches_signal_sum(self, problem):
        op, g_obs, prior = problem
        reports = bregman_iterate(op, g_obs, 1e-2, QuadraticPenalty(prior), 3, self.SPECTRAL)
        total = np.zeros(op.grid.n)
        assert np.array_equal(accumulated_subgradient(op, []).values, total)
        for n, r in enumerate(reports, 1):
            total = total + apply(op, r.dual).values
            got = accumulated_subgradient(op, reports[:n]).values
            assert np.max(np.abs(got - total)) <= 1e-12

    def test_fft_budget(self, grid, rng, monkeypatch):
        # one rfft per fresh g_obs, and one irfft per step for the samples of
        # its minimizer, computed when the signal is built: the prior's spectrum
        # is shared, and the misfit's samples, the dual and the pullbacks are
        # only computed when read
        op = make_inverse_helmholtz(grid)
        prior = random_signal(grid, rng)
        prior.rfft
        observations = [random_signal(grid, rng) for _ in range(4)]
        counts = count_ffts(monkeypatch)
        steps = 3
        for g_obs in observations:
            reports = bregman_iterate(op, g_obs, 1e-2, QuadraticPenalty(prior), steps, self.SPECTRAL)
            assert len(reports) == steps
        assert counts == {"rfft": len(observations), "irfft": len(observations) * steps}


class TestDouglasRachford:
    @pytest.mark.parametrize("alpha", [1e-4, 1e-2, 1.0])
    def test_matches_spectral_on_quadratic(self, problem, alpha):
        op, g_obs, prior = problem
        exact = spectral_solve(op, g_obs, alpha, prior)
        report = solve_generalized_dr(op, g_obs, alpha, QuadraticPenalty(prior))
        assert norm_l2(report.minimizer - exact) <= 1e-6 * norm_l2(exact)
        assert report.final_residual <= 1e-10
        assert report.iterations < 200

    def test_entropy_joint_minimizer(self, grid):
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 5.0)
        g = apply(op, f0)
        for alpha in (0.01, 1.0, 100.0):
            report = solve_generalized_dr(op, g, alpha, pen)
            assert norm_l2(report.minimizer - f0) < 1e-8

    def test_entropy_large_alpha_returns_interior_prior(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, rng.uniform(0.5, 2.0, grid.n))
        pen = EntropyPenalty(f0, 0.0, 5.0)
        g_obs = Signal(grid, rng.standard_normal(grid.n))
        report = solve_generalized_dr(op, g_obs, 1e12, pen)
        assert np.max(np.abs(report.minimizer.values - f0.values)) < 1e-6

    def test_entropy_first_order_optimality(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 5.0)
        f_true = Signal(grid, 1.0 + 0.4 * np.cos(2 * np.pi * grid.points))
        g = apply(op, f_true)
        alpha = 1e-3
        report = solve_generalized_dr(op, g, alpha, pen, SolverConfig(tol=1e-12))
        f = report.minimizer
        grad = apply(op, apply(op, f) - g) * (1.0 / alpha) + Signal(
            grid, np.log(f.values / f0.values)
        )
        assert norm_l2(grad) <= 1e-6

    def test_gamma_independence(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 5.0)
        f_true = Signal(grid, 1.0 + 0.3 * np.sin(2 * np.pi * grid.points))
        alpha = 0.05
        g_obs = apply(op, f_true) + 0.01 * random_signal(grid, rng)
        solutions = []
        for gamma in (alpha / 10.0, alpha, 10.0 * alpha):
            report = solve_generalized_dr(
                op, g_obs, alpha, pen, SolverConfig(gamma=gamma, tol=1e-11, max_iter=200000)
            )
            solutions.append(report.minimizer)
        scale = norm_l2(solutions[0])
        for i in range(len(solutions)):
            for k in range(i + 1, len(solutions)):
                assert norm_l2(solutions[i] - solutions[k]) <= 1e-6 * scale

    def test_objective_sanity(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 5.0)
        f_true = Signal(grid, 1.0 + 0.4 * np.cos(4 * np.pi * grid.points))
        g_obs = apply(op, f_true) + 0.001 * random_signal(grid, rng)
        alpha = 0.01
        report = solve_generalized_dr(op, g_obs, alpha, pen)

        def objective(f):
            return 0.5 * norm_l2(apply(op, f) - g_obs) ** 2 / alpha + pen.value(f)

        assert report.objective <= objective(f0) + 1e-8
        assert report.objective <= objective(f_true) + 1e-8
        assert abs(report.objective - objective(report.minimizer)) < 1e-12

    def test_nonconvergence_carries_residual(self, problem):
        op, g_obs, prior = problem
        with pytest.raises(NonConvergence) as info:
            solve_generalized_dr(
                op, g_obs, 1.0, QuadraticPenalty(prior), SolverConfig(max_iter=3)
            )
        assert info.value.final_residual > 0
        assert info.value.iterations == 3

    def test_spectral_method_requires_quadratic(self, grid):
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        with pytest.raises(Unsupported):
            bregman_iterate(
                op, apply(op, f0), 1.0, EntropyPenalty(f0), 1, SolverConfig(method="spectral")
            )

    def test_spectral_method_matches_direct(self, problem):
        op, g_obs, prior = problem
        direct = spectral_solve(op, g_obs, 0.3, prior)
        (report,) = bregman_iterate(
            op, g_obs, 0.3, QuadraticPenalty(prior), 1, SolverConfig(method="spectral")
        )
        assert np.array_equal(report.minimizer.values, direct.values)
        assert report.iterations == 0

    @pytest.mark.parametrize("penalty", [QuadraticPenalty, EntropyPenalty])
    def test_spectral_method_is_rejected(self, grid, monkeypatch, penalty):
        # a closed-form chain is bregman_iterate's; the DR solve takes only method = dr
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        g_obs = apply(op, f0)
        counts = count_ffts(monkeypatch)
        with pytest.raises(ConfigError, match="^method must be one of 'dr', got 'spectral'$"):
            solve_generalized_dr(op, g_obs, 1.0, penalty(f0), SolverConfig(method="spectral"))
        assert not counts

    def test_boundary_touch_reported(self, grid):
        op = make_identity(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 1.5)
        g_obs = Signal(grid, np.full(grid.n, 3.0))  # pushes toward the 1.5 cap
        report = solve_generalized_dr(op, g_obs, 0.01, pen)
        assert report.boundary_touch
        assert np.all(report.minimizer.values <= 1.5 + 1e-15)


class TestArrayCoreMatchesSignalLoop:
    @pytest.mark.parametrize("alpha", [1e-2, 1e-5])
    @pytest.mark.parametrize("gamma", [1.0, 0.1])
    def test_entropy(self, grid, data, alpha, gamma):
        op, g_obs = data
        pen = EntropyPenalty(Signal(grid, np.ones(grid.n)), 0.0, 5.0)
        cfg = SolverConfig(gamma=gamma)
        expected, iterations = signal_level_dr(op, g_obs, alpha, pen, cfg)
        report = solve_generalized_dr(op, g_obs, alpha, pen, cfg)
        assert report.iterations == iterations
        assert np.max(np.abs(report.minimizer.values - expected.values)) <= 1e-12

    def test_entropy_benchmark_setting(self):
        # the rate sweep's shape: n = 480, B-spline truth, sinusoid noise,
        # alpha = 3.16e-3 delta^(8/15), tol = 1e-12, both Bregman steps
        grid = TorusGrid(480)
        op = make_inverse_helmholtz(grid)
        delta = 1e-3
        noise = Signal(grid, delta * np.sin(2 * np.pi * 7 * grid.points))
        g_obs = apply(op, bspline_truth(grid, 5)) + noise
        alpha = 3.16e-3 * delta ** (8 / 15)
        cfg = SolverConfig(tol=1e-12)
        pen = EntropyPenalty(Signal(grid, np.ones(grid.n)), 0.0, 5.0)
        for _ in range(2):
            expected, iterations = signal_level_dr(op, g_obs, alpha, pen, cfg)
            report = solve_generalized_dr(op, g_obs, alpha, pen, cfg)
            assert report.iterations == iterations
            assert np.max(np.abs(report.minimizer.values - expected.values)) <= 1e-12
            pen = pen.with_prior(report.minimizer)

    def test_entropy_clamp_binds(self, grid, data):
        # the truth 1 + 0.4 cos leaves the box [0.8, 1.2] at both ends
        op, g_obs = data
        pen = EntropyPenalty(Signal(grid, np.ones(grid.n)), 0.8, 1.2)
        expected, iterations = signal_level_dr(op, g_obs, 1e-5, pen)
        report = solve_generalized_dr(op, g_obs, 1e-5, pen)
        assert report.iterations == iterations
        assert np.max(np.abs(report.minimizer.values - expected.values)) <= 1e-12
        values = report.minimizer.values
        assert np.any(values == 0.8) and np.any(values == 1.2)

    @pytest.mark.parametrize("alpha", [1e-2, 1e-5])
    def test_quadratic(self, problem, alpha):
        op, g_obs, prior = problem
        pen = QuadraticPenalty(prior)
        expected, iterations = signal_level_dr(op, g_obs, alpha, pen)
        report = solve_generalized_dr(op, g_obs, alpha, pen)
        assert report.iterations == iterations
        assert np.max(np.abs(report.minimizer.values - expected.values)) <= 1e-12

    def test_misfit_is_reported(self, grid, data):
        op, g_obs = data
        pen = EntropyPenalty(Signal(grid, np.ones(grid.n)), 0.0, 5.0)
        report = solve_generalized_dr(op, g_obs, 1e-2, pen)
        misfit_rfft = op.symbol_rfft * report.minimizer.rfft - g_obs.rfft
        assert np.array_equal(report.misfit.values, np.fft.irfft(misfit_rfft, grid.n))
        expected = apply(op, report.minimizer) - g_obs
        tol = 1e-15 * np.max(np.abs(g_obs.values))
        assert np.max(np.abs(report.misfit.values - expected.values)) <= tol

    def test_fft_budget(self, grid, data, monkeypatch):
        # an rfft and an irfft per iteration in the fidelity prox (numpy's
        # kernels, looked up on solvers), and the minimizer's rfft for the
        # report (np.fft's); the data enter by their kept spectrum
        op, g_obs = data
        g_obs.rfft
        pen = EntropyPenalty(Signal(grid, np.ones(grid.n)), 0.0, 5.0)
        counts = count_ffts(monkeypatch)
        report = solve_generalized_dr(op, g_obs, 1e-2, pen)
        assert counts == {"rfft": report.iterations + 1, "irfft": report.iterations}


class TestFftKernels:
    """The DR loop's FFT pair: numpy's gufuncs, bound in ``solvers``."""

    @pytest.mark.parametrize("n", [4, 64, 480, 512])
    def test_kernels_are_np_fft_bit_for_bit(self, rng, n):
        x = rng.standard_normal(n)
        c = np.empty(n // 2 + 1, dtype=complex)
        torusreg.solvers._rfft_even(x, 1.0, c)
        assert np.array_equal(c, np.fft.rfft(x))
        spectrum = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        y = np.empty(n)
        torusreg.solvers._irfft(spectrum, 1.0 / n, y)
        assert np.array_equal(y, np.fft.irfft(spectrum, n))


class TestLazyStopTest:
    """The solve reads ||z|| only where the stop test can pass; its stops,
    iterations and residuals must be those of the oracle, which reads
    ||z|| at every iteration. With the prior 3, max(1, ||z||) is ||z||,
    about 3, so the norm decides the stop."""

    @staticmethod
    def case(grid, penalty):
        op = make_inverse_helmholtz(grid)
        x = grid.points
        g_obs = apply(op, Signal(grid, 3.0 + 1.2 * np.cos(2 * np.pi * x)))
        g_obs = g_obs + Signal(grid, 1e-3 * np.sin(6 * np.pi * x))
        prior = Signal(grid, np.full(grid.n, 3.0))
        pen = EntropyPenalty(prior, 0.0, 5.0) if penalty == "entropy" else QuadraticPenalty(prior)
        return op, g_obs, pen

    @pytest.mark.parametrize("penalty", ["entropy", "quadratic"])
    @pytest.mark.parametrize("alpha, tol", [(1.0, 1e-10), (1e-2, 1e-8), (1e-5, 1e-10)])
    def test_stop_matches_the_oracle(self, grid, penalty, alpha, tol):
        op, g_obs, pen = self.case(grid, penalty)
        cfg = SolverConfig(tol=tol)
        norms = []
        u, iterations, residual = allocating_dr(op, g_obs, alpha, pen, cfg, norms)
        report = solve_generalized_dr(op, g_obs, alpha, pen, cfg)
        assert report.iterations == iterations
        assert report.final_residual == residual
        assert np.array_equal(report.minimizer.values, u)
        step, z_norm = norms[-1]
        # the stopping step is above tol: a test on the step alone would run on
        assert tol < step <= tol * z_norm

    @pytest.mark.parametrize("max_iter", [1, 7])
    def test_max_iter_reports_the_last_relative_step(self, grid, max_iter):
        op, g_obs, pen = self.case(grid, "entropy")
        cfg = SolverConfig(max_iter=max_iter)
        norms = []
        with pytest.raises(AssertionError, match="oracle loop did not converge"):
            allocating_dr(op, g_obs, 1e-2, pen, cfg, norms)
        with pytest.raises(NonConvergence) as info:
            solve_generalized_dr(op, g_obs, 1e-2, pen, cfg)
        step, z_norm = norms[-1]
        assert info.value.final_residual == step / max(1.0, z_norm)
        assert info.value.iterations == max_iter


class TestInPlaceLoop:
    """The solve runs on work arrays it owns; it must equal the allocating
    loop bit for bit and leave its inputs as they were. gamma = 1 takes the
    entropy prox's unit branch; 0.1 and 2.5 divide and multiply by gamma."""

    @staticmethod
    def assert_matches_oracle(op, g_obs, alpha, report, cfg):
        u, iterations, residual = allocating_dr(op, g_obs, alpha, report.penalty, cfg)
        assert np.array_equal(report.minimizer.values, u)
        assert report.iterations == iterations
        assert report.final_residual == residual

    @pytest.mark.parametrize("gamma", [1.0, 0.1, 2.5])
    @pytest.mark.parametrize("alpha", [1e-2, 1e-5])
    def test_two_step_entropy_chain_matches_allocating_loop(self, grid, data, alpha, gamma):
        op, g_obs = data
        pen = EntropyPenalty(Signal(grid, np.ones(grid.n)), 0.0, 5.0)
        cfg = SolverConfig(gamma=gamma)
        reports = bregman_iterate(op, g_obs, alpha, pen, 2, cfg)
        assert reports[1].penalty.prior is reports[0].minimizer
        for report in reports:
            self.assert_matches_oracle(op, g_obs, alpha, report, cfg)

    @pytest.mark.parametrize("gamma", [1.0, 0.1, 2.5])
    @pytest.mark.parametrize("alpha", [1e-2, 1e-5])
    def test_quadratic_solve_matches_allocating_loop(self, problem, alpha, gamma):
        op, g_obs, prior = problem
        cfg = SolverConfig(gamma=gamma)
        report = solve_generalized_dr(op, g_obs, alpha, QuadraticPenalty(prior), cfg)
        self.assert_matches_oracle(op, g_obs, alpha, report, cfg)

    @pytest.mark.parametrize("penalty", ["entropy", "quadratic"])
    def test_inputs_are_untouched(self, grid, data, penalty):
        op, g_obs = data
        prior = Signal(grid, 1.0 + 0.1 * np.sin(2 * np.pi * grid.points))
        pen = EntropyPenalty(prior) if penalty == "entropy" else QuadraticPenalty(prior)
        prior_before, g_before = prior.values.copy(), g_obs.values.copy()
        g_rfft_before = g_obs.rfft.copy()
        report = solve_generalized_dr(op, g_obs, 1e-2, pen)
        assert np.array_equal(prior.values, prior_before)
        assert np.array_equal(g_obs.values, g_before)
        assert np.array_equal(g_obs.rfft, g_rfft_before)
        assert not np.shares_memory(report.minimizer.values, prior.values)


class TestReportFields:
    LAZY = {
        "data_residual": lambda r: r.data_residual,
        "misfit": lambda r: r.misfit.values,
        "objective": lambda r: r.objective,
        "dual": lambda r: r.dual.values,
    }

    @pytest.fixture(params=["spectral", "dr_entropy", "dr_quadratic"])
    def chain(self, request, grid):
        """A function running a fresh 2-step chain on the route of the param."""
        op = make_inverse_helmholtz(grid)
        x = grid.points
        g_obs = apply(op, Signal(grid, 1.0 + 0.4 * np.cos(2 * np.pi * x)))
        g_obs = g_obs + Signal(grid, 1e-3 * np.sin(6 * np.pi * x))
        prior = Signal(grid, np.ones(grid.n))
        if request.param == "dr_entropy":
            pen, cfg = EntropyPenalty(prior, 0.0, 5.0), SolverConfig()
        else:
            method = "spectral" if request.param == "spectral" else "dr"
            pen, cfg = QuadraticPenalty(prior), SolverConfig(method=method)
        return lambda alpha=1e-2: bregman_iterate(op, g_obs, alpha, pen, 2, cfg)

    @pytest.mark.parametrize("alpha", [1.0, 1e-2, 1e-6])
    def test_data_residual_is_the_misfit_norm(self, chain, alpha):
        for r in chain(alpha):
            expected = norm_l2(r.misfit)
            assert abs(r.data_residual - expected) <= 1e-13 * expected
            assert np.array_equal(r.misfit_rfft, r.misfit.rfft)
            assert not r.misfit_rfft.flags.writeable

    def test_pickled_state_stays_read_only(self, chain):
        # a report pickled before and after its fields are first read
        for fresh, read in zip(chain(), chain(), strict=True):
            reference = {name: get(read) for name, get in self.LAZY.items()}
            for r in (fresh, read):
                back = pickle.loads(pickle.dumps(r))
                assert np.array_equal(back.misfit_rfft, r.misfit_rfft)
                assert not back.misfit_rfft.flags.writeable
                assert all(np.array_equal(get(back), reference[name])
                           for name, get in self.LAZY.items())
                assert not back.misfit.values.flags.writeable
                assert not back.dual.values.flags.writeable

    def test_read_order_does_not_matter(self, chain):
        reference = [{name: get(r) for name, get in self.LAZY.items()} for r in chain()]
        for order in itertools.permutations(self.LAZY):
            reports = chain()
            assert not any(name in r.__dict__ for r in reports for name in self.LAZY)
            for name in order:
                for r, ref in zip(reports, reference, strict=True):
                    assert np.array_equal(self.LAZY[name](r), ref[name])
            for r, ref in zip(reports, reference, strict=True):
                # computed once, then kept
                assert r.dual is r.dual and r.misfit is r.misfit
                assert all(np.array_equal(get(r), ref[name]) for name, get in self.LAZY.items())


class TestInputChecks:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
    def test_alpha_must_be_finite_and_positive(self, problem, alpha):
        op, g_obs, prior = problem
        entropy = EntropyPenalty(Signal(op.grid, np.ones(op.grid.n)))
        calls = (
            lambda: solve_generalized_dr(op, g_obs, alpha, QuadraticPenalty(prior)),
            lambda: solve_generalized_dr(op, g_obs, alpha, entropy),
            lambda: bregman_iterate(
                op, g_obs, alpha, QuadraticPenalty(prior), 1, SolverConfig(method="spectral")
            ),
            lambda: spectral_chains(op, g_obs.rfft, alpha, QuadraticPenalty(prior), 1),
            lambda: spectral_chains(op, np.stack([g_obs.rfft] * 3), alpha, QuadraticPenalty(prior),
                                    2),
            lambda: prox_fidelity(op, g_obs, prior, 1.0, alpha),
        )
        for call in calls:
            with pytest.raises(ConfigError, match="alpha"):
                call()

    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("name", ["g_rfft", "prior_rfft"])
    def test_spectral_chain_rejects_a_half_spectrum_of_another_grid(self, monkeypatch, name, rows):
        # n = 64 has 33 half-spectrum modes; a 32-mode array (the data's, of
        # one chain or of a block of 3, or the prior's, on n = 62) is named,
        # not broadcast, before any solve
        grid, other = TorusGrid(64), TorusGrid(62)
        g_grid, prior_grid = (other, grid) if name == "g_rfft" else (grid, other)
        g_rfft = np.fft.rfft(np.ones(g_grid.n))
        prior = Signal(prior_grid, np.zeros(prior_grid.n))
        if rows:
            g_rfft = np.stack([g_rfft] * rows)
        solves = count_calls(monkeypatch, torusreg.solvers, "solve_quadratic_spectral")
        with pytest.raises(GridMismatch, match=f"^{name} must have the operator's 33 half-spectrum modes"):
            spectral_chains(make_inverse_helmholtz(grid), g_rfft, 1e-2, QuadraticPenalty(prior), 2)
        assert not solves

    @pytest.mark.parametrize("data, alpha", [(1e300, 1e-300), (1.0, 5e-324)])
    def test_non_finite_spectral_solve_is_reported_as_not_finite(self, grid, data, alpha):
        # (gamma/alpha) mu g^ overflows, or gamma/alpha itself is inf
        op = make_inverse_helmholtz(grid)
        g_obs = Signal(grid, np.full(grid.n, data))
        penalty = QuadraticPenalty(Signal(grid, np.zeros(grid.n)))
        with pytest.raises(ConfigError, match="half spectrum must be finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            bregman_iterate(op, g_obs, alpha, penalty, 1, SolverConfig(method="spectral"))

    def test_overflowing_step_ratio_stops_at_once(self, grid):
        # gamma / alpha overflows to inf, so the first step is non-finite
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        cfg = SolverConfig(gamma=1e308)
        with pytest.raises(NonConvergence, match="non-finite") as info, np.errstate(invalid="ignore"):
            solve_generalized_dr(op, apply(op, f0), 1e-2, EntropyPenalty(f0), cfg)
        assert info.value.iterations < cfg.max_iter
