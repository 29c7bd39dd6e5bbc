import numpy as np
import pytest

from torusreg import (
    ConfigError,
    EntropyPenalty,
    NonConvergence,
    QuadraticPenalty,
    Signal,
    SolverConfig,
    TorusGrid,
    Unsupported,
    apply,
    bspline_truth,
    dual_variable,
    make_identity,
    make_inverse_helmholtz,
    norm_l2,
    prox_fidelity,
    solve_generalized_dr,
    solve_quadratic_spectral,
    to_spectrum,
)

from conftest import random_signal


def signal_level_dr(op, g_obs, alpha, penalty, cfg=SolverConfig()):
    """Oracle: the Signal-per-iteration Douglas-Rachford loop, with the
    fidelity prox on the full complex spectrum. Returns (minimizer, iterations)."""
    gamma = cfg.effective_gamma()
    t = gamma / alpha
    mu = np.fft.ifftshift(op.symbol)
    gc = np.fft.fft(g_obs.values)

    def prox_data(x):
        vc = (np.fft.fft(x.values) + t * mu * gc) / (1.0 + t * mu**2)
        return Signal(x.grid, np.fft.ifft(vc).real)

    z = Signal(g_obs.grid, penalty.prior.values.copy())
    u = penalty.prox(z, gamma)
    for it in range(1, cfg.max_iter + 1):
        w = prox_data(2.0 * u - z)
        z_new = z + cfg.relax * (w - u)
        residual = norm_l2(z_new - z) / max(1.0, norm_l2(z))
        z = z_new
        u = penalty.prox(z, gamma)
        if residual <= cfg.tol:
            return u, it
    raise AssertionError("oracle loop did not converge")


@pytest.fixture
def problem(grid, rng):
    op = make_inverse_helmholtz(grid)
    prior = Signal(grid, rng.standard_normal(grid.n))
    g_obs = Signal(grid, rng.standard_normal(grid.n))
    return op, g_obs, prior


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.effective_gamma() == 1.0
        assert cfg.relax == 1.0 and cfg.max_iter == 20000 and cfg.tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": -1.0},
            {"relax": 0.0},
            {"relax": 2.5},
            {"max_iter": 0},
            {"tol": 0.0},
            {"method": "cg"},
            {"gamma": float("inf")},
            {"tol": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            SolverConfig(**kwargs)


class TestSpectralSolver:
    def test_single_mode_normal_equation(self, grid):
        op = make_identity(grid)
        g = Signal(grid, np.ones(grid.n))
        zero = Signal(grid, np.zeros(grid.n))
        out = solve_quadratic_spectral(op, g, 1.0, zero)
        assert np.max(np.abs(out.values - 0.5)) < 1e-14

    def test_large_alpha_returns_prior(self, problem):
        op, g_obs, prior = problem
        out = solve_quadratic_spectral(op, g_obs, 1e14, prior)
        assert np.max(np.abs(out.values - prior.values)) < 1e-10

    def test_small_alpha_recovers_truth_from_exact_data(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f_true = random_signal(grid, rng)
        g = apply(op, f_true)
        out = solve_quadratic_spectral(op, g, 1e-18, f_true * 0.0)
        # mode-wise consistency: f_j -> g_j / mu_j as alpha -> 0
        assert norm_l2(out - f_true) < 1e-6 * norm_l2(f_true)

    def test_mode_wise_optimality(self, problem, rng):
        op, g_obs, prior = problem
        alpha = 0.37
        f = solve_quadratic_spectral(op, g_obs, alpha, prior)
        fc = to_spectrum(f)
        gc = to_spectrum(g_obs)
        pc = to_spectrum(prior)
        residual = op.symbol * (op.symbol * fc - gc) / alpha + (fc - pc)
        assert np.max(np.abs(residual)) < 1e-10


class TestDouglasRachford:
    @pytest.mark.parametrize("alpha", [1e-4, 1e-2, 1.0])
    def test_matches_spectral_on_quadratic(self, problem, alpha):
        op, g_obs, prior = problem
        exact = solve_quadratic_spectral(op, g_obs, alpha, prior)
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
            solve_generalized_dr(
                op, apply(op, f0), 1.0, EntropyPenalty(f0), SolverConfig(method="spectral")
            )

    def test_spectral_method_matches_direct(self, problem):
        op, g_obs, prior = problem
        direct = solve_quadratic_spectral(op, g_obs, 0.3, prior)
        report = solve_generalized_dr(
            op, g_obs, 0.3, QuadraticPenalty(prior), SolverConfig(method="spectral")
        )
        assert np.array_equal(report.minimizer.values, direct.values)
        assert report.iterations == 0

    def test_boundary_touch_reported(self, grid):
        op = make_identity(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 1.5)
        g_obs = Signal(grid, np.full(grid.n, 3.0))  # pushes toward the 1.5 cap
        report = solve_generalized_dr(op, g_obs, 0.01, pen)
        assert report.boundary_touch
        assert np.all(report.minimizer.values <= 1.5 + 1e-15)


class TestArrayCoreMatchesSignalLoop:
    @pytest.fixture
    def data(self, grid):
        op = make_inverse_helmholtz(grid)
        x = grid.points
        f_true = Signal(grid, 1.0 + 0.4 * np.cos(2 * np.pi * x))
        g_obs = apply(op, f_true) + Signal(grid, 1e-3 * np.sin(6 * np.pi * x))
        return op, g_obs

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
        expected = apply(op, report.minimizer) - g_obs
        assert np.array_equal(report.misfit.values, expected.values)


class TestInputChecks:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
    def test_alpha_must_be_finite_and_positive(self, problem, alpha):
        op, g_obs, prior = problem
        entropy = EntropyPenalty(Signal(op.grid, np.ones(op.grid.n)))
        calls = (
            lambda: solve_generalized_dr(op, g_obs, alpha, QuadraticPenalty(prior)),
            lambda: solve_generalized_dr(op, g_obs, alpha, entropy),
            lambda: solve_generalized_dr(
                op, g_obs, alpha, QuadraticPenalty(prior), SolverConfig(method="spectral")
            ),
            lambda: solve_quadratic_spectral(op, g_obs, alpha, prior),
            lambda: prox_fidelity(op, g_obs, prior, 1.0, alpha),
            lambda: dual_variable(op, prior, g_obs, alpha),
        )
        for call in calls:
            with pytest.raises(ConfigError, match="alpha"):
                call()

    def test_overflowing_step_ratio_stops_at_once(self, grid):
        # gamma / alpha overflows to inf, so the first step is non-finite
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        cfg = SolverConfig(gamma=1e308)
        with pytest.raises(NonConvergence, match="non-finite") as info, np.errstate(invalid="ignore"):
            solve_generalized_dr(op, apply(op, f0), 1e-2, EntropyPenalty(f0), cfg)
        assert info.value.iterations < cfg.max_iter
