import warnings

import numpy as np
import pytest

from torusreg import (
    ConfigError,
    EntropyPenalty,
    InteriorityWarning,
    QuadraticPenalty,
    Signal,
    SolverConfig,
    SubgradientUndefined,
    TorusGrid,
    apply,
    bregman_distance_invariance_check,
    bregman_iterate,
    dual_variable,
    make_identity,
    make_inverse_helmholtz,
    norm_l2,
    solve_generalized_dr,
    step_penalty,
    to_spectrum,
)

from conftest import random_signal


def iterated_tikhonov_filter(op, g_obs, prior, alpha, n):
    """Independent oracle: closed-form spectral filter for n iterated steps.

    f_n = g/mu + beta^n (prior - g/mu) with beta = alpha / (mu^2 + alpha).
    """
    mu = op.symbol
    beta = alpha / (mu**2 + alpha)
    gc = to_spectrum(g_obs)
    pc = to_spectrum(prior)
    fix = gc / mu
    return fix + beta**n * (pc - fix)


@pytest.fixture
def quad_problem(grid, rng):
    op = make_inverse_helmholtz(grid)
    prior = Signal(grid, rng.standard_normal(grid.n))
    g_obs = Signal(grid, rng.standard_normal(grid.n))
    return op, g_obs, prior


class TestChainBasics:
    def test_single_step_equals_plain_solve(self, quad_problem):
        op, g_obs, prior = quad_problem
        states = bregman_iterate(op, g_obs, 0.5, QuadraticPenalty(prior), 1)
        from torusreg import solve_quadratic_spectral

        direct = solve_quadratic_spectral(op, g_obs, 0.5, prior)
        assert norm_l2(states[0].iterate - direct) <= 1e-9 * norm_l2(direct)

    def test_rejects_zero_steps(self, quad_problem):
        op, g_obs, prior = quad_problem
        with pytest.raises(ConfigError):
            bregman_iterate(op, g_obs, 0.5, QuadraticPenalty(prior), 0)

    def test_single_mode_recurrence(self, grid):
        # identity symbol, constant data 1, prior 0, alpha 1: f1 = 1/2, f2 = 3/4
        op = make_identity(grid)
        g = Signal(grid, np.ones(grid.n))
        zero = Signal(grid, np.zeros(grid.n))
        states = bregman_iterate(op, g, 1.0, QuadraticPenalty(zero), 2)
        assert np.max(np.abs(states[0].iterate.values - 0.5)) < 1e-8
        assert np.max(np.abs(states[1].iterate.values - 0.75)) < 1e-8


class TestFilterFormula:
    @pytest.mark.parametrize("alpha", [0.01, 0.5, 10.0])
    def test_spectral_chain_matches_filter_every_mode(self, quad_problem, alpha):
        op, g_obs, prior = quad_problem
        states = bregman_iterate(
            op, g_obs, alpha, QuadraticPenalty(prior), 8, SolverConfig(method="spectral")
        )
        for n, st in enumerate(states, start=1):
            expected = iterated_tikhonov_filter(op, g_obs, prior, alpha, n)
            got = to_spectrum(st.iterate)
            assert np.max(np.abs(got - expected)) <= 1e-10 * max(1.0, np.max(np.abs(expected)))

    def test_dr_chain_matches_filter(self, quad_problem):
        op, g_obs, prior = quad_problem
        alpha = 0.1
        states = bregman_iterate(
            op, g_obs, alpha, QuadraticPenalty(prior), 4, SolverConfig(tol=1e-12)
        )
        for n, st in enumerate(states, start=1):
            expected = iterated_tikhonov_filter(op, g_obs, prior, alpha, n)
            got = to_spectrum(st.iterate)
            assert np.max(np.abs(got - expected)) <= 1e-8 * max(1.0, np.max(np.abs(expected)))


class TestDualBookkeeping:
    def test_dual_zero_at_exact_fit(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f = random_signal(grid, rng)
        g = apply(op, f)
        p = dual_variable(op, f, g, 0.3)
        assert norm_l2(p) < 1e-12

    def test_dual_scales_inversely_with_alpha(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f, g = random_signal(grid, rng), random_signal(grid, rng)
        p1 = dual_variable(op, f, g, 1.0)
        p2 = dual_variable(op, f, g, 2.0)
        assert np.max(np.abs(p1.values - 2.0 * p2.values)) < 1e-12

    def test_dual_kkt_for_quadratic_step(self, quad_problem):
        # at the exact step minimizer, T* p_n equals the step penalty gradient
        op, g_obs, prior = quad_problem
        alpha = 0.7
        states = bregman_iterate(
            op, g_obs, alpha, QuadraticPenalty(prior), 3, SolverConfig(method="spectral")
        )
        previous = prior
        for st in states:
            lhs = apply(op, st.dual)
            rhs = st.iterate - previous
            assert norm_l2(lhs - rhs) <= 1e-8
            previous = st.iterate

    def test_chain_dual_matches_dual_variable(self, grid):
        op = make_inverse_helmholtz(grid)
        pen = EntropyPenalty(Signal(grid, np.ones(grid.n)), 0.0, 5.0)
        g = apply(op, Signal(grid, 1.0 + 0.4 * np.cos(2 * np.pi * grid.points)))
        alpha = 1e-2
        for st in bregman_iterate(op, g, alpha, pen, 2):
            expected = dual_variable(op, st.iterate, g, alpha)
            assert np.max(np.abs(st.dual.values - expected.values)) <= 1e-12

    def test_accumulated_subgradient_quadratic(self, quad_problem):
        op, g_obs, prior = quad_problem
        states = bregman_iterate(
            op, g_obs, 1.0, QuadraticPenalty(prior), 4, SolverConfig(method="spectral")
        )
        for st in states:
            assert norm_l2(st.accumulated_subgradient - (st.iterate - prior)) <= 1e-8

    def test_accumulated_subgradient_entropy(self, grid):
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 5.0)
        f_true = Signal(grid, 1.0 + 0.4 * np.cos(2 * np.pi * grid.points))
        g = apply(op, f_true)
        states = bregman_iterate(op, g, 1e-2, pen, 3, SolverConfig(tol=1e-13))
        for st in states:
            expected = np.log(st.iterate.values / f0.values)
            assert norm_l2(st.accumulated_subgradient - Signal(grid, expected)) <= 1e-6


class TestInvariance:
    def test_quadratic_distance_invariance(self, quad_problem, rng):
        op, g_obs, prior = quad_problem
        pen = QuadraticPenalty(prior)
        states = bregman_iterate(op, g_obs, 0.5, pen, 3, SolverConfig(method="spectral"))
        grid = g_obs.grid
        for _ in range(50):
            f, base = random_signal(grid, rng), random_signal(grid, rng)
            lhs, rhs = bregman_distance_invariance_check(pen, states, f, base)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
            assert abs(rhs - 0.5 * norm_l2(f - base) ** 2) < 1e-12

    def test_entropy_distance_invariance(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 5.0)
        f_true = Signal(grid, 1.0 + 0.3 * np.sin(2 * np.pi * grid.points))
        states = bregman_iterate(op, apply(op, f_true), 0.1, pen, 2)
        for _ in range(50):
            f = Signal(grid, rng.uniform(0.2, 4.5, grid.n))
            base = Signal(grid, rng.uniform(0.2, 4.5, grid.n))
            lhs, rhs = bregman_distance_invariance_check(pen, states, f, base)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_equal_arguments_give_zero(self, quad_problem):
        op, g_obs, prior = quad_problem
        pen = QuadraticPenalty(prior)
        states = bregman_iterate(op, g_obs, 0.5, pen, 1, SolverConfig(method="spectral"))
        f = prior
        lhs, rhs = bregman_distance_invariance_check(pen, states, f, f)
        assert lhs == 0.0 and rhs == 0.0


class TestMonotonicityAndWarnings:
    def test_discrepancy_monotone_quadratic(self, quad_problem):
        op, g_obs, prior = quad_problem
        states = bregman_iterate(
            op, g_obs, 0.2, QuadraticPenalty(prior), 6, SolverConfig(method="spectral")
        )
        residuals = [norm_l2(apply(op, st.iterate) - g_obs) for st in states]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_discrepancy_monotone_entropy(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 5.0)
        f_true = Signal(grid, 1.0 + 0.4 * np.cos(2 * np.pi * grid.points))
        g_obs = apply(op, f_true) + 0.001 * random_signal(grid, rng)
        states = bregman_iterate(op, g_obs, 0.05, pen, 4)
        residuals = [norm_l2(apply(op, st.iterate) - g_obs) for st in states]
        assert all(b <= a + 1e-10 for a, b in zip(residuals, residuals[1:]))

    def test_interiority_warning_near_box(self, grid):
        op = make_identity(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 1.5)
        g_obs = Signal(grid, np.full(grid.n, 3.0))  # first iterate pins at 1.5
        with pytest.warns(InteriorityWarning):
            bregman_iterate(op, g_obs, 0.01, pen, 2)

    @pytest.mark.parametrize("level, touches", [(3.0, True), (1.2, False)])
    def test_warning_follows_previous_boundary_touch(self, grid, level, touches):
        # the chain above (level 3 pins every iterate at the 1.5 cap), and one
        # that stays inside the box: step n warns exactly when step n - 1's
        # report flags a boundary touch
        op = make_identity(grid)
        pen = EntropyPenalty(Signal(grid, np.ones(grid.n)), 0.0, 1.5)
        g_obs = Signal(grid, np.full(grid.n, level))
        previous = report = None
        flags = []
        for _ in range(3):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                current = step_penalty(pen, previous)
            warned = [w for w in caught if issubclass(w.category, InteriorityWarning)]
            assert len(warned) == len(caught) == int(report is not None and report.boundary_touch)
            report = solve_generalized_dr(op, g_obs, 0.01, current)
            flags.append(report.boundary_touch)
            previous = report.minimizer
        assert flags == [touches] * 3

    def test_zero_touching_iterate_rejected(self, grid):
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 5.0)
        touching = np.ones(grid.n)
        touching[3] = 0.0
        with pytest.raises(SubgradientUndefined):
            step_penalty(pen, Signal(grid, touching))


class TestSaturation:
    def test_second_step_beats_first_on_smooth_source(self):
        # truth in the range of (T*T)^{3/2}: exact-data error ~ alpha^2 for
        # one step (saturation) but ~ alpha^3 for two steps, measured on the
        # penalty-native squared error
        grid = TorusGrid(256)
        j = grid.modes
        from torusreg import FourierMultiplierOperator

        op = FourierMultiplierOperator(grid, (1.0 + j.astype(float) ** 2) ** -0.5, 1.0)
        rng = np.random.default_rng(7)
        from conftest import band_limited_signal
        from torusreg import power_apply

        w = band_limited_signal(grid, rng, band=100)
        f_true = power_apply(op, 1.5, w)
        g = apply(op, f_true)
        prior = Signal(grid, np.zeros(grid.n))
        alphas = np.geomspace(1e-2, 1e-4, 9)
        errs = {1: [], 2: []}
        for alpha in alphas:
            states = bregman_iterate(
                op, g, alpha, QuadraticPenalty(prior), 2, SolverConfig(method="spectral")
            )
            for n, st in enumerate(states, start=1):
                errs[n].append(0.5 * norm_l2(st.iterate - f_true) ** 2)
        slope1 = np.polyfit(np.log(alphas), np.log(errs[1]), 1)[0]
        slope2 = np.polyfit(np.log(alphas), np.log(errs[2]), 1)[0]
        assert slope1 <= 2.1
        assert slope2 > 2.5
