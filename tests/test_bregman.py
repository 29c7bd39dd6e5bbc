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
    accumulated_subgradient,
    apply,
    bregman_iterate,
    make_inverse_helmholtz,
    norm_l2,
    solve_generalized_dr,
    step_penalty,
)


from conftest import make_identity, random_signal, spectral_chains, spectral_solve, to_spectrum


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
        reports = bregman_iterate(op, g_obs, 0.5, QuadraticPenalty(prior), 1)
        direct = spectral_solve(op, g_obs, 0.5, prior)
        assert norm_l2(reports[0].minimizer - direct) <= 1e-9 * norm_l2(direct)

    def test_rejects_zero_steps(self, quad_problem):
        op, g_obs, prior = quad_problem
        for n_steps in (0, 2.5, None, True):
            with pytest.raises(ConfigError, match="^n_steps must"):
                bregman_iterate(op, g_obs, 0.5, QuadraticPenalty(prior), n_steps)

    def test_single_mode_recurrence(self, grid):
        # identity symbol, constant data 1, prior 0, alpha 1: f1 = 1/2, f2 = 3/4
        op = make_identity(grid)
        g = Signal(grid, np.ones(grid.n))
        zero = Signal(grid, np.zeros(grid.n))
        reports = bregman_iterate(op, g, 1.0, QuadraticPenalty(zero), 2)
        assert np.max(np.abs(reports[0].minimizer.values - 0.5)) < 1e-8
        assert np.max(np.abs(reports[1].minimizer.values - 0.75)) < 1e-8


class TestBlockChain:
    """``spectral_chain`` on the shift rows of a (rows, n/2 + 1) block runs one chain per row."""

    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1e-6, 0.37])
    def test_block_rows_are_the_one_row_chains(self, quad_problem, rng, steps, alpha):
        op, g_obs, prior = quad_problem
        penalty = QuadraticPenalty(prior)
        rows = np.stack([g_obs.rfft] + [random_signal(op.grid, rng).rfft for _ in range(4)])
        rows.setflags(write=False)
        block = spectral_chains(op, rows, alpha, penalty, steps)
        assert len(block) == steps
        for step in block:
            assert step.shape == rows.shape and step.dtype == complex
        for i, g_rfft in enumerate(rows):
            one = spectral_chains(op, g_rfft, alpha, penalty, steps)
            assert [c.shape for c in one] == [g_rfft.shape] * steps
            for a, b in zip(block, one, strict=True):
                assert a[i].tobytes() == b.tobytes()
        # a block of one row is the one-row chain too
        one = spectral_chains(op, g_obs.rfft, alpha, penalty, steps)
        single = spectral_chains(op, g_obs.rfft[None], alpha, penalty, steps)
        assert [a[0].tobytes() for a in single] == [b.tobytes() for b in one]


class TestFilterFormula:
    @pytest.mark.parametrize("alpha", [0.01, 0.5, 10.0])
    def test_spectral_chain_matches_filter_every_mode(self, quad_problem, alpha):
        op, g_obs, prior = quad_problem
        reports = bregman_iterate(
            op, g_obs, alpha, QuadraticPenalty(prior), 8, SolverConfig(method="spectral")
        )
        for n, r in enumerate(reports, start=1):
            expected = iterated_tikhonov_filter(op, g_obs, prior, alpha, n)
            got = to_spectrum(r.minimizer)
            assert np.max(np.abs(got - expected)) <= 1e-10 * max(1.0, np.max(np.abs(expected)))

    def test_dr_chain_matches_filter(self, quad_problem):
        op, g_obs, prior = quad_problem
        alpha = 0.1
        reports = bregman_iterate(
            op, g_obs, alpha, QuadraticPenalty(prior), 4, SolverConfig(tol=1e-12)
        )
        for n, r in enumerate(reports, start=1):
            expected = iterated_tikhonov_filter(op, g_obs, prior, alpha, n)
            got = to_spectrum(r.minimizer)
            assert np.max(np.abs(got - expected)) <= 1e-8 * max(1.0, np.max(np.abs(expected)))


class TestDualBookkeeping:
    def test_dual_kkt_for_quadratic_step(self, quad_problem):
        # at the exact step minimizer, T* p_n equals the step penalty gradient
        op, g_obs, prior = quad_problem
        alpha = 0.7
        reports = bregman_iterate(
            op, g_obs, alpha, QuadraticPenalty(prior), 3, SolverConfig(method="spectral")
        )
        previous = prior
        for r in reports:
            lhs = apply(op, r.dual)
            rhs = r.minimizer - previous
            assert norm_l2(lhs - rhs) <= 1e-8
            previous = r.minimizer

    def test_chain_dual_matches_extremal_relation(self, grid):
        op = make_inverse_helmholtz(grid)
        pen = EntropyPenalty(Signal(grid, np.ones(grid.n)), 0.0, 5.0)
        g = apply(op, Signal(grid, 1.0 + 0.4 * np.cos(2 * np.pi * grid.points)))
        alpha = 1e-2
        for r in bregman_iterate(op, g, alpha, pen, 2):
            expected = (1.0 / alpha) * (g - apply(op, r.minimizer))
            assert np.max(np.abs(r.dual.values - expected.values)) <= 1e-12

    def test_accumulated_subgradient_quadratic(self, quad_problem):
        op, g_obs, prior = quad_problem
        reports = bregman_iterate(
            op, g_obs, 1.0, QuadraticPenalty(prior), 4, SolverConfig(method="spectral")
        )
        for n, r in enumerate(reports, 1):
            total = accumulated_subgradient(op, reports[:n])
            assert norm_l2(total - (r.minimizer - prior)) <= 1e-8

    def test_accumulated_subgradient_entropy(self, grid):
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 5.0)
        f_true = Signal(grid, 1.0 + 0.4 * np.cos(2 * np.pi * grid.points))
        g = apply(op, f_true)
        reports = bregman_iterate(op, g, 1e-2, pen, 3, SolverConfig(tol=1e-13))
        for n, r in enumerate(reports, 1):
            expected = np.log(r.minimizer.values / f0.values)
            total = accumulated_subgradient(op, reports[:n])
            assert norm_l2(total - Signal(grid, expected)) <= 1e-6


class TestInvariance:
    """The last step's penalty differs from R by an affine functional, so its
    Bregman distances are R's."""

    def test_quadratic_distance_invariance(self, quad_problem, rng):
        op, g_obs, prior = quad_problem
        pen = QuadraticPenalty(prior)
        reports = bregman_iterate(op, g_obs, 0.5, pen, 3, SolverConfig(method="spectral"))
        last = step_penalty(pen, reports[-1].minimizer)
        grid = g_obs.grid
        for _ in range(50):
            f, base = random_signal(grid, rng), random_signal(grid, rng)
            lhs, rhs = last.bregman(f, base), pen.bregman(f, base)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
            assert abs(rhs - 0.5 * norm_l2(f - base) ** 2) < 1e-12

    def test_entropy_distance_invariance(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 5.0)
        f_true = Signal(grid, 1.0 + 0.3 * np.sin(2 * np.pi * grid.points))
        reports = bregman_iterate(op, apply(op, f_true), 0.1, pen, 2)
        last = step_penalty(pen, reports[-1].minimizer)
        for _ in range(50):
            f = Signal(grid, rng.uniform(0.2, 4.5, grid.n))
            base = Signal(grid, rng.uniform(0.2, 4.5, grid.n))
            lhs, rhs = last.bregman(f, base), pen.bregman(f, base)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_equal_arguments_give_zero(self, quad_problem):
        op, g_obs, prior = quad_problem
        pen = QuadraticPenalty(prior)
        reports = bregman_iterate(op, g_obs, 0.5, pen, 1, SolverConfig(method="spectral"))
        f = prior
        lhs, rhs = step_penalty(pen, reports[-1].minimizer).bregman(f, f), pen.bregman(f, f)
        assert lhs == 0.0 and rhs == 0.0


class TestMonotonicityAndWarnings:
    def test_discrepancy_monotone_quadratic(self, quad_problem):
        op, g_obs, prior = quad_problem
        reports = bregman_iterate(
            op, g_obs, 0.2, QuadraticPenalty(prior), 6, SolverConfig(method="spectral")
        )
        residuals = [norm_l2(apply(op, r.minimizer) - g_obs) for r in reports]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_discrepancy_monotone_entropy(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f0 = Signal(grid, np.ones(grid.n))
        pen = EntropyPenalty(f0, 0.0, 5.0)
        f_true = Signal(grid, 1.0 + 0.4 * np.cos(2 * np.pi * grid.points))
        g_obs = apply(op, f_true) + 0.001 * random_signal(grid, rng)
        reports = bregman_iterate(op, g_obs, 0.05, pen, 4)
        residuals = [norm_l2(apply(op, r.minimizer) - g_obs) for r in reports]
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
            reports = bregman_iterate(
                op, g, alpha, QuadraticPenalty(prior), 2, SolverConfig(method="spectral")
            )
            for n, r in enumerate(reports, start=1):
                errs[n].append(0.5 * norm_l2(r.minimizer - f_true) ** 2)
        slope1 = np.polyfit(np.log(alphas), np.log(errs[1]), 1)[0]
        slope2 = np.polyfit(np.log(alphas), np.log(errs[2]), 1)[0]
        assert slope1 <= 2.1
        assert slope2 > 2.5
