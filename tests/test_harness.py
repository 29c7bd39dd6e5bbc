import concurrent.futures
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import torusreg.bregman
import torusreg.harness
import torusreg.solvers

from torusreg import (
    ConfigError,
    ExperimentConfig,
    InsufficientData,
    NoiseModel,
    NonPositiveError,
    Problem,
    ProblemConfig,
    QuadraticPenalty,
    Signal,
    SolverConfig,
    SweepConfig,
    SweepRow,
    TorusGrid,
    Unsupported,
    apply,
    apriori_alpha,
    approx_error_sweep,
    bregman_iterate,
    build_problem,
    bspline_truth,
    calibrate_c,
    fit_rate,
    geometric_grid,
    load_config,
    make_inverse_helmholtz,
    norm_l2,
    rate_sweep,
    to_spectrum,
    worst_case_search,
)

from torusreg.harness import _BLOCK_ROWS, _sinusoids, _unit_sinusoids

from conftest import (
    band_limited_signal, count_calls, count_ffts, per_candidate_search, sinusoid_noise,
    spectral_solve,
)


def quad_problem(n=128, seed=5, band=10):
    grid = TorusGrid(n)
    op = make_inverse_helmholtz(grid)
    rng = np.random.default_rng(seed)
    f_true = band_limited_signal(grid, rng, band)
    prior = Signal(grid, np.zeros(grid.n))
    return Problem(grid, op, QuadraticPenalty(prior), f_true, apply(op, f_true))


def tikhonov_error_oracle(problem, delta, k, alpha):
    """Closed form: 1/2 ||f_alpha(g + noise) - f_true||^2, mode by mode."""
    op, grid = problem.op, problem.grid
    mu = op.symbol
    g = problem.g_true + sinusoid_noise(grid, delta, k)
    gc = to_spectrum(g)
    fc = mu * gc / (mu**2 + alpha)
    tc = to_spectrum(problem.f_true)
    return 0.5 * float(np.sum(np.abs(fc - tc) ** 2))


class TestConfigs:
    def test_deltas_must_decrease(self):
        with pytest.raises(ConfigError, match=r"deltas .*got \(0\.001, 0\.01\)"):
            SweepConfig(deltas=(1e-3, 1e-2))
        with pytest.raises(ConfigError, match=r"deltas .*got \(\)"):
            SweepConfig(deltas=())

    def test_deltas_must_be_positive(self):
        with pytest.raises(ConfigError, match=r"deltas .*got \(0\.01, 0\.0\)"):
            SweepConfig(deltas=(1e-2, 0.0))
        with pytest.raises(ConfigError, match="deltas"):
            SweepConfig(deltas=(1e-2, float("nan"), 1e-4))

    def test_alpha_c_must_be_finite_and_positive(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="alpha_c"):
                SweepConfig(alpha_c=bad)

    def test_alphas_must_be_finite_and_positive(self):
        for bad in ((-1.0,), (1e-2, 0.0), (float("nan"),), (1e-2, float("inf"))):
            with pytest.raises(ConfigError, match="alphas"):
                SweepConfig(alphas=bad)

    def test_calibrate_cs_must_be_finite_and_positive(self):
        for bad in ((-1.0,), (1e-2, 0.0), (float("nan"),), (1e-2, float("inf"))):
            with pytest.raises(ConfigError, match="calibrate_cs"):
                SweepConfig(calibrate_cs=bad)
            with pytest.raises(ConfigError, match="calibrate_cs"):
                calibrate_c(ExperimentConfig(sweep=SweepConfig(predicted_rate=1.0)), bad)

    def test_prior_value_must_be_finite_and_positive(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="prior_value"):
                ProblemConfig(prior_value=bad)

    def test_predicted_rate_must_be_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="predicted_rate"):
                SweepConfig(predicted_rate=bad)

    def test_sigma_range(self):
        for bad in (2.5, 0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError, match="alpha_sigma"):
                SweepConfig(alpha_sigma=bad)

    @pytest.mark.parametrize("name", ["k_max", "k_fixed"])
    def test_noise_frequencies_at_least_one(self, name):
        for bad in (0, -3):
            with pytest.raises(ConfigError, match=rf"{name} must be >= 1, got {bad}"):
                NoiseModel(**{name: bad})

    def test_noise_kind(self):
        with pytest.raises(ConfigError):
            NoiseModel(kind="gaussian")

    def test_geometric_grid(self):
        g = geometric_grid(1e-1, 1e-4, 12)
        assert len(g) == 12
        assert g[0] == pytest.approx(1e-1) and g[-1] == pytest.approx(1e-4)
        assert all(b < a for a, b in zip(g, g[1:]))
        for name, args in (("top", (np.inf, 1e-3, 3)), ("top", (np.nan, 1e-3, 3)),
                           ("top", (None, 1e-2, 3)), ("top", (True, 1e-2, 3)),
                           ("bottom", (1e-1, np.nan, 3)), ("bottom", (1e-1, 0.0, 3)),
                           ("bottom", (1e-1, "1e-2", 3)),
                           ("count", (1e-1, 1e-3, 1)), ("count", (1e-1, 1e-2, 2.5)),
                           ("count", (1e-1, 1e-2, None))):
            with pytest.raises(ConfigError, match=f"^{name} "):
                geometric_grid(*args)
        # a caller may name the arguments, as load_config names them by its keys
        names = ("hi", "lo", "steps")
        for message, args in (("hi must be finite and positive, got -1.0", (-1.0, 1e-3, 3)),
                              ("lo must lie in (0, hi = 0.1), got 0.5", (1e-1, 0.5, 3)),
                              ("steps must be >= 2, got 1", (1e-1, 1e-3, 1))):
            with pytest.raises(ConfigError) as caught:
                geometric_grid(*args, names=names)
            assert str(caught.value) == message

    def test_row_validation(self):
        with pytest.raises(ConfigError):
            SweepRow(1.0, 1.0, 0, 1, -1.0, 0.0, 0.0, 0)


class TestAprioriAlpha:
    def test_unit_case(self):
        assert apriori_alpha(1.0, 1.0, 8.0 / 15.0) == 1.0

    def test_entropy_rule_exponent(self):
        from torusreg import predict_rate_entropy

        sigma = predict_rate_entropy(5.5, 2.0).alpha_exponent
        assert abs(sigma - 8.0 / 15.0) < 1e-15
        assert abs(apriori_alpha(0.5, 1.0, sigma) - 0.5**sigma) < 1e-16

    def test_linear_homogeneity(self):
        assert abs(apriori_alpha(0.5, 2.0, 1.0) - 2.0 * apriori_alpha(0.5, 1.0, 1.0)) < 1e-16

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            apriori_alpha(0.0, 1.0, 1.0)
        for name, args in (("delta", (np.nan, 1.0, 0.5)), ("delta", (np.inf, 1.0, 0.5)),
                           ("c", (0.1, np.inf, 0.5)), ("c", (0.1, np.nan, 0.5)),
                           ("sigma", (0.1, 1.0, np.nan)), ("c", (0.1, None, 0.5)),
                           ("delta", ("0.1", 1.0, 0.5)), ("sigma", (0.1, 1.0, True))):
            with pytest.raises(ConfigError, match=f"^{name} must be"):
                apriori_alpha(*args)


def search_config(steps=1, metric="kl", **noise):
    """Spectral solves; the noise model defaults to the worst case over k = 1..32."""
    return ExperimentConfig(
        solver=SolverConfig(method="spectral"),
        sweep=SweepConfig(bregman_steps=steps, metric=metric, noise=NoiseModel(**noise)),
    )


def blocks(k_max):
    """The number of candidate blocks a search over k = 1..k_max walks."""
    return -(-k_max // _BLOCK_ROWS)


class TestWorstCaseNoise:
    def test_zero_delta_ties_to_first_candidate(self):
        # every candidate ties; across blocks the tie goes to the earlier block
        problem, k_max = quad_problem(), 40
        assert blocks(k_max) > 1
        for choice in worst_case_search(search_config(steps=2, k_max=k_max), problem, 0.0, 0.1):
            assert choice.k == 1
            assert np.array_equal(choice.g_obs.values, problem.g_true.values)

    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_exact_data_are_a_row_of_samples(self, delta):
        # like every candidate, the exact data carry the rfft of their
        # samples, not the mu f^ that g_true keeps
        problem = quad_problem()
        for choice in worst_case_search(search_config(steps=2, kind="exact"), problem, delta, 0.1):
            assert choice.k == 0
            assert np.array_equal(choice.g_obs.values, problem.g_true.values)
            assert np.array_equal(choice.g_obs.rfft, np.fft.rfft(problem.g_true.values))

    def test_matches_brute_force_oracle(self):
        problem = quad_problem()
        alpha, delta, k_max = 1e-3, 1e-2, 16
        [choice] = worst_case_search(search_config(k_max=k_max), problem, delta, alpha)
        oracle = [tikhonov_error_oracle(problem, delta, k, alpha) for k in range(1, k_max + 1)]
        assert choice.k == 1 + int(np.argmax(oracle))
        assert choice.metrics[0] == pytest.approx(max(oracle), rel=1e-8)

    def test_selected_error_dominates_all_candidates(self):
        problem = quad_problem()
        alpha, delta, k_max = 1e-2, 5e-2, 12

        def evaluator(g_obs):
            return spectral_solve(problem.op, g_obs, alpha, problem.penalty.prior)

        [choice] = worst_case_search(search_config(k_max=k_max), problem, delta, alpha)
        best = problem.penalty.bregman(evaluator(choice.g_obs), problem.f_true)
        for k in range(1, k_max + 1):
            candidate = problem.g_true + sinusoid_noise(problem.grid, delta, k)
            err = problem.penalty.bregman(evaluator(candidate), problem.f_true)
            assert err <= best + 1e-15

    def test_sinusoids_are_the_formula_in_a_block_of_their_own(self):
        grid = TorusGrid(64)
        for delta in (1e-2, 3e-5, 1e-2):
            for ks in ([0], [5], range(1, 32)):
                block = _sinusoids(grid, delta, ks)
                fresh = np.multiply.outer(2.0 * np.pi * np.asarray(ks), grid.points)
                assert np.array_equal(block, np.sin(fresh) * delta)
                table = _unit_sinusoids(grid, tuple(ks))
                assert not table.flags.writeable
                assert block.flags.writeable and not np.shares_memory(block, table)
                # a search's block of rows is the same product on a slice of the table
                rows = slice(16, 32)
                assert np.array_equal(_sinusoids(grid, delta, ks, rows), np.sin(fresh[rows]) * delta)

    def test_noise_within_ball(self):
        grid = TorusGrid(64)
        noise = sinusoid_noise(grid, 0.3, 5)
        assert norm_l2(noise) <= 0.3 + 1e-12
        assert abs(norm_l2(noise) - 0.3 / np.sqrt(2.0)) < 1e-12

    def test_k_max_bounds(self):
        problem = quad_problem()
        n = problem.grid.n
        for k_max in (n // 2, n):
            with pytest.raises(ConfigError, match="k_max"):
                worst_case_search(search_config(k_max=k_max), problem, 0.1, 0.1)
        assert len(worst_case_search(search_config(k_max=n // 2 - 1), problem, 0.1, 0.1)) == 1

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigError, match="delta"):
            worst_case_search(search_config(k_max=4), quad_problem(), -1e-3, 0.1)


    def test_spectral_search_fft_budget(self, monkeypatch):
        # one batched rfft per candidate block, and one irfft per step for the
        # samples of the selected minimizer, which its l1 error reads: kl and
        # the data residual come from half spectra by Parseval
        problem = quad_problem()
        problem.penalty.prior.rfft, problem.f_true.rfft, problem.g_true.values  # once per problem
        steps, k_max = 2, 40
        assert blocks(k_max) > 1 and k_max % _BLOCK_ROWS  # a partial last block
        counts = count_ffts(monkeypatch)
        worst_case_search(search_config(steps=steps, k_max=k_max), problem, 1e-2, 1e-2)
        assert counts == {"rfft": blocks(k_max), "irfft": steps}

    def test_spectral_search_fft_budget_l1(self, monkeypatch):
        # selecting by l1 reads the samples of every candidate's minimizers:
        # one irfft per block and step, of all the block's chains at once
        problem = quad_problem()
        problem.penalty.prior.rfft, problem.f_true.rfft, problem.g_true.values  # once per problem
        steps, k_max = 2, 40
        assert blocks(k_max) > 1 and k_max % _BLOCK_ROWS
        counts = count_ffts(monkeypatch)
        worst_case_search(search_config(steps=steps, k_max=k_max, metric="l1"), problem, 1e-2, 1e-2)
        assert counts == {"rfft": blocks(k_max), "irfft": blocks(k_max) * steps}


class TestSearchMatchesPerCandidateLoop:
    """worst_case_search against the per-candidate loop of conftest: the same
    choice, chain, l1, residual and iterations per step; kl alike on entropy
    and within round-off on the quadratic route, where it comes by Parseval."""

    @pytest.mark.parametrize("metric", ["kl", "l1"])
    @pytest.mark.parametrize("route", ["spectral_quadratic", "dr_entropy"])
    @pytest.mark.parametrize("noise", [
        {"k_max": 12}, {"kind": "fixed_sinusoid", "k_fixed": 5}, {"kind": "exact"},
    ])
    def test_choices_match(self, route, metric, noise):
        self.check(route, metric, noise)

    @pytest.mark.parametrize("metric", ["kl", "l1"])
    @pytest.mark.parametrize("route, k_max", [("spectral_quadratic", 40), ("dr_entropy", 20)])
    def test_choices_match_across_blocks(self, route, metric, k_max):
        # several blocks and a partial last one
        assert blocks(k_max) > 1 and k_max % _BLOCK_ROWS
        self.check(route, metric, {"k_max": k_max})

    @pytest.mark.parametrize("metric", ["kl", "l1"])
    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("k_max", [12, 40])
    def test_spectral_choices_match_at_one_and_three_steps(self, metric, steps, k_max):
        # a block's chains run as one stack per step, whatever the step count
        self.check("spectral_quadratic", metric, {"k_max": k_max}, steps)

    @pytest.mark.parametrize("metric", ["kl", "l1"])
    def test_spectral_choices_match_in_one_full_block(self, metric):
        assert blocks(_BLOCK_ROWS) == 1
        self.check("spectral_quadratic", metric, {"k_max": _BLOCK_ROWS})

    @staticmethod
    def check(route, metric, noise, steps=2):
        if route == "spectral_quadratic":
            problem, solver, kl_rtol = quad_problem(), SolverConfig(method="spectral"), 1e-14
        else:
            problem, solver, kl_rtol = build_problem(ProblemConfig(n=64)), SolverConfig(), 0.0
        config = ExperimentConfig(
            solver=solver,
            sweep=SweepConfig(bregman_steps=steps, metric=metric, noise=NoiseModel(**noise)))
        for delta in (1e-1, 1e-3):
            alpha = apriori_alpha(delta, 1e-2, 8.0 / 15.0)
            got = worst_case_search(config, problem, delta, alpha)
            want = per_candidate_search(config, problem, delta, alpha)
            assert len(got) == len(want) == steps
            for g, w in zip(got, want):
                assert g.k == w.k
                assert np.array_equal(g.g_obs.values, w.g_obs.values)
                assert [type(m) for m in g.metrics] == [float, float, float, int]
                assert g.metrics[1:] == w.metrics[1:]
                assert abs(g.metrics[0] - w.metrics[0]) <= kl_rtol * w.metrics[0]
                for a, b in zip(g.reports, w.reports):
                    assert np.array_equal(a.minimizer.values, b.minimizer.values)


NOISE_KINDS = [
    ({"k_max": 6}, 6), ({"kind": "fixed_sinusoid", "k_fixed": 5}, 1), ({"kind": "exact"}, 1),
]


class TestSolveCount:
    """A worst-case search makes exactly one solve per (candidate, Bregman
    step), each a call of a name the benchmark's tracer counts: the spectral
    solve, looked up on ``torusreg.solvers``, or the DR solve, looked up on
    ``torusreg.bregman``. The spectral solve runs on half spectra and no
    longer calls the Signal-level fidelity prox."""

    @pytest.mark.parametrize("metric", ["kl", "l1"])
    @pytest.mark.parametrize("noise, K", NOISE_KINDS)
    def test_spectral_route(self, monkeypatch, metric, noise, K):
        steps = 3
        solves = count_calls(monkeypatch, torusreg.solvers, "solve_quadratic_spectral", "prox_fidelity")
        dr = count_calls(monkeypatch, torusreg.bregman, "solve_generalized_dr")
        worst_case_search(search_config(steps=steps, metric=metric, **noise), quad_problem(), 1e-2, 1e-2)
        assert solves["solve_quadratic_spectral"] == K * steps
        assert solves["prox_fidelity"] == 0
        assert not dr

    @pytest.mark.parametrize("metric", ["kl", "l1"])
    @pytest.mark.parametrize("noise, K", NOISE_KINDS)
    def test_dr_route(self, monkeypatch, metric, noise, K):
        steps = 2
        config = ExperimentConfig(
            sweep=SweepConfig(bregman_steps=steps, metric=metric, noise=NoiseModel(**noise)))
        dr = count_calls(monkeypatch, torusreg.bregman, "solve_generalized_dr")
        spectral = count_calls(monkeypatch, torusreg.solvers, "solve_quadratic_spectral")
        worst_case_search(config, build_problem(ProblemConfig(n=64)), 1e-2, 1e-2)
        assert dr == {"solve_generalized_dr": K * steps}
        assert not spectral

    @pytest.mark.parametrize("metric", ["kl", "l1"])
    def test_spectral_search_forms_the_shift_once_per_block(self, monkeypatch, metric):
        # t mu g^ is formed for a block's chains at once: 3 blocks at k_max = 40,
        # not one product per (candidate, step)
        steps, k_max = 2, 40
        shifts = [count_calls(monkeypatch, module, "_fidelity_prox_constants")
                  for module in (torusreg.bregman, torusreg.solvers)
                  if hasattr(module, "_fidelity_prox_constants")]
        solves = count_calls(monkeypatch, torusreg.solvers, "solve_quadratic_spectral")
        worst_case_search(search_config(steps=steps, metric=metric, k_max=k_max), quad_problem(),
                          1e-2, 1e-2)
        assert blocks(k_max) == 3
        assert solves["solve_quadratic_spectral"] == k_max * steps
        assert sum(shifts, Counter()) == {"_fidelity_prox_constants": blocks(k_max)}

    @pytest.mark.parametrize("steps", [1, 3])
    def test_spectral_bregman_iterate(self, monkeypatch, steps):
        # bregman_iterate's spectral chain is the search's: one closed-form solve per step
        problem = quad_problem()
        spectral = count_calls(monkeypatch, torusreg.solvers, "solve_quadratic_spectral")
        dr = count_calls(monkeypatch, torusreg.bregman, "solve_generalized_dr")
        reports = bregman_iterate(problem.op, problem.g_true, 1e-2, problem.penalty, steps,
                                  SolverConfig(method="spectral"))
        assert len(reports) == steps
        assert spectral == {"solve_quadratic_spectral": steps}
        assert not dr


class TestSpectralRoute:
    @pytest.mark.parametrize("metric", ["kl", "l1"])
    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_reports_are_bregman_iterate_on_the_chosen_data(self, metric, delta):
        problem, steps, alpha = quad_problem(), 3, 1e-2
        config = search_config(steps=steps, metric=metric, k_max=8)
        choices = worst_case_search(config, problem, delta, alpha)
        for choice in choices:
            want = bregman_iterate(problem.op, choice.g_obs, alpha, problem.penalty, steps,
                                   SolverConfig(method="spectral"))
            assert len(choice.reports) == steps
            for got, ref in zip(choice.reports, want):
                assert np.array_equal(got.minimizer.values, ref.minimizer.values)
                assert np.array_equal(got.misfit_rfft, ref.misfit_rfft)
                assert np.array_equal(got.penalty.prior.values, ref.penalty.prior.values)
                assert type(got.penalty) is type(ref.penalty)
                assert got.iterations == ref.iterations == 0
                assert got.final_residual == ref.final_residual == 0.0
                assert got.alpha == ref.alpha == alpha
                assert got.boundary_touch is ref.boundary_touch is False
                assert got.data_residual == ref.data_residual
        # a chain selected at several steps is one report list
        for a, b in zip(choices, choices[1:]):
            assert (a.reports is b.reports) == (a.k == b.k)
        if delta == 0.0:  # every candidate ties: the first is selected at every step
            assert all(c.k == 1 and c.reports is choices[0].reports for c in choices)

    @pytest.mark.parametrize("metric", ["kl", "l1"])
    @pytest.mark.parametrize("data, alpha", [(1e300, 1e-300), (1.0, 5e-324)])
    def test_non_finite_search_raises(self, metric, data, alpha):
        # the cases of test_non_finite_spectral_solve_is_reported_as_not_finite:
        # (gamma/alpha) mu g^ overflows, or gamma/alpha itself is inf. Every
        # candidate's score is non-finite; none may be skipped or returned as a row
        grid = TorusGrid(64)
        zero = Signal(grid, np.zeros(grid.n))
        problem = Problem(grid, make_inverse_helmholtz(grid), QuadraticPenalty(zero), zero,
                          Signal(grid, np.full(grid.n, data)))
        for noise in ({"k_max": 4}, {"kind": "exact"}):
            with pytest.raises(ConfigError, match="half spectrum must be finite"), \
                    np.errstate(over="ignore", invalid="ignore"):
                worst_case_search(search_config(steps=2, metric=metric, **noise), problem, 1e-2, alpha)

    @pytest.mark.parametrize("metric", ["kl", "l1"])
    def test_one_non_finite_candidate_is_not_skipped(self, monkeypatch, metric):
        # a NaN score loses every comparison, so a search that tested only the
        # selected chains would drop candidate k = 3 here and return rows
        solve, calls = torusreg.solvers.solve_quadratic_spectral, []

        def nan_on_third_call(*args):
            calls.append(args)
            return solve(*args) * (np.nan if len(calls) == 3 else 1.0)

        monkeypatch.setattr(torusreg.solvers, "solve_quadratic_spectral", nan_on_third_call)
        with pytest.raises(ConfigError, match="half spectrum must be finite: k = 3, step 1"):
            worst_case_search(search_config(steps=1, metric=metric, k_max=8), quad_problem(), 1e-2, 1e-2)

    def test_entropy_penalty_is_unsupported_before_any_solve(self, monkeypatch):
        solves = count_calls(monkeypatch, torusreg.solvers, "solve_quadratic_spectral", "prox_fidelity")
        with pytest.raises(Unsupported, match="spectral solve requires a quadratic penalty"):
            worst_case_search(search_config(steps=2, k_max=4), build_problem(ProblemConfig(n=64)),
                              1e-2, 1e-2)
        assert not solves


class TestApproxErrorSweep:
    def test_row_semantics_and_order(self):
        problem = quad_problem()
        alphas = (1.0, 1e-2, 1e-1)  # deliberately unsorted
        cfg = ExperimentConfig(
            solver=SolverConfig(method="spectral"),
            sweep=SweepConfig(alphas=alphas, bregman_steps=2, noise=NoiseModel(kind="exact")),
        )
        rows = approx_error_sweep(cfg, problem=problem)
        assert [r.alpha for r in rows] == [1.0, 1.0, 1e-2, 1e-2, 1e-1, 1e-1]
        assert all(r.delta == 0.0 and r.k_worst == 0 for r in rows)
        assert [r.n_bregman for r in rows] == [1, 2, 1, 2, 1, 2]

    def test_single_alpha_single_step(self):
        problem = quad_problem()
        cfg = ExperimentConfig(
            solver=SolverConfig(method="spectral"),
            sweep=SweepConfig(alphas=(0.5,), bregman_steps=1, noise=NoiseModel(kind="exact")),
        )
        rows = approx_error_sweep(cfg, problem=problem)
        assert len(rows) == 1

    def test_quadratic_matches_filter_oracle(self):
        problem = quad_problem()
        cfg = ExperimentConfig(
            solver=SolverConfig(method="spectral"),
            sweep=SweepConfig(alphas=(1e-2,), bregman_steps=1, noise=NoiseModel(kind="exact")),
        )
        rows = approx_error_sweep(cfg, problem=problem)
        oracle = tikhonov_error_oracle(problem, 0.0, 1, 1e-2)
        assert abs(rows[0].kl_error - oracle) <= 1e-8 * max(1.0, oracle)

    def test_needs_alphas(self):
        cfg = ExperimentConfig(sweep=SweepConfig(noise=NoiseModel(kind="exact")))
        with pytest.raises(ConfigError):
            approx_error_sweep(cfg, problem=quad_problem())

    def test_bad_alpha_argument_rejected(self):
        cfg = ExperimentConfig(sweep=SweepConfig(noise=NoiseModel(kind="exact")))
        for bad in ([-1.0], [1e-2, float("nan")], [float("inf")]):
            with pytest.raises(ConfigError, match="alphas"):
                approx_error_sweep(cfg, alphas=bad, problem=quad_problem())


class TestRateSweep:
    def test_exact_rows_match_approx_sweep(self):
        problem = quad_problem()
        deltas = geometric_grid(1e-1, 1e-3, 3)
        cfg = ExperimentConfig(
            solver=SolverConfig(method="spectral"),
            sweep=SweepConfig(
                deltas=deltas, alpha_c=0.3, alpha_sigma=1.0, bregman_steps=2,
                noise=NoiseModel(kind="exact"),
            ),
        )
        rows = rate_sweep(cfg, problem=problem)
        alphas = tuple(0.3 * d for d in deltas)
        approx = approx_error_sweep(
            ExperimentConfig(
                solver=SolverConfig(method="spectral"),
                sweep=SweepConfig(alphas=alphas, bregman_steps=2, noise=NoiseModel(kind="exact")),
            ),
            problem=problem,
        )
        for got, ref in zip(rows, approx):
            assert got.kl_error == pytest.approx(ref.kl_error, rel=1e-12)
            assert got.alpha == pytest.approx(ref.alpha, rel=1e-15)

    def test_repeat_in_one_process_gives_identical_rows(self):
        # later runs start with the kept sinusoid table, and on one problem
        # at one alpha with the operator's kept fidelity constants
        cfg = ExperimentConfig(
            problem=ProblemConfig(n=64, penalty="quadratic"),
            solver=SolverConfig(method="spectral"),
            sweep=SweepConfig(deltas=geometric_grid(1e-1, 1e-3, 3), bregman_steps=2,
                              noise=NoiseModel(k_max=8)),
        )
        first = rate_sweep(cfg)
        assert rate_sweep(cfg) == first
        last = replace(cfg, sweep=replace(cfg.sweep, deltas=cfg.sweep.deltas[-1:]))
        problem = build_problem(cfg.problem)
        for _ in range(2):
            assert rate_sweep(last, problem=problem) == first[-2:]

    def test_single_step_matches_closed_form_oracle(self):
        problem = quad_problem()
        cfg = ExperimentConfig(
            solver=SolverConfig(method="spectral"),
            sweep=SweepConfig(
                deltas=geometric_grid(1e-1, 1e-2, 3), alpha_c=0.1, alpha_sigma=1.0,
                bregman_steps=1, noise=NoiseModel(kind="fixed_sinusoid", k_fixed=3),
            ),
        )
        rows = rate_sweep(cfg, problem=problem)
        for row in rows:
            oracle = tikhonov_error_oracle(problem, row.delta, 3, row.alpha)
            assert abs(row.kl_error - oracle) <= 1e-8 * max(1.0, oracle)

    def test_data_residual_beats_prior(self):
        problem = quad_problem()
        cfg = ExperimentConfig(
            solver=SolverConfig(method="spectral"),
            sweep=SweepConfig(
                deltas=geometric_grid(1e-1, 1e-2, 3), alpha_c=1.0, alpha_sigma=1.0,
                bregman_steps=2, noise=NoiseModel(kind="worst_case", k_max=8),
            ),
        )
        rows = rate_sweep(cfg, problem=problem)
        for row in rows:
            g_obs = problem.g_true + sinusoid_noise(problem.grid, row.delta, row.k_worst)
            prior_residual = norm_l2(apply(problem.op, problem.penalty.prior) - g_obs)
            assert row.data_residual <= prior_residual + 1e-12

    def test_worst_case_beats_fixed_k(self):
        problem = quad_problem()
        base = SweepConfig(
            deltas=geometric_grid(1e-1, 1e-2, 2), alpha_c=0.03, alpha_sigma=1.0,
            bregman_steps=2, noise=NoiseModel(kind="worst_case", k_max=12),
        )
        cfg = ExperimentConfig(solver=SolverConfig(method="spectral"), sweep=base)
        worst_rows = rate_sweep(cfg, problem=problem)
        for k in (1, 4, 9):
            fixed = replace(base, noise=NoiseModel(kind="fixed_sinusoid", k_fixed=k))
            rows_k = rate_sweep(
                ExperimentConfig(solver=SolverConfig(method="spectral"), sweep=fixed),
                problem=problem,
            )
            for wr, fr in zip(worst_rows, rows_k):
                assert wr.kl_error >= fr.kl_error - 1e-15

    def test_k_max_beyond_nyquist_rejected(self):
        problem = quad_problem(n=64)
        cfg = ExperimentConfig(
            solver=SolverConfig(method="spectral"),
            sweep=SweepConfig(
                deltas=geometric_grid(1e-1, 1e-2, 3), bregman_steps=1,
                noise=NoiseModel(kind="worst_case", k_max=problem.grid.n // 2),
            ),
        )
        with pytest.raises(ConfigError, match="k_max"):
            rate_sweep(cfg, problem=problem)

    def test_k_fixed_outside_band_rejected(self):
        # on n points, k = n/2 samples to zero and k = n - 1 aliases to -1
        problem = quad_problem(n=64)

        def config(k):
            return ExperimentConfig(
                solver=SolverConfig(method="spectral"),
                sweep=SweepConfig(
                    deltas=geometric_grid(1e-1, 1e-2, 3), bregman_steps=1,
                    noise=NoiseModel(kind="fixed_sinusoid", k_fixed=k),
                ),
            )

        for k in (problem.grid.n // 2, problem.grid.n - 1):
            with pytest.raises(ConfigError, match="k_fixed"):
                rate_sweep(config(k), problem=problem)
        rows = rate_sweep(config(problem.grid.n // 2 - 1), problem=problem)
        assert all(r.k_worst == problem.grid.n // 2 - 1 for r in rows)

    def test_deterministic_repeat(self):
        problem = quad_problem()
        cfg = ExperimentConfig(
            solver=SolverConfig(method="spectral"),
            sweep=SweepConfig(
                deltas=geometric_grid(1e-1, 1e-2, 3), bregman_steps=2,
                noise=NoiseModel(kind="worst_case", k_max=6),
            ),
        )
        first = rate_sweep(cfg, problem=problem)
        second = rate_sweep(cfg, problem=problem)
        assert first == second

    def test_threads_match_serial(self):
        cfg = ExperimentConfig(
            problem=ProblemConfig(n=96),
            solver=SolverConfig(method="spectral"),
            sweep=SweepConfig(
                deltas=geometric_grid(1e-1, 1e-2, 4), bregman_steps=1,
                noise=NoiseModel(kind="exact"),
            ),
        )
        cfg = ExperimentConfig(
            problem=ProblemConfig(n=96, penalty="quadratic"),
            solver=cfg.solver,
            sweep=cfg.sweep,
        )
        serial = rate_sweep(cfg, threads=1)
        parallel = rate_sweep(cfg, threads=2)
        assert serial == parallel


def exact_quadratic_config(deltas):
    return ExperimentConfig(
        problem=ProblemConfig(n=96, penalty="quadratic"),
        solver=SolverConfig(method="spectral"),
        sweep=SweepConfig(
            deltas=deltas, bregman_steps=1, noise=NoiseModel(kind="exact"),
            predicted_rate=1.0,
        ),
    )


class TestWorkerPool:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Replace the process pool by an in-process one; record its sizes."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return sizes

    def test_capped_at_job_count(self, pool_sizes):
        cfg = exact_quadratic_config((1e-1, 1e-2, 1e-3))
        assert rate_sweep(cfg, threads=64) == rate_sweep(cfg)
        calibrate_c(cfg, (0.1, 1.0), threads=64)
        assert pool_sizes == [3, 2]

    def test_one_job_runs_in_process(self, pool_sizes):
        rate_sweep(exact_quadratic_config((1e-1,)), threads=4)
        assert pool_sizes == []

    def test_threads_must_be_positive(self, pool_sizes):
        cfg = exact_quadratic_config((1e-1, 1e-2, 1e-3))
        for bad in (0, -1):
            with pytest.raises(ConfigError, match="threads"):
                rate_sweep(cfg, threads=bad)
            with pytest.raises(ConfigError, match="threads"):
                calibrate_c(cfg, (0.1, 1.0), threads=bad)
        assert pool_sizes == []

    def test_arguments_checked_by_name(self, pool_sizes):
        cfg = exact_quadratic_config((1e-1, 1e-2, 1e-3))
        search = search_config(k_max=4)
        problem = quad_problem(n=64)
        calls = {
            "threads": (lambda bad: rate_sweep(cfg, threads=bad),
                        lambda bad: calibrate_c(cfg, (0.1, 1.0), threads=bad)),
            "delta": (lambda bad: worst_case_search(search, problem, bad, 0.1),),
        }
        table = (("threads", 2.5), ("threads", None), ("threads", True), ("threads", "2"),
                 ("delta", np.inf), ("delta", np.nan), ("delta", None), ("delta", True))
        for name, bad in table:
            for call in calls[name]:
                with pytest.raises(ConfigError, match=f"^{name} must be"):
                    call(bad)
        assert pool_sizes == []


class TestCalibrateC:
    def test_single_candidate_returned(self):
        cfg = ExperimentConfig(sweep=SweepConfig(predicted_rate=1.0))
        assert calibrate_c(cfg, [0.7]).c == 0.7

    def test_needs_predicted_rate(self):
        cfg = ExperimentConfig()
        with pytest.raises(ConfigError):
            calibrate_c(cfg, [0.5, 1.0])

    def test_matches_exhaustive_grid_oracle(self):
        problem = quad_problem(n=64, band=6)
        sweep = SweepConfig(
            deltas=geometric_grid(1e-2, 1e-4, 4), alpha_sigma=1.0, bregman_steps=1,
            noise=NoiseModel(kind="fixed_sinusoid", k_fixed=2), predicted_rate=1.0,
        )
        cfg = ExperimentConfig(solver=SolverConfig(method="spectral"), sweep=sweep)
        cs = tuple(np.logspace(-3, 1, 9))
        chosen = calibrate_c(cfg, cs, problem=problem).c

        def objective(c):
            worst = 0.0
            for d in sweep.deltas:
                err = tikhonov_error_oracle(problem, d, 2, c * d)
                worst = max(worst, err / d**1.0)
            return worst

        oracle = [objective(c) for c in cs]
        assert chosen == cs[int(np.argmin(oracle))]

    def test_chosen_beats_all_candidates(self):
        problem = quad_problem(n=64, band=6)
        sweep = SweepConfig(
            deltas=geometric_grid(1e-2, 1e-3, 3), alpha_sigma=1.0, bregman_steps=1,
            noise=NoiseModel(kind="fixed_sinusoid", k_fixed=2), predicted_rate=1.0,
        )
        cfg = ExperimentConfig(solver=SolverConfig(method="spectral"), sweep=sweep)
        cs = (0.01, 0.1, 1.0)
        chosen = calibrate_c(cfg, cs, problem=problem).c
        from torusreg.harness import _calibration_objective

        best, _ = _calibration_objective(cfg, chosen, problem)
        for c in cs:
            assert best <= _calibration_objective(cfg, c, problem)[0] + 1e-15


class TestFitRate:
    def test_exact_power_law(self):
        rows = [
            SweepRow(d, 1.0, 0, 1, 3.0 * d**2, 1.0, 0.0, 0) for d in (1.0, 0.5, 0.25, 0.125)
        ]
        fit = fit_rate(rows, x="delta", y="kl_error")
        assert abs(fit.slope - 2.0) < 1e-12
        assert abs(fit.r_squared - 1.0) < 1e-12
        assert fit.n_points == 4
        assert abs(np.exp(fit.intercept) - 3.0) < 1e-12

    def test_perturbed_power_law(self):
        rng = np.random.default_rng(0)
        deltas = np.geomspace(1.0, 1e-3, 20)
        rows = [
            SweepRow(d, 1.0, 0, 1, d ** (4.0 / 3.0) * (1.0 + 0.01 * rng.uniform(-1, 1)), 1.0, 0.0, 0)
            for d in deltas
        ]
        fit = fit_rate(rows, x="delta", y="kl_error")
        assert abs(fit.slope - 4.0 / 3.0) < 0.02

    def test_filter_on_step(self):
        rows = [SweepRow(d, 1.0, 0, n, d**n, 1.0, 0.0, 0) for d in (1.0, 0.5, 0.25) for n in (1, 2)]
        fit = fit_rate(rows, x="delta", y="kl_error", n_bregman=2)
        assert abs(fit.slope - 2.0) < 1e-12
        assert fit.n_points == 3

    def test_insufficient_data(self):
        rows = [SweepRow(1.0, 1.0, 0, 1, 1.0, 1.0, 0.0, 0)] * 2
        with pytest.raises(InsufficientData):
            fit_rate(rows, x="delta", y="kl_error")

    def test_nonpositive_error(self):
        rows = [SweepRow(d, 1.0, 0, 1, 0.0, 1.0, 0.0, 0) for d in (1.0, 0.5, 0.25)]
        with pytest.raises(NonPositiveError):
            fit_rate(rows, x="delta", y="kl_error")

    def test_rejects_unknown_columns(self):
        rows = [SweepRow(d, 1.0, 0, 1, 1.0, 1.0, 0.0, 0) for d in (1.0, 0.5, 0.25)]
        with pytest.raises(ConfigError):
            fit_rate(rows, x="k_worst", y="kl_error")


class TestBuildProblem:
    def test_default_matches_reference_setup(self):
        problem = build_problem(ProblemConfig())
        assert problem.grid.n == 480
        assert problem.penalty.box_lo == 0.0 and problem.penalty.box_hi == 5.0
        assert np.all(problem.penalty.prior.values == 1.0)
        truth = bspline_truth(problem.grid, 5)
        assert np.array_equal(problem.f_true.values, truth.values)
        assert norm_l2(problem.g_true - apply(problem.op, problem.f_true)) == 0.0

    def test_quadratic_variant(self):
        problem = build_problem(ProblemConfig(penalty="quadratic"))
        assert isinstance(problem.penalty, QuadraticPenalty)

    def test_box_must_contain_truth(self):
        # max f_true is 1.55 and min f_true is 1.0
        with pytest.raises(ConfigError, match="box_hi"):
            build_problem(ProblemConfig(box_hi=1.5))
        with pytest.raises(ConfigError, match="box_lo"):
            build_problem(ProblemConfig(box_lo=1.0))
        build_problem(ProblemConfig(box_hi=1.5, penalty="quadratic"))  # no box there

    def test_box_bounds_must_be_finite(self):
        for name, bad in (("box_hi", float("inf")), ("box_lo", float("nan")), ("box_hi", float("nan"))):
            with pytest.raises(ConfigError, match=name):
                ProblemConfig(**{name: bad})

    def test_unknown_names_rejected(self, tmp_path):
        path = tmp_path / "blur.cfg"
        path.write_text("[problem]\noperator = gaussian_blur\n")
        with pytest.raises(ConfigError, match="unknown key 'operator'"):
            load_config(str(path))
        with pytest.raises(ConfigError):
            ProblemConfig(penalty="tv")
