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
    worst_case_search,
)

from torusreg.harness import _block_rows, _candidates
from torusreg.torus import norm_l1_array

from conftest import (
    band_limited_signal, count_calls, count_ffts, per_candidate_search, sinusoid_noise,
    spectral_solve, to_spectrum,
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
        # calibrate_c reads the constants from the checked config alone
        with pytest.raises(ConfigError, match="^calibrate_cs must be non-empty"):
            calibrate_c(ExperimentConfig(sweep=SweepConfig(predicted_rate=1.0)))

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
        # a grid whose rounded points are not strictly decreasing blames the count
        with pytest.raises(ConfigError) as caught:
            geometric_grid(1e-1, 0.09999999999999999, 4, names=names)
        assert str(caught.value) == ("steps = 4 must give strictly decreasing points from hi to lo, "
                                     "got (0.1, 0.1, 0.1, 0.09999999999999999)")

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


def blocks(k_max, n):
    """The number of candidate blocks a search over k = 1..k_max on n points walks."""
    return -(-k_max // _block_rows(n))


def noise_pair(n, delta):
    """A search's pair on the shipped problem at n: g_true's half spectrum,
    and that spectrum with -i n/2 delta in every mode."""
    g_rfft = np.fft.rfft(build_problem(ProblemConfig(n=n)).g_true.values)
    pair = np.array([g_rfft, g_rfft])
    pair.imag[1] -= n // 2 * delta
    return pair


def assert_round_trip_of(g_obs, g_true):
    """g_obs's samples are g_true's through an rfft and back: bit for bit that
    round trip, which on some grids (n = 480) moves a sample by a few ulp."""
    n = g_true.grid.n
    assert np.array_equal(g_obs.values, np.fft.irfft(np.fft.rfft(g_true.values), n))
    np.testing.assert_array_max_ulp(g_obs.values, g_true.values, maxulp=4)


class TestWorstCaseNoise:
    @pytest.mark.parametrize("n", [480, 512])
    def test_zero_delta_ties_to_first_candidate(self, n):
        # every candidate ties; across blocks the tie goes to the earlier block
        problem, k_max = quad_problem(n=n), 40
        assert blocks(k_max, n) > 1
        search = worst_case_search(search_config(steps=2, k_max=k_max), problem, 0.0, 0.1)
        assert np.all(search.scores == search.scores[0])
        assert search.ks[search.scores.argmax(axis=0)].tolist() == [1, 1]
        for choice in search.choices:
            assert choice.k == 1
            assert_round_trip_of(choice.g_obs, problem.g_true)

    @pytest.mark.parametrize("n", [128, 480])
    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_exact_data_are_the_rfft_of_g_true(self, delta, n):
        # like every candidate, the exact data carry the rfft of g_true's
        # samples, not the mu f^ that g_true keeps
        problem = quad_problem(n=n)
        for choice in worst_case_search(search_config(steps=2, kind="exact"), problem, delta, 0.1).choices:
            assert choice.k == 0
            assert np.array_equal(choice.g_obs.rfft, np.fft.rfft(problem.g_true.values))
            assert_round_trip_of(choice.g_obs, problem.g_true)

    def test_matches_brute_force_oracle(self):
        problem = quad_problem()
        alpha, delta, k_max = 1e-3, 1e-2, 16
        [choice] = worst_case_search(search_config(k_max=k_max), problem, delta, alpha).choices
        oracle = [tikhonov_error_oracle(problem, delta, k, alpha) for k in range(1, k_max + 1)]
        assert choice.k == 1 + int(np.argmax(oracle))
        assert choice.metrics[0] == pytest.approx(max(oracle), rel=1e-8)

    def test_selected_error_dominates_all_candidates(self):
        problem = quad_problem()
        alpha, delta, k_max = 1e-2, 5e-2, 12

        def evaluator(g_obs):
            return spectral_solve(problem.op, g_obs, alpha, problem.penalty.prior)

        [choice] = worst_case_search(search_config(k_max=k_max), problem, delta, alpha).choices
        best = problem.penalty.bregman(evaluator(choice.g_obs), problem.f_true)
        for k in range(1, k_max + 1):
            candidate = problem.g_true + sinusoid_noise(problem.grid, delta, k)
            err = problem.penalty.bregman(evaluator(candidate), problem.f_true)
            assert err <= best + 1e-15

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
        assert len(worst_case_search(search_config(k_max=n // 2 - 1), problem, 0.1, 0.1).choices) == 1

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigError, match="delta"):
            worst_case_search(search_config(k_max=4), quad_problem(), -1e-3, 0.1)


    def test_spectral_search_fft_budget(self, monkeypatch):
        # one rfft of g_true's samples per search, from which every candidate's
        # half spectrum is built; each distinct selected chain becomes signals
        # after the walk, whose samples are computed at build: one irfft for its
        # observation and one per step for its minimizers. Scores, kl and the
        # data residual come from half spectra by Parseval
        problem = quad_problem(n=512)
        problem.penalty.prior.rfft, problem.f_true.rfft  # once per problem
        steps, k_max = 2, 40
        assert blocks(k_max, 512) > 1 and k_max % _block_rows(512)  # a partial last block
        counts = count_ffts(monkeypatch)
        choices = worst_case_search(search_config(steps=steps, k_max=k_max), problem, 1e-2, 1e-2).choices
        assert counts == {"rfft": 1, "irfft": len({c.k for c in choices}) * (steps + 1)}

    def test_spectral_search_fft_budget_l1(self, monkeypatch):
        # selecting by l1 reads the samples of every candidate's minimizers:
        # one irfft per block and step, of all the block's chains at once, on
        # top of the selected chains' signals as above
        problem = quad_problem(n=512)
        problem.penalty.prior.rfft, problem.f_true.rfft  # once per problem
        steps, k_max = 2, 40
        assert blocks(k_max, 512) > 1 and k_max % _block_rows(512)
        counts = count_ffts(monkeypatch)
        config = search_config(steps=steps, k_max=k_max, metric="l1")
        choices = worst_case_search(config, problem, 1e-2, 1e-2).choices
        irffts = len({c.k for c in choices}) * (steps + 1) + blocks(k_max, 512) * steps
        assert counts == {"rfft": 1, "irfft": irffts}


class TestBlockRows:
    """A search's candidate blocks are sized by bytes: the most rows whose
    complex (rows, n/2 + 1) block fits 96 KiB, and at least one."""

    @pytest.mark.parametrize("n", [64, 480, 512, 1024, 4096])
    def test_a_block_fits_the_budget(self, n):
        rows = _block_rows(n)
        assert rows >= 1
        assert (rows + 1) * (n // 2 + 1) * 16 > 96 * 1024  # the most that fit
        ks = np.ones(rows, dtype=int)  # at n = 64, more rows than a search's ks
        spectra = _candidates(noise_pair(n, 1e-2), ks, np.empty((rows, n // 2 + 1), dtype=complex))
        # the block's half spectra, and the l1 route's (rows, n) irfft of them
        assert spectra.nbytes <= 96 * 1024
        assert np.fft.irfft(spectra, n).nbytes <= 96 * 1024

    def test_sizes(self):
        assert [_block_rows(n) for n in (128, 480, 512, 1024, 4096)] == [94, 25, 23, 11, 2]


class TestCandidateSpectra:
    """A search's candidates are half spectra of its pair (g^, g^ - i n/2
    delta): the rfft of g plus the rfft of delta sin(2 pi k .), which is
    -i n/2 delta in mode k alone."""

    @pytest.mark.parametrize("delta", [1e-1, 1e-3, 3e-5])
    @pytest.mark.parametrize("n", [64, 480])
    def test_rows_are_the_rfft_of_the_noisy_samples(self, n, delta):
        grid = TorusGrid(n)
        g = build_problem(ProblemConfig(n=n)).g_true.values
        g_rfft = np.fft.rfft(g)
        pair = noise_pair(n, delta)
        pair.setflags(write=False)  # not written
        ks = np.array([1, 2, n // 4, n // 2 - 1])
        out = np.empty((len(ks), n // 2 + 1), dtype=complex)
        spectra = _candidates(pair, ks, out)
        assert spectra is out
        # round-off of the sampled sine and of the FFT, against the largest mode
        bound = 64 * np.finfo(float).eps * np.abs(g_rfft).max()
        for k, row in zip(ks, spectra):
            want = np.fft.rfft(g + delta * np.sin(2.0 * np.pi * k * grid.points))
            assert np.abs(row - want).max() <= bound
            # only mode k's imaginary part differs from g's spectrum
            others = np.arange(n // 2 + 1) != k
            assert np.array_equal(row[others], g_rfft[others])
            assert row[k] == g_rfft[k] - 1j * (n // 2) * delta
            assert row[k].real == g_rfft[k].real
            assert row[0].imag == row[-1].imag == 0.0
        # exact data (k = 0) are g's spectrum bit for bit, whatever delta
        [exact] = _candidates(pair, np.array([0]), np.empty_like(pair[:1]))
        assert np.array_equal(exact, np.fft.rfft(g))
        assert exact[0].imag == exact[-1].imag == 0.0

    @pytest.mark.parametrize("n", [480, 512])
    def test_a_block_is_the_rows_of_one_call(self, n):
        # the second block of a k_max = 40 search starts mid-ks, and is partial
        pair = noise_pair(n, 1e-2)
        ks, rows = np.arange(1, 41), slice(_block_rows(n), 2 * _block_rows(n))
        assert blocks(len(ks), n) == 2
        whole = _candidates(pair, ks, np.empty((len(ks), n // 2 + 1), dtype=complex))
        part = _candidates(pair, ks[rows], np.empty((len(ks[rows]), n // 2 + 1), dtype=complex))
        assert np.array_equal(part, whole[rows])


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
    @pytest.mark.parametrize("route, n, k_max", [("spectral_quadratic", 512, 40),
                                                 ("dr_entropy", 2048, 12)])
    def test_choices_match_across_blocks(self, route, metric, n, k_max):
        # several blocks and a partial last one
        assert blocks(k_max, n) > 1 and k_max % _block_rows(n)
        self.check(route, metric, {"k_max": k_max}, n=n)

    @pytest.mark.parametrize("metric", ["kl", "l1"])
    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("k_max", [12, 40])
    def test_spectral_choices_match_at_one_and_three_steps(self, metric, steps, k_max):
        # a block's chains run as one stack per step, whatever the step count;
        # at n = 512, k_max = 40 is two blocks
        self.check("spectral_quadratic", metric, {"k_max": k_max}, steps, n=512)

    @pytest.mark.parametrize("metric", ["kl", "l1"])
    def test_spectral_choices_match_in_one_full_block(self, metric):
        k_max = _block_rows(512)
        assert blocks(k_max, 512) == 1 and blocks(k_max + 1, 512) == 2
        self.check("spectral_quadratic", metric, {"k_max": k_max}, n=512)

    @staticmethod
    def check(route, metric, noise, steps=2, n=None):
        if route == "spectral_quadratic":
            problem, solver, kl_rtol = quad_problem(n=n or 128), SolverConfig(method="spectral"), 1e-14
        else:
            problem, solver, kl_rtol = build_problem(ProblemConfig(n=n or 64)), SolverConfig(), 0.0
        config = ExperimentConfig(
            solver=solver,
            sweep=SweepConfig(bregman_steps=steps, metric=metric, noise=NoiseModel(**noise)))
        for delta in (1e-1, 1e-3):
            alpha = apriori_alpha(delta, 1e-2, 8.0 / 15.0)
            search = worst_case_search(config, problem, delta, alpha)
            want = per_candidate_search(config, problem, delta, alpha)
            # the table: every candidate's score in the metric, and its DR iterations
            assert np.array_equal(search.ks, want.ks)
            assert search.scores.shape == search.iterations.shape == (len(want.ks), steps)
            if metric == "kl":
                assert np.all(np.abs(search.scores - want.scores) <= kl_rtol * want.scores)
            else:
                assert np.array_equal(search.scores, want.scores)
            assert np.array_equal(search.iterations, want.iterations)
            got = search.choices
            assert len(got) == len(want.choices) == steps
            # each step's choice is its column's first largest score
            assert [c.k for c in got] == search.ks[search.scores.argmax(axis=0)].tolist()
            for g, w in zip(got, want.choices):
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


class TestEntropyChainOmegaCalls:
    """A DR solve starts at z = prior, whose prox root prior/gamma seeds the
    entropy prox's Newton, and the warm Newton takes every later call: on
    the benchmark's entropy shape a chain evaluates no Wright omega."""

    def test_benchmark_shaped_chain_makes_no_omega_call(self, monkeypatch):
        import torusreg.functionals

        delta, steps = 1e-4, 2
        config = ExperimentConfig(
            solver=SolverConfig(tol=1e-12),
            sweep=SweepConfig(bregman_steps=steps, noise=NoiseModel(k_max=1)))
        problem = build_problem(ProblemConfig(n=480, prior_value=1.0, box_lo=0.0, box_hi=5.0))
        omega = count_calls(monkeypatch, torusreg.functionals, "wrightomega")
        dr = count_calls(monkeypatch, torusreg.bregman, "solve_generalized_dr")
        search = worst_case_search(config, problem, delta, apriori_alpha(delta, 3.16e-3, 8.0 / 15.0))
        assert dr["solve_generalized_dr"] == steps and search.iterations.min() > 1
        assert omega["wrightomega"] == 0


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
    def test_spectral_search_forms_the_shift_once_per_search(self, monkeypatch, metric):
        # t mu g^ is formed for a search's chains at once: one call for the 3
        # blocks of k_max = 50 on 512 points, not one per block or per (candidate, step)
        steps, k_max = 2, 50
        shifts = [count_calls(monkeypatch, module, "_fidelity_prox_constants")
                  for module in (torusreg.bregman, torusreg.solvers)
                  if hasattr(module, "_fidelity_prox_constants")]
        solves = count_calls(monkeypatch, torusreg.solvers, "solve_quadratic_spectral")
        worst_case_search(search_config(steps=steps, metric=metric, k_max=k_max), quad_problem(n=512),
                          1e-2, 1e-2)
        assert blocks(k_max, 512) == 3
        assert solves["solve_quadratic_spectral"] == k_max * steps
        assert sum(shifts, Counter()) == {"_fidelity_prox_constants": 1}

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
        choices = worst_case_search(config, problem, delta, alpha).choices
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
    @pytest.mark.parametrize("n, k_max, steps, call, named", [
        (128, 8, 1, 3, "k = 3, step 1"),
        # the second block of 23 + 17 at n = 512: solve 2 * 23 + 7 is k = 30's first
        (512, 40, 2, 2 * 23 + 7, "k = 30, step 1"),
        (512, 40, 2, 2 * 23 + 17 + 7, "k = 30, step 2"),
    ])
    def test_one_non_finite_candidate_is_not_skipped(self, monkeypatch, metric, n, k_max, steps,
                                                     call, named):
        # a NaN score loses every comparison, so a search that tested only the
        # selected chains, or only the first block, would drop that candidate and return rows
        assert blocks(k_max, n) == (2 if n == 512 else 1)
        solve, calls = torusreg.solvers.solve_quadratic_spectral, []

        def nan_on_one_call(*args):
            calls.append(args)
            row = solve(*args)
            if len(calls) == call:
                row *= np.nan  # in place: the row is the solve's out row
            return row

        monkeypatch.setattr(torusreg.solvers, "solve_quadratic_spectral", nan_on_one_call)
        with pytest.raises(ConfigError, match=f"half spectrum must be finite: {named}$"):
            worst_case_search(search_config(steps=steps, metric=metric, k_max=k_max),
                              quad_problem(n=n), 1e-2, 1e-2)
        assert len(calls) == k_max * steps  # every candidate is solved before the test

    def test_entropy_penalty_is_unsupported_before_any_solve(self, monkeypatch):
        solves = count_calls(monkeypatch, torusreg.solvers, "solve_quadratic_spectral", "prox_fidelity")
        with pytest.raises(Unsupported, match="spectral solve requires a quadratic penalty"):
            worst_case_search(search_config(steps=2, k_max=4), build_problem(ProblemConfig(n=64)),
                              1e-2, 1e-2)
        assert not solves


class TestSpectralScoresAreTheChainsOnTheirSignals:
    """Every score of a spectral search is, bit for bit, the error of
    ``bregman_iterate``'s spectral chain on the candidate's own signal: kl is
    ``QuadraticPenalty.bregman`` to f_true, l1 the L1 norm of the minimizer's
    error. The search forms its shifts once and its kl norms per block."""

    @pytest.mark.parametrize("metric", ["kl", "l1"])
    @pytest.mark.parametrize("n", [480, 512])
    @pytest.mark.parametrize("noise", [
        {"k_max": 40}, {"kind": "fixed_sinusoid", "k_fixed": 7}, {"kind": "exact"},
    ])
    def test_every_score_is_the_chain_on_its_signal(self, metric, n, noise):
        assert blocks(40, n) == 2 and 40 % _block_rows(n)  # k_max = 40: the last block partial
        self.assert_scores_are_the_chains(n, metric, noise)

    @pytest.mark.parametrize("n", [480, 512])
    def test_candidates_up_to_the_one_next_to_nyquist(self, n):
        # k = n/2 - 1 is the last mode a candidate changes; the chains share modes 0 and n/2
        k_max = n // 2 - 1
        assert blocks(k_max, n) > 2 and k_max % _block_rows(n)  # several blocks, the last partial
        self.assert_scores_are_the_chains(n, "kl", {"k_max": k_max})

    @staticmethod
    def assert_scores_are_the_chains(n, metric, noise):
        problem, steps = build_problem(ProblemConfig(n=n, penalty="quadratic")), 2
        for delta in (1e-1, 1e-3):  # exact data at delta > 0 are the k = 0 row
            alpha = apriori_alpha(delta, 1e-2, 8.0 / 15.0)
            search = worst_case_search(search_config(steps, metric, **noise), problem, delta, alpha)
            for k, scores in zip(search.ks.tolist(), search.scores):
                # the candidate's own spectrum: g_true's, with -i n/2 delta in mode k
                spectrum = np.fft.rfft(problem.g_true.values)
                if k:
                    spectrum.imag[k] -= n // 2 * delta
                g_obs = Signal.from_rfft(problem.grid, spectrum)
                reports = bregman_iterate(problem.op, g_obs, alpha, problem.penalty, steps,
                                          SolverConfig(method="spectral"))
                want = [problem.penalty.bregman(r.minimizer, problem.f_true) if metric == "kl"
                        else norm_l1_array(r.minimizer.values - problem.f_true.values)
                        for r in reports]
                assert scores.tobytes() == np.array(want).tobytes(), (k, scores, want)


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

    def test_bad_alphas_rejected(self):
        # approx_error_sweep reads the alphas from the config, which checks them
        cfg = ExperimentConfig(sweep=SweepConfig(noise=NoiseModel(kind="exact")))
        for bad in ((-1.0,), (1e-2, float("nan")), (float("inf"),)):
            with pytest.raises(ConfigError, match="alphas"):
                approx_error_sweep(replace(cfg, sweep=replace(cfg.sweep, alphas=bad)),
                                   problem=quad_problem())


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
        # a second run in one process gives the same rows, and so do runs on
        # one problem at one alpha, with the operator's kept fidelity constants
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
            problem=ProblemConfig(n=96, penalty="quadratic"),
            solver=SolverConfig(method="spectral"),
            sweep=SweepConfig(
                deltas=geometric_grid(1e-1, 1e-2, 4), bregman_steps=1,
                noise=NoiseModel(kind="exact"),
            ),
        )
        serial = rate_sweep(cfg, threads=1)
        parallel = rate_sweep(cfg, threads=2)
        assert serial == parallel


def with_cs(config, cs):
    """config with the candidate constants cs for calibrate_c."""
    return replace(config, sweep=replace(config.sweep, calibrate_cs=tuple(cs)))


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
        calibrate_c(with_cs(cfg, (0.1, 1.0)), threads=64)  # one job per (constant, delta) pair
        assert pool_sizes == [3, 6]

    def test_one_job_runs_in_process(self, pool_sizes):
        rate_sweep(exact_quadratic_config((1e-1,)), threads=4)
        assert pool_sizes == []

    def test_threads_must_be_positive(self, pool_sizes):
        cfg = exact_quadratic_config((1e-1, 1e-2, 1e-3))
        for bad in (0, -1):
            with pytest.raises(ConfigError, match="threads"):
                rate_sweep(cfg, threads=bad)
            with pytest.raises(ConfigError, match="threads"):
                calibrate_c(with_cs(cfg, (0.1, 1.0)), threads=bad)
        assert pool_sizes == []

    def test_arguments_checked_by_name(self, pool_sizes):
        cfg = exact_quadratic_config((1e-1, 1e-2, 1e-3))
        search = search_config(k_max=4)
        problem = quad_problem(n=64)
        calls = {
            "threads": (lambda bad: rate_sweep(cfg, threads=bad),
                        lambda bad: calibrate_c(with_cs(cfg, (0.1, 1.0)), threads=bad)),
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
        # one constant is swept too: it is chosen, with its objective and its sweep's rows
        cfg, problem = self.calibration_case()
        calibration = calibrate_c(with_cs(cfg, (0.7,)), problem=problem)
        rows = rate_sweep(replace(cfg, sweep=replace(cfg.sweep, alpha_c=0.7)), problem=problem)
        rate = cfg.sweep.predicted_rate
        want = max(r.kl_error / r.delta**rate for r in rows if r.n_bregman == cfg.sweep.bregman_steps)
        assert calibration.c == 0.7
        assert [o.hex() for o in calibration.objectives] == [want.hex()]
        assert calibration.rows == rows

    def test_needs_predicted_rate(self):
        cfg = ExperimentConfig(sweep=SweepConfig(calibrate_cs=(0.5, 1.0)))
        with pytest.raises(ConfigError, match="predicted_rate"):
            calibrate_c(cfg)

    def test_matches_exhaustive_grid_oracle(self):
        problem = quad_problem(n=64, band=6)
        sweep = SweepConfig(
            deltas=geometric_grid(1e-2, 1e-4, 4), alpha_sigma=1.0, bregman_steps=1,
            noise=NoiseModel(kind="fixed_sinusoid", k_fixed=2), predicted_rate=1.0,
            calibrate_cs=tuple(np.logspace(-3, 1, 9)),
        )
        cfg = ExperimentConfig(solver=SolverConfig(method="spectral"), sweep=sweep)
        cs = sweep.calibrate_cs
        chosen = calibrate_c(cfg, problem=problem).c

        def objective(c):
            worst = 0.0
            for d in sweep.deltas:
                err = tikhonov_error_oracle(problem, d, 2, c * d)
                worst = max(worst, err / d**1.0)
            return worst

        oracle = [objective(c) for c in cs]
        assert chosen == cs[int(np.argmin(oracle))]

    @staticmethod
    def calibration_case(metric="kl", steps=1):
        problem = quad_problem(n=64, band=6)
        sweep = SweepConfig(
            deltas=geometric_grid(1e-2, 1e-3, 3), alpha_sigma=1.0, bregman_steps=steps,
            noise=NoiseModel(kind="fixed_sinusoid", k_fixed=2), predicted_rate=1.0, metric=metric,
        )
        return ExperimentConfig(solver=SolverConfig(method="spectral"), sweep=sweep), problem

    @pytest.mark.parametrize("metric, steps", [("kl", 1), ("l1", 2)])
    def test_chosen_beats_all_candidates(self, metric, steps):
        # each objective is max_delta err / delta^rate of an independent
        # rate_sweep at alpha_c = c, bit for bit; the winner's rows are its sweep
        cfg, problem = self.calibration_case(metric, steps)
        cs = (1.0, 0.01, 0.1)  # the winner, 0.01, is neither the first nor the last
        calibration = calibrate_c(with_cs(cfg, cs), problem=problem)
        col = f"{metric}_error"
        sweeps = [rate_sweep(replace(cfg, sweep=replace(cfg.sweep, alpha_c=c)), problem=problem)
                  for c in cs]
        rate = cfg.sweep.predicted_rate
        want = tuple(max(getattr(r, col) / r.delta**rate for r in rows if r.n_bregman == steps)
                     for rows in sweeps)
        assert [o.hex() for o in calibration.objectives] == [o.hex() for o in want]
        best = int(np.argmin(want))
        assert calibration.c == cs[best]
        assert calibration.rows == sweeps[best]

    def test_threads_match_serial(self):
        # a real process pool, one job per (constant, delta) pair
        cfg, problem = self.calibration_case()
        cfg = with_cs(cfg, (0.01, 0.1, 1.0))
        serial = calibrate_c(cfg, problem=problem)
        parallel = calibrate_c(cfg, threads=2, problem=problem)
        assert parallel.c == serial.c
        assert [o.hex() for o in parallel.objectives] == [o.hex() for o in serial.objectives]
        assert parallel.rows == serial.rows


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

    def test_one_distinct_x_value_is_insufficient(self):
        # three rows at one alpha fix no slope: no fit, and no RankWarning from polyfit
        rows = [SweepRow(0.0, 1e-2, 0, 1, e, 1.0, 0.0, 0) for e in (0.1, 0.2, 0.3)]
        with pytest.raises(InsufficientData, match="^need >= 2 distinct alpha values, have 1$"):
            fit_rate(rows, x="alpha", y="kl_error")

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
