"""Experiment orchestration: noise models, parameter rules, sweeps and fits.

Reproduces the convergence-rate experiment: build the periodic test
problem, perturb the exact data by the worst sinusoid in the noise ball,
apply the a-priori rule alpha = c delta^sigma, run the Bregman chain, and
fit log-log slopes of the recorded errors. All sweeps are deterministic:
candidate and row order is fixed by the configuration, and argmax/argmin
ties break on the first index.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

import numpy as np

from .bregman import bregman_iterate, spectral_chain, spectral_reports
from .errors import (
    AT_LEAST_ONE, FINITE, NON_NEGATIVE, POSITIVE, ConfigError, InsufficientData, NonPositiveError,
    check_fields, check_value, one_of,
)
from .functionals import EntropyPenalty, Penalty, QuadraticPenalty
from .operators import FourierMultiplierOperator, apply, make_inverse_helmholtz
from .solvers import SolveReport, SolverConfig
from .torus import (
    Signal, TorusGrid, _freeze, bspline_truth, check_same_grid, norm_l1_array, norm_l2_rfft,
    signal_rows,
)

__all__ = [
    "ProblemConfig",
    "NoiseModel",
    "SweepConfig",
    "OutputConfig",
    "ExperimentConfig",
    "Problem",
    "SweepRow",
    "RateFit",
    "build_problem",
    "Choice",
    "noise_frequencies",
    "worst_case_search",
    "apriori_alpha",
    "Calibration",
    "calibrate_c",
    "approx_error_sweep",
    "rate_sweep",
    "fit_rate",
    "geometric_grid",
]


def _map(fn, jobs: Sequence, threads: int) -> list:
    """``[fn(job) for job in jobs]``, on min(threads, len(jobs)) worker processes.

    One worker runs in-process; a pool starts every worker at once, so it is
    never larger than the job count. The pool's modules are imported only
    when a pool runs, so a one-worker start-up does not load them.
    """
    check_value("threads", threads, int, AT_LEAST_ONE)
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def geometric_grid(
    top: float, bottom: float, count: int, names: tuple[str, str, str] = ("top", "bottom", "count")
) -> tuple[float, ...]:
    """Strictly decreasing geometric grid from top to bottom inclusive. A bad
    argument is a :class:`ConfigError` that calls the three by ``names``
    (a config file's keys, say)."""
    top_name, bottom_name, count_name = names
    check_value(top_name, top, float, POSITIVE)
    check_value(bottom_name, bottom, float,
                {f"lie in (0, {top_name} = {top})": lambda v: 0 < v < top})
    check_value(count_name, count, int, {"be >= 2": lambda v: v >= 2})
    return tuple(np.geomspace(top, bottom, count).tolist())


@dataclass(frozen=True)
class ProblemConfig:
    n: int = 480
    penalty: str = field(default="entropy", metadata=one_of("entropy", "quadratic"))
    bspline_degree: int = field(default=5, metadata=one_of(4, 5))
    prior_value: float = field(default=1.0, metadata=POSITIVE)
    box_lo: float = field(default=0.0, metadata=FINITE)
    box_hi: float = field(default=5.0, metadata=FINITE)

    __post_init__ = check_fields


@dataclass(frozen=True)
class NoiseModel:
    kind: str = field(default="worst_case", metadata=one_of("exact", "worst_case", "fixed_sinusoid"))
    k_max: int = field(default=32, metadata=AT_LEAST_ONE)
    k_fixed: int = field(default=1, metadata=AT_LEAST_ONE)

    __post_init__ = check_fields


@dataclass(frozen=True)
class SweepConfig:
    deltas: tuple[float, ...] = field(default=geometric_grid(1e-1, 1e-4, 12), metadata=POSITIVE)
    alphas: tuple[float, ...] | None = field(default=None, metadata=POSITIVE)
    alpha_c: float = field(default=1.0, metadata=POSITIVE)
    alpha_sigma: float = field(default=8.0 / 15.0, metadata={"lie in (0, 2]": lambda v: 0 < v <= 2})
    bregman_steps: int = field(default=2, metadata=AT_LEAST_ONE)
    noise: NoiseModel = field(default_factory=NoiseModel)
    metric: str = field(default="kl", metadata=one_of("kl", "l1"))
    predicted_rate: float | None = field(default=None, metadata=FINITE)
    calibrate_cs: tuple[float, ...] | None = field(default=None, metadata=POSITIVE)

    def __post_init__(self):
        check_fields(self)
        if not self.deltas or any(b >= a for a, b in zip(self.deltas, self.deltas[1:])):
            raise ConfigError(f"deltas must be non-empty and strictly decreasing, got {self.deltas}")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    csv_name: str = "sweep.csv"
    svg_name: str = "sweep.svg"
    write_svg: bool = True

    __post_init__ = check_fields


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    __post_init__ = check_fields


@dataclass(frozen=True)
class Problem:
    grid: TorusGrid
    op: FourierMultiplierOperator
    penalty: Penalty
    f_true: Signal = field(repr=False)
    g_true: Signal = field(repr=False)

    __post_init__ = check_fields


def build_problem(cfg: ProblemConfig) -> Problem:
    grid = TorusGrid(cfg.n)
    op = make_inverse_helmholtz(grid)
    f_true = bspline_truth(grid, cfg.bspline_degree)
    prior = Signal(grid, np.full(grid.n, cfg.prior_value))
    if cfg.penalty == "entropy":
        penalty: Penalty = EntropyPenalty(prior, cfg.box_lo, cfg.box_hi)
        # the error metric is the Bregman distance to f_true, defined only inside the box
        lo, hi = float(np.min(f_true.values)), float(np.max(f_true.values))
        if not cfg.box_lo < lo:
            raise ConfigError(f"box_lo = {cfg.box_lo} must lie below min(f_true) = {lo}")
        if not hi < cfg.box_hi:
            raise ConfigError(f"box_hi = {cfg.box_hi} must lie above max(f_true) = {hi}")
    else:
        penalty = QuadraticPenalty(prior)
    return Problem(grid, op, penalty, f_true, apply(op, f_true))


@dataclass(frozen=True)
class SweepRow:
    delta: float
    alpha: float
    k_worst: int
    n_bregman: int
    kl_error: float = field(metadata=NON_NEGATIVE)
    l1_error: float = field(metadata=NON_NEGATIVE)
    data_residual: float = field(metadata=NON_NEGATIVE)
    dr_iterations: int

    __post_init__ = check_fields


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


# Rows of a worst-case search's candidate block. Each array a block makes
# stays at or below 64.25 KiB at n = 512 (the samples, their half spectra;
# on the spectral route the fidelity shift, one stack per step and each
# step's errors), below glibc's 128 KiB mmap threshold, so the allocator
# reuses heap memory instead of mapping and zero-faulting fresh pages on
# every search, as it did for the (k_max, n) arrays of a whole search.
# A block's arrays are freed when the next block's have been made, not
# before: freed first, they lie at the top of the heap, which glibc trims
# once 128 KiB or more of it is free (its default trim threshold), and the
# next block faults the pages in again. Measured inside perfbench/run.py
# on hilbert_envelope (2-core Xeon): 410k-600k minor faults in a 6 s run
# that way, against 29k-36k.
# Measured on hilbert_envelope (k_max = 250, 2-core Xeon): 32 rows make
# 128 KiB arrays and took 31k-39k minor page faults per pass, against 8-9
# at 16 rows; 8 rows ran 21 % slower and 12 rows 4 % slower than 16.
_BLOCK_ROWS = 16


@lru_cache(maxsize=4)
def _unit_sinusoids(grid: TorusGrid, ks: tuple[int, ...]) -> np.ndarray:
    """sin(2 pi k x), one row per k, read-only; kept per (grid, ks), as a
    search runs once per (delta, alpha) on the same grid and frequencies."""
    out = np.multiply.outer(2.0 * np.pi * np.asarray(ks), grid.points)
    np.sin(out, out=out)
    return _freeze(out)


def _sinusoids(
    grid: TorusGrid, delta: float, ks: Sequence[int], rows: slice = slice(None)
) -> np.ndarray:
    """delta * sin(2 pi k x), one row per k of ks[rows] (all of ks by
    default), as a new writeable array; each row's L2 norm is
    delta/sqrt(2) <= delta, and k = 0 gives a row of zeros. The unit table
    of all of ks is kept (:func:`_unit_sinusoids`), so a call costs one
    product of the slice."""
    return _unit_sinusoids(grid, tuple(ks))[rows] * delta


def apriori_alpha(delta: float, c: float, sigma: float) -> float:
    """A-priori rule alpha = c * delta^sigma."""
    for name, value in (("delta", delta), ("c", c), ("sigma", sigma)):
        check_value(name, value, float, POSITIVE)
    return c * delta**sigma


class Choice(NamedTuple):
    """The candidate a worst-case search selected for one Bregman step.

    ``reports`` is the whole chain run on ``g_obs``, one report per step,
    as :func:`~torusreg.bregman.bregman_iterate` returns it on ``config.solver``;
    a chain selected at several steps is one list, shared by their choices.
    """

    k: int  # noise frequency; 0 for exact data
    g_obs: Signal
    reports: list[SolveReport]  # the whole chain run on g_obs, one per step
    metrics: tuple[float, float, float, int]  # (kl, l1, data residual, DR iterations)


def _error(problem: Problem, metric: str, f: Signal) -> float:
    """The error of f in ``metric``: the penalty's Bregman distance to f_true
    (kl), or the L1 norm of f - f_true (l1), which reads f's samples."""
    if metric == "kl":
        return problem.penalty.bregman(f, problem.f_true)
    return norm_l1_array(f.values - problem.f_true.values)


def _spectral_errors(problem: Problem, metric: str, chain: list[np.ndarray]) -> np.ndarray:
    """The (rows, steps) errors in ``metric`` of the minimizers of a block's
    spectral chains, given as one (rows, n/2 + 1) stack of half spectra per
    step (:func:`~torusreg.bregman.spectral_chain` of the block), bit for bit
    as :func:`_error` scores their signals: kl by Parseval, squared by libm's
    pow as a float's ``** 2`` is (numpy's ``**`` on arrays rounds
    otherwise), and l1 from the samples of an irfft.

    Each stack is scored where it lies, one step at a time, and is not
    written: a stack of every step would reach glibc's mmap threshold (see
    ``_BLOCK_ROWS``)."""
    n = problem.grid.n
    scores = np.empty((len(chain[0]), len(chain)))
    for i, step in enumerate(chain):
        if metric == "kl":
            errors = np.subtract(step, problem.f_true.rfft)
            scores[:, i] = 0.5 * np.float_power(norm_l2_rfft(errors, n), 2)
        else:
            errors = np.fft.irfft(step, n)
            errors -= problem.f_true.values
            scores[:, i] = norm_l1_array(errors)
    return scores


def _chain_metrics(
    problem: Problem,
    g_obs: Signal,
    alpha: float,
    n_steps: int,
    solver: SolverConfig,
    metric: str,
) -> tuple[list[SolveReport], list[float]]:
    """The Douglas-Rachford chain on the candidate g_obs: its solve reports,
    and its minimizers' errors in ``metric``, one per step. The spectral
    route scores a block's chains together instead (:func:`_spectral_errors`)."""
    reports = bregman_iterate(problem.op, g_obs, alpha, problem.penalty, n_steps, solver)
    return reports, [_error(problem, metric, r.minimizer) for r in reports]


def noise_frequencies(noise: NoiseModel, n: int) -> Sequence[int]:
    """The noise frequencies of a search on n points: [0] for exact data,
    [k_fixed], or 1..k_max; a frequency beyond n/2 - 1 is rejected, as it
    aliases on n points (k = n/2 samples to 0)."""
    frequency = {f"lie in [1, n/2 - 1] = [1, {n // 2 - 1}]": lambda k: 1 <= k <= n // 2 - 1}
    if noise.kind == "exact":
        return [0]
    if noise.kind == "fixed_sinusoid":
        check_value("k_fixed", noise.k_fixed, int, frequency)
        return [noise.k_fixed]
    check_value("k_max", noise.k_max, int, frequency)
    return range(1, noise.k_max + 1)


def worst_case_search(
    config: ExperimentConfig, problem: Problem, delta: float, alpha: float
) -> list[Choice]:
    """Run the Bregman chain on every candidate observation; pick per step.

    The candidates follow ``config.sweep.noise``: the exact data (k = 0),
    g_true + delta sin(2 pi k_fixed .), or g_true + delta sin(2 pi k .) for
    k = 1..k_max. Returns, for each Bregman step, the candidate with the
    largest error in ``config.sweep.metric`` at that step (first index wins
    ties); the first n steps of a chain are the n-step chain, so one chain
    per candidate covers every step.

    The candidates are walked in blocks of ``_BLOCK_ROWS`` rows. Every
    candidate, the exact data included, is a row of its block's sample
    array; its half spectrum, from one batched rfft of the block, is the
    rfft of its samples. On the DR route each candidate's chain is one
    :func:`_chain_metrics` call. On the spectral route a block's chains are
    one :func:`~torusreg.bregman.spectral_chain` call on the block's
    (rows, n/2 + 1) half spectra, and each step's stack is scored at once
    (:func:`_spectral_errors`); only a selected chain's rows are copied out
    of the block, and its signal's reports are built once, at the end.
    Every candidate's steps are scored in the selection metric only; the
    other error is computed for each step's selected candidate. A running
    best per step carries across blocks, so a chain that is not selected
    does not outlive the next block.

    The spectral chains are unchecked arrays, so a search checks the grids
    once and every score's finiteness once per block; a non-finite one
    raises :class:`ConfigError` naming the first such candidate and step.
    """
    sweep, steps = config.sweep, config.sweep.bregman_steps
    check_value("delta", delta, float, NON_NEGATIVE)
    ks = tuple(noise_frequencies(sweep.noise, problem.grid.n))
    check_same_grid(problem.op, problem.penalty.prior, problem.f_true, problem.g_true)
    spectral = config.solver.method == "spectral"
    # per step: (score, k, g_obs, chain) of the first candidate with the largest
    # score; the chain is its reports (DR) or its minimizers' half spectra
    best: list[tuple | None] = [None] * steps
    for start in range(0, len(ks), _BLOCK_ROWS):
        # the last block's arrays are freed as their names are rebound, after
        # this block's are made (see _BLOCK_ROWS)
        block = _sinusoids(problem.grid, delta, ks, slice(start, start + _BLOCK_ROWS))
        block += problem.g_true.values
        block.setflags(write=False)  # so the candidates share it without a copy
        observations = signal_rows(problem.grid, block)
        if spectral:  # the block's chains: one (rows, n/2 + 1) stack per step
            runs = spectral_chain(problem.op, observations.spectra, alpha, problem.penalty, steps)
            scores = _spectral_errors(problem, sweep.metric, runs)
        else:  # one (reports, errors) per candidate
            runs = [_chain_metrics(problem, observations[row], alpha, steps, config.solver,
                                   sweep.metric) for row in range(len(block))]
            scores = np.array([errors for _, errors in runs])
        if not np.isfinite(scores).all():  # a NaN score loses every comparison: test them all
            row, step = np.argwhere(~np.isfinite(scores))[0]
            raise ConfigError(f"half spectrum must be finite: k = {ks[start + row]}, step {step + 1}")
        for i, row in enumerate(scores.argmax(axis=0).tolist()):  # the first of the block's largest
            if best[i] is None or scores[row, i] > best[i][0]:  # ties go to the earlier block
                kept = [step[row].copy() for step in runs] if spectral else runs[row][0]
                best[i] = (float(scores[row, i]), ks[start + row], observations[row], kept)
    chains: dict[int, tuple] = {}  # (g_obs, reports), one per selected chain
    choices = []
    for i, (score, k, g_obs, kept) in enumerate(best):
        if k not in chains:  # spectral reports are built for the selected chains only
            chains[k] = g_obs, (spectral_reports(problem.op, g_obs, alpha, problem.penalty, kept)
                                if spectral else kept)
        g_obs, reports = chains[k]
        r = reports[i]
        kl = score if sweep.metric == "kl" else _error(problem, "kl", r.minimizer)
        l1 = score if sweep.metric == "l1" else _error(problem, "l1", r.minimizer)
        choices.append(Choice(k, g_obs, reports, (kl, l1, r.data_residual, r.iterations)))
    return choices


def _rows(delta: float, alpha: float, choices: list[Choice]) -> list[SweepRow]:
    return [SweepRow(delta, alpha, c.k, n, *c.metrics) for n, c in enumerate(choices, start=1)]


def _rows_for_delta(config: ExperimentConfig, problem: Problem, delta: float) -> list[SweepRow]:
    sweep = config.sweep
    alpha = apriori_alpha(delta, sweep.alpha_c, sweep.alpha_sigma)
    return _rows(delta, alpha, worst_case_search(config, problem, delta, alpha))


def rate_sweep(
    config: ExperimentConfig,
    threads: int = 1,
    problem: Problem | None = None,
) -> list[SweepRow]:
    """One row per (delta, bregman step), deltas in config order, steps ascending.

    Pass ``problem`` to sweep a synthetic problem instead of the configured one.
    """
    if problem is None:
        problem = build_problem(config.problem)
    chunks = _map(partial(_rows_for_delta, config, problem), config.sweep.deltas, threads)
    return [row for chunk in chunks for row in chunk]


def approx_error_sweep(
    config: ExperimentConfig,
    alphas: Sequence[float] | None = None,
    problem: Problem | None = None,
) -> list[SweepRow]:
    """Exact-data sweep over alpha: rows carry delta = 0 and k_worst = 0.

    Rows are emitted in the given alpha order (unsorted), steps ascending
    within each alpha.
    """
    if alphas is None:
        alphas = config.sweep.alphas
    if not alphas:
        raise ConfigError("alphas must be non-empty: set [sweep] alphas or pass them")
    sweep = replace(config.sweep, alphas=tuple(alphas), noise=NoiseModel(kind="exact"))  # checks them
    if problem is None:
        problem = build_problem(config.problem)
    exact = replace(config, sweep=sweep)
    return [row for alpha in alphas
            for row in _rows(0.0, alpha, worst_case_search(exact, problem, 0.0, alpha))]


class Calibration(NamedTuple):
    """The chosen constant, every candidate's objective in order, and the
    :func:`rate_sweep` rows at alpha_c = c. A single candidate is taken
    without a sweep: no objectives, and rows None."""

    c: float
    objectives: tuple[float, ...]
    rows: list[SweepRow] | None


def _calibration_objective(config: ExperimentConfig, c: float, problem: Problem) -> tuple:
    """max_delta error(delta) / delta^rate of the sweep at alpha_c = c, and its rows."""
    trial = replace(config, sweep=replace(config.sweep, alpha_c=c))
    rows = rate_sweep(trial, problem=problem)
    target_n = config.sweep.bregman_steps
    rate = config.sweep.predicted_rate
    col = "kl_error" if config.sweep.metric == "kl" else "l1_error"
    worst = -float("inf")
    for row in rows:
        if row.n_bregman == target_n:
            worst = max(worst, getattr(row, col) / row.delta**rate)
    return worst, rows


def calibrate_c(
    config: ExperimentConfig,
    candidate_cs: Sequence[float] | None = None,
    threads: int = 1,
    problem: Problem | None = None,
) -> Calibration:
    """Pick the rule constant minimizing max_delta error(delta) / delta^rate.

    The error column, target step and predicted rate come from the sweep
    configuration; the delta grid is the configured one, so calibration on
    a reduced grid just means passing a reduced config. The winner's rows
    come with it, so a caller need not sweep it again.
    """
    if candidate_cs is None:
        candidate_cs = config.sweep.calibrate_cs
    if not candidate_cs:
        raise ConfigError("calibrate_cs must be non-empty: set [sweep] calibrate_cs or pass them")
    if config.sweep.predicted_rate is None:
        raise ConfigError("predicted_rate must be set in [sweep] to calibrate c")
    cs = replace(config.sweep, calibrate_cs=tuple(candidate_cs)).calibrate_cs  # checks them
    if len(cs) == 1:
        return Calibration(cs[0], (), None)
    if problem is None:
        problem = build_problem(config.problem)
    trials = _map(partial(_calibration_objective, config, problem=problem), cs, threads)
    objectives = tuple(objective for objective, _ in trials)
    best = int(np.argmin(objectives))
    return Calibration(cs[best], objectives, trials[best][1])


def fit_rate(
    rows: Sequence[SweepRow],
    x: str = "delta",
    y: str = "kl_error",
    n_bregman: int | None = None,
) -> RateFit:
    """Least-squares slope of log y against log x over the filtered rows.

    Positive slope means the error decays like x^slope as x shrinks.
    """
    check_value("x", x, str, one_of("delta", "alpha"))
    check_value("y", y, str, one_of("kl_error", "l1_error"))
    picked = [r for r in rows if n_bregman is None or r.n_bregman == n_bregman]
    if len(picked) < 3:
        raise InsufficientData(f"need >= 3 rows, have {len(picked)}")
    xs = np.array([getattr(r, x) for r in picked])
    ys = np.array([getattr(r, y) for r in picked])
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise NonPositiveError("log-log fit needs positive values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    predicted = slope * lx + intercept
    ss_res = float(np.sum((ly - predicted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(float(slope), float(intercept), r2, len(picked))
