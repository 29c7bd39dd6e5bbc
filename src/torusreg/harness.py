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
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .bregman import bregman_iterate, spectral_chain, spectral_constants, spectral_reports
from .errors import (
    AT_LEAST_ONE, FILE_NAME, FINITE, NON_NEGATIVE, POSITIVE, ConfigError, InsufficientData,
    NonPositiveError, check_fields, check_value, one_of,
)
from .functionals import EntropyPenalty, Penalty, QuadraticPenalty
from .operators import FourierMultiplierOperator, apply, make_inverse_helmholtz
from .solvers import SolveReport, SolverConfig
from .torus import (
    Signal, TorusGrid, bspline_truth, check_same_grid, norm_l1_array, norm_l2_parseval,
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
    "Search",
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
    argument, or a count whose rounded points are not strictly decreasing,
    is a :class:`ConfigError` that calls the three by ``names`` (a config
    file's keys, say)."""
    top_name, bottom_name, count_name = names
    check_value(top_name, top, float, POSITIVE)
    check_value(bottom_name, bottom, float,
                {f"lie in (0, {top_name} = {top})": lambda v: 0 < v < top})
    check_value(count_name, count, int, {"be >= 2": lambda v: v >= 2})
    grid = tuple(np.geomspace(top, bottom, count).tolist())
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{count_name} = {count} must give strictly decreasing points from "
                          f"{top_name} to {bottom_name}, got {grid}")
    return grid


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
    csv_name: str = field(default="sweep.csv", metadata=FILE_NAME)
    svg_name: str = field(default="sweep.svg", metadata=FILE_NAME)
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


# The spectral search walks its candidates in blocks sized by bytes: the
# most rows whose (rows, n/2 + 1) complex array fits 96 KiB, at least one
# (23 rows at n = 512, 25 at 480). Up to n = 12286 a search's 1 + steps work
# arrays (the shifts, which then take the errors, and one stack per step)
# stay below glibc's 128 KiB mmap threshold, so they come from the heap, not
# from fresh zeroed pages; one more made glibc trim the heap top that each
# search frees, for the next to fault in again (ROADMAP ground rule 5).
# Measured on hilbert_envelope (n = 512, k_max = 250, 2-core Xeon): 23-row
# blocks took a median 0.337 s per pass against 0.389 s with 16-row blocks.
_BLOCK_BYTES = 96 * 1024


def _block_rows(n: int) -> int:
    """The rows of a candidate block on n points: the most whose (rows, n/2 + 1)
    complex array fits ``_BLOCK_BYTES``, and at least one."""
    return max(1, _BLOCK_BYTES // (16 * (n // 2 + 1)))


def _candidates(pair: np.ndarray, ks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into the rows of ``out`` the candidates ks of ``pair``, and return
    it. A search's pair is (g^, g^ - i n/2 delta), or the products of both
    with t mu: on n points the rfft of delta sin(2 pi k .) is -i n/2 delta in
    mode k and 0 elsewhere, so candidate k is the first row with mode k from
    the second; k = 0 (exact data) keeps the first."""
    out[...] = pair[0]
    rows = np.flatnonzero(ks)
    out[rows, ks[rows]] = pair[1, ks[rows]]
    return out


def _observation(grid: TorusGrid, pair: np.ndarray, ks: np.ndarray) -> Signal:
    """The signal of the one candidate ks (a 1-array) of a search's pair."""
    return Signal.from_rfft(grid, _candidates(pair, ks, np.empty_like(pair[:1]))[0])


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


def _spectral_errors(
    problem: Problem, metric: str, chain: list[np.ndarray], work: np.ndarray, out: np.ndarray
) -> None:
    """Write into ``out`` (rows, steps) the errors in ``metric`` of a block's
    spectral chains, one (rows, n/2 + 1) stack of half spectra per step, bit
    for bit as :func:`_error` scores their signals. kl is by Parseval: each
    step's vecdot and edge modes, then the norms and their squares (libm's
    pow, as a float's ``** 2`` is) over the whole block at once. l1 is from
    the samples of an irfft. A stack is scored where it lies and is not
    written. Each step's errors are written into ``work``, a (rows, n/2 + 1)
    complex array: kl's half spectra, or l1's (rows, n) samples in its float
    view."""
    n = problem.grid.n
    if metric == "kl":
        edges = np.empty(out.shape + (2,), dtype=complex)
        for i, step in enumerate(chain):
            np.subtract(step, problem.f_true.rfft, out=work)
            out[:, i] = np.vecdot(work, work).real
            edges[:, i] = work[:, ::n // 2]  # modes 0 and n/2
        out[...] = 0.5 * np.float_power(norm_l2_parseval(out, edges, n), 2)
    else:
        errors = work.view(float)[:, :n]
        for i, step in enumerate(chain):
            np.fft.irfft(step, n, out=errors)
            errors -= problem.f_true.values
            out[:, i] = norm_l1_array(errors)


def _spectral_blocks(
    problem: Problem, metric: str, pair: np.ndarray, alpha: float, ks: np.ndarray,
    scores: np.ndarray,
):
    """The spectral route's walk over the candidates ks of the search's pair
    (g^, g^ - i n/2 delta) in blocks of ``_block_rows(n)``: a block's chains
    are one :func:`~torusreg.bregman.spectral_chain` call, and their errors
    fill its rows of ``scores`` (K, steps). Yields each block's (start, stop,
    kept), kept(row) giving None and a copy of the row's minimizers' half
    spectra.

    t mu is applied to the pair once per search, and each block's shifts are
    :func:`_candidates` of those products: bit for bit the product on each
    candidate's half spectrum. The shifts, which take the errors once the
    block's chains are made, and one stack per step are 1 + steps arrays of
    (rows, n/2 + 1) per search, their row views made once."""
    rows = min(_block_rows(problem.grid.n), len(ks))
    products, recip = spectral_constants(problem.op, pair, alpha, problem.penalty)
    shifts = np.empty((rows, pair.shape[1]), dtype=complex)
    chain = [np.empty_like(shifts) for _ in range(scores.shape[1])]
    shift_rows, chain_rows = list(shifts), [list(stack) for stack in chain]
    for start in range(0, len(ks), rows):
        block = ks[start:start + rows]
        stop = start + len(block)
        _candidates(products, block, shifts[:len(block)])
        spectral_chain(shift_rows[:len(block)], problem.penalty.prior.rfft, recip, chain_rows)
        steps = [stack[:len(block)] for stack in chain]
        _spectral_errors(problem, metric, steps, shifts[:len(block)], scores[start:stop])
        yield start, stop, lambda row, steps=steps: (None, [step[row].copy() for step in steps])


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


def _dr_chains(
    config: ExperimentConfig, problem: Problem, pair: np.ndarray, alpha: float, ks: np.ndarray,
    scores: np.ndarray, iterations: np.ndarray,
):
    """The DR route's walk over the candidates ks of the search's pair, one
    at a time: the candidate's signal (:func:`_observation`) and one
    :func:`_chain_metrics` call, whose errors and DR iterations fill the
    candidate's row of ``scores`` and ``iterations``. Yields each
    candidate's (j, j + 1, kept), kept(row) giving its signal and reports."""
    for j in range(len(ks)):
        g_obs = _observation(problem.grid, pair, ks[j:j + 1])
        reports, scores[j] = _chain_metrics(problem, g_obs, alpha, scores.shape[1], config.solver,
                                            config.sweep.metric)
        iterations[j] = [r.iterations for r in reports]
        yield j, j + 1, lambda row, kept=(g_obs, reports): kept


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


class Search(NamedTuple):
    """A worst-case search's table and its choices. Row j of ``scores`` and
    ``iterations`` is candidate ``ks[j]`` and column i is Bregman step i + 1;
    ``choices[i]`` is the candidate at the first largest score of column i."""

    ks: np.ndarray  # (K,) noise frequencies; 0 for exact data
    scores: np.ndarray  # (K, steps) errors in config.sweep.metric
    iterations: np.ndarray  # (K, steps) DR iterations; 0 on the spectral route
    choices: list[Choice]  # one per Bregman step


def worst_case_search(
    config: ExperimentConfig, problem: Problem, delta: float, alpha: float
) -> Search:
    """Run the Bregman chain on every candidate observation; pick per step.

    The candidates follow ``config.sweep.noise``: the exact data (k = 0),
    g_true + delta sin(2 pi k_fixed .), or g_true + delta sin(2 pi k .) for
    k = 1..k_max. Returns every candidate's error in ``config.sweep.metric``
    and DR iterations at every step, and for each Bregman step the candidate
    with the largest error at that step (first index wins ties); the first
    n steps of a chain are the n-step chain, so one chain per candidate
    covers every step.

    Candidates are half spectra of one pair per search, (g^, g^ - i n/2
    delta) from the rfft of g_true's samples (:func:`_candidates`). The DR
    route runs one chain per candidate signal (:func:`_dr_chains`); the
    spectral route walks them in blocks (:func:`_spectral_blocks`) and keeps
    arrays only for its running best, so a signal and its reports are built
    after the walk, once per distinct selected chain. The other error is
    computed for each step's selected candidate only.

    The spectral chains are unchecked arrays, so a search checks the grids
    once, and every score's finiteness once, after the walk; a non-finite
    one raises :class:`ConfigError` naming the first such candidate and step.
    """
    sweep, steps, grid = config.sweep, config.sweep.bregman_steps, problem.grid
    check_value("delta", delta, float, NON_NEGATIVE)
    ks = np.array(noise_frequencies(sweep.noise, grid.n))
    check_same_grid(problem.op, problem.penalty.prior, problem.f_true, problem.g_true)
    pair = np.array([np.fft.rfft(problem.g_true.values)] * 2)  # not g_true.rfft, which keeps mu f^
    pair.imag[1] -= grid.n // 2 * delta
    scores, iterations = np.empty((len(ks), steps)), np.zeros((len(ks), steps), dtype=int)
    if config.solver.method == "spectral":
        walk = _spectral_blocks(problem, sweep.metric, pair, alpha, ks, scores)
    else:
        walk = _dr_chains(config, problem, pair, alpha, ks, scores, iterations)
    # per step: (score, j, observation, chain) of the first candidate with the largest
    # score: its signal and reports (DR), or None and its minimizers' half spectra (spectral)
    best: list[tuple | None] = [None] * steps
    for start, stop, kept in walk:
        block = scores[start:stop]
        for i, row in enumerate(block.argmax(axis=0).tolist()):  # the first of the block's largest
            if best[i] is None or block[row, i] > best[i][0]:  # ties go to the earlier block
                best[i] = (float(block[row, i]), start + row, *kept(row))
    if not np.isfinite(scores).all():  # a NaN score loses every comparison: test them all
        row, step = np.argwhere(~np.isfinite(scores))[0]
        raise ConfigError(f"half spectrum must be finite: k = {ks[row]}, step {step + 1}")
    chains: dict[int, tuple] = {}  # (g_obs, reports), one per selected chain
    choices = []
    for i, (score, j, observed, kept) in enumerate(best):
        if j not in chains:
            if observed is None:  # spectral: a signal and reports for the selected chains only
                observed = _observation(grid, pair, ks[j:j + 1])
                kept = spectral_reports(problem.op, observed, alpha, problem.penalty, kept)
            chains[j] = observed, kept
        g_obs, reports = chains[j]
        r = reports[i]
        kl = score if sweep.metric == "kl" else _error(problem, "kl", r.minimizer)
        l1 = score if sweep.metric == "l1" else _error(problem, "l1", r.minimizer)
        choices.append(Choice(int(ks[j]), g_obs, reports, (kl, l1, r.data_residual, r.iterations)))
    return Search(ks, scores, iterations, choices)


def _rows(config: ExperimentConfig, problem: Problem, pair: tuple[float, float]) -> list[SweepRow]:
    choices = worst_case_search(config, problem, *pair).choices
    return [SweepRow(*pair, c.k, n, *c.metrics) for n, c in enumerate(choices, start=1)]


def _sweep(
    config: ExperimentConfig, problem: Problem, pairs: Sequence, threads: int = 1
) -> list[SweepRow]:
    """The rows of one worst-case search per (delta, alpha) pair, in pair order."""
    chunks = _map(partial(_rows, config, problem), pairs, threads)
    return [row for chunk in chunks for row in chunk]


def rate_sweep(
    config: ExperimentConfig,
    threads: int = 1,
    problem: Problem | None = None,
) -> list[SweepRow]:
    """One row per (delta, bregman step), deltas in config order, steps ascending,
    at alpha = alpha_c delta^alpha_sigma; one search per delta, on at most
    ``threads`` worker processes.

    Pass ``problem`` to sweep a synthetic problem instead of the configured one.
    """
    if problem is None:
        problem = build_problem(config.problem)
    sweep = config.sweep
    pairs = [(d, apriori_alpha(d, sweep.alpha_c, sweep.alpha_sigma)) for d in sweep.deltas]
    return _sweep(config, problem, pairs, threads)


def approx_error_sweep(config: ExperimentConfig, problem: Problem | None = None) -> list[SweepRow]:
    """Exact-data sweep over ``config.sweep.alphas``: rows carry delta = 0 and
    k_worst = 0.

    Rows are emitted in the configured alpha order (unsorted), steps
    ascending within each alpha.
    """
    alphas = config.sweep.alphas
    if not alphas:
        raise ConfigError("alphas must be non-empty: set [sweep] alphas")
    if problem is None:
        problem = build_problem(config.problem)
    sweep = replace(config.sweep, noise=NoiseModel(kind="exact"))
    return _sweep(replace(config, sweep=sweep), problem, [(0.0, alpha) for alpha in alphas])


class Calibration(NamedTuple):
    """The chosen constant, every candidate's objective in order, and the
    :func:`rate_sweep` rows at alpha_c = c. A single candidate is taken
    without a sweep: no objectives, and rows None."""

    c: float
    objectives: tuple[float, ...]
    rows: list[SweepRow] | None


def calibrate_c(
    config: ExperimentConfig, threads: int = 1, problem: Problem | None = None
) -> Calibration:
    """Pick the rule constant of ``config.sweep.calibrate_cs`` minimizing
    max_delta error(delta) / delta^rate.

    The error column, target step and predicted rate come from the sweep
    configuration; the delta grid is the configured one, so calibration on
    a reduced grid just means passing a reduced config. Each (constant,
    delta) pair is one search, on at most ``threads`` worker processes. The
    winner's rows come with it, so a caller need not sweep it again.
    """
    sweep, cs = config.sweep, config.sweep.calibrate_cs
    if not cs:
        raise ConfigError("calibrate_cs must be non-empty: set [sweep] calibrate_cs")
    if sweep.predicted_rate is None:
        raise ConfigError("predicted_rate must be set in [sweep] to calibrate c")
    if len(cs) == 1:
        return Calibration(cs[0], (), None)
    if problem is None:
        problem = build_problem(config.problem)
    pairs = [(d, apriori_alpha(d, c, sweep.alpha_sigma)) for c in cs for d in sweep.deltas]
    rows = _sweep(config, problem, pairs, threads)
    size = len(sweep.deltas) * sweep.bregman_steps  # one constant's rows
    trials = [rows[i:i + size] for i in range(0, len(rows), size)]
    col = "kl_error" if sweep.metric == "kl" else "l1_error"
    objectives = tuple(max(getattr(r, col) / r.delta**sweep.predicted_rate
                           for r in trial if r.n_bregman == sweep.bregman_steps)
                       for trial in trials)
    best = int(np.argmin(objectives))
    return Calibration(cs[best], objectives, trials[best])


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
