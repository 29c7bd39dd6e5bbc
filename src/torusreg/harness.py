"""Experiment orchestration: noise models, parameter rules, sweeps and fits.

Reproduces the convergence-rate experiment: build the periodic test
problem, perturb the exact data by the worst sinusoid in the noise ball,
apply the a-priori rule alpha = c delta^sigma, run the Bregman chain, and
fit log-log slopes of the recorded errors. All sweeps are deterministic:
candidate and row order is fixed by the configuration, and argmax/argmin
ties break on the first index.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .bregman import BregmanState, bregman_iterate
from .errors import ConfigError, InsufficientData, NonPositiveError
from .functionals import EntropyPenalty, Penalty, QuadraticPenalty
from .operators import FourierMultiplierOperator, apply, make_inverse_helmholtz
from .solvers import SolverConfig
from .torus import Signal, TorusGrid, bspline_truth, norm_l1_array, norm_l2

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
    "sinusoid_noise",
    "Choice",
    "worst_case_search",
    "apriori_alpha",
    "calibrate_c",
    "approx_error_sweep",
    "rate_sweep",
    "fit_rate",
    "geometric_grid",
]


def _check_finite_positive(name: str, values) -> None:
    a = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(a) & (a > 0)):
        raise ConfigError(f"{name} must be finite and positive, got {tuple(a.tolist())}")


def _check_frequency(name: str, k: int, n: int) -> None:
    """Sinusoid frequencies beyond 1..n/2 - 1 alias on n points (k = n/2 samples to 0)."""
    if not 1 <= k <= n // 2 - 1:
        raise ConfigError(f"{name} must lie in [1, n/2 - 1] = [1, {n // 2 - 1}], got {k}")


def _map(fn, jobs: Sequence, threads: int) -> list:
    """``[fn(job) for job in jobs]``, on min(threads, len(jobs)) worker processes.

    One worker runs in-process; a pool starts every worker at once, so it is
    never larger than the job count.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def geometric_grid(top: float, bottom: float, count: int) -> tuple[float, ...]:
    """Strictly decreasing geometric grid from top to bottom inclusive."""
    if not 0 < top < np.inf:
        raise ConfigError(f"top must be finite and positive, got {top}")
    if not 0 < bottom < top:
        raise ConfigError(f"bottom must lie in (0, top = {top}), got {bottom}")
    if count < 2:
        raise ConfigError(f"count must be >= 2, got {count}")
    return tuple(np.geomspace(top, bottom, count).tolist())


@dataclass(frozen=True)
class ProblemConfig:
    n: int = 480
    penalty: str = "entropy"
    bspline_degree: int = 5
    prior_value: float = 1.0
    box_lo: float = 0.0
    box_hi: float = 5.0

    def __post_init__(self):
        if self.penalty not in ("entropy", "quadratic"):
            raise ConfigError(f"unknown penalty {self.penalty!r}")
        if not 0 < self.prior_value < np.inf:
            raise ConfigError(f"prior_value must be finite and positive, got {self.prior_value}")
        for name in ("box_lo", "box_hi"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class NoiseModel:
    kind: str = "worst_case"
    k_max: int = 32
    k_fixed: int = 1

    def __post_init__(self):
        if self.kind not in ("exact", "worst_case", "fixed_sinusoid"):
            raise ConfigError(f"unknown noise model {self.kind!r}")
        if self.k_max < 1 or self.k_fixed < 1:
            raise ConfigError("noise frequencies must be >= 1")


@dataclass(frozen=True)
class SweepConfig:
    deltas: tuple[float, ...] = field(default_factory=lambda: geometric_grid(1e-1, 1e-4, 12))
    alphas: tuple[float, ...] | None = None
    alpha_c: float = 1.0
    alpha_sigma: float = 8.0 / 15.0
    bregman_steps: int = 2
    noise: NoiseModel = field(default_factory=NoiseModel)
    metric: str = "kl"
    predicted_rate: float | None = None
    calibrate_cs: tuple[float, ...] | None = None

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=float)
        if d.size == 0 or not np.all(np.isfinite(d) & (d > 0)) or np.any(np.diff(d) >= 0):
            raise ConfigError("deltas must be finite, strictly positive and strictly decreasing")
        if self.alphas is not None:
            _check_finite_positive("alphas", self.alphas)
        if self.calibrate_cs is not None:
            _check_finite_positive("calibrate_cs", self.calibrate_cs)
        if not 0 < self.alpha_c < np.inf:
            raise ConfigError(f"alpha_c must be finite and positive, got {self.alpha_c}")
        if self.predicted_rate is not None and not np.isfinite(self.predicted_rate):
            raise ConfigError(f"predicted_rate must be finite, got {self.predicted_rate}")
        if not 0 < self.alpha_sigma <= 2:
            raise ConfigError("alpha rule exponent must lie in (0, 2]")
        if self.bregman_steps < 1:
            raise ConfigError("bregman_steps must be >= 1")
        if self.metric not in ("kl", "l1"):
            raise ConfigError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    csv_name: str = "sweep.csv"
    svg_name: str = "sweep.svg"
    write_svg: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


@dataclass(frozen=True)
class Problem:
    grid: TorusGrid
    op: FourierMultiplierOperator
    penalty: Penalty
    f_true: Signal = field(repr=False)
    g_true: Signal = field(repr=False)


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
    kl_error: float
    l1_error: float
    data_residual: float
    dr_iterations: int

    def __post_init__(self):
        for name in ("kl_error", "l1_error", "data_residual"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and non-negative, got {v}")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def sinusoid_noise(grid: TorusGrid, delta: float, k: int) -> Signal:
    """delta * sin(2 pi k x); its L2 norm is delta/sqrt(2) <= delta."""
    return Signal(grid, _sinusoid(grid, delta, k))


def _sinusoid(grid: TorusGrid, delta: float, k: int) -> np.ndarray:
    return delta * np.sin(2.0 * np.pi * k * grid.points)


def apriori_alpha(delta: float, c: float, sigma: float) -> float:
    """A-priori rule alpha = c * delta^sigma."""
    for name, value in (("delta", delta), ("c", c), ("sigma", sigma)):
        if not 0 < value < np.inf:
            raise ConfigError(f"apriori rule needs finite positive {name}, got {value}")
    return c * delta**sigma


class Choice(NamedTuple):
    """The candidate a worst-case search selected for one Bregman step."""

    k: int  # noise frequency; 0 for exact data
    g_obs: Signal
    states: list[BregmanState]  # the whole chain run on g_obs
    metrics: tuple[float, float, float, int]  # (kl, l1, data residual, DR iterations)


def _chain_metrics(
    problem: Problem,
    g_obs: Signal,
    alpha: float,
    n_steps: int,
    solver: SolverConfig,
) -> tuple[list[BregmanState], list[tuple[float, float, float, int]]]:
    """The chain on g_obs and (kl, l1, data residual, iterations) for each step."""
    states = bregman_iterate(problem.op, g_obs, alpha, problem.penalty, n_steps, solver)
    out = []
    for st in states:
        kl = problem.penalty.bregman(st.iterate, problem.f_true)
        l1 = norm_l1_array(st.iterate.values - problem.f_true.values)
        resid = norm_l2(st.report.misfit)
        out.append((kl, l1, resid, st.report.iterations))
    return states, out


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
    """
    sweep, noise, n = config.sweep, config.sweep.noise, problem.grid.n
    if not delta >= 0:
        raise ConfigError(f"delta must be non-negative, got {delta}")
    if noise.kind == "exact":
        ks = [0]
    elif noise.kind == "fixed_sinusoid":
        _check_frequency("k_fixed", noise.k_fixed, n)
        ks = [noise.k_fixed]
    else:
        _check_frequency("k_max", noise.k_max, n)
        ks = range(1, noise.k_max + 1)
    col = 0 if sweep.metric == "kl" else 1
    best: list[Choice | None] = [None] * sweep.bregman_steps
    for k in ks:
        g_obs = problem.g_true
        if k:  # g_true + sinusoid_noise(grid, delta, k), as one signal
            g_obs = Signal(problem.grid, g_obs.values + _sinusoid(problem.grid, delta, k))
        states, metrics = _chain_metrics(problem, g_obs, alpha, sweep.bregman_steps, config.solver)
        for i, m in enumerate(metrics):
            if best[i] is None or m[col] > best[i].metrics[col]:
                best[i] = Choice(k, g_obs, states, m)
    return best


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
        raise ConfigError("approx_error_sweep needs an alpha list")
    _check_finite_positive("alphas", alphas)
    if problem is None:
        problem = build_problem(config.problem)
    exact = replace(config, sweep=replace(config.sweep, noise=NoiseModel(kind="exact")))
    return [row for alpha in alphas
            for row in _rows(0.0, alpha, worst_case_search(exact, problem, 0.0, alpha))]


def _calibration_objective(config: ExperimentConfig, c: float, problem: Problem) -> float:
    trial = replace(config, sweep=replace(config.sweep, alpha_c=c))
    rows = rate_sweep(trial, problem=problem)
    target_n = config.sweep.bregman_steps
    rate = config.sweep.predicted_rate
    col = "kl_error" if config.sweep.metric == "kl" else "l1_error"
    worst = -float("inf")
    for row in rows:
        if row.n_bregman == target_n:
            worst = max(worst, getattr(row, col) / row.delta**rate)
    return worst


def calibrate_c(
    config: ExperimentConfig,
    candidate_cs: Sequence[float] | None = None,
    threads: int = 1,
    problem: Problem | None = None,
) -> float:
    """Pick the rule constant minimizing max_delta error(delta) / delta^rate.

    The error column, target step and predicted rate come from the sweep
    configuration; the delta grid is the configured one, so calibration on
    a reduced grid just means passing a reduced config.
    """
    if candidate_cs is None:
        candidate_cs = config.sweep.calibrate_cs
    if not candidate_cs:
        raise ConfigError("calibrate_c needs candidate constants")
    if config.sweep.predicted_rate is None:
        raise ConfigError("calibrate_c needs sweep.predicted_rate")
    _check_finite_positive("calibrate_cs", candidate_cs)
    cs = list(candidate_cs)
    if len(cs) == 1:
        return cs[0]
    if problem is None:
        problem = build_problem(config.problem)
    objectives = _map(partial(_calibration_objective, config, problem=problem), cs, threads)
    return cs[int(np.argmin(objectives))]


def fit_rate(
    rows: Sequence[SweepRow],
    x: str = "delta",
    y: str = "kl_error",
    n_bregman: int | None = None,
) -> RateFit:
    """Least-squares slope of log y against log x over the filtered rows.

    Positive slope means the error decays like x^slope as x shrinks.
    """
    if x not in ("delta", "alpha") or y not in ("kl_error", "l1_error"):
        raise ConfigError(f"cannot fit {y!r} against {x!r}")
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
