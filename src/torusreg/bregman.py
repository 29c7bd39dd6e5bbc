"""Bregman iteration: repeated Tikhonov steps with the penalty replaced by
the Bregman distance to the previous iterate.

For the quadratic penalty this is classical iterated Tikhonov (the step-n
prior is the previous iterate); for the entropy penalty the step-n penalty
is KL(., f_{n-1}) as long as the iterates stay inside the box. Dual
variables come from the extremal relation p_n = (g - T f_n) / alpha, which
is exact in the Hilbert fidelity case (the chain reads T f_n - g off the
solve report), and their pullbacks T* p_k accumulate, on the rfft half
spectrum, to a subgradient of the original penalty at f_n.

Each state keeps the running half-spectrum sum of the pullbacks as a plain
array. The step dual and the accumulated subgradient, like the report's
misfit samples (on the spectral route) and objective, are computed on
first read and kept, so a spectral step computes only its minimizer's
samples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, InteriorityWarning
from .functionals import TOUCH_TOL, Penalty
from .operators import FourierMultiplierOperator, apply
from .solvers import SolveReport, SolverConfig, solve_generalized_dr
from .torus import Signal, check_same_grid

__all__ = [
    "BregmanState",
    "bregman_iterate",
    "dual_variable",
    "step_penalty",
    "bregman_distance_invariance_check",
]


@dataclass(frozen=True)
class BregmanState:
    """State after step n: iterate, solve report and the half spectrum
    ``accumulated_rfft`` of the accumulated dual pullback sum_k T* p_k
    (read-only).

    ``dual`` and ``accumulated_subgradient`` are computed on first read and
    kept; alpha is the report's.
    """

    n: int
    iterate: Signal = field(repr=False)
    report: SolveReport = field(repr=False)
    accumulated_rfft: np.ndarray = field(repr=False)

    __setstate__ = Signal.__setstate__  # unpickled arrays are frozen again

    @cached_property
    def dual(self) -> Signal:
        """Step dual p_n = (g - T f_n) / alpha."""
        return (-1.0 / self.report.alpha) * self.report.misfit

    @cached_property
    def accumulated_subgradient(self) -> Signal:
        """sum_{k <= n} T* p_k, a subgradient of the original penalty at f_n."""
        return Signal.from_rfft(self.iterate.grid, self.accumulated_rfft)


def dual_variable(
    op: FourierMultiplierOperator,
    f_n: Signal,
    g_obs: Signal,
    alpha: float,
) -> Signal:
    """Step dual from the extremal relation: p = (g_obs - T f_n) / alpha."""
    if not 0 < alpha < np.inf:
        raise ConfigError(f"alpha must be finite and positive, got {alpha}")
    check_same_grid(op, f_n, g_obs)
    return (1.0 / alpha) * (g_obs - apply(op, f_n))


def step_penalty(penalty: Penalty, previous: Signal | None) -> Penalty:
    """Penalty of step n: the original R for n = 1, else D_R(., f_{n-1}).

    Quadratic: prior replaced by the previous iterate. Entropy: KL to the
    previous iterate, valid while that iterate is interior; an iterate
    touching zero has no subgradient selection, and building its penalty
    raises :class:`SubgradientUndefined`.
    """
    if previous is None:
        return penalty
    current = penalty.with_prior(previous)
    if penalty.boundary_touch(previous):
        warnings.warn(
            f"previous iterate within {TOUCH_TOL:g} of the box bounds; the interior "
            "Bregman step formula is used anyway",
            InteriorityWarning,
            stacklevel=3,
        )
    return current


def bregman_iterate(
    op: FourierMultiplierOperator,
    g_obs: Signal,
    alpha: float,
    penalty: Penalty,
    n_steps: int,
    cfg: SolverConfig = SolverConfig(),
) -> list[BregmanState]:
    """Run n_steps of the Bregman iteration, returning one state per step."""
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    states: list[BregmanState] = []
    previous: Signal | None = None
    accumulated_rfft = 0.0
    for n in range(1, n_steps + 1):
        current_penalty = step_penalty(penalty, previous)
        report = solve_generalized_dr(op, g_obs, alpha, current_penalty, cfg)
        # T* p_n = -T misfit / alpha, mode-wise -mu misfit^ / alpha
        accumulated_rfft = accumulated_rfft - op.symbol_rfft * report.misfit_rfft / alpha
        accumulated_rfft.setflags(write=False)
        states.append(BregmanState(n, report.minimizer, report, accumulated_rfft))
        previous = report.minimizer
    return states


def bregman_distance_invariance_check(
    penalty: Penalty,
    states: list[BregmanState],
    f: Signal,
    base: Signal,
) -> tuple[float, float]:
    """Bregman distance of the last step's penalty vs the original penalty's.

    The step penalties differ from R by an affine functional, so the two
    distances coincide; returns (lhs, rhs) for the caller to compare.
    """
    if not states:
        return penalty.bregman(f, base), penalty.bregman(f, base)
    current = step_penalty(penalty, states[-1].iterate)
    return current.bregman(f, base), penalty.bregman(f, base)
