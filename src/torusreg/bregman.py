"""Bregman iteration: repeated Tikhonov steps with the penalty replaced by
the Bregman distance to the previous iterate.

For the quadratic penalty this is classical iterated Tikhonov (the step-n
prior is the previous iterate); for the entropy penalty the step-n penalty
is KL(., f_{n-1}) as long as the iterates stay inside the box. Dual
variables come from the extremal relation p_n = (g - T f_n) / alpha, which
is exact in the Hilbert fidelity case (the chain reads T f_n - g off the
solve report), and their pullbacks T* p_k accumulate, on the rfft half
spectrum, to a subgradient of the original penalty at f_n.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InteriorityWarning, SubgradientUndefined
from .functionals import EntropyPenalty, Penalty
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

INTERIOR_TOL = 1e-9


@dataclass(frozen=True)
class BregmanState:
    """State after step n: iterate, step dual, accumulated dual pullback."""

    n: int
    iterate: Signal = field(repr=False)
    dual: Signal = field(repr=False)
    accumulated_subgradient: Signal = field(repr=False)
    report: SolveReport = field(repr=False)


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
    touching zero has no subgradient selection.
    """
    if previous is None:
        return penalty
    if isinstance(penalty, EntropyPenalty):
        pv = previous.values
        if np.any(pv <= 0):
            raise SubgradientUndefined(
                "previous entropy iterate touches zero; no subgradient selection"
            )
        if np.any(pv <= penalty.box_lo + INTERIOR_TOL) or np.any(
            pv >= penalty.box_hi - INTERIOR_TOL
        ):
            warnings.warn(
                "previous iterate within 1e-9 of the box bounds; the interior "
                "Bregman step formula is used anyway",
                InteriorityWarning,
                stacklevel=3,
            )
    return penalty.with_prior(previous)


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
        f_n = report.minimizer
        p_n = (-1.0 / alpha) * report.misfit
        # T* p_n = -T misfit / alpha, mode-wise -mu misfit^ / alpha
        accumulated_rfft = accumulated_rfft - op.symbol_rfft * report.misfit.rfft / alpha
        accumulated = Signal.from_rfft(g_obs.grid, accumulated_rfft)
        states.append(
            BregmanState(
                n=n,
                iterate=f_n,
                dual=p_n,
                accumulated_subgradient=accumulated,
                report=report,
            )
        )
        previous = f_n
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
