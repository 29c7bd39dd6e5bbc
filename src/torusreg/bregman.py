"""Bregman iteration: repeated Tikhonov steps with the penalty replaced by
the Bregman distance to the previous iterate.

For the quadratic penalty this is classical iterated Tikhonov (the step-n
prior is the previous iterate); for the entropy penalty the step-n penalty
is KL(., f_{n-1}) as long as the iterates stay inside the box. A chain is
its list of solve reports, one per step. The step dual
p_n = (g - T f_n) / alpha comes from the extremal relation, exact in the
Hilbert fidelity case, and is the report's ``dual``; the pullbacks T* p_k
sum to a subgradient of the original penalty at f_n, which
:func:`accumulated_subgradient` computes from the reports when asked.
"""

from __future__ import annotations

import warnings

from .errors import AT_LEAST_ONE, InteriorityWarning, check_value
from .functionals import TOUCH_TOL, Penalty
# apply stays importable here: perfbench/spans.py patches torusreg.bregman.apply
from .operators import FourierMultiplierOperator, apply  # noqa: F401
from .solvers import SolveReport, SolverConfig, solve_generalized_dr
from .torus import Signal

__all__ = ["accumulated_subgradient", "bregman_iterate", "step_penalty"]


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
) -> list[SolveReport]:
    """Run n_steps of the Bregman iteration, returning one solve report per step."""
    check_value("n_steps", n_steps, int, AT_LEAST_ONE)
    reports: list[SolveReport] = []
    previous: Signal | None = None
    for _ in range(n_steps):
        report = solve_generalized_dr(op, g_obs, alpha, step_penalty(penalty, previous), cfg)
        reports.append(report)
        previous = report.minimizer
    return reports


def accumulated_subgradient(op: FourierMultiplierOperator, reports: list[SolveReport]) -> Signal:
    """sum_k T* p_k over the reports of a chain's first steps, a subgradient
    of the original penalty at the last minimizer (zero for no reports).

    Summed on the rfft half spectrum in step order: T* p_k is mode-wise
    -mu m^_k / alpha, with m^_k the report's ``misfit_rfft``.
    """
    acc = 0.0 * op.symbol_rfft
    for r in reports:
        acc = acc - op.symbol_rfft * r.misfit_rfft / r.alpha
    return Signal.from_rfft(op.grid, acc)
