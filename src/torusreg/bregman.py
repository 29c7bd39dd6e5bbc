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

import numpy as np

from . import solvers
from .errors import AT_LEAST_ONE, GridMismatch, InteriorityWarning, Unsupported, check_value
from .functionals import TOUCH_TOL, Penalty, QuadraticPenalty, _fidelity_prox_constants
# apply stays importable here: perfbench/spans.py patches torusreg.bregman.apply
from .operators import FourierMultiplierOperator, apply  # noqa: F401
from .solvers import SolveReport, SolverConfig, solve_generalized_dr
from .torus import Signal, check_same_grid

__all__ = ["accumulated_subgradient", "bregman_iterate", "spectral_chain", "spectral_constants",
           "spectral_reports", "step_penalty"]


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


def spectral_constants(
    op: FourierMultiplierOperator, g_rfft: np.ndarray, alpha: float, penalty: Penalty
) -> tuple[np.ndarray, np.ndarray]:
    """The shift t mu g^, shaped as g_rfft (one half spectrum or a stack), and
    the reciprocal 1/(1 + t mu^2), t = 1/alpha, of the quadratic chains on
    g_rfft: one :func:`~torusreg.functionals._fidelity_prox_constants` call,
    which tests alpha. A non-quadratic penalty raises :class:`Unsupported`,
    and a g_rfft whose last axis, or a prior whose shape, is not the
    operator's n/2 + 1 modes raises :class:`GridMismatch` naming it."""
    if not isinstance(penalty, QuadraticPenalty):
        raise Unsupported("spectral solve requires a quadratic penalty")
    modes, prior = op.symbol_rfft.shape, penalty.prior.rfft
    if g_rfft.shape[-1:] != modes or prior.shape != modes:  # inline: one test per chain or search
        name, c = ("g_rfft", g_rfft) if g_rfft.shape[-1:] != modes else ("prior_rfft", prior)
        raise GridMismatch(
            f"{name} must have the operator's {modes[0]} half-spectrum modes (n = {op.grid.n}), "
            f"got shape {c.shape}")
    return _fidelity_prox_constants(op, g_rfft, 1.0, alpha)


def spectral_chain(
    shifts: list[np.ndarray], prior_rfft: np.ndarray, recip: np.ndarray, chain: list[list]
) -> None:
    """The quadratic chains (iterated Tikhonov), one per shift row: step n's
    minimizers' half spectra are written into the row views ``chain[n - 1]``,
    whose rows beyond ``len(shifts)`` are left as they are.

    Each (row, step) is one ``solvers.solve_quadratic_spectral`` call, looked
    up on the module so that a name patched there sees each solve, with the
    row's shift, the prior f_{n-1} (``prior_rfft`` at step 1) and its out
    row, which the solve writes. Nothing is tested here:
    :func:`spectral_constants` tests the arguments, the caller finiteness."""
    solve, previous = solvers.solve_quadratic_spectral, [prior_rfft] * len(shifts)
    for outs in chain:
        for s, p, out in zip(shifts, previous, outs):
            solve(s, p, recip, out)
        previous = outs


def spectral_reports(
    op: FourierMultiplierOperator, g_obs: Signal, alpha: float, penalty: Penalty, chain: list
) -> list[SolveReport]:
    """The solve reports of a :func:`spectral_chain` on g_obs: 0 iterations, residual 0."""
    reports, previous = [], None
    for c in chain:
        f = Signal.from_rfft(g_obs.grid, c)  # tests that the half spectrum is finite
        step = step_penalty(penalty, previous)
        reports.append(solvers._report(op, g_obs, alpha, step, f, 0, 0.0))
        previous = f
    return reports


def bregman_iterate(
    op: FourierMultiplierOperator,
    g_obs: Signal,
    alpha: float,
    penalty: Penalty,
    n_steps: int,
    cfg: SolverConfig = SolverConfig(),
) -> list[SolveReport]:
    """Run n_steps of the Bregman iteration, returning one solve report per step;
    ``cfg.method == "spectral"`` runs the closed-form :func:`spectral_chain`."""
    check_value("n_steps", n_steps, int, AT_LEAST_ONE)
    if cfg.method == "spectral":
        check_same_grid(op, g_obs, penalty.prior)
        shift, recip = spectral_constants(op, g_obs.rfft, alpha, penalty)
        chain = [np.empty_like(shift) for _ in range(n_steps)]
        spectral_chain([shift], penalty.prior.rfft, recip, [[step] for step in chain])
        return spectral_reports(op, g_obs, alpha, penalty, chain)
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
