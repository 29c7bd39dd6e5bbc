"""Minimization of (1/alpha) S(Tf - g) + R(f).

Quadratic penalties admit an exact mode-wise solution; general penalties
(entropy with box constraints) are handled by Douglas-Rachford splitting
on F1 = (1/alpha) S(T. - g) and F2 = R, both of which have cheap proxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonConvergence, Unsupported
from .functionals import Penalty, QuadraticPenalty, fidelity_prox_map, prox_fidelity
from .operators import FourierMultiplierOperator, apply
from .torus import Signal, check_same_grid, norm_l2

__all__ = ["SolverConfig", "SolveReport", "solve_quadratic_spectral", "solve_generalized_dr"]

BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Douglas-Rachford parameters.

    ``gamma`` is the splitting step. ``None`` selects the penalty-curvature
    scale gamma = 1, which contracts uniformly in alpha; with gamma ~ alpha
    the penalty prox degenerates to the identity and the iteration stalls
    for small alpha (factor 1 - O(alpha) per step).
    """

    gamma: float | None = None
    relax: float = 1.0
    max_iter: int = 20000
    tol: float = 1e-10
    method: str = "dr"

    def __post_init__(self):
        if self.gamma is not None and not 0 < self.gamma < np.inf:
            raise ConfigError(f"gamma must be finite and positive, got {self.gamma}")
        if not 0 < self.relax <= 2:
            raise ConfigError("relaxation must lie in (0, 2]")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if not 0 < self.tol < np.inf:
            raise ConfigError(f"tol must be finite and positive, got {self.tol}")
        if self.method not in ("dr", "spectral"):
            raise ConfigError(f"unknown solver method {self.method!r}")

    def effective_gamma(self) -> float:
        return 1.0 if self.gamma is None else self.gamma


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome: minimizer plus convergence diagnostics.

    ``misfit`` is Tf - g at the minimizer (the objective's data term, the
    step dual's numerator and the data residual all come from it).
    ``boundary_touch`` flags samples within 1e-9 of a box bound (the test
    problems never activate the constraints; this makes that visible).
    """

    minimizer: Signal = field(repr=False)
    misfit: Signal = field(repr=False)
    iterations: int
    final_residual: float
    objective: float
    boundary_touch: bool = False


def solve_quadratic_spectral(
    op: FourierMultiplierOperator,
    g_obs: Signal,
    alpha: float,
    prior: Signal,
) -> Signal:
    """Exact minimizer of (1/alpha) 1/2 ||Tf - g||^2 + 1/2 ||f - prior||^2.

    This is the fidelity prox with unit step at the prior; mode-wise
    f_j = (prior_j + mu_j g_j / alpha) / (1 + mu_j^2 / alpha).
    """
    return prox_fidelity(op, g_obs, prior, 1.0, alpha)


def _report(
    alpha, penalty, f: Signal, misfit: Signal, iterations: int, residual: float
) -> SolveReport:
    return SolveReport(
        minimizer=f,
        misfit=misfit,
        iterations=iterations,
        final_residual=residual,
        objective=0.5 * norm_l2(misfit) ** 2 / alpha + penalty.value(f),
        boundary_touch=_boundary_touch(penalty, f),
    )


def _rms(v: np.ndarray) -> float:
    """norm_l2 on a plain array."""
    return math.sqrt(float(np.dot(v, v)) / v.size)


def _boundary_touch(penalty, f: Signal) -> bool:
    if not hasattr(penalty, "box_lo"):
        return False
    v = f.values
    return bool(
        np.any(v <= penalty.box_lo + BOUNDARY_TOL) or np.any(v >= penalty.box_hi - BOUNDARY_TOL)
    )


def solve_generalized_dr(
    op: FourierMultiplierOperator,
    g_obs: Signal,
    alpha: float,
    penalty: Penalty,
    cfg: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Douglas-Rachford splitting for (1/alpha) 1/2 ||Tf - g||^2 + R(f).

    Iterates u = prox_{gamma R}(z), z <- z + relax (prox_{gamma F1}(2u - z) - u)
    and stops once the relative step ||z+ - z|| / max(1, ||z||) drops below
    ``cfg.tol``; the reported minimizer is the penalty-prox point u, which is
    feasible with respect to box constraints by construction. The loop runs
    on plain arrays with both proxes' constants computed once per solve; a
    non-finite step stops it at once. ``alpha`` must be finite and positive.
    """
    check_same_grid(op, g_obs, penalty.prior)
    if cfg.method == "spectral":
        if not isinstance(penalty, QuadraticPenalty):
            raise Unsupported("spectral solve requires a quadratic penalty")
        f = solve_quadratic_spectral(op, g_obs, alpha, penalty.prior)
        misfit = Signal.from_rfft(g_obs.grid, op.symbol_rfft * f.rfft - g_obs.rfft)
        return _report(alpha, penalty, f, misfit, 0, 0.0)

    gamma, relax, tol = cfg.effective_gamma(), cfg.relax, cfg.tol
    prox_penalty = penalty.prox_map(gamma)
    # from the samples, not g_obs.rfft: exact data made by apply keep mu f^,
    # which differs from the rfft of their samples at round-off, and at tiny
    # alpha the DR stopping step, hence its rows, follows round-off
    prox_data = fidelity_prox_map(op, g_obs.values, gamma, alpha)
    z = penalty.prior.values
    u = prox_penalty(z)
    z_norm = _rms(z)
    residual = float("inf")
    for it in range(1, cfg.max_iter + 1):
        reflected = u + u
        reflected -= z
        step = prox_data(reflected)
        step -= u
        if relax != 1.0:
            step *= relax
        residual = _rms(step) / max(1.0, z_norm)
        if not math.isfinite(residual):
            raise NonConvergence(
                f"Douglas-Rachford step became non-finite at iteration {it} "
                f"(gamma/alpha = {gamma / alpha:.3e})",
                final_residual=residual,
                iterations=it,
            )
        z = z + step
        z_norm = _rms(z)
        u = prox_penalty(z)
        if residual <= tol:
            f = Signal(g_obs.grid, u)
            return _report(alpha, penalty, f, apply(op, f) - g_obs, it, residual)
    raise NonConvergence(
        f"Douglas-Rachford did not reach tol {cfg.tol:.1e} in {cfg.max_iter} iterations "
        f"(residual {residual:.3e}); retry with a larger gamma",
        final_residual=residual,
        iterations=cfg.max_iter,
    )
