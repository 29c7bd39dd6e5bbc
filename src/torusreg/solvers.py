"""Minimization of (1/alpha) S(Tf - g) + R(f).

Quadratic penalties admit an exact mode-wise solution; general penalties
(entropy with box constraints) are handled by Douglas-Rachford splitting
on F1 = (1/alpha) S(T. - g) and F2 = R, both of which have cheap proxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AT_LEAST_ONE, POSITIVE, NonConvergence, check_fields, check_value, one_of
# prox_fidelity and apply stay importable here: perfbench/spans.py patches both on torusreg.solvers
from .functionals import Penalty, _fidelity_prox_constants, prox_fidelity  # noqa: F401
from .operators import FourierMultiplierOperator, apply  # noqa: F401
from .torus import Signal, check_same_grid, norm_l2, norm_l2_rfft

__all__ = ["SolverConfig", "SolveReport", "solve_generalized_dr"]


@dataclass(frozen=True)
class SolverConfig:
    """Douglas-Rachford parameters.

    ``gamma`` is the splitting step. The default 1 is the penalty-curvature
    scale, which contracts uniformly in alpha; with gamma ~ alpha the
    penalty prox degenerates to the identity and the iteration stalls for
    small alpha (factor 1 - O(alpha) per step).
    """

    gamma: float = field(default=1.0, metadata=POSITIVE)
    max_iter: int = field(default=20000, metadata=AT_LEAST_ONE)
    tol: float = field(default=1e-10, metadata=POSITIVE)
    method: str = field(default="dr", metadata=one_of("dr", "spectral"))

    __post_init__ = check_fields


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome: minimizer plus convergence diagnostics.

    ``alpha`` and ``penalty`` are the problem solved. ``misfit_rfft`` is
    the rfft half spectrum mu f^ - g^ of the misfit Tf - g at the minimizer
    f (read-only), formed from the two signals' half spectra for a DR solve
    and a closed-form step (``bregman.spectral_reports``, for a chain kept) alike.
    ``data_residual`` (the misfit's L2 norm, from ``misfit_rfft`` by
    Parseval), ``misfit`` (the misfit's samples, irfft(misfit_rfft)),
    ``objective`` and ``dual`` (the Bregman step dual (g - Tf) / alpha) are
    computed on first read and kept; a worst-case search reads them for
    its selected candidates only.
    ``boundary_touch`` is the penalty's: a sample within
    ``functionals.TOUCH_TOL`` of a box bound (the test problems never
    activate the constraints; this makes that visible).
    """

    minimizer: Signal = field(repr=False)
    misfit_rfft: np.ndarray = field(repr=False)
    iterations: int
    final_residual: float
    alpha: float
    penalty: Penalty = field(repr=False)
    boundary_touch: bool = False

    __setstate__ = Signal.__setstate__  # unpickled arrays are frozen again

    @cached_property
    def data_residual(self) -> float:
        """||Tf - g|| at the minimizer."""
        return norm_l2_rfft(self.misfit_rfft, self.minimizer.grid.n)

    @cached_property
    def misfit(self) -> Signal:
        """Tf - g at the minimizer."""
        return Signal.from_rfft(self.minimizer.grid, self.misfit_rfft)

    @cached_property
    def objective(self) -> float:
        """(1/alpha) 1/2 ||Tf - g||^2 + R(f) at the minimizer."""
        return 0.5 * norm_l2(self.misfit) ** 2 / self.alpha + self.penalty.value(self.minimizer)

    @cached_property
    def dual(self) -> Signal:
        """(g - Tf) / alpha, the step dual of the extremal relation."""
        return (-1.0 / self.alpha) * self.misfit


def solve_quadratic_spectral(
    shift: np.ndarray, prior_rfft: np.ndarray, recip: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Half spectrum of the exact minimizer of (1/alpha) 1/2 ||Tf - g||^2 + 1/2 ||f - prior||^2:
    (shift + prior_rfft) * recip, written into ``out`` and returned; the
    fidelity prox with unit step at the prior, mode-wise
    f_j = (prior_j + mu_j g_j / alpha) / (1 + mu_j^2 / alpha).

    ``shift`` = t mu g^ and ``recip`` = 1 / (1 + t mu^2), t = 1/alpha, are
    :func:`~torusreg.functionals._fidelity_prox_constants` of the operator
    and g's half spectrum at unit step, which tests alpha, formed once per
    chain or search; only ``out`` is written. Nothing is tested
    here: ``bregman.spectral_chain`` is the only caller, and
    ``bregman.spectral_constants`` tests the shapes once per chain or
    spectral search, before any solve; the search tests the finiteness.
    """
    out = np.add(shift, prior_rfft, out=out)
    return np.multiply(out, recip, out=out)


def _report(op, g_obs: Signal, alpha, penalty, f: Signal, iterations, residual) -> SolveReport:
    """The report of the minimizer f of a DR solve or a closed-form step on g_obs."""
    misfit_rfft = op.symbol_rfft * f.rfft - g_obs.rfft
    misfit_rfft.setflags(write=False)
    return SolveReport(
        minimizer=f,
        misfit_rfft=misfit_rfft,
        iterations=iterations,
        final_residual=residual,
        alpha=alpha,
        penalty=penalty,
        boundary_touch=penalty.boundary_touch(f),
    )


def _rms(v: np.ndarray) -> float:
    """norm_l2 on a plain array."""
    return math.sqrt(float(np.dot(v, v)) / v.size)


def solve_generalized_dr(
    op: FourierMultiplierOperator,
    g_obs: Signal,
    alpha: float,
    penalty: Penalty,
    cfg: SolverConfig = SolverConfig(),
) -> SolveReport:
    """Douglas-Rachford splitting for (1/alpha) 1/2 ||Tf - g||^2 + R(f).

    Iterates u = prox_{gamma R}(z), z <- z + prox_{gamma F1}(2u - z) - u
    and stops once the relative step ||z+ - z|| / max(1, ||z||) drops below
    ``cfg.tol``; the reported minimizer is the penalty-prox point u, which is
    feasible with respect to box constraints by construction. The loop runs
    on plain arrays with both proxes' constants computed once per solve; a
    non-finite step stops it at once. ``alpha`` must be finite and positive;
    ``cfg.method`` must be ``"dr"`` (``bregman_iterate`` runs ``"spectral"``).

    The data are read by their half spectrum ``g_obs.rfft``. The solve owns
    its work arrays: z starts as a copy of the prior, and the fidelity prox
    (c + t mu g^) / (1 + t mu^2) on the half spectrum c of 2u - z, with
    t = gamma/alpha (:func:`~torusreg.functionals._fidelity_prox_constants`),
    runs in place on one real and one half-spectrum buffer, and the penalty
    prox writes into u (its ``out``), so an iteration allocates no array.
    Neither the penalty's prior nor ``g_obs`` is written. A solve costs 2
    FFTs per iteration and the minimizer's rfft; the loop's two are looked
    up on ``np.fft`` per solve, so that a name patched there sees every call.
    """
    check_value("method", cfg.method, str, one_of("dr"))
    check_same_grid(op, g_obs, penalty.prior)
    gamma, tol, n = cfg.gamma, cfg.tol, g_obs.grid.n
    prox_penalty = penalty.prox_map(gamma)
    shift, recip = _fidelity_prox_constants(op, g_obs.rfft, gamma, alpha)
    rfft, irfft = np.fft.rfft, np.fft.irfft
    z = penalty.prior.values.copy()
    step, c = np.empty(n), np.empty(n // 2 + 1, dtype=complex)
    u = prox_penalty(z)
    z_norm = _rms(z)
    residual = float("inf")
    for it in range(1, cfg.max_iter + 1):
        np.add(u, u, out=step)
        step -= z
        rfft(step, out=c)
        c += shift
        c *= recip
        irfft(c, n, out=step)
        step -= u
        residual = _rms(step) / max(1.0, z_norm)
        if not math.isfinite(residual):
            raise NonConvergence(
                f"Douglas-Rachford step became non-finite at iteration {it} "
                f"(gamma/alpha = {gamma / alpha:.3e})",
                final_residual=residual,
                iterations=it,
            )
        z += step
        z_norm = _rms(z)
        u = prox_penalty(z, u)
        if residual <= tol:
            return _report(op, g_obs, alpha, penalty, Signal(g_obs.grid, u), it, residual)
    raise NonConvergence(
        f"Douglas-Rachford did not reach tol {cfg.tol:.1e} in {cfg.max_iter} iterations "
        f"(residual {residual:.3e}); retry with a larger gamma",
        final_residual=residual,
        iterations=cfg.max_iter,
    )
