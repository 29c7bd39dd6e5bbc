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
from numpy.fft import _pocketfft_umath

from .errors import AT_LEAST_ONE, POSITIVE, NonConvergence, check_fields, check_value, one_of
# prox_fidelity and apply stay importable here: perfbench/spans.py patches both on torusreg.solvers
from .functionals import Penalty, _fidelity_prox_constants, prox_fidelity  # noqa: F401
from .operators import FourierMultiplierOperator, apply  # noqa: F401
from .torus import Signal, check_same_grid, norm_l2, norm_l2_rfft

__all__ = ["SolverConfig", "SolveReport", "solve_generalized_dr"]

# The DR loop's FFT pair, bound once: see solve_generalized_dr
_rfft_even, _irfft = _pocketfft_umath.rfft_n_even, _pocketfft_umath.irfft
_SLACK = 1.0 + 1e-9  # widens the DR stop test's bound on max(1, ||z||) past round-off


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
    chain or search. Only ``out`` is written, given to both ufuncs by
    position, which numpy parses faster than a keyword (numpy 2.4
    deprecates that for maximum and minimum only). Nothing is tested here:
    ``bregman.spectral_chain`` is the only caller, its callers check the
    grids once per chain or search; the search, the finiteness.
    """
    out = np.add(shift, prior_rfft, out)
    return np.multiply(out, recip, out)


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
    """norm_l2 on a plain array, read through its ``dot`` method."""
    return math.sqrt(float(v.dot(v)) / v.size)


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
    FFTs per iteration and the minimizer's rfft. The loop's two are the
    gufuncs behind ``np.fft.rfft`` and ``np.fft.irfft`` at the default norm
    (numpy's internal ``numpy.fft._pocketfft_umath``, checked on numpy 2.4),
    called with the factors 1 and 1/n that those pass: the same bits without
    the wrappers. A grid is even, so ``rfft_n_even`` is the one forward
    kernel. The solve looks both up on this module; ``np.fft`` sees only the
    minimizer's rfft. The factors are 0-d float64 arrays made once per solve,
    the loop's ufuncs take ``out`` by position, and ||step|| and ||z|| are
    read through the arrays' ``dot`` method: at n = 480 a call costs more
    than its arithmetic, and those forms cost less per call for the same
    operations on the same values.

    ||z|| is read only where the stop test can pass: ``bound`` stays at least
    max(1, ||z||) by the triangle inequality, widened by ``_SLACK`` per step,
    and a step above tol * bound cannot stop. Stops, iterations and every
    residual reported are those of the test on ||z|| at every step, while
    ||z||^2 does not overflow.
    """
    check_value("method", cfg.method, str, one_of("dr"))
    check_same_grid(op, g_obs, penalty.prior)
    gamma, tol, max_iter, n = cfg.gamma, cfg.tol, cfg.max_iter, g_obs.grid.n
    prox_penalty = penalty.prox_map(gamma)
    shift, recip = _fidelity_prox_constants(op, g_obs.rfft, gamma, alpha)
    # constant operands as 0-d arrays, out by position: at n = 480 a
    # Python-float operand costs about 0.2 us per ufunc call
    rfft, irfft, one, inv_n = _rfft_even, _irfft, np.array(1.0), np.array(1.0 / n)
    z = penalty.prior.values.copy()
    step, c = np.empty(n), np.empty(n // 2 + 1, dtype=complex)
    u = prox_penalty(z)
    bound = max(1.0, _rms(z)) * _SLACK
    for it in range(1, max_iter + 1):
        np.add(u, u, step)
        np.subtract(step, z, step)
        rfft(step, one, c)
        np.add(c, shift, c)
        np.multiply(c, recip, c)
        irfft(c, inv_n, step)
        np.subtract(step, u, step)
        step_norm = _rms(step)
        # ||z|| where the test may pass, the step is not finite, or the loop ends
        exact = not tol * bound < step_norm < math.inf or it == max_iter
        if exact:
            z_norm = max(1.0, _rms(z))
            residual = step_norm / z_norm
            if not math.isfinite(residual):
                raise NonConvergence(
                    f"Douglas-Rachford step became non-finite at iteration {it} "
                    f"(gamma/alpha = {gamma / alpha:.3e})",
                    final_residual=residual,
                    iterations=it,
                )
            bound = z_norm * _SLACK
        np.add(z, step, z)
        bound = (bound + step_norm) * _SLACK
        u = prox_penalty(z, u)
        if exact and residual <= tol:
            return _report(op, g_obs, alpha, penalty, Signal(g_obs.grid, u), it, residual)
    raise NonConvergence(
        f"Douglas-Rachford did not reach tol {tol:.1e} in {max_iter} iterations "
        f"(residual {residual:.3e}); retry with a larger gamma",
        final_residual=residual,
        iterations=max_iter,
    )
