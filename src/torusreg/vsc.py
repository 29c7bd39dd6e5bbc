"""Variational-source-condition machinery in the Hilbert setting.

Index functions are restricted to the Hoelder family Phi(t) = A t^theta
(the only family with reproducible targets here; logarithmic decay rates
fail the dyadic summability the decay-space characterization needs).
Spectral source elements for the order-l condition are recovered by exact
mode-wise division, decay-space norms are evaluated exactly at the
eigenvalue jump points, and a randomized search looks for violations of
the defining variational inequality.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, DomainError, Unsupported, check_fields, check_value,
)
from .operators import (
    FourierMultiplierOperator,
    multiplier_power_apply,
    power_apply,
)
from .torus import Signal, norm_l2, norm_l2_rfft

__all__ = [
    "HoelderIndexFunction",
    "SourceDecomposition",
    "RatePrediction",
    "characteristic_function",
    "characteristic_inverse",
    "rate_function",
    "fenchel_psi",
    "predict_rate_hoelder",
    "predict_rate_entropy",
    "construct_source",
    "decay_space_norm",
    "vsc_violation_search",
]


_UNIT_INTERVAL = {"lie in (0, 1]": lambda v: 0 < v <= 1}
_AMPLITUDES = np.logspace(-8, 4, 61)  # the ray amplitudes t of vsc_violation_search


@dataclass(frozen=True)
class HoelderIndexFunction:
    """Phi(t) = amplitude * t**exponent, concave and increasing with Phi(0) = 0."""

    amplitude: float = field(default=1.0, metadata=POSITIVE)
    exponent: float = field(default=0.5, metadata=_UNIT_INTERVAL)

    __post_init__ = check_fields

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise DomainError("index functions are defined on t >= 0")
        out = self.amplitude * t**self.exponent
        return float(out) if out.ndim == 0 else out


def characteristic_function(kappa: HoelderIndexFunction, lam):
    """Theta_kappa(lambda) = sqrt(lambda) * kappa(lambda)."""
    lam = np.asarray(lam, dtype=float)
    return np.sqrt(lam) * kappa(lam)


def characteristic_inverse(kappa: HoelderIndexFunction, s):
    """Inverse of Theta_kappa, available in closed form for the Hoelder family."""
    s = np.asarray(s, dtype=float)
    power = kappa.exponent + 0.5
    return (s / kappa.amplitude) ** (1.0 / power)


def rate_function(kappa: HoelderIndexFunction) -> HoelderIndexFunction:
    """Convergence-rate function of a Hoelder decay rate.

    For kappa(t) = A t^{nu/2} the composition kappa(Theta^{-1}(sqrt(t)))^2
    collapses to A^{2/(nu+1)} t^{nu/(nu+1)}.
    """
    if not isinstance(kappa, HoelderIndexFunction):
        raise Unsupported("rate_function needs a Hoelder index function")
    nu = 2.0 * kappa.exponent
    return HoelderIndexFunction(
        amplitude=kappa.amplitude ** (2.0 / (nu + 1.0)),
        exponent=nu / (nu + 1.0),
    )


def fenchel_psi(phi: HoelderIndexFunction, s: float) -> float:
    """psi(s) = sup_{t >= 0} [s t + Phi(t)], the conjugate of -Phi, for s < 0.

    Hoelder closed form (theta < 1): the sup is attained at
    t* = (A theta / (-s))^{1/(1-theta)}. For theta = 1 the sup is 0 when
    s <= -A and +inf otherwise.
    """
    try:
        negative = -math.inf < s < 0
    except TypeError:  # s is not a number
        negative = False
    if not negative:
        raise DomainError(f"fenchel_psi is evaluated on finite s < 0 only, got s = {s!r}")
    a, theta = phi.amplitude, phi.exponent
    if theta == 1.0:
        return 0.0 if s <= -a else float("inf")
    return a * (1.0 - theta) * (a * theta / -s) ** (theta / (1.0 - theta))


@dataclass(frozen=True)
class RatePrediction:
    """A-priori parameter rule alpha ~ delta^alpha_exponent and the resulting
    error exponent, together with the theoretical error envelope."""

    alpha_exponent: float = field(metadata={"lie in (0, 2]": lambda v: 0 < v <= 2})
    error_exponent: float = field(metadata={"lie in (0, 2)": lambda v: 0 < v < 2})
    envelope: Callable = field(repr=False)  # (delta, alpha) -> error bound

    __post_init__ = check_fields


def predict_rate_hoelder(l: int, nu: float) -> RatePrediction:
    """Rate for the order-l condition with Hoelder index nu in (0, 1].

    alpha ~ delta^{2/(l+nu)} balances the envelope
    delta^2/alpha + alpha^{l-1} psi(-1/alpha) and gives the norm rate
    delta^{(l-1+nu)/(l+nu)}.
    """
    check_value("l", l, int, AT_LEAST_ONE)
    check_value("nu", nu, float, _UNIT_INTERVAL)
    phi = HoelderIndexFunction(1.0, nu / (nu + 1.0))

    def envelope(delta: float, alpha: float) -> float:
        return delta**2 / alpha + alpha ** (l - 1) * fenchel_psi(phi, -1.0 / alpha)

    return RatePrediction(
        alpha_exponent=2.0 / (l + nu),
        error_exponent=(l - 1.0 + nu) / (l + nu),
        envelope=envelope,
    )


def predict_rate_entropy(s: float, a: float) -> RatePrediction:
    """KL rate of second-step entropy regularization for an s-smooth truth
    under an a-times smoothing operator: alpha ~ delta^{2a/(s+a)} and
    KL ~ delta^{2s/(s+a)}, with envelope delta^2/alpha + alpha^{s/a}."""
    check_value("s", s, float, POSITIVE)
    check_value("a", a, float, POSITIVE)

    def envelope(delta: float, alpha: float) -> float:
        return delta**2 / alpha + alpha ** (s / a)

    return RatePrediction(
        alpha_exponent=2.0 * a / (s + a),
        error_exponent=2.0 * s / (s + a),
        envelope=envelope,
    )


@dataclass(frozen=True)
class SourceDecomposition:
    """Spectral source elements of the order-l condition for a given truth.

    Odd l = 2n-1: ``omega`` is the generator with f = (T*T)^{n-1} omega.
    Even l = 2n:  ``pbar`` is the generator with f = (T*T)^{n-1} T* pbar.
    ``omegas[j-1]`` and ``pbars[j-1]`` hold the intermediate elements with
    f = (T*T)^j omegas[j-1] and f = (T*T)^{j-1} T* pbars[j-1].
    """

    order: int
    omega: Signal | None = field(repr=False, default=None)
    pbar: Signal | None = field(repr=False, default=None)
    omegas: list[Signal] = field(repr=False, default_factory=list)
    pbars: list[Signal] = field(repr=False, default_factory=list)

    def leading(self) -> Signal:
        lead = self.omega if self.order % 2 == 1 else self.pbar
        assert lead is not None
        return lead


def construct_source(
    op: FourierMultiplierOperator,
    f_true: Signal,
    l: int,
) -> SourceDecomposition:
    """Recover the order-l source elements of f_true by spectral division.

    Raises :class:`SourceDivisionError` (with the first offending mode) when
    the truth lacks the required smoothness.
    """
    check_value("l", l, int, AT_LEAST_ONE)
    n = (l + 1) // 2 if l % 2 == 1 else l // 2
    omegas = [power_apply(op, -float(j), f_true) for j in range(1, n)]
    pbars = [multiplier_power_apply(op, -(2.0 * j - 1.0), f_true) for j in range(1, n)]
    if l % 2 == 1:
        lead = power_apply(op, -float(n - 1), f_true)
        return SourceDecomposition(order=l, omega=lead, omegas=omegas, pbars=pbars)
    lead = multiplier_power_apply(op, -(2.0 * n - 1.0), f_true)
    return SourceDecomposition(order=l, pbar=lead, omegas=omegas, pbars=pbars)


def decay_space_norm(
    op: FourierMultiplierOperator,
    f: Signal,
    kappa: HoelderIndexFunction,
) -> float:
    """sup_{lambda > 0} ||E_lambda f|| / kappa(lambda) for E_lambda = 1_{[0,lambda)}(T*T).

    lambda -> ||E_lambda f|| is a right-open step function jumping at the
    eigenvalues mu_j^2, and 1/kappa decreases, so the supremum is attained
    in the limit onto a jump point: it equals the max over distinct
    eigenvalues v of ||E_{v+} f|| / kappa(v), which is evaluated exactly.
    The energies are the half spectrum's |c_j|^2, c = rfft / n: an interior
    mode's counts twice, for j and -j, and modes 0 and n/2 count once.
    """
    energies = np.abs(f.rfft / f.grid.n) ** 2
    energies[1:-1] *= 2.0
    eigen = op.symbol_rfft**2
    order = np.argsort(eigen, kind="stable")
    sorted_eigen = eigen[order]
    cumulative = np.cumsum(energies[order])
    # last index of each run of equal eigenvalues = energy through that level
    is_last = np.append(sorted_eigen[1:] != sorted_eigen[:-1], True)
    levels = sorted_eigen[is_last]
    through = cumulative[is_last]
    positive = through > 0
    if not np.any(positive):
        return 0.0
    return float(np.max(np.sqrt(through[positive]) / kappa(levels[positive])))


def _mode_inner_products(op, omega: Signal) -> tuple[np.ndarray, np.ndarray]:
    """Inner products of omega with the orthonormal real Fourier modes.

    Returns (coefficients, symbol values), n of each: entry 0 is the
    constant mode, then cos/sin pairs for j = 1..n/2-1, and last the
    Nyquist mode (-1)^i.
    """
    c, mu = omega.rfft / omega.grid.n, op.symbol_rfft
    pairs = np.sqrt(2.0) * np.column_stack([c[1:-1].real, -c[1:-1].imag]).ravel()
    coeffs = np.concatenate([[c[0].real], pairs, [c[-1].real]])
    return coeffs, np.concatenate([[mu[0]], np.repeat(mu[1:-1], 2), [mu[-1]]])


def vsc_violation_search(
    op: FourierMultiplierOperator,
    omega: Signal,
    phi: HoelderIndexFunction,
    trials: int = 64,
    seed: int = 0,
) -> float:
    """Randomized falsifier for <omega, f> <= 1/2 ||f||^2 + Phi(||Tf||^2).

    Samples rays f = t u at 61 log-spaced amplitudes t in [1e-8, 1e4], for
    directions u of unit norm sign-matched to omega: the n single real
    Fourier modes, omega itself (when nonzero) and ``trials`` seeded
    Gaussian directions. On a ray the residual <omega, f> - 1/2 ||f||^2 -
    Phi(||Tf||^2) is p t - t^2/2 - Phi(q^2 t^2) with p = |<omega, u>| and
    q = ||Tu||, for omega and the Gaussian directions the
    :func:`~torusreg.torus.norm_l2_rfft` of Tu's half spectra; the largest
    residual over all rays is returned. A positive value certifies a
    violation; a non-positive value over finitely many samples proves nothing.
    """
    check_value("trials", trials, int, AT_LEAST_ONE)
    check_value("seed", seed, int, NON_NEGATIVE)
    n = omega.grid.n
    directions = np.random.default_rng(seed).standard_normal((trials, n))
    if norm_l2(omega) > 0:
        directions = np.vstack([omega.values, directions])
    directions /= np.sqrt((directions * directions).sum(axis=1, keepdims=True) / n)
    coeffs, mus = _mode_inner_products(op, omega)
    p = np.append(np.abs(coeffs), np.abs(directions @ omega.values) / n)
    q = np.append(mus, norm_l2_rfft(np.fft.rfft(directions) * op.symbol_rfft, n))
    t = _AMPLITUDES[:, None]
    return float(np.max(p * t - 0.5 * t**2 - phi((q * t) ** 2)))
