"""Convex penalties, data fidelity, Bregman distances and proximal maps.

Two penalty families are supported:

* ``QuadraticPenalty``: R(f) = 1/2 ||f - f0||_2^2,
* ``EntropyPenalty``:  R(f) = KL(f, f0) + indicator of a box {lo <= f <= hi},

with KL(f, g) = (1/n) sum_i [f ln(f/g) - f + g] (convention 0 ln 0 = 0).
The data fidelity is fixed to the Hilbert case S(g) = 1/2 ||g||_2^2 (q = 2),
whose duality map is the identity.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import POSITIVE, ConfigError, SubgradientUndefined, check_fields, check_value
from .operators import FourierMultiplierOperator
from .torus import Signal, check_same_grid, norm_l2_array, norm_l2_rfft

__all__ = [
    "QuadraticPenalty",
    "EntropyPenalty",
    "kl_divergence",
    "prox_fidelity",
]

BOX_SLACK = 1e-12  # samples this far outside the box still count as inside
TOUCH_TOL = 1e-9  # samples this close to a box bound touch it
PROX_FLOOR = 1e-12
NEWTON_STEPS = 8
NEWTON_TOL = 1e-8
# _newton_omega's dot test: bounds on s = rel . rel, each moved inward by this relative margin
_DOT_MARGIN = 1e-6
_DOT_ACCEPT = NEWTON_TOL**2 * (1.0 - _DOT_MARGIN)  # s at most this: every |rel| <= NEWTON_TOL
_DOT_GO_ON = NEWTON_TOL**2 * (1.0 + _DOT_MARGIN)  # s above n times this: some |rel| > NEWTON_TOL
_DOT_BELOW_ONE = 1.0 - _DOT_MARGIN  # s below this: every |rel| < 1


def _phi_entropy(ratio_minus_one: np.ndarray) -> np.ndarray:
    """t ln t - t + 1 evaluated at t = 1 + e, stable near t = 1."""
    e = ratio_minus_one
    return (1.0 + e) * np.log1p(e) - e


def kl_divergence(f: Signal, g: Signal) -> float:
    """KL(f, g) for f >= 0 and g > 0, with the convention 0 ln 0 = 0.

    The sign tests are one min each: a ``Signal`` is finite by construction,
    so they decide as a test of every sample would."""
    check_same_grid(f, g)
    fv, gv = f.values, g.values
    if gv.min() <= 0:
        raise SubgradientUndefined("KL base must be strictly positive")
    if fv.min() < 0:
        return float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        e = (fv - gv) / gv
        zero = e == -1.0  # f = 0, or f/g below round-off: the term is g
        e = np.where(zero, 0.0, e)
        terms = np.where(zero, gv, gv * _phi_entropy(e))
        total = float(np.sum(terms))
        if not math.isfinite(total):  # f/g overflowed where g is tiny; f ln(f/g) need not
            big = ~np.isfinite(terms)
            fb, gb = fv[big], gv[big]
            terms[big] = fb * (np.log(fb) - np.log(gb)) - fb + gb
            total = float(np.sum(terms))
    return total / f.grid.n


@dataclass(frozen=True)
class QuadraticPenalty:
    """R(f) = 1/2 ||f - prior||_2^2."""

    prior: Signal

    __post_init__ = check_fields

    def value(self, f: Signal) -> float:
        check_same_grid(f, self.prior)
        return 0.5 * norm_l2_array(f.values - self.prior.values) ** 2

    def bregman(self, f: Signal, base: Signal) -> float:
        """Bregman distance; for the quadratic penalty simply 1/2 ||f - base||^2,
        from the half spectra by Parseval."""
        check_same_grid(f, base, self.prior)
        return 0.5 * norm_l2_rfft(f.rfft - base.rfft, f.grid.n) ** 2

    def subgradient(self, f: Signal) -> Signal:
        check_same_grid(f, self.prior)
        return f - self.prior

    def boundary_touch(self, f: Signal, tol: float = TOUCH_TOL) -> bool:
        """Always False: the quadratic penalty has no box."""
        return False

    def prox_map(self, gamma: float) -> Callable[..., np.ndarray]:
        """Array map x -> argmin_v gamma R(v) + 1/2 ||v - x||^2 = (x + gamma f0) / (1 + gamma).

        Given ``out``, an array of x's shape, the map writes the result there
        and returns ``out``; else it returns a fresh array. It reads x only.
        """
        check_value("gamma", gamma, float, POSITIVE)
        shift, scale = gamma * self.prior.values, 1.0 + gamma

        def prox(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            out = np.add(x, shift, out=out)
            return np.divide(out, scale, out=out)

        return prox


@dataclass(frozen=True)
class EntropyPenalty:
    """R(f) = KL(f, prior) + indicator of the box {box_lo <= f <= box_hi}."""

    prior: Signal
    box_lo: float = 0.0
    box_hi: float = 5.0

    def __post_init__(self):
        check_fields(self)
        if np.any(self.prior.values <= 0):
            raise SubgradientUndefined("entropy prior must be strictly positive")
        if not (0 <= self.box_lo < self.box_hi):
            raise ConfigError(
                f"box must satisfy 0 <= box_lo < box_hi, got box_lo = {self.box_lo}, "
                f"box_hi = {self.box_hi}"
            )

    def boundary_touch(self, f: Signal, tol: float = TOUCH_TOL) -> bool:
        """Whether a sample lies within ``tol`` of a box bound, or beyond it;
        tol = 0 tests that f is not strictly inside the box (and, as
        box_lo >= 0, not strictly positive). The samples' min and max
        decide it, as f is finite by construction."""
        v = f.values
        return bool(v.min() <= self.box_lo + tol or v.max() >= self.box_hi - tol)

    def in_box(self, f: Signal) -> bool:
        """Whether every sample lies in the box widened by ``BOX_SLACK``: the
        samples' min and max decide it, as f is finite by construction."""
        v = f.values
        return bool(v.min() >= self.box_lo - BOX_SLACK and v.max() <= self.box_hi + BOX_SLACK)

    def value(self, f: Signal) -> float:
        check_same_grid(f, self.prior)
        return kl_divergence(f, self.prior) if self.in_box(f) else float("inf")

    def bregman(self, f: Signal, base: Signal) -> float:
        """Bregman distance of KL(., prior) from an interior base is KL(f, base)."""
        check_same_grid(f, base, self.prior)
        if self.boundary_touch(base, 0.0):
            raise SubgradientUndefined("Bregman base must lie strictly inside the box")
        return kl_divergence(f, base) if self.in_box(f) else float("inf")

    def subgradient(self, f: Signal) -> Signal:
        """Interior subgradient selection ln(f / prior)."""
        check_same_grid(f, self.prior)
        if self.boundary_touch(f, 0.0):
            raise SubgradientUndefined("subgradient needs a point strictly inside the box")
        return Signal(f.grid, np.log(f.values / self.prior.values))

    def prox_map(self, gamma: float) -> Callable[..., np.ndarray]:
        """Array map of the pointwise prox: the root of gamma ln(v/w) + v - x = 0,
        clamped to the box.

        The 1-D objective is convex, so the constrained minimizer is the
        clamp of the unconstrained root, which has the closed form
        v = gamma omega(zeta), zeta = x/gamma + ln(w/gamma), with omega the
        Wright omega function (the solution of y + ln y = zeta); ln(w/gamma)
        is computed once per map. Roots below ``PROX_FLOOR`` saturate there:
        numerically zero, but kept positive for later logs.

        Each call takes :func:`_newton_omega` steps, in place, from the root
        y of the previous call (DR moves x by small steps), the first from
        w/gamma, the root at x = w, where a DR solve starts: there no omega
        is evaluated. zeta is floored one unit below ln(lo/gamma): every
        root under that floor is clamped to ``lo`` anyway, and the floor
        keeps y positive, so the logs of the Newton steps stay finite: for
        finite gamma it is at least ln(1e-12) - ln(1.8e308) - 1 = -738.4,
        and omega(-738.4) = 2.0e-321.
        zeta and the Newton work arrays belong to the map and are reused by
        every call; each call reads x only. Given ``out``, an array of x's
        shape, the call writes its result there and returns ``out``; else it
        returns a fresh array. At gamma = 1 the map skips x/gamma and
        gamma*y, which are exact there: the same bits, two calls fewer.
        gamma, the box bounds and zeta's floor are 0-d float64 arrays made
        once per map, and every ufunc but ``maximum`` and ``minimum`` (whose
        positional ``out`` numpy 2.4 deprecates) takes ``out`` by position:
        the same values at less cost per call.
        """
        check_value("gamma", gamma, float, POSITIVE)
        shift = np.log(self.prior.values / gamma)
        lo, hi = max(self.box_lo, PROX_FLOOR), self.box_hi
        zeta_floor = np.log(lo) - np.log(gamma) - 1.0
        zeta, rel, tmp = (np.empty_like(shift) for _ in range(3))
        unit = gamma == 1.0
        y = self.prior.values / gamma
        gamma, lo, hi, zeta_floor = (np.array(v, float) for v in (gamma, lo, hi, zeta_floor))

        def prox(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            if unit:
                np.add(x, shift, zeta)
            else:
                np.divide(x, gamma, zeta)
                np.add(zeta, shift, zeta)
            np.maximum(zeta, zeta_floor, out=zeta)
            _newton_omega(zeta, y, rel, tmp)
            if unit:
                out = np.maximum(y, lo, out=out)
            else:
                out = np.multiply(gamma, y, out)
                np.maximum(out, lo, out=out)
            return np.minimum(out, hi, out=out)

        return prox

    def prox(self, x: Signal, gamma: float) -> Signal:
        check_same_grid(x, self.prior)
        return Signal(x.grid, self.prox_map(gamma)(x.values))


Penalty = QuadraticPenalty | EntropyPenalty


def wrightomega(z):
    """Wright omega of real z: the y with y + ln y = z (0 at -inf and where
    e^z underflows, z at +inf, NaN at NaN).

    Starts from the softplus s = ln(1 + e^z), which has omega's asymptotes
    e^z and z, and takes two Fritsch-Shafer-Crowley steps (Fritsch, Shafer
    & Crowley, CACM 16(2), 1973; as in Lawrence, Corless & Jeffrey, ACM
    TOMS 38(3), 2012): with r = z - y - ln y and q = (1 + y)(1 + y + 2r/3),
    y *= 1 + r/(1 + y) (1 + r/2/(q - r)), a form with no inf/inf for z
    near the largest float. s >= omega(z), as (1 + t) ln(1 + t) >= t for
    t = e^z, so fmin with s keeps the steps' value, and gives s where the
    steps turn a start of 0, inf or NaN into NaN.
    """
    z = np.asarray(z, dtype=float)
    if not z.ndim:
        return wrightomega(z.reshape(1))[0]
    with np.errstate(all="ignore"):
        s = y = np.logaddexp(0.0, z)
        for _ in range(2):
            r = z - y - np.log(y)
            wp1 = 1.0 + y
            q = wp1 * (wp1 + r * (2.0 / 3.0))
            y = y * (1.0 + r / wp1 * (1.0 + 0.5 * r / (q - r)))
        return np.fmin(y, s)


def _newton_omega(zeta: np.ndarray, y: np.ndarray, rel: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """omega(zeta) by at most ``NEWTON_STEPS`` Newton steps on y + ln y = zeta
    from a positive start y, written into y, with ``rel`` and ``tmp`` as work
    arrays of y's shape. Newton's 1 is a 0-d float64 array made once per
    call, a step's ufuncs take ``out`` by position, and s below is read
    through ``rel``'s ``dot`` method.

    An entry is accepted once its last correction is at most ``NEWTON_TOL``
    of the y before that step; Newton converges quadratically here, so
    about NEWTON_TOL**2 remains. Entries not accepted, NaN ones included,
    get omega. A correction of size 1 or more (y would drop to <= 0, or
    more than double) ends the steps early, before the log of a y <= 0.
    ``NEWTON_STEPS`` = 8 leaves omega to those: Newton squares the relative
    error here (Lawrence, Corless & Jeffrey, ACM TOMS 38(3), 2012), and from
    400k random starts every entry whose corrections stayed below 1 was
    accepted within 7 steps.

    Each step decides by s = rel . rel, one dot, where it can: the largest
    |rel| lies between sqrt(s/n) and sqrt(s), so s <= NEWTON_TOL**2 accepts
    and n NEWTON_TOL**2 < s < 1 goes on, as the largest |rel| would. Both
    bounds are moved inward by the relative margin ``_DOT_MARGIN``, far
    above the dot's rounding (at most about (n + 1) 2**-53 relative), so
    that no decision can differ; s between them, s near 1 or above, and a
    NaN or inf s take the exact test on the largest |rel|.
    """
    go_on, one = y.size * _DOT_GO_ON, np.array(1.0)
    for _ in range(NEWTON_STEPS):
        np.log(y, rel)
        np.add(rel, y, rel)
        np.subtract(rel, zeta, rel)
        np.divide(rel, np.add(one, y, tmp), rel)  # the Newton correction relative to y
        np.multiply(y, np.subtract(one, rel, tmp), y)
        s = float(rel.dot(rel))
        if s <= _DOT_ACCEPT:
            return y
        if not go_on < s < _DOT_BELOW_ONE:
            worst = np.maximum.reduce(np.abs(rel, out=tmp))
            if worst <= NEWTON_TOL:
                return y
            if not worst < 1.0:
                break
    redo = ~(np.abs(rel) <= NEWTON_TOL)
    y[redo] = wrightomega(zeta[redo])
    return y


def _fidelity_prox_constants(
    op: FourierMultiplierOperator,
    g_rfft: np.ndarray,
    gamma: float,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(t mu g^, 1 / (1 + t mu^2)) with t = gamma/alpha: the fidelity prox maps
    the half spectrum c of its argument to (c + t mu g^) / (1 + t mu^2), formed
    as the product with the reciprocal: numpy divides a complex number by a
    real-valued one so, and a product costs less than a quotient.

    Both are fresh complex arrays with zero imaginary parts, the caller's to
    write: numpy multiplies a complex array by a real one through that very
    cast. A call forms them anew: once per DR solve, and once per spectral
    chain or search (``bregman.spectral_constants``).
    """
    if not 0 < gamma < np.inf:
        raise ConfigError(f"prox step gamma must be finite and positive, got {gamma}")
    if not 0 < alpha < np.inf:
        raise ConfigError(f"alpha must be finite and positive, got {alpha}")
    t, mu = gamma / alpha, op.symbol_rfft
    return (t * mu).astype(complex) * g_rfft, (1.0 / (1.0 + t * mu**2)).astype(complex)


def prox_fidelity(
    op: FourierMultiplierOperator,
    g: Signal,
    x: Signal,
    gamma: float,
    alpha: float,
) -> Signal:
    """Exact prox of f -> (gamma/alpha) * 1/2 ||Tf - g||^2 at x, mode-wise.

    Per mode: v_j = (x_j + (gamma/alpha) mu_j g_j) / (1 + (gamma/alpha) mu_j^2).
    """
    check_same_grid(op, g, x)
    shift, recip = _fidelity_prox_constants(op, g.rfft, gamma, alpha)
    return Signal.from_rfft(x.grid, (x.rfft + shift) * recip)
