import math
from collections import Counter

import numpy as np
import pytest

from torusreg import FourierMultiplierOperator, QuadraticPenalty, Signal, TorusGrid, bregman_iterate
from torusreg import solvers
from torusreg.bregman import spectral_chain, spectral_constants
from torusreg.errors import field_types
from torusreg.functionals import NEWTON_STEPS, NEWTON_TOL, PROX_FLOOR, EntropyPenalty, wrightomega
from torusreg.harness import Choice, Search, SweepRow
from torusreg.reportio import SWEEP_HEADER
from torusreg.torus import norm_l1_array, norm_l2_array


@pytest.fixture
def grid():
    return TorusGrid(64)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_signal(grid, rng, scale=1.0):
    return Signal(grid, scale * rng.standard_normal(grid.n))


def band_limited_signal(grid, rng, band):
    """Real signal with spectral content only in modes |j| <= band."""
    c = np.zeros(grid.n // 2 + 1, dtype=complex)
    c[0] = rng.standard_normal()
    for m in range(1, band + 1):
        re, im = rng.standard_normal(2)
        c[m] = (re + 1j * im) / 2
    return Signal(grid, np.fft.irfft(c, grid.n) * grid.n)


def single_mode_signal(grid, j, kind="cos"):
    """Unit-norm pure mode: sqrt(2) cos/sin(2 pi j x), or the constant 1."""
    x = grid.points
    if j == 0:
        return Signal(grid, np.ones(grid.n))
    if kind == "cos":
        return Signal(grid, np.sqrt(2.0) * np.cos(2 * np.pi * j * x))
    return Signal(grid, np.sqrt(2.0) * np.sin(2 * np.pi * j * x))


def count_calls(monkeypatch, owner, *names) -> Counter:
    """Count the calls of each named function of ``owner`` from here on,
    patched on ``owner`` as the tracer of ``perfbench/spans.py`` patches it."""
    counts = Counter()
    for name in names:
        def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def count_ffts(monkeypatch) -> Counter:
    """Count every FFT call from here on, by its ``np.fft`` name: numpy's FFT
    functions, and the Douglas-Rachford loop's rfft and irfft kernels, which
    ``solve_generalized_dr`` looks up on ``torusreg.solvers`` per solve and
    which no ``np.fft`` name sees."""
    counts = count_calls(monkeypatch, np.fft, "fft", "ifft", "rfft", "irfft")
    for name, kernel in (("rfft", "_rfft_even"), ("irfft", "_irfft")):
        def counted(*args, _name=name, _fn=getattr(solvers, kernel)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(solvers, kernel, counted)
    return counts


def make_identity(grid):
    """Identity multiplier, handy for single-mode normal-equation checks."""
    return FourierMultiplierOperator(grid, np.ones(grid.n))


def spectral_chains(op, g_rfft, alpha, penalty, steps):
    """The half spectra of the quadratic chains on the data with half spectrum
    g_rfft (one chain) or on each row of a stack of them, one array per step
    shaped as g_rfft: ``bregman.spectral_chain`` on the shift rows of
    ``bregman.spectral_constants``, as ``bregman_iterate`` runs it."""
    shift, recip = spectral_constants(op, g_rfft, alpha, penalty)
    shifts = shift.reshape(-1, shift.shape[-1])
    chain = [np.empty_like(shifts) for _ in range(steps)]
    spectral_chain(list(shifts), penalty.prior.rfft, recip, [list(step) for step in chain])
    return [step.reshape(g_rfft.shape) for step in chain]


def spectral_solve(op, g_obs, alpha, prior):
    """The minimizer of the one-step quadratic chain (one closed-form solve)
    on g_obs with the given prior, built from the half spectrum that
    ``bregman.spectral_chain`` writes."""
    [c] = spectral_chains(op, g_obs.rfft, alpha, QuadraticPenalty(prior), 1)
    return Signal.from_rfft(op.grid, c)


def to_spectrum(f):
    """Forward DFT c_j = (1/n) sum_i f(x_i) e^{-2pi i j x_i} in ``grid.modes``
    order, the full shifted spectrum, indexed like an operator's ``symbol``."""
    return np.fft.fftshift(np.fft.fft(f.values)) / f.grid.n


def spectral_projection(op, lam, f):
    """Brute-force spectral projection E_lam = 1_{[0, lam)}(T*T): keeps the modes
    with mu_j^2 < lam."""
    keep = op.symbol_rfft**2 < lam
    return Signal.from_rfft(f.grid, f.rfft * keep)


def sinusoid_noise(grid, delta, k):
    """delta * sin(2 pi k x); its L2 norm is delta/sqrt(2) <= delta."""
    return Signal(grid, delta * np.sin(2.0 * np.pi * k * grid.points))


def prox_signal(penalty, x, gamma):
    """The penalty's prox at the signal x, through its array map."""
    return Signal(x.grid, penalty.prox_map(gamma)(x.values))


def max_newton_omega(zeta, y):
    """Oracle for ``functionals._newton_omega``: the Newton steps on
    y + ln y = zeta with a fresh array for every step, each step decided by
    the largest correction alone. Returns a fresh array."""
    for _ in range(NEWTON_STEPS):
        rel = np.log(y)
        rel += y
        rel -= zeta
        rel /= 1.0 + y
        y = y * (1.0 - rel)
        worst = np.abs(rel).max()
        if worst <= NEWTON_TOL:
            return y
        if not worst < 1.0:
            break
    redo = ~(np.abs(rel) <= NEWTON_TOL)
    y[redo] = wrightomega(zeta[redo])
    return y


def allocating_prox_map(penalty, gamma):
    """Oracle for ``penalty.prox_map(gamma)``: the prox formula with a fresh
    array for every step, dividing by gamma and multiplying by it at every
    gamma; the entropy prox replaces its warm Newton root y on each call,
    starting from y = prior/gamma, the root at x = prior."""
    if not isinstance(penalty, EntropyPenalty):
        return lambda x: (x + gamma * penalty.prior.values) / (1.0 + gamma)
    shift = np.log(penalty.prior.values / gamma)
    lo, hi = max(penalty.box_lo, PROX_FLOOR), penalty.box_hi
    zeta_floor = np.log(lo) - np.log(gamma) - 1.0
    y = penalty.prior.values / gamma

    def prox(x):
        nonlocal y
        zeta = np.maximum(x / gamma + shift, zeta_floor)
        y = max_newton_omega(zeta, y)
        return np.minimum(np.maximum(gamma * y, lo), hi)

    return prox


def allocating_dr(op, g_obs, alpha, penalty, cfg, norms=None):
    """Oracle for ``solve_generalized_dr``: the Douglas-Rachford loop with a
    fresh array for every step, on :func:`allocating_prox_map`, testing
    ||step|| / max(1, ||z||) at every iteration. Returns the minimizer's
    samples, the iterations and the final relative step. Given a list
    ``norms``, it appends (||step||, ||z||) of each iteration."""
    def rms(v):
        return math.sqrt(float(np.dot(v, v)) / v.size)

    t, mu = cfg.gamma / alpha, op.symbol_rfft
    shift, scale = (t * mu) * g_obs.rfft, 1.0 + t * mu**2
    prox_penalty = allocating_prox_map(penalty, cfg.gamma)
    z = penalty.prior.values
    u = prox_penalty(z)
    z_norm = rms(z)
    for it in range(1, cfg.max_iter + 1):
        reflected = u + u
        reflected -= z
        step = np.fft.irfft((np.fft.rfft(reflected) + shift) / scale, op.grid.n)
        step -= u
        residual = rms(step) / max(1.0, z_norm)
        if norms is not None:
            norms.append((rms(step), z_norm))
        z = z + step
        z_norm = rms(z)
        u = prox_penalty(z)
        if residual <= cfg.tol:
            return u, it, residual
    raise AssertionError("oracle loop did not converge")


def read_sweep_csv(path):
    """The SweepRows of a sweep CSV, each cell parsed by its column's type."""
    columns = field_types(SweepRow)
    with open(path, newline="\n") as handle:
        assert handle.readline().strip() == SWEEP_HEADER
        return [SweepRow(*(kind(cell) for kind, cell in
                           zip(columns.values(), line.strip().split(","), strict=True)))
                for line in handle]


def per_candidate_search(config, problem, delta, alpha):
    """Reference for ``harness.worst_case_search``: one Signal and one chain
    per candidate, both errors of every step from the minimizer's samples,
    and per step the first candidate with the largest error in the sweep's
    metric. Candidate k is built from its half spectrum: the rfft of g_true's
    samples minus i n/2 delta in mode k, the rfft of delta sin(2 pi k .).
    Returns a ``Search``: every candidate's errors in the metric and DR
    iterations per step, and the choices."""
    sweep, noise = config.sweep, config.sweep.noise
    ks = {"exact": [0], "fixed_sinusoid": [noise.k_fixed]}.get(noise.kind, range(1, noise.k_max + 1))
    col = 0 if sweep.metric == "kl" else 1
    best = [None] * sweep.bregman_steps
    scores, iterations = [], []
    n = problem.grid.n
    for k in ks:
        spectrum = np.fft.rfft(problem.g_true.values)
        if k:
            spectrum[k] -= 1j * (n // 2) * delta
        g_obs = Signal.from_rfft(problem.grid, spectrum)
        reports = bregman_iterate(problem.op, g_obs, alpha, problem.penalty, sweep.bregman_steps,
                                  config.solver)
        row = []  # this candidate's error in the metric per step
        for i, r in enumerate(reports):
            error = r.minimizer.values - problem.f_true.values
            if isinstance(problem.penalty, QuadraticPenalty):
                kl = 0.5 * norm_l2_array(error) ** 2
            else:
                kl = problem.penalty.bregman(r.minimizer, problem.f_true)
            m = (kl, norm_l1_array(error), r.data_residual, r.iterations)
            if best[i] is None or m[col] > best[i].metrics[col]:
                best[i] = Choice(k, g_obs, reports, m)
            row.append(m[col])
        scores.append(row)
        iterations.append([r.iterations for r in reports])
    return Search(np.array(list(ks)), np.array(scores), np.array(iterations), best)
