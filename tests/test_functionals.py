import math
import warnings

import numpy as np
import pytest
from scipy.special import wrightomega

import torusreg.functionals

from torusreg import (
    ConfigError,
    EntropyPenalty,
    GridMismatch,
    QuadraticPenalty,
    FourierMultiplierOperator,
    Signal,
    SubgradientUndefined,
    TorusGrid,
    kl_divergence,
    make_inverse_helmholtz,
    norm_l1,
    norm_l2,
    prox_fidelity,
)
from torusreg.functionals import NEWTON_TOL, PROX_FLOOR, _fidelity_prox_constants, _newton_omega

from conftest import (
    allocating_prox_map, make_identity, max_newton_omega, prox_signal, random_signal, to_spectrum,
)


def positive_signal(grid, rng, lo=0.1, hi=4.0):
    return Signal(grid, rng.uniform(lo, hi, grid.n))


@pytest.fixture
def ones(grid):
    return Signal(grid, np.ones(grid.n))


class TestPenaltyValues:
    def test_kl_of_itself_is_zero(self, grid, rng, ones):
        pen = EntropyPenalty(ones)
        for _ in range(20):
            f = positive_signal(grid, rng, 0.2, 4.5)
            assert abs(pen.bregman(f, f)) == 0.0

    def test_kl_constant_closed_form(self, grid, ones):
        pen = EntropyPenalty(ones)
        f = Signal(grid, 2.0 * np.ones(grid.n))
        assert abs(pen.value(f) - (2.0 * np.log(2.0) - 1.0)) < 1e-14

    def test_kl_infinite_outside_box(self, grid, ones):
        pen = EntropyPenalty(ones, 0.0, 5.0)
        over = Signal(grid, np.full(grid.n, 5.1))
        assert pen.value(over) == float("inf")
        neg = np.ones(grid.n)
        neg[0] = -0.5
        assert pen.value(Signal(grid, neg)) == float("inf")

    def test_quadratic_offset(self, grid, rng):
        prior = random_signal(grid, rng)
        pen = QuadraticPenalty(prior)
        c = 0.7
        f = Signal(grid, prior.values + c)
        assert abs(pen.value(f) - 0.5 * c**2) < 1e-14

    def test_entropy_prior_must_be_positive(self, grid):
        bad = np.ones(grid.n)
        bad[5] = 0.0
        with pytest.raises(SubgradientUndefined):
            EntropyPenalty(Signal(grid, bad))

    @pytest.mark.parametrize("penalty", [QuadraticPenalty, EntropyPenalty])
    def test_prior_must_be_a_signal(self, grid, penalty):
        # rejected when built, not at the first value or Bregman distance
        with pytest.raises(ConfigError, match="^prior must be Signal, got array"):
            penalty(np.ones(grid.n))

    def test_grid_mismatch(self, grid, ones):
        other = TorusGrid(32)
        with pytest.raises(GridMismatch):
            EntropyPenalty(ones).value(Signal(other, np.ones(other.n)))


class TestBregmanDistances:
    def test_zero_at_base(self, grid, rng, ones):
        for pen in (QuadraticPenalty(ones), EntropyPenalty(ones)):
            f = positive_signal(grid, rng, 0.3, 4.0)
            assert pen.bregman(f, f) < 1e-15

    def test_entropy_reduces_to_kl(self, grid, ones):
        pen = EntropyPenalty(ones)
        f = Signal(grid, 2.0 * np.ones(grid.n))
        assert abs(pen.bregman(f, ones) - (2.0 * np.log(2.0) - 1.0)) < 1e-14

    def test_quadratic_is_half_squared_distance(self, grid, rng):
        prior = random_signal(grid, rng)
        pen = QuadraticPenalty(prior)
        for _ in range(50):
            f, base = random_signal(grid, rng), random_signal(grid, rng)
            expected = 0.5 * norm_l2(f - base) ** 2
            assert abs(pen.bregman(f, base) - expected) < 1e-14 * max(1.0, expected)

    def test_nonnegative(self, grid, rng, ones):
        quad_prior = random_signal(grid, rng)
        for _ in range(200):
            f = positive_signal(grid, rng, 0.05, 4.9)
            base = positive_signal(grid, rng, 0.05, 4.9)
            assert EntropyPenalty(ones).bregman(f, base) >= 0.0
            fq, bq = random_signal(grid, rng), random_signal(grid, rng)
            assert QuadraticPenalty(quad_prior).bregman(fq, bq) >= 0.0

    def test_boundary_base_rejected(self, grid, ones):
        pen = EntropyPenalty(ones, 0.0, 5.0)
        base = np.ones(grid.n)
        base[7] = 5.0
        with pytest.raises(SubgradientUndefined):
            pen.bregman(ones, Signal(grid, base))

    def test_pinsker_for_probability_densities(self, grid, rng):
        # 2 KL(f1, f2) >= ||f1 - f2||_1^2 when both integrate to one
        for _ in range(200):
            f1 = np.abs(rng.standard_normal(grid.n)) + 1e-3
            f2 = np.abs(rng.standard_normal(grid.n)) + 1e-3
            f1 = Signal(grid, f1 / np.mean(f1))
            f2 = Signal(grid, f2 / np.mean(f2))
            kl = kl_divergence(f1, f2)
            assert 2.0 * kl >= norm_l1(f1 - f2) ** 2 - 1e-12


class TestProxPenalty:
    def test_quadratic_formula(self, grid, rng):
        prior = random_signal(grid, rng)
        pen = QuadraticPenalty(prior)
        x = random_signal(grid, rng)
        out = pen.prox_map(2.5)(x.values)
        expected = (x.values + 2.5 * prior.values) / 3.5
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_quadratic_large_gamma_goes_to_prior(self, grid, rng):
        prior = random_signal(grid, rng)
        x = random_signal(grid, rng)
        out = QuadraticPenalty(prior).prox_map(1e12)(x.values)
        assert np.max(np.abs(out - prior.values)) < 1e-9

    def test_entropy_prior_fixed_point(self, grid, ones):
        pen = EntropyPenalty(ones)
        out = pen.prox(ones, 1.0)
        assert np.max(np.abs(out.values - 1.0)) < 1e-12

    def test_entropy_known_root(self, grid, ones):
        # gamma ln v + v = x with x = 2 + ln 2 has the root v = 2
        pen = EntropyPenalty(ones)
        x = Signal(grid, np.full(grid.n, 2.0 + np.log(2.0)))
        out = pen.prox(x, 1.0)
        assert np.max(np.abs(out.values - 2.0)) < 1e-12

    def test_entropy_optimality_residual(self, grid, rng, ones):
        gammas = [float(g) for g in rng.uniform(0.05, 5.0, 200)] + [1e-6] * 50 + [1e3] * 50
        for gamma in gammas:
            pen = EntropyPenalty(positive_signal(grid, rng, 0.2, 3.0))
            x = random_signal(grid, rng, scale=2.0)
            v = pen.prox(x, gamma).values
            # samples at the 1e-12 floor count as boundary
            interior = (v > pen.box_lo + 2e-12) & (v < pen.box_hi - 1e-12)
            residual = gamma * np.log(v[interior] / pen.prior.values[interior]) + v[interior] - x.values[interior]
            assert np.max(np.abs(residual), initial=0.0) <= 1e-10

        # the root of gamma ln(v/w) + v = x lies below 1e-12 exactly when
        # x < gamma ln(1e-12/w) + 1e-12; those samples sit at the floor
        for gamma in (1e-6, 0.05, 1.0, 1e3):
            pen = EntropyPenalty(positive_signal(grid, rng, 0.2, 3.0))
            threshold = gamma * np.log(1e-12 / pen.prior.values) + 1e-12
            deep = rng.uniform(size=grid.n) < 0.5
            x = np.where(deep, threshold - gamma * rng.uniform(1e-3, 50.0, grid.n), rng.standard_normal(grid.n))
            v = pen.prox(Signal(grid, x), gamma).values
            assert np.all(v > 0)
            assert np.all(v[deep] == 1e-12)

    def test_prox_nonexpansive(self, grid, rng, ones):
        for pen in (QuadraticPenalty(ones), EntropyPenalty(ones)):
            for _ in range(100):
                x1, x2 = random_signal(grid, rng), random_signal(grid, rng)
                gamma = float(rng.uniform(0.1, 10.0))
                p1, p2 = prox_signal(pen, x1, gamma), prox_signal(pen, x2, gamma)
                assert norm_l2(p1 - p2) <= norm_l2(x1 - x2) + 1e-12

    def test_rejects_nonpositive_gamma(self, grid, ones):
        for pen in (QuadraticPenalty(ones), EntropyPenalty(ones)):
            with pytest.raises(ConfigError, match="^gamma must"):
                pen.prox_map(0.0)


def dr_like_inputs(rng, n):
    """Inputs a prox map sees in a DR solve: small steps from a random start,
    at every scale from 1e-14 to 1e-1."""
    x = rng.standard_normal(n)
    for scale in 10.0 ** np.arange(-14, 0):
        for _ in range(3):
            x = x + scale * rng.standard_normal(n)
            yield x


def jump_inputs(rng, n):
    """Large jumps, at scales 1e-3 to 1e3, then 30 -> -800 -> -5: the root
    leaves the box at the top, drops below PROX_FLOOR (where omega itself
    would underflow to 0 for gamma <= 1) and comes back; each is followed
    by small steps."""
    levels = [s * rng.standard_normal(n) for s in 10.0 ** np.arange(-3, 4)]
    levels += [np.full(n, 30.0), np.full(n, -800.0), np.full(n, -5.0)]
    for x in levels:
        yield x
        for scale in (1e-12, 1e-6, 1e-2):
            yield x + scale * rng.standard_normal(n)


def closed_form_prox(pen, gamma, x):
    """The entropy prox by its closed form, clamp(gamma omega(zeta)) with
    zeta = max(x/gamma + ln(w/gamma), ln(lo/gamma) - 1), on scipy's omega."""
    lo = max(pen.box_lo, PROX_FLOOR)
    zeta = np.maximum(x / gamma + np.log(pen.prior.values / gamma), np.log(lo) - np.log(gamma) - 1.0)
    return np.clip(gamma * wrightomega(zeta), lo, pen.box_hi)


class TestWarmStartedProxMap:
    """The entropy prox map starts each call from the root of its previous
    call, the first from prior/gamma; every output must match the closed
    form on scipy's omega."""

    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 30.0])
    @pytest.mark.parametrize("box", [(0.0, 5.0), (0.2, 3.0)])
    @pytest.mark.parametrize("inputs", [dr_like_inputs, jump_inputs])
    def test_matches_fresh_map(self, grid, rng, gamma, box, inputs):
        pen = EntropyPenalty(positive_signal(grid, rng, 0.2, 3.0), *box)
        warm = pen.prox_map(gamma)
        lo, hi = max(box[0], PROX_FLOOR), box[1]
        at_lo = at_hi = False
        with np.errstate(all="raise"):
            for x in inputs(rng, grid.n):
                got = warm(x)
                expected = closed_form_prox(pen, gamma, x)
                assert np.all(np.isfinite(got))
                assert np.all(np.abs(got - expected) <= 1e-14 * expected)
                at_lo |= bool(np.any(got == lo))
                at_hi |= bool(np.any(got == hi))
        if inputs is jump_inputs:
            assert at_lo and at_hi

    def test_small_steps_skip_omega(self, grid, rng, monkeypatch):
        import torusreg.functionals as functionals

        evaluated = []

        def counting_omega(z):
            evaluated.append(np.size(z))
            return wrightomega(z)

        monkeypatch.setattr(functionals, "wrightomega", counting_omega)
        prior = positive_signal(grid, rng, 0.2, 3.0)
        for gamma in (1.0, 2.5, 0.37):
            evaluated.clear()
            prox = EntropyPenalty(prior, 0.5, 2.0).prox_map(gamma)
            # a DR solve starts at x = prior, whose root prior/gamma is the first start
            got = prox(prior.values)
            assert evaluated == []
            assert got.tobytes() == np.clip(gamma * (prior.values / gamma), 0.5, 2.0).tobytes()
            x = prior.values.copy()
            for _ in range(20):
                x = x + 1e-6 * rng.standard_normal(grid.n)
                prox(x)
            assert evaluated == []
            prox(x - 800.0 * gamma)  # Newton from the old roots overshoots below 0: omega
            assert evaluated == [grid.n]

    def test_nan_input_does_not_poison_later_calls(self, grid, rng):
        pen = EntropyPenalty(positive_signal(grid, rng, 0.2, 3.0))
        prox = pen.prox_map(1.0)
        x = rng.standard_normal(grid.n)
        prox(x)
        bad = x.copy()
        bad[::3] = np.nan
        assert np.array_equal(np.isnan(prox(bad)), np.isnan(bad))
        for _ in range(3):
            x = x + 1e-6 * rng.standard_normal(grid.n)
            got = prox(x)
            assert np.all(np.abs(got - pen.prox_map(1.0)(x)) <= 1e-14 * got)


class TestProxMapCalls:
    @pytest.mark.parametrize("penalty", [EntropyPenalty, QuadraticPenalty])
    def test_second_call_leaves_first_result(self, grid, rng, penalty):
        prox = penalty(positive_signal(grid, rng, 0.2, 3.0)).prox_map(1.0)
        x = rng.standard_normal(grid.n)
        first = prox(x)
        kept = first.copy()
        second = prox(x + 1e-3 * rng.standard_normal(grid.n))
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, x)

    @pytest.mark.parametrize("penalty", ["entropy", "quadratic"])
    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_out_is_written_and_returned(self, grid, rng, penalty, gamma):
        # at gamma = 1 the entropy map skips x/gamma and gamma*y: the oracle
        # divides and multiplies at every gamma; the jumps reach both box bounds
        prior = positive_signal(grid, rng, 0.2, 3.0)
        pen = EntropyPenalty(prior, 0.2, 3.0) if penalty == "entropy" else QuadraticPenalty(prior)
        prox, oracle = pen.prox_map(gamma), allocating_prox_map(pen, gamma)
        out = np.empty(grid.n)
        for i, x in enumerate(jump_inputs(rng, grid.n)):
            kept = x.copy()
            got = prox(x, out) if i % 2 else prox(x)
            assert (got is out) == bool(i % 2)
            assert np.array_equal(x, kept)
            assert got.tobytes() == oracle(x).tobytes()


def first_correction(zeta, y):
    """The first Newton correction, relative to y, of y + ln y = zeta from y."""
    return (np.log(y) + y - zeta) / (1.0 + y)


def unit_start(rel):
    """(zeta, y) with y = 1, whose first Newton correction is rel rounded to
    a multiple of 2**-53: ln 1 and 1 + 1 are exact, and so is 1 - zeta."""
    return 1.0 - 2.0 * rel, np.ones_like(rel)


def one_entry(n, rel):
    """A unit start whose first correction is rel on one entry and 0 elsewhere."""
    corrections = np.zeros(n)
    corrections[n // 3] = rel
    return unit_start(corrections)


def floored_start(n):
    """zeta at the floor ln(PROX_FLOOR) - ln(1.7e308) - 1 of a map with a huge
    gamma on every other entry, from a root 25 % off; the rest are ordinary."""
    floor = math.log(PROX_FLOOR) - math.log(1.7e308) - 1.0
    y = np.linspace(0.3, 3.0, n)
    zeta = y + np.log(y)
    zeta[::2] = floor
    y[::2] = wrightomega(floor) * 1.25
    return zeta, y


def special_start(n, value):
    """A unit start with first corrections 1e-10, and zeta = value on two entries."""
    zeta, y = unit_start(np.full(n, 1e-10))
    zeta[[1, n // 2]] = value
    return zeta, y


N = 64
FACTORS = (1 - 1e-3, 1 - 1e-5, 1 + 1e-5, 1 + 1e-3)
ONE_ENTRY_BOUNDS = {"NEWTON_TOL": NEWTON_TOL, "sqrt(n) NEWTON_TOL": math.sqrt(N) * NEWTON_TOL,
                    "1": 1.0}
ALL_ENTRIES_BOUNDS = {"NEWTON_TOL / sqrt(n)": NEWTON_TOL / math.sqrt(N), "NEWTON_TOL": NEWTON_TOL}
# name -> (zeta, y): the first corrections on both sides of the bounds of the
# max test (NEWTON_TOL, 1) and of the dot test's (NEWTON_TOL / sqrt(n) for equal
# entries, sqrt(n) NEWTON_TOL for one entry), then non-finite and floored zeta
NEWTON_STARTS = {
    **{f"one entry at {sign}{name} x {f:.5f}": one_entry(N, float(f"{sign}1") * r * f)
       for name, r in ONE_ENTRY_BOUNDS.items() for f in FACTORS for sign in "+-"},
    **{f"all entries at {name} x {f:.5f}": unit_start(np.full(N, r * f))
       for name, r in ALL_ENTRIES_BOUNDS.items() for f in FACTORS},
    "spread below sqrt(n) NEWTON_TOL": unit_start(
        np.random.default_rng(7).uniform(-0.9, 0.9, N) * NEWTON_TOL),
    "NaN": special_start(N, np.nan),
    "+inf": special_start(N, np.inf),
    "-inf": special_start(N, -np.inf),
    "floored zeta": floored_start(N),
}


class TestNewtonDecisions:
    """_newton_omega decides a step by one dot where that decides it; every
    root must equal the max-based Newton's bit for bit."""

    @pytest.mark.parametrize("zeta, y", NEWTON_STARTS.values(), ids=NEWTON_STARTS.keys())
    def test_matches_max_based_newton(self, zeta, y):
        want = max_newton_omega(zeta, y.copy())
        got = y.copy()
        assert _newton_omega(zeta, got, np.empty(N), np.empty(N)) is got
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ONE_ENTRY_BOUNDS)
    def test_one_entry_starts_straddle_their_bound(self, name):
        worst = [np.abs(first_correction(*NEWTON_STARTS[f"one entry at +{name} x {f:.5f}"])).max()
                 for f in FACTORS]
        assert worst[0] < worst[1] < ONE_ENTRY_BOUNDS[name] < worst[2] < worst[3]


class TestWrightOmega:
    """The numpy Wright omega of the entropy prox, against scipy's as the oracle."""

    Z = np.concatenate([np.linspace(-760.0, 50.0, 16201), np.geomspace(1.0, 1.7e308, 6161),
                        np.geomspace(1e-300, 1.0, 301), -np.geomspace(1e-300, 1.0, 301)])

    def test_matches_scipy(self):
        with np.errstate(all="raise"):
            got = torusreg.functionals.wrightomega(self.Z)
        want = wrightomega(self.Z)
        normal = want >= np.finfo(float).tiny
        assert np.all(np.abs(got[normal] - want[normal]) <= 1e-14 * want[normal])
        assert np.any(want == 0) and np.array_equal(got == 0, want == 0)
        assert not np.any(np.isnan(got))

    def test_special_values(self):
        with np.errstate(all="raise"):
            got = torusreg.functionals.wrightomega(np.array([np.inf, -np.inf, np.nan, 1.0]))
            scalar = torusreg.functionals.wrightomega(1.0)
        assert got[0] == np.inf and got[1] == 0.0 and np.isnan(got[2])
        assert got[3] == pytest.approx(wrightomega(1.0), rel=1e-14)
        assert np.ndim(scalar) == 0 and scalar == got[3]


class TestProxFidelity:
    def test_single_mode_normal_equation(self, grid):
        op = make_identity(grid)
        g = Signal(grid, np.ones(grid.n))
        x = Signal(grid, np.zeros(grid.n))
        out = prox_fidelity(op, g, x, gamma=1.0, alpha=1.0)
        assert np.max(np.abs(out.values - 0.5)) < 1e-14

    def test_small_gamma_returns_x(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        g, x = random_signal(grid, rng), random_signal(grid, rng)
        out = prox_fidelity(op, g, x, gamma=1e-14, alpha=1.0)
        assert np.max(np.abs(out.values - x.values)) < 1e-10

    def test_mode_wise_first_order_condition(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        for _ in range(200):
            g, x = random_signal(grid, rng), random_signal(grid, rng)
            gamma = float(rng.uniform(0.01, 10.0))
            alpha = float(rng.uniform(0.01, 10.0))
            v = prox_fidelity(op, g, x, gamma, alpha)
            vc = to_spectrum(v)
            gc = to_spectrum(g)
            xc = to_spectrum(x)
            mu = op.symbol
            residual = gamma / alpha * mu * (mu * vc - gc) + (vc - xc)
            assert np.max(np.abs(residual)) <= 1e-10


    @staticmethod
    def fresh_formula(op, g, x, gamma, alpha):
        t, mu = gamma / alpha, op.symbol_rfft
        return (x.rfft + t * mu * g.rfft) / (1.0 + t * mu**2)

    def test_constants_match_a_fresh_operator(self, grid, rng):
        # alpha1, alpha2, alpha1 on one operator: every result is that of a
        # fresh operator, and of the formula
        op = make_inverse_helmholtz(grid)
        g, x = random_signal(grid, rng), random_signal(grid, rng)
        for alpha in (1e-2, 3e-5, 1e-2):
            fresh = make_inverse_helmholtz(grid)
            out = prox_fidelity(op, g, x, 1.0, alpha)
            assert np.array_equal(out.rfft, prox_fidelity(fresh, g, x, 1.0, alpha).rfft)
            assert np.array_equal(out.rfft, self.fresh_formula(fresh, g, x, 1.0, alpha))
            shift, recip = _fidelity_prox_constants(op, g.rfft, 1.0, alpha)
            fresh_shift, fresh_recip = _fidelity_prox_constants(fresh, g.rfft, 1.0, alpha)
            assert np.array_equal(shift, fresh_shift) and np.array_equal(recip, fresh_recip)
            assert np.array_equal((x.rfft + shift) * recip, out.rfft)

    def test_operators_on_equal_grids_use_their_own_symbols(self, rng):
        grid = TorusGrid(64)
        j = grid.modes.astype(float)
        other = FourierMultiplierOperator(TorusGrid(64), (1.0 + j**2) ** -0.5, smoothing_order=1.0)
        g, x = random_signal(grid, rng), random_signal(grid, rng)
        for op in (make_inverse_helmholtz(grid), other) * 2:  # alternating, at one alpha
            out = prox_fidelity(op, g, x, 1.0, 1e-3)
            assert np.array_equal(out.rfft, self.fresh_formula(op, g, x, 1.0, 1e-3))

    def test_result_is_a_read_only_signal_with_real_edge_modes(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        out = prox_fidelity(op, random_signal(grid, rng), random_signal(grid, rng), 1.0, 1e-2)
        assert out.rfft[0].imag == 0.0 and out.rfft[-1].imag == 0.0
        assert not out.rfft.flags.writeable and not out.values.flags.writeable
        assert np.array_equal(out.values, np.fft.irfft(out.rfft, grid.n))


class TestKLStability:
    def test_tiny_perturbation_accuracy(self, grid):
        # KL(b + e, b) ~ ||e||^2 / (2 b); the evaluation must survive e ~ 1e-7
        base = Signal(grid, np.full(grid.n, 1.3))
        e = 1e-7 * np.cos(2 * np.pi * 3 * grid.points)
        f = Signal(grid, base.values + e)
        expected = float(np.mean(e**2 / (2 * 1.3)))
        got = kl_divergence(f, base)
        assert abs(got - expected) < 1e-4 * expected

    @pytest.mark.parametrize("tiny", [5e-324, 1e-17])
    def test_samples_below_round_off_of_the_base(self, grid, ones, tiny):
        # f/g - 1 rounds to -1: the term is g, as for f = 0, not 0 * -inf
        f = np.ones(grid.n)
        f[0] = tiny
        with np.errstate(all="raise"):
            got = kl_divergence(Signal(grid, f), ones)
        assert abs(got - 1.0 / grid.n) < 1e-15

    @pytest.mark.parametrize("f_value, g_value", [(2.5, 5e-324), (1e6, 1e-300)])
    def test_base_far_below_the_point(self, grid, ones, f_value, g_value):
        # f/g overflows, or (1 + e) ln(1 + e) does: f ln(f/g) - f + g is finite
        f, g = np.ones(grid.n), np.ones(grid.n)
        f[0], g[0] = f_value, g_value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kl_divergence(Signal(grid, f), Signal(grid, g))
        expected = f_value * (np.log(f_value) - np.log(g_value)) - f_value + g_value
        assert abs(got - expected / grid.n) <= 1e-14 * expected / grid.n

    def test_zero_samples_allowed(self, grid, ones):
        f = np.ones(grid.n)
        f[0] = 0.0
        # 0 ln 0 = 0 leaves the base's contribution
        assert abs(kl_divergence(Signal(grid, f), ones) - 1.0 / grid.n) < 1e-15


def _box_edge_values(lo, hi):
    """Samples at and around the bounds of [lo, hi], at 0 and below it."""
    return [
        lo, hi, lo - 1e-12, hi + 1e-12, lo - 2e-12, hi + 2e-12,
        np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
        np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf),
        lo + 1e-9, hi - 1e-9, lo + 2e-9, hi - 2e-9,
        0.0, -1e-13, -1.0, 0.5 * (lo + hi),
    ]


def _edge_outcome(fn):
    """The value fn() returns, or the exception type it raises."""
    try:
        return fn()
    except SubgradientUndefined as exc:
        return type(exc)


class TestBoxRule:
    """The box decisions of EntropyPenalty against the formulas each caller
    used to apply on its own: value's 1e-12 slack, the strict interior of
    bregman and subgradient, and the 1e-9 touch of the solve report."""

    @staticmethod
    def oracle_value(pen, f):
        fv = f.values
        if np.any(fv < pen.box_lo - 1e-12) or np.any(fv > pen.box_hi + 1e-12):
            return float("inf")
        return kl_divergence(f, pen.prior)

    @staticmethod
    def interior(pen, v):
        return not (np.any(v <= pen.box_lo) or np.any(v >= pen.box_hi) or np.any(v <= 0))

    def oracle_bregman(self, pen, f, base):
        if not self.interior(pen, base.values):
            raise SubgradientUndefined("base")
        if not math.isfinite(self.oracle_value(pen, f)):
            return float("inf")
        return kl_divergence(f, base)

    def oracle_subgradient(self, pen, f):
        if not self.interior(pen, f.values):
            raise SubgradientUndefined("point")
        return tuple(np.log(f.values / pen.prior.values))

    @pytest.mark.parametrize("lo, hi", [(0.0, 5.0), (0.2, 3.0)])
    def test_edge_values_match_the_separate_formulas(self, grid, ones, lo, hi):
        pen = EntropyPenalty(ones, lo, hi)
        inside = Signal(grid, np.full(grid.n, 0.5 * (lo + hi)))
        for edge in _box_edge_values(lo, hi):
            values = np.full(grid.n, 1.0)
            values[5] = edge
            f = Signal(grid, values)

            assert _edge_outcome(lambda: pen.value(f)) == self.oracle_value(pen, f), edge
            for f_, base in ((f, inside), (inside, f)):
                got = _edge_outcome(lambda: pen.bregman(f_, base))
                assert got == _edge_outcome(lambda: self.oracle_bregman(pen, f_, base)), edge
            got = _edge_outcome(lambda: tuple(pen.subgradient(f).values))
            assert got == _edge_outcome(lambda: self.oracle_subgradient(pen, f)), edge

            touch = bool(np.any(values <= lo + 1e-9) or np.any(values >= hi - 1e-9))
            assert pen.boundary_touch(f) is touch, edge
            assert pen.boundary_touch(f, 0.0) is not self.interior(pen, values), edge
            assert QuadraticPenalty(ones).boundary_touch(f) is False

    def test_bregman_evaluates_kl_once(self, grid, ones, monkeypatch):
        calls = []
        kl = torusreg.functionals.kl_divergence

        def counted(f, g):
            calls.append(g)
            return kl(f, g)

        monkeypatch.setattr(torusreg.functionals, "kl_divergence", counted)
        pen = EntropyPenalty(ones, 0.0, 5.0)
        f = Signal(grid, np.full(grid.n, 2.0))
        base = Signal(grid, np.full(grid.n, 1.5))
        assert pen.bregman(f, base) == kl(f, base)
        assert calls == [base]

    def test_box_order_error_names_both_bounds(self, ones):
        with pytest.raises(ConfigError, match=r"box_lo = 3\.0, box_hi = 2\.0"):
            EntropyPenalty(ones, 3.0, 2.0)
        with pytest.raises(ConfigError, match=r"box_lo = -1\.0"):
            EntropyPenalty(ones, -1.0, 2.0)
