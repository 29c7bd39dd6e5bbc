import numpy as np
import pytest

from torusreg import (
    ConfigError,
    DomainError,
    HoelderIndexFunction,
    Signal,
    SourceDivisionError,
    TorusGrid,
    Unsupported,
    apply,
    construct_source,
    decay_space_norm,
    fenchel_psi,
    inner,
    make_inverse_helmholtz,
    multiplier_power_apply,
    norm_l2,
    power_apply,
    predict_rate_entropy,
    predict_rate_hoelder,
    rate_function,
    vsc_violation_search,
)
from torusreg.vsc import _mode_inner_products, characteristic_function, characteristic_inverse

from conftest import band_limited_signal, random_signal, single_mode_signal, spectral_projection


def golden_section_sup(phi, s, lo=0.0, hi=None, iters=200):
    """Independent oracle for sup_t [s t + Phi(t)]: bracket growth plus
    golden-section search on the unimodal objective."""
    def value(t):
        return s * t + phi(t)

    if hi is None:
        hi = 1.0
        while value(hi * 2.0) > value(hi) and hi < 1e200:
            hi *= 2.0
        hi *= 2.0
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    for _ in range(iters):
        if value(c) > value(d):
            b, d = d, c
            c = b - inv * (b - a)
        else:
            a, c = c, d
            d = a + inv * (b - a)
    t = 0.5 * (a + b)
    return max(value(t), value(lo))


class TestIndexFunctions:
    def test_validation(self):
        with pytest.raises(ConfigError):
            HoelderIndexFunction(-1.0, 0.5)
        with pytest.raises(ConfigError):
            HoelderIndexFunction(1.0, 1.5)

    def test_evaluation(self):
        phi = HoelderIndexFunction(2.0, 0.5)
        assert phi(0.0) == 0.0
        assert abs(phi(4.0) - 4.0) < 1e-15
        with pytest.raises(DomainError):
            phi(-1.0)


class TestRateFunction:
    def test_hoelder_composition(self):
        kappa = HoelderIndexFunction(1.0, 0.5)  # nu = 1
        phi = rate_function(kappa)
        assert abs(phi.exponent - 0.5) < 1e-15

    def test_nu_half_gives_third(self):
        kappa = HoelderIndexFunction(1.0, 0.25)  # nu = 1/2
        phi = rate_function(kappa)
        assert abs(phi.exponent - (0.5 / 1.5)) < 1e-15

    def test_characteristic_round_trip(self):
        kappa = HoelderIndexFunction(2.0, 0.4)
        for s in np.logspace(-6, 6, 25):
            lam = characteristic_inverse(kappa, s)
            back = characteristic_function(kappa, lam)
            assert abs(back - s) <= 1e-12 * s

    def test_rejects_non_hoelder(self):
        with pytest.raises(Unsupported):
            rate_function(lambda t: t)

    def test_consistency_with_definition(self):
        # Phi(t) = kappa(Theta^{-1}(sqrt(t)))^2 evaluated pointwise
        kappa = HoelderIndexFunction(1.7, 0.3)
        phi = rate_function(kappa)
        for t in np.logspace(-8, 8, 17):
            direct = kappa(characteristic_inverse(kappa, np.sqrt(t))) ** 2
            assert abs(phi(t) - direct) <= 1e-10 * direct


class TestFenchelPsi:
    def test_quarter_at_minus_one(self):
        phi = HoelderIndexFunction(1.0, 0.5)
        assert abs(fenchel_psi(phi, -1.0) - 0.25) < 1e-15

    def test_rejects_nonnegative_argument(self):
        with pytest.raises(DomainError):
            fenchel_psi(HoelderIndexFunction(1.0, 0.5), 0.0)

    @pytest.mark.parametrize("s", [float("nan"), None, float("inf"), -float("inf")])
    def test_rejects_non_finite_or_missing_argument(self, s):
        with pytest.raises(DomainError, match=r"\bs = "):
            fenchel_psi(HoelderIndexFunction(1.0, 0.5), s)

    def test_theta_one_piecewise(self):
        phi = HoelderIndexFunction(2.0, 1.0)
        assert fenchel_psi(phi, -2.0) == 0.0
        assert fenchel_psi(phi, -3.0) == 0.0
        assert fenchel_psi(phi, -1.0) == float("inf")

    def test_monotone_in_s(self):
        phi = HoelderIndexFunction(1.3, 0.4)
        values = [fenchel_psi(phi, s) for s in (-0.1, -1.0, -10.0)]
        assert values[0] >= values[1] >= values[2]

    def test_closed_form_matches_golden_section(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = float(rng.uniform(0.2, 5.0))
            theta = float(rng.uniform(0.1, 0.9))
            alpha = float(10.0 ** rng.uniform(-4, 2))
            phi = HoelderIndexFunction(a, theta)
            closed = fenchel_psi(phi, -1.0 / alpha)
            numeric = golden_section_sup(phi, -1.0 / alpha)
            assert abs(closed - numeric) <= 1e-8 * max(1.0, closed)

    def test_hoelder_alpha_scaling(self):
        # psi(-1/alpha) ~ alpha^{theta/(1-theta)}
        phi = HoelderIndexFunction(1.0, 1.0 / 3.0)
        ratio = fenchel_psi(phi, -1.0 / 0.01) / fenchel_psi(phi, -1.0 / 0.001)
        assert abs(ratio - 10.0 ** (0.5)) < 1e-9


class TestRatePredictions:
    def test_classical_benchmark(self):
        pred = predict_rate_hoelder(1, 1.0)
        assert abs(pred.alpha_exponent - 1.0) < 1e-15
        assert abs(pred.error_exponent - 0.5) < 1e-15

    def test_second_order_saturation_point(self):
        pred = predict_rate_hoelder(2, 1.0)
        assert abs(pred.error_exponent - 2.0 / 3.0) < 1e-15

    def test_fourth_order(self):
        pred = predict_rate_hoelder(4, 1.0)
        assert abs(pred.error_exponent - 0.8) < 1e-15

    def test_envelope_balances_at_rule(self):
        pred = predict_rate_hoelder(3, 0.5)
        delta = 1e-4
        alpha = delta**pred.alpha_exponent
        # at the a-priori rule both envelope terms share the delta power
        noise = delta**2 / alpha
        total = pred.envelope(delta, alpha)
        assert noise <= total <= 10.0 * noise

    def test_entropy_reference_case(self):
        pred = predict_rate_entropy(5.5, 2.0)
        assert abs(pred.alpha_exponent - 8.0 / 15.0) < 1e-15
        assert abs(pred.error_exponent - 22.0 / 15.0) < 1e-15

    def test_entropy_equal_smoothness(self):
        pred = predict_rate_entropy(3.0, 3.0)
        assert abs(pred.error_exponent - 1.0) < 1e-15

    def test_entropy_saturation_comparator(self):
        # one-step entropy regularization caps at delta^{4/3} once s > 2a:
        # the effective smoothness is min(s, 2a)
        for s in (4.5, 5.5, 8.0):
            capped = predict_rate_entropy(min(s, 4.0), 2.0)
            assert abs(capped.error_exponent - 4.0 / 3.0) < 1e-15


class TestConstructSource:
    def test_order_one_is_truth(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f = band_limited_signal(grid, rng, band=6)
        dec = construct_source(op, f, 1)
        assert np.array_equal(dec.leading().values, f.values)
        assert dec.omegas == [] and dec.pbars == []

    def test_order_three_recovers_generator(self, grid, rng):
        # gentle symbol: the inversion amplifies FFT round-off by at most
        # mu(Nyquist)^-2 ~ 32, so the 1e-10 recovery tolerance is attainable
        # (the steep inverse-Helmholtz symbol amplifies eps-noise to ~1e-7)
        from torusreg import FourierMultiplierOperator

        j = grid.modes
        op = FourierMultiplierOperator(grid, (1.0 + j.astype(float) ** 2) ** -0.25, 0.5)
        w = band_limited_signal(grid, rng, band=6)
        f = power_apply(op, 1.0, w)  # f = (T*T) w
        dec = construct_source(op, f, 3)
        assert norm_l2(dec.leading() - w) <= 1e-10 * norm_l2(w)

    def test_order_three_recovery_helmholtz_eps_limited(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        w = band_limited_signal(grid, rng, band=6)
        f = power_apply(op, 1.0, w)
        dec = construct_source(op, f, 3)
        floor = np.finfo(float).eps * float(np.min(op.symbol)) ** -2
        assert norm_l2(dec.leading() - w) <= 10.0 * floor * norm_l2(w)

    def test_order_two_single_mode_division(self, grid):
        op = make_inverse_helmholtz(grid)
        f = single_mode_signal(grid, 3, "cos")
        dec = construct_source(op, f, 2)
        mu3 = op.symbol[grid.modes == 3][0]
        assert norm_l2(dec.leading() - (1.0 / mu3) * f) <= 1e-10 / mu3

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_round_trip_reproduces_truth(self, grid, rng, order):
        op = make_inverse_helmholtz(grid)
        w = band_limited_signal(grid, rng, band=5)
        f = multiplier_power_apply(op, float(order - 1), w)
        dec = construct_source(op, f, order)
        back = multiplier_power_apply(op, float(order - 1), dec.leading())
        assert norm_l2(back - f) <= 1e-8 * norm_l2(f)

    def test_intermediate_elements_consistent(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        w = band_limited_signal(grid, rng, band=4)
        f = multiplier_power_apply(op, 5.0, w)  # order 6 source exists
        dec = construct_source(op, f, 6)
        for j, omega_j in enumerate(dec.omegas, start=1):
            assert norm_l2(power_apply(op, float(j), omega_j) - f) <= 1e-8 * norm_l2(f)
        for j, pbar_j in enumerate(dec.pbars, start=1):
            back = multiplier_power_apply(op, 2.0 * j - 1.0, pbar_j)
            assert norm_l2(back - f) <= 1e-8 * norm_l2(f)

    def test_missing_smoothness_raises(self):
        grid = TorusGrid(512)
        op = make_inverse_helmholtz(grid)
        rng = np.random.default_rng(3)
        rough = Signal(grid, rng.standard_normal(grid.n))
        with pytest.raises(SourceDivisionError):
            construct_source(op, rough, 50)


class TestDecaySpaceNorm:
    def test_zero_signal(self, grid):
        op = make_inverse_helmholtz(grid)
        kappa = HoelderIndexFunction(1.0, 0.25)
        assert decay_space_norm(op, Signal(grid, np.zeros(grid.n)), kappa) == 0.0

    def test_single_mode_value(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        # j = n/2 (cos only; its sin vanishes on the grid) is the one nonzero
        # mode with no partner -j, so its energy counts once: sqrt(2) cos has
        # norm sqrt(2) there, and 1 at every other j
        for _ in range(200):
            j = int(rng.integers(0, grid.n // 2 + 1))
            kind = "cos" if rng.uniform() < 0.5 or j in (0, grid.n // 2) else "sin"
            theta = float(rng.uniform(0.1, 1.0))
            kappa = HoelderIndexFunction(1.0, theta)
            f = single_mode_signal(grid, j, kind)
            mu = op.symbol_rfft[j]
            expected = norm_l2(f) / kappa(mu**2)
            got = decay_space_norm(op, f, kappa)
            assert abs(got - expected) <= 1e-9 * expected

    def test_matches_brute_force_projections(self, grid, rng):
        # ||E_lambda f|| is constant on (v, v'] between eigenvalues and 1/kappa
        # decreases, so the sup is the max over v of the projection just above v
        op = make_inverse_helmholtz(grid)
        kappa = HoelderIndexFunction(1.0, 0.3)
        for _ in range(5):
            f = random_signal(grid, rng)
            brute = max(norm_l2(spectral_projection(op, v * (1.0 + 1e-9), f)) / kappa(v)
                        for v in np.unique(op.symbol**2))
            assert abs(decay_space_norm(op, f, kappa) - brute) <= 1e-12 * brute

    def test_monotone_in_kappa(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        f = band_limited_signal(grid, rng, band=10)
        # larger kappa pointwise on (0, mu_0^2] -> smaller norm
        small = HoelderIndexFunction(1.0, 0.8)
        large = HoelderIndexFunction(3.0, 0.8)
        assert decay_space_norm(op, f, small) >= decay_space_norm(op, f, large)

    def test_triangle_inequality(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        kappa = HoelderIndexFunction(1.0, 0.3)
        for _ in range(100):
            f = band_limited_signal(grid, rng, band=12)
            g = band_limited_signal(grid, rng, band=12)
            lhs = decay_space_norm(op, f + g, kappa)
            rhs = decay_space_norm(op, f, kappa) + decay_space_norm(op, g, kappa)
            assert lhs <= rhs + 1e-10 * max(1.0, rhs)

    def test_shifted_kappa_matches_source_element(self, grid):
        # the order-l generator lives one operator power down: for a single
        # mode, the decay norm of the truth against kappa * t^{(l-1)/2}
        # equals the decay norm of the generator against kappa
        op = make_inverse_helmholtz(grid)
        f = single_mode_signal(grid, 4, "cos")
        kappa = HoelderIndexFunction(1.0, 0.25)
        for order in (2, 3, 4):
            dec = construct_source(op, f, order)
            shifted = HoelderIndexFunction(1.0, min(1.0, 0.25 + (order - 1) / 2.0))
            if shifted.exponent == 0.25 + (order - 1) / 2.0:
                lhs = decay_space_norm(op, f, shifted)
                rhs = decay_space_norm(op, dec.leading(), kappa)
                assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs)


def nyquist_mode(grid):
    """The unit-norm Nyquist mode (-1)^i, the real mode j = n/2."""
    return Signal(grid, (-1.0) ** np.arange(grid.n))


class TestModeInnerProducts:
    def test_matches_inner_products_with_modes(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        half = grid.n // 2
        modes = [(0, "cos")] + [(j, kind) for j in range(1, half) for kind in ("cos", "sin")]
        units = [single_mode_signal(grid, j, kind) for j, kind in modes] + [nyquist_mode(grid)]
        for _ in range(10):
            omega = random_signal(grid, rng)
            coeffs, mus = _mode_inner_products(op, omega)
            oracle = [inner(omega, u) for u in units]
            assert len(coeffs) == len(mus) == grid.n
            assert np.max(np.abs(coeffs - oracle)) <= 1e-14
            assert list(mus) == [op.symbol[np.abs(grid.modes) == j][0] for j, _ in modes + [(half, "")]]

    def test_sees_the_nyquist_mode(self, grid):
        # omega = 5 (-1)^i is orthogonal to every other real mode, so its one
        # nonzero coefficient is the Nyquist mode's, with symbol mu_{n/2}
        op = make_inverse_helmholtz(grid)
        omega = 5.0 * nyquist_mode(grid)
        coeffs, mus = _mode_inner_products(op, omega)
        assert coeffs[-1] == pytest.approx(5.0, rel=1e-15)
        assert np.max(np.abs(coeffs[:-1])) <= 1e-14
        assert mus[-1] == op.symbol_rfft[-1]


def per_family_violation_search(op, omega, phi, trials, seed, amplitudes=np.logspace(-8, 4, 61)):
    """Oracle: scores the single modes, the scaled copies of omega and the
    Gaussian directions one family at a time, one Signal per trial."""
    coeffs, mus = _mode_inner_products(op, omega)
    t = amplitudes[:, None]
    best = float(np.max(np.abs(coeffs) * t - 0.5 * t**2 - phi((mus * t) ** 2)))
    norm_omega = norm_l2(omega)
    if norm_omega > 0:
        scales = amplitudes / norm_omega
        residual = (inner(omega, omega) * scales - 0.5 * (scales * norm_omega) ** 2
                    - phi((scales * norm_l2(apply(op, omega))) ** 2))
        best = max(best, float(np.max(residual)))
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        g = Signal(omega.grid, rng.standard_normal(omega.grid.n))
        g = (1.0 / norm_l2(g)) * g
        proj = inner(omega, g)
        image = norm_l2(apply(op, g))
        residual = abs(proj) * amplitudes - 0.5 * amplitudes**2 - phi((image * amplitudes) ** 2)
        best = max(best, float(np.max(residual)))
    return best


class TestViolationSearch:
    @pytest.mark.parametrize("n", [64, 480])
    def test_matches_the_per_family_oracle(self, n):
        # 40 seeds x 3 amplitudes x 3 exponents; the generators (T*T)^s w for
        # s = 0 .. 3/4 give both verdicts at the 1e-9 threshold
        grid = TorusGrid(n)
        op = make_inverse_helmholtz(grid)
        verdicts = set()
        for seed in range(40):
            w = band_limited_signal(grid, np.random.default_rng(seed), band=8)
            omega = power_apply(op, 0.25 * (seed % 4), w)
            for amplitude in (0.5, 1.0, 4.0):
                for exponent in (1.0 / 3.0, 0.5, 1.0):
                    phi = HoelderIndexFunction(amplitude, exponent)
                    got = vsc_violation_search(op, omega, phi, trials=16, seed=seed)
                    want = per_family_violation_search(op, omega, phi, 16, seed)
                    assert abs(got - want) <= 1e-12 * abs(want)
                    verdicts.add(want <= 1e-9)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("kind", ["one trial", "zero generator"])
    def test_matches_the_per_family_oracle_at_the_edges(self, grid, rng, kind):
        op = make_inverse_helmholtz(grid)
        phi = HoelderIndexFunction(1.0, 0.5)
        if kind == "one trial":
            omega, trials = band_limited_signal(grid, rng, band=6), 1
        else:
            omega, trials = Signal(grid, np.zeros(grid.n)), 8
        got = vsc_violation_search(op, omega, phi, trials=trials, seed=5)
        want = per_family_violation_search(op, omega, phi, trials, 5)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_zero_generator_has_no_violation(self, grid):
        op = make_inverse_helmholtz(grid)
        phi = HoelderIndexFunction(1.0, 0.5)
        res = vsc_violation_search(op, Signal(grid, np.zeros(grid.n)), phi, trials=8, seed=0)
        assert res <= 0.0

    def test_single_mode_counterexample_found(self, grid):
        # omega = c e_j with c > A mu_j violates the order-one inequality
        op = make_inverse_helmholtz(grid)
        j = 5
        mu = op.symbol[grid.modes == j][0]
        amplitude = 1.0
        phi = HoelderIndexFunction(amplitude, 0.5)
        omega = (3.0 * amplitude * mu) * single_mode_signal(grid, j, "cos")
        res = vsc_violation_search(op, omega, phi, trials=8, seed=0)
        assert res > 0.0

    def test_single_mode_satisfied_below_threshold(self, grid):
        op = make_inverse_helmholtz(grid)
        j = 5
        mu = op.symbol[grid.modes == j][0]
        phi = HoelderIndexFunction(1.0, 0.5)
        omega = (0.5 * mu) * single_mode_signal(grid, j, "cos")
        res = vsc_violation_search(op, omega, phi, trials=32, seed=0)
        assert res <= 1e-9

    def test_smooth_source_satisfied_for_large_amplitude(self, grid, rng):
        # truth in ran((T*T)^{nu/2}) satisfies the inequality with
        # Phi = A id^{nu/(nu+1)} once A is large enough: double until found
        op = make_inverse_helmholtz(grid)
        nu = 0.5
        w = band_limited_signal(grid, rng, band=8)
        f_true = power_apply(op, nu / 2.0, w)
        omega = construct_source(op, f_true, 1).leading()
        amplitude = 1.0
        for _ in range(60):
            phi = HoelderIndexFunction(amplitude, nu / (nu + 1.0))
            res = vsc_violation_search(op, omega, phi, trials=16, seed=2)
            if res <= 1e-9:
                break
            amplitude *= 2.0
        assert res <= 1e-9

    def test_deterministic_given_seed(self, grid, rng):
        op = make_inverse_helmholtz(grid)
        omega = band_limited_signal(grid, rng, band=6)
        phi = HoelderIndexFunction(1.0, 0.4)
        r1 = vsc_violation_search(op, omega, phi, trials=16, seed=123)
        r2 = vsc_violation_search(op, omega, phi, trials=16, seed=123)
        assert r1 == r2

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be finite and non-negative, got -1"),
        (1.5, "seed must be int, got 1.5"),
        (True, "seed must be int, got True"),
    ])
    def test_bad_seed_is_a_config_error_naming_it(self, grid, rng, seed, message):
        op = make_inverse_helmholtz(grid)
        omega = band_limited_signal(grid, rng, band=6)
        phi = HoelderIndexFunction(1.0, 0.4)
        with pytest.raises(ConfigError, match=message):
            vsc_violation_search(op, omega, phi, trials=16, seed=seed)
