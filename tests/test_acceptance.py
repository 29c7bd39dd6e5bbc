"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 2-4 fit log-log
slopes of full sweeps; windows are documented inline next to each setup.
"""

import time
from dataclasses import replace

import numpy as np

from torusreg import (
    EntropyPenalty,
    ExperimentConfig,
    FourierMultiplierOperator,
    HoelderIndexFunction,
    NoiseModel,
    Problem,
    ProblemConfig,
    QuadraticPenalty,
    Signal,
    SolverConfig,
    SweepConfig,
    TorusGrid,
    apply,
    approx_error_sweep,
    bregman_iterate,
    calibrate_c,
    construct_source,
    decay_space_norm,
    fenchel_psi,
    fit_rate,
    geometric_grid,
    inner,
    kl_divergence,
    make_inverse_helmholtz,
    multiplier_power_apply,
    norm_l1,
    norm_l2,
    power_apply,
    predict_rate_entropy,
    prox_fidelity,
    rate_sweep,
    step_penalty,
    vsc_violation_search,
)

from conftest import band_limited_signal, prox_signal, random_signal, single_mode_signal, to_spectrum
from test_bregman import iterated_tikhonov_filter
from test_vsc import golden_section_sup


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} [{status}] {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_equivalence_quadratic():
    """DR pipeline matches the spectral iterated-Tikhonov filter formula."""
    start = time.perf_counter()
    grid = TorusGrid(128)
    op = make_inverse_helmholtz(grid)
    rng = np.random.default_rng(2024)
    f_true = random_signal(grid, rng)
    prior = random_signal(grid, rng)
    g_obs = apply(op, f_true) + 0.05 * random_signal(grid, rng)
    worst = 0.0
    for alpha in (1e-4, 1e-2, 1.0):
        reports = bregman_iterate(
            op, g_obs, alpha, QuadraticPenalty(prior), 4, SolverConfig(tol=1e-11)
        )
        for n, r in enumerate(reports, start=1):
            oracle = iterated_tikhonov_filter(op, g_obs, prior, alpha, n)
            got = to_spectrum(r.minimizer)
            rel = float(np.linalg.norm(got - oracle) / np.linalg.norm(oracle))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-6 and elapsed < 10.0,
        f"DR vs filter formula: worst relative L2 error {worst:.2e} "
        f"(tol 1e-06), elapsed {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_hilbert_rate_envelope():
    """Fitted delta-slopes match (l-1+nu)/(l+nu) within 0.1 for four orders."""
    start = time.perf_counter()
    grid = TorusGrid(512)
    j = grid.modes.astype(float)
    op = FourierMultiplierOperator(grid, (1.0 + j**2) ** -0.5, smoothing_order=1.0)
    rng = np.random.default_rng(42)
    solver = SolverConfig(method="spectral")
    cs = tuple(np.logspace(-2, 2, 9))
    k_max = 250
    results = []
    for l, nu, m in ((1, 0.5, 1), (2, 0.5, 1), (3, 0.5, 2), (4, 0.5, 2)):
        w = band_limited_signal(grid, rng, band=200)
        f_true = power_apply(op, (l - 1 + nu) / 2.0, w)
        prior = Signal(grid, np.zeros(grid.n))
        problem = Problem(grid, op, QuadraticPenalty(prior), f_true, apply(op, f_true))
        sigma = 2.0 / (l + nu)
        target = (l - 1.0 + nu) / (l + nu)
        # pass 1: calibrate c on a coarse window (alpha in [1e-3, 1e-1] at c=1)
        cal = ExperimentConfig(
            solver=solver,
            sweep=SweepConfig(
                deltas=geometric_grid(0.1 ** (1 / sigma), 0.001 ** (1 / sigma), 5),
                alpha_sigma=sigma,
                bregman_steps=m,
                predicted_rate=2.0 * target,  # kl column is the squared error
                noise=NoiseModel(kind="worst_case", k_max=k_max),
                calibrate_cs=cs,
            ),
        )
        c = calibrate_c(cal, problem=problem).c
        # pass 2: map the window so alpha spans [2e-5, 0.2]; the worst
        # sinusoid then stays within the searched frequencies
        d_hi, d_lo = (0.2 / c) ** (1 / sigma), (2e-5 / c) ** (1 / sigma)
        cfg = replace(
            cal, sweep=replace(cal.sweep, deltas=geometric_grid(d_hi, d_lo, 12), alpha_c=c)
        )
        rows = rate_sweep(cfg, problem=problem)
        fit = fit_rate(rows, x="delta", y="kl_error", n_bregman=m)
        slope_l2 = fit.slope / 2.0
        results.append((l, nu, m, slope_l2, target, fit.r_squared))
    elapsed = time.perf_counter() - start
    ok = all(abs(s - t) <= 0.1 for (_, _, _, s, t, _) in results) and elapsed < 120.0
    detail = "; ".join(
        f"(l={l},nu={nu},m={m}): slope {s:.3f} vs {t:.3f} (r2={r2:.4f})"
        for (l, nu, m, s, t, r2) in results
    )
    report(2, ok, f"{detail}; elapsed {elapsed:.1f}s (< 120s)")


def test_criterion_3_entropy_approximation_error():
    """Exact-data KL error: alpha-slope 2.0 +- 0.15 for one step (saturation),
    2.75 +- 0.20 for two steps."""
    start = time.perf_counter()
    cfg = ExperimentConfig(
        problem=ProblemConfig(),  # n = 480, entropy, B-spline degree 5, prior 1
        solver=SolverConfig(tol=1e-13),
        sweep=SweepConfig(
            alphas=tuple(np.geomspace(1e-7, 1e-10, 13)),  # 3 decades, asymptotic
            bregman_steps=2,
            noise=NoiseModel(kind="exact"),
        ),
    )
    rows = approx_error_sweep(cfg)
    fit1 = fit_rate(rows, x="alpha", y="kl_error", n_bregman=1)
    fit2 = fit_rate(rows, x="alpha", y="kl_error", n_bregman=2)
    elapsed = time.perf_counter() - start
    ok = abs(fit1.slope - 2.0) <= 0.15 and abs(fit2.slope - 2.75) <= 0.20 and elapsed < 300.0
    report(
        3,
        ok,
        f"one-step slope {fit1.slope:.3f} (2.00 +- 0.15, r2={fit1.r_squared:.4f}); "
        f"two-step slope {fit2.slope:.3f} (2.75 +- 0.20, r2={fit2.r_squared:.4f}); "
        f"elapsed {elapsed:.1f}s (< 300s)",
    )


def test_criterion_4_entropy_noise_rates():
    """Worst-case-noise KL rates: delta^{4/3} for one step, delta^{22/15} for
    two steps, each under its own calibrated a-priori rule.

    A single rule alpha ~ delta^{8/15} cannot show 4/3 for the one-step
    estimator: its saturation part alpha^2 = c^2 delta^{16/15} dominates as
    delta -> 0 (measured slope ~0.9-1.1 in finite windows). Each estimator
    therefore gets its own optimal exponent: 2a/(min(s,2a)+a) = 2/3 for one
    step, 2a/(s+a) = 8/15 for two. The single-rule one-step slope is
    printed for reference.
    """
    start = time.perf_counter()
    solver = SolverConfig(tol=1e-12)
    cs = tuple(np.logspace(-4, -2, 5))
    k_max = 32

    def run(n_steps, sigma, rate, d_hi, d_lo):
        cal = ExperimentConfig(
            solver=solver,
            sweep=SweepConfig(
                deltas=geometric_grid(d_hi, d_lo, 4),
                alpha_sigma=sigma,
                bregman_steps=n_steps,
                predicted_rate=rate,
                noise=NoiseModel(kind="worst_case", k_max=k_max),
                calibrate_cs=cs,
            ),
        )
        c = calibrate_c(cal).c
        cfg = replace(
            cal, sweep=replace(cal.sweep, deltas=geometric_grid(d_hi, d_lo, 12), alpha_c=c)
        )
        return c, rate_sweep(cfg)

    sigma2 = predict_rate_entropy(5.5, 2.0).alpha_exponent  # 8/15
    rate2 = predict_rate_entropy(5.5, 2.0).error_exponent  # 22/15
    c2, rows2 = run(2, sigma2, rate2, 1e-3, 1e-6)
    fit2 = fit_rate(rows2, x="delta", y="kl_error", n_bregman=2)
    single_rule_fit1 = fit_rate(rows2, x="delta", y="kl_error", n_bregman=1)

    # one-step estimator saturates at effective smoothness min(s, 2a) = 2a
    sigma1 = predict_rate_entropy(4.0, 2.0).alpha_exponent  # 2/3
    rate1 = predict_rate_entropy(4.0, 2.0).error_exponent  # 4/3
    c1, rows1 = run(1, sigma1, rate1, 1e-4, 1e-7)
    fit1 = fit_rate(rows1, x="delta", y="kl_error", n_bregman=1)

    elapsed = time.perf_counter() - start
    ok = (
        abs(fit1.slope - 4.0 / 3.0) <= 0.15
        and abs(fit2.slope - 22.0 / 15.0) <= 0.15
        and elapsed < 1200.0
    )
    report(
        4,
        ok,
        f"one-step slope {fit1.slope:.3f} (4/3 +- 0.15, c={c1:g}, r2={fit1.r_squared:.4f}); "
        f"two-step slope {fit2.slope:.3f} (22/15 +- 0.15, c={c2:g}, r2={fit2.r_squared:.4f}); "
        f"single-rule one-step slope {single_rule_fit1.slope:.3f} (reference, "
        f"saturation-limited); elapsed {elapsed:.1f}s (< 1200s)",
    )


def test_criterion_5_property_suites():
    """Randomized property suites, >= 200 cases each, fixed seed."""
    start = time.perf_counter()
    grid = TorusGrid(64)
    op = make_inverse_helmholtz(grid)
    rng = np.random.default_rng(777)
    ones = Signal(grid, np.ones(grid.n))
    checks = {}

    # Bregman non-negativity
    worst = float("inf")
    for _ in range(200):
        pen = EntropyPenalty(Signal(grid, rng.uniform(0.2, 3.0, grid.n)))
        f = Signal(grid, rng.uniform(0.05, 4.9, grid.n))
        base = Signal(grid, rng.uniform(0.05, 4.9, grid.n))
        worst = min(worst, pen.bregman(f, base))
        quad = QuadraticPenalty(random_signal(grid, rng))
        worst = min(worst, quad.bregman(random_signal(grid, rng), random_signal(grid, rng)))
    checks["bregman >= 0"] = worst >= 0.0

    # step-penalty Bregman distance equals the original's
    chains = []
    prior_q = random_signal(grid, rng)
    pen_q = QuadraticPenalty(prior_q)
    chains.append(
        (pen_q, bregman_iterate(op, random_signal(grid, rng), 0.5, pen_q, 3,
                                SolverConfig(method="spectral")))
    )
    pen_e = EntropyPenalty(ones, 0.0, 5.0)
    f_smooth = Signal(grid, 1.0 + 0.4 * np.cos(2 * np.pi * grid.points))
    chains.append((pen_e, bregman_iterate(op, apply(op, f_smooth), 0.1, pen_e, 2)))
    worst = 0.0
    for i in range(200):
        pen, reports = chains[i % len(chains)]
        if isinstance(pen, EntropyPenalty):
            f = Signal(grid, rng.uniform(0.2, 4.5, grid.n))
            base = Signal(grid, rng.uniform(0.2, 4.5, grid.n))
        else:
            f, base = random_signal(grid, rng), random_signal(grid, rng)
        lhs = step_penalty(pen, reports[-1].minimizer).bregman(f, base)
        rhs = pen.bregman(f, base)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    checks["step-penalty distance invariance (1e-8)"] = worst <= 1e-8

    # Pinsker-type bound for probability densities
    ok = True
    for _ in range(200):
        f1 = np.abs(rng.standard_normal(grid.n)) + 1e-3
        f2 = np.abs(rng.standard_normal(grid.n)) + 1e-3
        f1 = Signal(grid, f1 / np.mean(f1))
        f2 = Signal(grid, f2 / np.mean(f2))
        ok &= 2.0 * kl_divergence(f1, f2) >= norm_l1(f1 - f2) ** 2 - 1e-12
    checks["pinsker 2KL >= ||.||_1^2"] = ok

    # Parseval and adjoint symmetry
    worst_p, worst_a = 0.0, 0.0
    for _ in range(200):
        f, g = random_signal(grid, rng), random_signal(grid, rng)
        c = to_spectrum(f)
        worst_p = max(
            worst_p,
            abs(norm_l2(f) ** 2 - float(np.sum(np.abs(c) ** 2))) / max(1.0, norm_l2(f) ** 2),
        )
        worst_a = max(
            worst_a,
            abs(inner(apply(op, f), g) - inner(f, apply(op, g)))
            / max(1e-30, norm_l2(f) * norm_l2(g)),
        )
    checks["parseval (1e-10)"] = worst_p <= 1e-10
    checks["adjoint symmetry (1e-10)"] = worst_a <= 1e-10

    # prox optimality residuals
    worst = 0.0
    for _ in range(200):
        pen = EntropyPenalty(Signal(grid, rng.uniform(0.2, 3.0, grid.n)))
        x = random_signal(grid, rng, scale=2.0)
        gamma = float(rng.uniform(0.05, 5.0))
        v = pen.prox(x, gamma).values
        interior = (v > pen.box_lo + 2e-12) & (v < pen.box_hi - 1e-12)
        res = gamma * np.log(v[interior] / pen.prior.values[interior]) + v[interior] - x.values[interior]
        worst = max(worst, float(np.max(np.abs(res), initial=0.0)))

        quad = QuadraticPenalty(random_signal(grid, rng))
        vq = prox_signal(quad, x, gamma)
        res_q = gamma * (vq - quad.prior) + (vq - x)
        worst = max(worst, float(np.max(np.abs(res_q.values))))

        g_obs = random_signal(grid, rng)
        vf = prox_fidelity(op, g_obs, x, gamma, 1.0)
        vc, gc, xc = (to_spectrum(s) for s in (vf, g_obs, x))
        res_f = gamma * op.symbol * (op.symbol * vc - gc) + (vc - xc)
        worst = max(worst, float(np.max(np.abs(res_f))))
    checks["prox optimality residuals (1e-10)"] = worst <= 1e-10

    # Bregman distance of the fidelity S = 1/2 ||.||^2, from its definition
    # D_S(x, y) = S(x) - S(y) - <y, x - y>, vs the norm-power bound 1/2 ||x - y||^2
    worst = 0.0
    for _ in range(200):
        x, y = random_signal(grid, rng), random_signal(grid, rng)
        lhs = 0.5 * norm_l2(x) ** 2 - 0.5 * norm_l2(y) ** 2 - inner(y, x - y)
        rhs = 0.5 * norm_l2(x - y) ** 2
        worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
    checks["fidelity lower bound equality (1e-12)"] = worst <= 1e-12

    # conjugate of the index function: closed form vs numeric sup
    worst = 0.0
    for _ in range(200):
        a = float(rng.uniform(0.2, 5.0))
        theta = float(rng.uniform(0.1, 0.9))
        alpha = float(10.0 ** rng.uniform(-4, 2))
        phi = HoelderIndexFunction(a, theta)
        closed = fenchel_psi(phi, -1.0 / alpha)
        numeric = golden_section_sup(phi, -1.0 / alpha)
        worst = max(worst, abs(closed - numeric) / max(1.0, closed))
    checks["conjugate closed form vs numeric sup (1e-8)"] = worst <= 1e-8

    # decay-space norm of a single mode
    worst = 0.0
    for _ in range(200):
        jj = int(rng.integers(0, grid.n // 2))
        kind = "cos" if jj == 0 or rng.uniform() < 0.5 else "sin"
        kappa = HoelderIndexFunction(1.0, float(rng.uniform(0.1, 1.0)))
        f = single_mode_signal(grid, jj, kind)
        mu = op.symbol[grid.modes == jj][0]
        expected = 1.0 / kappa(mu**2)
        worst = max(worst, abs(decay_space_norm(op, f, kappa) - expected) / expected)
    checks["decay norm single mode (1e-9)"] = worst <= 1e-9

    elapsed = time.perf_counter() - start
    detail = "; ".join(f"{name}: {'ok' if ok else 'VIOLATED'}" for name, ok in checks.items())
    report(5, all(checks.values()), f"{detail}; elapsed {elapsed:.1f}s")


def test_criterion_6_vsc_diagnostics():
    """Source round trips at 1e-8; the violation search separates an
    engineered counterexample from an engineered satisfying case."""
    start = time.perf_counter()
    grid = TorusGrid(480)
    op = make_inverse_helmholtz(grid)
    rng = np.random.default_rng(99)

    worst = 0.0
    for order in (1, 2, 3, 4):
        w = band_limited_signal(grid, rng, band=6)
        f_true = multiplier_power_apply(op, float(order - 1), w)
        dec = construct_source(op, f_true, order)
        back = multiplier_power_apply(op, float(order - 1), dec.leading())
        worst = max(worst, norm_l2(back - f_true) / norm_l2(f_true))
    round_trip_ok = worst <= 1e-8

    t_violation = time.perf_counter()
    jj = 5
    mu = op.symbol[grid.modes == jj][0]
    phi = HoelderIndexFunction(1.0, 0.5)
    omega_bad = (3.0 * mu) * single_mode_signal(grid, jj, "cos")
    residual_bad = vsc_violation_search(op, omega_bad, phi, trials=16, seed=0)
    violation_time = time.perf_counter() - t_violation

    t_satisfy = time.perf_counter()
    nu = 0.5
    w = band_limited_signal(grid, rng, band=8)
    f_true = power_apply(op, nu / 2.0, w)
    omega = construct_source(op, f_true, 1).leading()
    amplitude, residual_good = 1.0, float("inf")
    while amplitude < 2.0**40:
        phi_good = HoelderIndexFunction(amplitude, nu / (nu + 1.0))
        residual_good = vsc_violation_search(op, omega, phi_good, trials=16, seed=2)
        if residual_good <= 1e-9:
            break
        amplitude *= 2.0
    satisfy_time = time.perf_counter() - t_satisfy

    elapsed = time.perf_counter() - start
    ok = (
        round_trip_ok
        and residual_bad > 0.0
        and residual_good <= 1e-9
        and violation_time < 10.0
        and satisfy_time < 10.0
    )
    report(
        6,
        ok,
        f"round trip worst rel error {worst:.2e} (1e-08); engineered violation "
        f"residual {residual_bad:.2e} > 0 in {violation_time:.1f}s; satisfying case "
        f"residual {residual_good:.2e} <= 1e-09 at amplitude {amplitude:g} "
        f"in {satisfy_time:.1f}s; elapsed {elapsed:.1f}s",
    )
