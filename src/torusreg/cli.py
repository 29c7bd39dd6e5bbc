"""Command-line entry points: reconstruct, sweeps, diagnostics, selftest."""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bregman import bregman_iterate, spectral_chain
from .config import default_config, load_config
from .errors import ConfigError, SourceDivisionError, TorusRegError
from .functionals import QuadraticPenalty
from .harness import (
    apriori_alpha,
    approx_error_sweep,
    build_problem,
    calibrate_c,
    fit_rate,
    rate_sweep,
    worst_case_search,
)
# apply is unused here but stays importable: perfbench/spans.py patches cli.apply
from .operators import apply, kernel_signal, make_inverse_helmholtz  # noqa: F401
from .solvers import SolverConfig, solve_generalized_dr
from .svgplot import Line, Series, svg_loglog
from .reportio import write_signals_csv, write_sweep_csv
from .torus import Signal, TorusGrid, norm_l2, to_spectrum
from .vsc import (
    HoelderIndexFunction,
    construct_source,
    decay_space_norm,
    vsc_violation_search,
)


def _ensure_outdir(config, args):
    """Make the output directory; every command does so before it computes.

    The directories it makes are listed in ``args.made``, deepest first, so
    that :func:`main` can remove them again when the command exits 2.
    """
    directory = args.out or config.output.directory
    head = os.path.abspath(directory)
    while not os.path.exists(head):
        args.made.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory!r}: {exc.strerror}") from exc
    return directory


def _load(args):
    return load_config(args.config) if args.config else default_config()


def cmd_reconstruct(args) -> int:
    config = _load(args)
    outdir = _ensure_outdir(config, args)
    problem = build_problem(config.problem)
    sweep = config.sweep
    delta = sweep.deltas[0]
    alpha = sweep.alphas[0] if sweep.alphas else apriori_alpha(delta, sweep.alpha_c, sweep.alpha_sigma)
    k, g_obs, reports, _ = worst_case_search(config, problem, delta, alpha)[-1]
    path = os.path.join(outdir, "reconstruction.csv")
    columns = {"f_true": problem.f_true, "g_true": problem.g_true, "g_obs": g_obs}
    for n, r in enumerate(reports, 1):
        columns[f"f_step{n}"] = r.minimizer
    write_signals_csv(path, columns)
    print(f"reconstruct: delta={delta:g} alpha={alpha:g} noise_k={k}")
    for n, r in enumerate(reports, 1):
        err = problem.penalty.bregman(r.minimizer, problem.f_true)
        print(
            f"  step {n}: penalty_error={err:.6e} data_residual={r.data_residual:.6e} "
            f"iterations={r.iterations} boundary_touch={r.boundary_touch}"
        )
    print(f"wrote {path}")
    return 0


def _emit_sweep_outputs(config, rows, outdir, x_field, xlabel):
    csv_path = os.path.join(outdir, config.output.csv_name)
    write_sweep_csv(rows, csv_path)
    print(f"wrote {csv_path}")
    steps = sorted({r.n_bregman for r in rows})
    series, lines = [], []
    for n in steps:
        picked = [r for r in rows if r.n_bregman == n and r.kl_error > 0 and getattr(r, x_field) > 0]
        if len(picked) < 3:
            continue
        xs = [getattr(r, x_field) for r in picked]
        ys = [r.kl_error for r in picked]
        fit = fit_rate(picked, x=x_field, y="kl_error")
        print(f"  step {n}: slope={fit.slope:.4f} r2={fit.r_squared:.5f} points={fit.n_points}")
        series.append(Series(label=f"step {n} (slope {fit.slope:.3f})", xs=xs, ys=ys))
        lines.append(Line(label="", slope=fit.slope, intercept10=fit.intercept / math.log(10), dashed=False))
    if config.sweep.predicted_rate is not None and series:
        anchor_x, anchor_y = series[-1].xs[0], series[-1].ys[0]
        rate = config.sweep.predicted_rate
        lines.append(
            Line(
                label=f"reference slope {rate:.3f}",
                slope=rate,
                intercept10=math.log10(anchor_y) - rate * math.log10(anchor_x),
            )
        )
    if config.output.write_svg and series:
        svg_path = os.path.join(outdir, config.output.svg_name)
        svg_loglog(svg_path, series, lines, title="penalty error", xlabel=xlabel, ylabel="error")
        print(f"wrote {svg_path}")


def cmd_approx_sweep(args) -> int:
    config = _load(args)
    outdir = _ensure_outdir(config, args)
    rows = approx_error_sweep(config)
    _emit_sweep_outputs(config, rows, outdir, "alpha", "alpha")
    return 0


def cmd_rate_sweep(args) -> int:
    config = _load(args)
    outdir = _ensure_outdir(config, args)
    rows = None
    if config.sweep.calibrate_cs:
        c, _, rows = calibrate_c(config, threads=args.threads)  # rows: the sweep at c, if it ran
        print(f"calibrated c = {c:g}")
        config = replace(config, sweep=replace(config.sweep, alpha_c=c))
    if rows is None:
        rows = rate_sweep(config, threads=args.threads)
    _emit_sweep_outputs(config, rows, outdir, "delta", "delta")
    return 0


def cmd_vsc_diagnose(args) -> int:
    config = _load(args)
    outdir = _ensure_outdir(config, args)
    problem = build_problem(config.problem)
    path = os.path.join(outdir, "vsc_report.txt")
    lines = [f"torusreg {__version__} vsc diagnostics (n={problem.grid.n})"]
    for nu in (0.25, 0.5, 1.0):
        kappa = HoelderIndexFunction(1.0, nu / 2.0)
        norm = decay_space_norm(problem.op, problem.f_true, kappa)
        lines.append(f"decay norm, kappa=t^{nu / 2:g}: {norm:.6e}")
    for order in (1, 2, 3, 4):
        try:
            source = construct_source(problem.op, problem.f_true, order)
            lines.append(f"order {order} source: ok, |generator|_2 = {norm_l2(source.leading()):.3e}")
        except SourceDivisionError as exc:
            lines.append(f"order {order} source: fails at mode {exc.mode}")
    omega = construct_source(problem.op, problem.f_true, 1).leading()
    for doubling in range(60):
        amplitude = 2.0**doubling
        phi = HoelderIndexFunction(amplitude, 1.0 / 3.0)
        residual = vsc_violation_search(problem.op, omega, phi, trials=32, seed=args.seed)
        if residual <= 1e-9:
            verdict = "satisfied at"
            break
    else:
        verdict = "not satisfied up to"
    lines.append(
        f"first-order inequality {verdict} amplitude {amplitude:g} "
        f"(residual {residual:.3e}, exponent 1/3)"
    )
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"wrote {path}")
    return 0


def cmd_selftest(args) -> int:
    checks = []
    grid = TorusGrid(128)
    op = make_inverse_helmholtz(grid)
    rng = np.random.default_rng(args.seed)

    f = Signal(grid, rng.standard_normal(grid.n))
    parseval = abs(norm_l2(f) ** 2 - float(np.sum(np.abs(to_spectrum(f)) ** 2)))
    checks.append(("parseval", parseval < 1e-10))

    kernel_spec = to_spectrum(kernel_signal(grid))
    defect = float(np.max(np.abs(kernel_spec - op.symbol)))
    checks.append(("kernel symbol aliasing bound", defect < 1.0 / (4.0 * grid.n**2)))

    prior = Signal(grid, rng.standard_normal(grid.n))
    g_obs = Signal(grid, rng.standard_normal(grid.n))
    [exact_rfft] = spectral_chain(op, g_obs.rfft, 0.1, QuadraticPenalty(prior), 1)
    exact = Signal.from_rfft(grid, exact_rfft)
    report = solve_generalized_dr(op, g_obs, 0.1, QuadraticPenalty(prior), SolverConfig())
    rel = norm_l2(report.minimizer - exact) / max(norm_l2(exact), 1e-30)
    checks.append(("douglas-rachford vs spectral", rel < 1e-6))

    reports = bregman_iterate(op, g_obs, 0.5, QuadraticPenalty(prior), 3, SolverConfig(method="spectral"))
    mu = op.symbol
    beta = 0.5 / (mu**2 + 0.5)
    gc = to_spectrum(g_obs)
    pc = to_spectrum(prior)
    filt = gc / mu + beta**3 * (pc - gc / mu)
    got = to_spectrum(reports[-1].minimizer)
    checks.append(("iterated filter formula", float(np.max(np.abs(filt - got))) < 1e-9))

    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok &= passed
    return 0 if ok else 1


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torusreg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"torusreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand registers only the flags it reads
    for name, fn, flags in (
        ("reconstruct", cmd_reconstruct, ("config", "out")),
        ("approx-sweep", cmd_approx_sweep, ("config", "out")),
        ("rate-sweep", cmd_rate_sweep, ("config", "out", "threads")),
        ("vsc-diagnose", cmd_vsc_diagnose, ("config", "out", "seed")),
        ("selftest", cmd_selftest, ("seed",)),
    ):
        p = sub.add_parser(name)
        if "config" in flags:
            p.add_argument("--config", default=None, help="path to a config file")
        if "out" in flags:
            p.add_argument("--out", default=None, help="output directory override")
        if "seed" in flags:
            p.add_argument("--seed", type=_non_negative_int, default=0)
        if "threads" in flags:
            p.add_argument("--threads", type=_positive_int, default=1,
                           help="worker processes, capped at the number of jobs")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.made = []
    try:
        return args.fn(args)
    except TorusRegError as exc:
        for directory in args.made:  # rmdir leaves a directory with output in it
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
