"""Command-line entry points: reconstruct, sweeps, diagnostics."""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import __version__
from .bregman import bregman_iterate  # noqa: F401 # the tracer (perfbench/spans.py) patches it
from .config import default_config, load_config
from .errors import ConfigError, InsufficientData, SourceDivisionError, TorusRegError
from .harness import (
    apriori_alpha,
    approx_error_sweep,
    build_problem,
    calibrate_c,
    fit_rate,
    rate_sweep,
    worst_case_search,
)
from .operators import apply  # noqa: F401 # the tracer (perfbench/spans.py) patches it
from .svgplot import Line, Series, svg_loglog
from .reportio import write_signals_csv, write_sweep_csv
from .torus import norm_l2
from .vsc import (
    HoelderIndexFunction,
    construct_source,
    decay_space_norm,
    vsc_violation_search,
)


def _ensure_outdir(directory, made):
    """Make the output directory; :func:`main` does so before any command computes.

    The directories it makes are appended to ``made``, deepest first, so
    that :func:`main` can remove them again when the command exits 2.
    """
    head = os.path.abspath(directory)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory!r}: {exc.strerror}") from exc
    return directory


def cmd_reconstruct(config, outdir, args) -> int:
    problem = build_problem(config.problem)
    sweep = config.sweep
    delta = sweep.deltas[0]
    alpha = sweep.alphas[0] if sweep.alphas else apriori_alpha(delta, sweep.alpha_c, sweep.alpha_sigma)
    k, g_obs, reports, _ = worst_case_search(config, problem, delta, alpha).choices[-1]
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


def _emit_sweep_outputs(config, rows, outdir, x_field):
    csv_path = os.path.join(outdir, config.output.csv_name)
    write_sweep_csv(rows, csv_path)
    print(f"wrote {csv_path}")
    steps = sorted({r.n_bregman for r in rows})
    series, lines = [], []
    for n in steps:
        picked = [r for r in rows if r.n_bregman == n and r.kl_error > 0 and getattr(r, x_field) > 0]
        try:
            fit = fit_rate(picked, x=x_field, y="kl_error")
        except InsufficientData:  # fewer than 3 points, or one distinct x value
            continue
        xs = [getattr(r, x_field) for r in picked]
        ys = [r.kl_error for r in picked]
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
        svg_loglog(svg_path, series, lines, title="penalty error", xlabel=x_field, ylabel="error")
        print(f"wrote {svg_path}")


def cmd_approx_sweep(config, outdir, args) -> int:
    rows = approx_error_sweep(config)
    _emit_sweep_outputs(config, rows, outdir, "alpha")
    return 0


def cmd_rate_sweep(config, outdir, args) -> int:
    if config.sweep.calibrate_cs:
        c, _, rows = calibrate_c(config, threads=args.threads)  # rows: the sweep at c
        print(f"calibrated c = {c:g}")
    else:
        rows = rate_sweep(config, threads=args.threads)
    _emit_sweep_outputs(config, rows, outdir, "delta")
    return 0


def cmd_vsc_diagnose(config, outdir, args) -> int:
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
    # each subcommand takes --config and --out, and registers only the other flags it reads
    for name, fn, flags in (
        ("reconstruct", cmd_reconstruct, ()),
        ("approx-sweep", cmd_approx_sweep, ()),
        ("rate-sweep", cmd_rate_sweep, ("threads",)),
        ("vsc-diagnose", cmd_vsc_diagnose, ("seed",)),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a config file")
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
    made: list[str] = []
    try:
        config = load_config(args.config) if args.config else default_config()
        outdir = _ensure_outdir(args.out or config.output.directory, made)
        return args.fn(config, outdir, args)
    except TorusRegError as exc:
        for directory in made:  # rmdir leaves a directory with output in it
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
