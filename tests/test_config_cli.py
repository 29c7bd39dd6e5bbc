from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import torusreg.cli
import torusreg.harness

from torusreg import (
    ConfigError,
    EntropyPenalty,
    ExperimentConfig,
    FourierMultiplierOperator,
    HoelderIndexFunction,
    NoiseModel,
    OutputConfig,
    Problem,
    ProblemConfig,
    QuadraticPenalty,
    RatePrediction,
    Signal,
    SolverConfig,
    SweepConfig,
    TorusGrid,
    bspline_truth,
    build_problem,
    calibrate_c,
    construct_source,
    default_config,
    fit_rate,
    load_config,
    make_inverse_helmholtz,
    predict_rate_entropy,
    predict_rate_hoelder,
    rate_sweep,
    vsc_violation_search,
)
from torusreg.cli import main
from torusreg.errors import AT_LEAST_ONE, POSITIVE, check_value
from torusreg.reportio import SWEEP_HEADER, write_sweep_csv
from torusreg.harness import SweepRow

from conftest import count_calls, read_sweep_csv


GOOD_CONFIG = """
[problem]
n = 96
penalty = entropy
prior_value = 1.0
box_hi = 5.0

[solver]
tol = 1e-10
gamma = 1.0

[sweep]
delta_max = 1e-1
delta_min = 1e-3
delta_count = 4
alphas = 1e-1, 1e-2, 1e-3
alpha_c = 0.01
alpha_sigma = 0.5333333333333333
bregman_steps = 2
noise = worst_case
k_max = 4
metric = kl

[output]
directory = out
csv_name = rows.csv
svg_name = rows.svg
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "experiment.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


class TestConfigFile:
    def test_load_round_trip(self, config_path):
        cfg = load_config(config_path)
        assert cfg.problem.n == 96
        assert cfg.sweep.alphas == (1e-1, 1e-2, 1e-3)
        assert len(cfg.sweep.deltas) == 4
        assert cfg.sweep.noise.kind == "worst_case" and cfg.sweep.noise.k_max == 4
        assert cfg.solver.gamma == 1.0
        assert cfg.output.csv_name == "rows.csv"

    def test_defaults_without_file(self):
        cfg = default_config()
        assert cfg.problem.n == 480
        assert cfg.sweep.noise.k_max == 32
        assert cfg.sweep.metric == "kl"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[problem]\nn = 96\nwavelength = 3\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("text, match", [
        ("[solver]\nrelax = 1.5\n", r"unknown key 'relax' in section \[solver\]"),
        ("[solver]\ngamma = auto\n", r"bad value for solver\.gamma: 'auto'"),
        ("[solver]\ngamma = none\n", r"bad value for solver\.gamma: 'none'"),
    ])
    def test_removed_solver_spellings_rejected(self, tmp_path, text, match):
        # relaxation and the automatic gamma were removed: gamma = 1.0 is the
        # default and the only step rule
        path = tmp_path / "removed.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[problem]\nn = 96\n\n[plotting]\ncolor = red\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[problem]\nn = twelve\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_partial_geometric_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[sweep]\ndelta_max = 1e-1\ndelta_count = 4\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.cfg"))

    def test_every_key_lands_on_its_field(self, tmp_path):
        path = tmp_path / "full.cfg"
        path.write_text(EVERY_KEY_CONFIG)
        cfg = load_config(str(path))
        assert cfg == ExperimentConfig(
            problem=ProblemConfig(n=96, penalty="quadratic", bspline_degree=4, prior_value=0.5,
                                  box_lo=-1.0, box_hi=7.5),
            solver=SolverConfig(gamma=0.25, max_iter=321, tol=1e-9, method="spectral"),
            sweep=SweepConfig(
                deltas=(1e-1, 3e-2, 1e-2), alphas=(1e-3, 1e-4), alpha_c=0.02, alpha_sigma=0.75,
                bregman_steps=3, noise=NoiseModel(kind="fixed_sinusoid", k_max=7, k_fixed=3),
                metric="l1", predicted_rate=1.25, calibrate_cs=(0.1, 1.0),
            ),
            output=OutputConfig(directory="elsewhere", csv_name="rows.csv", svg_name="rows.svg",
                                write_svg=False),
        )
        ints = (cfg.problem.n, cfg.problem.bspline_degree, cfg.solver.max_iter,
                cfg.sweep.bregman_steps, cfg.sweep.noise.k_max, cfg.sweep.noise.k_fixed)
        assert all(type(v) is int for v in ints)
        floats = (cfg.problem.prior_value, cfg.problem.box_lo, cfg.problem.box_hi, cfg.solver.gamma,
                  cfg.solver.tol, cfg.sweep.alpha_c, cfg.sweep.alpha_sigma,
                  cfg.sweep.predicted_rate, *cfg.sweep.deltas, *cfg.sweep.alphas,
                  *cfg.sweep.calibrate_cs)
        assert all(type(v) is float for v in floats)
        assert type(cfg.sweep.deltas) is tuple and type(cfg.sweep.alphas) is tuple
        assert type(cfg.sweep.calibrate_cs) is tuple

    def test_auto_none_and_grid_shorthand(self, tmp_path):
        path = tmp_path / "auto.cfg"
        for spelling in ("none", "auto"):
            path.write_text(
                "[sweep]\ndelta_max = 1e-2\ndelta_min = 1e-4\ndelta_count = 3\n"
                f"predicted_rate = {spelling}\n\n"
                "[output]\nwrite_svg = on\n"
            )
            cfg = load_config(str(path))
            assert cfg.sweep.predicted_rate is None
            assert cfg.sweep.deltas == pytest.approx((1e-2, 1e-3, 1e-4), rel=1e-15)
            assert cfg.output.write_svg is True

    @pytest.mark.parametrize("text, where", [
        (b"[problem]\nn = 96\nn = 64\n", "line 3"),
        (b"[problem]\nn = 96\n\n[problem]\npenalty = quadratic\n", "line 4"),
        (b"n = 96\n", "line: 1"),
        (b"[problem]\nn = 96\nbox_hi\n", "line 3"),
        (b"[problem]\npenalty = \xff\xfe\n", "not UTF-8 text"),
    ])
    def test_malformed_file_reports_error(self, tmp_path, capsys, text, where):
        path = tmp_path / "malformed.cfg"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match=where):
            load_config(str(path))
        assert main(["reconstruct", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed.cfg" in err

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nn = 96\n",
        "[DEFAULT]\nn = 96\n\n[sweep]\nk_max = 8\n",
    ])
    def test_default_section_rejected(self, tmp_path, text):
        # configparser copies [DEFAULT] keys into every section: without a
        # check the first file loads with n = 480, the second fails as an
        # unknown key of [sweep]
        path = tmp_path / "default.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"default\.cfg.*\[DEFAULT\].*holds 'n'"):
            load_config(str(path))


EVERY_KEY_CONFIG = """
[problem]
n = 96
penalty = quadratic
bspline_degree = 4
prior_value = 0.5
box_lo = -1.0
box_hi = 7.5

[solver]
gamma = 0.25
max_iter = 321
tol = 1e-9
method = spectral

[sweep]
deltas = 1e-1, 3e-2, 1e-2
alphas = 1e-3, 1e-4
alpha_c = 0.02
alpha_sigma = 0.75
bregman_steps = 3
noise = fixed_sinusoid
k_max = 7
k_fixed = 3
metric = l1
predicted_rate = 1.25
calibrate_cs = 0.1, 1.0

[output]
directory = elsewhere
csv_name = rows.csv
svg_name = rows.svg
write_svg = no
"""


def sweep_row(**fields):
    """A valid SweepRow with the given fields replaced."""
    valid = dict(delta=0.1, alpha=0.01, k_worst=3, n_bregman=1, kl_error=1.25e-4,
                 l1_error=2e-3, data_residual=5e-5, dr_iterations=37)
    return SweepRow(**{**valid, **fields})


class TestFieldChecks:
    """Each field is checked against its annotation and its range rule."""

    @pytest.mark.parametrize("cls, name, bad", [
        (SolverConfig, "gamma", None),
        (SolverConfig, "tol", "1e-3"),
        (SolverConfig, "max_iter", 2.5),
        (SolverConfig, "max_iter", True),
        (NoiseModel, "k_max", None),
        (NoiseModel, "k_max", 2.5),
        (SweepConfig, "bregman_steps", None),
        (SweepConfig, "alpha_c", None),
        (SweepConfig, "deltas", 0.1),
        (SweepConfig, "deltas", [1e-1, 1e-2]),
        (SweepConfig, "alphas", (1e-2, None)),
        (SweepConfig, "predicted_rate", "1.0"),
        (SweepConfig, "noise", None),
        (ProblemConfig, "n", None),
        (ProblemConfig, "n", 480.0),
        (ProblemConfig, "bspline_degree", -1),
        (ProblemConfig, "penalty", "tv"),
        (OutputConfig, "write_svg", "no"),
        (OutputConfig, "csv_name", ""),
        (OutputConfig, "csv_name", "."),
        (OutputConfig, "csv_name", ".."),
        (OutputConfig, "csv_name", "a/b.csv"),
        (OutputConfig, "csv_name", "../escape.csv"),
        (OutputConfig, "svg_name", "x/y.svg"),
        (ExperimentConfig, "problem", None),
        (HoelderIndexFunction, "amplitude", float("nan")),
        (HoelderIndexFunction, "amplitude", float("inf")),
        (HoelderIndexFunction, "exponent", 0.0),
        (TorusGrid, "n", 480.0),
        (sweep_row, "k_worst", 1.5),
        (sweep_row, "kl_error", None),
        (sweep_row, "l1_error", float("nan")),
        (sweep_row, "data_residual", -1e-3),
    ])
    def test_bad_value_names_the_field(self, cls, name, bad):
        with pytest.raises(ConfigError, match=rf"^{name} must "):
            cls(**{name: bad})

    def test_numpy_scalars_pass(self):
        assert SweepConfig(alpha_c=np.float64(0.3)).alpha_c == 0.3
        assert SweepConfig(alphas=(np.float64(1e-2), 1e-3)).alphas == (1e-2, 1e-3)
        assert NoiseModel(k_max=np.int64(4)).k_max == 4
        assert TorusGrid(np.int64(8)).n == 8


GRID = TorusGrid(64)
ONES = Signal(GRID, np.ones(GRID.n))
HELMHOLTZ = make_inverse_helmholtz(GRID)


class TestArgumentChecks:
    """Each function or constructor argument is checked by its name."""

    @pytest.mark.parametrize("call, name, bad", [
        (partial(RatePrediction, alpha_exponent=1.0, error_exponent=0.5, envelope=max),
         "alpha_exponent", float("nan")),
        (partial(predict_rate_hoelder, l=1, nu=0.5), "l", 1.5),
        (partial(predict_rate_hoelder, l=1, nu=0.5), "l", True),
        (partial(predict_rate_entropy, s=5.5, a=2.0), "s", None),
        (partial(predict_rate_entropy, s=5.5, a=2.0), "s", float("nan")),
        (partial(predict_rate_entropy, s=5.5, a=2.0), "a", 0.0),
        (partial(construct_source, HELMHOLTZ, ONES), "l", 2.5),
        (partial(construct_source, HELMHOLTZ, ONES), "l", None),
        (partial(vsc_violation_search, HELMHOLTZ, ONES, HoelderIndexFunction()), "trials", 2.5),
        (partial(FourierMultiplierOperator, GRID, HELMHOLTZ.symbol), "smoothing_order", float("nan")),
        (partial(FourierMultiplierOperator, GRID, HELMHOLTZ.symbol), "smoothing_order", None),
        (partial(bspline_truth, GRID), "degree", 4.0),
        (partial(EntropyPenalty, ONES), "box_lo", None),
        (QuadraticPenalty(ONES).prox_map, "gamma", None),
        (EntropyPenalty(ONES).prox_map, "gamma", None),
        (partial(Problem, grid=GRID, op=HELMHOLTZ, penalty=QuadraticPenalty(ONES), f_true=ONES,
                 g_true=ONES), "penalty", np.ones(GRID.n)),
        (partial(fit_rate, [], x="delta", y="kl_error"), "x", "k_worst"),
        (partial(fit_rate, [], x="delta", y="kl_error"), "y", None),
    ])
    def test_bad_argument_names_it(self, call, name, bad):
        with pytest.raises(ConfigError, match=rf"^{name} must "):
            call(**{name: bad})


class TestCheckValue:
    """check_value's type rule, whose common case (a value of exactly the
    hinted type) takes a shortcut."""

    @pytest.mark.parametrize("hint", [int, float])
    def test_bool_is_neither_int_nor_float(self, hint):
        for flag in (True, False):
            with pytest.raises(ConfigError, match=rf"^x must be {hint.__name__}, got {flag}$"):
                check_value("x", flag, hint, {})

    def test_numpy_scalars_and_int_for_float_pass(self):
        check_value("x", np.int64(3), int, AT_LEAST_ONE)
        check_value("x", np.float64(0.5), float, POSITIVE)
        check_value("x", 2, float, POSITIVE)
        check_value("x", np.int64(2), float, POSITIVE)

    @pytest.mark.parametrize("value, hint, rules, message", [
        (2.5, int, AT_LEAST_ONE, "n_steps must be int, got 2.5"),
        (0, int, AT_LEAST_ONE, "n_steps must be >= 1, got 0"),
        (np.int64(0), int, AT_LEAST_ONE, f"n_steps must be >= 1, got {np.int64(0)!r}"),
        ("1", float, POSITIVE, "n_steps must be float, got '1'"),
        (float("nan"), float, POSITIVE, "n_steps must be finite and positive, got nan"),
        (-1, float, POSITIVE, "n_steps must be finite and positive, got -1"),
    ])
    def test_message_text(self, value, hint, rules, message):
        with pytest.raises(ConfigError) as info:
            check_value("n_steps", value, hint, rules)
        assert str(info.value) == message


class TestSweepCsv:
    def test_header_and_round_trip(self, tmp_path):
        rows = [
            SweepRow(0.1, 0.01, 3, 1, 1.25e-4, 2e-3, 5e-5, 37),
            SweepRow(0.01, 0.001, 0, 2, 1.0 / 3.0, 2.0 / 7.0, 1e-17, 0),
        ]
        path = tmp_path / "rows.csv"
        write_sweep_csv(rows, str(path))
        raw = path.read_bytes().decode()
        assert raw.splitlines()[0] == SWEEP_HEADER
        assert SWEEP_HEADER == (
            "delta,alpha,k_worst,n_bregman,kl_error,l1_error,data_residual,dr_iterations"
        )
        assert "\r" not in raw
        assert read_sweep_csv(str(path)) == rows  # 17 significant digits round-trip

    def test_seventeen_digit_floats(self, tmp_path):
        rows = [SweepRow(1.0 / 3.0, 0.1, 1, 1, 0.2, 0.3, 0.4, 5)]
        path = tmp_path / "rows.csv"
        write_sweep_csv(rows, str(path))
        line = path.read_text().splitlines()[1]
        assert line.split(",")[0] == "0.33333333333333331"


def small_cli_config(tmp_path, extra=""):
    path = tmp_path / "cli.cfg"
    path.write_text(
        """
[problem]
n = 96

[solver]
tol = 1e-9

[sweep]
delta_max = 1e-2
delta_min = 1e-3
delta_count = 3
alphas = 1e-1, 3e-2, 1e-2, 3e-3
bregman_steps = 2
noise = fixed_sinusoid
k_fixed = 2
alpha_c = 0.005
alpha_sigma = 0.6667

[output]
directory = {out}
""".format(out=tmp_path / "out")
        + extra
    )
    return str(path)


COMMANDS = ("reconstruct", "approx-sweep", "rate-sweep", "vsc-diagnose")
# configs that every command rejects only after it made its output directory
N32 = "[problem]\nn = 32\n\n[sweep]\nalphas = 1e-1, 1e-2\nk_max = 8\n"
BOX_HI = "[problem]\nn = 64\nbox_hi = 1.5\n\n[sweep]\nalphas = 1e-1, 1e-2\nk_max = 8\n"
COARSE = "n must be >= 8 * (bspline_degree + 1) = 48, got 32"
LOW_BOX = "box_hi = 1.5 must lie above max(f_true) = 1.55"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# each config below ends in its [sweep] section, so a line appended to it lands there
ENTROPY = ("[problem]\nn = 96\n\n[solver]\ntol = 1e-9\n\n[sweep]\ndelta_max = 1e-2\n"
           "delta_min = 1e-3\ndelta_count = 3\nalpha_c = 0.005\nalpha_sigma = 0.6667\n")
# quadratic penalty, spectral route; k_max = 40 walks the search's candidates
# in several blocks, the last one partial
SPECTRAL = ("[problem]\npenalty = quadratic\n\n[solver]\nmethod = spectral\n\n[sweep]\n"
            "delta_max = 1e-1\ndelta_min = 1e-4\ndelta_count = 12\nk_max = 40\nbregman_steps = 2\n")


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["approx-sweep", "--threads", "2"],
        ["reconstruct", "--threads", "2"],
        ["vsc-diagnose", "--threads", "2"],
        ["reconstruct", "--seed", "1"],
        ["approx-sweep", "--seed", "1"],
        ["rate-sweep", "--seed", "1"],
        ["rate-sweep", "--threads", "0"],
    ])
    def test_flag_not_read_or_invalid_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("seed, message", [
        ("-1", "must be >= 0, got -1"),
        ("x", "must be an integer, got 'x'"),
    ])
    def test_bad_seed_exits_2_naming_the_flag(self, tmp_path, capsys, seed, message):
        out = tmp_path / "out"
        argv = ["vsc-diagnose", "--seed", seed, "--out", str(out)]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_approx_sweep_writes_outputs(self, tmp_path, capsys):
        cfg = small_cli_config(tmp_path)
        assert main(["approx-sweep", "--config", cfg]) == 0
        outdir = tmp_path / "out"
        rows = read_sweep_csv(str(outdir / "sweep.csv"))
        assert len(rows) == 8
        svg = (outdir / "sweep.svg").read_text()
        assert svg.startswith("<svg") and "<script" not in svg

    def test_rate_sweep_writes_outputs(self, tmp_path):
        cfg = small_cli_config(tmp_path)
        assert main(["rate-sweep", "--config", cfg]) == 0
        rows = read_sweep_csv(str(tmp_path / "out" / "sweep.csv"))
        assert len(rows) == 6
        assert all(r.k_worst == 2 for r in rows)

    @pytest.mark.parametrize("command, text", [
        # entropy, Douglas-Rachford route: one fixed k, and the worst case over k = 1..6
        ("rate-sweep", ENTROPY + "noise = fixed_sinusoid\nk_fixed = 2\n"),
        ("rate-sweep", ENTROPY + "k_max = 6\n"),
        ("rate-sweep", SPECTRAL),
        # selecting by l1 reads the samples of every candidate's minimizers, by kl only the selected ones
        ("rate-sweep", SPECTRAL + "metric = l1\n"),
        ("rate-sweep", SPECTRAL + "noise = fixed_sinusoid\nk_fixed = 7\n"),
        # exact data at delta > 0: each search's one row is k = 0
        ("rate-sweep", SPECTRAL + "noise = exact\n"),
        # k = n/2 - 1 is the last mode a candidate changes; the search takes modes 0 and n/2 from one row
        ("rate-sweep", "[problem]\nn = 64\npenalty = quadratic\n\n[solver]\nmethod = spectral\n\n"
                       "[sweep]\nk_max = 31\n"),
        # the entropy prox maps keep Newton roots and write into each solve's arrays
        ("approx-sweep", (CONFIGS / "approx_error.cfg").read_text()),
        # exact data take the spectral route as an unperturbed spectrum, like every noisy candidate
        ("approx-sweep", SPECTRAL + "noise = exact\nalphas = 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6\n"),
    ], ids=["entropy-fixed-k", "entropy-worst-case", "spectral-kl", "spectral-l1", "spectral-fixed-k",
            "spectral-exact", "spectral-nyquist", "shipped-approx-error", "spectral-exact-approx"])
    def test_same_config_writes_the_same_bytes(self, tmp_path, command, text):
        # at one and two workers (rate-sweep), and on a later run in the same process
        path = tmp_path / "case.cfg"
        path.write_text(text)
        if command == "rate-sweep":
            runs = [["--threads", "1"], ["--threads", "2"], ["--threads", "1"]]
        else:
            runs = [[], []]
        written = []
        for n, flags in enumerate(runs):
            out = tmp_path / f"run{n}"
            assert main([command, "--config", str(path), "--out", str(out), *flags]) == 0
            written.append((out / "sweep.csv").read_bytes())
        assert written == written[:1] * len(runs)

    @pytest.mark.parametrize("edit, fitted", [
        # no plot asked for: each step's fit is printed, the plot is not written
        (("[output]\n", "[output]\nwrite_svg = no\n"), True),
        # one distinct alpha fixes no slope: each step is skipped, so there is nothing to plot
        (("alphas = 1e-1, 3e-2, 1e-2, 3e-3", "alphas = 1e-2, 1e-2, 1e-2"), False),
    ], ids=["write_svg_no", "one_distinct_alpha"])
    def test_sweep_without_a_plot_writes_the_csv_alone(self, tmp_path, capsys, edit, fitted):
        cfg = small_cli_config(tmp_path)
        with open(cfg) as handle:
            text = handle.read()
        with open(cfg, "w") as handle:
            handle.write(text.replace(*edit))
        assert main(["approx-sweep", "--config", cfg]) == 0
        out = capsys.readouterr().out
        outdir = tmp_path / "out"
        assert f"wrote {outdir / 'sweep.csv'}\n" in out and len(read_sweep_csv(str(outdir / "sweep.csv"))) > 0
        assert not (outdir / "sweep.svg").exists() and "sweep.svg" not in out
        assert ("slope=" in out) == fitted

    def test_calibrated_rate_sweep_searches_each_constant_once(self, tmp_path, monkeypatch):
        # the winner's rows come from the calibration: C * D searches, not (C + 1) * D,
        # and sweep.csv holds the rows of a plain sweep at the chosen constant
        cfg = small_cli_config(tmp_path)
        with open(cfg) as handle:
            text = handle.read().replace("alpha_c = 0.005",
                                         "predicted_rate = 1.0\ncalibrate_cs = 0.001, 0.01, 0.1")
        with open(cfg, "w") as handle:
            handle.write(text)
        config = load_config(cfg)
        calibration = calibrate_c(config)
        assert len(calibration.objectives) == 3
        chosen = config.sweep.calibrate_cs.index(calibration.c)
        assert calibration.objectives[chosen] == min(calibration.objectives)
        searches = count_calls(monkeypatch, torusreg.harness, "worst_case_search")
        assert main(["rate-sweep", "--config", cfg]) == 0
        assert searches == {"worst_case_search": 3 * 3}
        swept = rate_sweep(replace(config, sweep=replace(config.sweep, alpha_c=calibration.c)))
        assert read_sweep_csv(str(tmp_path / "out" / "sweep.csv")) == calibration.rows == swept

    @pytest.mark.parametrize("route", ["entropy", "spectral"])
    def test_one_constant_calibration_writes_the_plain_sweep(self, tmp_path, capsys, monkeypatch, route):
        # one constant is swept once, by the calibration: D searches, not 2 * D, and the
        # outputs are those of an uncalibrated rate-sweep at alpha_c = that constant
        cfg = small_cli_config(tmp_path)
        with open(cfg) as handle:
            text = handle.read().replace("alpha_c = 0.005", "alpha_c = 0.005\npredicted_rate = 1.0")
        if route == "spectral":
            text = text.replace("n = 96\n", "n = 96\npenalty = quadratic\n")
            text = text.replace("tol = 1e-9\n", "tol = 1e-9\nmethod = spectral\n")
        with open(cfg, "w") as handle:
            handle.write(text)
        plain = tmp_path / "plain"
        assert main(["rate-sweep", "--config", cfg, "--out", str(plain)]) == 0
        with open(cfg, "w") as handle:  # alpha_c is not read once c is calibrated
            handle.write(text.replace("alpha_c = 0.005", "alpha_c = 1.0\ncalibrate_cs = 0.005"))
        capsys.readouterr()
        searches = count_calls(monkeypatch, torusreg.harness, "worst_case_search")
        assert main(["rate-sweep", "--config", cfg]) == 0
        assert searches == {"worst_case_search": 3}  # one per delta
        assert capsys.readouterr().out.startswith("calibrated c = 0.005\n")
        for name in ("sweep.csv", "sweep.svg"):
            assert (tmp_path / "out" / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize("shipped", [None, "approx_error.cfg", "noise_rates.cfg"])
    def test_reconstruct_writes_signals(self, tmp_path, shipped):
        cfg = small_cli_config(tmp_path) if shipped is None else str(CONFIGS / shipped)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "reconstruction.csv").read_text().splitlines()
        assert lines[0] == "x,f_true,g_true,g_obs,f_step1,f_step2"
        assert len(lines) == load_config(cfg).problem.n + 1

    def test_reconstruct_noise_matches_rate_sweep_last_step(self, tmp_path, capsys):
        path = small_cli_config(tmp_path)
        with open(path) as handle:
            text = handle.read()
        text = text.replace("alphas = 1e-1, 3e-2, 1e-2, 3e-3\n", "")
        text = text.replace("noise = fixed_sinusoid\nk_fixed = 2", "noise = worst_case\nk_max = 6")
        with open(path, "w") as handle:
            handle.write(text)
        cfg = load_config(path)
        assert cfg.sweep.alphas is None and cfg.sweep.noise.kind == "worst_case"
        assert main(["rate-sweep", "--config", path]) == 0
        rows = read_sweep_csv(str(tmp_path / "out" / "sweep.csv"))
        [last] = [r for r in rows if r.delta == cfg.sweep.deltas[0] and r.n_bregman == 2]
        capsys.readouterr()
        assert main(["reconstruct", "--config", path]) == 0
        assert f"noise_k={last.k_worst}\n" in capsys.readouterr().out

    def test_reconstruct_prints_the_swept_data_residual(self, tmp_path, capsys, monkeypatch):
        # quadratic penalty, spectral route: reconstruct runs the chain the
        # last step's worst case picked, so its last printed residual is the
        # data_residual of that step's sweep.csv row
        path = small_cli_config(tmp_path)
        with open(path) as handle:
            text = handle.read()
        text = text.replace("n = 96\n", "n = 96\npenalty = quadratic\n")
        text = text.replace("tol = 1e-9\n", "tol = 1e-9\nmethod = spectral\n")
        text = text.replace("noise = fixed_sinusoid\nk_fixed = 2", "noise = worst_case\nk_max = 6")
        text = text.replace("alphas = 1e-1, 3e-2, 1e-2, 3e-3\n", "")
        with open(path, "w") as handle:
            handle.write(text)
        cfg = load_config(path)
        assert cfg.problem.penalty == "quadratic" and cfg.solver.method == "spectral"
        assert main(["rate-sweep", "--config", path]) == 0
        [last] = [r for r in read_sweep_csv(str(tmp_path / "out" / "sweep.csv"))
                  if r.delta == cfg.sweep.deltas[0] and r.n_bregman == 2]
        capsys.readouterr()

        def no_reapply(*args):
            raise AssertionError("reconstruct re-applied T")

        monkeypatch.setattr(torusreg.cli, "apply", no_reapply)
        assert main(["reconstruct", "--config", path]) == 0
        out = capsys.readouterr().out
        assert f"noise_k={last.k_worst}\n" in out
        printed = [line.split("data_residual=")[1].split()[0]
                   for line in out.splitlines() if "data_residual=" in line]
        assert len(printed) == 2 and printed[-1] == f"{last.data_residual:.6e}"

    @pytest.mark.parametrize("shipped", [None, "noise_rates.cfg"])
    def test_vsc_diagnose_writes_report(self, tmp_path, shipped):
        cfg = small_cli_config(tmp_path) if shipped is None else str(CONFIGS / shipped)
        out = tmp_path / "out"
        assert main(["vsc-diagnose", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        report = (out / "vsc_report.txt").read_text()
        assert "decay norm" in report
        assert "order 1 source: ok" in report

    def test_vsc_diagnose_reports_when_no_amplitude_works(self, tmp_path, monkeypatch):
        # a residual that grows with the amplitude fails every doubling; the
        # report names the last amplitude tried and the residual measured there
        monkeypatch.setattr(torusreg.cli, "vsc_violation_search",
                            lambda op, omega, phi, **kwargs: phi.amplitude)
        cfg = small_cli_config(tmp_path)
        assert main(["vsc-diagnose", "--config", cfg]) == 0
        report = (tmp_path / "out" / "vsc_report.txt").read_text()
        assert report.endswith("first-order inequality not satisfied up to amplitude 5.76461e+17 "
                               "(residual 5.765e+17, exponent 1/3)\n")

    def test_vsc_generator_norm_survives_round_off(self, tmp_path):
        # mu^-3 amplifies the truth's aliased top modes by ~1e19, so only the
        # digits that a long-double DFT sum reproduces are printed
        cfg = small_cli_config(tmp_path)
        with open(cfg) as handle:
            text = handle.read().replace("n = 96", "n = 480")
        with open(cfg, "w") as handle:
            handle.write(text)
        assert main(["vsc-diagnose", "--config", cfg]) == 0
        report = (tmp_path / "out" / "vsc_report.txt").read_text()
        [printed] = [line.split(" = ")[1] for line in report.splitlines()
                     if line.startswith("order 4")]
        problem = build_problem(load_config(cfg).problem)
        n = problem.grid.n
        pi = np.arccos(np.longdouble(-1))
        phase = 2 * pi * (np.outer(problem.grid.modes, np.arange(n)) % n) / n
        f = problem.f_true.values.astype(np.longdouble)
        re, im = np.cos(phase) @ f / n, np.sin(phase) @ f / n
        mu = 1 / (4 * pi**2 * problem.grid.modes.astype(np.longdouble) ** 2 + np.longdouble(0.25))
        reference = np.sqrt(np.sum((re**2 + im**2) / mu**6))
        assert printed == f"{float(reference):.3e}"

    def test_out_override(self, tmp_path):
        cfg = small_cli_config(tmp_path)
        override = tmp_path / "elsewhere"
        assert main(["approx-sweep", "--config", cfg, "--out", str(override)]) == 0
        assert (override / "sweep.csv").exists()

    @pytest.mark.parametrize("command, computes", [
        ("reconstruct", ["build_problem", "worst_case_search"]),
        ("approx-sweep", ["approx_error_sweep"]),
        ("rate-sweep", ["calibrate_c", "rate_sweep"]),
        ("vsc-diagnose", ["build_problem", "vsc_violation_search"]),
    ])
    def test_unusable_out_exits_2_before_computing(
        self, tmp_path, capsys, monkeypatch, command, computes
    ):
        def computed(*args, **kwargs):
            raise AssertionError(f"{command} computed before making its output directory")

        for name in computes:
            monkeypatch.setattr(torusreg.cli, name, computed)
        cfg = small_cli_config(tmp_path)
        with open(cfg) as handle:  # so that rate-sweep calibrates first
            text = handle.read().replace("alpha_c = 0.005", "predicted_rate = 1.0\ncalibrate_cs = 0.1, 1.0")
        with open(cfg, "w") as handle:
            handle.write(text)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([command, "--config", cfg, "--out", str(blocker / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory ") and str(blocker / "x") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, text, key", [
        ("approx-sweep", "[problem]\nn = 96\n", "alphas"),
        ("rate-sweep", "[problem]\nbspline_degree = 3\n", "bspline_degree"),
        # an output file name that is not a plain name fails at load, not after the sweep
        ("approx-sweep", "[sweep]\nalphas = 1e-2\n\n[output]\ncsv_name =\n", "csv_name"),
        ("approx-sweep", "[sweep]\nalphas = 1e-2\n\n[output]\ncsv_name = ../escape.csv\n", "csv_name"),
        ("rate-sweep", "[output]\nsvg_name = x/y.svg\n", "svg_name"),
    ])
    def test_bad_setting_exits_2_naming_the_key(self, tmp_path, capsys, command, text, key):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "escape.csv").exists()

    @pytest.mark.parametrize("command", ["rate-sweep", "approx-sweep"])
    @pytest.mark.parametrize("grid, message", [
        ("delta_max = 1e-1\ndelta_min = 1e-4\ndelta_count = 1\n", "delta_count must be >= 2, got 1"),
        ("delta_max = 1e-4\ndelta_min = 1e-3\ndelta_count = 3\n",
         "delta_min must lie in (0, delta_max = 0.0001), got 0.001"),
        ("delta_max = -1\ndelta_min = 1e-3\ndelta_count = 3\n",
         "delta_max must be finite and positive, got -1.0"),
        # the rounded grid repeats points: the count is to blame, not deltas
        ("delta_max = 1e-1\ndelta_min = 0.09999999999999999\ndelta_count = 4\n",
         "delta_count = 4 must give strictly decreasing points from delta_max to delta_min, "
         "got (0.1, 0.1, 0.1, 0.09999999999999999)"),
    ], ids=["delta_count", "delta_min", "delta_max", "delta_count_rounds_to_equal_points"])
    def test_bad_delta_grid_exits_2_naming_the_key(self, tmp_path, capsys, command, grid, message):
        # the shorthand's keys, not geometric_grid's argument names, start the message
        path = tmp_path / "grid.cfg"
        path.write_text("[problem]\nn = 64\n\n[sweep]\n" + grid)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rate-sweep", "reconstruct"])
    def test_spectral_method_needs_quadratic_penalty_at_load(self, tmp_path, capsys, command):
        # rejected by load_config, before any output directory is made or
        # problem built; the default penalty is entropy
        path = tmp_path / "spectral.cfg"
        path.write_text("[problem]\nn = 64\n\n[solver]\nmethod = spectral\n")
        message = ("[solver] method = spectral needs [problem] penalty = quadratic, "
                   "got penalty = 'entropy'")
        with pytest.raises(ConfigError) as caught:
            load_config(str(path))
        assert str(caught.value) == message
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rate-sweep", "reconstruct"])
    @pytest.mark.parametrize("sweep, message", [
        ("", "k_max must lie in [1, n/2 - 1] = [1, 31], got 32"),
        ("noise = fixed_sinusoid\nk_fixed = 40\n", "k_fixed must lie in [1, n/2 - 1] = [1, 31], got 40"),
    ], ids=["k_max", "k_fixed"])
    def test_noise_frequency_beyond_the_grid_exits_2_before_any_output(
        self, tmp_path, capsys, command, sweep, message
    ):
        # the search rejects the frequency; the exit 2 leaves no output directory
        path = tmp_path / "n64.cfg"
        path.write_text("[problem]\nn = 64\n\n[sweep]\nalphas = 1e-1, 1e-2\nbregman_steps = 1\n" + sweep)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, text, message", [
        *[(command, N32, COARSE) for command in COMMANDS],
        *[(command, BOX_HI, LOW_BOX) for command in COMMANDS],
        ("approx-sweep", "[problem]\nn = 64\n",
         "alphas must be non-empty: set [sweep] alphas"),
        ("rate-sweep", "[problem]\nn = 64\n\n[sweep]\nk_max = 8\ncalibrate_cs = 0.1, 1.0\n",
         "predicted_rate must be set in [sweep] to calibrate c"),
    ])
    def test_exit_2_after_making_the_output_directory_removes_it(
        self, tmp_path, capsys, command, text, message
    ):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "out" / "nested"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_exit_2_keeps_an_output_directory_that_existed(self, tmp_path, capsys, command):
        path = tmp_path / "bad.cfg"
        path.write_text(N32)
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {COARSE}\n"
        assert out.is_dir()

    @pytest.mark.parametrize("command, written", [
        ("approx-sweep", "sweep.csv"), ("vsc-diagnose", "vsc_report.txt"),
    ])
    def test_commands_without_a_search_run_at_any_noise_frequency(self, tmp_path, command, written):
        # approx-sweep forces exact data and vsc-diagnose never searches, so the
        # default k_max = 32 beyond n/2 - 1 = 31 does not stop them
        path = tmp_path / "n64.cfg"
        path.write_text("[problem]\nn = 64\n\n[sweep]\nalphas = 1e-1, 1e-2\nbregman_steps = 1\n")
        assert load_config(str(path)).sweep.noise.k_max == 32
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        assert (out / written).exists()

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[problem]\nn = 96\nbogus = 1\n")
        assert main(["approx-sweep", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err
