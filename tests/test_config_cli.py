import pytest

from torusreg import ConfigError, default_config, load_config
from torusreg.cli import main
from torusreg.reportio import SWEEP_HEADER, read_sweep_csv, write_sweep_csv
from torusreg.harness import SweepRow


GOOD_CONFIG = """
[problem]
n = 96
penalty = entropy
prior_value = 1.0
box_hi = 5.0

[solver]
tol = 1e-10
gamma = auto

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
        assert cfg.solver.gamma is None
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


class TestCli:
    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("argv", [
        ["approx-sweep", "--threads", "2"],
        ["reconstruct", "--threads", "2"],
        ["vsc-diagnose", "--threads", "2"],
        ["selftest", "--threads", "2"],
        ["reconstruct", "--seed", "1"],
        ["approx-sweep", "--seed", "1"],
        ["rate-sweep", "--seed", "1"],
        ["selftest", "--config", "run.cfg"],
        ["rate-sweep", "--threads", "0"],
    ])
    def test_flag_not_read_or_invalid_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

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

    def test_rate_sweep_deterministic(self, tmp_path):
        cfg = small_cli_config(tmp_path)
        assert main(["rate-sweep", "--config", cfg]) == 0
        first = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert main(["rate-sweep", "--config", cfg]) == 0
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == first

    def test_reconstruct_writes_signals(self, tmp_path):
        cfg = small_cli_config(tmp_path)
        assert main(["reconstruct", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "reconstruction.csv").read_text().splitlines()
        assert lines[0] == "x,f_true,g_true,g_obs,f_step1,f_step2"
        assert len(lines) == 97

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

    def test_vsc_diagnose_writes_report(self, tmp_path):
        cfg = small_cli_config(tmp_path)
        assert main(["vsc-diagnose", "--config", cfg, "--seed", "1"]) == 0
        report = (tmp_path / "out" / "vsc_report.txt").read_text()
        assert "decay norm" in report
        assert "order 1 source: ok" in report

    def test_out_override(self, tmp_path):
        cfg = small_cli_config(tmp_path)
        override = tmp_path / "elsewhere"
        assert main(["approx-sweep", "--config", cfg, "--out", str(override)]) == 0
        assert (override / "sweep.csv").exists()

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[problem]\nn = 96\nbogus = 1\n")
        assert main(["approx-sweep", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err
