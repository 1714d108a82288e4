import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from roadfl import cli
from roadfl.flsim import FLConfig
from roadfl.mcsim import SimConfig
from roadfl.optimizer import OptimizerConfig

REPO = Path(__file__).resolve().parents[1]
BASELINE = REPO / "baseline.cfg"


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(args, cwd=REPO, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run([sys.executable, "-m", "roadfl.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=timeout)


class TestParseConfig:
    def test_baseline_parses(self):
        cfg = cli.parse_config(BASELINE)
        assert cfg.system.dwell_time == 20.0
        assert cfg.schedule is not None and cfg.schedule.h == 24
        assert cfg.fl.eta == 0.1 and cfg.fl.batch_size == 64
        assert cfg.fl.samples_per_vehicle == 1024
        assert cfg.optimizer.gamma == 1e-3

    def test_override_takes_precedence(self):
        cfg = cli.parse_config(BASELINE, ["system.speed_mps=25"])
        assert cfg.system.dwell_time == pytest.approx(16.0)

    def test_empty_config_lists_every_missing_key(self, tmp_path):
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(empty)
        message = str(err.value)
        for key in ("system.length_m", "system.speed_mps",
                    "system.arrival_rate_per_s", "system.tau_down_s",
                    "system.tau_up_s", "system.alpha_s", "system.beta_s"):
            assert key in message

    def test_unknown_key_is_hard_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[system]\nwarp_factor = 9\n")
        with pytest.raises(cli.ConfigError, match="unknown config key"):
            cli.parse_config(bad)
        for override in ("system.turbo=1", "optimizer.grid_step_s=0.01"):
            with pytest.raises(cli.ConfigError, match="unknown config key"):
                cli.parse_config(BASELINE, [override])

    def test_defaults_are_the_dataclass_defaults(self, tmp_path):
        system_only = tmp_path / "system.cfg"
        system_only.write_text(BASELINE.read_text().split("[optimizer]")[0])
        cfg = cli.parse_config(system_only)
        assert cfg.optimizer == OptimizerConfig()
        assert cfg.sim == SimConfig()
        assert cfg.fl == FLConfig()
        assert cfg.schedule is None

    def test_type_mismatch(self):
        with pytest.raises(cli.ConfigError, match="cannot parse"):
            cli.parse_config(BASELINE, ["sim.num_rounds=many"])

    def test_constraint_violation_is_config_error(self):
        with pytest.raises(cli.ConfigError, match="speed must be positive"):
            cli.parse_config(BASELINE, ["system.speed_mps=0"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="not found"):
            cli.parse_config(tmp_path / "nope.cfg")


class TestOptimizeCommand:
    def test_reference_summary(self, tmp_path):
        rc = cli.main(["optimize", "--config", str(BASELINE),
                       "--out", str(tmp_path)])
        assert rc == 0
        summary = read_csv(tmp_path / "optimize_summary.csv")
        assert len(summary) == 1
        assert int(summary[0]["h_star"]) == 24
        assert abs(float(summary[0]["t_star_s"]) - 11.8) <= 0.1
        table = read_csv(tmp_path / "optimize.csv")
        assert len(table) == 89
        assert [int(r["h"]) for r in table] == list(range(1, 90))

    def test_no_arrivals_exits_2(self, tmp_path, capsys):
        rc = cli.main(["optimize", "--config", str(BASELINE),
                       "--out", str(tmp_path),
                       "--system.arrival_rate_per_s=0"])
        assert rc == 2
        assert "no arrivals" in capsys.readouterr().err

    def test_config_error_exits_1(self, tmp_path):
        rc = cli.main(["optimize", "--config", str(tmp_path / "missing.cfg"),
                       "--out", str(tmp_path)])
        assert rc == 1


class TestValidateCommand:
    def test_columns_and_zero_traffic_row(self, tmp_path):
        rc = cli.main(["validate", "--config", str(BASELINE),
                       "--out", str(tmp_path),
                       "--system.arrival_rate_per_s=0",
                       "--sim.num_rounds=50"])
        assert rc == 0
        rows = read_csv(tmp_path / "poisson_fit.csv")
        assert len(rows) == 1
        assert rows[0]["m_suc"] == "0"
        assert float(rows[0]["empirical_freq"]) == 1.0
        assert float(rows[0]["poisson_pmf"]) == 1.0
        report = read_csv(tmp_path / "fit_report.csv")[0]
        assert float(report["tv_distance"]) == 0.0
        assert float(report["lambda_analytic"]) == 0.0

    def test_seed_changes_empirical_not_analytic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out, seed in ((out_a, "1"), (out_b, "2")):
            rc = cli.main(["validate", "--config", str(BASELINE),
                           "--out", str(out), "--seed", seed,
                           "--sim.num_rounds=2000"])
            assert rc == 0
        rep_a = read_csv(out_a / "fit_report.csv")[0]
        rep_b = read_csv(out_b / "fit_report.csv")[0]
        assert rep_a["lambda_analytic"] == rep_b["lambda_analytic"]
        assert rep_a["p_pos_analytic"] == rep_b["p_pos_analytic"]
        assert rep_a["mean_empirical"] != rep_b["mean_empirical"]

    def test_round_cap_is_config_error(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("simulated past the round cap")

        monkeypatch.setattr(cli, "simulate_rounds", must_not_run)
        rc = cli.main(["validate", "--config", str(BASELINE),
                       "--out", str(tmp_path), "--sim.num_rounds=1000000000"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: number of rounds")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "poisson_fit.csv").exists()

    def test_requires_schedule(self, tmp_path):
        rc = cli.main(["validate", "--config", str(BASELINE),
                       "--out", str(tmp_path), "--sim.h=24",
                       "--sim.num_rounds=10", "--sim.t_s=11.8"])
        assert rc == 0
        # drop the schedule keys entirely
        stripped = tmp_path / "nosched.cfg"
        text = BASELINE.read_text().replace("h = 24\n", "").replace("t_s = 11.8\n", "")
        stripped.write_text(text)
        rc = cli.main(["validate", "--config", str(stripped),
                       "--out", str(tmp_path)])
        assert rc == 1


class TestSweepCommand:
    def test_single_peak_along_t(self, tmp_path):
        rc = cli.main(["sweep", "--config", str(BASELINE), "--out", str(tmp_path),
                       "--h-list", "24", "--t-grid", "7:26:0.1"])
        assert rc == 0
        rows = read_csv(tmp_path / "surface.csv")
        assert len(rows) == 191
        g = [float(r["g"]) for r in rows]
        diffs = [b - a for a, b in zip(g, g[1:])]
        sign_changes = sum(1 for a, b in zip(diffs, diffs[1:])
                           if a > 0 and b < 0)
        assert sign_changes == 1
        assert all(v >= 0 for v in g)

    def test_reference_point_value(self, tmp_path):
        rc = cli.main(["sweep", "--config", str(BASELINE), "--out", str(tmp_path),
                       "--h-list", "24", "--t-grid", "11.8:11.8:1"])
        assert rc == 0
        row = read_csv(tmp_path / "surface.csv")[0]
        assert float(row["g"]) == pytest.approx(1.2147, abs=5e-5)
        assert float(row["lambda"]) == pytest.approx(0.9094, abs=5e-5)
        assert float(row["p_success"]) == pytest.approx(0.5972, abs=5e-5)

    def test_empty_grid_is_error(self, tmp_path):
        rc = cli.main(["sweep", "--config", str(BASELINE), "--out", str(tmp_path),
                       "--h-list", "24", "--t-grid", "20:10:1"])
        assert rc == 1

    @pytest.mark.parametrize("h_list,t_grid", [
        ("24", "1:nan:0.1"), ("24", "1:inf:1"), ("24", "nan:10:1"),
        ("24", "1:10:nan"), ("24", "1:10:-inf"),
        ("24", "1:1e300:1"), ("24", "1:2:1e-300"),
        ("1,2,3,4,5", "1:300000:1"),
    ])
    def test_unbounded_or_oversized_grid_is_error(self, tmp_path, capsys, h_list, t_grid):
        rc = cli.main(["sweep", "--config", str(BASELINE), "--out", str(tmp_path),
                       "--h-list", h_list, "--t-grid", t_grid])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: t grid") or "sweep has" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "surface.csv").exists()

    def test_h_too_large_for_float_is_error(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--config", str(BASELINE), "--out", str(tmp_path),
                       "--h-list", "24,1" + "0" * 400, "--t-grid", "7:8:1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: h list")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "surface.csv").exists()

    def test_grid_matches_start_plus_k_steps(self):
        for text in ("7:26:0.1", "5:25:0.5", "1:401:4", "0.3:0.9:0.1", "11.8:11.8:1"):
            start, stop, step = (float(p) for p in text.split(":"))
            expected = []
            while start + len(expected) * step <= stop + 1e-12:
                expected.append(start + len(expected) * step)
            assert cli._parse_t_grid(text).tolist() == expected


class TestFlCommand:
    def test_small_grid_outputs(self, tmp_path):
        rc = cli.main(["fl", "--config", str(BASELINE), "--out", str(tmp_path),
                       "--fl.horizon_s=120", "--fl.feature_dim=8",
                       "--fl.global_pool_size=256", "--fl.validation_size=64",
                       "--fl.samples_per_vehicle=128", "--fl.batch_size=32",
                       "--schedules",
                       "8:4,8:5.5,8:8,16:6,16:8.5,24:8,24:11.8,24:18"])
        assert rc == 0
        rows = read_csv(tmp_path / "fl_runs.csv")
        by_run: dict[tuple[str, str], list[dict]] = {}
        for row in rows:
            by_run.setdefault((row["h"], row["t_s"]), []).append(row)
        assert len(by_run) == 8
        for run_rows in by_run.values():
            lmin = [float(r["l_min"]) for r in run_rows]
            assert all(b <= a for a, b in zip(lmin, lmin[1:]))
        text = (tmp_path / "correlation.txt").read_text()
        assert text.startswith("spearman_rho=")
        assert "grid=" in text

    def test_zero_horizon_is_error(self, tmp_path):
        rc = cli.main(["fl", "--config", str(BASELINE), "--out", str(tmp_path),
                       "--fl.horizon_s=0"])
        assert rc == 1


class TestDeterminism:
    def test_validate_rerun_is_byte_identical(self, tmp_path):
        args = ["validate", "--config", str(BASELINE), "--sim.num_rounds=2000"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out_a)]).returncode == 0
        assert run_cli(args + ["--out", str(out_b)]).returncode == 0
        for name in ("poisson_fit.csv", "fit_report.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("code,args", [
    (1, ["optimize", "--system.length_m=1e300"]),
    (1, ["optimize", "--system.alpha_s=1e-300"]),
    (1, ["optimize", "--system.length_m=1e300", "--system.speed_mps=1e-300"]),
    (1, ["validate", "--system.arrival_rate_per_s=1000"]),
    (1, ["validate", "--sim.t_s=1e300", "--sim.num_rounds=10"]),
    (1, ["fl", "--fl.horizon_s=1e300"]),
    (1, ["fl", "--fl.eta=inf"]),
    (2, ["fl", "--system.arrival_rate_per_s=0"]),
])
def test_hostile_input_ends_in_exit_code(tmp_path, code, args):
    """Inputs that hung, or died in a traceback, end in a one-line error."""
    out = tmp_path / "out"
    proc = run_cli([*args, "--config", str(BASELINE), "--out", str(out)],
                   timeout=20)
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_unknown_cli_token_rejected(tmp_path):
    proc = run_cli(["optimize", "--config", str(BASELINE),
                    "--out", str(tmp_path), "--bogus"])
    assert proc.returncode != 0


def test_runtime_imports_no_scipy(tmp_path):
    """The package runs on numpy alone; scipy is a test-only oracle."""
    code = ("import sys, roadfl.cli\n"
            f"roadfl.cli.main(['validate', '--config', {str(BASELINE)!r}, "
            f"'--out', {str(tmp_path)!r}, '--sim.num_rounds=100'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
