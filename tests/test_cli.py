import csv
import errno
import itertools
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from golden import DIVERGING_GRID, SMALL_TASK, WORKLOADS
from oracle import fl_work, format_csv_value, parse_t_grid_with_arange
from roadfl import analytic, cli, flsim, mcsim, optimizer
from roadfl.types import MAX_ROWS, DivergenceError, FLConfig, OptimizerConfig, Schedule, \
    SimConfig

REPO = Path(__file__).resolve().parents[1]
BASELINE = REPO / "baseline.cfg"


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(args, cwd=REPO, timeout=None, address_space=None, env=None):
    """Run the CLI as a child process; address_space, in bytes, caps the
    child's virtual memory (RLIMIT_AS) and leaves this process alone; env
    adds to this process's environment."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(REPO / "src")}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "roadfl.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=timeout,
                          preexec_fn=limit if address_space is not None else None)


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

    def test_readme_config_table_lists_every_key(self):
        """Each [section] row of README's Configuration table lists exactly
        the keys the schema reads."""
        rows = re.findall(r"^\| `\[(\w+)\]` *\| `([^`]*)`", (REPO / "README.md").read_text(),
                          re.MULTILINE)
        assert {section: sorted(keys.split(", ")) for section, keys in rows} == \
            {section: sorted(keys) for section, keys in cli._KEYS.items()}

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
        with pytest.raises(cli.ConfigError, match="No such file or directory"):
            cli.parse_config(tmp_path / "nope.cfg")

    def test_directory_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["optimize", "--config", str(tmp_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: cannot read {tmp_path}: Is a directory\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags_first", [True, False])
    def test_seed_and_out_win_over_overrides(self, tmp_path, monkeypatch, flags_first):
        seen = []
        monkeypatch.setattr(cli, "cmd_optimize", lambda cfg: seen.append(cfg) or 0)
        flags = ["--seed", "7", "--out", str(tmp_path / "flag")]
        overrides = ["--sim.seed=1", "--fl.seed=2", f"--output.dir={tmp_path / 'override'}"]
        args = flags + overrides if flags_first else overrides + flags
        assert cli.main(["optimize", "--config", str(BASELINE), *args]) == 0
        [cfg] = seen
        assert (cfg.sim.seed, cfg.fl.seed, cfg.output_dir) == (7, 7, tmp_path / "flag")

    @pytest.mark.parametrize("text", [
        b"[system]\nlength_m = 1\n[system]\nspeed_mps = 2\n",
        b"[system]\nlength_m = 1\nlength_m = 2\n",
        b"length_m = 1\n[system]\n",
        b"[system]\n  stray continuation\nlength_m = 1\n",
        b"[system]\nlength_m = 1\xff\n",
    ], ids=["duplicate_section", "duplicate_key", "no_section_header",
            "stray_continuation", "not_utf8"])
    def test_malformed_file_is_one_line_error(self, tmp_path, capsys, text):
        bad, out = tmp_path / "bad.cfg", tmp_path / "out"
        bad.write_bytes(text)
        assert cli.main(["optimize", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read {bad}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()


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


@pytest.mark.parametrize("args", [
    ["optimize"],
    ["fl", "--fl.horizon_s=60", "--fl.feature_dim=8", "--fl.global_pool_size=256",
     "--fl.validation_size=64", "--fl.samples_per_vehicle=128", "--schedules", "24:11.8"],
], ids=["optimize", "fl"])
def test_unwritable_output_is_one_line_error(tmp_path, capsys, args):
    # the output dir would sit below a file
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    assert cli.main([*args, "--config", str(BASELINE), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert blocker.read_text() == ""


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

        monkeypatch.setattr(mcsim, "simulate_rounds", must_not_run)
        rc = cli.main(["validate", "--config", str(BASELINE),
                       "--out", str(tmp_path), "--sim.num_rounds=1000000000"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: number of rounds")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "poisson_fit.csv").exists()

    def test_fit_row_cap_is_checked_before_any_draw(self, tmp_path, capsys, monkeypatch):
        # baseline's lambda = 0.909 puts k = 0 .. 50 in the Poisson fit
        lam = analytic.lambda_param(BASE.system, 24, 11.8)
        assert mcsim.poisson_rows(lam) == 51
        monkeypatch.setattr(cli, "MAX_ROWS", 51)
        rc = cli.main(["validate", "--config", str(BASELINE), "--out", str(tmp_path / "a"),
                       "--sim.num_rounds=100"])
        assert rc == 0
        assert len(read_csv(tmp_path / "a" / "poisson_fit.csv")) <= 51

        def must_not_run(*args):
            raise AssertionError("simulated past the fit's row cap")

        monkeypatch.setattr(cli, "MAX_ROWS", 50)
        monkeypatch.setattr(mcsim, "simulate_rounds", must_not_run)
        capsys.readouterr()
        rc = cli.main(["validate", "--config", str(BASELINE), "--out", str(tmp_path / "b"),
                       "--sim.num_rounds=100"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == ("config error: the Poisson fit of lambda=0.909 needs 51 "
                       "poisson_fit.csv rows, more than 50\n")
        assert not (tmp_path / "b").exists()

    def test_renders_the_fit_validate_computes(self, tmp_path, capsys):
        # the command's files and line are cli.validate's fit of the same config
        overrides = ["sim.num_rounds=2000", "sim.seed=7"]
        assert cli.main(["validate", "--config", str(BASELINE), "--out", str(tmp_path),
                         *("--" + o for o in overrides)]) == 0
        fit = cli.validate(cli.parse_config(BASELINE, overrides))

        def csv_bytes(header, rows):
            return "".join([header + "\n", *(",".join(map(format_csv_value, row)) + "\n"
                                             for row in rows)]).encode()

        assert fit.support.size > 5
        assert (tmp_path / "poisson_fit.csv").read_bytes() == csv_bytes(
            "m_suc,empirical_freq,poisson_pmf",
            zip(fit.support.tolist(), fit.empirical_freq.tolist(), fit.pmf.tolist()))
        assert (tmp_path / "fit_report.csv").read_bytes() == csv_bytes(
            "lambda_analytic,mean_empirical,tv_distance,p_pos_analytic,p_pos_empirical",
            [(fit.lambda_analytic, fit.mean_empirical, fit.tv_distance,
              fit.p_pos_analytic, fit.p_pos_empirical)])
        assert capsys.readouterr().out == (
            f"lambda={fit.lambda_analytic:.9g} empirical_mean={fit.mean_empirical:.9g} "
            f"tv_distance={fit.tv_distance:.9g}\n")

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


# (start, stop, step) of t grids that reach stop in up to about 200 steps,
# or stop before start, with stop moved by up to two ulps. Steps run from
# about an ulp of start up, and from 1e-9 up, so that the 1e-12 slack
# past stop adds at most a step; a large start against a small step, or a
# stop an ulp short of a candidate, rounds the candidates the most.
def _t_grid(start: float, ratio: float, steps: float, ulps: int) -> tuple[float, float, float]:
    step = max(start * ratio, 1e-9)
    stop = start + step * steps
    for _ in range(abs(ulps)):
        stop = math.nextafter(stop, math.copysign(math.inf, ulps))
    return start, stop, step


T_GRIDS = st.builds(
    _t_grid, st.floats(1e-300, 1e295), st.floats(2.0**-55, 2.0**30),
    st.builds(float.__add__, st.integers(-3, 200).map(float),
              st.one_of(st.sampled_from([0.0, 1e-12, -1e-12, 0.5, -0.5]), st.floats(-1, 1))),
    st.integers(-2, 2))


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
        ("1,2,3,4,5", "1:300000:1"), ("24", "1.7e308:-1.7e308:1"),
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

    # 80 points hold 2 of the 39 round lengths' rows: h blocks of 2, 2 and 1
    @pytest.mark.parametrize("chunk", [1, 7, 80, 2**20])
    def test_surface_matches_row_by_row_oracle(self, tmp_path, monkeypatch, chunk):
        # a duplicate h, an h above 2**64 and one above h_max (90 on baseline)
        hs = [24, 8, 24, 2**65, 100]
        ts = [7 + 0.5 * k for k in range(39)]
        monkeypatch.setattr(cli, "ROW_CHUNK", chunk)
        rc = cli.main(["sweep", "--config", str(BASELINE), "--out", str(tmp_path),
                       "--h-list", ",".join(map(str, hs)), "--t-grid", "7:26:0.5"])
        assert rc == 0
        system = cli.parse_config(BASELINE).system
        lines = ["h,t_s,g,lambda,p_success"]
        for h in hs:
            for t in ts:
                values = [float(f(system, float(h), t)) for f in
                          (analytic.g, analytic.lambda_param,
                           lambda *args: analytic.surface(*args)[2])]
                lines.append(",".join(map(format_csv_value, [h, t, *values])))
        text = (tmp_path / "surface.csv").read_text()
        assert text == "\n".join(lines) + "\n"
        assert "\n36893488147419103232,7,0,0,0\n" in text

    def test_grid_matches_start_plus_k_steps(self):
        for text in ("7:26:0.1", "5:25:0.5", "1:401:4", "0.3:0.9:0.1", "11.8:11.8:1"):
            start, stop, step = (float(p) for p in text.split(":"))
            expected = []
            while start + len(expected) * step <= stop + 1e-12:
                expected.append(start + len(expected) * step)
            assert cli._t_chunk(*cli._parse_t_grid(text), 0).tolist() == expected

    def test_parse_matches_the_arange_oracle(self):
        """_parse_t_grid's Python-float count is the count np.arange gives:
        on the grids of the other sweep tests, a step that rounds, spans
        an ulp or two either side of MAX_ROWS - 1 and MAX_ROWS steps, and
        spans whose limit - start overflows."""
        texts = ["7:26:0.1", "5:25:0.5", "1:401:4", "0.3:0.9:0.1", "11.8:11.8:1",
                 "20:10:1", "1:40:0.1", "1:40:0.001", "7:26:0.5", "7:8:1",
                 "1:1048576:1", "1:300000:1", "1:1e300:1", "1:2:1e-300",
                 "1:nan:0.1", "1:inf:1", "nan:10:1", "1:10:nan", "1:10:-inf", "1:x:1",
                 "1e16:1.0000000000000002e16:0.5",
                 "5664.574952904889:2006917391.3706286:23891806.271377094",
                 "0.1:1:0.1", "1.7e308:-1.7e308:1", "1e308:-1e308:1e-300"]
        for start, step in ((1.0, 1.0), (0.1, 0.1), (7.0, 0.37), (1e-3, 3e-7)):
            for steps in (MAX_ROWS - 1, MAX_ROWS):
                for ulps in range(-2, 3):
                    stop = start + steps * step
                    for _ in range(abs(ulps)):
                        stop = math.nextafter(stop, math.copysign(math.inf, ulps))
                    texts.append(f"{start!r}:{stop!r}:{step!r}")
        for text in texts:
            try:
                expected = parse_t_grid_with_arange(text)
            except cli.ConfigError as exc:
                with pytest.raises(cli.ConfigError) as raised:
                    cli._parse_t_grid(text)
                assert str(raised.value) == str(exc), text
            else:
                assert cli._parse_t_grid(text) == expected, text

    # 1e16 + 5 * 0.5 rounds to 1e16 + 2, so the spare candidate is kept;
    # 0.3 + 7 * 0.1 is past 0.9, so it is dropped; in the third grid span
    # rounds up to 84.0, and candidates 84 and 85 are both past stop
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(T_GRIDS, st.sampled_from([1, 2, 3, 64, 2**20]))
    @example((1e16, 1.0000000000000002e16, 0.5), 2)
    @example((0.3, 0.9, 0.1), 3)
    @example((5664.574952904889, 2006917391.3706286, 23891806.271377094), 64)
    def test_grid_chunks_match_whole_array_formula(self, grid, chunk):
        start, stop, step = grid
        # oracle: every candidate as one array, then those up to stop
        limit = stop + 1e-12
        span = (limit - start) / step
        ts = None
        if span < MAX_ROWS:
            candidates = max(math.floor(span), -1) + 2
            ts = start + step * np.arange(candidates)
            ts = ts[ts <= limit]
            event(("spare candidate kept", "spare candidate dropped",
                   "both last candidates dropped")[min(candidates - ts.size, 2)])
        text = f"{start!r}:{stop!r}:{step!r}"
        if ts is None or ts.size == 0:
            with pytest.raises(cli.ConfigError, match="more than" if ts is None else "empty"):
                cli._parse_t_grid(text)
            return
        with mock.patch.object(cli, "ROW_CHUNK", chunk):
            grid_start, grid_step, count = cli._parse_t_grid(text)
            chunks = [cli._t_chunk(grid_start, grid_step, count, k)
                      for k in range(0, count, chunk)]
        assert count == ts.size
        assert np.concatenate(chunks).tolist() == ts.tolist()

    def test_memory_follows_one_chunk(self, tmp_path):
        """A 2**16-point sweep in chunks of 2**10 points holds one chunk of
        its surface at a time, so its tracemalloc peak is within 64 KiB of
        a 2**10-point sweep's: for one h against 2**16 round lengths and
        32 h against 2**11 (t chunks), and 1024 h against 64 (h blocks of
        16 rows). Each sweep runs in a process of its own, after a warm-up
        sweep, and the processes run at once."""
        code = ("import sys, tracemalloc, roadfl.cli\n"
                "roadfl.cli.ROW_CHUNK = 2**10\n"
                "def sweep(*grid):\n"
                "    assert roadfl.cli.main(['sweep', '--config', sys.argv[1], '--out',\n"
                "                            sys.argv[2], '--h-list', grid[0],\n"
                "                            '--t-grid', grid[1]]) == 0\n"
                "sweep('24', '1:2:1')\n"
                "tracemalloc.start()\n"
                "sweep(*sys.argv[3:])\n"
                "print(tracemalloc.get_traced_memory()[1])")
        grids = [("24", "1:1024:1"), ("24", "1:65536:1"),
                 (",".join(map(str, range(1, 33))), "1:2048:1"),
                 (",".join(map(str, range(1, 1025))), "1:64:1")]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
        procs = [subprocess.Popen([sys.executable, "-c", code, str(BASELINE),
                                   str(tmp_path / str(i)), *grid],
                                  stdout=subprocess.PIPE, text=True, env=env)
                 for i, grid in enumerate(grids)]
        peaks = []
        for proc in procs:
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0
            peaks.append(int(out.splitlines()[-1]))
        for grid, peak in zip(grids[1:], peaks[1:]):
            assert peak - peaks[0] < 2**16, (grid[1], peak, peaks[0])
        assert (tmp_path / "1" / "surface.csv").stat().st_size > 2**21


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

    def test_fewer_than_eight_runs_are_not_ranked(self, tmp_path, monkeypatch):
        # proxy_correlation trusts its caller with at least 8 runs
        def refuse(*args):
            raise AssertionError("proxy_correlation called with fewer than 8 runs")

        monkeypatch.setattr(flsim, "proxy_correlation", refuse)
        rc = cli.main(["fl", "--config", str(BASELINE), "--out", str(tmp_path),
                       "--fl.horizon_s=60", "--fl.feature_dim=8",
                       "--fl.global_pool_size=256", "--fl.validation_size=64",
                       "--fl.samples_per_vehicle=128", "--fl.batch_size=32",
                       "--schedules", "8:4,8:5.5,8:8,16:6,16:8.5,24:8,24:11.8"])
        assert rc == 0
        assert (tmp_path / "correlation.txt").read_text().startswith(
            "spearman_rho=nan (fewer than 8 completed runs)\nn_schedules=7\n")

    def test_l_min_curve_non_increasing(self, reference_params):
        # a run returns its losses; its rows add each boundary's time and
        # the running minimum of the losses
        sched = Schedule(16, 9.0)
        fl_cfg = FLConfig(feature_dim=8, global_pool_size=256, validation_size=128,
                          samples_per_vehicle=128, batch_size=32, horizon=200.0, seed=3)
        losses = flsim.run_fl(flsim.plan_runs(reference_params, [sched], fl_cfg)[0],
                              flsim.generate_task(fl_cfg), fl_cfg)
        h, t, time_s, rounds, val_loss, l_min = map(np.array, zip(*cli._fl_rows(sched, losses)))
        assert np.all(h == 16) and np.all(t == 9.0)
        assert np.array_equal(rounds, np.arange(losses.size))
        assert np.array_equal(time_s, rounds * 9.0)
        assert np.array_equal(val_loss, losses)
        assert np.all(np.diff(l_min) <= 0) and np.any(np.diff(l_min) < 0)
        assert l_min[0] == losses[0] and l_min[-1] == losses.min()

    def counting_tasks(self, monkeypatch, path):
        """Record each task flsim.generate_task builds in this process, and
        count its calls in the file at path, so that a forked worker's
        calls count as well."""
        tasks = []
        real = flsim.generate_task

        def counting(*args):
            with open(path, "a") as fh:
                fh.write("task\n")
            tasks.append(real(*args))
            return tasks[-1]

        monkeypatch.setattr(flsim, "generate_task", counting)
        path.write_text("")
        return tasks

    def test_default_grid_builds_the_task_once(self, tmp_path, monkeypatch):
        # in three processes, the workers inherit the parent's task
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        tasks = self.counting_tasks(monkeypatch, tmp_path / "built")
        overrides = ["--fl.horizon_s=60", "--fl.feature_dim=8", "--fl.global_pool_size=256",
                     "--fl.validation_size=64", "--fl.samples_per_vehicle=128",
                     "--fl.batch_size=32"]
        assert cli.main(["fl", "--config", str(BASELINE), "--out", str(tmp_path / "out"),
                         *overrides]) == 0
        assert "n_schedules=12" in (tmp_path / "out" / "correlation.txt").read_text()
        assert cli._processes(12) == 3
        assert (tmp_path / "built").read_text() == "task\n"
        # every run shares the task, so none may write to it
        assert not any(values.flags.writeable for values in vars(tasks[0]).values())

    def test_each_fl_command_builds_its_own_task(self, tmp_path, monkeypatch):
        # no task outlives its command: a second command in this process
        # builds its task again
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        self.counting_tasks(monkeypatch, tmp_path / "built")
        for run in ("first", "second"):
            assert cli.main(["fl", "--config", str(BASELINE), "--out", str(tmp_path / run),
                             *SMALL_TASK, "--schedules", "8:4,16:6"]) == 0
        assert (tmp_path / "built").read_text() == "task\n" * 2
        assert ((tmp_path / "first" / "fl_runs.csv").read_bytes()
                == (tmp_path / "second" / "fl_runs.csv").read_bytes())

    def test_diverging_run_warns_in_one_line(self, tmp_path):
        # numpy's overflow warnings from a diverging run stay off stderr
        proc = run_cli(["fl", "--config", str(BASELINE), "--out", str(tmp_path),
                        "--fl.eta=50", "--fl.horizon_s=100", "--schedules", "8:8.5,24:11.8"],
                       timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert lines and all(line.startswith("warning: run h=") for line in lines)

    def test_renders_the_losses_train_computes(self, tmp_path, capsys):
        # val_loss holds each run's losses from cli.train on the same
        # config, and one nan for a run that diverged, which a warning names
        assert cli.main(["fl", "--config", str(BASELINE), "--out", str(tmp_path),
                         *SMALL_TASK, *DIVERGING_GRID]) == 0
        cfg = cli.parse_config(BASELINE, [arg[2:] for arg in (*SMALL_TASK, DIVERGING_GRID[0])])
        schedules = cli._parse_schedules(DIVERGING_GRID[-1])
        outcomes = cli.train(cfg, schedules)
        val_loss: dict[tuple[str, str], list[str]] = {}
        for row in read_csv(tmp_path / "fl_runs.csv"):
            val_loss.setdefault((row["h"], row["t_s"]), []).append(row["val_loss"])
        keys = [(str(sched.h), format_csv_value(sched.t)) for sched in schedules]
        assert list(val_loss) == keys
        warnings = capsys.readouterr().err.splitlines()
        diverged = []
        for sched, key, outcome in zip(schedules, keys, outcomes):
            if isinstance(outcome, DivergenceError):
                diverged.append(f"warning: run h={sched.h} t={sched.t:.9g} diverged: {outcome}")
                assert val_loss[key] == ["nan"]
            else:
                assert val_loss[key] == list(map(format_csv_value, outcome.tolist()))
        assert warnings == diverged and len(diverged) == 2

    def test_zero_horizon_is_error(self, tmp_path):
        rc = cli.main(["fl", "--config", str(BASELINE), "--out", str(tmp_path),
                       "--fl.horizon_s=0"])
        assert rc == 1

    def test_work_cap_covers_every_schedule(self, tmp_path, monkeypatch, capsys):
        cfg = cli.parse_config(BASELINE, [o[2:] for o in SMALL_TASK])
        works = [flsim.plan_runs(cfg.system, [Schedule(h, t)], cfg.fl)[0].work
                 for h, t in ((8, 8.5), (24, 11.8))]
        assert min(works) > 0
        for cap, code in ((sum(works), 0), (sum(works) - 1, 1)):
            monkeypatch.setattr(flsim, "MAX_SGD_WORK", cap)
            out = tmp_path / str(cap)
            assert cli.main(["fl", "--config", str(BASELINE), "--out", str(out),
                             *SMALL_TASK, "--schedules", "8:8.5,24:11.8"]) == code
        err = capsys.readouterr().err
        assert err == (f"config error: the schedules need {sum(works)} multiply-adds "
                       f"of local training, more than {sum(works) - 1}\n")
        assert not out.exists()


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the process the tests run in; a forked worker has another pid
PARENT = os.getpid()
# the works of five items, which _split shares over 3 processes as
# [[0], [1, 2], [3, 4]]
WORKS = [5, 1, 4, 3, 2]


def in_processes(monkeypatch, fn, items, works, cpus=3):
    """cli._in_processes(fn, items, works) on cpus mocked CPUs; a
    TimeoutError if it has not returned after 30 s."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    def hung(signum, frame):
        raise TimeoutError("_in_processes has not returned after 30 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        return cli._in_processes(fn, items, works)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_in_processes_maps_each_share_to_one_process(monkeypatch):
    """The items come back in order, each computed in the process of its
    _split share, share 0 here; an exception a worker's fn returns is a
    value, as a diverged fl run's is, not an error."""
    results = in_processes(monkeypatch, lambda i: (i, os.getpid()), range(5), WORKS)
    assert [i for i, _ in results] == list(range(5))
    shares = cli._split(WORKS, 3)
    pids = [{results[i][1] for i in share} for share in shares]
    assert all(len(share_pids) == 1 for share_pids in pids)
    assert len(set.union(*pids)) == 3 and pids[0] == {os.getpid()}

    returned = in_processes(monkeypatch, lambda i: DivergenceError(f"run {i}"), range(5),
                            WORKS)
    assert [type(value) for value in returned] == [DivergenceError] * 5
    assert [str(value) for value in returned] == [f"run {i}" for i in range(5)]


def no_fork():
    """A fork that fails for want of processes, and so starts none."""
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def test_in_processes_runs_a_failed_forks_share_here(monkeypatch):
    monkeypatch.setattr(os, "fork", no_fork)
    results = in_processes(monkeypatch, lambda i: (i, os.getpid()), range(5), WORKS)
    assert results == [(i, os.getpid()) for i in range(5)]


def raising_in_workers(i):
    """i in the tests' process, and an ArithmeticError naming i in a
    forked worker."""
    if os.getpid() != PARENT:
        raise ArithmeticError(f"item {i}")
    return i


def test_in_processes_raises_a_workers_exception_here(monkeypatch):
    # the first worker's, whose share is items 1 and 2
    with pytest.raises(ArithmeticError, match="^item 1$"):
        in_processes(monkeypatch, raising_in_workers, range(5), WORKS)


def test_in_processes_reaps_a_blocked_worker_when_the_parent_raises(monkeypatch):
    # the worker's 8 MB result fills its pipe, which nothing reads: it
    # exits only once the parent has closed the pipe
    def fn(i):
        if os.getpid() == PARENT:
            raise ArithmeticError("parent")
        return bytes(2**23)

    with pytest.raises(ArithmeticError, match="^parent$"):
        in_processes(monkeypatch, fn, range(2), [1, 1], cpus=2)
    assert_no_children()


def test_in_processes_starts_each_process_on_a_cpu_of_its_own(monkeypatch, tmp_path):
    # the parent moves to the first CPU, each worker to the next, and
    # each then gets every CPU back; calls are recorded in a file, so
    # that a forked worker's count as well, and no process moves
    path = tmp_path / "placed"

    def record(pid, cpus):
        with open(path, "a") as fh:
            fh.write(json.dumps([os.getpid(), sorted(cpus)]) + "\n")

    monkeypatch.setattr(os, "sched_setaffinity", record)
    assert in_processes(monkeypatch, abs, range(3), [1, 1, 1]) == [0, 1, 2]
    calls: dict[int, list] = {}
    for line in path.read_text().splitlines():
        pid, cpus = json.loads(line)
        calls.setdefault(pid, []).append(cpus)
    assert calls.pop(os.getpid()) == [[0], [0, 1, 2]]
    assert sorted(calls.values()) == [[[1], [0, 1, 2]], [[2], [0, 1, 2]]]


def test_in_processes_ignores_an_unusable_cpu(monkeypatch):
    # a process that may not move to its CPU stays where it is
    def refused(pid, cpus):
        raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))

    monkeypatch.setattr(os, "sched_setaffinity", refused)
    results = in_processes(monkeypatch, lambda i: (i, os.getpid()), range(3), [1, 1, 1])
    assert [i for i, _ in results] == [0, 1, 2]
    assert len({pid for _, pid in results}) == 3


def test_in_processes_leaves_no_child(monkeypatch):
    # whether it returns, with workers that finish after this process's
    # share, or raises a worker's exception
    def slow_in_workers(i):
        if os.getpid() != PARENT:
            time.sleep(0.1)
        return i

    assert in_processes(monkeypatch, slow_in_workers, range(5), WORKS) == list(range(5))
    assert_no_children()
    with pytest.raises(ArithmeticError):
        in_processes(monkeypatch, raising_in_workers, range(5), WORKS)
    assert_no_children()


class TestFlProcesses:
    @pytest.mark.parametrize("blas,cpus", [
        *itertools.product((None, "2", "abc", "0"), (1, 3, 4)), ("1", 4), ("2", 2)])
    def test_one_process_per_blas_thread_pool(self, monkeypatch, blas, cpus):
        # entry gives each process one single-thread BLAS pool, so one
        # process per allowed CPU, whatever the BLAS thread variables hold
        monkeypatch.setattr(os, "environ", {} if blas is None else dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"), blas))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for most in (1, 3, 12):
            assert cli._processes(most) == min(most, cpus), most

    @pytest.mark.parametrize("name", ["sched_getaffinity", "fork"])
    def test_one_process_without_affinity_or_fork(self, monkeypatch, name):
        monkeypatch.delattr(os, name)
        assert cli._processes(12) == 1

    def test_split_balances_work_largest_first(self):
        assert cli._split([5, 1, 4, 3, 2], 2) == [[0, 1, 4], [2, 3]]
        # items without work still spread over every process
        assert cli._split([0, 0, 0, 7], 3) == [[3], [0, 2], [1]]

    def fl(self, tmp_path, monkeypatch, capsys, cpus, args):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / str(cpus)
        rc = cli.main(["fl", "--config", str(BASELINE), "--out", str(out), *args])
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return rc, captured.out, captured.err, files

    def test_processes_match_one_process(self, tmp_path, monkeypatch, capsys):
        args = [*SMALL_TASK, *DIVERGING_GRID]
        serial = self.fl(tmp_path, monkeypatch, capsys, 1, args)
        assert cli._processes(10) == 1
        parallel = self.fl(tmp_path, monkeypatch, capsys, 3, args)
        assert cli._processes(10) == 3
        assert serial == parallel
        rc, out, err, files = serial
        assert rc == 0 and out.startswith("spearman_rho=")
        assert [line.split(" diverged")[0] for line in err.splitlines()] == [
            "warning: run h=24 t=11.8", "warning: run h=40 t=20"]
        assert sorted(files) == ["correlation.txt", "fl_runs.csv"]

    def counter(self, monkeypatch, path, name):
        """Count the calls of flsim's name in the file at path, so that
        calls in forked workers count as well."""
        real = getattr(flsim, name)

        def counting(*args):
            with open(path, "a") as fh:
                fh.write("call\n")
            return real(*args)

        monkeypatch.setattr(flsim, name, counting)
        path.write_text("")
        return lambda: len(path.read_text().splitlines())

    def test_plan_error_ends_fl_before_training(self, tmp_path, monkeypatch, capsys):
        # over a 400 s horizon, 8:200 has two rounds and 8:500 none
        trained = self.counter(monkeypatch, tmp_path / "run_fl", "run_fl")
        args = [*SMALL_TASK, "--fl.horizon_s=400", "--schedules", "8:200,8:500"]
        serial = self.fl(tmp_path, monkeypatch, capsys, 1, args)
        parallel = self.fl(tmp_path, monkeypatch, capsys, 3, args)
        assert trained() == 0
        assert serial == parallel
        rc, out, err, files = serial
        assert rc == 1 and out == "" and files == {}
        assert err == "config error: training horizon is shorter than a single round\n"

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_each_schedule_is_planned_once(self, tmp_path, monkeypatch, capsys, cpus):
        # a plan builds its attempt table once, and nothing else builds one
        planned = self.counter(monkeypatch, tmp_path / "attempt_blocks", "attempt_blocks")
        trained = self.counter(monkeypatch, tmp_path / "run_fl", "run_fl")
        rc, _, _, _ = self.fl(tmp_path, monkeypatch, capsys, cpus,
                              [*SMALL_TASK, *DIVERGING_GRID])
        assert rc == 0
        assert planned() == trained() == 10

    def test_piped_stdout_is_written_once(self, tmp_path):
        # an empty PYTHONUNBUFFERED leaves the piped stdout block-buffered
        proc = run_cli(["fl", "--config", str(BASELINE), "--out", str(tmp_path),
                        *SMALL_TASK, *DIVERGING_GRID],
                       env={"PYTHONUNBUFFERED": ""}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("spearman_rho=") == 1


# about 64,000 expected attempts, which with one process per 2**10 of
# them run in as many processes as there are CPUs
VALIDATE_ARGS = ["--sim.num_rounds=20000", "--seed", "5"]
# the long_section benchmark workload's validate
LONG_SECTION_VALIDATE = [arg[2:] for arg in (*WORKLOADS["long_section"].overrides,
                                             *WORKLOADS["long_section"].args["validate"])]


class TestValidateProcesses:
    def validate(self, tmp_path, monkeypatch, capsys, cpus, args=VALIDATE_ARGS):
        """validate on cpus mocked CPUs: its exit code, stdout, stderr,
        files and forks."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(cli, "ATTEMPTS_PER_PROCESS", 2**10)
        forks, fork = [], os.fork

        def counting_fork():
            forks.append(cpus)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        out = tmp_path / str(cpus)
        rc = cli.main(["validate", "--config", str(BASELINE), "--out", str(out), *args])
        monkeypatch.setattr(os, "fork", fork)
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return (rc, captured.out, captured.err, files), len(forks)

    def test_processes_match_one_process(self, tmp_path, monkeypatch, capsys):
        serial, forks = self.validate(tmp_path, monkeypatch, capsys, 1)
        assert forks == 0
        rc, out, err, files = serial
        assert rc == 0 and out.startswith("lambda=0.909401251 ") and err == ""
        assert sorted(files) == ["fit_report.csv", "poisson_fit.csv"]
        for cpus in (2, 3):
            assert self.validate(tmp_path, monkeypatch, capsys, cpus) == (serial, cpus - 1)

    def test_one_process_per_round_at_most(self, tmp_path, monkeypatch, capsys):
        # about 3,180 expected attempts a round, three processes' worth:
        # one round runs here, and two in two processes
        for rounds, forks in ((1, 0), (2, 1)):
            args = ["--system.arrival_rate_per_s=100", f"--sim.num_rounds={rounds}"]
            serial, _ = self.validate(tmp_path, monkeypatch, capsys, 1, args)
            assert serial[0] == 0 and sorted(serial[3]) == ["fit_report.csv", "poisson_fit.csv"]
            assert self.validate(tmp_path, monkeypatch, capsys, 3, args) == (serial, forks)

    @pytest.mark.parametrize("overrides,cpus,processes", [
        ([], 2, 1), ([], 8, 1), (LONG_SECTION_VALIDATE, 2, 2), (LONG_SECTION_VALIDATE, 8, 4)],
        ids=["reference-2", "reference-8", "long_section-2", "long_section-8"])
    def test_one_process_per_2_20_expected_attempts(self, monkeypatch, overrides, cpus,
                                                    processes):
        # the benchmark's validate workloads, with 318,000 and 4.84M
        # expected attempts; no fork starts, so every range runs here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(os, "fork", no_fork)
        replayed = []

        def simulate(params, sched, cfg, rounds):
            # one round, of as many successes as ranges replayed so far
            replayed.append(rounds)
            return np.bincount([len(replayed)])

        monkeypatch.setattr(mcsim, "simulate_rounds", simulate)
        cfg = cli.parse_config(BASELINE, overrides)
        fit = cli.validate(cfg)
        # one contiguous range of the rounds per process, as equal as they divide
        k = cfg.sim.num_rounds
        assert replayed == [range(k * i // processes, k * (i + 1) // processes)
                            for i in range(processes)]
        # the ranges' histograms of different lengths are summed
        assert fit.mean_empirical == (processes + 1) / 2

    @pytest.mark.parametrize("cap,value,message", [
        ("MAX_ATTEMPTS", 63_000, "6.36e+04 expected upload attempts, more than 63000"),
        ("MAX_ARRIVALS", 23_000, "2.36e+04 expected arrivals, more than 23000")])
    def test_over_cap_exits_1_without_forking(self, tmp_path, monkeypatch, capsys, cap,
                                              value, message):
        """A cap patched on mcsim alone stops validate and fl with the same
        line, before any stream is made or any worker forked, though both
        would compute in several processes. fl's two runs of 4,100 rounds
        of 57.56 s have 63,598 expected attempts, and 23,602 expected
        arrivals each, to validate's 63,600 and 23,602."""
        def must_not_fork():
            raise AssertionError("forked past a cap")

        streams = []
        for module in (mcsim, flsim):
            monkeypatch.setattr(module, "substream", lambda *tags: streams.append(tags))
        monkeypatch.setattr(mcsim, cap, value)
        monkeypatch.setattr(os, "fork", must_not_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(cli, "ATTEMPTS_PER_PROCESS", 2**10)
        for args in (["validate", *VALIDATE_ARGS],
                     ["fl", "--fl.horizon_s=236005", "--schedules", "24:57.56,8:57.56"]):
            out = tmp_path / args[0]
            rc = cli.main([*args, "--config", str(BASELINE), "--out", str(out)])
            assert rc == 1
            assert capsys.readouterr() == ("", f"config error: {message}\n")
            assert not out.exists()
        assert streams == []


def run_into_closed_pipe(args, unbuffered):
    """Run the CLI with its stdout a pipe whose read end is closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONUNBUFFERED": unbuffered}
    try:
        return subprocess.run([sys.executable, "-m", "roadfl.cli", *args],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, cwd=REPO, timeout=60)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command,args,written", [
    ("optimize", [], "optimize_summary.csv"),
    ("fl", [*SMALL_TASK, "--schedules", "8:4,16:6"], "correlation.txt"),
], ids=["optimize", "fl"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, command, args, written,
                                                 unbuffered):
    """A stdout whose reader is gone fails the command's one print, at the
    print when stdout is unbuffered and at the flush otherwise; either way
    the process exits 1 and writes nothing to stderr. The files come
    before the print, so they are written."""
    proc = run_into_closed_pipe([command, "--config", str(BASELINE), "--out",
                                 str(tmp_path), *args], unbuffered)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert (tmp_path / written).is_file()


def test_help_into_closed_stdout_exits_1_without_traceback():
    # argparse ends --help with SystemExit, before the buffered text is flushed
    proc = run_into_closed_pipe(["optimize", "--help"], unbuffered="")
    assert (proc.returncode, proc.stderr) == (1, "")


class TestDeterminism:
    def test_chunk_size_leaves_bytes_unchanged(self, tmp_path, monkeypatch):
        # chunks of 7 rows split each h's 41 round lengths and cross every
        # boundary of the 12-, 51- and 1-row fl runs; eta=50 makes h=24
        # diverge. 39,001 round lengths span three chunks of the default
        # size, so the sweep's cached chunk text misses on every chunk.
        commands = [
            ("surface.csv", 7, ["sweep", "--h-list", "8,16,24", "--t-grid", "5:25:0.5"]),
            ("surface.csv", cli.ROW_CHUNK,
             ["sweep", "--h-list", "8,24", "--t-grid", "1:40:0.001"]),
            ("fl_runs.csv", 7, ["fl", "--fl.eta=50", "--fl.horizon_s=100",
                                "--schedules", "8:8.5,24:11.8,8:2"]),
        ]
        for i, (name, small_chunk, args) in enumerate(commands):
            written = []
            for chunk in (small_chunk, 2**20):
                monkeypatch.setattr(cli, "ROW_CHUNK", chunk)
                out = tmp_path / str(i) / str(chunk)
                assert cli.main([*args, "--config", str(BASELINE), "--out", str(out)]) == 0
                written.append((out / name).read_bytes())
            assert written[0] == written[1]
            assert written[0].count(b"\n") > 60
        assert b"\n24,11.8,nan,0,nan,nan\n" in written[0]


# integers in full, floats with 9 significant digits, whatever their type
INT_VALUES = st.one_of(
    st.integers(), st.integers(min_value=2**53), st.integers(max_value=-2**53),
    st.sampled_from([0, -1, 1, 2**53 + 1]), st.booleans(),
    st.integers(-2**63, 2**63 - 1).map(np.int64))
FLOAT_VALUES = st.one_of(
    st.floats(), st.floats(-1e-307, 1e-307),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                     5e-324, 1e-310, 1e308, -1e308]),
    st.floats().map(np.float64))


class TestRowTemplates:
    @settings(max_examples=300, derandomize=True)
    @given(INT_VALUES)
    def test_int_code_matches_value_formatter(self, value):
        assert cli.INT % (value,) == format_csv_value(value)

    @settings(max_examples=300, derandomize=True)
    @given(FLOAT_VALUES)
    def test_float_code_matches_value_formatter(self, value):
        assert cli.FLOAT % (value,) == format_csv_value(value)


# six runs, each just under flsim.MAX_SGD_WORK; one alone takes about 4 s
SIX_RUNS_NEAR_CAP = ["fl", "--fl.horizon_s=22000", "--schedules",
                     "40:33.07,40:33.08,40:33.09,40:33.1,40:33.11,40:33.12"]

# every vehicle of a 10**6 s dwell time attempts an upload in every round
TINY_STEPS = ["fl", "--system.length_m=1e6", "--system.speed_mps=1",
              "--fl.samples_per_vehicle=64", "--fl.batch_size=8", "--fl.feature_dim=8",
              "--fl.global_pool_size=64"]

# six winnerless tables of about 1e8 attempts each, capped together before
# any is planned
SIX_BIG_TABLES = [*TINY_STEPS, "--fl.horizon_s=5000", "--schedules",
                  "1000:5,1000:5.01,1000:5.02,1000:5.03,1000:5.04,1000:5.05"]

# 780 one-step winners, each drawing 2**20 sample rows: about 30 s of
# data draws that the work charges before anything trains
BIG_SAMPLES = ["fl", "--fl.feature_dim=1", "--fl.global_pool_size=1048576",
               "--fl.samples_per_vehicle=1048576", "--fl.batch_size=1",
               "--fl.validation_size=16", "--schedules", "1:5"]

# 49,964 winners over 31,723 valid rounds, each round then evaluated on
# 1.6e7 validation rows: over an hour of loss evaluations, which the work
# charges before anything trains
BIG_VALIDATION = ["fl", "--system.arrival_rate_per_s=0.056", "--fl.feature_dim=1",
                  "--fl.global_pool_size=16", "--fl.samples_per_vehicle=1",
                  "--fl.batch_size=1", "--fl.validation_size=16000000",
                  "--fl.horizon_s=150000", "--schedules", "1:3"]

# lambda = 6.4e6: as many poisson_fit.csv rows, and a per-k lgamma each
HUGE_FIT = ["validate", "--system.arrival_rate_per_s=700000", "--sim.num_rounds=1"]

# the first schedule's 3.35e7 expected arrivals pass the arrival cap, the
# second's do not: checked before the first is planned
SECOND_RUN_OVER_ARRIVALS = ["fl", "--fl.horizon_s=2.2022000022022",
                            "--system.arrival_rate_per_s=1511386.0122549462", "--schedules",
                            "1:2.2000000022000004,1:2.2022000022022"]

# these end on a cap before anything trains, so they end quickly
QUICK = (SIX_RUNS_NEAR_CAP, SIX_BIG_TABLES, BIG_SAMPLES, BIG_VALIDATION, HUGE_FIT,
         SECOND_RUN_OVER_ARRIVALS)


@pytest.mark.parametrize("code,args", [
    (1, ["optimize", "--system.length_m=1e300"]),
    (1, ["optimize", "--system.alpha_s=1e-300"]),
    (1, ["optimize", "--system.length_m=1e300", "--system.speed_mps=1e-300"]),
    (1, ["validate", "--system.arrival_rate_per_s=1000"]),
    (1, ["validate", "--sim.t_s=1e300", "--sim.num_rounds=10"]),
    (1, ["fl", "--fl.horizon_s=1e300"]),
    (1, ["fl", "--fl.eta=inf"]),
    (2, ["fl", "--system.arrival_rate_per_s=0"]),
    (1, ["fl", "--schedules", "24:1e-6"]),
    (1, ["fl", "--fl.horizon_s=1e300", "--schedules", "24:1e-300"]),
    (1, ["fl", "--fl.horizon_s=1e7", "--schedules", "24:11.8"]),
    (1, ["fl", "--fl.global_pool_size=100000000", "--fl.samples_per_vehicle=64"]),
    (1, ["fl", "--fl.feature_dim=100000000"]),
    (1, ["fl", "--fl.validation_size=1000000000"]),
    (1, ["fl", "--system.alpha_s=1e-6", "--system.beta_s=1e-6", "--fl.horizon_s=60",
         "--schedules", "1000000:30"]),
    (1, SIX_RUNS_NEAR_CAP),
    # about 1e11 and 3e9 upload attempts
    (1, ["validate", "--system.length_m=1e7", "--system.speed_mps=1",
         "--sim.num_rounds=100000", "--sim.t_s=5", "--sim.h=1"]),
    (1, ["fl", "--system.length_m=2000", "--system.speed_mps=5",
         "--system.arrival_rate_per_s=8", "--schedules", "24:0.002"]),
    # about 1e8 and 2e7 one-step winners of 72 multiply-adds each: the
    # first ran out of memory, the second ran past 20 s in its batch draws
    (1, [*TINY_STEPS, "--fl.horizon_s=5000", "--schedules", "1:5"]),
    (1, [*TINY_STEPS, "--fl.horizon_s=1000", "--schedules", "1:5"]),
    # the first run diverges, the second's plan fails: no run trains
    (1, ["fl", "--fl.eta=100", "--system.alpha_s=1e-6", "--system.beta_s=1e-6",
         "--fl.horizon_s=60", "--schedules", "24:11.8,1000000:30"]),
    (1, SIX_BIG_TABLES),
    (1, BIG_SAMPLES),
    (1, BIG_VALIDATION),
    (1, HUGE_FIT),
    (1, SECOND_RUN_OVER_ARRIVALS),
    # one round of about 2.2e7 attempts, whose first block of them already
    # holds more winners than the work allows
    (1, ["fl", "--system.arrival_rate_per_s=700000", "--fl.horizon_s=11.8",
         "--schedules", "24:11.8"]),
])
def test_hostile_input_ends_in_exit_code(tmp_path, code, args):
    """Inputs that hung, or died in a traceback, end in a one-line error
    within 20 s and 1.5 GiB of address space."""
    out = tmp_path / "out"
    started = time.perf_counter()
    proc = run_cli([*args, "--config", str(BASELINE), "--out", str(out)],
                   timeout=20, address_space=3 * 2**29)
    if any(args is quick for quick in QUICK):
        assert time.perf_counter() - started < 2
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("code,args", [
    # the default grid's search squared round lengths near 1e299
    (1, ["--system.length_m=1e300"]),
    # the first validation loss squared targets near 1e300
    (0, ["--fl.noise_std=1e300"]),
])
def test_overflow_prints_no_numpy_warning(tmp_path, code, args):
    """An overflow to inf that the outputs or the caps already account for
    leaves stderr to the command's own lines."""
    proc = run_cli(["fl", "--config", str(BASELINE), "--out", str(tmp_path),
                    "--fl.horizon_s=60", *args], timeout=60)
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == code, proc.stderr


def test_overflowing_targets_only_warn_of_divergence(tmp_path):
    """Label noise of 1e308 overflows the targets to inf, so every run
    with a winner diverges: stderr holds its divergence warnings alone."""
    proc = run_cli(["fl", "--config", str(BASELINE), "--out", str(tmp_path),
                    "--fl.horizon_s=60", "--fl.noise_std=1e308"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("warning: run h=") for line in lines), proc.stderr


@pytest.mark.parametrize("command", ["optimize", "sweep"])
@pytest.mark.parametrize("beta", ["1e305", "1e306", "1e308"])
def test_beta_whose_tail_term_overflows_is_rejected(tmp_path, capsys, command, beta):
    """On the reference section h reaches t0 / alpha = 100, so 2*beta*h
    overflows from beta = 1e306 on: a config error instead of a nan
    answer. At 1e305 the outputs are finite and no warning is printed."""
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(BASELINE), "--out", str(out),
                   f"--system.beta_s={beta}"])
    err = capsys.readouterr().err
    if beta == "1e305":
        assert rc == 0 and err == ""
        for path in out.iterdir():
            assert not re.search(r"nan|inf", path.read_text()), path.name
    else:
        assert rc == 1 and not out.exists()
        assert err == "config error: 2 * beta * dwell time / alpha must be finite\n"


RATE_RULE = "12 * arrival rate * (3 * dwell time + 2 * beta * dwell time / alpha)"


@pytest.mark.parametrize("command,override,message", [
    ("optimize", "arrival_rate_per_s=1e306", RATE_RULE),
    ("optimize", "arrival_rate_per_s=1e307", RATE_RULE),
    ("optimize", "arrival_rate_per_s=1e308", RATE_RULE),
    ("optimize", "arrival_rate_per_s=1.6e305", RATE_RULE),
    ("sweep", "arrival_rate_per_s=1e308", RATE_RULE),
    ("fl", "arrival_rate_per_s=1e307", RATE_RULE),
    ("optimize", "beta_s=1e-310", "dwell time / beta"),
    ("sweep", "beta_s=1e-310", "dwell time / beta"),
    ("optimize", "arrival_rate_per_s=5e-324", "search bound t_max at h=22"),
    ("optimize", "arrival_rate_per_s=1e-310", "search bound t_max at h=22"),
    ("optimize", "arrival_rate_per_s=1e-307", "search bound t_max at h=89"),
    ("fl", "arrival_rate_per_s=5e-324", "search bound t_max at h=24"),
    ("fl", "arrival_rate_per_s=1e-310", "search bound t_max at h=24")])
def test_environment_the_kernel_overflows_on_is_rejected(tmp_path, capsys, command,
                                                         override, message):
    """On the reference section 12*rate*c1 of the search bound overflows
    from a rate of 1.5e305 on, and (t0 - t)/(beta*h) from a subnormal
    beta on. At a rate of 1e-307 and below, 4*rate*c0 underflows or the
    bound's quotient overflows, so t_max is inf for some h with c1 < 0
    (fl's default grid, h in {8, 16, 24, 40}, first meets one at 24).
    Each is one config error line, where a nan or partial answer, numpy
    warnings or an exit 2 followed."""
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(BASELINE), "--out", str(out),
                   f"--system.{override}"])
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err == f"config error: {message} must be finite\n"


@pytest.mark.parametrize("overrides", [
    ["--system.arrival_rate_per_s=1e305"],
    ["--system.arrival_rate_per_s=1.4e305"],
    ["--system.arrival_rate_per_s=1e-300", "--system.beta_s=1e-300"]])
def test_environment_near_the_overflow_rules_is_answered(tmp_path, capsys, overrides):
    """Just inside the rate rule, and with a tail so short that the branch
    of dg/dt below t0 overflows beyond it, optimize answers without a
    warning (one would fail this test) and without a nan."""
    out = tmp_path / "out"
    rc = cli.main(["optimize", "--config", str(BASELINE), "--out", str(out), *overrides])
    assert rc == 0 and capsys.readouterr().err == ""
    for path in out.iterdir():
        assert "nan" not in path.read_text(), path.name


@pytest.mark.parametrize("command,rate,answer", [
    ("validate", "5e-324", "lambda=4.44659081e-323 empirical_mean=0 tv_distance=0\n"),
    ("validate", "1e-310", "lambda=9.09401251e-310 empirical_mean=0 tv_distance=0\n"),
    ("validate", "1e-307", "lambda=9.09401251e-307 empirical_mean=0 tv_distance=0\n"),
    ("optimize", "2e-307", "h_star=42 t_star_s=524800436 ")])
def test_tiny_rate_is_answered(tmp_path, capsys, command, rate, answer):
    """validate at a tiny rate draws arrival gaps and sums that overflow
    to inf, which means no further arrival; optimize answers from 2e-307
    on, where no search bound overflows. No warning (one would fail this
    test)."""
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(BASELINE), "--out", str(out),
                   f"--system.arrival_rate_per_s={rate}", "--sim.num_rounds=2000"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out.startswith(answer)


def test_winnerless_crowd_draws_no_data(tmp_path):
    """1.6e7 arrivals and no winner, since t_min(1000) = 202 s exceeds the
    20 s dwell time: no vehicle draws data, so the run ends in seconds."""
    started = time.perf_counter()
    proc = run_cli(["fl", "--config", str(BASELINE), "--out", str(tmp_path),
                    "--system.arrival_rate_per_s=8000", "--fl.samples_per_vehicle=1",
                    "--fl.batch_size=1", "--fl.feature_dim=1", "--fl.horizon_s=2000",
                    "--schedules", "1000:1000"], timeout=20, address_space=3 * 2**29)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert time.perf_counter() - started < 10
    assert len(read_csv(tmp_path / "fl_runs.csv")) == 3


@pytest.mark.parametrize("name", ["reference", "long_section"])
def test_default_grid_is_admitted(name):
    """Each benchmark workload's default fl grid passes every cap of
    plan_runs at seeds 1, 2 and 703."""
    workload = WORKLOADS[name]
    cfg = cli.parse_config(BASELINE, [arg[2:] for arg in (*workload.overrides,
                                                          *workload.args["fl"])])
    grid = cli.default_fl_grid(cfg)
    for seed in (1, 2, 703):
        plans = flsim.plan_runs(cfg.system, grid, replace(cfg.fl, seed=seed))
        assert [plan.schedule for plan in plans] == grid
        assert 0 < sum(plan.work for plan in plans) <= flsim.MAX_SGD_WORK


def test_one_round_of_many_attempts_is_built_in_blocks(tmp_path):
    """A single round of about 2.2e7 upload attempts, from 3e7 arrivals,
    is simulated in blocks of rows, so it stays within 1.5 GiB of address
    space: one table of it would take about 2.9 GB. h = 1000 cannot
    succeed in the 20 s dwell time, so the fit is a point mass."""
    proc = run_cli(["validate", "--config", str(BASELINE), "--out", str(tmp_path),
                    "--system.arrival_rate_per_s=700000", "--sim.num_rounds=1",
                    "--sim.h=1000"], timeout=20, address_space=3 * 2**29)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert len(read_csv(tmp_path / "fit_report.csv")) == 1


# config values from 0, 1, tiny and huge to non-finite, as the CLI reads them
FLOAT_TEXT = st.sampled_from(["0", "1", "-1", "5e-324", "1e-310", "1e-300", "1e-6", "0.05",
                              "0.5", "20", "1e6", "1e300", "inf", "-inf", "nan"])
INT_TEXT = st.sampled_from(["0", "1", "2", "-1", "64", "1000", "1000000", "1000000000",
                            str(2**63)])


def _override(key: str):
    section, name = key.split(".")
    values = INT_TEXT if cli._KEYS[section][name][1] is int else FLOAT_TEXT
    return values.map(lambda value: f"--{key}={value}")


OVERRIDE = st.sampled_from([f"{section}.{key}" for section, keys in cli._KEYS.items()
                            if section != "output" for key in keys]).flatmap(_override)

BASE = cli.parse_config(BASELINE)
# iteration counts from one step to far beyond the h_max of 90 that
# baseline.cfg's 20 s dwell time allows
SCHEDULE_HS = (1, 8, 24, 1000, 10**6)
FEASIBLE_HS = (1, 8, 24)
T_OPT = dict(zip(FEASIBLE_HS, optimizer.optimize_round_lengths(
    BASE.system, FEASIBLE_HS, BASE.optimizer)[0].tolist()))


def _round_lengths(h: int, extreme: bool = True):
    """Round lengths for h in baseline.cfg's environment: just above
    t_min(h), or near the optimum (twice t_min(h) when h has none), and if
    extreme, tiny or huge as well."""
    t_min = float(analytic.t_min(BASE.system, h))
    near = T_OPT.get(h, 2 * t_min)
    moderate = st.one_of(st.just(t_min * (1 + 1e-9)), st.floats(0.8, 1.25).map(near.__mul__))
    if not extreme:
        return moderate
    return st.one_of(st.sampled_from([1e-300, 1e-3]), moderate, st.sampled_from([1e9, 1e300]))


def _schedules_arg(h: int, ts) -> list[str]:
    return ["--schedules", ",".join(f"{h}:{t!r}" for t in ts)]


SCHEDULES = st.lists(st.sampled_from(SCHEDULE_HS).flatmap(
    lambda h: _round_lengths(h).map(lambda t: f"{h}:{t!r}")), min_size=1, max_size=8)
# each command's own arguments; fl trains over a short horizon unless an
# override says otherwise
COMMAND_ARGS = {
    "optimize": st.just([]),
    "validate": st.just(["--sim.num_rounds=2000"]),
    "sweep": st.tuples(st.sampled_from(["8,24", "1", "1,100000", "0", "x"]),
                       st.sampled_from(["7:26:0.1", "0.001:40:0.001", "1:1e300:1",
                                        "nan:10:1", "5:1:1"])
                       ).map(lambda p: ["--h-list", p[0], "--t-grid", p[1]]),
    "fl": st.one_of(st.none(), SCHEDULES.map(",".join), st.sampled_from(["8:inf", "0:5", "x"])
                    ).map(lambda s: ["--fl.horizon_s=60"] + (["--schedules", s] if s else [])),
}
# a task whose validation-loss evaluations outweigh its training
EVALUATION_TASK = ["--fl.feature_dim=1", "--fl.global_pool_size=16",
                   "--fl.samples_per_vehicle=1", "--fl.batch_size=1"]


@st.composite
def aimed_at_a_cap(draw):
    """fl arguments whose expected fl_runs.csv rows, upload attempts,
    arrivals of one run or work (of training, or mostly of loss
    evaluations) land between 0.5 and 2 times the cap, or validate
    arguments whose expected attempts or Poisson-fit rows do. horizon_s,
    arrival_rate_per_s and the schedule count aim them; the schedules
    share one h and differ in t by 0.1% steps."""
    cap = draw(st.sampled_from(["rows", "attempts", "arrivals", "work", "evaluations",
                                "validate", "fit rows"]))
    event(f"aimed at {cap}")
    factor = draw(st.floats(0.5, 2.0))
    n = draw(st.integers(1, 8))
    # these need a schedule that can succeed
    trains = cap in ("work", "evaluations", "fit rows")
    h = draw(st.sampled_from(FEASIBLE_HS if trains else SCHEDULE_HS))
    t = draw(st.floats(1.0, 1.25).map(T_OPT[h].__mul__) if trains
             else _round_lengths(h, extreme=False))
    ts = [t * (1 + i / 1000) for i in range(n)]
    t0 = BASE.system.dwell_time
    if cap == "fit rows":
        # lambda is proportional to the arrival rate, and the fit's rows
        # are about lambda
        rate = factor * MAX_ROWS / analytic.lambda_param(
            replace(BASE.system, arrival_rate=1.0), h, t)
        rounds = draw(st.sampled_from([1, 10]))
        return ["validate", f"--system.arrival_rate_per_s={rate!r}", f"--sim.h={h}",
                f"--sim.t_s={t!r}", f"--sim.num_rounds={rounds}"]
    if cap == "arrivals":
        # the last schedule's run, of rounds rounds, has the most arrivals
        horizon = draw(st.sampled_from([1, 10, 1000])) * ts[-1]
        rate = factor * mcsim.MAX_ARRIVALS / (horizon + t0)
        return ["fl", f"--fl.horizon_s={horizon!r}", f"--system.arrival_rate_per_s={rate!r}",
                *_schedules_arg(h, ts)]
    if cap == "rows":
        # rows are the sum of floor(horizon / t) + 1 over the schedules
        horizon = (factor * MAX_ROWS / n - 1) * t
        return ["fl", f"--fl.horizon_s={horizon!r}", *_schedules_arg(h, ts)]
    if cap in ("attempts", "validate"):
        rounds = draw(st.sampled_from([1, 10, 1000, 100_000]))
    if cap == "validate":
        rate = factor * mcsim.MAX_ATTEMPTS / (rounds * (t + t0))
        return ["validate", f"--system.arrival_rate_per_s={rate!r}", f"--sim.h={h}",
                f"--sim.t_s={t!r}", f"--sim.num_rounds={rounds}"]
    if cap == "attempts":
        horizon = rounds * ts[-1]
        rate = factor * mcsim.MAX_ATTEMPTS / sum(
            math.floor(horizon / ti) * (ti + t0) for ti in ts)
        return ["fl", f"--fl.horizon_s={horizon!r}", f"--system.arrival_rate_per_s={rate!r}",
                *_schedules_arg(h, ts)]
    task = []
    if cap == "evaluations":
        size = draw(st.sampled_from([10**5, 10**6, 16 * 10**6]))
        task = [*EVALUATION_TASK, f"--fl.validation_size={size}"]
    fl_cfg = cli.parse_config(BASELINE, [arg[2:] for arg in task]).fl
    lam = analytic.lambda_param(BASE.system, h, np.array(ts))
    p_pos = analytic.surface(BASE.system, h, np.array(ts))[2]
    # expected work: rounds x (lam winners and p_pos valid rounds) per run
    per_round = sum(fl_work(h, fl_cfg, lam, p_pos) - fl_work(h, fl_cfg, 0, 0))
    rounds = max(1, (factor * flsim.MAX_SGD_WORK - n * fl_work(h, fl_cfg, 0, 0)) / per_round)
    return ["fl", f"--fl.horizon_s={rounds * ts[-1]!r}", *task, *_schedules_arg(h, ts)]


INVOCATION = st.one_of(
    st.sampled_from(sorted(COMMAND_ARGS)).flatmap(
        lambda command: st.tuples(st.just(command), COMMAND_ARGS[command],
                                  st.lists(OVERRIDE, max_size=6))),
    aimed_at_a_cap().map(lambda args: (args[0], args[1:], [])))


# 30 examples by default; the deep profile of tests/conftest.py runs 500
@settings(derandomize=True, deadline=None)
@given(INVOCATION)
def test_any_input_ends_in_exit_code(invocation):
    """Wide config values, and inputs near each cap, end in a documented
    exit code within 20 s and 1 GiB of address space, forked workers
    included; a failure prints one line and leaves no output behind."""
    command, args, overrides = invocation
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        proc = run_cli([command, "--config", str(BASELINE), "--out", str(out),
                        *args, *overrides], timeout=20, address_space=2**30)
        assert proc.returncode in (0, 1, 2), proc.stderr
        assert "Traceback" not in proc.stderr
        event(f"{command} exit {proc.returncode}")
        if proc.returncode == 0:
            assert all(line.startswith("warning: run h=")
                       for line in proc.stderr.splitlines())
            assert not list(out.glob("*.tmp"))
        else:
            assert len(proc.stderr.strip().splitlines()) == 1
            assert not out.exists()


@pytest.mark.parametrize("args", [
    ["optimize", "--bogus"],
    ["optimize", "--seed=x"],
    ["frobnicate"],
    ["fl", "--schedules"],
    ["validate", "--sim.warmup_rounds=1"],
], ids=["unknown_token", "bad_seed", "unknown_command", "missing_value", "removed_key"])
def test_usage_error_is_one_line_config_error(tmp_path, args):
    out = tmp_path / "out"
    proc = run_cli([args[0], "--config", str(BASELINE), "--out", str(out), *args[1:]])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error: ")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["optimize", "-h"])
    assert exit_.value.code == 0
    assert "--seed" in capsys.readouterr().out


def test_runtime_imports_no_scipy(tmp_path):
    """Each subcommand, run cold through cli.entry, loads only what it runs.
    None imports scipy, a test-only oracle, or multiprocessing and
    concurrent, since fl forks its workers itself; fl runs in two processes
    here, whatever the CPUs. None loads OpenSSL's _hashlib, and each runs
    BLAS on one thread, whatever thread count the caller's environment asks
    for. optimize and sweep load neither mcsim nor flsim, and draw no
    random number, so they load no numpy.random either; validate loads
    neither flsim nor optimizer. Each loads numpy, so the modules it does
    not load are not missing for want of a run. cli.main run in-process
    leaves _hashlib importable and OPENBLAS_NUM_THREADS as it was."""
    code = ("import json, os, sys, roadfl.cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "assert roadfl.cli._processes(2) == 2\n"
            "try:\n"
            "    roadfl.cli.entry()\n"
            "except SystemExit as exit_:\n"
            "    assert exit_.code == 0, exit_.code\n"
            "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
            "print(json.dumps(sorted(k for k, v in sys.modules.items() if v is not None)))")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "4",
           "GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "4"}
    base = ["--config", str(BASELINE), "--out", str(tmp_path)]
    # command, its arguments, modules it loads and modules it does not
    without_draws = {"numpy.random", "roadfl.mcsim", "roadfl.flsim"}
    for command, args, loaded, not_loaded in [
            ("optimize", [], {"numpy", "roadfl.optimizer"}, without_draws),
            ("validate", ["--sim.num_rounds=100"],
             {"numpy", "roadfl.mcsim", "numpy.random"}, {"roadfl.flsim", "roadfl.optimizer"}),
            ("sweep", [], {"numpy", "roadfl.analytic"}, {"roadfl.optimizer", *without_draws}),
            ("fl", SMALL_TASK, {"numpy", "roadfl.flsim", "roadfl.optimizer"}, set())]:
        proc = subprocess.run([sys.executable, "-c", code, command, *base, *args],
                              capture_output=True, text=True, env=env, cwd=REPO)
        assert proc.returncode == 0, proc.stderr
        modules = set(json.loads(proc.stdout.splitlines()[-1]))
        assert loaded <= modules, command
        assert not {m.split(".")[0] for m in modules} \
            & {"scipy", "multiprocessing", "concurrent"}, command
        assert not modules & {"_hashlib", *not_loaded}, command

    in_process = ("import os, sys, roadfl.cli\n"
                  "assert roadfl.cli.main(sys.argv[1:]) == 0\n"
                  "assert 'numpy.random' in sys.modules\n"
                  "assert os.environ['OPENBLAS_NUM_THREADS'] == '4'\n"
                  "import _hashlib")
    proc = subprocess.run([sys.executable, "-c", in_process, "validate", *base,
                           "--sim.num_rounds=100"],
                          capture_output=True, text=True, env=env, cwd=REPO)
    assert proc.returncode == 0, proc.stderr


def test_front_end_loads_no_numpy(tmp_path):
    """Importing cli, --help, and the usage and config errors that each
    command finds before it computes, run cold through cli.entry, end
    with their usual exit code and one stderr line, and never import
    numpy: each command checks its own arguments before it loads a model
    module."""
    code = ("import json, sys, roadfl.cli\n"
            "code = None\n"
            "if sys.argv[1:]:\n"
            "    try:\n"
            "        roadfl.cli.entry()\n"
            "    except SystemExit as exit_:\n"
            "        code = exit_.code\n"
            "print(json.dumps([code, sorted(sys.modules)]))")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    base = ["--config", str(BASELINE), "--out", str(tmp_path)]
    # arguments, exit status (None: no command runs), start of the stderr line
    for args, status, err in [
            ([], None, None),
            (["optimize", "-h"], 0, None),
            (["optimize", "--bogus"], 1, "config error: unrecognized argument"),
            (["validate", *base, "--sim.warmup_rounds=1"], 1,
             "config error: unknown config key"),
            (["sweep", *base, "--t-grid", "1:0:1"], 1, "config error: t grid is empty"),
            (["sweep", *base, "--h-list", "1,2", "--t-grid", f"1:{MAX_ROWS}:1"], 1,
             f"config error: sweep has {2 * MAX_ROWS} (h, t) points"),
            (["fl", *base, "--schedules", "8:x"], 1, "config error: bad schedule")]:
        proc = subprocess.run([sys.executable, "-c", code, *args],
                              capture_output=True, text=True, env=env, cwd=REPO)
        assert proc.returncode == 0, proc.stderr
        exit_code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert exit_code == status, args
        assert not {m for m in modules if m.split(".")[0] == "numpy"}, args
        if err is None:
            assert proc.stderr == "", args
        else:
            assert proc.stderr.startswith(err), (args, proc.stderr)
            assert len(proc.stderr.splitlines()) == 1, args
    assert not any(tmp_path.iterdir())


def test_benchmark_tracer_still_installs(tmp_path, monkeypatch):
    """perfbench's --trace 1 wraps the public functions of five modules and
    patches flsim's sample_computing_delay binding; a name it needs that
    goes missing fails here before it fails a benchmark run. Each command
    records every span that the tracer's layer_metrics reads of it. fl
    trains in two processes, as in the benchmark's runs, and the parent's
    share must show in its spans."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert cli._processes(8) == 2
    path = REPO / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    tracer.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    from roadfl import analytic, flsim, mcsim, optimizer
    rec = tracer.Recorder()
    commands = {
        "optimize": [],
        "validate": ["--sim.num_rounds=2000"],
        "sweep": ["--h-list", "8,24", "--t-grid", "7:12:1"],
        "fl": ["--fl.horizon_s=60", "--fl.feature_dim=8", "--fl.global_pool_size=256",
               "--fl.validation_size=64", "--fl.samples_per_vehicle=128",
               "--fl.batch_size=32",
               "--schedules", "8:4,8:5.5,8:8,16:6,16:8.5,24:8,24:11.8,24:18"]}
    undo = tracer.install(rec, {"cli": cli, "analytic": analytic, "optimizer": optimizer,
                                "mcsim": mcsim, "flsim": flsim})
    try:
        for run_id, (command, args) in enumerate(commands.items()):
            rec.run_id = run_id
            assert cli.main([command, "--config", str(BASELINE), "--out", str(tmp_path),
                             *args]) == 0
    finally:
        for module, attr, original in undo:
            setattr(module, attr, original)
    recorded = {(list(commands)[run], rec.names[i]) for i, run in zip(rec.name, rec.run)}
    layers = {(command, name.split(".")[0]) for command, name in recorded}
    assert {("optimize", "analytic"), ("sweep", "analytic")} <= layers
    assert {("sweep", "cli.cmd_sweep"), ("optimize", "optimizer.optimize_schedule"),
            *(("validate", f"mcsim.{name}") for name in
              ("simulate_rounds", "sample_computing_delay", "compare_to_poisson")),
            *(("fl", f"flsim.{name}") for name in
              ("run_fl", "local_sgd", "aggregate", "mse_loss", "generate_task",
               "proxy_correlation"))} <= recorded
