import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_feasible_params
from oracle import brute_force_argmax, scan_round_lengths, slack
from roadfl import analytic as an
from roadfl import optimizer as opt
from roadfl.types import ConfigError, InfeasibleError, OptimizerConfig, SystemParams


def test_h_max_reference(reference_params):
    # floor((20 - 2) / 0.2) = 90, trimmed because t_min(90) == t0
    assert opt.h_max(reference_params) == 89


def test_h_max_trims_exact_boundary():
    p = SystemParams(length=400, speed=20, arrival_rate=0.1,
                     tau_down=1, tau_up=1, alpha=0.5, beta=0.2)
    assert opt.h_max(p) == 35  # floor(18 / 0.5) = 36 lands exactly on t0


def test_h_max_zero_when_links_eat_dwell():
    p = SystemParams(length=400, speed=20, arrival_rate=0.1,
                     tau_down=15, tau_up=5, alpha=0.2, beta=0.2)
    assert opt.h_max(p) == 0


def test_h_max_lane_cap():
    # budget 18 s over alpha = 18 / 2**20 s is exactly MAX_LANES lanes
    p = SystemParams(length=400, speed=20, arrival_rate=0.1,
                     tau_down=1, tau_up=1, alpha=18 / opt.MAX_LANES, beta=0.2)
    assert opt.h_max(p) == opt.MAX_LANES - 1  # t_min(MAX_LANES) == t0
    p = SystemParams(length=400, speed=20, arrival_rate=0.1,
                     tau_down=1, tau_up=1, alpha=9 / opt.MAX_LANES, beta=0.2)
    with pytest.raises(ConfigError, match="local iterations"):
        opt.h_max(p)


def test_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(gamma=0)


def scalar_bisection(params, h, cfg):
    """Reference: the per-h scalar bisection that the lane-wise search
    runs for every h at once. Same bracket, eps floor, midpoint and stop
    rule, one h and one probe at a time."""
    lo = an.t_min(params, h)
    hi = an.t_max(params, h)
    eps = max(cfg.gamma / 10.0, 1e-9)
    floor = lo + eps
    t = 0.5 * (lo + hi)
    steps = 0
    while hi - lo > cfg.gamma and lo < t < hi:
        steps += 1
        if an.dg_dt(params, h, max(t, floor)) > 0:
            lo = t
        else:
            hi = t
        t = 0.5 * (lo + hi)
    return t, an.g(params, h, t), steps + 1


class TestPerIterationSearch:
    def test_reference_h24_matches_reported_optimum(self, reference_params):
        cfg = OptimizerConfig(gamma=1e-3)
        (t,), (g_val,), _ = opt.optimize_round_lengths(reference_params, [24], cfg)
        assert abs(t - 11.8) <= 0.1
        assert g_val == pytest.approx(an.g(reference_params, 24, t))

    def test_matches_dense_scan(self, reference_params):
        cfg, grid_step = OptimizerConfig(gamma=1e-3), 1e-3
        (t,), _, _ = opt.optimize_round_lengths(reference_params, [24], cfg)
        ts, gs = scan_round_lengths(reference_params, 24, grid_step)
        t_grid = ts[int(np.argmax(gs))]
        assert abs(t - t_grid) <= cfg.gamma + grid_step

    def test_degenerate_threshold_returns_midpoint(self, reference_params):
        lo = an.t_min(reference_params, 24)
        hi = an.t_max(reference_params, 24)
        cfg = OptimizerConfig(gamma=2 * (hi - lo))
        (t,), _, (steps,) = opt.optimize_round_lengths(reference_params, [24], cfg)
        assert t == 0.5 * (lo + hi)
        assert steps == 1  # only the final objective evaluation

    @pytest.mark.parametrize("seed", [None, 88])
    def test_lanes_match_scalar_bisection_bitwise(self, reference_params, seed):
        # reference environment, then 10 random ones
        if seed is None:
            cases = [reference_params]
        else:
            rng = np.random.default_rng(seed)
            cases = [random_feasible_params(rng)[0] for _ in range(10)]
        cfg = OptimizerConfig(gamma=1e-3)
        for params in cases:
            res = opt.optimize_schedule(params, cfg)
            table, steps = [], 0
            for h in range(1, opt.h_max(params) + 1):
                t, g_val, used = scalar_bisection(params, h, cfg)
                table.append((h, float(t).hex(), float(g_val).hex()))
                steps += used
            assert [(h, t.hex(), g_val.hex()) for h, t, g_val in zip(*res.per_h_table)] == table
            assert res.search_steps == steps

    def test_lanes_are_independent(self, reference_params):
        # a lane's result does not depend on which other lanes run with it
        cfg = OptimizerConfig(gamma=1e-3)
        ts, gs, steps = opt.optimize_round_lengths(reference_params, [40, 8, 24, 8], cfg)
        for i, h in enumerate((40, 8, 24, 8)):
            (t,), (g_val,), (used,) = opt.optimize_round_lengths(reference_params, [h], cfg)
            assert (ts[i], gs[i], steps[i]) == (t, g_val, used)

    def test_empty_interval_raises(self, reference_params):
        # h = 90 has no interval: t_max's c0_c1 finds it does not fit the
        # dwell time before any lane is bracketed
        with pytest.raises(InfeasibleError, match="iteration count 90 cannot fit"):
            opt.optimize_round_lengths(reference_params, [24, 90], OptimizerConfig())


class TestJointSearch:
    def test_reference_environment(self, reference_params):
        res = opt.optimize_schedule(reference_params, OptimizerConfig())
        assert res.h_star == 24
        assert abs(res.t_star - 11.8) <= 0.1
        assert [column.size for column in res.per_h_table] == [89] * 3
        assert all(an.t_min(reference_params, h) < t <= an.t_max(reference_params, h)
                   for h, t, _ in zip(*res.per_h_table))

    def test_argmax_dominates_table(self, reference_params):
        res = opt.optimize_schedule(reference_params, OptimizerConfig())
        assert res.g_star == res.per_h_table[2].max()

    def test_no_arrivals_is_infeasible(self):
        p = SystemParams(length=400, speed=20, arrival_rate=0.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        with pytest.raises(InfeasibleError, match="no arrivals"):
            opt.optimize_schedule(p, OptimizerConfig())
        with pytest.raises(InfeasibleError):
            brute_force_argmax(p)

    def test_blocked_environment_is_infeasible(self):
        p = SystemParams(length=100, speed=20, arrival_rate=0.1,
                         tau_down=4, tau_up=4, alpha=0.2, beta=0.2)
        with pytest.raises(InfeasibleError, match="communication delays"):
            opt.optimize_schedule(p, OptimizerConfig())

    def test_deterministic(self, reference_params):
        cfg = OptimizerConfig()
        a, b = (opt.optimize_schedule(reference_params, cfg) for _ in range(2))
        # the table's arrays compare bitwise, the other fields by value
        assert replace(a, per_h_table=None) == replace(b, per_h_table=None)
        assert [column.tobytes() for column in a.per_h_table] \
            == [column.tobytes() for column in b.per_h_table]

    def test_tie_breaks_toward_smaller_h(self, reference_params, monkeypatch):
        # h = 3 and h = 5 tie on g; the smaller h wins
        def tied(params, hs, cfg):
            gs = np.full(hs.size, 0.5)
            gs[[2, 4]] = 1.5
            return hs + 10.0, gs, np.ones(hs.size, dtype=np.int64)

        monkeypatch.setattr(opt, "optimize_round_lengths", tied)
        res = opt.optimize_schedule(reference_params, OptimizerConfig())
        assert (res.h_star, res.t_star, res.g_star) == (3, 13.0, 1.5)
        assert tuple(column[2] for column in res.per_h_table) == (3, 13.0, 1.5)
        assert res.search_steps == opt.h_max(reference_params)


class TestBruteForceOracle:
    def test_agrees_with_bisection_on_reference(self, reference_params):
        cfg, grid_step = OptimizerConfig(gamma=1e-3), 0.01
        fast = opt.optimize_schedule(reference_params, cfg)
        slow = brute_force_argmax(reference_params, grid_step)
        assert fast.h_star == slow.h_star
        assert abs(fast.t_star - slow.t_star) <= cfg.gamma + grid_step

    def test_agrees_on_random_environments(self):
        rng = np.random.default_rng(88)
        cfg, grid_step = OptimizerConfig(gamma=1e-3), 0.01
        for _ in range(10):
            params, _ = random_feasible_params(rng)
            fast = opt.optimize_schedule(params, cfg)
            slow = brute_force_argmax(params, grid_step)
            assert fast.h_star == slow.h_star
            assert abs(fast.t_star - slow.t_star) <= cfg.gamma + grid_step

    def test_monotone_decreasing_g_returns_leftmost_point(self):
        # dense traffic pushes the optimum against the lower end, so the
        # scan maximum is its first grid point
        p = SystemParams(length=400, speed=20, arrival_rate=50.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        ts, gs = scan_round_lengths(p, 24, grid_step=0.05)
        assert np.all(np.diff(gs) < 0)
        assert int(np.argmax(gs)) == 0


def test_search_step_bound(reference_params):
    cfg = OptimizerConfig(gamma=1e-3)
    res = opt.optimize_schedule(reference_params, cfg)
    hm = opt.h_max(reference_params)
    width = max(an.t_max(reference_params, h) - an.t_min(reference_params, h)
                for h in range(1, hm + 1))
    bound = hm * math.ceil(math.log2(width / cfg.gamma)) + 2 * hm
    assert res.search_steps <= bound


@pytest.mark.parametrize("case", ["reference", "long_section", "random"])
def test_every_probe_has_positive_slack(reference_params, monkeypatch, case):
    """dg_dt trusts its caller to keep xi > 0: each of optimize_schedule's
    probes lies above its lane's lower bracket, which starts at t_min."""
    if case == "reference":
        cases = [reference_params]
    elif case == "long_section":
        cases = [SystemParams(length=2000, speed=5, arrival_rate=0.1, tau_down=1,
                              tau_up=1, alpha=0.05, beta=0.05)]
    else:
        rng = np.random.default_rng(29)
        cases = [random_feasible_params(rng)[0] for _ in range(5)]
    dg_dt, slacks = an.dg_dt, []

    def checked(params, h, t):
        slacks.append(np.min(slack(params, h, t)))
        return dg_dt(params, h, t)

    monkeypatch.setattr(an, "dg_dt", checked)
    for params in cases:
        opt.optimize_schedule(params, OptimizerConfig())
    assert len(slacks) >= len(cases) and min(slacks) > 0
