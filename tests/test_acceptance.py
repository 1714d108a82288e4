"""End-to-end acceptance suite.

Each test enforces one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with -s to see them on success).
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_feasible_params
from oracle import brute_force_argmax, subinterval_success_counts
from roadfl import analytic as an
from roadfl import optimizer as opt
from roadfl.flsim import FLConfig, aggregate, mse_gradient, mse_loss, plan_run, \
    proxy_correlation, run_fl
from roadfl.mcsim import SimConfig, compare_to_poisson, simulate_rounds
from roadfl.rng import substream
from roadfl.types import Schedule, SystemParams

REPO = Path(__file__).resolve().parents[1]
BASELINE = REPO / "baseline.cfg"

REFERENCE = SystemParams(length=400, speed=20, arrival_rate=0.1,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_headline_schedule():
    """Best schedule is (24, ~11.8 s) and agrees with the grid oracle."""
    cfg, grid_step = opt.OptimizerConfig(gamma=1e-3), 0.01
    started = time.perf_counter()
    fast = opt.optimize_schedule(REFERENCE, cfg)
    slow = brute_force_argmax(REFERENCE, grid_step)
    elapsed = time.perf_counter() - started
    ok = (fast.h_star == 24
          and abs(fast.t_star - 11.8) <= 0.1
          and fast.h_star == slow.h_star
          and abs(fast.t_star - slow.t_star) <= cfg.gamma + grid_step
          and elapsed <= 10.0)
    report("C01 headline schedule", ok,
           f"h*={fast.h_star} t*={fast.t_star:.4f}s "
           f"oracle=({slow.h_star},{slow.t_star:.4f}) {elapsed:.2f}s")


@pytest.mark.parametrize("h,t,seed", [(24, 11.8, 777), (24, 25.0, 778),
                                      (8, 10.0, 779), (40, 15.0, 780)])
def test_c02_poisson_law_fidelity(h, t, seed):
    """100k-round histogram within TV < 0.01 and mean within 2%."""
    sched = Schedule(h, t)
    lam = an.lambda_param(REFERENCE, sched.h, sched.t)
    started = time.perf_counter()
    histogram = simulate_rounds(REFERENCE, sched,
                              SimConfig(seed=seed, num_rounds=100_000,
                                        warmup_rounds=1))
    fit = compare_to_poisson(histogram, lam)
    elapsed = time.perf_counter() - started
    ok = (fit.tv_distance < 0.01 and fit.mean_rel_error < 0.02
          and elapsed <= 60.0)
    report(f"C02 poisson fidelity ({h},{t})", ok,
           f"lam={lam:.4f} mean={fit.mean_empirical:.4f} "
           f"rel={fit.mean_rel_error:.4f} tv={fit.tv_distance:.4f} "
           f"{elapsed:.1f}s")


def test_c03_subinterval_consistency():
    """Mean identity to 1e-12 over 1000 draws; empirical rates in 3 sigma."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(1000):
        params, hm = random_feasible_params(rng)
        h = int(rng.integers(1, hm + 1))
        t = float(params.dwell_time + rng.uniform(0, 60))
        p1, p2, p3 = an.subinterval_probs(params, h, t)
        lam = an.lambda_param(params, h, t)
        ident = params.arrival_rate * (
            min(t, params.dwell_time) * (p1 + p3)
            + abs(t - params.dwell_time) * p2)
        worst = max(worst, abs(ident - lam) / lam)

    sched = Schedule(24, 25.0)
    expected = an.subinterval_probs(REFERENCE, sched.h, sched.t)
    n = 33_334  # three intervals, about 1e5 vehicles in total
    counts = subinterval_success_counts(REFERENCE, sched, n,
                                        substream(10, "subintervals"))
    z = [abs(counts[i] / n - expected[i])
         / math.sqrt(expected[i] * (1 - expected[i]) / n) for i in range(3)]
    ok = worst <= 1e-12 and max(z) < 3.0
    report("C03 sub-interval consistency", ok,
           f"identity worst rel={worst:.2e} max |z|={max(z):.2f}")


def test_c04_derivative_matches_finite_differences():
    """Analytic dg/dt vs central differences, 1000 points, rel 1e-6."""
    rng = np.random.default_rng(42)
    worst = 0.0
    checked = 0
    while checked < 1000:
        params, hm = random_feasible_params(rng)
        h = int(rng.integers(1, hm + 1))
        tmin = an.t_min(params, h)
        tmax = an.t_max(params, h)
        t = float(rng.uniform(tmin + 0.01, 3 * tmax))
        if abs(t - params.dwell_time) < 0.01:
            continue
        checked += 1
        step = 1e-6 * t
        fd = (an.g(params, h, t + step)
              - an.g(params, h, t - step)) / (2 * step)
        val = an.dg_dt(params, h, t)
        worst = max(worst, abs(val - fd) / max(abs(val), abs(fd)))
    ok = worst <= 1e-6
    report("C04 derivative vs finite differences", ok,
           f"worst rel err={worst:.2e} over {checked} points")


def test_c05_unimodality():
    """Sign of dg/dt flips + to - at most once on a 10k grid, never back."""
    rng = np.random.default_rng(1234)
    failures = 0
    for _ in range(100):
        params, hm = random_feasible_params(rng)
        h = int(rng.integers(1, hm + 1))
        tmin = an.t_min(params, h)
        tmax = an.t_max(params, h)
        ts = np.linspace(tmin, 3 * tmax, 10_001)[1:]
        signs = np.sign(an.dg_dt(params, h, ts))
        signs = signs[signs != 0]
        flips = np.diff(signs)
        if (flips == -2).sum() > 1 or (flips == 2).sum() > 0:
            failures += 1
    report("C05 unimodality", failures == 0,
           f"{failures} violations over 100 environments")


def test_c06_upper_bound_certificate():
    """dg/dt < 0 at 50 random points beyond t_max, 100 environments."""
    rng = np.random.default_rng(777)
    worst = -np.inf
    for _ in range(100):
        params, hm = random_feasible_params(rng)
        h = int(rng.integers(1, hm + 1))
        tmax = an.t_max(params, h)
        ts = tmax + 2 * tmax * rng.random(50)
        worst = max(worst, float(an.dg_dt(params, h, ts).max()))
    report("C06 negative slope beyond t_max", worst < 0,
           f"max dg/dt={worst:.2e}")


def test_c07_update_frequency_predicts_training():
    """Spearman(g, -l_min) >= 0.6 on the 12-point grid, stable over seeds."""
    ocfg = opt.OptimizerConfig(gamma=1e-3)
    hs = (8, 16, 24, 40)
    t_opt, _, _ = opt.optimize_round_lengths(REFERENCE, hs, ocfg)
    schedules = [Schedule(h, factor * t) for h, t in zip(hs, t_opt.tolist())
                 for factor in (0.6, 1.0, 1.6)]
    assert len(schedules) == 12

    started = time.perf_counter()
    rhos = []
    for seed in (1, 2):
        cfg = FLConfig(seed=seed, horizon=2000.0)
        results = [run_fl(plan_run(REFERENCE, s, cfg), cfg) for s in schedules]
        rep = proxy_correlation(results, REFERENCE)
        assert not rep.degenerate
        rhos.append(rep.rho)
    elapsed = time.perf_counter() - started
    ok = (min(rhos) >= 0.6 and abs(rhos[0] - rhos[1]) <= 0.15
          and elapsed <= 300.0)
    report("C07 proxy correlation", ok,
           f"rho={rhos[0]:.3f}/{rhos[1]:.3f} {elapsed:.0f}s")


def test_c08_fl_mechanics():
    """Aggregation exact, l_min monotone, valid-round rate in 3 sigma,
    gradient matches finite differences."""
    a = np.array([0.0])
    b = np.array([4.0])
    agg_ok = (aggregate([(a, 10), (b, 10)])[0] == 2.0
              and aggregate([(a, 1), (b, 3)])[0] == 3.0)
    w = np.array([0.5, -1.5, 2.0])
    agg_ok = agg_ok and np.array_equal(aggregate([(w, 7)]), w)

    sched = Schedule(24, 11.8)
    cfg = FLConfig(seed=5, horizon=2400.0)
    res = run_fl(plan_run(REFERENCE, sched, cfg), cfg)
    monotone = bool(np.all(np.diff(res.l_min_curve) <= 0))
    p_pos = an.success_probability(REFERENCE, sched.h, sched.t)
    n = res.rounds_total
    sigma = math.sqrt(p_pos * (1 - p_pos) / n)
    rate_ok = n >= 200 and abs(res.rounds_valid / n - p_pos) <= 3 * sigma

    rng = substream(6, "grad-check")
    x = np.hstack([rng.standard_normal((50, 7)), np.ones((50, 1))])
    y = x @ rng.standard_normal(8) + 0.2 * rng.standard_normal(50)
    wg = rng.standard_normal(8)
    grad = mse_gradient(wg, x, y)
    worst = 0.0
    for j in range(8):
        bump = np.zeros(8)
        bump[j] = 1e-6
        fd = (mse_loss(wg + bump, x, y) - mse_loss(wg - bump, x, y)) / 2e-6
        worst = max(worst, abs(grad[j] - fd) / max(1.0, abs(fd)))
    grad_ok = worst <= 1e-6

    ok = agg_ok and monotone and rate_ok and grad_ok
    report("C08 fl mechanics", ok,
           f"agg={agg_ok} monotone={monotone} "
           f"rate={res.rounds_valid}/{n} (target {p_pos:.3f}+-{3*sigma:.3f}) "
           f"grad err={worst:.1e}")


def test_c09_search_step_budget():
    """Bisection work within h_max * ceil(log2(width/gamma)) + 2*h_max."""
    cfg = opt.OptimizerConfig(gamma=1e-3)
    rng = np.random.default_rng(4321)
    cases = [REFERENCE] + [random_feasible_params(rng)[0] for _ in range(5)]
    details = []
    ok = True
    for params in cases:
        res = opt.optimize_schedule(params, cfg)
        hm = opt.h_max(params)
        width = max(an.t_max(params, h) - an.t_min(params, h)
                    for h in range(1, hm + 1))
        bound = hm * math.ceil(math.log2(width / cfg.gamma)) + 2 * hm
        ok = ok and res.search_steps <= bound
        details.append(f"{res.search_steps}<={bound}")
    report("C09 search step budget", ok, " ".join(details))


def test_c10_deterministic_output(tmp_path):
    """Every subcommand writes byte-identical files on a re-run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    commands = {
        "optimize": ["optimize"],
        "validate": ["validate", "--sim.num_rounds=2000"],
        "sweep": ["sweep", "--h-list", "8,24", "--t-grid", "5:25:0.5"],
        "fl": ["fl", "--fl.horizon_s=200",
               "--schedules", "8:4,8:5.5,8:8,16:6,16:8.5,24:8,24:11.8,24:18"],
    }
    produced = {
        "optimize": ("optimize.csv", "optimize_summary.csv"),
        "validate": ("poisson_fit.csv", "fit_report.csv"),
        "sweep": ("surface.csv",),
        "fl": ("fl_runs.csv", "correlation.txt"),
    }
    mismatches = []
    for name, args in commands.items():
        outs = (tmp_path / f"{name}_a", tmp_path / f"{name}_b")
        for out in outs:
            proc = subprocess.run(
                [sys.executable, "-m", "roadfl.cli", *args,
                 "--config", str(BASELINE), "--out", str(out)],
                capture_output=True, text=True, env=env, cwd=REPO)
            assert proc.returncode == 0, proc.stderr
        for fname in produced[name]:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    report("C10 deterministic output", not mismatches,
           "byte-identical" if not mismatches else "differs: " + ",".join(mismatches))
