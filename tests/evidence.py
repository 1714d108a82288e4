"""The evidence snapshot: the figures behind acceptance tests C02, C07 and
C08 over seeds 1-12, kept in tests/evidence.json.

    python tests/evidence.py --update    rewrite tests/evidence.json from this tree

It records, for each benchmark workload with its fl settings, Spearman's
rho of the default fl grid over all schedules and over those with
g > 0; the TV distance and mean relative error of C02's four schedules
at 100,000 rounds; and the valid-round rate of C08's run. Each figure
has its per-seed values, min, median, max and sample sd. A change that
moves a random stream reruns this and quotes the old and new figures;
test_golden.py checks that the seed-1 figures equal those of the golden
cases that are the same runs. It takes about 25 s on a shared 2-vCPU
machine, where fl trains in two processes of one BLAS thread each.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

# one BLAS thread per process, so fl trains in as many processes as CPUs
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO)]

import numpy as np  # noqa: E402

from perfbench.workloads import WORKLOADS  # noqa: E402
from roadfl import analytic, cli, flsim  # noqa: E402
from roadfl.mcsim import compare_to_poisson, simulate_rounds  # noqa: E402
from roadfl.types import FLConfig, Schedule, SimConfig  # noqa: E402

EVIDENCE = REPO / "tests" / "evidence.json"
BASELINE = REPO / "baseline.cfg"
SEEDS = range(1, 13)
# C02's schedules and round count, and C08's schedule and horizon
C02_SCHEDULES = (Schedule(24, 11.8), Schedule(24, 25.0), Schedule(8, 10.0),
                 Schedule(40, 15.0))
C02_ROUNDS = 100_000
C08_SCHEDULE = Schedule(24, 11.8)
C08_HORIZON = 2400.0


def summary(values: list[float]) -> dict:
    return {"min": min(values), "median": statistics.median(values),
            "max": max(values), "sd": statistics.stdev(values), "by_seed": values}


def fl_rho(overrides: list[str]) -> dict:
    """rho of the default fl grid at each seed, as cmd_fl trains it; a
    diverged run fails here, since every figure assumes the whole grid."""
    rhos: dict[str, list[float]] = {"all": [], "g_positive": []}
    for seed in SEEDS:
        cfg = cli.parse_config(BASELINE, [*overrides, f"fl.seed={seed}"])
        schedules = cli._default_fl_grid(cfg)
        outcomes = cli._train(cfg, flsim.plan_runs(cfg.system, schedules, cfg.fl))
        l_min = [losses.min() for losses in outcomes]
        positive = [i for i, s in enumerate(schedules)
                    if analytic.g(cfg.system, s.h, s.t) > 0]
        rhos["all"].append(flsim.proxy_correlation(schedules, l_min, cfg.system))
        rhos["g_positive"].append(flsim.proxy_correlation(
            [schedules[i] for i in positive], [l_min[i] for i in positive], cfg.system))
    return {"schedules": len(schedules), "g_positive_schedules": len(positive),
            **{key: summary(values) for key, values in rhos.items()}}


def c02(params) -> dict:
    cases = {}
    for sched in C02_SCHEDULES:
        lam = analytic.lambda_param(params, sched.h, sched.t)
        fits = [compare_to_poisson(simulate_rounds(params, sched,
                                                   SimConfig(seed=seed, num_rounds=C02_ROUNDS)),
                                   lam) for seed in SEEDS]
        cases[f"{sched.h}:{sched.t:.9g}"] = {
            "lambda": lam,
            "tv_distance": summary([fit.tv_distance for fit in fits]),
            "mean_rel_error": summary([fit.mean_rel_error for fit in fits])}
    return {"rounds": C02_ROUNDS, "cases": cases}


def c08(params) -> dict:
    """The share of C08's rounds with a winner; the plan's winners are the
    rounds run_fl trains, so nothing is trained."""
    rates = []
    for seed in SEEDS:
        plan = flsim.plan_runs(params, [C08_SCHEDULE],
                               FLConfig(seed=seed, horizon=C08_HORIZON))[0]
        rates.append(np.unique(plan.winner_round).size / plan.rounds_total)
    return {"schedule": f"{C08_SCHEDULE.h}:{C08_SCHEDULE.t:.9g}", "horizon_s": C08_HORIZON,
            "rounds": plan.rounds_total,
            "p_pos": analytic.success_probability(params, C08_SCHEDULE.h, C08_SCHEDULE.t),
            "valid_rate": summary(rates)}


def update() -> None:
    started = time.perf_counter()
    reference = cli.parse_config(BASELINE).system
    evidence = {
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "rho": {name: fl_rho([token[2:] for token in (*w.overrides, *w.args["fl"])])
                for name, w in WORKLOADS.items()},
        "c02": c02(reference),
        "c08": c08(reference),
    }
    EVIDENCE.write_text(json.dumps(evidence, indent=1) + "\n")
    print(f"wrote {EVIDENCE.relative_to(REPO)} in {time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/evidence.py --update")
    update()
