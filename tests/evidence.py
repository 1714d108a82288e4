"""The evidence snapshot: the figures behind acceptance tests C02, C07 and
C08 over seeds 1-12, kept in tests/evidence.json.

    python tests/evidence.py --update    rewrite tests/evidence.json from this tree
    python tests/evidence.py --check     exit 1, naming the first differing
                                         key, unless this tree rewrites
                                         tests/evidence.json byte for byte

It records, for each benchmark workload with its fl settings, Spearman's
rho of the default fl grid (cli.default_fl_grid, trained by cli.train as
the fl command trains it) over all schedules and over those with g > 0;
the TV distance and mean relative error of C02's four schedules at
100,000 rounds, each fitted by cli.validate as the validate command fits
it; and the valid-round rate of C08's run. Each figure has its per-seed
values, min, median, max and sample sd. A change that moves a random
stream reruns this and quotes the old and new figures; test_golden.py
checks that the seed-1 figures equal those of the golden cases that are
the same runs. It takes about 25 s on a shared 2-vCPU machine, where fl
trains in two processes of one BLAS thread each. Run it on Python 3.11 or
later, whose statistics.stdev is correctly rounded: 3.10's differs in the
last digit of one sd.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

# cli runs in this process, not through cli.entry: one BLAS thread unless asked
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO)]

import numpy as np  # noqa: E402

from perfbench.workloads import WORKLOADS  # noqa: E402
from roadfl import analytic, cli, flsim  # noqa: E402
from roadfl.types import FLConfig, Schedule  # noqa: E402

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
    """rho of the default fl grid at each seed, as the fl command trains it; a
    diverged run fails here, since every figure assumes the whole grid."""
    rhos: dict[str, list[float]] = {"all": [], "g_positive": []}
    for seed in SEEDS:
        cfg = cli.parse_config(BASELINE, [*overrides, f"fl.seed={seed}"])
        schedules = cli.default_fl_grid(cfg)
        l_min = [losses.min() for losses in cli.train(cfg, schedules)]
        positive = [i for i, s in enumerate(schedules)
                    if analytic.g(cfg.system, s.h, s.t) > 0]
        rhos["all"].append(flsim.proxy_correlation(schedules, l_min, cfg.system))
        rhos["g_positive"].append(flsim.proxy_correlation(
            [schedules[i] for i in positive], [l_min[i] for i in positive], cfg.system))
    return {"schedules": len(schedules), "g_positive_schedules": len(positive),
            **{key: summary(values) for key, values in rhos.items()}}


def c02() -> dict:
    """C02's fits at each seed, as the validate command of baseline.cfg
    fits them."""
    cases = {}
    for sched in C02_SCHEDULES:
        fits = [cli.validate(cli.parse_config(BASELINE, [
            f"sim.h={sched.h}", f"sim.t_s={sched.t!r}", f"sim.seed={seed}",
            f"sim.num_rounds={C02_ROUNDS}"])) for seed in SEEDS]
        cases[f"{sched.h}:{sched.t:.9g}"] = {
            "lambda": fits[0].lambda_analytic,
            "tv_distance": summary([fit.tv_distance for fit in fits]),
            "mean_rel_error": summary([abs(fit.mean_empirical - fit.lambda_analytic)
                                       / fit.lambda_analytic for fit in fits])}
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
            "p_pos": analytic.surface(params, C08_SCHEDULE.h, C08_SCHEDULE.t)[2],
            "valid_rate": summary(rates)}


def snapshot() -> str:
    """The text of tests/evidence.json as this tree computes it."""
    evidence = {
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "rho": {name: fl_rho([token[2:] for token in (*w.overrides, *w.args["fl"])])
                for name, w in WORKLOADS.items()},
        "c02": c02(),
        "c08": c08(cli.parse_config(BASELINE).system),
    }
    return json.dumps(evidence, indent=1) + "\n"


def first_difference(old, new, path: str = "") -> str | None:
    """The key path of the first value at which two JSON documents differ,
    in new's key order, or None if they differ in formatting only."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in dict.fromkeys([*new, *old]):
            where = f"{path}.{key}" if path else key
            if key not in old or key not in new:
                return where
            found = first_difference(old[key], new[key], where)
            if found is not None:
                return found
        return None
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found is not None:
                return found
        return None
    return None if json.dumps(old) == json.dumps(new) else path or "(the whole document)"


def main(mode: str) -> int:
    started = time.perf_counter()
    text = snapshot()
    name = EVIDENCE.relative_to(REPO)
    if mode == "--update":
        EVIDENCE.write_text(text)
        print(f"wrote {name} in {time.perf_counter() - started:.1f} s")
        return 0
    old = EVIDENCE.read_bytes()
    if old == text.encode():
        print(f"{name} matches this tree, checked in {time.perf_counter() - started:.1f} s")
        return 0
    where = first_difference(json.loads(old), json.loads(text)) or "(formatting only)"
    print(f"{name} differs from this tree's snapshot, first at {where}; "
          "rerun with --update", file=sys.stderr)
    return 1


if __name__ == "__main__":
    if sys.argv[1:] not in (["--update"], ["--check"]):
        sys.exit("usage: python tests/evidence.py --update | --check")
    sys.exit(main(sys.argv[1]))
