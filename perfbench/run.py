#!/usr/bin/env python3
"""Benchmark of the roadfl command line, end to end and layer by layer.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 60 --trace 0

Run from the root of a roadfl source tree (src/roadfl and baseline.cfg);
anywhere else it exits with status 2 before measuring anything.

--trace 0 runs each CLI subcommand as a cold child process, one at a
time, and reports the end-to-end metrics over the rounds run within
--seconds: the median time of each subcommand and of a fresh
interpreter importing roadfl.cli (setup_s), and the largest peak
resident set of each subcommand. A fixed probe (probe.py) runs before
the first child and after each one, and every time is given at the
machine speed at which the probe takes REFERENCE_PROBE_S.
--trace 1 runs tracer.py in a child process once per round and reports
the per-layer metrics and the tracing overhead, and writes every span
to one trace file. Both modes check every output file with checker.py
and finish with a checker self-test on corrupted copies.

A round is one of each operation, so every run attempts whole rounds.
The next round starts only if it is expected to end within --seconds.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full report, with the
environment and every sample, goes to .perfbench_work/reports/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import COMMANDS, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
CONFIG = ROOT / "baseline.cfg"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
# Children run BLAS single-threaded unless the caller's environment asks for
# more (capped at NPROC). With two OpenBLAS threads on a 2-vCPU machine, fl
# used twice the user time for no less wall time, and its time followed the
# speed of the second vCPU, which no single-threaded probe sees.
BLAS_THREADS = 1
# A run must end within 180 s; no child is allowed to run past this.
DEADLINE_S = 165.0
# End-to-end times are given at the machine speed at which probe.py takes
# this long: each child's wall time is multiplied by REFERENCE_PROBE_S over
# the mean wall time of the probes run just before and just after it. On a
# shared machine the speed swings by a third within seconds and minutes,
# and a child's time follows that of the probes next to it (README.md).
# The value is about the probe's median on the 2-vCPU machine of the
# reference figures, so scaled times read close to wall times there.
REFERENCE_PROBE_S = 0.3

END_TO_END = {
    "setup_s": "s",
    "optimize_s": "s", "validate_s": "s", "sweep_s": "s", "fl_s": "s",
    "optimize_rss_mb": "MiB", "validate_rss_mb": "MiB",
    "sweep_rss_mb": "MiB", "fl_rss_mb": "MiB",
}
PER_LAYER = {
    "cli.import_s": "s", "cli.import_rss_mb": "MiB",
    "cli.sweep_self_s": "s", "cli.sweep_rows": "count",
    "analytic.optimize_calls": "count", "analytic.optimize_s": "s",
    "analytic.sweep_points": "count", "analytic.sweep_s": "s",
    "optimizer.search_steps": "count", "optimizer.optimize_schedule_s": "s",
    "optimizer.self_s": "s",
    "mcsim.simulate_rounds_s": "s", "mcsim.attempts": "count",
    "mcsim.attempts_per_s": "1/s", "mcsim.peak_alloc_mb": "MiB",
    "mcsim.compare_to_poisson_s": "s",
    "flsim.run_fl_s": "s", "flsim.run_fl_self_s": "s", "flsim.delay_draws": "count",
    "flsim.local_sgd_s": "s", "flsim.local_sgd_calls": "count",
    "flsim.sgd_steps": "count",
    "flsim.aggregate_s": "s", "flsim.aggregate_calls": "count",
    "flsim.mse_loss_s": "s", "flsim.mse_loss_calls": "count",
    "flsim.generate_task_s": "s", "flsim.proxy_correlation_s": "s",
    "trace.overhead_s": "s",
}


def summary(name: str, values: list):
    """Median over the run's rounds; for a peak resident set, the largest
    peak. The fl child's peak flips between two levels about 4 MiB apart
    whatever the seed, and a median of a few rounds would flip with it.
    Counts repeat in every round, so a count is one of them."""
    if not values:
        return None
    if name in END_TO_END and name.endswith("_rss_mb"):
        return max(values)
    if PER_LAYER.get(name) == "count":
        return statistics.median_low(values)
    return statistics.median(values)


# Small untimed commands that load every code path before a traced round.
WARMUP = (
    ("optimize",),
    ("validate", "--sim.num_rounds=1000"),
    ("sweep", "--h-list", "8", "--t-grid", "5:6:0.5"),
    ("fl", "--fl.horizon_s=30", "--schedules", "24:11.8"),
)


class Tally:
    """Operations attempted and failed, and whether outputs were right."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.log: list[str] = []

    def op(self, name: str, ok: bool, detail: str = "", output_check: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and not output_check
            self.log.append(f"FAILED {name}: {detail}")

    def checks(self, results) -> None:
        for name, ok, detail in results:
            self.op(name, bool(ok), detail, output_check=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env[var]), NPROC)))
        except (KeyError, ValueError):
            env[var] = str(BLAS_THREADS)
    return env


ENV = child_env()


class Spawner:
    """The small process that starts every measured child (spawner.py).

    It is started before run.py imports numpy, so its own peak resident
    set stays far below that of any child it measures.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     cwd=ROOT, env=ENV, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log: Path, timeout: float) -> tuple[float, float, int]:
        """Run one child to its end; return (wall s, peak RSS MiB, exit code)."""
        request = {"argv": argv, "cwd": str(ROOT), "log": str(log), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended early")
        reply = json.loads(line)
        return reply["wall_s"], reply["rss_mib"], reply["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def output_checks(workload, command: str):
    """A callable that checks one command's output directory. A file the
    checker cannot read fails one check instead of ending the run."""
    check = _output_check(workload, command)

    def guarded(out: Path) -> list:
        try:
            return check(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [(f"{command}.readable", False, f"{type(exc).__name__}: {exc}")]
    return guarded


def _output_check(workload, command: str):
    import checker

    values = workload.settings(CONFIG, command)
    model = checker.Model.from_system({k: float(v) for k, v in values["system"].items()})
    if command == "optimize":
        gamma = float(values.get("optimizer", {}).get("gamma_s", 1e-3))
        return lambda out: checker.check_optimize(
            out, model, gamma, workload.headline,
            list(workload.grid_hs) if workload.grid_hs else None, workload.grid_step)
    if command == "validate":
        sim = values["sim"]
        return lambda out: checker.check_validate(
            out, model, int(sim["h"]), float(sim["t_s"]), int(sim["num_rounds"]))
    if command == "sweep":
        args = workload.args["sweep"]
        h_list = args[args.index("--h-list") + 1]
        t_grid = args[args.index("--t-grid") + 1]
        return lambda out: checker.check_sweep(out, model, h_list, t_grid)
    horizon = float(values["fl"]["horizon_s"])
    return lambda out: checker.check_fl(out, model, horizon, workload.rho_gate)


def cold_round(spawner: Spawner, workload, seed: int, work: Path, tally: Tally,
               checks, samples, walls, deadline) -> dict:
    """The setup import and each subcommand as cold processes, with a probe
    before the first child and after each one; returns the output directory
    of each subcommand. Outputs are checked after the last probe, so that
    nothing runs between a child and the probes around it."""
    def probe():
        wall, _, code = spawner.run([sys.executable, str(HERE / "probe.py")],
                                    work / "probe.log", deadline - time.perf_counter())
        tally.op("probe", code == 0, f"exit {code}, see {work / 'probe.log'}")
        if code != 0:
            return None
        walls["probe_s"].append(wall)
        return wall

    children = [("setup", [sys.executable, "-c", "import roadfl.cli"], None)]
    for command in COMMANDS:
        out = fresh_dir(work / command)
        children.append((command, [sys.executable, "-m", "roadfl.cli",
                                   *workload.argv(command, CONFIG, out, seed)], out))
    outs = {}
    before = probe()
    for name, argv, out in children:
        log = work / f"{name}.log"
        wall, rss, code = spawner.run(argv, log, deadline - time.perf_counter())
        after = probe()
        tally.op(name, code == 0, f"exit {code}, see {log}")
        if code == 0:
            walls[f"{name}_s"].append(wall)
            if before and after:
                samples[f"{name}_s"].append(wall * REFERENCE_PROBE_S / (0.5 * (before + after)))
            if out is not None:
                samples[f"{name}_rss_mb"].append(rss)
                outs[name] = out
        before = after
    for command, out in outs.items():
        tally.checks(checks[command](out))
    return outs


def traced_round(spawner: Spawner, workload, seed: int, work: Path, index: int,
                 tally: Tally, checks, samples, deadline) -> dict:
    """One tracer.py process: an untraced and a traced in-process pass."""
    base = fresh_dir(work / f"round{index}")
    warm = base / "warmup"
    spec = {
        "warmup": [[c, "--config", str(CONFIG), "--out", str(warm), *a] for c, *a in WARMUP],
        "untraced": [[c, workload.argv(c, CONFIG, base / "untraced" / c, seed)]
                     for c in COMMANDS],
        "traced": [[c, workload.argv(c, CONFIG, base / "traced" / c, seed)]
                   for c in COMMANDS],
        # alternate which pass goes first, so warm-up effects cancel
        "order": [False, True] if index % 2 == 0 else [True, False],
        "spans": str(base / "spans.csv"),
        "metrics": str(base / "metrics.json"),
    }
    (base / "spec.json").write_text(json.dumps(spec))
    _, _, code = spawner.run([sys.executable, str(HERE / "tracer.py"), str(base / "spec.json")],
                             base / "tracer.log", deadline - time.perf_counter())
    tally.op("tracer", code == 0, f"exit {code}, see {base / 'tracer.log'}")
    if code != 0:
        return {}
    report = json.loads((base / "metrics.json").read_text())
    tally.attempted += 2 * len(COMMANDS) - len(report["failures"])
    for failure in report["failures"]:
        tally.op("traced command", False, failure)
    if report["failures"]:
        return {}
    outs = {}
    for command in COMMANDS:
        out = base / "traced" / command
        plain = base / "untraced" / command
        tally.checks(checks[command](out))
        same = out.is_dir() and plain.is_dir() and all(
            (out / f.name).read_bytes() == f.read_bytes() for f in plain.iterdir())
        tally.op(f"{command}.trace_keeps_bytes", same,
                 "traced and untraced outputs differ", output_check=True)
        outs[command] = out
    metrics = report["metrics"]
    metrics["cli.sweep_rows"] = sum(1 for _ in open(outs["sweep"] / "surface.csv")) - 1
    with open(outs["optimize"] / "optimize_summary.csv") as fh:
        metrics["optimizer.search_steps"] = int(fh.read().splitlines()[1].split(",")[3])
    for name, value in metrics.items():
        samples[name].append(value)
    return outs


def merge_spans(work: Path, rounds: int, target: Path) -> int:
    count = 0
    with open(target, "w") as dst:
        dst.write("round,run,span,parent,name,start_ns,end_ns,items\n")
        for index in range(rounds):
            path = work / f"round{index}" / "spans.csv"
            if not path.exists():
                continue
            with open(path) as src:
                next(src)
                for line in src:
                    dst.write(f"{index},{line}")
                    count += 1
            path.unlink()
    return count


def environment(seed: int) -> dict:
    import importlib.metadata as md

    import numpy

    def version(package: str):
        try:
            return md.version(package)
        except md.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "roadfl").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "threads": {var: ENV[var] for var in THREAD_VARS},
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def measure(spawner: Spawner, workload, seed: int, seconds: float, trace: int) -> dict:
    """Whole rounds until the next one would end after `seconds`, then the
    checker self-test; returns the report."""
    import checker

    began = time.perf_counter()
    deadline = began + DEADLINE_S
    work = fresh_dir(WORK / f"{workload.name}-trace{trace}")
    tally = Tally()
    checks = {c: output_checks(workload, c) for c in COMMANDS}
    names = PER_LAYER if trace else END_TO_END
    samples = {name: [] for name in names}
    walls = {name: [] for name in ("probe_s", "setup_s", *(f"{c}_s" for c in COMMANDS))}

    # Warm the file cache so the first timed import is not a disk read.
    for name, argv in (("setup", [sys.executable, "-c", "import roadfl.cli"]),
                       ("probe", [sys.executable, str(HERE / "probe.py")])):
        _, _, code = spawner.run(argv, work / "warmup.log", 60.0)
        tally.op(name, code == 0, f"exit {code}, see {work / 'warmup.log'}")

    rounds, outs = 0, {}
    measure_from = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if trace:
            outs = traced_round(spawner, workload, seed, work, rounds, tally, checks,
                                samples, deadline)
        else:
            outs = cold_round(spawner, workload, seed, work, tally, checks, samples, walls,
                              deadline)
        rounds += 1
        now = time.perf_counter()
        last = now - round_start
        if not outs or tally.failed or now - measure_from + last > seconds \
                or now + last > deadline:
            break

    spans = None
    if trace:
        counts = [n for n, unit in PER_LAYER.items() if unit == "count"]
        repeat = all(len(set(samples[n])) <= 1 for n in counts)
        tally.op("trace.counts_repeat", repeat, "a work count changed between rounds",
                 output_check=True)
        spans = merge_spans(work, rounds, work / "trace.csv")
    if len(outs) == len(COMMANDS):
        tally.checks(checker.self_test(outs, work / "selftest", checks))
    else:
        tally.op("selftest", False, "no complete round to corrupt")

    metrics = {name: {"value": summary(name, samples[name]), "unit": unit}
               for name, unit in names.items()}
    return {
        "workload": workload.name, "why": workload.why, "trace": trace,
        "seconds": seconds, "rounds": rounds, "elapsed_s": time.perf_counter() - began,
        "environment": environment(seed), "samples": samples, "log": tally.log,
        "reference_probe_s": REFERENCE_PROBE_S, "walls": walls if not trace else None,
        "wall_medians": None if trace else
        {name: statistics.median(v) for name, v in walls.items() if v},
        "spans": spans, "trace_file": str(work / "trace.csv") if trace else None,
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "roadfl" / "cli.py").is_file() or not CONFIG.is_file():
        print(f"error: {ROOT} holds no roadfl source tree (src/roadfl/cli.py "
              "and baseline.cfg); run from the repository root", file=sys.stderr)
        return 2

    spawner = Spawner()
    try:
        report = measure(spawner, WORKLOADS[args.workload], args.seed, args.seconds,
                         args.trace)
    finally:
        spawner.close()

    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report_path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    metrics = report["metrics"]
    print(f"workload {args.workload}: {report['why']}")
    print("environment: " + json.dumps(report["environment"]))
    for line in report["log"]:
        print(line)
    width = max(map(len, metrics))
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.10g}" if entry["unit"] == "count" \
            else f"{value:.6g}"
        print(f"{name:<{width}}  {shown} {entry['unit']}  "
              f"({len(report['samples'][name])} rounds)")
    if report["spans"] is not None:
        print(f"trace: {report['spans']} spans in {report['trace_file']}")
    if report["wall_medians"]:
        print("unscaled wall-time medians: " + ", ".join(
            f"{name} {value:.4g} s" for name, value in report["wall_medians"].items()))
    print(f"rounds {report['rounds']}, report {report_path}")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": {n: e for n, e in metrics.items() if e["value"] is not None
                                  and math.isfinite(e["value"])}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
