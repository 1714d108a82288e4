"""The performance trajectory: the benchmark's end-to-end figures for this
tree, summarised over several runs, for a BENCH_<n>.json file.

    python tests/bench.py --summary BENCH_31.json

It runs perfbench/run.py, unchanged, RUNS times per workload with
--trace 0 and --seconds SECONDS (seeds 1 to RUNS), and reads the
report each run writes under .perfbench_work/reports/. For each
end-to-end metric it writes every run's value and their median and
quartiles, and with them the runs, the seeds, the commit and source
hash the reports name, and the OpenBLAS core that runs numpy's BLAS
kernels on this machine, as OPENBLAS_VERBOSE=2 prints it (the reports
name only the build's base target). A run takes about SECONDS plus
10 s, so the script takes about 12 minutes. Run it from anywhere; it runs the benchmark from the
repository root. pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
REPORTS = REPO / ".perfbench_work" / "reports"
WORKLOADS = ("reference", "long_section")
# every BENCH_<n>.json holds this many runs per workload, each this long,
# so that any two of them compare
RUNS = 5
SECONDS = 60.0


def openblas_core() -> str | None:
    """The core OpenBLAS picks at run time, as it prints it when loaded."""
    proc = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                          text=True, env={**os.environ, "OPENBLAS_VERBOSE": "2"})
    found = re.search(r"Core: (\S+)", proc.stdout + proc.stderr)
    return found.group(1) if found else None


def run(workload: str, seed: int) -> dict:
    """One benchmark run's report; a run that fails ends the script."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=REPO, capture_output=True, text=True)
    last = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
    if proc.returncode != 0 or last.get("correct") is not True or last.get("failed") != 0:
        sys.exit(f"benchmark run {workload} seed {seed} failed: {last or proc.stderr}")
    return json.loads((REPORTS / f"{workload}-seed{seed}-trace0.json").read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summary", required=True, type=Path,
                        help="the JSON file to write, e.g. BENCH_31.json")
    args = parser.parse_args(argv)

    seeds = list(range(1, RUNS + 1))
    workloads, environments = {}, set()
    for workload in WORKLOADS:
        reports = [run(workload, seed) for seed in seeds]
        for report in reports:
            env = report["environment"]
            environments.add((env["git_commit"], env["source_sha256"]))
        metrics = reports[0]["metrics"]
        workloads[workload] = {
            name: {"unit": entry["unit"],
                   **summary([report["metrics"][name]["value"] for report in reports])}
            for name, entry in metrics.items()}
    if len(environments) != 1:
        sys.exit(f"the runs measured more than one tree: {sorted(environments)}")
    (commit, source), = environments
    env = reports[0]["environment"]
    result = {
        "runs": RUNS, "seeds": seeds, "seconds": SECONDS,
        "git_commit": commit, "source_sha256": source,
        "openblas_core": openblas_core(),
        "nproc": env["nproc"], "python": env["python"], "numpy": env["numpy"],
        "threads": env["threads"],
        "workloads": workloads,
    }
    args.summary.write_text(json.dumps(result, indent=1) + "\n")
    for workload, metrics in workloads.items():
        print(workload + ": " + ", ".join(
            f"{name} {entry['median']:.4g}" for name, entry in metrics.items()))
    print(f"wrote {args.summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
