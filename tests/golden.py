"""Golden outputs of the CLI: for each case, its exit code, stdout,
stderr and every file it writes, kept under tests/golden/.

    python tests/golden.py --update    rewrite tests/golden/ from this tree

test_golden.py re-runs every case and compares. Bytes are compared only
where numpy, its BLAS, the OpenBLAS core that runs its kernels and the
SIMD features numpy found are those the files were written with (the
fingerprint), since exp, log and BLAS kernels may round differently
elsewhere. The parsed comparison always runs: line counts, integers and
text exactly, other numbers at a relative 1e-8. A file over BIG_FILE
bytes is kept only as its sha256 and line count, so without the bytes
only its line count is checked.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
BASELINE = REPO / "baseline.cfg"
BIG_FILE = 200_000
REL_TOL = 1e-8
# a number as the CLI prints it, and the text between numbers
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|-?inf|nan")
INTEGER = re.compile(r"-?\d+")


def _cases() -> dict[str, list[str]]:
    """Case name -> CLI arguments, each run with --config baseline.cfg."""
    sys.path.insert(0, str(REPO))
    from perfbench.workloads import COMMANDS, WORKLOADS

    small_task = ["--fl.horizon_s=120", "--fl.feature_dim=8", "--fl.global_pool_size=256",
                  "--fl.validation_size=64", "--fl.samples_per_vehicle=128",
                  "--fl.batch_size=32"]
    cases = {
        # the commands of acceptance test C10
        "c10_optimize": ["optimize"],
        "c10_validate": ["validate", "--sim.num_rounds=2000"],
        "c10_sweep": ["sweep", "--h-list", "8,24", "--t-grid", "5:25:0.5"],
        "c10_fl": ["fl", "--fl.horizon_s=200",
                   "--schedules", "8:4,8:5.5,8:8,16:6,16:8.5,24:8,24:11.8,24:18"],
        # with eta=100, 24:11.8 and 40:20 diverge
        "fl_diverging": ["fl", *small_task, "--fl.eta=100", "--schedules",
                         "8:4,8:5.5,8:8,16:6,16:8.5,24:8,24:11.8,24:18,40:20,40:14"],
        "config_error": ["fl", "--fl.eta=0"],
        # the first run would diverge, the second's plan fails
        "fl_plan_error": ["fl", "--fl.eta=100", "--system.alpha_s=1e-6",
                          "--system.beta_s=1e-6", "--fl.horizon_s=60",
                          "--schedules", "24:11.8,1000000:30"],
        # the environments that end in exit 2
        "infeasible_optimize": ["optimize", "--system.arrival_rate_per_s=0"],
        "infeasible_delays": ["optimize", "--system.tau_down_s=20"],
        "infeasible_fl": ["fl", "--system.alpha_s=0.5"],
    }
    # the benchmark's workloads; reference fl at seed 1 is the default fl
    # grid of baseline.cfg, whose fl seed is 1
    for name, workload in WORKLOADS.items():
        for seed in (1, 703):
            for command in COMMANDS:
                cases[f"{name}_{seed}_{command}"] = [
                    command, "--seed", str(seed), *workload.overrides,
                    *workload.args[command]]
    return cases


CASES = _cases()


def openblas_core() -> str | None:
    """The core OpenBLAS picks at run time, as it prints it when loaded
    with OPENBLAS_VERBOSE=2 (it honours OPENBLAS_CORETYPE); None if it
    prints none."""
    proc = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                          text=True, env={**os.environ, "OPENBLAS_VERBOSE": "2"})
    found = re.search(r"Core: (\S+)", proc.stdout + proc.stderr)
    return found.group(1) if found else None


def fingerprint() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": config["SIMD Extensions"], "openblas_core": openblas_core()}


def run_case(args: list[str], out: Path) -> dict[str, bytes]:
    """Every output of one case: its streams and the files it wrote into
    out, by name."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "roadfl.cli", *args,
                           "--config", str(BASELINE), "--out", str(out)],
                          capture_output=True, env=env, cwd=REPO, timeout=120)
    outputs = {"exit_code": b"%d\n" % proc.returncode,
               "stdout": proc.stdout, "stderr": proc.stderr}
    if out.exists():
        outputs.update((p.name, p.read_bytes()) for p in sorted(out.iterdir()))
    return outputs


def digest(data: bytes) -> str:
    return "%s %d\n" % (hashlib.sha256(data).hexdigest(), data.count(b"\n"))


def stored(data: bytes) -> tuple[str, bytes]:
    """The suffix and content a file is kept under: small files whole,
    large ones as their digest."""
    return (".sha256", digest(data).encode()) if len(data) > BIG_FILE else ("", data)


def load(case: str) -> dict[str, bytes]:
    """The golden outputs of case, by the name they were written under."""
    return {p.name: p.read_bytes() for p in sorted((GOLDEN / case).iterdir())}


def _same_number(a: str, b: str) -> bool:
    if INTEGER.fullmatch(a) and INTEGER.fullmatch(b):
        return a == b
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return a == b
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y), 1e-300)


def same_text(golden: str, new: str) -> bool:
    """Equal line counts, and on each line the same text between numbers,
    the same integers and other numbers within REL_TOL."""
    old_lines, new_lines = golden.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return False
    for a, b in zip(old_lines, new_lines):
        if NUMBER.split(a) != NUMBER.split(b):
            return False
        if not all(map(_same_number, NUMBER.findall(a), NUMBER.findall(b))):
            return False
    return True


def compare(case: str, new: dict[str, bytes], exact: bool) -> tuple[list[str], list[str]]:
    """(files that differ, files checked by line count only) of case's new
    outputs against its golden ones, compared as bytes if exact, else parsed."""
    golden = load(case)
    names = {name + stored(data)[0] for name, data in new.items()}
    differ = [f"{case}/{name}" for name in sorted(names ^ set(golden))]
    digest_only = []
    for name, data in new.items():
        suffix, content = stored(data)
        old = golden.get(name + suffix)
        if old is None:
            continue
        if exact:
            same = content == old
        elif suffix:
            # without the bytes, only a digest's line count can be compared
            same = old.split()[1] == content.split()[1]
            digest_only.append(f"{case}/{name}")
        else:
            same = same_text(old.decode(), data.decode())
        if not same:
            differ.append(f"{case}/{name}")
    return differ, digest_only


def update() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    (GOLDEN / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        for case, args in CASES.items():
            (GOLDEN / case).mkdir()
            for name, data in run_case(args, Path(tmp) / case).items():
                suffix, content = stored(data)
                (GOLDEN / case / (name + suffix)).write_bytes(content)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/golden.py --update")
    update()
