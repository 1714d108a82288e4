"""Command-line front end.

Subcommands:
    optimize   search the best (h, t) schedule, write optimize.csv and
               optimize_summary.csv
    validate   write validate(cfg), the Poisson fit of one schedule's
               simulated rounds, to poisson_fit.csv and fit_report.csv
    sweep      evaluate the analytic surface on an (h, t) grid, write
               surface.csv
    fl         write train(cfg, schedules), synthetic federated training's
               losses over a schedule grid (default_fl_grid by default),
               to fl_runs.csv and correlation.txt

validate, default_fl_grid and train compute; cmd_validate and cmd_fl
only render what they return, so any caller runs the commands' code.

validate and fl compute in as many processes as the CPUs hold BLAS
thread pools (see _processes); validate also uses at most one per
ATTEMPTS_PER_PROCESS expected attempts, so a small replay stays in one
process. Every cap is checked first, the attempt and arrival caps of
both commands by mcsim.check_runs, once. Then _in_processes moves this
process to the first allowed CPU, forks the workers, each of which
starts on a CPU of its own (see _place), runs this process's share and
gathers theirs. Every output byte is the one a single process writes. A
profile of the parent shows only the parent's share.

Configuration is an INI-style file (see baseline.cfg) with dotted-key
command-line overrides, e.g. --system.speed_mps=25. All CSV output is
deterministic for a fixed config and seed: floats are printed with 9
significant digits and files are written atomically.

Each command imports the roadfl modules it runs when it runs: optimize
loads optimizer, sweep analytic, validate analytic and mcsim, and fl
all of them, so optimize and sweep load neither roadfl.rng nor hashlib.
numpy, too, loads only once a command computes: the functions that use
it import it, and each command checks its own arguments before it
imports a model module. So importing cli, --help, every usage and config
error, validate without a schedule, sweep's h list, t grid and point cap
errors and fl's schedule list errors all exit without numpy.

A process runs the CLI through entry, the console script's target and
what python -m roadfl.cli calls. It keeps OpenSSL's _hashlib out of the
process, so that hashlib and hmac, which numpy.random loads through
secrets, fall back to the digests CPython builds in; roadfl hashes only
with blake2s, one of them. Calling main in-process leaves the host's
hashlib as it is.

Exit codes: 0 success, 1 a ConfigError (a config or usage error) or a
stdout closed by its reader, 2 an InfeasibleError (an infeasible
environment or schedule); both classes live in roadfl.types.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, NoReturn, Sequence,
                    get_type_hints)

from .types import (
    MAX_ROWS,
    ConfigError,
    DivergenceError,
    FLConfig,
    InfeasibleError,
    OptimizerConfig,
    Schedule,
    SimConfig,
    SystemParams,
)

if TYPE_CHECKING:
    import numpy as np

    from .flsim import LinearTask, RunPlan
    from .mcsim import PoissonFit

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2

# array columns become Python scalars this many rows at a time as their
# CSV rows are written; sweep evaluates and renders its surface in blocks
# of at most this many points: whole rows of as many h as fit, or this
# many round lengths of one h, one h's rows per % call
ROW_CHUNK = 2**14
# printf codes of the CSV columns: integers in full, floats with 9
# significant digits (nan and +-inf print as nan, inf and -inf)
INT = "%d"
FLOAT = "%.9g"
# the variables OpenBLAS reads its thread count from, first match wins
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# validate adds a process per this many expected attempts. On a 2-vCPU
# machine the reference replay, 318,000 attempts, was slower in two
# processes than in one (benchmark validate_s 0.233 against 0.221 s in
# 10 of 10 pairs), so it stays in one; cold replays of 954,000 and more
# were faster in two in 7 or 8 of 10 pairs, so the rule, which forks
# from 2**21, is on the safe side of where they cross
ATTEMPTS_PER_PROCESS = 2**20


# INI section -> the config dataclass it builds. Each field is read from
# the key of its name plus its unit suffix, with the field's type; a
# field without a default is a required key.
_SECTIONS = {"system": SystemParams, "optimizer": OptimizerConfig,
             "sim": SimConfig, "fl": FLConfig}
_UNITS = {"length": "_m", "speed": "_mps", "arrival_rate": "_per_s",
          "tau_down": "_s", "tau_up": "_s", "alpha": "_s", "beta": "_s",
          "gamma": "_s", "horizon": "_s"}


def _keys() -> dict[str, dict[str, tuple[str, type, bool]]]:
    """section -> INI key -> (field, type, required)."""
    keys = {}
    for section, cls in _SECTIONS.items():
        hints = get_type_hints(cls)
        keys[section] = {f.name + _UNITS.get(f.name, ""):
                         (f.name, hints[f.name], f.default is MISSING)
                         for f in fields(cls)}
    # the schedule validate simulates, and where outputs go
    keys["sim"].update(h=("h", int, False), t_s=("t", float, False))
    keys["output"] = {"dir": ("dir", str, False)}
    return keys


_KEYS = _keys()


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemParams
    optimizer: OptimizerConfig
    sim: SimConfig
    fl: FLConfig
    schedule: Schedule | None
    output_dir: Path


def _set_value(values: dict[str, dict[str, object]], section: str, key: str,
               raw: str) -> None:
    """Parse raw as the type of the field that section.key sets; store it
    under that field's name."""
    try:
        field, typ, _ = _KEYS[section][key]
    except KeyError:
        raise ConfigError(f"unknown config key {section}.{key}")
    try:
        values[section][field] = typ(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {typ.__name__}")


def parse_config(path: str | Path | None,
                 overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Read the INI config, apply key=value overrides, validate everything.

    Unknown sections or keys are hard errors; missing required keys are
    reported all at once.
    """
    values: dict[str, dict[str, object]] = {s: {} for s in _KEYS}

    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, configparser.Error, UnicodeDecodeError) as exc:
            # configparser's messages span lines; the error is printed as one
            reason = getattr(exc, "strerror", None) or str(exc)
            raise ConfigError(f"cannot read {path}: {' '.join(reason.split())}") from exc
        for section in parser.sections():
            if section not in _KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                _set_value(values, section, key, raw)

    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} must be section.key")
        _set_value(values, *dotted.split(".", 1), raw)

    missing = [f"{s}.{k}" for s, keys in _KEYS.items()
               for k, (field, _, required) in keys.items()
               if required and field not in values[s]]
    if missing:
        raise ConfigError("missing required config key(s): " + ", ".join(missing))

    h = values["sim"].pop("h", None)
    t = values["sim"].pop("t", None)
    sections = {s: cls(**values[s]) for s, cls in _SECTIONS.items()}
    schedule = Schedule(h, t) if h is not None and t is not None else None

    return ExperimentConfig(**sections, schedule=schedule,
                            output_dir=Path(values["output"].get("dir", "out")))


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write lines atomically: temp file in the target dir, then rename.
    An OSError, such as an output dir below a file, is a ConfigError."""
    import tempfile

    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _write_rows(path: Path, columns: Sequence[tuple[str, str]],
               rows: Iterable[tuple]) -> None:
    """Write a CSV file, streaming the rows. columns pairs each column's
    name with its printf code, INT or FLOAT; each row is one % call."""
    header = ",".join(name for name, _ in columns) + "\n"
    template = ",".join(code for _, code in columns) + "\n"
    _write_lines(path, itertools.chain([header], map(template.__mod__, rows)))


def _stream(values: np.ndarray) -> Iterator:
    """The values of a 1-d array as Python scalars, converted ROW_CHUNK at
    a time as they are consumed."""
    return itertools.chain.from_iterable(
        values[k:k + ROW_CHUNK].tolist() for k in range(0, values.size, ROW_CHUNK))


def _processes(most: int) -> int:
    """How many processes a command computes in: as many BLAS thread
    pools as fit on the CPUs this process may use, and at most most. The
    pool size is the first positive integer among BLAS_THREAD_VARS, or
    every CPU if none holds one. Without sched_getaffinity or fork it is 1.
    """
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    cpus = len(os.sched_getaffinity(0))
    blas_threads = cpus
    for var in BLAS_THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            blas_threads = value
            break
    return max(1, min(most, cpus // blas_threads))


def _place(cpu: int, allowed: set[int]) -> None:
    """Move this process onto cpu, then let it run on every allowed CPU
    again; an OSError, such as a cpu it may not use, leaves it where it
    is. The move completes before sched_setaffinity returns, and the
    scheduler leaves a running process where it is, so the process starts
    on cpu: a freshly forked worker left alone shared its parent's CPU
    for 0.2-0.5 s on a 2-vCPU machine."""
    try:
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def _fork(job: Callable[[], object], cpu: int, allowed: set[int],
          inherited: Sequence[int]) -> tuple[int, int] | None:
    """Fork a worker that moves to cpu (see _place), runs job() and writes
    its result, or the exception it raised, to a pipe as one pickle.
    inherited are the read ends of earlier workers' pipes, which the
    worker closes. Returns the worker's pid and the pipe's read end, or
    None if the fork failed."""
    import pickle

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)
        return pid, read_end
    # the worker never returns into the caller, whatever happens
    code = 1
    try:
        for fd in (read_end, *inherited):
            os.close(fd)
        _place(cpu, allowed)
        try:
            result = job()
        except Exception as exc:
            result = exc
        with open(write_end, "wb") as fh:
            pickle.dump(result, fh)
        code = 0
    finally:
        os._exit(code)


def _in_processes(jobs: Sequence[Callable[[], object]]) -> list:
    """Each job's result. jobs[0] runs here, and each other job in a
    worker that _fork starts on an allowed CPU of its own, or here if its
    fork fails; this process moves to the first allowed CPU first (see
    _place). A worker's exception is raised here. Every worker is reaped,
    its pipe closed first so that a blocked writer exits, also when a job
    here raises."""
    import pickle

    if len(jobs) == 1:
        return [jobs[0]()]
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    _place(cpus[0], allowed)
    results: list = [None] * len(jobs)
    here = [0]  # the jobs that run in this process
    # each forked job's index, with its worker's pid and pipe
    workers: list[tuple[int, int, int]] = []
    try:
        for i in range(1, len(jobs)):
            worker = _fork(jobs[i], cpus[i % len(cpus)], allowed,
                           [fd for _, _, fd in workers])
            if worker is None:
                here.append(i)
            else:
                workers.append((i, *worker))
        for i in here:
            results[i] = jobs[i]()
        for i, pid, fd in workers:
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read()
            if not data:
                raise RuntimeError(f"worker {pid} exited without its result")
            results[i] = pickle.loads(data)
            if isinstance(results[i], BaseException):
                raise results[i]
    finally:
        for _, pid, fd in workers:
            os.close(fd)
            os.waitpid(pid, 0)
    return results


def cmd_optimize(cfg: ExperimentConfig) -> int:
    from . import optimizer

    result = optimizer.optimize_schedule(cfg.system, cfg.optimizer)
    out = cfg.output_dir
    _write_rows(out / "optimize.csv",
                (("h", INT), ("t_opt_s", FLOAT), ("g_opt", FLOAT)),
                zip(*map(_stream, result.per_h_table)))
    _write_rows(out / "optimize_summary.csv",
                (("h_star", INT), ("t_star_s", FLOAT), ("g_star", FLOAT),
                 ("search_steps", INT)),
                [(result.h_star, result.t_star, result.g_star,
                  result.search_steps)])
    print(f"h_star={result.h_star} t_star_s={result.t_star:.9g} "
          f"g_star={result.g_star:.9g} search_steps={result.search_steps}")
    return EXIT_OK


def validate(cfg: ExperimentConfig) -> PoissonFit:
    """The Poisson fit of cfg.schedule's simulated rounds, which validate
    renders. The fit's row cap and mcsim.check_runs' caps are checked
    first; then the rounds' attempt blocks are split into _processes
    contiguous shares, at most one per ATTEMPTS_PER_PROCESS expected
    attempts, which _in_processes simulates and whose histograms add up
    to the one of a single process."""
    if cfg.schedule is None:
        raise ConfigError("validate requires sim.h and sim.t_s")
    from . import analytic, mcsim

    lam = analytic.lambda_param(cfg.system, cfg.schedule.h, cfg.schedule.t)
    rows = mcsim.poisson_rows(lam)
    if rows > MAX_ROWS:
        raise ConfigError(f"the Poisson fit of lambda={lam:.3g} needs {rows:.3g} "
                          f"poisson_fit.csv rows, more than {MAX_ROWS}")
    attempts = mcsim.check_runs(cfg.system, [(cfg.schedule, cfg.sim.num_rounds)])
    n = _processes(max(1, int(attempts // ATTEMPTS_PER_PROCESS)))
    histograms = _in_processes([
        functools.partial(mcsim.simulate_rounds, cfg.system, cfg.schedule, cfg.sim, share, n)
        for share in range(n)])
    import numpy as np

    histogram = np.zeros(max(h.size for h in histograms), dtype=np.int64)
    for h in histograms:
        histogram[:h.size] += h
    return mcsim.compare_to_poisson(histogram, lam)


def cmd_validate(cfg: ExperimentConfig) -> int:
    fit = validate(cfg)
    _write_rows(cfg.output_dir / "poisson_fit.csv",
                (("m_suc", INT), ("empirical_freq", FLOAT), ("poisson_pmf", FLOAT)),
                zip(fit.support.tolist(), fit.empirical_freq, fit.pmf))
    _write_rows(cfg.output_dir / "fit_report.csv",
                (("lambda_analytic", FLOAT), ("mean_empirical", FLOAT),
                 ("tv_distance", FLOAT), ("p_pos_analytic", FLOAT),
                 ("p_pos_empirical", FLOAT)),
                [(fit.lambda_analytic, fit.mean_empirical, fit.tv_distance,
                  fit.p_pos_analytic, fit.p_pos_empirical)])
    print(f"lambda={fit.lambda_analytic:.9g} empirical_mean={fit.mean_empirical:.9g} "
          f"tv_distance={fit.tv_distance:.9g}")
    return EXIT_OK


def _parse_h_list(text: str) -> list[int]:
    try:
        hs = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse h list {text!r}")
    if not hs or any(h < 1 for h in hs):
        raise ConfigError("h list must contain positive integers")
    if max(hs) > sys.float_info.max:
        raise ConfigError("h list holds a value too large for a float")
    return hs


def _parse_t_grid(text: str) -> tuple[float, float, int]:
    """The round lengths start + k*step for k = 0, 1, ... up to stop, as
    (start, step, count); _t_chunk builds them a chunk at a time."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ConfigError(f"t grid {text!r} must be start:stop:step")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"t grid {text!r} must have finite start, stop and step")
    if step <= 0 or start <= 0:
        raise ConfigError("t grid needs positive start and step")
    limit = stop + 1e-12
    span = (limit - start) / step
    if span >= MAX_ROWS:
        raise ConfigError(f"t grid {text!r} has more than {MAX_ROWS} points")
    # one spare candidate absorbs rounding in span (which is -inf when
    # limit - start overflows). The candidates never decrease, and only
    # the last two can be past limit, so those two decide the count.
    candidates = math.floor(max(span, -1.0)) + 2
    # start + step * k in doubles, as _t_chunk computes it with np.arange
    count = candidates - sum(start + step * k > limit
                             for k in range(max(candidates - 2, 0), candidates))
    if count == 0:
        raise ConfigError("t grid is empty")
    return start, step, count


def _t_chunk(start: float, step: float, count: int, k: int) -> np.ndarray:
    """The round lengths start + j*step of a grid of count points, for j
    from k to the end of its chunk of ROW_CHUNK."""
    import numpy as np

    return start + step * np.arange(k, min(k + ROW_CHUNK, count))


def cmd_sweep(cfg: ExperimentConfig, h_list: str, t_grid: str) -> int:
    hs = _parse_h_list(h_list)
    start, step, n_t = _parse_t_grid(t_grid)
    points = len(hs) * n_t
    if points > MAX_ROWS:
        raise ConfigError(f"sweep has {points} (h, t) points, "
                          f"more than {MAX_ROWS}")
    import numpy as np

    from . import analytic

    row_end = ("," + FLOAT) * 3 + "\n"

    def chunks() -> Iterator[str]:
        yield "h,t_s,g,lambda,p_success\n"
        # h-major rows, evaluated a block at a time: as many h as fit in
        # ROW_CHUNK points against every t, or one h against one t chunk.
        # Each h is kept a Python int; one % call renders one t chunk of
        # an h's rows
        rows = max(1, ROW_CHUNK // n_t)
        texts, texts_k = [], -1
        for i in range(0, len(hs), rows):
            block = hs[i:i + rows]
            h_col = np.array(block, dtype=float)[:, None]
            for k in range(0, n_t, ROW_CHUNK):
                ts = _t_chunk(start, step, n_t, k)
                surface = analytic.surface(cfg.system, h_col, ts)
                if k != texts_k:
                    # ',t' and the value codes of each row of the chunk, made
                    # once for every h of a one-chunk grid
                    texts, texts_k = ["," + FLOAT % t + row_end for t in ts.tolist()], k
                for h, values in zip(block, np.stack(surface, axis=-1)):
                    h_text = INT % h
                    yield (h_text + h_text.join(texts)) % tuple(values.ravel().tolist())

    _write_lines(cfg.output_dir / "surface.csv", chunks())
    print(f"surface: {points} points")
    return EXIT_OK


def default_fl_grid(cfg: ExperimentConfig) -> list[Schedule]:
    """Per-h optimum scaled by {0.6, 1.0, 1.6} for h in {8, 16, 24, 40}."""
    from . import optimizer

    hs = (8, 16, 24, 40)
    t_opt, _, _ = optimizer.optimize_round_lengths(cfg.system, hs, cfg.optimizer)
    return [Schedule(h, factor * t) for h, t in zip(hs, t_opt.tolist())
            for factor in (0.6, 1.0, 1.6)]


def _parse_schedules(text: str) -> list[Schedule]:
    schedules = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            h_raw, t_raw = part.split(":")
            schedules.append(Schedule(int(h_raw), float(t_raw)))
        except ValueError as exc:
            raise ConfigError(f"bad schedule {part!r}: {exc}")
    if not schedules:
        raise ConfigError("schedule list is empty")
    return schedules


def _fl_rows(sched: Schedule, losses: np.ndarray | DivergenceError) -> Iterable[tuple]:
    """The fl_runs.csv rows of one run, streamed as they are written: each
    round boundary's time, loss and running minimum of the losses; a
    diverged run has one row of nan."""
    if isinstance(losses, DivergenceError):
        return [(sched.h, sched.t, math.nan, 0, math.nan, math.nan)]
    import numpy as np

    return zip(itertools.repeat(sched.h), itertools.repeat(sched.t),
               _stream(np.arange(losses.size) * sched.t), itertools.count(),
               _stream(losses), _stream(np.minimum.accumulate(losses)))


def _split(works: Sequence[int], n: int) -> list[list[int]]:
    """Schedule indices in n shares: the largest work first, each to the
    share with the least work so far, then the fewest schedules. Share 0
    is the parent's."""
    shares: list[list[int]] = [[] for _ in range(n)]
    loads = [0] * n
    for i in sorted(range(len(works)), key=works.__getitem__, reverse=True):
        p = min(range(n), key=lambda p: (loads[p], len(shares[p])))
        shares[p].append(i)
        loads[p] += works[i]
    return [sorted(share) for share in shares]


def _train_share(plans: Sequence[RunPlan], task: LinearTask,
                 fl_cfg: FLConfig) -> list[np.ndarray | DivergenceError]:
    """Each plan's losses on task, or the DivergenceError its run raised."""
    from . import flsim

    outcomes: list[np.ndarray | DivergenceError] = []
    for plan in plans:
        try:
            outcomes.append(flsim.run_fl(plan, task, fl_cfg))
        except DivergenceError as exc:
            outcomes.append(exc)
    return outcomes


def train(cfg: ExperimentConfig,
          schedules: Sequence[Schedule]) -> list[np.ndarray | DivergenceError]:
    """Each schedule's losses, or the DivergenceError its run raised. All
    are planned, and every cap checked, before any trains, on one task
    from the "task" stream of cfg.fl.seed. _split shares the plans over
    _processes processes, which train them in _in_processes; the workers
    inherit the task copy-on-write."""
    from . import flsim

    plans = flsim.plan_runs(cfg.system, schedules, cfg.fl)
    task = flsim.generate_task(cfg.fl)
    shares = _split([plan.work for plan in plans], _processes(len(plans)))
    results = _in_processes([
        functools.partial(_train_share, [plans[i] for i in share], task, cfg.fl)
        for share in shares])
    # each plan's outcome, by schedule index
    outcomes: list = [None] * len(plans)
    for share, result in zip(shares, results):
        for i, outcome in zip(share, result):
            outcomes[i] = outcome
    return outcomes


def cmd_fl(cfg: ExperimentConfig, schedules_arg: str | None) -> int:
    schedules = (default_fl_grid(cfg) if schedules_arg is None
                 else _parse_schedules(schedules_arg))
    from . import flsim

    outcomes = train(cfg, schedules)

    for sched, outcome in zip(schedules, outcomes):
        if isinstance(outcome, DivergenceError):
            print(f"warning: run h={sched.h} t={sched.t:.9g} diverged: {outcome}",
                  file=sys.stderr)
    _write_rows(cfg.output_dir / "fl_runs.csv",
                (("h", INT), ("t_s", FLOAT), ("time_s", FLOAT), ("round", INT),
                 ("val_loss", FLOAT), ("l_min", FLOAT)),
                itertools.chain.from_iterable(map(_fl_rows, schedules, outcomes)))
    # each completed run's schedule and minimum loss
    completed = [(sched, losses.min()) for sched, losses in zip(schedules, outcomes)
                 if not isinstance(losses, DivergenceError)]

    grid_desc = ",".join(map(str, schedules))
    if len(completed) >= 8:
        rho = flsim.proxy_correlation(*zip(*completed), cfg.system)
        if math.isnan(rho):
            rho_line = "spearman_rho=nan (degenerate: constant ranks)"
        else:
            rho_line = f"spearman_rho={rho:.9g}"
    else:
        rho_line = "spearman_rho=nan (fewer than 8 completed runs)"
    lines = (rho_line, f"n_schedules={len(completed)}", f"grid={grid_desc}",
             f"horizon_s={cfg.fl.horizon:.9g}", f"seed={cfg.fl.seed}")
    _write_lines(cfg.output_dir / "correlation.txt", (line + "\n" for line in lines))
    print(rho_line)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roadfl",
        description="Schedule optimization and validation for roadside "
                    "federated learning")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("optimize", "validate", "sweep", "fl"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override sim and fl seeds")
        if name == "sweep":
            p.add_argument("--h-list", default="8,16,24,40")
            p.add_argument("--t-grid", default="1:40:0.1",
                           help="round-length grid start:stop:step")
        if name == "fl":
            p.add_argument("--schedules", default=None,
                           help="comma-separated h:t pairs; default is the "
                                "0.6/1.0/1.6 grid around per-h optima")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args, extra = build_parser().parse_known_args(argv)
        overrides = []
        for token in extra:
            if token.startswith("--") and "=" in token and "." in token.split("=", 1)[0]:
                overrides.append(token[2:])
            else:
                raise ConfigError(f"unrecognized argument: {token}")
        # --out and --seed come last, so they win over the dotted overrides
        if args.out is not None:
            overrides.append(f"output.dir={args.out}")
        if args.seed is not None:
            overrides += [f"sim.seed={args.seed}", f"fl.seed={args.seed}"]
        cfg = parse_config(args.config, overrides)

        if args.command == "optimize":
            return cmd_optimize(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.h_list, args.t_grid)
        return cmd_fl(cfg, args.schedules)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def entry() -> NoReturn:
    """Run main on this process's arguments and exit with its code.

    _hashlib is blocked first (see the module docstring). A stdout whose
    reader has gone ends the process with exit 1 and no traceback, as the
    Python docs' note on SIGPIPE does it: the final flush is made here,
    also after --help's SystemExit, and stdout is pointed at devnull,
    where the flush at exit succeeds.
    """
    sys.modules.setdefault("_hashlib", None)
    try:
        try:
            code = main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
