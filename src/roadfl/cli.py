"""Command-line front end.

Subcommands:
    optimize   search the best (h, t) schedule, write optimize.csv and
               optimize_summary.csv
    validate   simulate rounds for one schedule and fit the success-count
               histogram, write poisson_fit.csv and fit_report.csv
    sweep      evaluate the analytic surface on an (h, t) grid, write
               surface.csv
    fl         run synthetic federated training over a schedule grid,
               write fl_runs.csv and correlation.txt; the runs are
               spread over as many processes as the CPUs hold BLAS
               thread pools (see _fl_processes)

Configuration is an INI-style file (see baseline.cfg) with dotted-key
command-line overrides, e.g. --system.speed_mps=25. All CSV output is
deterministic for a fixed config and seed: floats are printed with 9
significant digits and files are written atomically.

Exit codes: 0 success, 1 config error, 2 infeasible environment,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import math
import os
import sys
import tempfile
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence, get_type_hints

import numpy as np

from . import analytic, flsim, mcsim, optimizer
from .flsim import FLConfig, FLRunResult, plan_run, proxy_correlation, run_fl
from .mcsim import SimConfig, compare_to_poisson, simulate_rounds
from .optimizer import OptimizerConfig
from .types import (
    DivergenceError,
    InfeasibleEnvironmentError,
    InfeasibleScheduleError,
    InvalidParameterError,
    Schedule,
    SystemParams,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERIC = 3

# A sweep's float64 (h, t) mesh and an fl run's loss arrays are held in
# memory at once, though their rows are not; this caps the rows of
# surface.csv and fl_runs.csv.
MAX_ROWS = 2**20
# array columns become Python scalars this many rows at a time as their
# CSV rows are written
ROW_CHUNK = 2**14
# printf codes of the CSV columns: integers in full, floats with 9
# significant digits (nan and +-inf print as nan, inf and -inf)
INT = "%d"
FLOAT = "%.9g"
# the variables OpenBLAS reads its thread count from, first match wins
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class ConfigError(ValueError):
    pass


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
        read = parser.read(str(path))
        if not read:
            raise ConfigError(f"config file not found: {path}")
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
    try:
        sections = {s: cls(**values[s]) for s, cls in _SECTIONS.items()}
        schedule = Schedule(h, t) if h is not None and t is not None else None
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc

    return ExperimentConfig(**sections, schedule=schedule,
                            output_dir=Path(values["output"].get("dir", "out")))


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write lines atomically: temp file in the target dir, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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


def cmd_optimize(cfg: ExperimentConfig) -> int:
    result = optimizer.optimize_schedule(cfg.system, cfg.optimizer)
    out = cfg.output_dir
    _write_rows(out / "optimize.csv",
                (("h", INT), ("t_opt_s", FLOAT), ("g_opt", FLOAT)),
                result.per_h_table)
    _write_rows(out / "optimize_summary.csv",
                (("h_star", INT), ("t_star_s", FLOAT), ("g_star", FLOAT),
                 ("search_steps", INT)),
                [(result.h_star, result.t_star, result.g_star,
                  result.search_steps)])
    print(f"h_star={result.h_star} t_star_s={result.t_star:.9g} "
          f"g_star={result.g_star:.9g} search_steps={result.search_steps}")
    return EXIT_OK


def cmd_validate(cfg: ExperimentConfig) -> int:
    if cfg.schedule is None:
        raise ConfigError("validate requires sim.h and sim.t_s")
    histogram = simulate_rounds(cfg.system, cfg.schedule, cfg.sim)
    lam = analytic.lambda_param(cfg.system, cfg.schedule.h, cfg.schedule.t)
    fit = compare_to_poisson(histogram, lam)
    out = cfg.output_dir
    _write_rows(out / "poisson_fit.csv",
                (("m_suc", INT), ("empirical_freq", FLOAT), ("poisson_pmf", FLOAT)),
                zip(fit.support.tolist(), fit.empirical_freq, fit.pmf))
    _write_rows(out / "fit_report.csv",
                (("lambda_analytic", FLOAT), ("mean_empirical", FLOAT),
                 ("tv_distance", FLOAT), ("p_pos_analytic", FLOAT),
                 ("p_pos_empirical", FLOAT)),
                [(fit.lambda_analytic, fit.mean_empirical, fit.tv_distance,
                  fit.p_pos_analytic, fit.p_pos_empirical)])
    print(f"lambda={lam:.9g} empirical_mean={fit.mean_empirical:.9g} "
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


def _parse_t_grid(text: str) -> np.ndarray:
    """Round lengths start + k*step for k = 0, 1, ... up to stop."""
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
    # one spare point absorbs rounding in span; the filter drops it
    ts = start + step * np.arange(max(math.floor(span), -1) + 2)
    ts = ts[ts <= limit]
    if ts.size == 0:
        raise ConfigError("t grid is empty")
    return ts


def cmd_sweep(cfg: ExperimentConfig, h_list: str, t_grid: str) -> int:
    hs = _parse_h_list(h_list)
    ts = _parse_t_grid(t_grid)
    points = len(hs) * ts.size
    if points > MAX_ROWS:
        raise ConfigError(f"sweep has {points} (h, t) points, "
                          f"more than {MAX_ROWS}")
    h_col = np.array(hs, dtype=float)[:, None]
    t_row = ts[None, :]
    # h-major rows: each h (kept a Python int) against every t
    rows = zip(itertools.chain.from_iterable(itertools.repeat(h, ts.size) for h in hs),
               itertools.chain.from_iterable(itertools.repeat(ts.tolist(), len(hs))),
               _stream(analytic.g(cfg.system, h_col, t_row).ravel()),
               _stream(analytic.lambda_param(cfg.system, h_col, t_row).ravel()),
               _stream(analytic.success_probability(cfg.system, h_col, t_row).ravel()))
    _write_rows(cfg.output_dir / "surface.csv",
                (("h", INT), ("t_s", FLOAT), ("g", FLOAT), ("lambda", FLOAT),
                 ("p_success", FLOAT)), rows)
    print(f"surface: {points} points")
    return EXIT_OK


def _default_fl_grid(cfg: ExperimentConfig) -> list[Schedule]:
    """Per-h optimum scaled by {0.6, 1.0, 1.6} for h in {8, 16, 24, 40}."""
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
        except (ValueError, InvalidParameterError) as exc:
            raise ConfigError(f"bad schedule {part!r}: {exc}")
    if not schedules:
        raise ConfigError("schedule list is empty")
    return schedules


def _fl_rows(sched: Schedule, res: FLRunResult | None) -> Iterable[tuple]:
    """The fl_runs.csv rows of one run, streamed as they are written; a
    diverged run has one row of nan."""
    if res is None:
        return [(sched.h, sched.t, math.nan, 0, math.nan, math.nan)]
    return zip(itertools.repeat(sched.h), itertools.repeat(sched.t),
               _stream(res.times), itertools.count(),
               _stream(res.losses), _stream(res.l_min_curve))


def _fl_processes(n_schedules: int) -> int:
    """How many processes fl trains in: as many BLAS thread pools as fit
    on the CPUs this process may use, and at most one per schedule. The
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
    return max(1, min(n_schedules, cpus // blas_threads))


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


def _train(plans: Sequence[flsim.RunPlan],
           fl_cfg: FLConfig) -> list[FLRunResult | DivergenceError]:
    """Each plan's FLRunResult, or the DivergenceError its run raised."""
    outcomes: list[FLRunResult | DivergenceError] = []
    for plan in plans:
        try:
            outcomes.append(run_fl(plan, fl_cfg))
        except DivergenceError as exc:
            outcomes.append(exc)
    return outcomes


def _train_in_processes(cfg: ExperimentConfig, plans: Sequence[flsim.RunPlan],
                        n: int) -> list:
    """_train in this process and n - 1 workers, the plans split by
    _split. The workers are forked, so they inherit the imported modules
    and this process's task, copy-on-write, instead of building them again."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    shares = _split([plan.work for plan in plans], n)
    flsim._shared_task(cfg.fl)
    with ProcessPoolExecutor(n - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_train, [plans[i] for i in share], cfg.fl)
                   for share in shares[1:]]
        done = [_train([plans[i] for i in shares[0]], cfg.fl)]
        done += [future.result() for future in futures]
    by_index = {}
    for share, share_outcomes in zip(shares, done):
        by_index.update(zip(share, share_outcomes))
    return [by_index[i] for i in range(len(plans))]


def cmd_fl(cfg: ExperimentConfig, schedules_arg: str | None) -> int:
    if schedules_arg is None:
        schedules = _default_fl_grid(cfg)
    else:
        schedules = _parse_schedules(schedules_arg)
    # one row per round boundary of each run; min keeps the floor finite
    rounds = [math.floor(min(cfg.fl.horizon / s.t, MAX_ROWS)) for s in schedules]
    if sum(rounds) + len(rounds) > MAX_ROWS:
        raise ConfigError(f"the schedules need more than {MAX_ROWS} fl_runs.csv rows")
    attempts = sum(mcsim.expected_attempts(cfg.system, s.t, k)
                   for s, k in zip(schedules, rounds))
    if attempts > mcsim.MAX_ATTEMPTS:
        raise ConfigError(f"the schedules need {attempts:.3g} expected upload attempts, "
                          f"more than {mcsim.MAX_ATTEMPTS}")

    # plan every run before training any, so that a plan's error ends the
    # command before anything trains; capping the running total of the
    # work also bounds the winners the plans hold
    plans, total = [], 0
    for sched in schedules:
        plans.append(plan_run(cfg.system, sched, cfg.fl))
        total += plans[-1].work
        if total > flsim.MAX_SGD_WORK:
            raise ConfigError(f"the schedules need {total} multiply-adds of local "
                              f"training, more than {flsim.MAX_SGD_WORK}")
    n = _fl_processes(len(plans))
    if n == 1:
        outcomes = _train(plans, cfg.fl)
    else:
        outcomes = _train_in_processes(cfg, plans, n)

    runs = []
    for sched, outcome in zip(schedules, outcomes):
        if isinstance(outcome, DivergenceError):
            print(f"warning: run h={sched.h} t={sched.t:.9g} diverged: {outcome}",
                  file=sys.stderr)
            runs.append((sched, None))
        else:
            runs.append((sched, outcome))
    _write_rows(cfg.output_dir / "fl_runs.csv",
                (("h", INT), ("t_s", FLOAT), ("time_s", FLOAT), ("round", INT),
                 ("val_loss", FLOAT), ("l_min", FLOAT)),
                itertools.chain.from_iterable(_fl_rows(*run) for run in runs))
    results = [res for _, res in runs if res is not None]

    grid_desc = ",".join(f"{s.h}:{s.t:.9g}" for s in schedules)
    if len(results) >= 8:
        report = proxy_correlation(results, cfg.system)
        if report.degenerate:
            rho_line = "spearman_rho=nan (degenerate: constant ranks)"
        else:
            rho_line = f"spearman_rho={report.rho:.9g}"
    else:
        rho_line = "spearman_rho=nan (fewer than 8 completed runs)"
    lines = (rho_line, f"n_schedules={len(results)}", f"grid={grid_desc}",
             f"horizon_s={cfg.fl.horizon:.9g}", f"seed={cfg.fl.seed}")
    _write_lines(cfg.output_dir / "correlation.txt", (line + "\n" for line in lines))
    print(rho_line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)

    overrides = []
    for token in extra:
        if token.startswith("--") and "=" in token and "." in token.split("=", 1)[0]:
            overrides.append(token[2:])
        else:
            parser.error(f"unrecognized argument: {token}")

    try:
        cfg = parse_config(args.config, overrides)
        if args.out is not None:
            cfg = replace(cfg, output_dir=Path(args.out))
        if args.seed is not None:
            cfg = replace(cfg,
                          sim=replace(cfg.sim, seed=args.seed),
                          fl=replace(cfg.fl, seed=args.seed))

        if args.command == "optimize":
            return cmd_optimize(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.h_list, args.t_grid)
        return cmd_fl(cfg, args.schedules)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleEnvironmentError, InfeasibleScheduleError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
