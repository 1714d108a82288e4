"""Synthetic federated training over the simulated vehicle timeline.

The learning task is linear regression with mean-squared-error loss
under the 0.5*||.||^2 convention: convex, with a computable optimum, so
grid sweeps over schedules stay cheap and every claim about the loss is
checkable. A winner's local data is a fixed-size sample of the global
pool from its own stream. Each round's winners are read from mcsim's
attempt table, so training follows exactly the timing rules of the Monte
Carlo replay; the winners' locally trained models are averaged by
dataset size, and rounds with no success leave the model unchanged.

The headline metric of a run is the running minimum of the validation
loss over round boundaries, evaluated up to the training horizon.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import analytic
from .mcsim import (
    MAX_ARRIVALS,
    MAX_ATTEMPTS,
    arrival_stream,
    attempt_blocks,
    expected_arrivals,
    expected_attempts,
)
# unused here: delays are drawn in mcsim.attempts, but perfbench/tracer.py
# patches this attribute when it installs, so the import stays
from .mcsim import sample_computing_delay  # noqa: F401
from .rng import substream
from .types import (
    DivergenceError,
    InvalidParameterError,
    Schedule,
    SystemParams,
    _finite_float,
    _positive_int,
    _require,
)

__all__ = [
    "FLConfig", "LinearTask", "FLRunResult", "CorrelationReport",
    "generate_task", "mse_loss", "mse_gradient", "local_sgd", "aggregate",
    "RunPlan", "plan_runs", "run_fl", "proxy_correlation",
]

# run_fl holds the task at once; this caps its values (270 MB of float64),
# and generate_task builds it in place, so the peak at the cap is one task
MAX_VALUES = 2**25
# generate_task draws the task's features this many values at a time
TASK_CHUNK_VALUES = 2**15
# caps the rows of fl_runs.csv and surface.csv, since an fl command's loss
# arrays and a sweep's float64 (h, t) mesh are held at once (the rows are not)
MAX_ROWS = 2**20
# run_fl trains a round's winners in stacks; a stack holds W winners'
# gathered batches, W x batch_size x (feature_dim + 1) values, and data,
# W x (samples_per_vehicle + feature_dim), but it has at least one winner
MAX_STACK_VALUES = 2**18
# each win opens its data and sgd streams and draws the winner's data, charged
# as DATA_DRAW_WORK multiply-adds plus DATA_VALUE_WORK per value, then trains
# h steps of batch_size x (feature_dim + 1) multiply-adds and a batch draw,
# charged BATCH_DRAW_WORK;
# a loss evaluation, half a multiply-add per value plus EVAL_ROW_WORK per row.
# MAX_SGD_WORK caps all of an fl command's runs (README's caps list has timings)
BATCH_DRAW_WORK = 2**13
DATA_DRAW_WORK = 2**15
DATA_VALUE_WORK = 2**5
EVAL_ROW_WORK = 2**2
MAX_SGD_WORK = 2**31


@dataclass(frozen=True)
class FLConfig:
    """Training hyper-parameters and task shape.

    The default feature_dim sits at half the pool size on purpose: the
    regression is then ill-conditioned (smallest pool eigenvalue around
    0.09) and keeps improving over thousands of iterations, so loss
    levels still discriminate between schedules at the end of a long
    horizon instead of everything bottoming out at float precision.
    """

    eta: float = 0.1
    batch_size: int = 64
    samples_per_vehicle: int = 1024
    feature_dim: int = 512
    global_pool_size: int = 1024
    validation_size: int = 1024
    horizon: float = 2000.0
    seed: int = 1
    noise_std: float = 0.0
    # optional feature-shift heterogeneity: each vehicle's local copy of
    # its samples gets a private mean offset of this scale; 0 keeps the
    # data identically distributed across vehicles
    vehicle_shift_std: float = 0.0

    def __post_init__(self) -> None:
        _require(_finite_float(self.eta, "eta") > 0, "learning rate must be positive")
        for name in ("batch_size", "samples_per_vehicle", "feature_dim",
                     "global_pool_size", "validation_size"):
            _positive_int(getattr(self, name), name)
        _require(self.batch_size <= self.samples_per_vehicle,
                 "batch size cannot exceed the per-vehicle sample count")
        _require(self.samples_per_vehicle <= self.global_pool_size,
                 "per-vehicle sample count cannot exceed the global pool")
        _require(_finite_float(self.horizon, "horizon") > 0,
                 "training horizon must be positive")
        _require(_finite_float(self.noise_std, "noise_std") >= 0,
                 "noise level must be non-negative")
        _require(_finite_float(self.vehicle_shift_std, "vehicle_shift_std") >= 0,
                 "vehicle shift scale must be non-negative")
        _require(isinstance(self.seed, int), "seed must be an integer")
        values = (self.global_pool_size + self.validation_size) * (self.feature_dim + 1)
        _require(values <= MAX_VALUES,
                 f"the task holds {values} feature values, more than {MAX_VALUES}")


@dataclass(frozen=True)
class LinearTask:
    """Synthetic regression task; features carry a trailing ones column."""

    x_pool: np.ndarray
    y_pool: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    w_true: np.ndarray


def generate_task(cfg: FLConfig, rng: np.random.Generator) -> LinearTask:
    """Draw the global pool, a disjoint validation set and true weights.

    Features are i.i.d. standard normal; targets are the true linear map
    plus optional gaussian label noise. With zero noise the optimal
    validation loss is exactly 0; with noise std s it is s^2/2 in
    expectation under the 0.5-MSE convention.
    """
    d = cfg.feature_dim
    w_true = rng.standard_normal(d + 1)
    n = cfg.global_pool_size + cfg.validation_size
    x = np.ones((n, d + 1))
    # drawing row chunks in order gives the values of one (n, d) draw
    rows = max(1, TASK_CHUNK_VALUES // d)
    for i in range(0, n, rows):
        x[i:i + rows, :d] = rng.standard_normal((min(rows, n - i), d))
    y = x @ w_true
    if cfg.noise_std > 0:
        y += cfg.noise_std * rng.standard_normal(n)
    return LinearTask(
        x_pool=x[:cfg.global_pool_size],
        y_pool=y[:cfg.global_pool_size],
        x_val=x[cfg.global_pool_size:],
        y_val=y[cfg.global_pool_size:],
        w_true=w_true,
    )


def mse_loss(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    r = x @ weights - y
    return 0.5 * float(r @ r) / y.size


def mse_gradient(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of mse_loss in weights. Leading axes of weights (..., d),
    x (..., n, d) and y (..., n) stack independent problems."""
    r = (x @ weights[..., None])[..., 0] - y
    return (r[..., None, :] @ x)[..., 0, :] / y.shape[-1]


def local_sgd(w: np.ndarray, x: np.ndarray, y: np.ndarray, rows: np.ndarray,
              shift: np.ndarray | None, h_steps: int, cfg: FLConfig,
              rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Run h_steps mini-batch SGD steps from the weights w (bias folded in
    as the last component) for each of a stack of W vehicles, and return
    their new weights as a (W, d + 1) array.

    Vehicle i's local dataset is x[rows[i]], y[rows[i]] (rows is (W, n)),
    with shift[i] (shift is (W, d) or None) added to every feature but
    the trailing ones column. Each step samples a fresh batch per vehicle
    uniformly without replacement from rngs[i] and gathers only its rows,
    so a vehicle's weights depend on its own stream alone. h_steps = 0
    returns copies of w. Non-finite weights raise DivergenceError.
    """
    n_stack, n_rows = rows.shape
    b = cfg.batch_size
    idx = np.empty((n_stack, b), dtype=rows.dtype)
    xb = np.empty((n_stack, b, x.shape[1]), dtype=x.dtype)
    if shift is not None:
        # 1.0 + 0.0 is exact, so the ones column is left as it is
        shift = np.pad(shift, [(0, 0), (0, 1)])[:, None, :]
    ws = np.repeat(w[None], n_stack, axis=0)
    for _ in range(h_steps):
        for i, rng in enumerate(rngs):
            idx[i] = rows[i, rng.choice(n_rows, size=b, replace=False)]
        # mode="clip" lets take write into out without a temporary
        np.take(x, idx, axis=0, out=xb, mode="clip")
        if shift is not None:
            xb += shift
        ws -= cfg.eta * mse_gradient(ws, xb, y[idx])
    if not np.all(np.isfinite(ws)):
        raise DivergenceError(
            f"local training diverged after {h_steps} steps (eta={cfg.eta})")
    return ws


def aggregate(models: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """Average weight vectors weighted by their dataset sizes.

    Computed as base + sum(frac_i * (w_i - base)), which returns a list
    of identical models exactly and keeps the weights summing to one.
    Raises ValueError on an empty round and DivergenceError on a
    non-finite average.
    """
    if not models:
        raise ValueError("cannot aggregate an empty round")
    total = sum(size for _, size in models)
    if total <= 0:
        raise ValueError("aggregation weights must be positive")
    base = models[0][0]
    out = base.copy()
    for w, size in models:
        out += (size / total) * (w - base)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("model weights are not finite")
    return out


@dataclass(frozen=True)
class FLRunResult:
    """Loss trajectory of one schedule.

    losses[k] is the validation loss of the global model at time k*t;
    l_min_curve is its running minimum. rounds_valid counts rounds with
    at least one successful upload.
    """

    schedule: Schedule
    times: np.ndarray
    losses: np.ndarray
    l_min_curve: np.ndarray
    rounds_total: int
    rounds_valid: int

    @property
    def l_min(self) -> float:
        return float(self.l_min_curve[-1])


class RunPlan(NamedTuple):
    """What a run trains, known before any dataset is drawn: its schedule,
    its round count, the round and the arrival index of each upload that
    arrives in time (ordered by round), and the work of those winners'
    data draws and local training."""

    schedule: Schedule
    rounds_total: int
    winner_round: np.ndarray
    winner: np.ndarray
    work: int


def _run_stream(cfg: FLConfig, name: str, sched: Schedule, *tags) -> np.random.Generator:
    """The stream of one run's name draws, tagged with its schedule, then tags."""
    return substream(cfg.seed, name, f"{sched.h}:{sched.t:.9g}", *tags)


def plan_runs(params: SystemParams, schedules: Sequence[Schedule],
              cfg: FLConfig) -> list[RunPlan]:
    """The runs of schedules up to the horizon and their winners, with each
    cap of an fl command checked once and before any data is drawn.

    A run without a round or of more than MAX_ARRIVALS expected arrivals,
    or more than MAX_ROWS fl_runs.csv rows or MAX_ATTEMPTS expected upload
    attempts over all the runs, is an InvalidParameterError raised before
    any plan. A run's work charges its wins and its rounds_valid + 1 loss
    evaluations; the running total over the runs is checked against
    MAX_SGD_WORK after each attempt-table block, so the winners held pass
    the cap by at most one block's.
    """
    # min keeps the floor finite; a run that reaches it fails the row cap
    rounds = [math.floor(min(cfg.horizon / s.t, MAX_ROWS)) for s in schedules]
    _require(min(rounds) >= 1, "training horizon is shorter than a single round")
    _require(sum(rounds) + len(rounds) <= MAX_ROWS,
             f"the schedules need more than {MAX_ROWS} fl_runs.csv rows")
    attempts = sum(expected_attempts(params, s.t, k) for s, k in zip(schedules, rounds))
    _require(attempts <= MAX_ATTEMPTS, f"the schedules need {attempts:.3g} expected "
             f"upload attempts, more than {MAX_ATTEMPTS}")
    most = max(expected_arrivals(params, k * s.t) for s, k in zip(schedules, rounds))
    _require(most <= MAX_ARRIVALS, f"a schedule needs {most:.3g} expected arrivals, "
             f"more than {MAX_ARRIVALS}")
    eval_work = cfg.validation_size * ((cfg.feature_dim + 1) // 2 + EVAL_ROW_WORK)
    plans, total = [], 0
    for sched, rounds_total in zip(schedules, rounds):
        arrivals = arrival_stream(params, rounds_total * sched.t,
                                  _run_stream(cfg, "arrivals", sched))
        win_work = (sched.h * (cfg.batch_size * (cfg.feature_dim + 1) + BATCH_DRAW_WORK)
                    + DATA_DRAW_WORK
                    + DATA_VALUE_WORK * (cfg.samples_per_vehicle + cfg.feature_dim))
        # keep only each block's successful rows, so memory follows the winners
        won_round, won = [], []
        work, last = eval_work, -1
        for _, _, table in attempt_blocks(params, sched, arrivals, 0, rounds_total,
                                          _run_stream(cfg, "delays", sched)):
            won_round.append(table.round[table.success])
            won.append(table.vehicle[table.success])
            # a round with winners is evaluated once, though it may span blocks
            valid = np.count_nonzero(np.diff(won_round[-1], prepend=last))
            last = won_round[-1][-1] if won_round[-1].size else last
            work += won[-1].size * win_work + valid * eval_work
            _require(total + work <= MAX_SGD_WORK, f"the schedules need {total + work} "
                     f"multiply-adds of local training, more than {MAX_SGD_WORK}")
        total += work
        plans.append(RunPlan(sched, rounds_total, np.concatenate(won_round),
                             np.concatenate(won), work))
    return plans


@functools.lru_cache(maxsize=1)
def _shared_task(cfg: FLConfig) -> LinearTask:
    """The task of cfg, built once for all the schedules of a sweep. Its
    arrays are read-only, since every run shares them."""
    task = generate_task(cfg, substream(cfg.seed, "task"))
    for values in vars(task).values():
        values.flags.writeable = False
    return task


def run_fl(plan: RunPlan, cfg: FLConfig) -> FLRunResult:
    """Train plan's winners over its rounds of the simulated timeline;
    plan is one of plan_runs' for the same cfg.

    The task is derived from the seed alone so every schedule in a sweep
    sees the same data; arrivals, delays, each vehicle's data and batch
    sampling get schedule-tagged streams so runs are independent yet
    reproducible. Local training always restarts from the current global
    model, and only the vehicles whose uploads would arrive in time are
    trained, since no other model ever reaches the aggregator. A winner
    redraws its data from its own stream, the same in every round it wins,
    and draws its batches from a stream of its own and the round's.
    A round's winners train together in stacks of at most MAX_STACK_VALUES
    values.
    """
    sched, rounds_total, winners = plan.schedule, plan.rounds_total, plan.winner
    task = _shared_task(cfg)

    bounds = np.searchsorted(plan.winner_round, np.arange(rounds_total + 1))
    stack = max(1, MAX_STACK_VALUES
                // (cfg.batch_size * (cfg.feature_dim + 1)
                    + cfg.samples_per_vehicle + cfg.feature_dim))
    w = np.zeros(cfg.feature_dim + 1)
    rounds_valid = 0

    # a diverging run, or targets too large to square, shows as an infinite
    # loss or a DivergenceError, so numpy's overflow warnings would only
    # repeat it on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        losses = [mse_loss(w, task.x_val, task.y_val)]
        for k in range(rounds_total):
            round_winners = winners[bounds[k]:bounds[k + 1]]
            if round_winners.size == 0:
                # no upload: the model and hence its loss are unchanged
                losses.append(losses[-1])
                continue
            models = []
            for i in range(0, round_winners.size, stack):
                stacked = round_winners[i:i + stack].tolist()
                data = [_run_stream(cfg, "data", sched, m) for m in stacked]
                sgd = [_run_stream(cfg, "sgd", sched, k, m) for m in stacked]
                rows = np.array([rng.choice(cfg.global_pool_size, cfg.samples_per_vehicle,
                                            replace=False) for rng in data])
                shift = None if cfg.vehicle_shift_std == 0 else cfg.vehicle_shift_std \
                    * np.array([rng.standard_normal(cfg.feature_dim) for rng in data])
                models.extend(local_sgd(w, task.x_pool, task.y_pool, rows, shift,
                                        sched.h, cfg, sgd))
            w = aggregate([(wm, cfg.samples_per_vehicle) for wm in models])
            rounds_valid += 1
            losses.append(mse_loss(w, task.x_val, task.y_val))

    losses_arr = np.asarray(losses)
    return FLRunResult(
        schedule=sched,
        times=np.arange(rounds_total + 1) * sched.t,
        losses=losses_arr,
        l_min_curve=np.minimum.accumulate(losses_arr),
        rounds_total=rounds_total,
        rounds_valid=rounds_valid,
    )


@dataclass(frozen=True)
class CorrelationReport:
    rho: float
    degenerate: bool


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    return (first + 1 + (counts - 1) / 2)[inverse]


def proxy_correlation(results: Sequence[FLRunResult],
                      params: SystemParams) -> CorrelationReport:
    """Spearman rank correlation between g(h, t) and -l_min across runs.

    Needs at least 8 distinct schedules. When either side is constant
    the correlation is undefined and the report says so instead of
    inventing a number.
    """
    if len(results) < 8:
        raise InvalidParameterError(
            "need at least 8 schedules for a rank correlation")
    g_vals = analytic.g(params, [r.schedule.h for r in results],
                        [r.schedule.t for r in results])
    score = np.array([-r.l_min for r in results])
    if np.all(g_vals == g_vals[0]) or np.all(score == score[0]):
        return CorrelationReport(math.nan, True)
    # Spearman's rho: the Pearson correlation of average ranks
    rho = float(np.corrcoef(_average_ranks(g_vals), _average_ranks(score))[1, 0])
    return CorrelationReport(rho, not math.isfinite(rho))
