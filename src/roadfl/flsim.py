"""Synthetic federated training over the simulated vehicle timeline.

The learning task is linear regression with mean-squared-error loss
under the 0.5*||.||^2 convention: convex, with a computable optimum, so
grid sweeps over schedules stay cheap and every claim about the loss is
checkable. A winner's local data is a fixed-size sample of the global
pool from its own stream. Each round's winners are read from mcsim's
attempt table, so training follows exactly the timing rules of the Monte
Carlo replay; the winners' locally trained models get equal weights
(every winner holds samples_per_vehicle rows, so FedAvg's size weights
are equal), and rounds with no success leave the model unchanged.

The task, a global pool and a validation set, is built once per fl
command by generate_task and passed to every run_fl call; its arrays
are read-only, since every run of the command shares them.

A run returns its validation loss at each round boundary up to the
training horizon. Its headline metric is the running minimum of that
curve, which cli writes next to each loss and ranks against g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import analytic
from .mcsim import attempt_blocks, check_runs
# unused here: delays are drawn in mcsim.attempts, but perfbench/tracer.py
# patches this attribute when it installs, so the import stays
from .mcsim import sample_computing_delay  # noqa: F401
from .rng import substream
from .types import (
    MAX_ROWS,
    DivergenceError,
    FLConfig,
    Schedule,
    SystemParams,
    _require,
)

__all__ = [
    "LinearTask", "generate_task", "mse_loss", "local_sgd", "aggregate",
    "RunPlan", "plan_runs", "run_fl", "proxy_correlation",
]

# generate_task draws the task's features this many values at a time
TASK_CHUNK_VALUES = 2**15
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
class LinearTask:
    """Synthetic regression task; features carry a trailing ones column."""

    x_pool: np.ndarray
    y_pool: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray


def generate_task(cfg: FLConfig) -> LinearTask:
    """Draw the global pool and a disjoint validation set, as read-only
    arrays, from the "task" stream of cfg.seed.

    The true weights are the stream's first d + 1 standard normals.
    Features are i.i.d. standard normal; targets are the true linear map
    plus optional gaussian label noise. With zero noise the optimal
    validation loss is exactly 0; with noise std s it is s^2/2 in
    expectation under the 0.5-MSE convention.
    """
    rng = substream(cfg.seed, "task")
    d = cfg.feature_dim
    w_true = rng.standard_normal(d + 1)
    n = cfg.global_pool_size + cfg.validation_size
    x = np.ones((n, d + 1))
    # drawing row chunks in order gives the values of one (n, d) draw
    rows = max(1, TASK_CHUNK_VALUES // d)
    for i in range(0, n, rows):
        x[i:i + rows, :d] = rng.standard_normal((min(rows, n - i), d))
    # targets too large for a float show as an infinite loss or a
    # DivergenceError in run_fl, so numpy's overflow warning would only
    # repeat it on stderr
    with np.errstate(over="ignore"):
        y = x @ w_true
        if cfg.noise_std > 0:
            y += cfg.noise_std * rng.standard_normal(n)
    x.flags.writeable = y.flags.writeable = False
    return LinearTask(
        x_pool=x[:cfg.global_pool_size],
        y_pool=y[:cfg.global_pool_size],
        x_val=x[cfg.global_pool_size:],
        y_val=y[cfg.global_pool_size:],
    )


def mse_loss(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    r = x @ weights - y
    return 0.5 * float(r @ r) / y.size


def mse_gradient(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of mse_loss in weights."""
    return (x @ weights - y) @ x / y.size


def local_sgd(w: np.ndarray, x: np.ndarray, y: np.ndarray, rows: np.ndarray,
              shift: np.ndarray | None, h_steps: int, cfg: FLConfig,
              rng: np.random.Generator) -> np.ndarray:
    """Run h_steps mini-batch SGD steps from the weights w (bias folded in
    as the last component) for one vehicle, and return its new weights.

    The vehicle's local dataset is x[rows], y[rows], with shift (d,) or
    None added to every feature but the trailing ones column. Each step
    samples a fresh batch uniformly without replacement from rng and
    gathers only its rows. h_steps = 0 returns a copy of w. Non-finite
    weights raise DivergenceError.
    """
    b = cfg.batch_size
    xb = np.empty((b, x.shape[1]), dtype=x.dtype)
    if shift is not None:
        # one shift row per batch row, built once: a same-shape add runs
        # faster than a broadcast one. 1.0 + 0.0 is exact, so the ones
        # column is left as it is
        shift = np.tile(np.append(shift, 0.0), (b, 1))
    w = w.copy()
    for _ in range(h_steps):
        idx = rows[rng.choice(rows.size, size=b, replace=False)]
        # mode="clip" lets take write into out without a temporary
        x.take(idx, axis=0, out=xb, mode="clip")
        if shift is not None:
            xb += shift
        w -= cfg.eta * mse_gradient(w, xb, y[idx])
    if not np.all(np.isfinite(w)):
        raise DivergenceError(
            f"local training diverged after {h_steps} steps (eta={cfg.eta})")
    return w


def aggregate(models: Sequence[np.ndarray]) -> np.ndarray:
    """Average a round's weight vectors, each with the weight 1 / len(models).

    Computed as base + sum((1 / n) * (w_i - base)), which returns a list
    of identical models exactly; the round holds at least one. Raises
    DivergenceError on a non-finite average.
    """
    weight = 1 / len(models)
    base = models[0]
    out = base.copy()
    for w in models:
        out += weight * (w - base)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("model weights are not finite")
    return out


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

    A run without a round, more than MAX_ROWS fl_runs.csv rows over all
    the runs, then mcsim.check_runs' caps on their attempts and arrivals,
    are ConfigErrors raised before any plan. A run's work charges its wins
    and its rounds_valid + 1 loss evaluations; the running total over the
    runs is checked against MAX_SGD_WORK after each attempt-table block,
    so the winners held pass the cap by at most one block's.
    """
    # min keeps the floor finite; a run that reaches it fails the row cap
    rounds = [math.floor(min(cfg.horizon / s.t, MAX_ROWS)) for s in schedules]
    _require(min(rounds) >= 1, "training horizon is shorter than a single round")
    _require(sum(rounds) + len(rounds) <= MAX_ROWS,
             f"the schedules need more than {MAX_ROWS} fl_runs.csv rows")
    check_runs(params, list(zip(schedules, rounds)))
    eval_work = cfg.validation_size * ((cfg.feature_dim + 1) // 2 + EVAL_ROW_WORK)
    plans, total = [], 0
    for sched, rounds_total in zip(schedules, rounds):
        win_work = (sched.h * (cfg.batch_size * (cfg.feature_dim + 1) + BATCH_DRAW_WORK)
                    + DATA_DRAW_WORK
                    + DATA_VALUE_WORK * (cfg.samples_per_vehicle + cfg.feature_dim))
        # keep only each block's successful rows, so memory follows the winners
        won_round, won = [], []
        work, last = eval_work, -1
        for _, _, table in attempt_blocks(params, sched, rounds_total,
                                          _run_stream(cfg, "arrivals", sched),
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


def run_fl(plan: RunPlan, task: LinearTask, cfg: FLConfig) -> np.ndarray:
    """Train plan's winners on task over its rounds of the simulated
    timeline; plan is one of plan_runs' and task generate_task's for the
    same cfg. Returns the validation loss of the global model at each of
    the rounds_total + 1 round boundaries, losses[k] at time k*t.

    The caller passes every schedule of a sweep the same task, so all
    see the same data; arrivals, delays, each vehicle's data and batch
    sampling get schedule-tagged streams so runs are independent yet
    reproducible. Local training always restarts from the current global
    model, and only the vehicles whose uploads would arrive in time are
    trained, since no other model ever reaches the aggregator. A winner
    redraws its data from its own stream, the same in every round it wins,
    and draws its batches from a stream of its own and the round's.
    """
    sched, rounds_total, winners = plan.schedule, plan.rounds_total, plan.winner
    bounds = np.searchsorted(plan.winner_round, np.arange(rounds_total + 1))
    w = np.zeros(cfg.feature_dim + 1)

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
            for m in round_winners.tolist():
                data = _run_stream(cfg, "data", sched, m)
                rows = data.choice(cfg.global_pool_size, cfg.samples_per_vehicle,
                                   replace=False)
                shift = None if cfg.vehicle_shift_std == 0 else \
                    cfg.vehicle_shift_std * data.standard_normal(cfg.feature_dim)
                models.append(local_sgd(w, task.x_pool, task.y_pool, rows, shift, sched.h,
                                        cfg, _run_stream(cfg, "sgd", sched, k, m)))
            w = aggregate(models)
            losses.append(mse_loss(w, task.x_val, task.y_val))
    return np.asarray(losses)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    return (first + 1 + (counts - 1) / 2)[inverse]


def proxy_correlation(schedules: Sequence[Schedule], l_min: Sequence[float],
                      params: SystemParams) -> float:
    """Spearman rank correlation between g(h, t) of schedules and -l_min,
    the minimum validation loss of each schedule's run.

    The caller passes at least 8 runs. When either side is constant, as
    with 8 copies of one run, the correlation is undefined and it is nan
    instead of an invented number.
    """
    g_vals = analytic.g(params, [s.h for s in schedules], [s.t for s in schedules])
    score = -np.asarray(l_min, dtype=float)
    if np.all(g_vals == g_vals[0]) or np.all(score == score[0]):
        return math.nan
    # Spearman's rho: the Pearson correlation of average ranks
    return float(np.corrcoef(_average_ranks(g_vals), _average_ranks(score))[1, 0])
