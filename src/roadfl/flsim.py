"""Synthetic federated training over the simulated vehicle timeline.

The learning task is linear regression with mean-squared-error loss
under the 0.5*||.||^2 convention: convex, with a computable optimum, so
grid sweeps over schedules stay cheap and every claim about the loss is
checkable. Each arriving vehicle receives a fixed-size sample of the
global pool. Each round's winners are read from mcsim's attempt table,
so training follows exactly the timing rules of the Monte Carlo replay;
the winners' locally trained models are averaged by dataset size, and
rounds with no success leave the global model unchanged.

The headline metric of a run is the running minimum of the validation
loss over round boundaries, evaluated up to the training horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import analytic
from .mcsim import arrival_times, attempt_blocks
# perfbench/tracer.py counts delay draws by patching this name
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
    "run_fl", "proxy_correlation",
]

# run_fl holds the task and every arriving vehicle's sample indices and
# shift at once; this caps the values of each (about 270 MB of float64)
MAX_VALUES = 2**25


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
    x = np.hstack([rng.standard_normal((n, d)), np.ones((n, 1))])
    y = x @ w_true
    if cfg.noise_std > 0:
        y = y + cfg.noise_std * rng.standard_normal(n)
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
    return x.T @ (x @ weights - y) / y.size


def local_sgd(w: np.ndarray, x: np.ndarray, y: np.ndarray, rows: np.ndarray,
              shift: np.ndarray | None, h_steps: int, cfg: FLConfig,
              rng: np.random.Generator) -> np.ndarray:
    """Run h_steps mini-batch SGD steps from the weights w (bias folded in
    as the last component) and return the new weights.

    The local dataset is x[rows], y[rows], with shift (if not None) added
    to every feature but the trailing ones column. Each step samples a
    fresh batch uniformly without replacement and gathers only its rows.
    h_steps = 0 returns the model unchanged. Non-finite weights raise
    DivergenceError.
    """
    w = w.copy()
    for _ in range(h_steps):
        batch = rows[rng.choice(rows.size, size=cfg.batch_size, replace=False)]
        xb = x[batch]
        if shift is not None:
            xb[:, :-1] += shift
        w -= cfg.eta * mse_gradient(w, xb, y[batch])
    if not np.all(np.isfinite(w)):
        raise DivergenceError(
            f"local training diverged after {h_steps} steps (eta={cfg.eta})")
    return w


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


def run_fl(params: SystemParams, sched: Schedule, cfg: FLConfig) -> FLRunResult:
    """Train over floor(horizon / t) rounds of the simulated timeline.

    The task is derived from the seed alone so every schedule in a sweep
    sees the same data; arrivals, delays, data assignment and batch
    sampling get schedule-tagged streams so runs are independent yet
    reproducible. Local training always restarts from the current global
    model, and only the vehicles whose uploads would arrive in time are
    trained, since no other model ever reaches the aggregator. More than
    MAX_VALUES sample indices and shifts over all arrivals is an
    InvalidParameterError, raised before any dataset is drawn.
    """
    rounds_total = int(math.floor(cfg.horizon / sched.t))
    if rounds_total < 1:
        raise InvalidParameterError(
            "training horizon is shorter than a single round")

    task = generate_task(cfg, substream(cfg.seed, "task"))
    tag = f"{sched.h}:{sched.t:.9g}"
    arrivals = arrival_times(params, rounds_total * sched.t,
                             substream(cfg.seed, "arrivals", tag))
    values = arrivals.size * (cfg.samples_per_vehicle + cfg.feature_dim)
    _require(values <= MAX_VALUES,
             f"{arrivals.size} vehicles hold {values} sample values, more than {MAX_VALUES}")
    # keep only each block's successful rows, so memory follows the winners
    won = [(table.round[table.success], table.vehicle[table.success])
           for _, _, table in attempt_blocks(params, sched, arrivals, 0, rounds_total,
                                             substream(cfg.seed, "delays", tag))]
    data_rng = substream(cfg.seed, "data", tag)
    sgd_rng = substream(cfg.seed, "sgd", tag)

    datasets = []
    for _ in range(arrivals.size):
        idx = data_rng.choice(cfg.global_pool_size, size=cfg.samples_per_vehicle,
                              replace=False)
        shift = cfg.vehicle_shift_std * data_rng.standard_normal(cfg.feature_dim) \
            if cfg.vehicle_shift_std > 0 else None
        datasets.append((idx, shift))

    winners = np.concatenate([vehicle for _, vehicle in won])
    bounds = np.searchsorted(np.concatenate([rnd for rnd, _ in won]),
                             np.arange(rounds_total + 1))
    w = np.zeros(cfg.feature_dim + 1)
    losses = [mse_loss(w, task.x_val, task.y_val)]
    rounds_valid = 0

    for k in range(rounds_total):
        round_winners = winners[bounds[k]:bounds[k + 1]]
        if round_winners.size == 0:
            # no upload: the model and hence its loss are unchanged
            losses.append(losses[-1])
            continue
        w = aggregate([(local_sgd(w, task.x_pool, task.y_pool, *datasets[m],
                                  sched.h, cfg, sgd_rng),
                        cfg.samples_per_vehicle)
                       for m in round_winners])
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
