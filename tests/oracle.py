"""Independent references for the tests: a brute-force grid search for
the optimizer, one-shot arrival times for the arrival stream,
pinned-arrival success counts for the sub-interval law,
one-vehicle-at-a-time local training for the stacked SGD, a
value-by-value CSV formatter for the row templates and the work an fl
run is charged. No CLI path uses them."""

from __future__ import annotations

import math

import numpy as np

from roadfl import analytic, flsim
from roadfl.flsim import FLConfig
from roadfl.mcsim import attempts
from roadfl.optimizer import OptimizationResult, h_max
from roadfl.types import InfeasibleEnvironmentError, Schedule, SystemParams


def scan_round_lengths(params: SystemParams, h: int,
                       grid_step: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """Dense grid of round lengths for one h and g evaluated on it.

    Grid points are t_min + k*grid_step for k >= 1, up to t_max. May be
    empty when the interval is narrower than the step.
    """
    lo = analytic.t_min(params, h)
    hi = analytic.t_max(params, h)
    n = int(math.floor((hi - lo) / grid_step + 1e-12))
    ts = lo + grid_step * np.arange(1, n + 1)
    ts = ts[ts <= hi]
    if ts.size == 0:
        return ts, ts
    return ts, analytic.g(params, h, ts)


def brute_force_argmax(params: SystemParams,
                       grid_step: float = 0.01) -> OptimizationResult:
    """Exhaustive scan over h and a grid of t spaced grid_step seconds.

    Deterministic: the first grid maximum wins within each h, and the
    smallest h among equal maxima. search_steps counts grid points.
    """
    table = []
    steps = 0
    for h in range(1, h_max(params) + 1):
        ts, gs = scan_round_lengths(params, h, grid_step)
        if ts.size == 0:
            continue
        steps += ts.size
        i = int(np.argmax(gs))
        table.append((h, float(ts[i]), float(gs[i])))
    if not table:
        raise InfeasibleEnvironmentError(
            "grid step larger than every feasible search interval")
    best = max(table, key=lambda row: row[2])  # max keeps the first maximum
    return OptimizationResult(*best, tuple(table), steps)


def arrival_times(params: SystemParams, horizon: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Poisson arrival instants on (-t0, horizon) in one array: every gap
    -log1p(-U) / rate drawn at once and summed by one np.cumsum, which is
    what mcsim.arrival_stream computes a chunk at a time."""
    rate = params.arrival_rate
    if rate == 0:
        return np.empty(0)
    expected = rate * (horizon + params.dwell_time)
    # 10 standard deviations over the expected count: the draw falls short
    # of the horizon with a chance far below 1e-20
    draws = int(expected + 10 * math.sqrt(expected)) + 100
    gaps = -np.log1p(-rng.random(draws)) / rate
    times = np.cumsum(gaps) - params.dwell_time
    assert times[-1] >= horizon, "the one-shot draw fell short of the horizon"
    return times[times < horizon]


def subinterval_success_counts(params: SystemParams, sched: Schedule,
                               n_per_interval: int,
                               rng: np.random.Generator) -> np.ndarray:
    """Empirical success counts for arrivals pinned to each sub-interval.

    Draws n_per_interval round-0 arrivals uniformly inside each of the
    three sub-intervals of the participant window (-t0, t) and reads
    their round-0 rows of the attempt table. Conditioning a Poisson process on a sub-interval makes
    arrivals uniform there, so counts/n estimates the per-sub-interval
    success probabilities.
    """
    t, t0 = sched.t, params.dwell_time
    if t >= t0:
        bounds = [(-t0, 0.0), (0.0, t - t0), (t - t0, t)]
    else:
        bounds = [(-t0, t - t0), (t - t0, 0.0), (0.0, t)]
    out = np.zeros(3, dtype=np.int64)
    for i, (a, b) in enumerate(bounds):
        z = np.sort(a + (b - a) * rng.random(n_per_interval))
        out[i] = int(attempts(params, sched, z, 0, 1, rng).success.sum())
    return out


def local_sgd_one_vehicle(w: np.ndarray, x: np.ndarray, y: np.ndarray,
                          rows: np.ndarray, shift: np.ndarray | None,
                          h_steps: int, cfg: FLConfig,
                          rng: np.random.Generator) -> np.ndarray:
    """flsim.local_sgd for a single vehicle, one step and one matrix-vector
    gradient at a time: rows is (n,), shift (d,) or None, and the result
    (d + 1,). Given vehicle i's stream, it draws the batches the stacked
    version must draw for vehicle i."""
    w = w.copy()
    for _ in range(h_steps):
        batch = rows[rng.choice(rows.size, size=cfg.batch_size, replace=False)]
        xb = x[batch]
        if shift is not None:
            xb[:, :-1] += shift
        w -= cfg.eta * (xb.T @ (xb @ w - y[batch]) / batch.size)
    return w


def format_csv_value(value) -> str:
    """One CSV value as the CLI prints it, chosen by the value's type:
    bools as 0/1, integers in full, floats with 9 significant digits and
    nan as nan."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.9g}"
    return str(value)


def fl_work(h: int, cfg: FLConfig, winners: float, rounds_valid: float) -> float:
    """The work of an fl run of h local steps, as the README's caps list
    states it: each win's data draw and training, and rounds_valid + 1
    validation-loss evaluations. Expected winners and valid rounds give
    the expected work."""
    win = (h * (cfg.batch_size * (cfg.feature_dim + 1) + flsim.BATCH_DRAW_WORK)
           + flsim.DATA_DRAW_WORK
           + flsim.DATA_VALUE_WORK * (cfg.samples_per_vehicle + cfg.feature_dim))
    evaluation = cfg.validation_size * ((cfg.feature_dim + 1) // 2 + flsim.EVAL_ROW_WORK)
    return winners * win + (rounds_valid + 1) * evaluation
