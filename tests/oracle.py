"""Independent references for the tests: a brute-force grid search for
the optimizer, the success slack, one-shot arrival times for the
arrival stream, the success probability given the arrival instant,
the sub-interval success probabilities and
pinned-arrival success counts that check them, the upload rule applied
row by row for the attempt table, step-by-step local training for the
SGD of one vehicle, a value-by-value CSV formatter for the row
templates, the t grid's count taken with np.arange and the work an fl
run is charged. No CLI path uses them."""

from __future__ import annotations

import math

import numpy as np

from roadfl import analytic, flsim, mcsim
from roadfl.optimizer import OptimizationResult, h_max
from roadfl.types import (
    MAX_ROWS,
    ConfigError,
    FLConfig,
    InfeasibleError,
    Schedule,
    SystemParams,
)


def slack(params: SystemParams, h, t):
    """The success slack xi(h, t) = min(t, t0) - t_min(h); no upload
    succeeds where it is <= 0."""
    return (np.minimum(np.asarray(t, dtype=float), params.dwell_time)
            - analytic.t_min(params, h))[()]


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
        raise InfeasibleError(
            "grid step larger than every feasible search interval")
    best = max(table, key=lambda row: row[2])  # max keeps the first maximum
    return OptimizationResult(*best, tuple(map(np.array, zip(*table))), steps)


def arrival_times(params: SystemParams, horizon: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Poisson arrival instants on (-t0, horizon) in one array: every gap
    -log1p(-U) / rate drawn at once and summed by one np.cumsum, which is
    what mcsim.attempt_blocks draws a chunk at a time."""
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


def success_given_arrival(params: SystemParams, h: int, t: float, z) -> np.ndarray:
    """P(a round-0 upload arrives in time | the vehicle arrives at z), for
    an array of z: the shifted-exponential delay CDF at the budget
    min(z + t0, t) - max(z, 0) - tau_down - tau_up, which is 0 outside
    the participation window (-t0, t). Round k's is this at z - k*t, and
    lam(h, t) is rate times its integral over z."""
    budget = (np.minimum(np.asarray(z, dtype=float) + params.dwell_time, t)
              - np.maximum(z, 0.0) - params.tau_down - params.tau_up - params.alpha * h)
    return -np.expm1(-np.maximum(budget, 0.0) / (params.beta * h))


def subinterval_probs(params: SystemParams, h, t):
    """Success probability conditioned on where in the round window the
    vehicle arrives.

    A round-k participant arrives in (k*t - t0, (k+1)*t), which splits
    into three sub-intervals: arrivals that can only be cut short by
    departure, arrivals limited by neither boundary within the slack,
    and arrivals that can only be cut short by the round end. For
    t >= t0 the sub-interval measures are (t0, t - t0, t0); for t < t0
    the roles mirror and the measures are (t, t0 - t, t).

    Returns (p1, p2, p3) with

        p1 = p3 = (xi - beta*h*(1 - exp(-xi/(beta*h)))) / min(t, t0)
        p2 = 1 - exp(-xi/(beta*h))

    and the identity
        rate * min(t,t0) * (p1 + p3) + rate * |t - t0| * p2 == lam(h, t).
    """
    xi_v = slack(params, h, t)
    if np.any(xi_v <= 0):
        raise InfeasibleError(
            "sub-interval probabilities undefined: no success window (xi <= 0)")
    bh = params.beta * np.asarray(h, dtype=float)
    p2 = (-np.expm1(-xi_v / bh))[()]
    p13 = ((xi_v - bh * p2) / np.minimum(np.asarray(t, dtype=float),
                                         params.dwell_time))[()]
    return p13, p2, p13


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
        out[i] = int(mcsim.attempts(params, sched, z, 0, 1, rng).success.sum())
    return out


def upload_rule_rows(params: SystemParams, sched: Schedule, arrivals: np.ndarray,
                     k_begin: int, k_end: int, delay_rng: np.random.Generator
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mcsim.attempts written out one row at a time: the (vehicle, round,
    success) rows of rounds k_begin <= k < k_end.

    Round k's rows are the arrivals z with k*t - t0 < z < (k+1)*t, in
    arrival order. The rows' delays tau are one
    mcsim.sample_computing_delay draw of the row count, and a row succeeds
    iff max(k*t, z) + tau_down + tau + tau_up <= min(z + t0, (k+1)*t).
    """
    t, t0 = sched.t, params.dwell_time
    z_all = arrivals.tolist()
    vehicle, rnd = [], []
    for k in range(k_begin, k_end):
        for m, z in enumerate(z_all):
            if k * t - t0 < z < (k + 1) * t:
                vehicle.append(m)
                rnd.append(k)
    delays = mcsim.sample_computing_delay(params, sched.h, delay_rng, len(rnd)).tolist()
    success = [max(k * t, z_all[m]) + params.tau_down + tau + params.tau_up
               <= min(z_all[m] + t0, (k + 1) * t)
               for m, k, tau in zip(vehicle, rnd, delays)]
    return (np.array(vehicle, dtype=np.int64), np.array(rnd, dtype=np.int64),
            np.array(success, dtype=bool))


def local_sgd_one_vehicle(w: np.ndarray, x: np.ndarray, y: np.ndarray,
                          rows: np.ndarray, shift: np.ndarray | None,
                          h_steps: int, cfg: FLConfig,
                          rng: np.random.Generator) -> np.ndarray:
    """flsim.local_sgd written out, one step and one matrix-vector gradient
    at a time, shifting a gathered copy of the batch: rows is (n,), shift
    (d,) or None, and the result (d + 1,). Given the vehicle's stream, it
    draws the batches flsim.local_sgd must draw."""
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


def parse_t_grid_with_arange(text: str) -> tuple[float, float, int]:
    """cli._parse_t_grid with its last two candidates start + step * k
    taken from one np.arange, which the CLI computes in Python floats:
    (start, step, count), or the ConfigError the CLI raises."""
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
    candidates = math.floor(max(span, -1.0)) + 2
    last = start + step * np.arange(max(candidates - 2, 0), candidates)
    count = candidates - int(np.count_nonzero(last > limit))
    if count == 0:
        raise ConfigError("t grid is empty")
    return start, step, count


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
