"""Monte Carlo simulation of the per-round upload pipeline.

Replays the exact event timeline the closed-form model describes:
Poisson arrivals over the road section, per-round participant sets,
fresh shifted-exponential computing delays for every (vehicle, round)
attempt, and the success rule completion <= deadline. All of it lives
in one round-major attempt table (attempts), which simulate_rounds
aggregates block by block, subinterval_success_counts reads for pinned
arrivals and flsim reads for each round's winners. The per-round
success counts feed a goodness-of-fit report against the analytic
Poisson law.

A vehicle that fails in one round keeps attempting in later rounds
while it is still inside the section; each attempt restarts from the
newly distributed global model, so its computing delay is redrawn.

Sampling is inverse-CDF from Philox uniforms throughout (see rng.py),
which keeps every run reproducible from (seed, purpose tag) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import substream
from .types import InvalidParameterError, Schedule, SystemParams, _positive_int, _require

__all__ = [
    "SimConfig", "SimSummary", "PoissonFit", "Attempts",
    "sample_computing_delay", "arrival_times", "attempts", "simulate_rounds",
    "compare_to_poisson", "subinterval_success_counts",
]

# expected rows per attempt-table block in simulate_rounds: small blocks
# bound memory and stay cache-resident, and any value gives the same
# bytes, since delays are drawn sequentially
ATTEMPTS_PER_BLOCK = 2 ** 16

# simulate_rounds keeps all arrivals and two int64 counts per recorded
# round, so memory grows with the number of rounds; this caps warm-up
# plus recorded rounds (about 160 MB of counts at the cap)
MAX_ROUNDS = 10 ** 7

# arrival_times holds every arrival of a run at once; this caps the
# expected count (about 270 MB of float64)
MAX_ARRIVALS = 2 ** 25


@dataclass(frozen=True)
class SimConfig:
    seed: int = 12345
    num_rounds: int = 100_000
    warmup_rounds: int = 1

    def __post_init__(self) -> None:
        _positive_int(self.num_rounds, "number of rounds")
        _require(isinstance(self.warmup_rounds, int) and self.warmup_rounds >= 0,
                 "warmup rounds must be non-negative")
        _require(self.num_rounds + self.warmup_rounds <= MAX_ROUNDS,
                 f"number of rounds plus warmup rounds exceeds {MAX_ROUNDS}")
        _require(isinstance(self.seed, int), "seed must be an integer")


@dataclass(frozen=True)
class SimSummary:
    """Aggregated outcome of one simulation run.

    histogram[k] is the number of recorded rounds with exactly k
    successes; participants/successes hold the per-round counts.
    """

    num_rounds: int
    histogram: np.ndarray
    participants: np.ndarray
    successes: np.ndarray
    empirical_mean_msuc: float
    empirical_p_positive: float

    def frequencies(self) -> np.ndarray:
        return self.histogram / self.num_rounds


@dataclass(frozen=True)
class PoissonFit:
    """Fit of an empirical success-count histogram to a Poisson law."""

    lambda_analytic: float
    mean_empirical: float
    mean_rel_error: float
    tv_distance: float
    p_pos_analytic: float
    p_pos_empirical: float
    p_pos_error: float
    support: np.ndarray
    empirical_freq: np.ndarray
    pmf: np.ndarray


def sample_computing_delay(params: SystemParams, h: int, rng: np.random.Generator,
                           size: int) -> np.ndarray:
    """Draw size computing delays alpha*h - beta*h*ln(1 - U), U uniform [0,1).

    Support is [alpha*h, inf) with mean alpha*h + beta*h.
    """
    return params.alpha * h + params.beta * h * (-np.log1p(-rng.random(size)))


def arrival_times(params: SystemParams, horizon: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Poisson arrival instants on (-t0, horizon), strictly increasing.

    Starting a dwell time before zero populates round 0's participant
    window correctly. More than MAX_ARRIVALS expected arrivals is an
    InvalidParameterError, raised before anything is drawn.
    """
    _require(horizon > 0, "horizon must be positive")
    rate = params.arrival_rate
    if rate == 0:
        return np.empty(0)
    start = -params.dwell_time
    span = horizon - start
    _require(rate * span <= MAX_ARRIVALS,
             f"{rate * span:.3g} expected arrivals, more than {MAX_ARRIVALS}")
    chunk = max(256, int(rate * span * 1.1) + 64)
    pieces = []
    current = start
    while True:
        gaps = -np.log1p(-rng.random(chunk)) / rate
        times = current + np.cumsum(gaps)
        inside = times[times < horizon]
        pieces.append(inside)
        if inside.size < times.size:
            break
        current = times[-1]
    return np.concatenate(pieces)


class Attempts(NamedTuple):
    """One row per (vehicle, round) upload attempt, ordered by round and
    then by arrival. vehicle indexes the arrival array."""

    vehicle: np.ndarray
    round: np.ndarray
    start: np.ndarray
    tau_cp: np.ndarray
    completion: np.ndarray
    deadline: np.ndarray
    success: np.ndarray


def attempts(params: SystemParams, sched: Schedule, arrivals: np.ndarray,
             k_begin: int, k_end: int, delay_rng: np.random.Generator) -> Attempts:
    """Attempt table of rounds k_begin <= k < k_end.

    Round k's participants are the vehicles with arrival z in
    (k*t - t0, (k+1)*t). Each draws a fresh computing delay, finishes at
    max(k*t, z) + tau_down + tau_cp + tau_up and succeeds iff that is no
    later than min(z + t0, (k+1)*t). Delays are drawn in row order, so
    building consecutive blocks consumes delay_rng exactly as one table
    over their union would.
    """
    t, t0 = sched.t, params.dwell_time
    k = np.arange(k_begin, k_end)
    first = np.searchsorted(arrivals, k * t - t0, side="right")
    counts = np.searchsorted(arrivals, (k + 1) * t, side="left") - first
    rnd = np.repeat(k, counts)
    vehicle = np.arange(rnd.size) + np.repeat(first - (np.cumsum(counts) - counts),
                                              counts)
    z = arrivals[vehicle]
    start = np.maximum(rnd * t, z)
    tau_cp = sample_computing_delay(params, sched.h, delay_rng, rnd.size)
    completion = start + params.tau_down + tau_cp + params.tau_up
    deadline = np.minimum(z + t0, (rnd + 1) * t)
    return Attempts(vehicle, rnd, start, tau_cp, completion, deadline,
                    completion <= deadline)


def simulate_rounds(params: SystemParams, sched: Schedule,
                    cfg: SimConfig) -> SimSummary:
    """Simulate warmup + num_rounds rounds and aggregate success counts.

    The attempt table (see attempts) is built in blocks of rounds holding
    about ATTEMPTS_PER_BLOCK rows each, so memory stays bounded whatever
    num_rounds is. Warm-up rounds only shape the arrival stream; they
    are neither recorded nor given delays.
    """
    k_total = cfg.warmup_rounds + cfg.num_rounds
    arrivals = arrival_times(params, k_total * sched.t,
                             substream(cfg.seed, "arrivals"))
    delay_rng = substream(cfg.seed, "delays")
    per_round = params.arrival_rate * (sched.t + params.dwell_time)
    block = max(1, int(ATTEMPTS_PER_BLOCK / max(per_round, 1.0)))

    m_k = np.zeros(cfg.num_rounds, dtype=np.int64)
    m_suc = np.zeros(cfg.num_rounds, dtype=np.int64)
    for k_begin in range(cfg.warmup_rounds, k_total, block):
        k_end = min(k_begin + block, k_total)
        table = attempts(params, sched, arrivals, k_begin, k_end, delay_rng)
        rel = table.round - k_begin
        rows = slice(k_begin - cfg.warmup_rounds, k_end - cfg.warmup_rounds)
        m_k[rows] = np.bincount(rel, minlength=k_end - k_begin)
        m_suc[rows] = np.bincount(rel[table.success], minlength=k_end - k_begin)

    return SimSummary(
        num_rounds=cfg.num_rounds,
        histogram=np.bincount(m_suc),
        participants=m_k,
        successes=m_suc,
        empirical_mean_msuc=float(m_suc.mean()),
        empirical_p_positive=float((m_suc > 0).mean()),
    )


def _poisson_pmf(k: np.ndarray, lam: float) -> np.ndarray:
    """Poisson(lam) pmf at the integers k, lam > 0, as exp of the log-pmf."""
    log_fact = np.array([math.lgamma(i + 1.0) for i in k.tolist()])
    return np.exp(k * math.log(lam) - log_fact - lam)


def compare_to_poisson(summary: SimSummary, lambda_analytic: float) -> PoissonFit:
    """Goodness of fit between the empirical histogram and Poisson(lam).

    tv_distance is the total-variation distance 0.5 * sum |freq - pmf|
    over the support where either side exceeds 1e-9.
    """
    if summary.num_rounds < 1:
        raise InvalidParameterError("summary holds no rounds")
    n_emp = summary.histogram.size - 1
    if lambda_analytic > 0:
        # lam + 10 sqrt(lam) + 40 lies beyond the 1 - 1e-12 quantile for
        # every lam (Bernstein bound), so the cumulative sum reaches the tail
        reach = int(lambda_analytic + 10 * math.sqrt(lambda_analytic)) + 40
        pmf = _poisson_pmf(np.arange(max(n_emp, reach) + 1), lambda_analytic)
        tail = int(np.searchsorted(np.cumsum(pmf), 1.0 - 1e-12)) + 2
        pmf = pmf[:max(n_emp, tail) + 1]
    else:
        pmf = (np.arange(n_emp + 1) == 0).astype(float)
    support = np.arange(pmf.size)
    mask = pmf >= 1e-9
    mask[:n_emp + 1] = True
    support = support[mask]
    pmf = pmf[mask]
    freq = np.zeros_like(pmf)
    freq[:n_emp + 1] = summary.frequencies()

    tv = 0.5 * float(np.abs(freq - pmf).sum())
    mean_emp = summary.empirical_mean_msuc
    if lambda_analytic > 0:
        mean_rel = abs(mean_emp - lambda_analytic) / lambda_analytic
    else:
        mean_rel = 0.0 if mean_emp == 0 else math.inf
    p_pos = -math.expm1(-lambda_analytic)
    return PoissonFit(
        lambda_analytic=lambda_analytic,
        mean_empirical=mean_emp,
        mean_rel_error=mean_rel,
        tv_distance=tv,
        p_pos_analytic=p_pos,
        p_pos_empirical=summary.empirical_p_positive,
        p_pos_error=abs(summary.empirical_p_positive - p_pos),
        support=support,
        empirical_freq=freq,
        pmf=pmf,
    )


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
