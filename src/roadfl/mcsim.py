"""Monte Carlo simulation of the per-round upload pipeline.

Replays the exact event timeline the closed-form model describes:
Poisson arrivals over the road section, per-round participant sets,
fresh shifted-exponential computing delays for every (vehicle, round)
attempt, and the success rule completion <= deadline. All of it lives
in one round-major attempt table (attempts), built in blocks of rounds
(attempt_blocks), which simulate_rounds folds into a histogram of
per-round success counts and flsim reads for each round's winners. The
histogram alone feeds a goodness-of-fit report against the analytic
Poisson law.

A vehicle that fails in one round keeps attempting in later rounds
while it is still inside the section; each attempt restarts from the
newly distributed global model, so its computing delay is redrawn.

Sampling is inverse-CDF from Philox uniforms throughout (see rng.py),
which keeps every run reproducible from (seed, purpose tag) alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .rng import substream
from .types import InvalidParameterError, Schedule, SystemParams, _positive_int, _require

__all__ = [
    "SimConfig", "PoissonFit", "Attempts", "sample_computing_delay",
    "arrival_times", "expected_attempts", "attempts", "attempt_blocks",
    "simulate_rounds", "compare_to_poisson",
]

# expected rows per attempt-table block in attempt_blocks: small blocks
# bound memory and stay cache-resident, and any value gives the same
# bytes, since delays are drawn sequentially
ATTEMPTS_PER_BLOCK = 2 ** 16

# caps warm-up plus recorded rounds; it bounds time, not memory, since
# a block of attempt_blocks holds at most ATTEMPTS_PER_BLOCK rounds and
# simulate_rounds keeps only the success histogram of the recorded ones
MAX_ROUNDS = 10 ** 7

# arrival_times holds every arrival of a run at once, in one float64
# buffer of 1.1 times the expected count; this caps that count (a peak
# of about 300 MB at the cap)
MAX_ARRIVALS = 2 ** 25

# attempt_blocks draws a delay for every (vehicle, round) attempt; this caps
# the expected attempts of validate and of a whole fl command (about 5 s at
# the 26M attempts/s a 4e7-attempt fl plan ran at on a shared 2-vCPU machine)
MAX_ATTEMPTS = 2 ** 27


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
class PoissonFit:
    """Fit of an empirical success-count histogram to a Poisson law."""

    lambda_analytic: float
    mean_empirical: float
    mean_rel_error: float
    tv_distance: float
    p_pos_analytic: float
    p_pos_empirical: float
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
        # gaps -log1p(-U) / rate and their running sum, all in the one
        # buffer, so the peak stays near the array returned
        times = rng.random(chunk)
        np.negative(times, out=times)
        np.log1p(times, out=times)
        times /= -rate
        np.cumsum(times, out=times)
        times += current
        inside = times[:np.searchsorted(times, horizon)]
        pieces.append(inside)
        if inside.size < times.size:
            break
        current = times[-1]
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def expected_attempts(params: SystemParams, t: float, rounds: int) -> float:
    """Expected rows of the attempt table of rounds rounds of length t."""
    return rounds * params.arrival_rate * (t + params.dwell_time)


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


def attempt_blocks(params: SystemParams, sched: Schedule, arrivals: np.ndarray,
                   k_begin: int, k_end: int, delay_rng: np.random.Generator
                   ) -> Iterator[tuple[int, int, Attempts]]:
    """The attempt table of rounds k_begin <= k < k_end, in consecutive
    blocks of rounds holding about ATTEMPTS_PER_BLOCK rows each.

    Yields (block begin, block end, table of that block), drawing delays as
    one table over all the rounds would; a round of more rows comes as
    several tables of at most ATTEMPTS_PER_BLOCK rows, with its bounds.
    """
    t, t0 = sched.t, params.dwell_time
    block = max(1, int(ATTEMPTS_PER_BLOCK / max(expected_attempts(params, t, 1), 1.0)))
    for begin in range(k_begin, k_end, block):
        end = min(begin + block, k_end)
        # the block's participants, arrivals in (begin*t - t0, end*t)
        first = int(np.searchsorted(arrivals, begin * t - t0, side="right"))
        last = int(np.searchsorted(arrivals, end * t, side="left"))
        step = ATTEMPTS_PER_BLOCK if end - begin == 1 else max(last - first, 1)
        for i in range(first, max(last, first + 1), step):
            table = attempts(params, sched, arrivals[i:min(i + step, last)], begin, end,
                             delay_rng)
            table.vehicle[:] += i  # a table numbers vehicles from its slice's start
            yield begin, end, table


def simulate_rounds(params: SystemParams, sched: Schedule,
                    cfg: SimConfig) -> np.ndarray:
    """Simulate warmup + num_rounds rounds; return the success histogram.

    histogram[k] is the number of recorded rounds with exactly k
    successes, as int64. The attempt table is built and counted block by
    block (see attempt_blocks). Warm-up rounds only shape the arrival
    stream; they are neither recorded nor given delays. More than
    MAX_ATTEMPTS expected attempts is an InvalidParameterError.
    """
    rows = expected_attempts(params, sched.t, cfg.num_rounds)
    _require(rows <= MAX_ATTEMPTS,
             f"{rows:.3g} expected upload attempts, more than {MAX_ATTEMPTS}")
    k_total = cfg.warmup_rounds + cfg.num_rounds
    arrivals = arrival_times(params, k_total * sched.t,
                             substream(cfg.seed, "arrivals"))
    histogram = np.zeros(1, dtype=np.int64)
    blocks = attempt_blocks(params, sched, arrivals, cfg.warmup_rounds, k_total,
                            substream(cfg.seed, "delays"))
    # a round split over several tables is counted once, over all of them
    for (k_begin, k_end), tables in itertools.groupby(blocks, key=lambda b: b[:2]):
        m_suc = np.zeros(k_end - k_begin, dtype=np.int64)
        for _, _, table in tables:
            m_suc += np.bincount(table.round[table.success] - k_begin,
                                 minlength=k_end - k_begin)
        counts = np.bincount(m_suc)
        if counts.size > histogram.size:
            histogram = np.pad(histogram, (0, counts.size - histogram.size))
        histogram[:counts.size] += counts
    return histogram


def _poisson_pmf(k: np.ndarray, lam: float) -> np.ndarray:
    """Poisson(lam) pmf at the integers k, lam > 0, as exp of the log-pmf."""
    log_fact = np.array([math.lgamma(i + 1.0) for i in k.tolist()])
    return np.exp(k * math.log(lam) - log_fact - lam)


def compare_to_poisson(histogram: np.ndarray, lambda_analytic: float) -> PoissonFit:
    """Goodness of fit between a success histogram and Poisson(lam).

    histogram[k] counts the rounds with exactly k successes. tv_distance
    is the total-variation distance 0.5 * sum |freq - pmf| over the
    support where either side exceeds 1e-9. The empirical mean and
    P(m > 0) are exact integer sums over one division, so they equal
    m.mean() and (m > 0).mean() of the per-round counts m bitwise.
    """
    rounds = int(histogram.sum())
    if rounds < 1:
        raise InvalidParameterError("histogram holds no rounds")
    n_emp = histogram.size - 1
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
    freq[:n_emp + 1] = histogram / rounds

    tv = 0.5 * float(np.abs(freq - pmf).sum())
    mean_emp = int(np.arange(n_emp + 1) @ histogram) / rounds
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
        p_pos_empirical=(rounds - int(histogram[0])) / rounds,
        support=support,
        empirical_freq=freq,
        pmf=pmf,
    )

