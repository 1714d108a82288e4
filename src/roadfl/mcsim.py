"""Monte Carlo simulation of the per-round upload pipeline.

Replays the exact event timeline the closed-form model describes:
Poisson arrivals over the road section, per-round participant sets,
fresh shifted-exponential computing delays for every (vehicle, round)
attempt, and the success rule completion <= deadline. All of it lives
in one round-major attempt table (attempts), built in blocks of rounds
(attempt_blocks) from a stream of arrival chunks (arrival_stream), which
simulate_rounds folds into a histogram of per-round success counts and
flsim reads for each round's winners. The histogram alone feeds a
goodness-of-fit report against the analytic Poisson law.

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
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .rng import substream
from .types import InvalidParameterError, Schedule, SystemParams, _positive_int, _require

__all__ = [
    "SimConfig", "PoissonFit", "Attempts", "sample_computing_delay",
    "expected_arrivals", "arrival_stream", "expected_attempts", "attempts",
    "attempt_blocks", "simulate_rounds", "poisson_rows", "compare_to_poisson",
]

# expected rows per attempt-table block in attempt_blocks, and the
# arrivals per chunk of arrival_stream: a block holds its rounds'
# participants and at most one unread chunk, so memory follows one block,
# or one round's participants when a round has more rows. Any value gives
# the same bytes, since delays and arrival gaps are drawn sequentially
ATTEMPTS_PER_BLOCK = 2 ** 13

# caps warm-up plus recorded rounds; it bounds time, not memory, since
# a block of attempt_blocks holds at most ATTEMPTS_PER_BLOCK rounds and
# simulate_rounds keeps only the success histogram of the recorded ones
MAX_ROUNDS = 10 ** 7

# caps the expected arrivals of a run; it bounds time, not memory, since
# arrival_stream draws them a chunk at a time and attempt_blocks drops
# each once its rounds are built (warm-up arrivals are drawn and dropped)
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
    # in place, in the order of alpha*h + beta*h * -log1p(-U)
    delay = rng.random(size)
    np.negative(delay, out=delay)
    np.log1p(delay, out=delay)
    np.negative(delay, out=delay)
    delay *= params.beta * h
    delay += params.alpha * h
    return delay


def expected_arrivals(params: SystemParams, horizon: float) -> float:
    """Expected arrivals on (-t0, horizon), rate * (horizon + t0)."""
    return params.arrival_rate * (horizon + params.dwell_time)


def arrival_stream(params: SystemParams, horizon: float,
                   rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Poisson arrival instants on (-t0, horizon) as consecutive non-empty
    chunks, strictly increasing within and across chunks.

    Starting a dwell time before zero populates round 0's participant
    window correctly. Gaps -log1p(-U) / rate are drawn ATTEMPTS_PER_BLOCK
    uniforms at a time (but never more than 1.1 times the expected count
    plus 64) and summed with one running sum carried across chunks, so
    every arrival is the same whatever the chunk size. More than
    MAX_ARRIVALS expected arrivals is an InvalidParameterError, raised by
    this call before anything is drawn.
    """
    _require(horizon > 0, "horizon must be positive")
    expected = expected_arrivals(params, horizon)
    _require(expected <= MAX_ARRIVALS,
             f"{expected:.3g} expected arrivals, more than {MAX_ARRIVALS}")
    if params.arrival_rate == 0:
        return iter(())
    size = min(ATTEMPTS_PER_BLOCK, int(expected * 1.1) + 64)
    return _arrivals(params.arrival_rate, -params.dwell_time, horizon, rng, size)


def _arrivals(rate: float, start: float, horizon: float, rng: np.random.Generator,
              size: int) -> Iterator[np.ndarray]:
    carry = 0.0  # the running sum of the gaps drawn so far
    while True:
        # the gaps and their running sum, all in the one buffer of uniforms
        times = rng.random(size)
        np.negative(times, out=times)
        np.log1p(times, out=times)
        times /= -rate
        times[0] += carry
        np.cumsum(times, out=times)
        carry = times[-1]
        times += start
        inside = int(np.searchsorted(times, horizon))
        if inside:
            yield times[:inside]
        if inside < size:
            return


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
    begins, ends = k * t, (k + 1) * t
    first = np.searchsorted(arrivals, begins - t0, side="right")
    counts = np.searchsorted(arrivals, ends, side="left") - first
    rnd = np.repeat(k, counts)
    # each row's column is computed in place, in the order the formulas give
    vehicle = np.repeat(first - (np.cumsum(counts) - counts), counts)
    vehicle += np.arange(rnd.size)
    z = arrivals[vehicle]
    start = np.repeat(begins, counts)
    np.maximum(start, z, out=start)
    tau_cp = sample_computing_delay(params, sched.h, delay_rng, rnd.size)
    completion = start + params.tau_down
    completion += tau_cp
    completion += params.tau_up
    deadline = z + t0
    np.minimum(deadline, np.repeat(ends, counts), out=deadline)
    return Attempts(vehicle, rnd, start, tau_cp, completion, deadline,
                    completion <= deadline)


def attempt_blocks(params: SystemParams, sched: Schedule, arrivals: Iterable[np.ndarray],
                   k_begin: int, k_end: int, delay_rng: np.random.Generator
                   ) -> Iterator[tuple[int, int, Attempts]]:
    """The attempt table of rounds k_begin <= k < k_end, in consecutive
    blocks of rounds holding about ATTEMPTS_PER_BLOCK rows each.

    arrivals is a run's arrival stream: increasing non-empty chunks, as
    arrival_stream yields them. Yields (block begin, block end, table of
    that block), drawing delays as one table over all the rounds would; a
    round of more rows comes as several tables of at most
    ATTEMPTS_PER_BLOCK rows, with its bounds. A table's vehicle is the
    arrival's index in the whole stream. Only the chunks that hold the
    block's participants are kept, so the last one read is the only one
    that reaches past the block.
    """
    t, t0 = sched.t, params.dwell_time
    block = max(1, int(ATTEMPTS_PER_BLOCK / max(expected_attempts(params, t, 1), 1.0)))
    chunks = iter(arrivals)
    window, offset, newest = [], 0, -math.inf  # offset: stream index of window[0][0]
    for begin in range(k_begin, k_end, block):
        end = min(begin + block, k_end)
        # the block's participants, arrivals in (begin*t - t0, end*t): read
        # chunks until one passes end*t, dropping each that ends before
        low, high = begin * t - t0, end * t
        while True:
            while window and window[0][-1] <= low:
                offset += window.pop(0).size
            if newest >= high or (chunk := next(chunks, None)) is None:
                break
            window.append(chunk)
            newest = chunk[-1]
        parts = []
        if window:
            first = int(np.searchsorted(window[0], low, side="right"))
            window[0], offset = window[0][first:], offset + first
            parts = window[:-1] + [window[-1][:np.searchsorted(window[-1], high)]]
        if end - begin > 1:
            parts = [np.concatenate([np.empty(0), *parts])]
        else:
            parts = [part[i:i + ATTEMPTS_PER_BLOCK] for part in parts
                     for i in range(0, part.size, ATTEMPTS_PER_BLOCK)] or [np.empty(0)]
        index = offset
        for part in parts:
            table = attempts(params, sched, part, begin, end, delay_rng)
            table.vehicle[:] += index  # a table numbers vehicles from its part
            index += part.size
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
    arrivals = arrival_stream(params, k_total * sched.t, substream(cfg.seed, "arrivals"))
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


def poisson_rows(lambda_analytic: float) -> float:
    """Rows of the Poisson pmf compare_to_poisson computes for a positive
    lambda: k = 0 up to lam + 10 sqrt(lam) + 40, which lies beyond the
    1 - 1e-12 quantile for every lam (Bernstein bound), so no pmf value
    of at least 1e-9 lies past it. It bounds the fit's support; inf for a
    lambda not finite."""
    reach = lambda_analytic + 10 * math.sqrt(max(lambda_analytic, 0.0))
    return math.floor(reach) + 41 if math.isfinite(reach) else math.inf


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
        pmf = _poisson_pmf(np.arange(max(n_emp + 1, poisson_rows(lambda_analytic))),
                           lambda_analytic)
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

