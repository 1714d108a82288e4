"""Monte Carlo simulation of the per-round upload pipeline.

Replays the exact event timeline the closed-form model describes:
Poisson arrivals over the road section, per-round participant sets,
fresh shifted-exponential computing delays for every (vehicle, round)
attempt, and the success rule completion <= deadline. All of it lives
in one round-major attempt table (attempts), built in blocks of rounds
(attempt_blocks) as the run's arrivals are drawn a chunk at a time, which
simulate_rounds folds into a histogram of per-round success counts and
flsim reads for each round's winners. The histogram alone feeds a
goodness-of-fit report against the analytic Poisson law. Any range of
a run's rounds replays alone, with the whole run's draws (see
attempt_blocks). check_runs holds the caps on a run's expected attempts
and arrivals; validate and fl call it once, before anything is drawn.

A vehicle that fails in one round keeps attempting in later rounds
while it is still inside the section; each attempt restarts from the
newly distributed global model, so its computing delay is redrawn.

Sampling is inverse-CDF from Philox uniforms throughout (see rng.py), and
attempt_blocks opens a run's streams, so it replays from its seed and tags.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .rng import substream
from .types import MAX_ARRIVALS, MAX_ATTEMPTS, Schedule, SimConfig, SystemParams, _require

__all__ = [
    "PoissonFit", "sample_computing_delay", "attempt_blocks", "check_runs",
    "simulate_rounds", "poisson_rows", "compare_to_poisson",
]

# expected rows per attempt-table block in attempt_blocks, and the most
# arrivals it draws per chunk: a block holds its rounds'
# participants and at most one unread chunk, so memory follows one block,
# or two copies of one round's participants, as its chunks are joined,
# when a round has more rows. Any value gives the same bytes, since
# delays and arrival gaps are drawn sequentially
ATTEMPTS_PER_BLOCK = 2 ** 13


@dataclass(frozen=True)
class PoissonFit:
    """Fit of an empirical success-count histogram to a Poisson law."""

    lambda_analytic: float
    mean_empirical: float
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


def _arrivals(params: SystemParams, horizon: float,
              rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Poisson arrival instants on (-t0, horizon) as consecutive non-empty
    chunks, strictly increasing within and across chunks.

    Gaps -log1p(-U) / rate are drawn ATTEMPTS_PER_BLOCK uniforms at a time
    (but never more than 1.1 times the expected count plus 64) and summed
    with one running sum carried across chunks, so every arrival is the
    same whatever the chunk size. A gap or sum that overflows is inf: no
    further arrival.
    """
    if params.arrival_rate == 0:
        return
    size = min(ATTEMPTS_PER_BLOCK, int(expected_arrivals(params, horizon) * 1.1) + 64)
    carry = 0.0  # the running sum of the gaps drawn so far
    while True:
        # the gaps and their running sum, all in the one buffer of uniforms
        times = rng.random(size)
        np.negative(times, out=times)
        np.log1p(times, out=times)
        with np.errstate(over="ignore"):
            times /= -params.arrival_rate
            times[0] += carry
            np.cumsum(times, out=times)
        carry = times[-1]
        times -= params.dwell_time
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
    then by arrival. vehicle indexes the arrival array, and success says
    whether the upload arrived in time."""

    vehicle: np.ndarray
    round: np.ndarray
    success: np.ndarray


def _participants(params: SystemParams, sched: Schedule, arrivals: np.ndarray,
                  k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each round k's begin k*t, end (k+1)*t, and the index of its first
    participant in arrivals and its count: the arrivals z in
    (k*t - t0, (k+1)*t), which are its rows of the attempt table."""
    begins, ends = k * sched.t, (k + 1) * sched.t
    first = np.searchsorted(arrivals, begins - params.dwell_time, side="right")
    return begins, ends, first, np.searchsorted(arrivals, ends, side="left") - first


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
    k = np.arange(k_begin, k_end)
    begins, ends, first, counts = _participants(params, sched, arrivals, k)
    rnd = np.repeat(k, counts)
    # each row's times are computed in place, in the order the formulas give
    vehicle = np.repeat(first - (np.cumsum(counts) - counts), counts)
    vehicle += np.arange(rnd.size)
    deadline = arrivals[vehicle]  # z, until t0 is added
    completion = np.repeat(begins, counts)
    np.maximum(completion, deadline, out=completion)
    completion += params.tau_down
    completion += sample_computing_delay(params, sched.h, delay_rng, rnd.size)
    completion += params.tau_up
    deadline += params.dwell_time
    np.minimum(deadline, np.repeat(ends, counts), out=deadline)
    return Attempts(vehicle, rnd, completion <= deadline)


def attempt_blocks(params: SystemParams, sched: Schedule, k_end: int, seed: int, *tags,
                   k_begin: int = 0) -> Iterator[tuple[int, int, Attempts]]:
    """The attempt table of rounds k_begin <= k < k_end, in consecutive
    blocks of rounds holding about ATTEMPTS_PER_BLOCK rows each, drawn
    from the run's arrivals and delays streams, each keyed by seed, its
    name, tags.

    The run's arrivals on (-t0, k_end*t), from a dwell time before round
    0 so that its participants are complete, are drawn as the blocks
    reach them. Yields (block begin, block end, table of that block),
    drawing delays as one table over all the rounds would; a round of
    more rows comes as several tables of at most ATTEMPTS_PER_BLOCK
    rows, with its bounds. A table's vehicle is the arrival's index in
    the run. One window array holds the block's participants and the
    rest of the last chunk drawn, and the chunks a block reads are
    appended in one concatenation, so a round bigger than a block is
    copied once. The caller checks the run's caps with check_runs.

    The rows of the rounds before k_begin are counted, block by block,
    not built, and the delay stream skips their delays: Philox gives
    four doubles per counter step, so advance(rows // 4) and then
    rows % 4 draws leave it where the whole run's delays would. So each
    round's rows are the ones the whole run yields for it.
    """
    t, t0 = sched.t, params.dwell_time
    block = max(1, int(ATTEMPTS_PER_BLOCK / max(expected_attempts(params, t, 1), 1.0)))
    # the blocks' first rounds: counted blocks up to k_begin, then built ones
    begins = [*range(0, k_begin, block), *range(k_begin, k_end, block)]
    chunks = _arrivals(params, k_end * t, substream(seed, "arrivals", *tags))
    delay_rng = substream(seed, "delays", *tags)
    window, offset, newest = np.empty(0), 0, -math.inf  # offset: stream index of window[0]
    skipped = 0  # rows of the rounds before k_begin
    for begin, end in zip(begins, [*begins[1:], k_end]):
        # the block's participants, arrivals in (begin*t - t0, end*t): read
        # chunks until one reaches end*t
        low, high = begin * t - t0, end * t
        read = []
        while newest < high and (chunk := next(chunks, None)) is not None:
            newest = chunk[-1]
            read.append(chunk)
        if read:
            window = np.concatenate([window, *read])
        first = int(np.searchsorted(window, low, side="right"))
        window, offset = window[first:], offset + first
        part = window[:np.searchsorted(window, high)]
        if begin < k_begin:
            skipped += int(_participants(params, sched, part, np.arange(begin, end))[3].sum())
            continue
        if begin == k_begin:  # the first block built: skip the rows before it
            delay_rng.bit_generator.advance(skipped // 4)
            delay_rng.random(skipped % 4)
        step = ATTEMPTS_PER_BLOCK if end - begin == 1 else max(part.size, 1)
        for i in range(0, max(part.size, 1), step):
            table = attempts(params, sched, part[i:i + step], begin, end, delay_rng)
            table.vehicle[:] += offset + i  # a table numbers vehicles from its part
            yield begin, end, table


def check_runs(params: SystemParams, runs: Sequence[tuple[Schedule, int]]) -> float:
    """The summed expected upload attempts of runs, each a schedule and
    its round count. More than MAX_ATTEMPTS of them, then a run of more
    than MAX_ARRIVALS expected arrivals, is a ConfigError."""
    rows = sum(expected_attempts(params, s.t, k) for s, k in runs)
    _require(rows <= MAX_ATTEMPTS,
             f"{rows:.3g} expected upload attempts, more than {MAX_ATTEMPTS}")
    most = max(expected_arrivals(params, k * s.t) for s, k in runs)
    _require(most <= MAX_ARRIVALS,
             f"{most:.3g} expected arrivals, more than {MAX_ARRIVALS}")
    return rows


def simulate_rounds(params: SystemParams, sched: Schedule, cfg: SimConfig,
                    rounds: range | None = None) -> np.ndarray:
    """Simulate a range of rounds, all of them by default; return the
    success histogram.

    histogram[k] is the number of rounds with exactly k successes, as
    int64, counted block by block from attempt_blocks on the streams of
    cfg.seed. Round 0 needs no warm-up: arrivals start a dwell time
    before it, so its participants follow the same law as any later
    round's. The histograms of consecutive ranges add up to the one of
    their union, once each is padded to the longest. The caller checks
    the run's caps first, with check_runs.
    """
    rounds = range(cfg.num_rounds) if rounds is None else rounds
    histogram = np.zeros(1, dtype=np.int64)
    blocks = attempt_blocks(params, sched, rounds.stop, cfg.seed, k_begin=rounds.start)
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

    histogram[k] counts the rounds with exactly k successes; the caller
    passes at least one round. tv_distance is the total-variation
    distance 0.5 * sum |freq - pmf| over the support where either side
    exceeds 1e-9. The empirical mean and
    P(m > 0) are exact integer sums over one division, so they equal
    m.mean() and (m > 0).mean() of the per-round counts m bitwise.
    """
    rounds = int(histogram.sum())
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
    p_pos = -math.expm1(-lambda_analytic)
    return PoissonFit(
        lambda_analytic=lambda_analytic,
        mean_empirical=mean_emp,
        tv_distance=tv,
        p_pos_analytic=p_pos,
        p_pos_empirical=(rounds - int(histogram[0])) / rounds,
        support=support,
        empirical_freq=freq,
        pmf=pmf,
    )

