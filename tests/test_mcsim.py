import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import random_feasible_params
from oracle import (arrival_times, subinterval_probs, subinterval_success_counts,
                    success_given_arrival, upload_rule_rows)
from roadfl import analytic as an
from roadfl import cli, mcsim
from roadfl.rng import substream
from roadfl.types import MAX_ROUNDS, ConfigError, Schedule, SimConfig, SystemParams

BASELINE = Path(__file__).resolve().parents[1] / "baseline.cfg"
# the config overrides of Schedule(8, 10.0) for validate
SCHEDULE_8_10 = ["sim.h=8", "sim.t_s=10"]


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(num_rounds=0)


def test_round_cap():
    SimConfig(num_rounds=MAX_ROUNDS)
    with pytest.raises(ConfigError, match="exceeds"):
        SimConfig(num_rounds=MAX_ROUNDS + 1)


class TestComputingDelay:
    def test_support_floor(self, reference_params):
        rng = substream(1, "delay-test")
        draws = mcsim.sample_computing_delay(reference_params, 24, rng, size=100_000)
        floor = reference_params.alpha * 24
        assert float(draws.min()) >= floor
        assert float(draws.min()) < floor + 0.01

    def test_mean(self, reference_params):
        rng = substream(2, "delay-test")
        draws = mcsim.sample_computing_delay(reference_params, 24, rng, size=1_000_000)
        expected = (reference_params.alpha + reference_params.beta) * 24
        assert abs(float(draws.mean()) - expected) / expected < 0.005

    def test_median(self, reference_params):
        rng = substream(3, "delay-test")
        n = 200_000
        draws = mcsim.sample_computing_delay(reference_params, 24, rng, size=n)
        median = (reference_params.alpha + reference_params.beta * math.log(2)) * 24
        frac = float((draws <= median).mean())
        assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / n)


# the reference environment of baseline.cfg, as reference_params gives it
REFERENCE = SystemParams(length=400, speed=20, arrival_rate=0.1, tau_down=1, tau_up=1,
                         alpha=0.2, beta=0.2)
# the 2000 m section at 5 m/s of the long_section benchmark workload
LONG_SECTION = SystemParams(length=2000, speed=5, arrival_rate=0.1, tau_down=1, tau_up=1,
                            alpha=0.05, beta=0.05)


# the arrival generator attempt_blocks draws from, kept before any test
# replaces it
ARRIVALS = mcsim._arrivals


def arrival_chunks(params, horizon, rng, chunk):
    """The arrival generator's chunks, drawn chunk arrivals at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mcsim, "ATTEMPTS_PER_BLOCK", chunk)
        return list(ARRIVALS(params, horizon, rng))


def chunked_blocks(params, sched, k_end, seed, chunk):
    """Every block of attempt_blocks over k_end rounds on seed's arrival
    and delay streams, with the arrivals drawn chunk at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mcsim, "_arrivals", lambda *args: iter(arrival_chunks(*args, chunk)))
        return list(mcsim.attempt_blocks(params, sched, k_end, seed))


def streamed(params, horizon, rng):
    """Every arrival the generator draws, in one array."""
    return np.concatenate([np.empty(0), *ARRIVALS(params, horizon, rng)])


class TestArrivals:
    def test_no_traffic(self, reference_params):
        p = SystemParams(length=400, speed=20, arrival_rate=0.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        assert list(ARRIVALS(p, 100.0, substream(1, "a"))) == []

    def test_expected_count_cap(self, reference_params, monkeypatch):
        # expected count is rate * (rounds * t + t0) = 0.1 * (rounds * 10 + 20),
        # and expected attempts rounds * 0.1 * (10 + 20) stay below the cap
        sched = Schedule(8, 10.0)
        monkeypatch.setattr(mcsim, "MAX_ARRIVALS", 100)
        assert mcsim.expected_arrivals(reference_params, 98 * sched.t) == 100.0
        assert mcsim.check_runs(reference_params, [(sched, 98)]) == pytest.approx(294)
        histogram = mcsim.simulate_rounds(reference_params, sched,
                                          SimConfig(seed=4, num_rounds=98))
        assert histogram.sum() == 98
        # the largest run's arrivals count, not their sum
        assert mcsim.check_runs(reference_params, [(sched, 98)] * 3) == pytest.approx(882)
        with pytest.raises(ConfigError, match="^101 expected arrivals, more than 100$"):
            mcsim.check_runs(reference_params, [(sched, 98), (sched, 99)])
        streams = []
        monkeypatch.setattr(mcsim, "substream", lambda *tags: streams.append(tags))
        with pytest.raises(ConfigError, match="^101 expected arrivals, more than 100$"):
            cli.validate(cli.parse_config(BASELINE, [*SCHEDULE_8_10, "sim.num_rounds=99"]))
        assert streams == []  # nothing drawn, no stream even made
        # the attempt cap is checked first
        monkeypatch.setattr(mcsim, "MAX_ATTEMPTS", 100)
        with pytest.raises(ConfigError, match="^297 expected upload attempts, more than 100$"):
            mcsim.check_runs(reference_params, [(sched, 99)])

    def test_count_confidence_interval(self, reference_params):
        horizon = 1e5
        times = streamed(reference_params, horizon, substream(5, "a"))
        expected = reference_params.arrival_rate * (horizon + reference_params.dwell_time)
        assert abs(times.size - expected) <= 3 * math.sqrt(expected)

    def test_strictly_increasing_and_window(self, reference_params):
        chunks = arrival_chunks(reference_params, 500.0, substream(6, "a"), 7)
        assert len(chunks) > 5 and all(chunk.size > 0 for chunk in chunks)
        times = np.concatenate(chunks)
        assert np.all(np.diff(times) > 0)
        assert times[0] > -reference_params.dwell_time
        assert times[-1] < 500.0

    @pytest.mark.parametrize("chunk,horizon", [(1, 2e3), (7, 2e4), (8192, 1e6)])
    def test_stream_matches_one_shot_reference(self, reference_params, chunk, horizon):
        # many chunks, each carrying the running sum into the next
        chunks = arrival_chunks(reference_params, horizon, substream(12, "a"), chunk)
        assert len(chunks) > 10
        assert max(c.size for c in chunks) == chunk
        reference = arrival_times(reference_params, horizon, substream(12, "a"))
        assert np.concatenate(chunks).tobytes() == reference.tobytes()

    def test_dwell_duration(self, reference_params):
        # a vehicle attempts in exactly the rounds its dwell (z, z + t0)
        # overlaps, and every attempt lies inside that dwell
        sched = Schedule(8, 7.0)
        times = streamed(reference_params, 210.0, substream(7, "a"))
        table = mcsim.attempts(reference_params, sched, times, 0, 30,
                               substream(7, "d"))
        t0 = reference_params.dwell_time
        assert_rows_equal(table, upload_rule_rows(reference_params, sched, times, 0, 30,
                                                  substream(7, "d")))
        for m, zm in enumerate(times):
            rounds = table.round[table.vehicle == m].tolist()
            assert rounds == [k for k in range(30)
                              if k * sched.t < zm + t0 and (k + 1) * sched.t > zm]

    def test_deterministic(self, reference_params):
        a = streamed(reference_params, 300.0, substream(8, "a"))
        b = streamed(reference_params, 300.0, substream(8, "a"))
        assert np.array_equal(a, b)


def assert_rows_equal(table, rows):
    """An attempt table's columns equal the oracle's (vehicle, round,
    success) bit for bit."""
    for column, expected in zip(table, rows, strict=True):
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes()


def joined(blocks):
    """The rows of attempt_blocks' blocks, each column joined over its tables."""
    return [np.concatenate(column) for column in zip(*(table for _, _, table in blocks))]


def recorded_table(params, sched, cfg):
    """The attempt table simulate_rounds aggregates, built in one piece."""
    arrivals = arrival_times(params, cfg.num_rounds * sched.t,
                             substream(cfg.seed, "arrivals"))
    table = mcsim.attempts(params, sched, arrivals, 0, cfg.num_rounds,
                           substream(cfg.seed, "delays"))
    return arrivals, table


def per_round_successes(table, cfg):
    """Successes of each round, from its attempt table."""
    return np.bincount(table.round[table.success], minlength=cfg.num_rounds)


class TestSimulateRounds:
    def test_no_traffic_all_zero(self):
        p = SystemParams(length=400, speed=20, arrival_rate=0.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        hist = mcsim.simulate_rounds(p, Schedule(24, 11.8),
                                     SimConfig(seed=1, num_rounds=500))
        assert mcsim.compare_to_poisson(hist, 0.0).mean_empirical == 0.0
        assert hist.tolist() == [500]

    def test_infeasible_round_never_succeeds(self, reference_params):
        # t below the pipeline floor: participants exist, successes cannot
        sched = Schedule(24, 6.0)
        cfg = SimConfig(seed=2, num_rounds=2000)
        _, table = recorded_table(reference_params, sched, cfg)
        assert table.round.size > 0
        assert not table.success.any()
        assert mcsim.simulate_rounds(reference_params, sched, cfg).tolist() == [2000]

    def test_matches_poisson_mean(self, reference_params):
        sched = Schedule(24, 11.8)
        lam = an.lambda_param(reference_params, sched.h, sched.t)
        hist = mcsim.simulate_rounds(reference_params, sched,
                                     SimConfig(seed=3, num_rounds=20_000))
        sigma = math.sqrt(lam / 20_000)
        assert abs(mcsim.compare_to_poisson(hist, lam).mean_empirical - lam) <= 4 * sigma

    @pytest.mark.parametrize("h,t", [(24, 11.8), (8, 5.0)])
    def test_round_0_follows_the_stationary_law(self, reference_params, h, t):
        # arrivals start a dwell time before round 0, so its successes are
        # Poisson(lambda) as in any later round, also where t < t0; a
        # stream starting at 0 would lose most of round 0's participants
        lam = an.lambda_param(reference_params, h, t)
        seeds = 2000
        successes = sum(
            int(np.arange(hist.size) @ hist) for hist in
            (mcsim.simulate_rounds(reference_params, Schedule(h, t),
                                   SimConfig(seed=seed, num_rounds=1))
             for seed in range(seeds)))
        assert abs(successes / seeds - lam) <= 4 * math.sqrt(lam / seeds)

    def test_deterministic(self, reference_params):
        cfg = SimConfig(seed=11, num_rounds=1000)
        a = mcsim.simulate_rounds(reference_params, Schedule(24, 11.8), cfg)
        b = mcsim.simulate_rounds(reference_params, Schedule(24, 11.8), cfg)
        assert np.array_equal(a, b)
        assert (mcsim.compare_to_poisson(a, 1.0).mean_empirical
                == mcsim.compare_to_poisson(b, 1.0).mean_empirical)

    def test_attempt_invariants(self, reference_params):
        sched = Schedule(24, 11.8)
        cfg = SimConfig(seed=4, num_rounds=200)
        hist = mcsim.simulate_rounds(reference_params, sched, cfg)
        arrivals, a = recorded_table(reference_params, sched, cfg)
        t, t0 = sched.t, reference_params.dwell_time
        assert_rows_equal(a, upload_rule_rows(reference_params, sched, arrivals, 0,
                                              cfg.num_rounds, substream(cfg.seed, "delays")))
        # round-major, then by arrival, and exactly the window's vehicles
        expected = [np.flatnonzero((arrivals > k * t - t0) & (arrivals < (k + 1) * t))
                    for k in range(cfg.num_rounds)]
        assert np.array_equal(a.vehicle, np.concatenate(expected))
        assert np.all(np.diff(a.round) >= 0)
        # every row is a simulated round's, and the histogram counts the
        # table's per-round successes
        participants = np.bincount(a.round, minlength=cfg.num_rounds)
        successes = per_round_successes(a, cfg)
        assert participants.size == successes.size == cfg.num_rounds
        assert np.all(successes <= participants)
        assert hist.dtype == np.int64
        assert np.array_equal(hist, np.bincount(successes))

    def test_vehicles_span_multiple_short_rounds(self, reference_params):
        # t < t0: each vehicle sits in several round windows
        sched = Schedule(8, 5.0)
        _, table = recorded_table(reference_params, sched,
                                  SimConfig(seed=5, num_rounds=400))
        per_vehicle = np.bincount(table.vehicle)
        spans = np.sort(per_vehicle[per_vehicle > 0])
        expected = reference_params.dwell_time / sched.t  # about 4 windows each
        assert spans.max() >= math.floor(expected)
        # interior vehicles appear in floor(t0/t) or +1 consecutive rounds
        interior = spans[10:-10]
        assert set(interior.tolist()) <= {4, 5}

    def test_block_size_leaves_bytes_unchanged(self, reference_params, monkeypatch):
        sched = Schedule(8, 10.0)
        cfg = SimConfig(seed=14, num_rounds=3000)
        _, whole_table = recorded_table(reference_params, sched, cfg)
        monkeypatch.setattr(mcsim, "ATTEMPTS_PER_BLOCK", 10 ** 9)
        whole = mcsim.simulate_rounds(reference_params, sched, cfg)
        # blocks of about 50 rows, with arrival chunks of the same size, of
        # fewer rows than a block, and of more
        for rows, chunk in ((50, 50), (50, 7), (50, 1000)):
            monkeypatch.setattr(mcsim, "ATTEMPTS_PER_BLOCK", rows)
            small = mcsim.simulate_rounds(reference_params, sched, cfg)
            blocks = chunked_blocks(reference_params, sched, cfg.num_rounds, cfg.seed, chunk)
            assert len(blocks) > 100
            assert_rows_equal(joined(blocks), whole_table)
            assert np.array_equal(small, whole)

    def test_round_over_a_block_is_split(self, reference_params, monkeypatch):
        # about 3 rows per round, at most 2 per table
        sched = Schedule(8, 10.0)
        cfg = SimConfig(seed=14, num_rounds=3000)
        _, whole_table = recorded_table(reference_params, sched, cfg)
        whole = mcsim.simulate_rounds(reference_params, sched, cfg)
        monkeypatch.setattr(mcsim, "ATTEMPTS_PER_BLOCK", 2)
        # arrival chunks of a block's rows, of one arrival, and of many rounds'
        for chunk in (2, 1, 64):
            blocks = chunked_blocks(reference_params, sched, cfg.num_rounds, cfg.seed, chunk)
            assert all(end == begin + 1 and table.round.size <= 2
                       for begin, end, table in blocks)
            assert len(blocks) > cfg.num_rounds
            assert_rows_equal(joined(blocks), whole_table)
        assert np.array_equal(mcsim.simulate_rounds(reference_params, sched, cfg), whole)

    def test_peak_memory_follows_one_block(self):
        # about 48 rows per round on the long_section schedule: a block and
        # its window of arrivals, not the run's arrivals (4.8e6 at 10**5
        # rounds, 37 MiB as one buffer), however many rounds there are
        sched = Schedule(1463, 83.56)
        for rounds in (10 ** 5, 4 * 10 ** 5):
            tracemalloc.start()
            try:
                histogram = mcsim.simulate_rounds(LONG_SECTION, sched,
                                                  SimConfig(seed=703, num_rounds=rounds))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert histogram.sum() == rounds
            assert peak <= 4 * 2 ** 20

    def test_attempt_cap_checked_before_any_delay(self, reference_params, monkeypatch):
        # expected rows are num_rounds * rate * (t + t0) = num_rounds * 0.1 * (10 + 20)
        sched = Schedule(8, 10.0)
        monkeypatch.setattr(mcsim, "MAX_ATTEMPTS", 301)
        assert mcsim.check_runs(reference_params, [(sched, 100)]) == pytest.approx(300)
        # the attempts of all the runs count
        with pytest.raises(ConfigError, match="^303 expected upload attempts, more than 301$"):
            mcsim.check_runs(reference_params, [(sched, 50), (sched, 51)])
        # the caller checks: simulate_rounds makes no check of its own
        histogram = mcsim.simulate_rounds(reference_params, sched,
                                          SimConfig(seed=4, num_rounds=101))
        assert histogram.sum() == 101
        streams = []
        monkeypatch.setattr(mcsim, "substream", lambda *tags: streams.append(tags))
        with pytest.raises(ConfigError, match="^303 expected upload attempts, more than 301$"):
            cli.validate(cli.parse_config(BASELINE, [*SCHEDULE_8_10, "sim.num_rounds=101"]))
        assert streams == []  # nothing drawn, no stream even made


class TestShares:
    """A run replayed in consecutive ranges of its rounds, as validate's
    processes replay it."""

    @pytest.mark.parametrize("sched,rounds,block_rows,ranges", [
        # the reference schedule in blocks of about 2,600 rounds: from 0,
        # from rounds inside a block and from the second block's first
        # round (added below), and ranges of one round and empty ones
        (Schedule(24, 11.8), 6000, None, [(0, 6000), (1234, 6000), (1234, 1235), (2600, 6000),
                                          (2599, 2600), (5999, 6000), (3000, 3000), (6000, 6000)]),
        # about 3 rows per round and at most 2 per table, as in
        # test_round_over_a_block_is_split: every round is a block, and some
        # come as several tables. From each round, to its end, through the
        # next round and to the run's end
        (Schedule(8, 10.0), 40, 2,
         [(k, end) for k in range(41) for end in sorted({k, k + 1, 40}) if end <= 40]),
    ], ids=["blocks_of_rounds", "round_over_a_block"])
    def test_a_range_has_the_whole_runs_rows(self, monkeypatch, sched, rounds, block_rows,
                                             ranges):
        if block_rows is not None:
            monkeypatch.setattr(mcsim, "ATTEMPTS_PER_BLOCK", block_rows)
        whole = list(mcsim.attempt_blocks(REFERENCE, sched, rounds, 31))
        begins = [begin for begin, _, _ in whole]
        if block_rows is None:
            assert not {1234, 2599, 2600} & set(begins)
        else:
            assert len(set(begins)) == rounds < len(begins)
        rows = joined(whole)
        for k_begin, k_end in [*ranges, (begins[1], rounds)]:
            blocks = list(mcsim.attempt_blocks(REFERENCE, sched, k_end, 31, k_begin=k_begin))
            assert all(k_begin <= begin < end <= k_end for begin, end, _ in blocks)
            assert bool(blocks) == (k_begin < k_end)
            if blocks:
                in_range = (rows[1] >= k_begin) & (rows[1] < k_end)
                assert_rows_equal(joined(blocks), [column[in_range] for column in rows])

    @pytest.mark.parametrize("params,sched,rounds,block_rows", [
        # the reference schedule, in 4 blocks of about 2,600 rounds
        (REFERENCE, Schedule(24, 11.8), 10_000, None),
        # the long_section schedule, in about 120 blocks of 170 rounds
        (LONG_SECTION, Schedule(1463, 83.56), 20_000, None),
        # about 3 rows per round and at most 2 per table: a round comes as
        # several tables
        (REFERENCE, Schedule(8, 10.0), 1000, 2),
        # 2 blocks of about 2,600 rounds, and one block
        (REFERENCE, Schedule(24, 11.8), 5000, None),
        (REFERENCE, Schedule(24, 11.8), 10, None),
    ], ids=["reference", "long_section", "round_over_a_block", "two_blocks", "one_block"])
    def test_shares_add_up_to_the_whole_run(self, monkeypatch, params, sched, rounds,
                                            block_rows):
        if block_rows is not None:
            monkeypatch.setattr(mcsim, "ATTEMPTS_PER_BLOCK", block_rows)
        cfg = SimConfig(seed=31, num_rounds=rounds)
        whole = mcsim.simulate_rounds(params, sched, cfg)
        assert whole.sum() == rounds and whole.size > 2
        # validate's n equal ranges, and 4 random cuts and an empty range
        cuts = [[rounds * i // n for i in range(n + 1)] for n in (2, 3, 7)]
        random_cuts = np.random.default_rng(rounds).integers(0, rounds, 4).tolist()
        cuts.append(sorted([0, *random_cuts, rounds // 2, rounds // 2, rounds]))
        for bounds in cuts:
            histograms = [mcsim.simulate_rounds(params, sched, cfg, range(k_begin, k_end))
                          for k_begin, k_end in zip(bounds, bounds[1:])]
            assert [int(h.sum()) for h in histograms] == np.diff(bounds).tolist()
            total = np.zeros(max(h.size for h in histograms), dtype=np.int64)
            for histogram in histograms:
                total[:histogram.size] += histogram
            assert total.dtype == whole.dtype
            assert total.tobytes() == whole.tobytes()
        if rounds == 10:
            assert len(list(mcsim.attempt_blocks(params, sched, rounds, 31))) == 1

    @pytest.mark.parametrize("rest", range(4))
    def test_skip_rule_matches_drawing_every_double(self, rest):
        # attempt_blocks moves a fresh stream past rows delays by
        # advance(rows // 4) and rows % 4 draws: Philox gives 4 doubles
        # per counter step
        for steps in (0, 1, 5, 1000):
            drawn = substream(31, "delays").random(4 * steps + rest + 9)
            skipped = substream(31, "delays")
            skipped.bit_generator.advance(steps)
            skipped.random(rest)
            assert skipped.random(9).tobytes() == drawn[4 * steps + rest:].tobytes()


@pytest.mark.parametrize("params,sched", [
    # about 3.2 and 48 attempts per round
    (REFERENCE, Schedule(24, 11.8)),
    (LONG_SECTION, Schedule(1463, 83.56))])
def test_expected_attempts_is_the_mean_table_size(params, sched):
    """Over 10**5 rounds the attempt table's rows match expected_attempts.

    The rows are sum_z c(z) over the Poisson arrivals z on (-t0, K t),
    where c(z) counts the round windows (k t - t0, (k + 1) t) holding z,
    at most c_max = floor((t + t0) / t) + 1. So their variance is
    rate * integral of c(z)**2 dz <= rate * (K t + t0) * c_max**2, and
    the bound below is 5 standard deviations.
    """
    rounds = 10 ** 5
    horizon = rounds * sched.t
    rows = sum(table.round.size for _, _, table in mcsim.attempt_blocks(
        params, sched, rounds, 21))
    expected = mcsim.expected_attempts(params, sched.t, rounds)
    c_max = math.floor((sched.t + params.dwell_time) / sched.t) + 1
    sigma = c_max * math.sqrt(params.arrival_rate * (horizon + params.dwell_time))
    assert abs(rows - expected) <= 5 * sigma
    # t alone, without the dwell time, would be off by hundreds of sigma
    assert abs(rows - rounds * params.arrival_rate * sched.t) > 100 * sigma


@pytest.mark.parametrize("params,sched", [
    pytest.param(REFERENCE, Schedule(24, 11.8), id="reference"),
    pytest.param(REFERENCE, Schedule(8, 5.0), id="t_below_t0"),
    pytest.param(REFERENCE, Schedule(24, 6.0), id="no_success"),
    pytest.param(REFERENCE, Schedule(8, 40.0), id="t_above_t0"),
    pytest.param(LONG_SECTION, Schedule(1463, 83.56), id="long_section")])
def test_attempts_follow_the_upload_rule(params, sched, monkeypatch):
    """The attempt table is the upload rule applied row by row, bit for
    bit, built in one piece and in blocks of split rounds."""
    rounds = 300
    arrivals = arrival_times(params, rounds * sched.t, substream(31, "arrivals"))
    rows = upload_rule_rows(params, sched, arrivals, 0, rounds, substream(31, "delays"))
    assert rows[1].size > rounds
    assert_rows_equal(mcsim.attempts(params, sched, arrivals, 0, rounds,
                                     substream(31, "delays")), rows)
    # at most 2 rows per table, in arrival chunks of 2
    monkeypatch.setattr(mcsim, "ATTEMPTS_PER_BLOCK", 2)
    assert_rows_equal(joined(mcsim.attempt_blocks(params, sched, rounds, 31)), rows)


def lag_covariances(params, sched, lags):
    """Cov(m_k, m_k+d) of the success counts of rounds d apart, for each
    lag d: rate times the integral over the arrival instant z of both
    rounds' success probabilities given z, since a vehicle draws a fresh
    delay in each round (trapezoid rule, 20,001 points)."""
    z = np.linspace(-params.dwell_time, sched.t, 20_001)
    p0 = success_given_arrival(params, sched.h, sched.t, z)
    return np.array([params.arrival_rate * np.trapezoid(
        p0 * success_given_arrival(params, sched.h, sched.t, z - d * sched.t), z)
        for d in lags])


def test_replay_matches_lambda_over_random_environments():
    """On 40 environments of random_feasible_params, each with a random h
    and, in turn, a round length below t0 and one above, simulate_rounds
    over min(20,000, 3e6 / attempts per round) rounds gives a mean
    success count within 4.5 standard deviations of lam, and a share of
    rounds with a success within 4.5 of 1 - exp(-lam).

    A vehicle takes part in about (t + t0) / t consecutive rounds,
    so the counts of rounds d apart covary by C(d) (lag_covariances),
    which raised the variance of the mean up to 2-fold here. With K
    rounds, the success total has variance K lam + 2 sum (K - d) C(d),
    and the rounds without a success K p0 (1 - p0) + 2 sum (K - d)
    p0**2 expm1(C(d)), p0 = exp(-lam), since both rounds are empty with
    probability exp(-2 lam + C(d)).
    """
    rng = np.random.default_rng(9)
    for i in range(40):
        params, hm = random_feasible_params(rng)
        t0 = params.dwell_time
        h = int(rng.integers(1, hm + 1))
        tmin = float(an.t_min(params, h))
        t = float(rng.uniform(tmin, t0) if i % 2 == 0 else rng.uniform(t0, 3 * t0))
        sched = Schedule(h, t)
        rounds = int(min(20_000, 3e6 / mcsim.expected_attempts(params, t, 1)))
        histogram = mcsim.simulate_rounds(params, sched, SimConfig(seed=i, num_rounds=rounds))
        lam = float(an.lambda_param(params, h, t))
        p0 = math.exp(-lam)
        lags = np.arange(1, min(rounds, math.floor((t + t0) / t) + 2))
        cov = lag_covariances(params, sched, lags)
        pairs = 2 * (rounds - lags)
        total = int(np.arange(histogram.size) @ histogram)
        assert abs(total - rounds * lam) <= 4.5 * math.sqrt(rounds * lam + pairs @ cov), i
        empty = int(histogram[0])
        assert abs(empty - rounds * p0) <= 4.5 * math.sqrt(
            rounds * p0 * (1 - p0) + pairs @ (p0 * p0 * np.expm1(cov))), i


# Poisson means checked against scipy.stats.poisson, from nearly empty
# rounds to far more successes per round than any shipped environment
ORACLE_LAMBDAS = np.logspace(-6, math.log10(500), 40).tolist() + [1.0, 100.0]


class TestPoissonFit:
    def test_point_mass_at_zero(self):
        p = SystemParams(length=400, speed=20, arrival_rate=0.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        hist = mcsim.simulate_rounds(p, Schedule(24, 11.8),
                                     SimConfig(seed=1, num_rounds=100))
        fit = mcsim.compare_to_poisson(hist, 0.0)
        assert fit.tv_distance == 0.0
        assert fit.support.tolist() == [0]
        assert fit.empirical_freq.tolist() == [1.0]
        assert fit.pmf.tolist() == [1.0]

    def test_hand_computed_tv(self):
        lam = 0.7
        fit = mcsim.compare_to_poisson(np.array([50, 30, 20]), lam)
        pmf = [math.exp(-lam) * lam ** k / math.factorial(k)
               for k in range(fit.support.size)]
        expected_tv = 0.5 * sum(abs(f - q) for f, q in
                                zip([0.5, 0.3, 0.2] + [0.0] * (len(pmf) - 3), pmf))
        assert fit.tv_distance == pytest.approx(expected_tv, rel=1e-12)
        assert fit.p_pos_analytic == pytest.approx(1 - math.exp(-0.7), rel=1e-12)
        assert fit.mean_empirical == 0.7
        assert fit.p_pos_empirical == 0.5

    def test_statistics_match_per_round_array(self, reference_params):
        """The histogram's mean and P(m > 0) equal m.mean() and
        (m > 0).mean() of the per-round success counts m, bitwise."""
        sched = Schedule(24, 11.8)
        cfg = SimConfig(seed=777, num_rounds=100_000)
        _, table = recorded_table(reference_params, sched, cfg)
        m_table = per_round_successes(table, cfg)
        assert np.array_equal(mcsim.simulate_rounds(reference_params, sched, cfg),
                              np.bincount(m_table))
        # also the histograms [N] and [0, N]
        for m in (m_table, np.zeros(1000, np.int64), np.ones(1000, np.int64)):
            fit = mcsim.compare_to_poisson(np.bincount(m), 0.9)
            assert fit.mean_empirical == float(m.mean())
            assert fit.p_pos_empirical == float((m > 0).mean())

    @pytest.mark.parametrize("lam", ORACLE_LAMBDAS, ids="{:.3g}".format)
    def test_pmf_matches_scipy(self, lam):
        k = np.arange(int(lam + 10 * math.sqrt(lam)) + 41)
        np.testing.assert_allclose(mcsim._poisson_pmf(k, lam),
                                   stats.poisson.pmf(k, lam), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("lam", ORACLE_LAMBDAS, ids="{:.3g}".format)
    def test_support_matches_scipy_tail(self, lam):
        """The support is the scipy-derived one: every k up to ppf(1 - 1e-12) + 2
        where the pmf reaches 1e-9, plus the empirical range."""
        fit = mcsim.compare_to_poisson(np.array([1]), lam)
        k = np.arange(int(stats.poisson.ppf(1.0 - 1e-12, lam)) + 3)
        pmf = stats.poisson.pmf(k, lam)
        expected = k[(pmf >= 1e-9) | (k == 0)]
        assert fit.support.tolist() == expected.tolist()
        np.testing.assert_allclose(fit.pmf, stats.poisson.pmf(expected, lam),
                                   rtol=1e-12, atol=0)

    def test_poisson_fit_on_reference(self, reference_params):
        sched = Schedule(24, 25.0)
        lam = an.lambda_param(reference_params, sched.h, sched.t)
        hist = mcsim.simulate_rounds(reference_params, sched,
                                     SimConfig(seed=6, num_rounds=20_000))
        fit = mcsim.compare_to_poisson(hist, lam)
        assert fit.tv_distance < 0.02
        assert abs(fit.mean_empirical - lam) / lam < 0.03


def test_subinterval_rates_match_probabilities(reference_params):
    sched = Schedule(24, 25.0)
    expected = subinterval_probs(reference_params, sched.h, sched.t)
    n = 20_000
    counts = subinterval_success_counts(reference_params, sched, n,
                                        substream(10, "subintervals"))
    for emp, prob in zip(counts / n, expected):
        assert abs(emp - prob) <= 3 * math.sqrt(prob * (1 - prob) / n)
