import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from oracle import subinterval_success_counts
from roadfl import analytic as an
from roadfl import mcsim
from roadfl.rng import substream
from roadfl.types import InvalidParameterError, Schedule, SystemParams


def test_sim_config_validation():
    with pytest.raises(InvalidParameterError):
        mcsim.SimConfig(num_rounds=0)
    with pytest.raises(InvalidParameterError):
        mcsim.SimConfig(warmup_rounds=-1)


def test_round_cap_counts_warmup():
    mcsim.SimConfig(num_rounds=mcsim.MAX_ROUNDS - 1, warmup_rounds=1)
    with pytest.raises(InvalidParameterError, match="exceeds"):
        mcsim.SimConfig(num_rounds=mcsim.MAX_ROUNDS, warmup_rounds=1)
    with pytest.raises(InvalidParameterError, match="exceeds"):
        mcsim.SimConfig(num_rounds=1, warmup_rounds=mcsim.MAX_ROUNDS)


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


class TestArrivals:
    def test_no_traffic(self, reference_params):
        p = SystemParams(length=400, speed=20, arrival_rate=0.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        assert mcsim.arrival_times(p, 100.0, substream(1, "a")).size == 0

    def test_expected_count_cap(self, reference_params, monkeypatch):
        # expected count is rate * (horizon + t0) = 0.1 * (horizon + 20)
        monkeypatch.setattr(mcsim, "MAX_ARRIVALS", 100)
        assert mcsim.arrival_times(reference_params, 980.0, substream(4, "a")).size > 0
        rng = substream(4, "a")
        with pytest.raises(InvalidParameterError, match="expected arrivals"):
            mcsim.arrival_times(reference_params, 990.0, rng)
        assert rng.random() == substream(4, "a").random()  # nothing drawn

    def test_count_confidence_interval(self, reference_params):
        horizon = 1e5
        times = mcsim.arrival_times(reference_params, horizon, substream(5, "a"))
        expected = reference_params.arrival_rate * (horizon + reference_params.dwell_time)
        assert abs(times.size - expected) <= 3 * math.sqrt(expected)

    def test_strictly_increasing_and_window(self, reference_params):
        times = mcsim.arrival_times(reference_params, 500.0, substream(6, "a"))
        assert np.all(np.diff(times) > 0)
        assert times[0] > -reference_params.dwell_time
        assert times[-1] < 500.0

    def test_dwell_duration(self, reference_params):
        # a vehicle attempts in exactly the rounds its dwell (z, z + t0)
        # overlaps, and every attempt lies inside that dwell
        sched = Schedule(8, 7.0)
        times = mcsim.arrival_times(reference_params, 210.0, substream(7, "a"))
        table = mcsim.attempts(reference_params, sched, times, 0, 30,
                               substream(7, "d"))
        t0 = reference_params.dwell_time
        z = times[table.vehicle]
        assert np.all(table.start >= z)
        assert np.all(table.deadline <= z + t0)
        for m, zm in enumerate(times):
            rounds = table.round[table.vehicle == m].tolist()
            assert rounds == [k for k in range(30)
                              if k * sched.t < zm + t0 and (k + 1) * sched.t > zm]

    def test_deterministic(self, reference_params):
        a = mcsim.arrival_times(reference_params, 300.0, substream(8, "a"))
        b = mcsim.arrival_times(reference_params, 300.0, substream(8, "a"))
        assert np.array_equal(a, b)

    def test_bad_horizon(self, reference_params):
        with pytest.raises(InvalidParameterError):
            mcsim.arrival_times(reference_params, 0.0, substream(9, "a"))

    def test_peak_memory_is_one_buffer(self, reference_params):
        # about 10**6 arrivals: one chunk of 1.1 times the expected count,
        # computed in place, and no temporaries of the same size
        rng = substream(10, "a")
        tracemalloc.start()
        try:
            times = mcsim.arrival_times(reference_params, 1e7, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert times.size > 990_000
        assert peak <= 1.5 * times.nbytes


def recorded_table(params, sched, cfg):
    """The attempt table simulate_rounds aggregates, built in one piece."""
    k_total = cfg.warmup_rounds + cfg.num_rounds
    arrivals = mcsim.arrival_times(params, k_total * sched.t,
                                   substream(cfg.seed, "arrivals"))
    table = mcsim.attempts(params, sched, arrivals, cfg.warmup_rounds, k_total,
                           substream(cfg.seed, "delays"))
    return arrivals, table


def per_round_successes(table, cfg):
    """Successes of each recorded round, from its attempt table."""
    return np.bincount(table.round[table.success] - cfg.warmup_rounds,
                       minlength=cfg.num_rounds)


class TestSimulateRounds:
    def test_no_traffic_all_zero(self):
        p = SystemParams(length=400, speed=20, arrival_rate=0.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        hist = mcsim.simulate_rounds(p, Schedule(24, 11.8),
                                     mcsim.SimConfig(seed=1, num_rounds=500))
        assert mcsim.compare_to_poisson(hist, 0.0).mean_empirical == 0.0
        assert hist.tolist() == [500]

    def test_infeasible_round_never_succeeds(self, reference_params):
        # t below the pipeline floor: participants exist, successes cannot
        sched = Schedule(24, 6.0)
        cfg = mcsim.SimConfig(seed=2, num_rounds=2000)
        _, table = recorded_table(reference_params, sched, cfg)
        assert table.round.size > 0
        assert not table.success.any()
        assert mcsim.simulate_rounds(reference_params, sched, cfg).tolist() == [2000]

    def test_matches_poisson_mean(self, reference_params):
        sched = Schedule(24, 11.8)
        lam = an.lambda_param(reference_params, sched.h, sched.t)
        hist = mcsim.simulate_rounds(reference_params, sched,
                                     mcsim.SimConfig(seed=3, num_rounds=20_000))
        sigma = math.sqrt(lam / 20_000)
        assert abs(mcsim.compare_to_poisson(hist, lam).mean_empirical - lam) <= 4 * sigma

    def test_deterministic(self, reference_params):
        cfg = mcsim.SimConfig(seed=11, num_rounds=1000)
        a = mcsim.simulate_rounds(reference_params, Schedule(24, 11.8), cfg)
        b = mcsim.simulate_rounds(reference_params, Schedule(24, 11.8), cfg)
        assert np.array_equal(a, b)
        assert (mcsim.compare_to_poisson(a, 1.0).mean_empirical
                == mcsim.compare_to_poisson(b, 1.0).mean_empirical)

    def test_attempt_invariants(self, reference_params):
        sched = Schedule(24, 11.8)
        cfg = mcsim.SimConfig(seed=4, num_rounds=200)
        hist = mcsim.simulate_rounds(reference_params, sched, cfg)
        arrivals, a = recorded_table(reference_params, sched, cfg)
        t, t0 = sched.t, reference_params.dwell_time
        z = arrivals[a.vehicle]
        assert np.array_equal(a.success, a.completion <= a.deadline)
        assert np.all(a.tau_cp >= reference_params.alpha * sched.h)
        assert np.all(a.deadline <= (a.round + 1) * t)
        assert np.all(a.deadline <= z + t0)  # departure cap
        assert np.all(a.start >= a.round * t)
        assert np.all(a.start >= z)
        assert a.completion == pytest.approx(
            a.start + reference_params.tau_down + a.tau_cp
            + reference_params.tau_up, rel=1e-12)
        # round-major, then by arrival, and exactly the window's vehicles
        expected = [np.flatnonzero((arrivals > k * t - t0) & (arrivals < (k + 1) * t))
                    for k in range(cfg.warmup_rounds, cfg.warmup_rounds + cfg.num_rounds)]
        assert np.array_equal(a.vehicle, np.concatenate(expected))
        assert np.all(np.diff(a.round) >= 0)
        # every row is a recorded round's, and the histogram counts the
        # table's per-round successes
        k_rec = a.round - cfg.warmup_rounds
        participants = np.bincount(k_rec, minlength=cfg.num_rounds)
        successes = per_round_successes(a, cfg)
        assert participants.size == successes.size == cfg.num_rounds
        assert np.all(successes <= participants)
        assert hist.dtype == np.int64
        assert np.array_equal(hist, np.bincount(successes))

    def test_vehicles_span_multiple_short_rounds(self, reference_params):
        # t < t0: each vehicle sits in several round windows
        sched = Schedule(8, 5.0)
        _, table = recorded_table(reference_params, sched,
                                  mcsim.SimConfig(seed=5, num_rounds=400))
        per_vehicle = np.bincount(table.vehicle)
        spans = np.sort(per_vehicle[per_vehicle > 0])
        expected = reference_params.dwell_time / sched.t  # about 4 windows each
        assert spans.max() >= math.floor(expected)
        # interior vehicles appear in floor(t0/t) or +1 consecutive rounds
        interior = spans[10:-10]
        assert set(interior.tolist()) <= {4, 5}

    def test_block_size_leaves_bytes_unchanged(self, reference_params, monkeypatch):
        sched = Schedule(8, 10.0)
        cfg = mcsim.SimConfig(seed=14, num_rounds=3000, warmup_rounds=3)
        arrivals, whole_table = recorded_table(reference_params, sched, cfg)
        monkeypatch.setattr(mcsim, "ATTEMPTS_PER_BLOCK", 50)
        small = mcsim.simulate_rounds(reference_params, sched, cfg)
        blocks = [table for _, _, table in mcsim.attempt_blocks(
            reference_params, sched, arrivals, cfg.warmup_rounds,
            cfg.warmup_rounds + cfg.num_rounds, substream(cfg.seed, "delays"))]
        assert len(blocks) > 100
        for column, whole_column in zip(zip(*blocks), whole_table):
            assert np.array_equal(np.concatenate(column), whole_column)
        monkeypatch.setattr(mcsim, "ATTEMPTS_PER_BLOCK", 10 ** 9)
        whole = mcsim.simulate_rounds(reference_params, sched, cfg)
        assert np.array_equal(small, whole)

    def test_attempt_cap_checked_before_any_delay(self, reference_params, monkeypatch):
        # expected rows are rounds * rate * (t + t0) = rounds * 0.1 * (10 + 20)
        sched = Schedule(8, 10.0)
        arrivals = mcsim.arrival_times(reference_params, 1010.0, substream(4, "a"))
        monkeypatch.setattr(mcsim, "MAX_ATTEMPTS", 301)
        assert sum(table.round.size for _, _, table in mcsim.attempt_blocks(
            reference_params, sched, arrivals, 0, 100, substream(4, "d"))) > 0
        rng = substream(4, "d")
        with pytest.raises(InvalidParameterError, match="expected upload attempts"):
            next(mcsim.attempt_blocks(reference_params, sched, arrivals, 0, 101, rng))
        assert rng.random() == substream(4, "d").random()  # nothing drawn


# Poisson means checked against scipy.stats.poisson, from nearly empty
# rounds to far more successes per round than any shipped environment
ORACLE_LAMBDAS = np.logspace(-6, math.log10(500), 40).tolist() + [1.0, 100.0]


class TestPoissonFit:
    def test_point_mass_at_zero(self):
        p = SystemParams(length=400, speed=20, arrival_rate=0.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        hist = mcsim.simulate_rounds(p, Schedule(24, 11.8),
                                     mcsim.SimConfig(seed=1, num_rounds=100))
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
        cfg = mcsim.SimConfig(seed=777, num_rounds=100_000)
        _, table = recorded_table(reference_params, sched, cfg)
        m_table = per_round_successes(table, cfg)
        assert np.array_equal(mcsim.simulate_rounds(reference_params, sched, cfg),
                              np.bincount(m_table))
        # also the histograms [N] and [0, N]
        for m in (m_table, np.zeros(1000, np.int64), np.ones(1000, np.int64)):
            fit = mcsim.compare_to_poisson(np.bincount(m), 0.9)
            assert fit.mean_empirical == float(m.mean())
            assert fit.p_pos_empirical == float((m > 0).mean())

    def test_empty_histogram_rejected(self):
        with pytest.raises(InvalidParameterError, match="no rounds"):
            mcsim.compare_to_poisson(np.zeros(1, np.int64), 0.9)

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
                                     mcsim.SimConfig(seed=6, num_rounds=20_000))
        fit = mcsim.compare_to_poisson(hist, lam)
        assert fit.tv_distance < 0.02
        assert fit.mean_rel_error < 0.03


def test_subinterval_rates_match_probabilities(reference_params):
    sched = Schedule(24, 25.0)
    expected = an.subinterval_probs(reference_params, sched.h, sched.t)
    n = 20_000
    counts = subinterval_success_counts(reference_params, sched, n,
                                        substream(10, "subintervals"))
    for emp, prob in zip(counts / n, expected):
        assert abs(emp - prob) <= 3 * math.sqrt(prob * (1 - prob) / n)
