import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracle import arrival_times, fl_work, local_sgd_one_vehicle
from roadfl import analytic as an
from roadfl import flsim, mcsim
from roadfl.rng import substream
from roadfl.types import ConfigError, FLConfig, Schedule, SimConfig, SystemParams


def small_cfg(**kw) -> FLConfig:
    base = dict(feature_dim=8, global_pool_size=256, validation_size=128,
                samples_per_vehicle=128, batch_size=32, horizon=200.0, seed=3)
    base.update(kw)
    return FLConfig(**base)


def plan(params: SystemParams, sched: Schedule, cfg: FLConfig) -> flsim.RunPlan:
    return flsim.plan_runs(params, [sched], cfg)[0]


def train(params: SystemParams, sched: Schedule, cfg: FLConfig) -> np.ndarray:
    return flsim.run_fl(plan(params, sched, cfg), flsim.generate_task(cfg), cfg)


def rounds_valid(planned: flsim.RunPlan) -> int:
    """The plan's rounds with a winner, which run_fl evaluates after training."""
    return np.unique(planned.winner_round).size


def test_config_validation():
    with pytest.raises(ConfigError):
        FLConfig(eta=0.0)
    with pytest.raises(ConfigError):
        FLConfig(batch_size=2048, samples_per_vehicle=1024)
    with pytest.raises(ConfigError):
        FLConfig(samples_per_vehicle=4096, global_pool_size=1024)
    with pytest.raises(ConfigError):
        FLConfig(horizon=0.0)
    with pytest.raises(ConfigError):
        FLConfig(noise_std=-0.1)
    # the task holds (pool + validation) x (feature_dim + 1) values, at
    # most MAX_VALUES = 2 * 2**14 * 2**10
    FLConfig(global_pool_size=2**14, validation_size=2**14, feature_dim=2**10 - 1)
    with pytest.raises(ConfigError, match="task holds"):
        FLConfig(global_pool_size=2**14, validation_size=2**14 + 1,
                       feature_dim=2**10 - 1)


class TestTask:
    def test_noiseless_optimum_is_zero(self):
        cfg = small_cfg(noise_std=0.0, seed=1)
        task = flsim.generate_task(cfg)
        w_true = substream(1, "task").standard_normal(cfg.feature_dim + 1)
        assert flsim.mse_loss(w_true, task.x_val, task.y_val) == 0.0

    def test_noisy_optimum_is_half_variance(self):
        cfg = small_cfg(noise_std=0.5, validation_size=4096, global_pool_size=4096,
                        samples_per_vehicle=256, seed=2)
        task = flsim.generate_task(cfg)
        w_true = substream(2, "task").standard_normal(cfg.feature_dim + 1)
        loss = flsim.mse_loss(w_true, task.x_val, task.y_val)
        assert loss == pytest.approx(0.5 * 0.5 ** 2, rel=0.1)

    def test_pools_are_disjoint_and_deterministic(self):
        cfg = small_cfg(seed=5)
        a = flsim.generate_task(cfg)
        b = flsim.generate_task(cfg)
        assert np.array_equal(a.x_pool, b.x_pool)
        assert np.array_equal(a.y_val, b.y_val)
        assert a.x_pool.shape == (cfg.global_pool_size, cfg.feature_dim + 1)
        assert a.x_val.shape == (cfg.validation_size, cfg.feature_dim + 1)

    @pytest.mark.parametrize("feature_dim,noise_std", [(1, 0.0), (300, 0.1), (512, 0.0)])
    def test_task_is_the_one_shot_draw(self, feature_dim, noise_std):
        # the features of one (n, d) draw next to a ones column, as np.hstack
        # built them; d = 300 splits the rows into uneven chunks
        cfg = FLConfig(feature_dim=feature_dim, noise_std=noise_std,
                             global_pool_size=1024, validation_size=1000, seed=6)
        n = cfg.global_pool_size + cfg.validation_size
        rng = substream(6, "task")
        w_true = rng.standard_normal(feature_dim + 1)
        x = np.hstack([rng.standard_normal((n, feature_dim)), np.ones((n, 1))])
        y = x @ w_true
        if noise_std > 0:
            y = y + noise_std * rng.standard_normal(n)
        tracemalloc.start()
        try:
            task = flsim.generate_task(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for got, want in ((task.x_pool, x[:1024]), (task.x_val, x[1024:]),
                          (task.y_pool, y[:1024]), (task.y_val, y[1024:])):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        task_bytes = x.nbytes + y.nbytes + w_true.nbytes
        if feature_dim > 1:
            # no temporary of the task's size; the 48 KB task of d = 1 is
            # checked for its bytes only, as fixed costs of the draw exceed it
            assert peak <= 1.1 * task_bytes


class TestGradient:
    def test_matches_central_differences(self):
        rng = substream(7, "grad")
        x = np.hstack([rng.standard_normal((40, 6)), np.ones((40, 1))])
        w_true = rng.standard_normal(7)
        y = x @ w_true + 0.3 * rng.standard_normal(40)
        w = rng.standard_normal(7)
        grad = flsim.mse_gradient(w, x, y)
        step = 1e-6
        for j in range(7):
            bump = np.zeros(7)
            bump[j] = step
            fd = (flsim.mse_loss(w + bump, x, y)
                  - flsim.mse_loss(w - bump, x, y)) / (2 * step)
            assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestLocalSgd:
    def test_step_is_a_gradient_step(self):
        cfg = small_cfg(seed=13)
        task = flsim.generate_task(cfg)
        rows = np.arange(cfg.samples_per_vehicle)
        w0 = substream(13, "w").standard_normal(cfg.feature_dim + 1)
        out = flsim.local_sgd(w0, task.x_pool, task.y_pool, rows, None, 1, cfg,
                              substream(13, "sgd"))
        batch = rows[substream(13, "sgd").choice(rows.size, size=cfg.batch_size,
                                                 replace=False)]
        step = cfg.eta * flsim.mse_gradient(w0, task.x_pool[batch], task.y_pool[batch])
        assert np.array_equal(out, w0 - step)

    def test_zero_steps_is_identity(self):
        cfg = small_cfg(seed=8)
        task = flsim.generate_task(cfg)
        w0 = np.full(cfg.feature_dim + 1, 0.5)
        out = flsim.local_sgd(w0, task.x_pool, task.y_pool,
                              np.arange(cfg.global_pool_size), None, 0, cfg,
                              substream(8, "sgd"))
        assert np.array_equal(out, w0) and out is not w0

    def test_full_batch_descent_is_monotone(self):
        # batch == dataset turns SGD into gradient descent; below 2/L the
        # quadratic loss cannot increase
        rng = substream(9, "gd")
        x = np.hstack([rng.standard_normal((64, 4)), np.ones((64, 1))])
        y = x @ rng.standard_normal(5)
        hessian = x.T @ x / 64
        eta = 1.0 / float(np.linalg.eigvalsh(hessian).max())
        cfg = FLConfig(eta=eta, batch_size=64, samples_per_vehicle=64,
                             feature_dim=4, global_pool_size=64,
                             validation_size=16, horizon=10.0, seed=0)
        w = np.zeros(5)
        losses = [flsim.mse_loss(w, x, y)]
        rng_sgd = substream(9, "sgd")
        for _ in range(25):
            w = flsim.local_sgd(w, x, y, np.arange(64), None, 1, cfg, rng_sgd)
            losses.append(flsim.mse_loss(w, x, y))
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-3 * losses[0]

    def test_rows_and_shift_match_shifted_copy(self):
        # gathering and shifting only the batch rows is bitwise the same
        # as training on a shifted copy of the vehicle's dataset
        cfg = small_cfg(seed=12)
        task = flsim.generate_task(cfg)
        rng = substream(12, "data")
        rows = rng.choice(cfg.global_pool_size, size=cfg.samples_per_vehicle,
                          replace=False)
        shift = 0.3 * rng.standard_normal(cfg.feature_dim)
        x_copy = task.x_pool[rows]
        x_copy[:, :-1] += shift
        w0 = np.zeros(cfg.feature_dim + 1)
        gathered = flsim.local_sgd(w0, task.x_pool, task.y_pool, rows, shift, 12, cfg,
                                   substream(12, "sgd"))
        copied = flsim.local_sgd(w0, x_copy, task.y_pool[rows], np.arange(rows.size),
                                 None, 12, cfg, substream(12, "sgd"))
        assert np.array_equal(gathered, copied)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        rng = substream(10, "gd")
        x = np.hstack([rng.standard_normal((64, 4)), np.ones((64, 1))])
        y = x @ rng.standard_normal(5)
        cfg = FLConfig(eta=1e6, batch_size=64, samples_per_vehicle=64,
                             feature_dim=4, global_pool_size=64,
                             validation_size=16, horizon=10.0, seed=0)
        w = np.zeros(5)
        with pytest.raises(flsim.DivergenceError):
            for _ in range(400):
                w = flsim.local_sgd(w, x, y, np.arange(64), None, 10, cfg, rng)

    @settings(max_examples=40, deadline=None)
    @given(h_steps=st.integers(0, 12), feature_dim=st.sampled_from([1, 8, 512]),
           shifted=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_oracle(self, h_steps, feature_dim, shifted, seed):
        # the same batches from the same stream and the same arithmetic,
        # so the weights are bitwise the oracle's
        cfg = small_cfg(feature_dim=feature_dim, seed=seed)
        task = flsim.generate_task(cfg)
        data = substream(seed, "data")
        rows = data.choice(cfg.global_pool_size, size=cfg.samples_per_vehicle,
                           replace=False)
        shift = 0.3 * data.standard_normal(feature_dim) if shifted else None
        w0 = data.standard_normal(feature_dim + 1)
        out = flsim.local_sgd(w0, task.x_pool, task.y_pool, rows, shift, h_steps, cfg,
                              substream(seed, "sgd"))
        assert np.array_equal(out, local_sgd_one_vehicle(
            w0, task.x_pool, task.y_pool, rows, shift, h_steps, cfg,
            substream(seed, "sgd")))


class TestAggregate:
    def test_plain_average(self):
        a, b = np.array([0.0]), np.array([4.0])
        assert flsim.aggregate([a, b])[0] == 2.0

    def test_single_uploader_unchanged(self):
        w = np.array([1.25, -2.5, 0.75])
        out = flsim.aggregate([w])
        assert np.array_equal(out, w)
        assert out is not w

    def test_identical_models_exact(self):
        w = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(flsim.aggregate([w.copy() for _ in range(3)]), w)

    def test_weights_sum_to_one(self):
        rng = substream(11, "agg")
        models = [rng.standard_normal(6) for _ in range(5)]
        manual = sum(models) / len(models)
        assert flsim.aggregate(models) == pytest.approx(manual, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_average_rejected(self):
        # each model is finite; their weighted difference overflows
        a, b = np.array([-1e308]), np.array([1e308])
        with pytest.raises(flsim.DivergenceError):
            flsim.aggregate([a, b])


class TestRunFl:
    def test_no_traffic_keeps_initial_model(self):
        p = SystemParams(length=400, speed=20, arrival_rate=0.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        cfg = small_cfg()
        planned = plan(p, Schedule(8, 10.0), cfg)
        losses = flsim.run_fl(planned, flsim.generate_task(cfg), cfg)
        assert rounds_valid(planned) == 0
        assert losses.size == planned.rounds_total + 1
        assert np.all(losses == losses[0])

    def test_noiseless_feasible_run_improves(self, reference_params):
        cfg = small_cfg(horizon=500.0)
        planned = plan(reference_params, Schedule(8, 6.0), cfg)
        losses = flsim.run_fl(planned, flsim.generate_task(cfg), cfg)
        assert rounds_valid(planned) > 0
        assert losses.min() <= losses[0] / 10

    def test_valid_round_rate_matches_analytic(self, reference_params):
        sched = Schedule(24, 11.8)
        cfg = small_cfg(horizon=2400.0, seed=5)
        planned = plan(reference_params, sched, cfg)
        p_pos = an.surface(reference_params, sched.h, sched.t)[2]
        n = planned.rounds_total
        assert n >= 200
        sigma = math.sqrt(p_pos * (1 - p_pos) / n)
        assert abs(rounds_valid(planned) / n - p_pos) <= 3 * sigma

    def test_deterministic(self, reference_params):
        cfg = small_cfg(seed=21)
        a = train(reference_params, Schedule(8, 6.0), cfg)
        b = train(reference_params, Schedule(8, 6.0), cfg)
        assert np.array_equal(a, b)

    def test_rounds_valid_matches_attempt_table(self, reference_params):
        sched = Schedule(16, 9.0)
        cfg = small_cfg()
        planned = plan(reference_params, sched, cfg)
        losses = flsim.run_fl(planned, flsim.generate_task(cfg), cfg)
        tag = f"{sched.h}:{sched.t:.9g}"
        arrivals = arrival_times(reference_params, planned.rounds_total * sched.t,
                                 substream(cfg.seed, "arrivals", tag))
        table = mcsim.attempts(reference_params, sched, arrivals, 0, planned.rounds_total,
                               substream(cfg.seed, "delays", tag))
        won = np.unique(table.round[table.success])
        assert rounds_valid(planned) == won.size > 0
        # the global model moves only in rounds with a success
        assert set(np.flatnonzero(np.diff(losses) != 0)) <= set(won.tolist())

    def test_infeasible_schedule_never_trains(self, reference_params, monkeypatch):
        # t = 6 s is below t_min(24) = 6.8 s: no upload can arrive in time
        def refuse(*args, **kwargs):
            raise AssertionError("local_sgd called for an infeasible schedule")

        monkeypatch.setattr(flsim, "local_sgd", refuse)
        cfg = small_cfg()
        planned = plan(reference_params, Schedule(24, 6.0), cfg)
        losses = flsim.run_fl(planned, flsim.generate_task(cfg), cfg)
        assert rounds_valid(planned) == 0
        assert np.all(losses == losses[0])

    def test_loss_evaluated_only_after_training(self, reference_params, monkeypatch):
        # rounds without an upload leave the model, hence its loss, unchanged
        calls = []
        real = flsim.mse_loss

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(flsim, "mse_loss", counting)
        cfg = small_cfg(horizon=400.0)
        planned = plan(reference_params, Schedule(24, 9.0), cfg)
        flsim.run_fl(planned, flsim.generate_task(cfg), cfg)
        assert 0 < rounds_valid(planned) < planned.rounds_total
        assert len(calls) == 1 + rounds_valid(planned)

    def test_block_size_leaves_bytes_unchanged(self, reference_params, monkeypatch):
        blocks = []
        real = mcsim.attempts

        def counting(*args):
            blocks.append(1)
            return real(*args)

        monkeypatch.setattr(mcsim, "attempts", counting)
        sched, cfg = Schedule(8, 6.0), small_cfg(horizon=400.0)
        monkeypatch.setattr(mcsim, "ATTEMPTS_PER_BLOCK", 50)
        small = plan(reference_params, sched, cfg)
        assert len(blocks) > 1
        monkeypatch.setattr(mcsim, "ATTEMPTS_PER_BLOCK", 10 ** 9)
        whole = plan(reference_params, sched, cfg)
        task = flsim.generate_task(cfg)
        assert np.array_equal(flsim.run_fl(small, task, cfg), flsim.run_fl(whole, task, cfg))
        assert rounds_valid(small) == rounds_valid(whole) > 0

    def test_sgd_work_cap_checked_before_any_dataset(self, reference_params, monkeypatch):
        sched, cfg = Schedule(16, 9.0), small_cfg()
        tag = f"{sched.h}:{sched.t:.9g}"
        rounds = int(cfg.horizon // sched.t)
        arrivals = arrival_times(reference_params, rounds * sched.t,
                                 substream(cfg.seed, "arrivals", tag))
        table = mcsim.attempts(reference_params, sched, arrivals, 0, rounds,
                               substream(cfg.seed, "delays", tag))
        winners = int(table.success.sum())
        rounds_valid = np.unique(table.round[table.success]).size
        assert winners > rounds_valid > 0
        work = fl_work(sched.h, cfg, winners, rounds_valid)
        assert plan(reference_params, sched, cfg).work == work
        monkeypatch.setattr(flsim, "MAX_SGD_WORK", work)
        train(reference_params, sched, cfg)
        monkeypatch.setattr(flsim, "MAX_SGD_WORK", work - 1)
        purposes = []

        def recording(seed, purpose, *tags):
            purposes.append(purpose)
            return substream(seed, purpose, *tags)

        # the replay's streams are opened in mcsim, the data streams in flsim
        for module in (mcsim, flsim):
            monkeypatch.setattr(module, "substream", recording)
        with pytest.raises(ConfigError, match="multiply-adds"):
            train(reference_params, sched, cfg)
        assert "delays" in purposes and "data" not in purposes

    def test_arrival_cap_checked_before_any_plan(self, reference_params, monkeypatch):
        # 28 rounds of 7 s, then 22 of 9 s: 0.1 * (196 + 20) = 21.6 and
        # 0.1 * (198 + 20) = 21.8 expected arrivals
        cfg = small_cfg()
        scheds = [Schedule(8, 7.0), Schedule(16, 9.0)]
        arrivals = [mcsim.expected_arrivals(reference_params, int(cfg.horizon // s.t) * s.t)
                    for s in scheds]
        assert arrivals == [pytest.approx(21.6), pytest.approx(21.8)]
        monkeypatch.setattr(mcsim, "MAX_ARRIVALS", arrivals[1])
        assert len(flsim.plan_runs(reference_params, scheds, cfg)) == 2
        purposes = []

        def recording(seed, purpose, *tags):
            purposes.append(purpose)
            return substream(seed, purpose, *tags)

        for module in (mcsim, flsim):
            monkeypatch.setattr(module, "substream", recording)
        monkeypatch.setattr(mcsim, "MAX_ARRIVALS", 21.7)
        with pytest.raises(ConfigError, match="^21.8 expected arrivals, more than 21.7$"):
            flsim.plan_runs(reference_params, scheds, cfg)
        assert purposes == []  # not even the first run is planned

    def test_each_replay_opens_its_two_streams_once_in_mcsim(self, reference_params,
                                                             monkeypatch):
        # every substream call made through mcsim and flsim, with the module
        opened = []

        def recording(module):
            def opening(seed, *tags):
                opened.append((module.__name__, seed, *tags))
                return substream(seed, *tags)
            return opening

        for module in (mcsim, flsim):
            monkeypatch.setattr(module, "substream", recording(module))
        # 6,000 rounds of about 3.2 rows in blocks of about 2,600 rounds, so
        # that share 1 of 2 builds blocks and skips the delays of share 0's
        sched, sim = Schedule(24, 11.8), SimConfig(seed=5, num_rounds=6000)
        histograms = []
        for share in (0, 1):
            opened.clear()
            histograms.append(mcsim.simulate_rounds(reference_params, sched, sim, share, 2))
            assert opened == [("roadfl.mcsim", 5, "arrivals"), ("roadfl.mcsim", 5, "delays")]
        assert all(0 < histogram.sum() < 6000 for histogram in histograms)
        cfg = small_cfg()
        opened.clear()
        flsim.plan_runs(reference_params, [Schedule(8, 7.0), Schedule(16, 9.0), sched], cfg)
        assert opened == [("roadfl.mcsim", cfg.seed, name, tag)
                          for tag in ("8:7", "16:9", "24:11.8")
                          for name in ("arrivals", "delays")]

    def test_work_cap_stops_at_the_first_block_over_it(self, reference_params,
                                                       monkeypatch):
        tables = []
        real = mcsim.attempts

        def recording(*args):
            tables.append(real(*args))
            return tables[-1]

        monkeypatch.setattr(mcsim, "attempts", recording)
        # one round per block, split into tables of one row
        monkeypatch.setattr(mcsim, "ATTEMPTS_PER_BLOCK", 1)
        sched, cfg = Schedule(8, 6.0), small_cfg(horizon=400.0)
        whole = plan(reference_params, sched, cfg)
        assert max(table.round.size for table in tables) == 1
        # the table that holds the second winner
        second = int(np.cumsum([table.success.sum() for table in tables]).searchsorted(2))
        assert second < len(tables) - 1
        # a cap of the first winner's work and of the evaluations before and
        # after its round
        monkeypatch.setattr(flsim, "MAX_SGD_WORK", fl_work(sched.h, cfg, 1, 1))
        tables.clear()
        total = fl_work(sched.h, cfg, 2, np.unique(whole.winner_round[:2]).size)
        with pytest.raises(ConfigError, match=f"^the schedules need {total} "
                           "multiply-adds of local training, more than"):
            plan(reference_params, sched, cfg)
        assert len(tables) == second + 1

    def test_block_size_leaves_the_plan_unchanged(self, reference_params, monkeypatch):
        # rounds of about 2.6 rows: many rounds per block, one, or one
        # round split into tables of one or two rows
        sched, cfg = Schedule(8, 6.0), small_cfg(horizon=400.0)
        plans = []
        for rows in (10 ** 9, 4, 2, 1):
            monkeypatch.setattr(mcsim, "ATTEMPTS_PER_BLOCK", rows)
            plans.append(plan(reference_params, sched, cfg))
        # some round has two winners, so a split round is evaluated once
        assert np.unique(plans[0].winner_round).size < plans[0].winner.size
        for other in plans[1:]:
            assert other.work == plans[0].work
            assert np.array_equal(other.winner_round, plans[0].winner_round)
            assert np.array_equal(other.winner, plans[0].winner)

    def test_each_win_draws_the_winners_own_data(self, reference_params, monkeypatch):
        tags, trained = [], []

        def recording(seed, purpose, *rest):
            if purpose == "data":
                tags.append(rest)
            return substream(seed, purpose, *rest)

        def training(w, x, y, rows, shift, *args):
            trained.append((rows.tolist(), shift.tolist()))
            return real(w, x, y, rows, shift, *args)

        real = flsim.local_sgd
        monkeypatch.setattr(flsim, "substream", recording)
        monkeypatch.setattr(flsim, "local_sgd", training)
        # 6 s rounds in a 20 s dwell time, so vehicles win more than once
        sched, cfg = Schedule(8, 6.0), small_cfg(horizon=400.0, vehicle_shift_std=0.5)
        planned = plan(reference_params, sched, cfg)
        flsim.run_fl(planned, flsim.generate_task(cfg), cfg)
        winners = planned.winner.tolist()
        assert tags == [("8:6", m) for m in winners]
        assert len(trained) == len(winners)
        first = {}
        for m, data in zip(winners, trained):
            assert first.setdefault(m, data) == data
        assert len(first) < len(winners)

    def test_horizon_shorter_than_round_rejected(self, reference_params):
        with pytest.raises(ConfigError):
            plan(reference_params, Schedule(8, 300.0), small_cfg())


class TestVehicleShiftMode:
    def test_shift_changes_training_but_not_timing(self, reference_params):
        iid = small_cfg(seed=30)
        shifted = small_cfg(seed=30, vehicle_shift_std=0.5)
        a = plan(reference_params, Schedule(8, 6.0), iid)
        b = plan(reference_params, Schedule(8, 6.0), shifted)
        # timing path untouched
        assert np.array_equal(a.winner_round, b.winner_round)
        assert np.array_equal(a.winner, b.winner)
        assert not np.array_equal(flsim.run_fl(a, flsim.generate_task(iid), iid),
                                  flsim.run_fl(b, flsim.generate_task(shifted), shifted))

    def test_negative_shift_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(vehicle_shift_std=-1.0)


class TestProxyCorrelation:
    def test_duplicated_schedule_is_degenerate(self, reference_params):
        l_min = train(reference_params, Schedule(8, 6.0), small_cfg()).min()
        rho = flsim.proxy_correlation([Schedule(8, 6.0)] * 8, [l_min] * 8, reference_params)
        assert math.isnan(rho)

    def test_positive_on_small_grid(self, reference_params):
        cfg = small_cfg(horizon=400.0, seed=13)
        schedules = [Schedule(8, 4.0), Schedule(8, 5.5), Schedule(8, 8.0),
                     Schedule(16, 6.0), Schedule(16, 8.5), Schedule(24, 8.0),
                     Schedule(24, 11.8), Schedule(24, 3.0)]
        l_min = [train(reference_params, s, cfg).min() for s in schedules]
        assert flsim.proxy_correlation(schedules, l_min, reference_params) > 0

    @pytest.mark.parametrize("case", ["ties", "no_ties", "reversed"])
    def test_rho_matches_scipy_spearman(self, reference_params, case):
        ts = [7.0, 7.5, 8.0, 8.5, 9.0, 9.5, 10.0, 10.5, 11.0]
        schedules = [Schedule(24, t) for t in ts]
        g = an.g(reference_params, 24, np.array(ts))
        assert np.all(np.diff(g) > 0)
        if case == "ties":
            # a repeated schedule ties g; repeated losses tie the score
            schedules.append(Schedule(24, 8.0))
            l_min = [3.0, 1.0, 2.0, 2.0, 5.0, 1.0, 0.5, 2.0, 0.25, 4.0]
        elif case == "no_ties":
            l_min = [3.0, 1.0, 2.5, 2.0, 5.0, 1.5, 0.5, 0.75, 0.25]
        else:
            l_min = list(g)
        rho = flsim.proxy_correlation(schedules, l_min, reference_params)
        g_all = an.g(reference_params, [s.h for s in schedules], [s.t for s in schedules])
        expected = stats.spearmanr(g_all, -np.array(l_min)).statistic
        assert rho == pytest.approx(expected, rel=1e-12)
        if case == "reversed":
            assert rho == pytest.approx(-1.0, rel=1e-12)
