import math

import numpy as np
import pytest
from scipy import stats

from roadfl import analytic as an
from roadfl import flsim, mcsim
from roadfl.rng import substream
from roadfl.types import InvalidParameterError, Schedule, SystemParams


def small_cfg(**kw) -> flsim.FLConfig:
    base = dict(feature_dim=8, global_pool_size=256, validation_size=128,
                samples_per_vehicle=128, batch_size=32, horizon=200.0, seed=3)
    base.update(kw)
    return flsim.FLConfig(**base)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        flsim.FLConfig(eta=0.0)
    with pytest.raises(InvalidParameterError):
        flsim.FLConfig(batch_size=2048, samples_per_vehicle=1024)
    with pytest.raises(InvalidParameterError):
        flsim.FLConfig(samples_per_vehicle=4096, global_pool_size=1024)
    with pytest.raises(InvalidParameterError):
        flsim.FLConfig(horizon=0.0)
    with pytest.raises(InvalidParameterError):
        flsim.FLConfig(noise_std=-0.1)


class TestTask:
    def test_noiseless_optimum_is_zero(self):
        cfg = small_cfg(noise_std=0.0)
        task = flsim.generate_task(cfg, substream(1, "task"))
        assert flsim.mse_loss(task.w_true, task.x_val, task.y_val) == 0.0

    def test_noisy_optimum_is_half_variance(self):
        cfg = small_cfg(noise_std=0.5, validation_size=4096, global_pool_size=4096,
                        samples_per_vehicle=256)
        task = flsim.generate_task(cfg, substream(2, "task"))
        loss = flsim.mse_loss(task.w_true, task.x_val, task.y_val)
        assert loss == pytest.approx(0.5 * 0.5 ** 2, rel=0.1)

    def test_pools_are_disjoint_and_deterministic(self):
        cfg = small_cfg()
        a = flsim.generate_task(cfg, substream(5, "task"))
        b = flsim.generate_task(cfg, substream(5, "task"))
        assert np.array_equal(a.x_pool, b.x_pool)
        assert np.array_equal(a.y_val, b.y_val)
        assert a.x_pool.shape == (cfg.global_pool_size, cfg.feature_dim + 1)
        assert a.x_val.shape == (cfg.validation_size, cfg.feature_dim + 1)


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
    def test_zero_steps_is_identity(self):
        cfg = small_cfg()
        task = flsim.generate_task(cfg, substream(8, "task"))
        w0 = flsim.ModelState(np.full(cfg.feature_dim + 1, 0.5))
        out = flsim.local_sgd(w0, task.x_pool, task.y_pool,
                              np.arange(cfg.global_pool_size), None, 0, cfg,
                              substream(8, "sgd"))
        assert np.array_equal(out.weights, w0.weights)

    def test_full_batch_descent_is_monotone(self):
        # batch == dataset turns SGD into gradient descent; below 2/L the
        # quadratic loss cannot increase
        rng = substream(9, "gd")
        x = np.hstack([rng.standard_normal((64, 4)), np.ones((64, 1))])
        y = x @ rng.standard_normal(5)
        hessian = x.T @ x / 64
        eta = 1.0 / float(np.linalg.eigvalsh(hessian).max())
        cfg = flsim.FLConfig(eta=eta, batch_size=64, samples_per_vehicle=64,
                             feature_dim=4, global_pool_size=64,
                             validation_size=16, horizon=10.0, seed=0)
        state = flsim.ModelState(np.zeros(5))
        losses = [flsim.mse_loss(state.weights, x, y)]
        rng_sgd = substream(9, "sgd")
        for _ in range(25):
            state = flsim.local_sgd(state, x, y, np.arange(64), None, 1, cfg,
                                    rng_sgd)
            losses.append(flsim.mse_loss(state.weights, x, y))
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-3 * losses[0]

    def test_rows_and_shift_match_shifted_copy(self):
        # gathering and shifting only the batch rows is bitwise the same
        # as training on a shifted copy of the vehicle's dataset
        cfg = small_cfg()
        task = flsim.generate_task(cfg, substream(12, "task"))
        rng = substream(12, "data")
        rows = rng.choice(cfg.global_pool_size, size=cfg.samples_per_vehicle,
                          replace=False)
        shift = 0.3 * rng.standard_normal(cfg.feature_dim)
        x_copy = task.x_pool[rows]
        x_copy[:, :-1] += shift
        w0 = flsim.ModelState(np.zeros(cfg.feature_dim + 1))
        gathered = flsim.local_sgd(w0, task.x_pool, task.y_pool, rows, shift, 12,
                                   cfg, substream(12, "sgd"))
        copied = flsim.local_sgd(w0, x_copy, task.y_pool[rows],
                                 np.arange(rows.size), None, 12, cfg,
                                 substream(12, "sgd"))
        assert np.array_equal(gathered.weights, copied.weights)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        rng = substream(10, "gd")
        x = np.hstack([rng.standard_normal((64, 4)), np.ones((64, 1))])
        y = x @ rng.standard_normal(5)
        cfg = flsim.FLConfig(eta=1e6, batch_size=64, samples_per_vehicle=64,
                             feature_dim=4, global_pool_size=64,
                             validation_size=16, horizon=10.0, seed=0)
        state = flsim.ModelState(np.zeros(5))
        with pytest.raises(flsim.DivergenceError):
            for _ in range(400):
                state = flsim.local_sgd(state, x, y, np.arange(64), None, 10,
                                        cfg, rng)


class TestAggregate:
    def test_plain_average(self):
        a = flsim.ModelState(np.array([0.0]))
        b = flsim.ModelState(np.array([4.0]))
        assert flsim.aggregate([(a, 10), (b, 10)]).weights[0] == 2.0

    def test_weighted_average(self):
        a = flsim.ModelState(np.array([0.0]))
        b = flsim.ModelState(np.array([4.0]))
        assert flsim.aggregate([(a, 1), (b, 3)]).weights[0] == 3.0

    def test_single_uploader_unchanged(self):
        w = np.array([1.25, -2.5, 0.75])
        out = flsim.aggregate([(flsim.ModelState(w), 17)])
        assert np.array_equal(out.weights, w)

    def test_identical_models_exact(self):
        w = np.array([0.1, 0.2, 0.3])
        models = [(flsim.ModelState(w.copy()), int(d)) for d in (1, 7, 42)]
        assert np.array_equal(flsim.aggregate(models).weights, w)

    def test_weights_sum_to_one(self):
        rng = substream(11, "agg")
        models = [(flsim.ModelState(rng.standard_normal(6)), int(d))
                  for d in rng.integers(1, 100, size=5)]
        total = sum(d for _, d in models)
        manual = sum((d / total) * m.weights for m, d in models)
        out = flsim.aggregate(models)
        assert out.weights == pytest.approx(manual, rel=1e-12)

    def test_empty_round_rejected(self):
        with pytest.raises(ValueError, match="empty round"):
            flsim.aggregate([])


class TestRunFl:
    def test_no_traffic_keeps_initial_model(self):
        p = SystemParams(length=400, speed=20, arrival_rate=0.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        res = flsim.run_fl(p, Schedule(8, 10.0), small_cfg())
        assert res.rounds_valid == 0
        assert np.all(res.losses == res.losses[0])
        assert res.l_min == res.losses[0]

    def test_noiseless_feasible_run_improves(self, reference_params):
        cfg = small_cfg(horizon=500.0)
        res = flsim.run_fl(reference_params, Schedule(8, 6.0), cfg)
        assert res.rounds_valid > 0
        assert res.l_min <= res.losses[0] / 10

    def test_l_min_curve_non_increasing(self, reference_params):
        res = flsim.run_fl(reference_params, Schedule(16, 9.0), small_cfg())
        assert np.all(np.diff(res.l_min_curve) <= 0)
        assert res.l_min_curve[0] == res.losses[0]

    def test_valid_round_rate_matches_analytic(self, reference_params):
        sched = Schedule(24, 11.8)
        cfg = small_cfg(horizon=2400.0, seed=5)
        res = flsim.run_fl(reference_params, sched, cfg)
        p_pos = an.success_probability(reference_params, sched.h, sched.t)
        n = res.rounds_total
        assert n >= 200
        sigma = math.sqrt(p_pos * (1 - p_pos) / n)
        assert abs(res.rounds_valid / n - p_pos) <= 3 * sigma

    def test_deterministic(self, reference_params):
        cfg = small_cfg(seed=21)
        a = flsim.run_fl(reference_params, Schedule(8, 6.0), cfg)
        b = flsim.run_fl(reference_params, Schedule(8, 6.0), cfg)
        assert np.array_equal(a.losses, b.losses)
        assert a.rounds_valid == b.rounds_valid

    def test_rounds_valid_matches_attempt_table(self, reference_params):
        sched = Schedule(16, 9.0)
        cfg = small_cfg()
        res = flsim.run_fl(reference_params, sched, cfg)
        tag = f"{sched.h}:{sched.t:.9g}"
        arrivals = mcsim.arrival_times(reference_params, res.rounds_total * sched.t,
                                       substream(cfg.seed, "arrivals", tag))
        table = mcsim.attempts(reference_params, sched, arrivals, 0, res.rounds_total,
                               substream(cfg.seed, "delays", tag))
        won = np.unique(table.round[table.success])
        assert res.rounds_valid == won.size > 0
        # the global model moves only in rounds with a success
        assert set(np.flatnonzero(np.diff(res.losses) != 0)) <= set(won.tolist())

    def test_infeasible_schedule_never_trains(self, reference_params, monkeypatch):
        # t = 6 s is below t_min(24) = 6.8 s: no upload can arrive in time
        def refuse(*args, **kwargs):
            raise AssertionError("local_sgd called for an infeasible schedule")

        monkeypatch.setattr(flsim, "local_sgd", refuse)
        res = flsim.run_fl(reference_params, Schedule(24, 6.0), small_cfg())
        assert res.rounds_valid == 0
        assert np.all(res.losses == res.losses[0])

    def test_loss_evaluated_only_after_training(self, reference_params, monkeypatch):
        # rounds without an upload leave the model, hence its loss, unchanged
        calls = []
        real = flsim.mse_loss

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(flsim, "mse_loss", counting)
        res = flsim.run_fl(reference_params, Schedule(24, 9.0), small_cfg(horizon=400.0))
        assert 0 < res.rounds_valid < res.rounds_total
        assert len(calls) == 1 + res.rounds_valid

    def test_horizon_shorter_than_round_rejected(self, reference_params):
        with pytest.raises(InvalidParameterError):
            flsim.run_fl(reference_params, Schedule(8, 300.0), small_cfg())


class TestVehicleShiftMode:
    def test_shift_changes_training_but_not_timing(self, reference_params):
        iid = small_cfg(seed=30)
        shifted = small_cfg(seed=30, vehicle_shift_std=0.5)
        a = flsim.run_fl(reference_params, Schedule(8, 6.0), iid)
        b = flsim.run_fl(reference_params, Schedule(8, 6.0), shifted)
        assert a.rounds_valid == b.rounds_valid  # timing path untouched
        assert not np.array_equal(a.losses, b.losses)
        assert np.all(np.diff(b.l_min_curve) <= 0)

    def test_negative_shift_rejected(self):
        with pytest.raises(InvalidParameterError):
            small_cfg(vehicle_shift_std=-1.0)


class TestProxyCorrelation:
    def test_needs_eight_schedules(self, reference_params):
        res = flsim.run_fl(reference_params, Schedule(8, 6.0), small_cfg())
        with pytest.raises(InvalidParameterError):
            flsim.proxy_correlation([res] * 7, reference_params)

    def test_duplicated_schedule_is_degenerate(self, reference_params):
        res = flsim.run_fl(reference_params, Schedule(8, 6.0), small_cfg())
        report = flsim.proxy_correlation([res] * 8, reference_params)
        assert report.degenerate
        assert math.isnan(report.rho)

    def test_positive_on_small_grid(self, reference_params):
        cfg = small_cfg(horizon=400.0, seed=13)
        schedules = [Schedule(8, 4.0), Schedule(8, 5.5), Schedule(8, 8.0),
                     Schedule(16, 6.0), Schedule(16, 8.5), Schedule(24, 8.0),
                     Schedule(24, 11.8), Schedule(24, 3.0)]
        results = [flsim.run_fl(reference_params, s, cfg) for s in schedules]
        report = flsim.proxy_correlation(results, reference_params)
        assert not report.degenerate
        assert report.rho > 0

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
        results = [flsim.FLRunResult(s, np.zeros(1), np.array([l]), np.array([l]), 0, 0)
                   for s, l in zip(schedules, l_min)]
        report = flsim.proxy_correlation(results, reference_params)
        g_all = an.g(reference_params, [s.h for s in schedules], [s.t for s in schedules])
        expected = stats.spearmanr(g_all, -np.array(l_min)).statistic
        assert not report.degenerate
        assert report.rho == pytest.approx(expected, rel=1e-12)
        if case == "reversed":
            assert report.rho == pytest.approx(-1.0, rel=1e-12)
