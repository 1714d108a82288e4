import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import random_feasible_params
from oracle import slack, subinterval_probs, success_given_arrival
from roadfl import analytic as an
from roadfl.types import InfeasibleError, Schedule, SystemParams


# Direct evaluations of the closed forms, written out with plain exp so
# they exercise a different arithmetic path than the implementation.

def direct_lambda(params, h, t):
    tmin = params.alpha * h + params.tau_down + params.tau_up
    xi = min(t, params.dwell_time) - tmin
    if xi <= 0:
        return 0.0
    bh = params.beta * h
    return (2 * params.arrival_rate * xi
            + params.arrival_rate * (1 - math.exp(-xi / bh))
            * (abs(t - params.dwell_time) - 2 * bh))


class TestPipelineFloor:
    def test_reference_h24(self, reference_params):
        assert an.t_min(reference_params, 24) == pytest.approx(6.8, rel=1e-12)

    def test_single_iteration_no_links(self):
        p = SystemParams(length=400, speed=20, arrival_rate=0.1,
                         tau_down=0, tau_up=0, alpha=0.2, beta=0.2)
        assert an.t_min(p, 1) == pytest.approx(0.2, rel=1e-15)

    def test_boundary_h90(self, reference_params):
        assert an.t_min(reference_params, 90) == pytest.approx(20.0, rel=1e-12)


class TestSlack:
    def test_reference_point(self, reference_params):
        assert slack(reference_params, 24, 11.8) == pytest.approx(5.0, rel=1e-12)

    def test_saturates_for_long_rounds(self, reference_params):
        wide = slack(reference_params, 24, 1e9)
        assert wide == pytest.approx(20.0 - 6.8, rel=1e-12)

    def test_boundary_is_zero_not_error(self, reference_params):
        assert slack(reference_params, 90, 25) == pytest.approx(0.0, abs=1e-12)


class TestPoissonMean:
    def test_reference_short_round(self, reference_params):
        lam = an.lambda_param(reference_params, 24, 11.8)
        assert lam == pytest.approx(direct_lambda(reference_params, 24, 11.8), rel=1e-12)
        assert lam == pytest.approx(0.9094, abs=5e-5)

    def test_reference_long_round(self, reference_params):
        lam = an.lambda_param(reference_params, 24, 25)
        assert lam == pytest.approx(direct_lambda(reference_params, 24, 25), rel=1e-12)
        assert lam == pytest.approx(2.2094, abs=5e-5)

    def test_no_arrivals(self):
        p = SystemParams(length=400, speed=20, arrival_rate=0.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        assert an.lambda_param(p, 24, 11.8) == 0.0

    def test_zero_when_infeasible(self, reference_params):
        assert an.lambda_param(reference_params, 24, 6.0) == 0.0
        assert an.lambda_param(reference_params, 90, 25) == 0.0

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            params, hm = random_feasible_params(rng)
            h = int(rng.integers(1, 2 * hm))
            t = float(rng.uniform(0.05, 4 * params.dwell_time))
            assert an.lambda_param(params, h, t) >= 0.0


class TestSuccessProbability:
    def test_zero_mean(self, reference_params):
        assert an.surface(reference_params, 24, 6.0)[2] == 0.0

    def test_reference_point(self, reference_params):
        p = an.surface(reference_params, 24, 11.8)[2]
        expected = 1 - math.exp(-direct_lambda(reference_params, 24, 11.8))
        assert p == pytest.approx(expected, rel=1e-12)
        assert p == pytest.approx(0.5972, abs=5e-5)

    def test_strictly_increasing_in_arrival_rate(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            params, hm = random_feasible_params(rng)
            h = int(rng.integers(1, hm + 1))
            t = float(rng.uniform(an.t_min(params, h) + 0.05,
                                  3 * params.dwell_time))
            rates = np.sort(rng.uniform(0.01, 2.0, size=4))
            probs, means = [], []
            for rate in rates:
                p2 = SystemParams(length=params.length, speed=params.speed,
                                  arrival_rate=float(rate),
                                  tau_down=params.tau_down, tau_up=params.tau_up,
                                  alpha=params.alpha, beta=params.beta)
                probs.append(an.surface(p2, h, t)[2])
                means.append(an.lambda_param(p2, h, t))
            assert all(a < b for a, b in zip(means, means[1:]))
            # strict until the probability saturates at 1 in floats
            assert all(a < b or b > 1 - 1e-12
                       for a, b in zip(probs, probs[1:]))
            assert all(a <= b for a, b in zip(probs, probs[1:]))


class TestSubintervalProbs:
    def test_reference_long_round(self, reference_params):
        p1, p2, p3 = subinterval_probs(reference_params, 24, 25)
        assert p2 == pytest.approx(0.9361, abs=5e-5)
        assert p1 == pytest.approx(0.4353, abs=5e-5)
        assert p1 == p3

    def test_quadrature_oracle(self, reference_params):
        # integrate the success probability conditioned on the arrival
        # instant over each sub-interval; round 0, t >= t0
        params = reference_params
        for sched in (Schedule(24, 25), Schedule(24, 12)):
            t0, t, h = params.dwell_time, sched.t, sched.h
            bh = params.beta * h

            def p_given_arrival(z):
                budget = min(z + t0, t) - (max(0.0, z) + params.tau_down + params.tau_up)
                if budget < params.alpha * h:
                    return 0.0
                return 1.0 - math.exp(-(budget - params.alpha * h) / bh)

            if t >= t0:
                cuts = [-t0, 0.0, t - t0, t]
                spans = [t0, t - t0, t0]
            else:
                cuts = [-t0, t - t0, 0.0, t]
                spans = [t, t0 - t, t]
            expected = []
            for a, b, span in zip(cuts, cuts[1:], spans):
                mass, _ = integrate.quad(p_given_arrival, a, b, limit=200)
                expected.append(mass / span)
            got = subinterval_probs(params, sched.h, sched.t)
            assert got == pytest.approx(expected, rel=1e-8)

    def test_mean_identity(self):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            params, hm = random_feasible_params(rng)
            h = int(rng.integers(1, hm + 1))
            t = float(params.dwell_time + rng.uniform(0, 60))
            p1, p2, p3 = subinterval_probs(params, h, t)
            lam = an.lambda_param(params, h, t)
            ident = params.arrival_rate * (
                min(t, params.dwell_time) * (p1 + p3)
                + abs(t - params.dwell_time) * p2)
            assert ident == pytest.approx(lam, rel=1e-12)

    def test_vanishing_window(self, reference_params):
        # xi -> 0+: all three probabilities vanish
        t = an.t_min(reference_params, 24) + 1e-7
        probs = subinterval_probs(reference_params, 24, t)
        assert max(probs) < 1e-6

    def test_deterministic_delay_limit(self):
        # beta*h -> 0 with fixed slack: p2 -> 1 and p1 -> xi / t0
        p = SystemParams(length=400, speed=20, arrival_rate=0.1,
                         tau_down=1, tau_up=1, alpha=0.2, beta=1e-9)
        p1, p2, _ = subinterval_probs(p, 24, 25)
        xi = slack(p, 24, 25)
        assert p2 == pytest.approx(1.0, abs=1e-12)
        assert p1 == pytest.approx(xi / 20.0, rel=1e-6)

    def test_infeasible_raises(self, reference_params):
        with pytest.raises(InfeasibleError, match="sub-interval probabilities"):
            subinterval_probs(reference_params, 24, 6.0)


class TestUpdateFrequency:
    def test_reference_point(self, reference_params):
        val = an.g(reference_params, 24, 11.8)
        expected = (24 / 11.8) * (1 - math.exp(-direct_lambda(reference_params, 24, 11.8)))
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(1.2147, abs=5e-5)

    def test_no_arrivals_everywhere_zero(self):
        p = SystemParams(length=400, speed=20, arrival_rate=0.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        for t in (5.0, 11.8, 25.0, 100.0):
            assert an.g(p, 24, t) == 0.0

    def test_decays_for_long_rounds(self, reference_params):
        vals = [an.g(reference_params, 24, t)
                for t in (1e2, 1e3, 1e4, 1e5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2

    def test_zero_and_continuous_at_feasibility_boundary(self, reference_params):
        tmin = an.t_min(reference_params, 24)
        assert an.g(reference_params, 24, tmin) == 0.0
        assert an.g(reference_params, 24, tmin - 0.5) == 0.0
        for delta, cap in ((1e-3, 1e-2), (1e-6, 1e-5), (1e-9, 1e-8)):
            assert 0 < an.g(reference_params, 24, tmin + delta) < cap


class TestDerivative:
    def test_positive_near_lower_end(self, reference_params):
        t = an.t_min(reference_params, 24) + 0.01
        assert an.dg_dt(reference_params, 24, t) > 0

    def test_negative_beyond_upper_bound(self, reference_params):
        tmax = an.t_max(reference_params, 24)
        rng = np.random.default_rng(9)
        ts = tmax + (3 * tmax - tmax) * rng.random(50)
        assert np.all(an.dg_dt(reference_params, 24, ts) < 0)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            params, hm = random_feasible_params(rng)
            h = int(rng.integers(1, hm + 1))
            tmin = an.t_min(params, h)
            tmax = an.t_max(params, h)
            t = float(rng.uniform(tmin + 0.01, 3 * tmax))
            if abs(t - params.dwell_time) < 0.01:
                continue
            checked += 1
            step = 1e-6 * t
            fd = (an.g(params, h, t + step)
                  - an.g(params, h, t - step)) / (2 * step)
            val = an.dg_dt(params, h, t)
            assert abs(val - fd) <= 1e-6 * max(abs(val), abs(fd))

    def test_continuous_across_dwell_time(self, reference_params):
        t0 = reference_params.dwell_time
        for h in (8, 24, 40):
            below = an.dg_dt(reference_params, h, t0 * (1 - 1e-9))
            at = an.dg_dt(reference_params, h, t0)
            assert below == pytest.approx(at, rel=1e-6)


class TestSearchBoundCoefficients:
    def test_reference_h24(self, reference_params):
        c0, c1 = an.c0_c1(reference_params, 24)
        c0_direct = 1 - math.exp(-(20 - an.t_min(reference_params, 24)) / 4.8)
        assert c0 == pytest.approx(c0_direct, rel=1e-9)
        assert c0 == pytest.approx(0.9361, abs=5e-5)
        assert c1 == pytest.approx(2 * 13.2 - (20 + 9.6) * c0_direct, rel=1e-9)
        assert c1 == pytest.approx(-1.3077, abs=5e-4)
        assert 0 < c0 < 1

    def test_near_boundary_h89(self, reference_params):
        c0, _ = an.c0_c1(reference_params, 89)
        assert c0 == pytest.approx(0.01117, abs=2e-5)

    def test_large_tail_first_order(self):
        # beta*h far above the slack: c0 is approximately gap / (beta*h)
        # and c1 sits just below zero (first-order expansion)
        p = SystemParams(length=400, speed=20, arrival_rate=0.1,
                         tau_down=1, tau_up=1, alpha=0.2, beta=50.0)
        c0, c1 = an.c0_c1(p, 1)
        gap = 20 - an.t_min(p, 1)
        assert c0 == pytest.approx(gap / 50.0, rel=0.2)
        assert c0 < 0.5
        assert -gap * 20.0 / 50.0 < c1 < 0

    def test_positive_c1_regime_reachable(self, reference_params):
        # small tail with a wide slack flips the sign
        c0, c1 = an.c0_c1(reference_params, 1)
        assert c1 > 0
        assert c0 == pytest.approx(1.0, abs=1e-12)

    def test_oversized_h_raises(self, reference_params):
        with pytest.raises(InfeasibleError, match="cannot fit"):
            an.c0_c1(reference_params, 90)


class TestSearchUpperBound:
    def test_reference_h24(self, reference_params):
        c0, c1 = an.c0_c1(reference_params, 24)
        expected = 20 + (1 - 12 * 0.1 * c1) / (4 * 0.1 * c0)
        val = an.t_max(reference_params, 24)
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(26.86, abs=0.02)
        assert val > an.t_min(reference_params, 24)

    def test_nonnegative_c1_pins_to_dwell_time(self, reference_params):
        _, c1 = an.c0_c1(reference_params, 1)
        assert c1 >= 0
        assert an.t_max(reference_params, 1) == reference_params.dwell_time

    def test_unbounded_without_arrivals(self):
        p = SystemParams(length=400, speed=20, arrival_rate=0.0,
                         tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        _, c1 = an.c0_c1(p, 24)
        assert c1 < 0
        with pytest.raises(InfeasibleError, match="no arrivals"):
            an.t_max(p, 24)


@st.composite
def kernel_inputs(draw):
    """Feasible params, iteration counts in 1..h_max, any positive round
    lengths, and round lengths beyond every drawn h's pipeline floor."""
    seed = draw(st.integers(0, 2**32 - 1))
    params, hm = random_feasible_params(np.random.default_rng(seed))
    hs = np.array(draw(st.lists(st.integers(1, hm), min_size=1, max_size=5)))
    t0 = params.dwell_time
    ts_any = np.array(draw(st.lists(st.floats(0.05, 4 * t0), min_size=1, max_size=5)))
    gaps = np.array(draw(st.lists(st.floats(1e-6, 4 * t0), min_size=1, max_size=5)))
    return params, hs, ts_any, an.t_min(params, int(hs.max())) + gaps


@settings(max_examples=60, deadline=None)
@given(kernel_inputs())
def test_broadcast_matches_elementwise_bitwise(inputs):
    params, hs, ts_any, ts = inputs

    def check(fn, t_row=None):
        if t_row is None:
            got = fn(params, hs)
            want = [fn(params, int(h)) for h in hs]
        else:
            got = fn(params, hs[:, None], t_row[None, :])
            want = [[fn(params, int(h), float(t)) for t in t_row] for h in hs]
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.array(want).tobytes()

    for fn in (an.lambda_param, lambda p, h, t: an.surface(p, h, t)[2], an.g):
        check(fn, ts_any)
    check(an.dg_dt, ts)
    check(lambda p, h, t: subinterval_probs(p, h, t)[0], ts)
    check(lambda p, h, t: subinterval_probs(p, h, t)[1], ts)
    check(an.t_min)
    check(an.t_max)
    check(lambda p, h: an.c0_c1(p, h)[0])
    check(lambda p, h: an.c0_c1(p, h)[1])


# lam's relative error from the rounding of t_min in doubles is about
# eps * t_min / xi, the inputs' conditioning rather than the formula's
# (ROADMAP, "Known, not scheduled"): at xi = 3.7e-6 t_min it reached
# 1.1e-10. So the round lengths drawn below keep xi >= MIN_SLACK * t_min,
# where the worst case found was 1e-11
MIN_SLACK = 1e-4


def test_lambda_is_the_integral_of_the_success_probability():
    """lam(h, t) equals rate times scipy's quadrature of the success
    probability given the arrival instant z, to relative 1e-10, on 200
    environments of random_feasible_params. Each gets a random h and the
    largest h whose slack at t0 is at least MIN_SLACK * t_min, and each h
    a round length below t0 and one above. The quadrature breaks at the
    ends of the success support, z = t_min - t0 and z = t - t_min, and
    at the window's kinks, z = 0 and z = t - t0."""
    rng = np.random.default_rng(9)
    regimes, at_h_max = [0, 0], 0
    for _ in range(200):
        params, hm = random_feasible_params(rng)
        t0 = params.dwell_time
        hs = np.arange(1, hm + 1)
        floors = an.t_min(params, hs)
        top = int(hs[t0 - floors >= MIN_SLACK * floors].max())
        at_h_max += top == hm
        for h in (int(rng.integers(1, top + 1)), top):
            tmin = float(an.t_min(params, h))
            for t in (rng.uniform(tmin * (1 + MIN_SLACK), t0), rng.uniform(t0, 3 * t0)):
                t = float(t)
                cuts = sorted({z for z in (tmin - t0, t - tmin, 0.0, t - t0) if -t0 < z < t})
                mass, _ = integrate.quad(
                    lambda z: float(success_given_arrival(params, h, t, z)), -t0, t,
                    points=cuts, limit=200, epsabs=0.0, epsrel=1e-12)
                assert an.lambda_param(params, h, t) == pytest.approx(
                    params.arrival_rate * mass, rel=1e-10, abs=0.0)
                regimes[t >= t0] += 1
    assert regimes == [400, 400] and at_h_max >= 150
