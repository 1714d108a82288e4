import math

import numpy as np
import pytest

from roadfl.types import ConfigError, Schedule, SystemParams


def test_reference_environment_is_valid(reference_params):
    assert reference_params.dwell_time == 20.0
    # dwell time is length / speed at full float precision
    assert reference_params.dwell_time == reference_params.length / reference_params.speed


def test_zero_speed_rejected():
    with pytest.raises(ConfigError, match="speed must be positive"):
        SystemParams(length=400, speed=0, arrival_rate=0.1,
                     tau_down=1, tau_up=1, alpha=0.2, beta=0.2)


def test_negative_arrival_rate_rejected():
    with pytest.raises(ConfigError, match="arrival rate must be non-negative"):
        SystemParams(length=400, speed=20, arrival_rate=-1,
                     tau_down=1, tau_up=1, alpha=0.2, beta=0.2)


@pytest.mark.parametrize("field,value", [
    ("length", 0.0), ("length", -5.0), ("length", math.nan),
    ("speed", -1.0), ("speed", math.inf),
    ("arrival_rate", math.nan),
    ("tau_down", -0.1), ("tau_up", -2.0),
    ("alpha", 0.0), ("alpha", -0.2),
    ("beta", 0.0), ("beta", math.nan),
])
def test_bad_fields_rejected(field, value):
    good = dict(length=400, speed=20, arrival_rate=0.1,
                tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
    good[field] = value
    with pytest.raises(ConfigError):
        SystemParams(**good)


def test_randomized_invalid_inputs_rejected():
    rng = np.random.default_rng(7)
    fields = ["length", "speed", "arrival_rate", "tau_down", "tau_up", "alpha", "beta"]
    positive_only = {"length", "speed", "alpha", "beta"}
    for _ in range(200):
        good = dict(length=400, speed=20, arrival_rate=0.1,
                    tau_down=1, tau_up=1, alpha=0.2, beta=0.2)
        field = fields[int(rng.integers(len(fields)))]
        kind = int(rng.integers(3))
        if kind == 0:
            bad = -float(rng.uniform(0.01, 100))
        elif kind == 1:
            bad = float(rng.choice([math.nan, math.inf, -math.inf]))
        else:
            if field not in positive_only:
                continue  # zero is legal for rates and link delays
            bad = 0.0
        good[field] = bad
        with pytest.raises(ConfigError):
            SystemParams(**good)


def test_params_are_immutable(reference_params):
    with pytest.raises(AttributeError):
        reference_params.speed = 5


@pytest.mark.parametrize("h,t", [(0, 10.0), (-3, 10.0), (5, 0.0), (5, -1.0),
                                 (5, math.inf), (2.5, 10.0)])
def test_bad_schedules_rejected(h, t):
    with pytest.raises(ConfigError):
        Schedule(h, t)


def test_schedule_accepts_integral_duration():
    assert Schedule(24, 12).t == 12.0

