"""Shared value types for the road-section federated learning model.

All times are seconds held as 64-bit floats, all counts are plain ints.
Every type validates its invariants at construction and raises
ConfigError on a violation, so the numeric modules never re-check
inputs. Instances are frozen and may be shared freely across threads.
Per-attempt simulation data is not a type here: it lives as arrays in
mcsim's attempt table.

The config dataclasses of optimizer, mcsim and flsim live here too, with
the caps they check, so that cli reads the whole config schema from this
module and a command loads only the modules it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """An input violates its constraint or cap; the CLI exits with 1."""


class InfeasibleError(ValueError):
    """No upload can ever succeed, under this schedule or under any; the
    CLI exits with 2."""


class DivergenceError(RuntimeError):
    """Training produced non-finite model weights."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _finite_float(value: object, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{name} must be a number")
    value = float(value)
    _require(math.isfinite(value), f"{name} must be finite")
    return value


def _positive_int(value: object, name: str) -> None:
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
             f"{name} must be a positive integer")


@dataclass(frozen=True)
class SystemParams:
    """Physical and statistical environment of one road section.

    length        road section covered by the base station, meters
    speed         constant vehicle speed, meters/second
    arrival_rate  Poisson arrival rate of vehicles, 1/second
    tau_down      model download delay, seconds
    tau_up        model upload delay, seconds
    alpha         minimum computing time per local iteration, seconds
    beta          mean of the exponential computing-time tail per
                  iteration, seconds
    """

    length: float
    speed: float
    arrival_rate: float
    tau_down: float
    tau_up: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("length", "speed", "arrival_rate", "tau_down",
                     "tau_up", "alpha", "beta"):
            object.__setattr__(self, name, _finite_float(getattr(self, name), name))
        _require(self.length > 0, "section length must be positive")
        _require(self.speed > 0, "speed must be positive")
        _require(self.arrival_rate >= 0, "arrival rate must be non-negative")
        _require(self.tau_down >= 0, "download delay must be non-negative")
        _require(self.tau_up >= 0, "upload delay must be non-negative")
        _require(self.alpha > 0, "alpha must be positive")
        _require(self.beta > 0, "beta must be positive")
        _require(math.isfinite(self.dwell_time), "dwell time length / speed must be finite")
        # the analytic kernel's tail term 2*beta*h, at the largest h that fits
        tail = 2 * self.beta * (self.dwell_time / self.alpha)
        _require(math.isfinite(tail), "2 * beta * dwell time / alpha must be finite")
        # bounds the kernel's (t0 - t) / (beta*h) for t below the dwell time
        _require(math.isfinite(self.dwell_time / self.beta),
                 "dwell time / beta must be finite")
        # bounds the search bound's 12*rate*c1, since |c1| < 3*t0 + 2*beta*h
        _require(self.arrival_rate == 0
                 or math.isfinite(12 * self.arrival_rate * (3 * self.dwell_time + tail)),
                 "12 * arrival rate * (3 * dwell time + 2 * beta * dwell time / alpha) "
                 "must be finite")

    @property
    def dwell_time(self) -> float:
        """Time a vehicle spends inside the section: length / speed."""
        return self.length / self.speed


@dataclass(frozen=True)
class Schedule:
    """One scheduling decision: local iteration count h and round length t."""

    h: int
    t: float

    def __post_init__(self) -> None:
        _positive_int(self.h, "local iteration count")
        t = _finite_float(self.t, "round duration")
        _require(t > 0, "round duration must be positive")
        object.__setattr__(self, "t", t)


# caps the rows of the CSV files whose length follows the input: a sweep's
# surface.csv, validate's poisson_fit.csv and fl_runs.csv, whose loss arrays
# an fl command holds at once
MAX_ROWS = 2**20

# caps the rounds of validate; it bounds time, not memory, since a block
# of mcsim.attempt_blocks holds at most ATTEMPTS_PER_BLOCK rounds and
# simulate_rounds keeps only their success histogram
MAX_ROUNDS = 10 ** 7

# an fl command holds its task at once; this caps its values (270 MB of
# float64), and generate_task builds it in place, so the peak at the cap
# is one task
MAX_VALUES = 2**25


@dataclass(frozen=True)
class OptimizerConfig:
    """gamma: bisection bracket width threshold, seconds."""

    gamma: float = 1e-3

    def __post_init__(self) -> None:
        _require(_finite_float(self.gamma, "gamma") > 0, "gamma must be positive")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 12345
    num_rounds: int = 100_000

    def __post_init__(self) -> None:
        _positive_int(self.num_rounds, "number of rounds")
        _require(self.num_rounds <= MAX_ROUNDS, f"number of rounds exceeds {MAX_ROUNDS}")
        _require(isinstance(self.seed, int), "seed must be an integer")


@dataclass(frozen=True)
class FLConfig:
    """Training hyper-parameters and task shape.

    The default feature_dim sits at half the pool size on purpose: the
    regression is then ill-conditioned (smallest pool eigenvalue around
    0.09) and keeps improving over thousands of iterations, so loss
    levels still discriminate between schedules at the end of a long
    horizon instead of everything bottoming out at float precision.
    """

    eta: float = 0.1
    batch_size: int = 64
    samples_per_vehicle: int = 1024
    feature_dim: int = 512
    global_pool_size: int = 1024
    validation_size: int = 1024
    horizon: float = 2000.0
    seed: int = 1
    noise_std: float = 0.0
    # optional feature-shift heterogeneity: each vehicle's local copy of
    # its samples gets a private mean offset of this scale; 0 keeps the
    # data identically distributed across vehicles
    vehicle_shift_std: float = 0.0

    def __post_init__(self) -> None:
        _require(_finite_float(self.eta, "eta") > 0, "learning rate must be positive")
        for name in ("batch_size", "samples_per_vehicle", "feature_dim",
                     "global_pool_size", "validation_size"):
            _positive_int(getattr(self, name), name)
        _require(self.batch_size <= self.samples_per_vehicle,
                 "batch size cannot exceed the per-vehicle sample count")
        _require(self.samples_per_vehicle <= self.global_pool_size,
                 "per-vehicle sample count cannot exceed the global pool")
        _require(_finite_float(self.horizon, "horizon") > 0,
                 "training horizon must be positive")
        _require(_finite_float(self.noise_std, "noise_std") >= 0,
                 "noise level must be non-negative")
        _require(_finite_float(self.vehicle_shift_std, "vehicle_shift_std") >= 0,
                 "vehicle shift scale must be non-negative")
        _require(isinstance(self.seed, int), "seed must be an integer")
        values = (self.global_pool_size + self.validation_size) * (self.feature_dim + 1)
        _require(values <= MAX_VALUES,
                 f"the task holds {values} feature values, more than {MAX_VALUES}")
