"""Shared value types for the road-section federated learning model.

All times are seconds held as 64-bit floats, all counts are plain ints.
Every type validates its invariants at construction, so the numeric
modules never re-check inputs. Instances are frozen and may be shared
freely across threads. Per-attempt simulation data is not a type here:
it lives as arrays in mcsim's attempt table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class InvalidParameterError(ValueError):
    """A physical or statistical parameter violates its constraint."""


class InfeasibleScheduleError(ValueError):
    """The schedule leaves no window in which an upload can ever succeed."""


class InfeasibleEnvironmentError(ValueError):
    """No schedule at all can produce a successful upload here."""


class DivergenceError(RuntimeError):
    """Training produced non-finite model weights."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParameterError(message)


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
        _require(math.isfinite(2 * self.beta * (self.dwell_time / self.alpha)),
                 "2 * beta * dwell time / alpha must be finite")

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
