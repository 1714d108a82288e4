"""Joint search for the best (iteration count, round length) pair.

For each feasible h the objective g(h, .) is unimodal on
(t_min(h), t_max(h)], so the per-h optimum is located by bisection on
the sign of dg/dt until the bracket is narrower than gamma. The
bisection runs across all h = 1 .. h_max at once, one array lane per
h with its own bracket and stop rule, and the argmax over h follows. A
dense-grid brute-force scan over the same domain, one h at a time,
serves as an independent oracle.

Ties are broken toward the smaller h and then the smaller t; this is a
determinism choice, both searches apply it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .types import (
    InfeasibleEnvironmentError,
    InfeasibleScheduleError,
    InvalidParameterError,
    SystemParams,
    _finite_float,
    _require,
)

__all__ = [
    "OptimizerConfig", "OptimizationResult", "h_max",
    "optimize_round_lengths", "optimize_schedule", "brute_force_argmax",
    "scan_round_lengths",
]

# optimize_schedule holds one bisection lane per h = 1 .. h_max, so its
# time and memory grow with h_max; this caps h_max (the long-section
# benchmark environment has 7,959 lanes)
MAX_LANES = 2**20


@dataclass(frozen=True)
class OptimizerConfig:
    """gamma: bisection bracket width threshold, seconds."""

    gamma: float = 1e-3

    def __post_init__(self) -> None:
        _require(_finite_float(self.gamma, "gamma") > 0, "gamma must be positive")


@dataclass(frozen=True)
class OptimizationResult:
    """Winning schedule plus the full per-h table that produced it.

    per_h_table rows are (h, best t for that h, g at that point);
    search_steps counts objective/derivative evaluations.
    """

    h_star: int
    t_star: float
    g_star: float
    per_h_table: tuple[tuple[int, float, float], ...]
    search_steps: int

    def __post_init__(self) -> None:
        best = _argmax_table(self.per_h_table)
        if best != (self.h_star, self.t_star, self.g_star):
            raise InvalidParameterError("result does not attain the table maximum")


def _argmax_table(entries) -> tuple[int, float, float]:
    """Pick the best (h, t, g) entry; ties go to smaller h, then smaller t."""
    if not entries:
        raise InvalidParameterError("empty search table")
    best = entries[0]
    for entry in entries[1:]:
        if entry[2] > best[2]:
            best = entry
    return best


def h_max(params: SystemParams) -> int:
    """Largest iteration count whose fastest pipeline fits the dwell time.

    floor((t0 - tau_down - tau_up) / alpha), trimmed down while
    t_min(h) >= t0 so feasibility stays strict. 0 means no vehicle can
    ever succeed, whatever the schedule. More than MAX_LANES iteration
    counts is an InvalidParameterError.
    """
    budget = params.dwell_time - params.tau_down - params.tau_up
    if budget <= 0:
        return 0
    lanes = budget / params.alpha
    _require(lanes <= MAX_LANES,
             f"{lanes:.3g} local iterations fit the dwell time, more than {MAX_LANES}")
    h = int(math.floor(lanes))
    while h > 0 and analytic.t_min(params, h) >= params.dwell_time:
        h -= 1
    return h


def optimize_round_lengths(params: SystemParams, hs,
                           cfg: OptimizerConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bisection on the sign of dg/dt over (t_min(h), t_max(h)], one lane
    per entry of the 1-d sequence hs, all lanes at once.

    Each lane keeps its own bracket and stops on its own rule; a step
    evaluates dg/dt only on the lanes still open. Returns per-lane
    arrays (round length, g value, evaluation count). Each result is
    within gamma of the true per-h optimum because g is unimodal in t.
    """
    hs = np.asarray(hs)
    lo = analytic.t_min(params, hs)
    hi = analytic.t_max(params, hs)
    empty = ~(hi > lo)
    if empty.any():
        raise InfeasibleScheduleError(
            f"empty search interval for h={hs[empty][0]}: t_max <= t_min")
    # The left endpoint itself has xi = 0; probes stay this far inside.
    eps = max(cfg.gamma / 10.0, 1e-9)
    floor = lo + eps
    t = 0.5 * (lo + hi)
    steps = np.zeros(lo.shape, dtype=np.int64)
    lanes = np.arange(lo.size)
    while True:
        lanes = lanes[(hi[lanes] - lo[lanes] > cfg.gamma)
                      & (lo[lanes] < t[lanes]) & (t[lanes] < hi[lanes])]
        if lanes.size == 0:
            break
        steps[lanes] += 1
        probe = t[lanes]
        rising = analytic.dg_dt(params, hs[lanes],
                                np.maximum(probe, floor[lanes])) > 0
        lo[lanes] = np.where(rising, probe, lo[lanes])
        hi[lanes] = np.where(rising, hi[lanes], probe)
        t[lanes] = 0.5 * (lo[lanes] + hi[lanes])
    return t, analytic.g(params, hs, t), steps + 1


def optimize_schedule(params: SystemParams,
                      cfg: OptimizerConfig) -> OptimizationResult:
    """Lane-wise bisection over h = 1 .. h_max, then argmax over h."""
    _check_environment(params)
    hs = np.arange(1, h_max(params) + 1)
    ts, gs, steps = optimize_round_lengths(params, hs, cfg)
    table = tuple(zip(hs.tolist(), ts.tolist(), gs.tolist()))
    h_star, t_star, g_star = _argmax_table(table)
    return OptimizationResult(h_star, t_star, g_star, table, int(steps.sum()))


def scan_round_lengths(params: SystemParams, h: int,
                       grid_step: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """Dense grid of round lengths for one h and g evaluated on it.

    Grid points are t_min + k*grid_step for k >= 1, up to t_max. May be
    empty when the interval is narrower than the step.
    """
    _require(_finite_float(grid_step, "grid step") > 0, "grid step must be positive")
    lo = analytic.t_min(params, h)
    hi = analytic.t_max(params, h)
    n = int(math.floor((hi - lo) / grid_step + 1e-12))
    ts = lo + grid_step * np.arange(1, n + 1)
    ts = ts[ts <= hi]
    if ts.size == 0:
        return ts, ts
    return ts, analytic.g(params, h, ts)


def brute_force_argmax(params: SystemParams,
                       grid_step: float = 0.01) -> OptimizationResult:
    """Exhaustive scan over h and a grid of t spaced grid_step seconds;
    oracle for the bisection search. Deterministic; first grid maximum
    wins within each h."""
    _check_environment(params)
    table = []
    steps = 0
    for h in range(1, h_max(params) + 1):
        ts, gs = scan_round_lengths(params, h, grid_step)
        if ts.size == 0:
            continue
        steps += ts.size
        i = int(np.argmax(gs))
        table.append((h, float(ts[i]), float(gs[i])))
    if not table:
        raise InfeasibleEnvironmentError(
            "grid step larger than every feasible search interval")
    h_star, t_star, g_star = _argmax_table(table)
    return OptimizationResult(h_star, t_star, g_star, tuple(table), steps)


def _check_environment(params: SystemParams) -> None:
    if params.arrival_rate == 0:
        raise InfeasibleEnvironmentError("no arrivals")
    if h_max(params) == 0:
        raise InfeasibleEnvironmentError(
            "communication delays exceed the dwell time; no vehicle can finish")
