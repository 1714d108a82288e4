"""Joint search for the best (iteration count, round length) pair.

For each feasible h the objective g(h, .) is unimodal on
(t_min(h), t_max(h)], so the per-h optimum is located by bisection on
the sign of dg/dt until the bracket is narrower than gamma. The
bisection runs across all h = 1 .. h_max at once, one array lane per
h with its own bracket and stop rule, and the argmax over h follows.

Ties are broken toward the smaller h; this is a determinism choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .types import (MAX_LANES, ConfigError, InfeasibleError, OptimizerConfig, SystemParams,
                    _require)

__all__ = [
    "OptimizationResult", "optimize_round_lengths", "optimize_schedule",
]


@dataclass(frozen=True)
class OptimizationResult:
    """Winning schedule plus the full per-h table that produced it.

    per_h_table holds three arrays of one entry per h: h, the best t for
    that h and g at that point; search_steps counts objective/derivative
    evaluations.
    """

    h_star: int
    t_star: float
    g_star: float
    per_h_table: tuple[np.ndarray, np.ndarray, np.ndarray]
    search_steps: int


def h_max(params: SystemParams) -> int:
    """Largest iteration count whose fastest pipeline fits the dwell time.

    floor((t0 - tau_down - tau_up) / alpha), trimmed down while
    t_min(h) >= t0 so feasibility stays strict. 0 means no vehicle can
    ever succeed, whatever the schedule. More than MAX_LANES iteration
    counts is a ConfigError.
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
    A lane whose t_max is not finite is a ConfigError.
    """
    hs = np.asarray(hs)
    lo = analytic.t_min(params, hs)
    hi = analytic.t_max(params, hs)
    unbounded = ~np.isfinite(hi)
    if unbounded.any():
        raise ConfigError(f"search bound t_max at h={hs[unbounded][0]} must be finite")
    # t_min itself has xi = 0; probes stay this far inside, as dg_dt requires.
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
    hs = np.arange(1, h_max(params) + 1)
    if hs.size == 0:
        raise InfeasibleError(
            "communication delays exceed the dwell time; no vehicle can finish")
    ts, gs, steps = optimize_round_lengths(params, hs, cfg)
    i = int(np.argmax(gs))  # the first maximum: ties go to the smaller h
    return OptimizationResult(int(hs[i]), float(ts[i]), float(gs[i]), (hs, ts, gs),
                              int(steps.sum()))
