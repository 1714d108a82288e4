"""Closed-form model of per-round upload successes and update frequency.

Setting: vehicles arrive at a road section of length L as a Poisson
process with rate lam, cross it at constant speed v (dwell time
t0 = L/v), and participate in synchronous training rounds of length t.
A participant downloads the global model (tau_down), runs h local
iterations whose total computing time is shifted-exponential with floor
alpha*h and tail mean beta*h, and uploads (tau_up). The upload counts
only if it finishes before both the round end and the vehicle's
departure.

Derived quantities, all per (params, h, t):

    t_min(h)   = alpha*h + tau_down + tau_up, the fastest possible pipeline
    xi(h, t)   = min(t, t0) - t_min(h), the success slack; xi <= 0 means
                 no vehicle can ever succeed
    lam(h, t)  = mean of the per-round successful-uploader count, which
                 is Poisson distributed:
                 2*lam_arr*xi + lam_arr*(1 - exp(-xi/(beta*h)))*(|t - t0| - 2*beta*h)
    g(h, t)    = (h/t) * (1 - exp(-lam)), the frequency of rounds that
                 produce at least one update, weighted by work per round

g is extended by zero wherever xi <= 0 so the optimizer sees a total
objective. 1 - exp(-x) is evaluated via expm1 throughout to keep
precision when the slack is small.

Every function takes the iteration count h and, where it depends on
it, the round length t as scalars or arrays, and broadcasts them
against each other with numpy's rules: the optimizer passes one lane
per h, the sweep command an (h, 1) column against a (1, t) row.
Scalar inputs give numpy scalars. An array result is bitwise equal to
evaluating each element on its own.
"""

from __future__ import annotations

import numpy as np

from .types import InfeasibleEnvironmentError, InfeasibleScheduleError, SystemParams

__all__ = [
    "t_min", "xi", "lambda_param", "success_probability", "subinterval_probs",
    "g", "dg_dt", "c0_c1", "t_max",
]


def t_min(params: SystemParams, h):
    """Fastest possible download + h-iteration compute + upload pipeline."""
    return (params.alpha * np.asarray(h, dtype=float)
            + params.tau_down + params.tau_up)[()]


def xi(params: SystemParams, h, t):
    """Success slack min(t, t0) - t_min(h). May be <= 0 (infeasible)."""
    return (np.minimum(np.asarray(t, dtype=float), params.dwell_time)
            - t_min(params, h))[()]


def lambda_param(params: SystemParams, h, t):
    """Poisson mean of the per-round success count, 0 where xi <= 0."""
    t = np.asarray(t, dtype=float)
    bh = params.beta * np.asarray(h, dtype=float)
    xi_v = xi(params, h, t)
    ramp = -np.expm1(-np.maximum(xi_v, 0.0) / bh)
    lam = 2.0 * params.arrival_rate * xi_v \
        + params.arrival_rate * ramp * (np.abs(t - params.dwell_time) - 2.0 * bh)
    return np.where(xi_v > 0.0, lam, 0.0)[()]


def success_probability(params: SystemParams, h, t):
    """Probability that at least one vehicle succeeds in a round."""
    return (-np.expm1(-lambda_param(params, h, t)))[()]


def g(params: SystemParams, h, t):
    """Valid-update frequency (h/t) * P(at least one success)."""
    return (np.asarray(h, dtype=float) / np.asarray(t, dtype=float)
            * success_probability(params, h, t))[()]


def dg_dt(params: SystemParams, h, t):
    """Exact partial derivative of g with respect to the round length.

    d(lam)/dt is piecewise: for t >= t0 the slack saturates at t0 - t_min
    and d(lam)/dt = lam_arr * c0(h); for t_min < t < t0, with
    x = (t - t_min)/(beta*h),

        d(lam)/dt = lam_arr * (2 + ((t0 - t - 2*beta*h)/(beta*h)) * exp(-x)
                               - (1 - exp(-x)))

    The two branches agree in the limit t -> t0, so the derivative is
    continuous there. Requires xi > 0 everywhere.
    """
    h = np.asarray(h, dtype=float)
    t = np.asarray(t, dtype=float)
    t0 = params.dwell_time
    tmin = t_min(params, h)
    bh = params.beta * h
    rate = params.arrival_rate

    if np.any(xi(params, h, t) <= 0.0):
        raise InfeasibleScheduleError(
            "derivative undefined: schedule leaves no success window (xi <= 0)")

    c0, _ = c0_c1(params, h)
    x = (t - tmin) / bh
    below = rate * (2.0 + ((t0 - t - 2.0 * bh) / bh) * np.exp(-x) + np.expm1(-x))
    dlam = np.where(t >= t0, rate * c0, below)

    lam = lambda_param(params, h, t)
    return (h * (np.exp(-lam) * dlam / t - (-np.expm1(-lam)) / (t * t)))[()]


def subinterval_probs(params: SystemParams, h, t):
    """Success probability conditioned on where in the round window the
    vehicle arrives.

    A round-k participant arrives in (k*t - t0, (k+1)*t), which splits
    into three sub-intervals: arrivals that can only be cut short by
    departure, arrivals limited by neither boundary within the slack,
    and arrivals that can only be cut short by the round end. For
    t >= t0 the sub-interval measures are (t0, t - t0, t0); for t < t0
    the roles mirror and the measures are (t, t0 - t, t).

    Returns (p1, p2, p3) with

        p1 = p3 = (xi - beta*h*(1 - exp(-xi/(beta*h)))) / min(t, t0)
        p2 = 1 - exp(-xi/(beta*h))

    and the identity
        rate * min(t,t0) * (p1 + p3) + rate * |t - t0| * p2 == lam(h, t).
    """
    xi_v = xi(params, h, t)
    if np.any(xi_v <= 0):
        raise InfeasibleScheduleError(
            "sub-interval probabilities undefined: no success window (xi <= 0)")
    bh = params.beta * np.asarray(h, dtype=float)
    p2 = (-np.expm1(-xi_v / bh))[()]
    p13 = ((xi_v - bh * p2) / np.minimum(np.asarray(t, dtype=float),
                                         params.dwell_time))[()]
    return p13, p2, p13


def c0_c1(params: SystemParams, h):
    """Saturated-slack coefficients used by the search upper bound.

    c0 = 1 - exp(-(t0 - t_min)/(beta*h)), in (0, 1);
    c1 = 2*(t0 - t_min) - (t0 + 2*beta*h) * c0, sign decides whether the
    per-h optimum can lie beyond t0. Defined only when t_min(h) < t0.
    """
    h = np.asarray(h, dtype=float)
    gap = params.dwell_time - t_min(params, h)
    if np.any(gap <= 0):
        raise InfeasibleScheduleError(
            f"iteration count {h[gap <= 0][0]:g} cannot fit inside the dwell time")
    bh = params.beta * h
    c0 = -np.expm1(-gap / bh)
    c1 = 2.0 * gap - (params.dwell_time + 2.0 * bh) * c0
    return c0[()], c1[()]


def t_max(params: SystemParams, h):
    """Upper end of the per-h search interval for the round length.

    Beyond this point the derivative of g in t is provably negative:
    t0 itself when c1 >= 0, otherwise
    t0 + (1 - 12*rate*c1) / (4*rate*c0). With no arrivals g is zero for
    every t, so there is no optimum to bracket.
    """
    c0, c1 = c0_c1(params, h)
    rate = params.arrival_rate
    if rate == 0:
        raise InfeasibleEnvironmentError("no arrivals")
    beyond = c1 < 0
    # t0 + 0.0 is exactly t0, so the c1 >= 0 lanes keep the dwell time
    excess = np.divide(1.0 - 12.0 * rate * c1, 4.0 * rate * c0,
                       out=np.zeros_like(c1), where=beyond)
    return (params.dwell_time + excess)[()]
