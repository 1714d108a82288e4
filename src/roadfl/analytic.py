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
per h, the sweep command a column of h against a row of round lengths,
one block of its grid at a time. Scalar inputs give numpy scalars. An
array result is bitwise equal to evaluating each element on its own,
so the block size never changes a value.
"""

from __future__ import annotations

import numpy as np

from .types import InfeasibleError, SystemParams

__all__ = [
    "t_min", "lambda_param", "surface", "g", "dg_dt", "t_max",
]


def t_min(params: SystemParams, h):
    """Fastest possible download + h-iteration compute + upload pipeline."""
    return (params.alpha * np.asarray(h, dtype=float)
            + params.tau_down + params.tau_up)[()]


def _kernel(params: SystemParams, h, t):
    """beta*h, the slack xi(h, t), the ramp 1 - exp(-xi/(beta*h)) and
    lam(h, t), from one t_min(h); the ramp and lam are 0 where xi <= 0."""
    t = np.asarray(t, dtype=float)
    bh = params.beta * np.asarray(h, dtype=float)
    xi_v = np.minimum(t, params.dwell_time) - t_min(params, h)
    ramp = -np.expm1(-np.maximum(xi_v, 0.0) / bh)
    lam = 2.0 * params.arrival_rate * xi_v \
        + params.arrival_rate * ramp * (np.abs(t - params.dwell_time) - 2.0 * bh)
    return bh, xi_v, ramp, np.where(xi_v > 0.0, lam, 0.0)


def lambda_param(params: SystemParams, h, t):
    """Poisson mean of the per-round success count, 0 where xi <= 0."""
    return _kernel(params, h, t)[3][()]


def surface(params: SystemParams, h, t):
    """(g, lam, P(at least one success)) from one evaluation of lam."""
    lam = lambda_param(params, h, t)
    p_success = -np.expm1(-lam)
    g_v = np.asarray(h, dtype=float) / np.asarray(t, dtype=float) * p_success
    return g_v[()], lam, p_success[()]


def g(params: SystemParams, h, t):
    """Valid-update frequency (h/t) * P(at least one success)."""
    return surface(params, h, t)[0]


def dg_dt(params: SystemParams, h, t):
    """Exact partial derivative of g with respect to the round length.

    d(lam)/dt is piecewise: for t >= t0 the slack saturates at t0 - t_min
    and d(lam)/dt = lam_arr * c0(h); for t_min < t < t0, with
    x = (t - t_min)/(beta*h),

        d(lam)/dt = lam_arr * (2 + ((t0 - t - 2*beta*h)/(beta*h)) * exp(-x)
                               - (1 - exp(-x)))

    The two branches agree in the limit t -> t0, so the derivative is
    continuous there. The caller guarantees xi > 0 everywhere, as the
    optimizer's probes above t_min do; it is not checked here.
    """
    h = np.asarray(h, dtype=float)
    t = np.asarray(t, dtype=float)
    t0 = params.dwell_time
    rate = params.arrival_rate
    bh, xi_v, ramp, lam = _kernel(params, h, t)
    # with xi > 0 the ramp is 1 - exp(-x) below t0, and c0 from t0 on, where
    # xi is exactly t0 - t_min. np.where discards the branch below t0 from
    # t0 on, where its terms may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        below = rate * (2.0 + ((t0 - t - 2.0 * bh) / bh) * np.exp(-xi_v / bh) - ramp)
    dlam = np.where(t >= t0, rate * ramp, below)
    # t * t overflows to inf only where its term is 0 to double precision
    with np.errstate(over="ignore"):
        return (h * (np.exp(-lam) * dlam / t - (-np.expm1(-lam)) / (t * t)))[()]


def c0_c1(params: SystemParams, h):
    """Saturated-slack coefficients used by the search upper bound.

    c0 = 1 - exp(-(t0 - t_min)/(beta*h)), in (0, 1), the ramp at t >= t0;
    c1 = 2*(t0 - t_min) - (t0 + 2*beta*h) * c0, sign decides whether the
    per-h optimum can lie beyond t0. Defined only when t_min(h) < t0.
    """
    h = np.asarray(h, dtype=float)
    bh, gap, c0, _ = _kernel(params, h, params.dwell_time)
    if np.any(gap <= 0):
        raise InfeasibleError(
            f"iteration count {h[gap <= 0][0]:g} cannot fit inside the dwell time")
    c1 = 2.0 * gap - (params.dwell_time + 2.0 * bh) * c0
    return c0[()], c1[()]


def t_max(params: SystemParams, h):
    """Upper end of the per-h search interval for the round length.

    Beyond this point the derivative of g in t is provably negative:
    t0 itself when c1 >= 0, otherwise
    t0 + (1 - 12*rate*c1) / (4*rate*c0), inf where that overflows, as at
    a tiny rate. With no arrivals g is zero for every t, so there is no
    optimum to bracket.
    """
    c0, c1 = c0_c1(params, h)
    rate = params.arrival_rate
    if rate == 0:
        raise InfeasibleError("no arrivals")
    beyond = c1 < 0
    # t0 + 0.0 is exactly t0, so the c1 >= 0 lanes keep the dwell time
    with np.errstate(over="ignore", divide="ignore"):
        excess = np.divide(1.0 - 12.0 * rate * c1, 4.0 * rate * c0,
                           out=np.zeros_like(c1), where=beyond)
    return (params.dwell_time + excess)[()]
