"""Independent checks of every file the roadfl CLI writes.

Nothing here imports roadfl.analytic, roadfl.optimizer or scipy. The
closed forms of the paper are written out again below (slack xi, the
Poisson mean lambda, the update frequency g and the search bound
t_max), the Poisson pmf comes from math.lgamma, and Spearman's rho is
an average-rank Pearson correlation. Each check returns a list of
(name, ok, detail) triples; a check passes only on what the method
must produce, never on a stored copy of an earlier output.

Values in the CSV files carry 9 significant digits, so a printed value
matches a recomputed one when they agree to REL_TOL relative: twice the
half-unit of the ninth digit, which leaves room for last-bit differences
between two evaluations of the same closed form.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL_TOL = 1e-8

# Acceptance gates of the paper's claims (C02, C07, C09 in the test suite).
TV_GATE = 0.01
MEAN_GATE = 0.02
RHO_GATE = 0.6


@dataclass(frozen=True)
class Model:
    """The closed-form model of one road section."""

    length: float
    speed: float
    rate: float
    tau_down: float
    tau_up: float
    alpha: float
    beta: float

    @classmethod
    def from_system(cls, system: dict[str, float]) -> "Model":
        return cls(system["length_m"], system["speed_mps"],
                   system["arrival_rate_per_s"], system["tau_down_s"],
                   system["tau_up_s"], system["alpha_s"], system["beta_s"])

    @property
    def t0(self) -> float:
        return self.length / self.speed

    def t_min(self, h):
        return self.alpha * h + self.tau_down + self.tau_up

    def xi(self, h, t):
        return np.minimum(t, self.t0) - self.t_min(h)

    def lam(self, h, t):
        """2*rate*xi + rate*(1 - exp(-xi/(beta*h)))*(|t - t0| - 2*beta*h),
        and 0 where the slack xi is not positive."""
        h = np.asarray(h, dtype=float)
        t = np.asarray(t, dtype=float)
        bh = self.beta * h
        x = self.xi(h, t)
        pos = np.maximum(x, 0.0)
        value = 2.0 * self.rate * x \
            + self.rate * -np.expm1(-pos / bh) * (np.abs(t - self.t0) - 2.0 * bh)
        return np.where(x > 0.0, value, 0.0)

    def g(self, h, t):
        """(h/t) * (1 - exp(-lambda))."""
        t = np.asarray(t, dtype=float)
        return (np.asarray(h, dtype=float) / t) * -np.expm1(-self.lam(h, t))

    def t_max(self, h: int) -> float:
        gap = self.t0 - self.t_min(h)
        bh = self.beta * h
        c0 = -math.expm1(-gap / bh)
        c1 = 2.0 * gap - (self.t0 + 2.0 * bh) * c0
        if c1 >= 0:
            return self.t0
        return self.t0 + (1.0 - 12.0 * self.rate * c1) / (4.0 * self.rate * c0)

    def h_max(self) -> int:
        budget = self.t0 - self.tau_down - self.tau_up
        if budget <= 0:
            return 0
        h = int(math.floor(budget / self.alpha))
        while h > 0 and self.t_min(h) >= self.t0:
            h -= 1
        return h


def poisson_pmf(k: np.ndarray, lam: float) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    lg = np.array([math.lgamma(v + 1.0) for v in k])
    return np.exp(k * math.log(lam) - lam - lg)


def average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.size)
    xs = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and xs[j + 1] == xs[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra = average_ranks(np.asarray(a, dtype=float))
    rb = average_ranks(np.asarray(b, dtype=float))
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra @ rb) / math.sqrt((ra @ ra) * (rb @ rb)))


def close(printed, exact, rel: float = REL_TOL, floor: float = 1e-300) -> np.ndarray:
    printed = np.asarray(printed, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return np.abs(printed - exact) <= rel * np.maximum(np.abs(exact), floor)


def _table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _worst(mask: np.ndarray) -> str:
    bad = np.flatnonzero(~mask)
    return f"{bad.size} mismatches, first at row {int(bad[0]) + 1}" if bad.size else "ok"


def check_optimize(out: Path, model: Model, gamma: float,
                   headline: tuple[int, float] | None,
                   sample_hs: list[int] | None, grid_step: float) -> list:
    """optimize.csv and optimize_summary.csv.

    sample_hs names the h values whose dense grid is scanned; None scans
    every feasible h.
    """
    results = []
    header, table = _table(out / "optimize.csv")
    _, summary = _table(out / "optimize_summary.csv")
    h_col, t_col, g_col = table[:, 0], table[:, 1], table[:, 2]
    h_star, t_star, g_star, steps = summary[0]
    hm = model.h_max()

    rows_ok = header == ["h", "t_opt_s", "g_opt"] \
        and np.array_equal(h_col, np.arange(1, hm + 1))
    match = close(g_col, model.g(h_col, t_col))
    best = int(np.argmax(g_col))
    star_ok = (h_col[best], t_col[best], g_col[best]) == (h_star, t_star, g_star)
    results.append(("optimize.g_opt", bool(rows_ok and match.all() and star_ok),
                    f"rows 1..{hm}: {rows_ok}; g_opt {_worst(match)}; "
                    f"argmax row is the summary: {star_ok}"))

    # Bisection leaves t_opt within gamma/2 of the per-h optimum, so no
    # grid point may beat g_opt(h) by more than gamma times the largest
    # slope of g within gamma of t_opt.
    hs = range(1, hm + 1) if sample_hs is None else sample_hs
    worst_excess = -math.inf
    grid_ok = True
    for h in hs:
        t_lo = model.t_min(h)
        t_hi = 2.0 * model.t_max(h) - t_lo
        ts = t_lo + grid_step * np.arange(1, int((t_hi - t_lo) / grid_step) + 1)
        t_opt, g_opt = t_col[h - 1], g_col[h - 1]
        local = np.linspace(max(t_opt - gamma, t_lo + gamma / 100), t_opt + gamma, 21)
        slope = float(np.max(np.abs(np.diff(model.g(h, local)) / np.diff(local))))
        excess = float(model.g(h, ts).max() - g_opt * (1 + REL_TOL) - gamma * slope)
        worst_excess = max(worst_excess, excess)
        grid_ok = grid_ok and excess <= 0.0 and g_opt <= g_star
    results.append(("optimize.no_better_grid_point", grid_ok,
                    f"{len(hs)} h values, worst excess {worst_excess:.3g}"))

    width = max(model.t_max(h) - model.t_min(h) for h in range(1, hm + 1))
    budget = hm * math.ceil(math.log2(width / gamma)) + 2 * hm
    results.append(("optimize.search_budget", 0 < steps <= budget,
                    f"search_steps={int(steps)} budget={budget}"))

    if headline is not None:
        h_ref, t_ref = headline
        ok = int(h_star) == h_ref and abs(t_star - t_ref) <= 0.1
        results.append(("optimize.headline", ok,
                        f"(h*, t*)=({int(h_star)}, {t_star}) against ({h_ref}, {t_ref})"))
    return results


def check_validate(out: Path, model: Model, h: int, t: float, rounds: int) -> list:
    """poisson_fit.csv against fit_report.csv and the closed-form law."""
    results = []
    _, fit = _table(out / "poisson_fit.csv")
    _, report = _table(out / "fit_report.csv")
    m, freq, pmf = fit[:, 0], fit[:, 1], fit[:, 2]
    lam_rep, mean_rep, tv_rep, ppos_rep, ppos_emp = report[0]

    support_ok = np.array_equal(m, np.arange(m.size))
    counts = freq * rounds
    sums_ok = abs(freq.sum() - 1.0) <= 1e-9 * m.size \
        and np.allclose(counts, np.round(counts), rtol=0, atol=1e-6)
    results.append(("validate.frequencies", bool(support_ok and sums_ok),
                    f"sum={freq.sum():.12g} over {m.size} rows"))

    lam = float(model.lam(h, t))
    my_pmf = poisson_pmf(m, lam)
    mean = float((m * freq).sum())
    tv = 0.5 * float(np.abs(freq - my_pmf).sum())
    p_pos = -math.expm1(-lam)
    recomputed = (close(lam_rep, lam) and close(mean_rep, mean)
                  and abs(tv_rep - tv) <= REL_TOL * tv + 1e-12
                  and close(pmf, my_pmf, floor=1e-12).all()
                  and close(ppos_rep, p_pos)
                  and close(ppos_emp, 1.0 - freq[m == 0].sum(), floor=1e-12))
    results.append(("validate.report_matches", bool(recomputed),
                    f"lambda {lam_rep} vs {lam:.9g}, mean {mean_rep} vs {mean:.9g}, "
                    f"tv {tv_rep} vs {tv:.9g}"))

    rel = abs(mean - lam) / lam
    results.append(("validate.poisson_gates", bool(tv < TV_GATE and rel < MEAN_GATE),
                    f"tv={tv:.4g} (< {TV_GATE}), mean rel error {rel:.4g} (< {MEAN_GATE})"))
    return results


def sweep_grid(h_list: str, t_grid: str) -> tuple[list[int], list[float]]:
    """The (h, t) points a sweep evaluates, in the order it writes them."""
    hs = [int(v) for v in h_list.split(",") if v.strip()]
    start, stop, step = (float(v) for v in t_grid.split(":"))
    n = int(math.floor((stop - start) / step + 1e-9)) + 2
    ts = [start + k * step for k in range(n)]
    return hs, [t for t in ts if t <= stop + 1e-12]


def check_sweep(out: Path, model: Model, h_list: str, t_grid: str) -> list:
    results = []
    header, table = _table(out / "surface.csv")
    hs, ts = sweep_grid(h_list, t_grid)
    expected = len(hs) * len(ts)
    shape_ok = header == ["h", "t_s", "g", "lambda", "p_success"] \
        and table.shape == (expected, 5)
    results.append(("sweep.rows", bool(shape_ok),
                    f"{table.shape[0]} rows, expected {expected}"))
    if not shape_ok:
        results.append(("sweep.values", False, "row count differs"))
        return results
    h = np.repeat(np.asarray(hs, dtype=float), len(ts))
    t = np.tile(np.asarray(ts), len(hs))
    lam = model.lam(h, t)
    ok = (np.array_equal(table[:, 0], h) & close(table[:, 1], t)
          & close(table[:, 2], model.g(h, t)) & close(table[:, 3], lam)
          & close(table[:, 4], -np.expm1(-lam)))
    results.append(("sweep.values", bool(ok.all()), _worst(ok)))
    return results


def read_correlation(path: Path) -> dict[str, str]:
    fields = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        fields[key] = value
    return fields


def check_fl(out: Path, model: Model, horizon: float, rho_gate: bool) -> list:
    """fl_runs.csv and correlation.txt.

    A schedule whose g is 0 leaves no window for any upload, so its loss
    must stay at the initial value; every other run must end below it.
    """
    results = []
    _, runs = _table(out / "fl_runs.csv")
    corr = read_correlation(out / "correlation.txt")
    grid = [tuple(p.split(":")) for p in corr["grid"].split(",")]
    schedules = [(int(h), float(t)) for h, t in grid]

    counts_ok, lmin_ok, finite_ok, loss_ok = True, True, True, True
    details = []
    g_vals, score = [], []
    for h, t in schedules:
        rows = runs[(runs[:, 0] == h) & (runs[:, 1] == t)]
        n = int(math.floor(horizon / t)) + 1
        finite_ok &= bool(np.isfinite(rows[:, 2:]).all())
        if rows.shape[0] != n or not np.array_equal(rows[:, 3], np.arange(n)):
            counts_ok = False
            details.append(f"{h}:{t} has {rows.shape[0]} rows, expected {n}")
            continue
        loss, lmin = rows[:, 4], rows[:, 5]
        lmin_ok &= bool(np.array_equal(lmin, np.minimum.accumulate(loss)))
        g_val = float(model.g(h, t))
        if g_val > 0:
            loss_ok &= bool(loss[-1] < loss[0])
        else:
            loss_ok &= bool(np.all(loss == loss[0]))
        g_vals.append(g_val)
        score.append(-lmin[-1])
    counts_ok &= runs.shape[0] == sum(int(math.floor(horizon / t)) + 1
                                      for _, t in schedules)
    results.append(("fl.row_counts", bool(counts_ok), "; ".join(details) or
                    f"{len(schedules)} schedules, {runs.shape[0]} rows"))
    results.append(("fl.running_min", bool(lmin_ok), "l_min is the running minimum"))
    results.append(("fl.converged", bool(finite_ok and loss_ok),
                    f"finite: {finite_ok}; final below initial where g > 0: {loss_ok}"))

    rho_text = corr["spearman_rho"]
    if counts_ok and len(g_vals) >= 8:
        rho = spearman(np.array(g_vals), np.array(score))
        rho_ok = not rho_text.startswith("nan") and close(float(rho_text), rho)
        results.append(("fl.spearman", bool(rho_ok),
                        f"rho {rho_text} vs recomputed {rho:.9g}"))
        if rho_gate:
            results.append(("fl.rho_gate", bool(rho >= RHO_GATE),
                            f"rho={rho:.4f} (>= {RHO_GATE})"))
    else:
        results.append(("fl.spearman", False, f"cannot recompute rho ({rho_text})"))
        if rho_gate:
            results.append(("fl.rho_gate", False, "no rho"))
    return results


def _nudge(path: Path, col: int, factor: float) -> None:
    """Scale the largest value of one column by factor."""
    lines = path.read_text().splitlines()
    values = [abs(float(line.split(",")[col])) for line in lines[1:]]
    row = 1 + values.index(max(values))
    cells = lines[row].split(",")
    cells[col] = f"{float(cells[col]) * factor:.9g}"
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_row(path: Path, row: int) -> None:
    lines = path.read_text().splitlines()
    del lines[row]
    path.write_text("\n".join(lines) + "\n")


def self_test(outputs: dict[str, Path], scratch: Path, checks: dict) -> list:
    """Corrupt copies of real outputs; each corrupted file must be refused.

    outputs maps a subcommand to the directory holding its good outputs;
    checks maps it to a callable taking a directory and returning check
    triples. Returns one (name, ok, detail) triple per corruption, ok
    meaning the corruption was caught.
    """
    cases = [
        ("optimize", "optimize.csv", lambda p: _nudge(p, 2, 1 + 1e-6)),
        ("validate", "poisson_fit.csv", lambda p: _nudge(p, 1, 1 + 1e-3)),
        ("sweep", "surface.csv", lambda p: _nudge(p, 2, 1 + 1e-6)),
        ("fl", "fl_runs.csv", lambda p: _drop_row(p, 2)),
    ]
    results = []
    for command, name, corrupt in cases:
        target = scratch / command
        if target.exists():
            shutil.rmtree(target)
        shutil.copytree(outputs[command], target)
        corrupt(target / name)
        verdicts = checks[command](target)
        refused = [n for n, ok, _ in verdicts if not ok]
        results.append((f"selftest.{command}", bool(refused),
                        f"corrupted {name} refused by {', '.join(refused) or 'nothing'}"))
        shutil.rmtree(target)
    return results
