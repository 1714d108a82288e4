"""The two benchmark workloads: the CLI arguments they pass and the
settings their output checks need.

Every workload starts from the shipped baseline.cfg. The workload seed
goes to the program as --seed, which keys the simulation and training
streams; optimize and sweep do not depend on it.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

COMMANDS = ("optimize", "validate", "sweep", "fl")

LONG_SECTION = ("--system.length_m=2000", "--system.speed_mps=5",
                "--system.alpha_s=0.05", "--system.beta_s=0.05")
LONG_H_MAX = 7959


def _every_eighth_h(h_max: int) -> str:
    hs = list(range(1, h_max + 1, 8))
    if hs[-1] != h_max:
        hs.append(h_max)
    return ",".join(map(str, hs))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: tuple[str, ...]
    args: dict[str, tuple[str, ...]]
    # output-check settings
    headline: tuple[int, float] | None = None
    grid_hs: tuple[int, ...] | None = None  # None scans every h
    grid_step: float = 0.01
    rho_gate: bool = False

    def argv(self, command: str, config: Path, out: Path, seed: int) -> list[str]:
        return [command, "--config", str(config), "--out", str(out),
                "--seed", str(seed), *self.overrides, *self.args[command]]

    def settings(self, config: Path, command: str) -> dict[str, dict[str, str]]:
        """The config values one command runs with: file, then overrides."""
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(config)
        values = {s: dict(parser[s]) for s in parser.sections()}
        for token in (*self.overrides, *self.args[command]):
            if token.startswith("--") and "=" in token and "." in token.split("=")[0]:
                dotted, value = token[2:].split("=", 1)
                section, key = dotted.split(".", 1)
                values.setdefault(section, {})[key] = value
        return values


WORKLOADS = {
    "reference": Workload(
        name="reference",
        why="the paper's headline environment as shipped, where import and "
            "set-up dominate three of the four subcommands",
        overrides=(),
        args={
            "optimize": (),
            "validate": (),
            "sweep": ("--h-list", "8,16,24,40", "--t-grid", "7:26:0.1"),
            "fl": (),
        },
        headline=(24, 11.8),
        rho_gate=True,
    ),
    "long_section": Workload(
        name="long_section",
        why="2000 m section at 5 m/s, where bisection, the attempt table, "
            "the sweep writer and per-winner training dominate",
        overrides=LONG_SECTION,
        args={
            "optimize": (),
            "validate": ("--sim.h=1463", "--sim.t_s=83.56",
                         "--sim.num_rounds=100000"),
            "sweep": ("--h-list", _every_eighth_h(LONG_H_MAX),
                      "--t-grid", "1:401:4"),
            "fl": ("--fl.horizon_s=20", "--fl.vehicle_shift_std=0.01",
                   "--fl.noise_std=0.01"),
        },
        grid_hs=tuple(sorted({1462, 1463, 1464, LONG_H_MAX,
                              *range(1, LONG_H_MAX + 1, 100)})),
        grid_step=0.02,
    ),
}
