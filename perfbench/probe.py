"""A fixed amount of work that gauges how fast the machine is right now.

run.py starts this file as a cold child process next to every measured
child and scales each measured time by how long this probe took, so that
a slow or fast phase of a shared machine cancels out of the ratio. It
imports nothing from roadfl, so no change to the program moves it; its
work mirrors a cold roadfl child: an interpreter start, module imports,
a pure-Python loop that formats rows as text, and whole-array numpy math.
"""

import argparse  # noqa: F401
import configparser  # noqa: F401
import csv
import dataclasses  # noqa: F401
import io
import json  # noqa: F401
import pathlib  # noqa: F401

import numpy as np


def main() -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i in range(40_000):
        x = i * 0.001
        writer.writerow((i, f"{x:.9g}", f"{x * x:.9g}"))
    a = np.linspace(0.0, 1.0, 1_000_000)
    for _ in range(6):
        a = np.sqrt(a * a + 1.0) - np.expm1(-a)
    if not (len(buf.getvalue()) > 0 and np.isfinite(a).all()):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
