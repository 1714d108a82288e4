import os

import numpy as np
import pytest
from hypothesis import settings

from roadfl.optimizer import h_max
from roadfl.types import SystemParams

# Example counts of the hypothesis tests that do not set their own (every
# other one does): 30 by default, and 500 with --hypothesis-profile=deep.
# A profile named on the command line is loaded after this file.
settings.register_profile("suite", max_examples=30)
settings.register_profile("deep", max_examples=500)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def keep_cpu_affinity():
    """Give this process back the CPUs it had before the test. A command
    that forks moves itself to one CPU and back to the CPUs that
    sched_getaffinity names, which a test may replace with more or fewer
    than this process has."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, allowed)


@pytest.fixture
def reference_params() -> SystemParams:
    """400 m section, 20 m/s, 0.1 arrivals/s, 1 s links, 0.2 s/iter."""
    return SystemParams(length=400, speed=20, arrival_rate=0.1,
                        tau_down=1, tau_up=1, alpha=0.2, beta=0.2)


def random_feasible_params(rng: np.random.Generator) -> tuple[SystemParams, int]:
    """Draw environment parameters until at least one iteration count fits."""
    while True:
        params = SystemParams(
            length=float(rng.uniform(100, 2000)),
            speed=float(rng.uniform(5, 40)),
            arrival_rate=float(rng.uniform(0.01, 0.5)),
            tau_down=float(rng.uniform(0, 3)),
            tau_up=float(rng.uniform(0, 3)),
            alpha=float(rng.uniform(0.05, 1.0)),
            beta=float(rng.uniform(0.05, 1.0)),
        )
        hm = h_max(params)
        if hm >= 1:
            return params, hm
