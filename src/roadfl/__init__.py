"""Round scheduling, analysis and simulation for federated learning with
vehicles passing a roadside base station."""

from .types import Schedule, SystemParams
from .analytic import g, lambda_param, success_probability
from .optimizer import OptimizerConfig, optimize_schedule

__version__ = "0.1.0"

__all__ = [
    "Schedule", "SystemParams",
    "g", "lambda_param", "success_probability",
    "OptimizerConfig", "optimize_schedule",
    "__version__",
]
