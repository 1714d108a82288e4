"""Round scheduling, analysis and simulation for federated learning with
vehicles passing a roadside base station."""

__version__ = "0.1.0"
