"""Dependent Gaussian walks in heavy-tailed random scenery.

Simulation of the random rewards schema (long-range-dependent walks
collecting beta-stable site rewards) together with a Monte Carlo oracle
for its limit (exact at beta = 2), the local-time fractional stable motion, and the
statistics needed to verify the convergence numerically.

The package's API is the union of its public modules' ``__all__``: each
name is listed once, in the module that defines it.
"""

from . import errors, experiments, fgn, limit, local_times, model, schema, stable, stats
from .errors import *
from .experiments import *
from .fgn import *
from .limit import *
from .local_times import *
from .model import *
from .schema import *
from .stable import *
from .stats import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (errors, model, stable, fgn, local_times, limit, schema, stats, experiments)
    for name in module.__all__
]
