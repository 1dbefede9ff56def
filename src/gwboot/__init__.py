"""Bootstrap percolation on Galton-Watson trees.

Exact critical probabilities via maximization of the fort-recursion kernel
mixture, analytic lower/upper bounds, and reproducible Monte Carlo
estimation of root-survival probabilities on sampled trees.

The public API is each module's ``__all__``; the package re-exports their union.
"""

from . import offspring, kernels, critical, bounds, simulate, layered
from .offspring import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .critical import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .layered import *  # noqa: F401,F403

__all__ = [name for mod in (offspring, kernels, critical, bounds, simulate, layered)
           for name in mod.__all__]

__version__ = "0.1.0"
