"""Bregman-iterated variational regularization on the 1-D torus.

Building blocks: Fourier-multiplier smoothing operators, quadratic and
entropy (Kullback-Leibler) penalties with exact proximal maps, a
Douglas-Rachford solver, the Bregman iteration with dual bookkeeping,
source-condition diagnostics, and a convergence-rate experiment harness.
"""

__version__ = "0.1.0"

# the public API is each module's __all__
from .errors import *  # noqa: F401,F403
from .torus import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .functionals import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403
from .bregman import *  # noqa: F401,F403
from .vsc import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
