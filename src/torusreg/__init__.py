"""Bregman-iterated variational regularization on the 1-D torus.

Building blocks: Fourier-multiplier smoothing operators, quadratic and
entropy (Kullback-Leibler) penalties with exact proximal maps, a
Douglas-Rachford solver, the Bregman iteration with dual bookkeeping,
source-condition diagnostics, and a convergence-rate experiment harness.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    GridMismatch,
    InsufficientData,
    InteriorityWarning,
    NonConvergence,
    NonPositiveError,
    SourceDivisionError,
    SubgradientUndefined,
    TorusRegError,
    Unsupported,
)
from .torus import (
    Signal,
    TorusGrid,
    bspline_truth,
    inner,
    norm_l1,
    norm_l2,
    to_spectrum,
)
from .operators import (
    FourierMultiplierOperator,
    apply,
    kernel_signal,
    make_inverse_helmholtz,
    multiplier_power_apply,
    power_apply,
)
from .functionals import (
    EntropyPenalty,
    QuadraticPenalty,
    kl_divergence,
    prox_fidelity,
)
from .solvers import SolveReport, SolverConfig, solve_generalized_dr
from .bregman import accumulated_subgradient, bregman_iterate, step_penalty
from .vsc import (
    HoelderIndexFunction,
    RatePrediction,
    SourceDecomposition,
    construct_source,
    decay_space_norm,
    fenchel_psi,
    predict_rate_entropy,
    predict_rate_hoelder,
    rate_function,
    vsc_violation_search,
)
from .harness import (
    Calibration,
    ExperimentConfig,
    NoiseModel,
    OutputConfig,
    Problem,
    ProblemConfig,
    RateFit,
    SweepConfig,
    SweepRow,
    apriori_alpha,
    approx_error_sweep,
    build_problem,
    calibrate_c,
    fit_rate,
    geometric_grid,
    rate_sweep,
    worst_case_search,
)
from .config import default_config, load_config
