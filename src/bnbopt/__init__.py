"""Branch-and-bound Gaussian-process optimization for deterministic objectives."""

# gp first: it is the one module that imports SciPy, and SciPy imports
# about 15 ms (8 %) slower when it loads one import level deeper, from
# inside bench's import (CPython 3.11, one BLAS thread)
from .gp import GPPosterior, fit, prior_draw, sample_prior_on_grid
from .bench import (
    EnvelopeReport,
    Objective,
    RateFit,
    RegretSeries,
    TablePrior,
    VarianceScaling,
    boundary_max_objective,
    enumeration_level,
    envelope_experiment,
    fit_rate,
    gp_sample_objective,
    plain_ucb_run,
    quadratic_objective,
    random_run,
    regret_series,
    table_prior,
    variance_bound_experiment,
)
from .bnb import (
    IterationRecord,
    RunConfig,
    RunTrace,
    ShrinkEvent,
    beta,
    densify,
    initial_region,
    run,
    shrink,
)
from .errors import (
    DimensionError,
    DuplicateObservationError,
    GridTooLargeError,
    IllConditionedError,
    InsufficientDataError,
)
from .kernels import KernelSpec, evaluate, smoothness_constant
from .lattice import DyadicGrid, RegionBall

__version__ = "0.1.0"

__all__ = [
    "DimensionError",
    "DuplicateObservationError",
    "DyadicGrid",
    "EnvelopeReport",
    "GPPosterior",
    "GridTooLargeError",
    "IllConditionedError",
    "InsufficientDataError",
    "IterationRecord",
    "KernelSpec",
    "Objective",
    "RateFit",
    "RegionBall",
    "RegretSeries",
    "RunConfig",
    "RunTrace",
    "ShrinkEvent",
    "TablePrior",
    "VarianceScaling",
    "beta",
    "boundary_max_objective",
    "densify",
    "enumeration_level",
    "envelope_experiment",
    "evaluate",
    "fit",
    "fit_rate",
    "gp_sample_objective",
    "initial_region",
    "plain_ucb_run",
    "prior_draw",
    "quadratic_objective",
    "random_run",
    "regret_series",
    "run",
    "sample_prior_on_grid",
    "shrink",
    "smoothness_constant",
    "table_prior",
    "variance_bound_experiment",
]
