"""Numerical laboratory for breathers of the 5th-order Gardner equation."""

from .breather import (
    BreatherParams,
    GridTooNarrowError,
    ParameterError,
    Velocities,
    breather_integral,
    envelope_center,
    eval_approx,
    eval_arctan_derivative,
    eval_rational,
    sample_breather,
    validate_params,
    velocities,
)
from .fourier import (
    EdgeDecayError,
    Grid,
    GridError,
    GridMismatchError,
    SampledField,
    derivative,
    derivatives,
    l2_norm,
    make_grid,
    mean,
    sobolev_norm,
    window_union_distance,
    window_union_inner,
)
from .residuals import (
    ResidualReport,
    elliptic_residual,
    k_mu,
    mkdv5_residual,
    pde_residual,
)
from .solver import (
    BlowUpError,
    EvolutionTrace,
    SolverConfig,
    conserved_diagnostics,
    evolve,
    linear_symbol,
    stable_time_step,
)
from .experiment import (
    ExperimentConfig,
    ExperimentRow,
    ScanResult,
    choose_T,
    choose_beta,
    choose_frequencies,
    measure_pair,
    run_scan,
    scan_to_csv,
    separation_ratio,
)

__version__ = "0.1.0"
