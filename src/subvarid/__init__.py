"""Subspace identification with variance-minimizing closed-loop input design."""

from .errors import (
    ConfigurationError,
    DesignFailureError,
    EstimationError,
    NearSingularError,
    NumericOverflowError,
    OrderDeficiencyError,
    OutOfRangeError,
    PlantProtocolError,
    SubvaridError,
)
from .lti_core import (
    MarkovMatrix,
    NoiseSpec,
    SignalLog,
    StateSpaceModel,
    build_L,
    extended_controllability,
    extended_observability,
    lead_outputs,
    markov_true,
    simulate,
    toeplitz_T,
)
from .subspace_id import (
    EstimatorConfig,
    Realization,
    estimate_markov_batched,
    ho_kalman,
    identification_error,
)
from .deviation import (
    DeviationResult,
    max_deviation,
    solve_j1_exact,
    solve_j1_relaxed,
)
from .input_design import (
    BorderedPartition,
    CostAffineForm,
    DesignConfig,
    IdentificationRun,
    LineProtocolPlant,
    SimulatedPlant,
    cost_j0,
    design_input_step,
    run_closed_loop,
)
from .experiments import (
    ErrorCurves,
    ExperimentConfig,
    campaign_figures,
    canonical_model,
    convergence_slope,
    emit_csv,
    emit_summary,
    run_campaign,
    running_canonical,
    white_noise_baseline,
)

__version__ = "0.1.0"
