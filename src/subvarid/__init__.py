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
    TransformUndefinedError,
)
from .lti_core import (
    HankelBlock,
    MarkovMatrix,
    NoiseSpec,
    SignalLog,
    StateSpaceModel,
    build_hankel,
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
    estimate_markov_noise_free,
    ho_kalman,
    identification_error,
)
from .noise_equiv import EquivalentNoise, process_to_input_noise
from .deviation import (
    AlphaMatrix,
    DeviationResult,
    alpha_matrix,
    max_deviation,
    sample_variance,
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
    canonical_model,
    convergence_slope,
    emit_csv,
    emit_summary,
    run_campaign,
    running_canonical,
    white_noise_baseline,
)

__version__ = "0.1.0"
