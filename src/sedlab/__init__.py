"""sedlab: a simulation laboratory for a charged particle in a confining
potential, driven by the zero-point radiation field and damped by radiation
reaction, with the matrix-mechanics prediction layer it relaxes to."""

__version__ = "0.1.0"

from .balance import (
    BalanceReport,
    DecayPrediction,
    measure_balance,
    predict_decay,
    trace_dpp,
    trace_dpx,
)
from .dynamics import (
    GreensFunction,
    Trajectory,
    first_order_response,
    greens_function,
    hierarchy_terms,
    integrate_trajectory,
)
from .ensemble import (
    EnsembleConfig,
    EnsembleReport,
    FixedIC,
    GaussianIC,
    MemoryLossResult,
    PairedIC,
    SpectrumResult,
    estimate_diffusion,
    memory_loss,
    moment_curves,
    power_spectrum,
    run_ensemble,
    stationary_moments,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    EscapeError,
    IntegrationDivergedError,
    NumericsError,
    ResourceLimitError,
    SedlabError,
    StatisticsError,
)
from .forces import ForceModel, harmonic, polynomial, quartic
from .matrices import (
    TransitionMatrix,
    commutator_matrix,
    diagonalize_potential,
    heisenberg_product,
    oscillator_matrices,
    trk_sum,
)
from .zpf import (
    REF,
    ModeSet,
    PhysicalScales,
    ZpfRealization,
    build_mode_set,
    empirical_correlation,
    eval_field_direct,
    eval_field_grid,
    sample_realization,
    theoretical_force_correlation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
