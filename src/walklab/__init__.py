"""walklab: quantum and classical random walks on a line, with absorbing
boundaries, step-length disorder, absorption-series analytics, and spreading
exponent estimation."""

from .errors import (
    ConfigurationError,
    EmptyStateError,
    NoAbsorptionError,
    NumericalError,
    WalklabError,
)
from .lattice import (
    ClassicalState,
    PositionDistribution,
    QuantumState,
    initial_classical_state,
    initial_quantum_state,
    mean_position,
    probability_distribution,
    renormalize,
    std_dev,
    total_mass,
)
from .engine import (
    AbsorberConfig,
    AbsorptionRecord,
    CoinOperator,
    WalkConfig,
    WalkResult,
    apply_absorber,
    apply_coin,
    apply_shift,
    coin_by_name,
    hadamard_coin,
    iterate_walk,
    kempe_coin,
    mirrored_hadamard_coin,
    run_walk,
    snapshot_distribution,
    snapshot_distributions,
    step,
)
from .classical import (
    classical_avg_time_partial,
    classical_avg_time_term,
    classical_first_passage,
    classical_total_absorption,
    crw_apply_absorber,
    crw_step,
    first_passage_series,
)
from .series import (
    DEFAULT_ORDER,
    PowerSeries,
    RaabeReport,
    absorption_probabilities,
    absorption_summaries,
    absorption_summary,
    generating_function,
    quantum_absorption_prob,
    quantum_avg_time_term,
    raabe_estimate,
    series_f,
    series_g,
    sqrt_one_plus_z4,
)
from .disorder import (
    FAMILIES,
    TABLE2_PRESETS,
    DisorderSpec,
    Realization,
    binomial,
    build_spec,
    child_seed,
    geometric,
    geometric_shifted,
    hypergeometric,
    negative_binomial,
    point_mass,
    poisson,
    sample_realization,
)
from .ensemble import (
    AveragedCurve,
    EnsembleConfig,
    FitResult,
    disorder_avg_absorb_time,
    disorder_avg_sigma,
    finite_horizon_avg_time,
    fit_exponent,
    run_ensemble,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
