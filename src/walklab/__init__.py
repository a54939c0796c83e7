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
    PositionDistribution,
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
    step,
)
from .classical import (
    classical_avg_time_partial,
    classical_avg_time_ratio,
    classical_first_passage,
    classical_total_absorption,
    crw_step,
    first_passage_series,
)
from .series import (
    PowerSeries,
    absorption_probabilities,
    absorption_summaries,
    absorption_summary,
    generating_function,
    quantum_absorption_prob,
    quantum_avg_time_ratio,
    raabe_estimate,
)
from .disorder import (
    TABLE2_PRESETS,
    DisorderSpec,
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
    disorder_avg_absorb_time,
    disorder_avg_sigma,
    finite_horizon_avg_time,
    fit_exponent,
    run_ensemble,
)

__version__ = "0.1.0"

# the names the README and the tests use; submodules stay out of `import *`
__all__ = [
    "AbsorberConfig", "AbsorptionRecord", "AveragedCurve", "CoinOperator",
    "ConfigurationError", "DisorderSpec", "EmptyStateError", "EnsembleConfig",
    "NoAbsorptionError", "NumericalError", "PositionDistribution",
    "PowerSeries", "TABLE2_PRESETS", "WalkConfig", "WalklabError",
    "absorption_probabilities", "absorption_summaries", "absorption_summary",
    "apply_absorber", "apply_coin", "apply_shift", "binomial", "build_spec",
    "child_seed", "classical_avg_time_partial", "classical_avg_time_ratio",
    "classical_first_passage", "classical_total_absorption", "coin_by_name",
    "crw_step", "disorder_avg_absorb_time", "disorder_avg_sigma",
    "finite_horizon_avg_time", "first_passage_series", "fit_exponent",
    "generating_function", "geometric", "geometric_shifted", "hadamard_coin",
    "hypergeometric", "initial_classical_state", "initial_quantum_state",
    "iterate_walk", "kempe_coin", "mean_position", "mirrored_hadamard_coin",
    "negative_binomial", "point_mass", "poisson", "probability_distribution",
    "quantum_absorption_prob", "quantum_avg_time_ratio", "raabe_estimate",
    "renormalize", "run_ensemble", "run_walk", "sample_realization",
    "snapshot_distribution", "std_dev", "step", "total_mass",
]
