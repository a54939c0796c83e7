"""walklab: quantum and classical random walks on a line, with absorbing
boundaries, step-length disorder, absorption-series analytics, and spreading
exponent estimation, in one process on one thread (see OPENBLAS_NUM_THREADS)."""
import os
# numpy's OpenBLAS spins a worker ~0.125 CPU-s at import; walklab has no BLAS work for it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    ConfigurationError,
    EmptyStateError,
    NoAbsorptionError,
    NumericalError,
    WalklabError,
)
from .lattice import (
    AbsorberConfig,
    PositionDistribution,
    probability_distribution,
    std_dev,
)
from .engine import (
    CoinOperator,
    WalkConfig,
    coin_by_name,
    hadamard_coin,
    iterate_walk,
    kempe_coin,
    mirrored_hadamard_coin,
    run_walk,
    snapshot_distribution,
)
from .classical import (
    classical_avg_time_ratio,
    first_passage_series,
)
from .series import (
    PowerSeries,
    absorption_probabilities,
    absorption_summaries,
    generating_function,
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
    "AbsorberConfig", "AveragedCurve", "CoinOperator", "ConfigurationError",
    "DisorderSpec", "EmptyStateError", "EnsembleConfig", "NoAbsorptionError",
    "NumericalError", "PositionDistribution", "PowerSeries", "TABLE2_PRESETS",
    "WalkConfig", "WalklabError", "absorption_probabilities",
    "absorption_summaries", "binomial", "build_spec", "child_seed",
    "classical_avg_time_ratio", "coin_by_name", "disorder_avg_absorb_time",
    "disorder_avg_sigma", "finite_horizon_avg_time", "first_passage_series",
    "fit_exponent", "generating_function", "geometric", "geometric_shifted",
    "hadamard_coin", "hypergeometric", "iterate_walk", "kempe_coin",
    "mirrored_hadamard_coin", "negative_binomial", "point_mass", "poisson",
    "probability_distribution", "quantum_avg_time_ratio", "raabe_estimate",
    "run_ensemble", "run_walk", "sample_realization", "snapshot_distribution",
    "std_dev",
]
