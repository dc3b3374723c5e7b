"""Exact and Monte Carlo analysis of read-attacks on quantum string seals."""

from .analysis import (
    TradeoffPoint,
    average_fidelity,
    bit_seal_point,
    decode_matrix,
    decode_probabilities,
    escape_probability,
    flat_posterior_masses,
    mutual_information,
    tradeoff_sweep,
)
from .attacks import MeasurementFamily, coin_toss_escape_probability, coin_toss_probabilities
from .claims import ClaimResult, format_report, run_claims
from .errors import ResourceError, UsageError, ValidationError
from .montecarlo import (
    CoinTossStrategy,
    EmpiricalStats,
    ExperimentConfig,
    ExplicitSealSpec,
    FamilyStrategy,
    chi_square_check,
    run_experiment,
    stats_record,
)
from .seals import (
    OverlapMatrix,
    ProductSealSpec,
    load_overlap_matrix,
    overlap_matrix,
    product_seal,
    product_states,
    save_overlap_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ClaimResult",
    "CoinTossStrategy",
    "EmpiricalStats",
    "ExperimentConfig",
    "ExplicitSealSpec",
    "FamilyStrategy",
    "MeasurementFamily",
    "OverlapMatrix",
    "ProductSealSpec",
    "ResourceError",
    "TradeoffPoint",
    "UsageError",
    "ValidationError",
    "average_fidelity",
    "bit_seal_point",
    "chi_square_check",
    "coin_toss_escape_probability",
    "coin_toss_probabilities",
    "decode_matrix",
    "decode_probabilities",
    "escape_probability",
    "flat_posterior_masses",
    "format_report",
    "load_overlap_matrix",
    "mutual_information",
    "overlap_matrix",
    "product_seal",
    "product_states",
    "run_claims",
    "run_experiment",
    "save_overlap_matrix",
    "stats_record",
    "tradeoff_sweep",
]
