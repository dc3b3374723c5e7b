"""Exact and Monte Carlo analysis of read-attacks on quantum string seals.

Each public name is imported from its module when it is first used
(PEP 562), so `import sealsim` loads no numpy.  The command entry relies
on that: it sets the BLAS thread defaults before numpy starts.
"""

import importlib

__version__ = "0.1.0"

# each public name once, under the module that defines it
_EXPORTS = {
    "analysis": (
        "TradeoffPoint average_fidelity bit_seal_point decode_matrix decode_probabilities"
        " escape_probability flat_posterior_masses mutual_information tradeoff_sweep"
    ),
    "attacks": "MeasurementFamily coin_toss_escape_probability coin_toss_probabilities",
    "claims": "ClaimResult format_report run_claims",
    "errors": "ResourceError UsageError",
    "montecarlo": (
        "CoinTossStrategy EmpiricalStats ExperimentConfig ExplicitSealSpec FamilyStrategy"
        " chi_square_check run_experiment stats_record"
    ),
    "seals": (
        "OverlapMatrix ProductSealSpec load_overlap_matrix overlap_matrix product_seal"
        " product_states save_overlap_matrix"
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
