"""The package's public surface, and the reference paths kept out of it.

The dense and round-by-round forms that no command runs live in
`tests/oracles.py`.  These tests pin `sealsim.__all__` and check that
those forms stay out of the runtime modules.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sealsim

PUBLIC = [
    "AttackCoefficients",
    "ClaimResult",
    "CoinTossStrategy",
    "DecodeMatrix",
    "DenseOperator",
    "EmpiricalStats",
    "ExperimentConfig",
    "ExplicitSealSpec",
    "FamilyStrategy",
    "MeasurementFamily",
    "OverlapMatrix",
    "ProductSealSpec",
    "ResourceError",
    "SealedState",
    "StateVector",
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
    "measurement_family",
    "mutual_information",
    "overlap_matrix",
    "product_seal",
    "product_states",
    "run_claims",
    "run_experiment",
    "save_overlap_matrix",
    "seal_from_overlaps",
    "stats_record",
    "tradeoff_sweep",
]

MOVED_TO_ORACLES = [
    ("montecarlo", "replay_experiment"),
    ("montecarlo", "draw_table"),
    ("montecarlo", "round_block"),
    ("montecarlo", "_ScriptedRng"),
    ("attacks", "run_attack"),
    ("attacks", "coin_toss_attack"),
    ("attacks", "AttackOutcome"),
    ("seals", "verify_seal"),
    ("seals", "SealSource"),
    ("linalg", "fidelity"),
    ("linalg", "apply_and_normalize"),
    ("linalg", "tensor_product"),
    ("linalg", "_renormalize"),
    ("analysis", "flat_posterior_mass"),
]

MOVED_METHODS = [
    ("MeasurementFamily", "apply"),
    ("StateVector", "basis"),
    ("DenseOperator", "identity"),
    ("SealedState", "source"),
]


def test_all_is_the_pruned_list():
    assert sealsim.__all__ == PUBLIC


def test_every_listed_name_imports():
    namespace = {}
    exec("from sealsim import *", namespace)
    assert all(name in namespace for name in PUBLIC)
    assert all(getattr(sealsim, name) is namespace[name] for name in PUBLIC)


@pytest.mark.parametrize("module, name", MOVED_TO_ORACLES, ids=[".".join(p) for p in MOVED_TO_ORACLES])
def test_moved_names_are_gone_from_the_package(module, name):
    assert not hasattr(importlib.import_module(f"sealsim.{module}"), name)
    assert not hasattr(sealsim, name)


@pytest.mark.parametrize("cls, attr", MOVED_METHODS, ids=[".".join(p) for p in MOVED_METHODS])
def test_moved_methods_are_gone_from_the_value_types(cls, attr):
    owner = getattr(sealsim, cls)
    assert attr not in vars(owner) and attr not in getattr(owner, "__dataclass_fields__", {})


def test_the_cli_imports_no_test_module():
    # tests/ is on the path, so an import of the oracles would succeed and show
    path = [str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = (
        "import sys, sealsim.cli; "
        "loaded = [m for m in sys.modules if m == 'oracles' or m.startswith('tests')]; "
        "assert not loaded, loaded"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
