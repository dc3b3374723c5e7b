"""The package's public surface, and the reference paths kept out of it.

The dense and round-by-round forms that no command runs live in
`tests/oracles.py`.  These tests pin `sealsim.__all__` and check that
those forms, and the wrapper types and helpers that plain arrays and
checked weights replaced, stay out of the runtime modules.
"""

import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sealsim
from sealsim.seals import ProductSealSpec, product_seal, product_states

PUBLIC = [
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
    "measurement_family",
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

RUNTIME_MODULES = ("analysis", "attacks", "claims", "cli", "errors", "montecarlo", "seals")

# a sealed state is a plain amplitude row, an operator and a decode
# matrix plain arrays, and the analysis layer reads weights checked once
REMOVED = [
    ("linalg", "StateVector"),
    ("linalg", "DenseOperator"),
    ("seals", "SealedState"),
    ("seals", "seal_from_overlaps"),
    ("analysis", "DecodeMatrix"),
    ("analysis", "_decode_rows"),
    ("analysis", "_average_fidelities"),
    ("attacks", "AttackCoefficients"),
    ("montecarlo", "_chi_square_critical"),
]

MOVED_METHODS = [
    ("MeasurementFamily", "apply"),
    ("ExperimentConfig", "sealed_state"),
]


def test_all_is_the_pruned_list():
    assert sealsim.__all__ == PUBLIC
    assert len(PUBLIC) == 34


def test_every_listed_name_imports():
    namespace = {}
    exec("from sealsim import *", namespace)
    assert all(name in namespace for name in PUBLIC)
    assert all(getattr(sealsim, name) is namespace[name] for name in PUBLIC)


@pytest.mark.parametrize(
    "module, name", MOVED_TO_ORACLES + REMOVED, ids=[".".join(p) for p in MOVED_TO_ORACLES + REMOVED]
)
def test_moved_names_are_gone_from_the_package(module, name):
    # `module` names where the name used to live; no runtime module holds it now
    for runtime in RUNTIME_MODULES:
        assert not hasattr(importlib.import_module(f"sealsim.{runtime}"), name)
    assert not hasattr(sealsim, name)


def test_the_linalg_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("sealsim.linalg")


def test_product_seal_is_the_read_only_product_states_row():
    spec = ProductSealSpec("0110", (0.1, 0.2, 0.3, 0.7))
    row = product_seal(spec)
    assert isinstance(row, np.ndarray) and row.ndim == 1 and row.dtype == complex
    assert not row.flags.writeable
    assert row.tobytes() == product_states(spec.thetas, [spec.message])[0].tobytes()


def test_overlap_weights_are_the_read_only_squared_moduli():
    om = sealsim.load_overlap_matrix(Path(__file__).parent / "data" / "random16.json")
    assert not om.weights.flags.writeable and not om.coefficients.flags.writeable
    assert np.array_equal(om.weights, np.abs(om.coefficients) ** 2)
    with pytest.raises(ValueError):
        om.weights[0, 0] = 1.0
    # the weights are made on access, not kept beside the coefficients
    assert [f.name for f in dataclasses.fields(om)] == ["coefficients"]


def test_decode_matrix_is_a_read_only_array():
    om = sealsim.overlap_matrix(ProductSealSpec.shared_theta("011", 0.4))
    probs = sealsim.decode_matrix(om, 0.5)
    assert type(probs) is np.ndarray and probs.shape == (8, 8) and probs.dtype == float
    assert np.array_equal(probs, sealsim.decode_probabilities(om.weights, 0.5))
    assert not probs.flags.writeable
    with pytest.raises(ValueError):
        probs[0, 0] = 1.0


def test_measurement_family_holds_its_coefficients():
    family = sealsim.measurement_family(4, 0.5)
    assert [f.name for f in dataclasses.fields(family)] == ["nu", "dim", "a", "b"]
    assert family == sealsim.MeasurementFamily.from_nu(4, 0.5)


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
