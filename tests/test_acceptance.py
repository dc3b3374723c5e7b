"""Acceptance criteria, one test per criterion.

Criteria 1-10 drive the same checks the `sealsim claims` command runs,
pinned at seed 42 and 1e5 trials; criterion 11 runs the CLI twice and
compares the report bytes.  Each test prints its own PASS/FAIL line
(visible with `pytest -s` or on failure).
"""

import subprocess
import sys
from types import SimpleNamespace

import pytest

from oracles import apply_and_normalize
from sealsim import claims
from sealsim.analysis import decode_probabilities
from sealsim.attacks import measurement_family
from sealsim.errors import unit_norm_weights
from sealsim.montecarlo import run_experiment

SEED = 42
TRIALS = 100_000


@pytest.fixture(scope="module")
def suite():
    results = claims.run_claims(seed=SEED, trials=TRIALS)
    return {r.number: r for r in results}


def report(result) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number} [{result.key}]: {status}")
    for line in result.details:
        print(f"    {line}")


def assert_claim(suite, number: int) -> None:
    result = suite[number]
    report(result)
    assert result.passed, f"criterion {number} failed: {result.details}"


def test_criterion_01_povm_completeness(suite):
    assert_claim(suite, 1)


def test_criterion_02_decode_closed_form_vs_brute_force(suite):
    assert_claim(suite, 2)


def test_criterion_03_decode_floor_one_over_2n(suite):
    assert_claim(suite, 3)


def test_criterion_04_flat_posterior_mass_half(suite):
    assert_claim(suite, 4)


def test_criterion_05_escape_at_least_half(suite):
    assert_claim(suite, 5)


def test_criterion_06_fidelity_collapse_sum_quartic(suite):
    assert_claim(suite, 6)


def test_criterion_07_coin_toss_equivalence(suite):
    assert_claim(suite, 7)


def test_criterion_08_zero_information_endpoints(suite):
    assert_claim(suite, 8)


def test_criterion_09_bit_seal_beta_bound(suite):
    assert_claim(suite, 9)


def test_criterion_10_cross_construction_identity(suite):
    assert_claim(suite, 10)


def test_criterion_10_fails_on_a_perturbed_overlap_entry(monkeypatch):
    real = claims.overlap_matrix

    def perturbed(spec):
        om = real(spec)
        if spec.dim != 16 or spec.thetas[0] != claims.THETA_GRID[1]:
            return om
        coefficients = om.coefficients.copy()
        coefficients[5, 9] += 1e-9
        # bypass OverlapMatrix's norm check: the comparison itself must fail
        return SimpleNamespace(coefficients=coefficients, dim=om.dim)

    monkeypatch.setattr(claims, "overlap_matrix", perturbed)
    result = claims.check_cross_construction()
    report(result)
    assert not result.passed
    assert result.details == ("max amplitude deviation = 1.000000e-09",)


def test_criterion_11_claims_reports_are_byte_identical():
    command = [sys.executable, "-m", "sealsim", "claims", "--seed", "42"]
    first = subprocess.run(command, capture_output=True, timeout=300)
    second = subprocess.run(command, capture_output=True, timeout=300)
    identical = first.stdout == second.stdout and first.returncode == second.returncode == 0
    print(f"criterion 11 [reproducibility]: {'PASS' if identical else 'FAIL'}")
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout


def test_a_report_runs_each_experiment_once(monkeypatch):
    # claim 7's family run is claim 5's first; a second report runs its own
    configs = []

    def counting(config):
        configs.append(config)
        return run_experiment(config)

    monkeypatch.setattr(claims, "run_experiment", counting)
    for _ in range(2):
        claims.run_claims(seed=SEED, trials=1000)
    assert len(configs) == 8 and len(set(configs)) == 4


def test_claim_7_reads_the_built_suite(monkeypatch):
    claims.seal_suite.cache_clear()
    claims.seal_suite()

    def no_build(spec):
        raise AssertionError(f"overlap matrix built again for {spec}")

    monkeypatch.setattr(claims, "overlap_matrix", no_build)
    assert claims.check_coin_toss_equivalence(SEED, 1000).passed


def dense_loop_gap(seed: int) -> float:
    """Claim 2 one operator at a time through apply_and_normalize."""
    worst = 0.0
    for n in (2, 4, 16):
        for row in claims._random_unit_rows(seed, n, 100):
            for nu in claims.NU_GRID_FINE:
                family = measurement_family(n, nu)
                closed = decode_probabilities(unit_norm_weights(row, "row"), nu)
                for i in range(n):
                    prob, _ = apply_and_normalize(family.operator(i), row)
                    worst = max(worst, abs(prob - closed[i]))
    return worst


@pytest.mark.parametrize("seed", [42, 0, 1, 7])
def test_criterion_02_stacked_operators_match_per_operator_oracle(seed):
    assert claims._decode_closed_form_gap(seed) == dense_loop_gap(seed)
