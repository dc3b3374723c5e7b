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
from sealsim.cli import main
from sealsim.errors import unit_norm_weights
from sealsim.montecarlo import run_experiment
from sealsim.seals import overlap_matrix

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
    # claim 10 reads the suite's matrices: rebuild it from the perturbed ones,
    # and drop it afterwards so that no other test reads them
    claims.seal_suite.cache_clear()
    try:
        passed, details = claims.check_cross_construction()
    finally:
        claims.seal_suite.cache_clear()
    assert not passed
    assert details == ("max amplitude deviation = 1.000000e-09",)


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


def claims_report(capsys) -> tuple[int, list[list[str]]]:
    """Exit code and per-claim blocks of `sealsim claims` at 1e3 trials."""
    code = main(["claims", "--seed", str(SEED), "--trials", "1000"])
    blocks = [[]]
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("[") or not line:
            blocks.append([])
        blocks[-1].append(line)
    return code, [block for block in blocks if block[0].startswith("[")]


def test_a_crashing_check_is_a_failed_claim(monkeypatch, capsys):
    _, before = claims_report(capsys)

    def boom():
        raise ValueError("boom")

    monkeypatch.setattr(claims, "check_bit_seal", boom)
    code, after = claims_report(capsys)
    assert code == 1
    assert after[8] == [
        "[ 9] FAIL  bit-seal-consistency: check raised instead of completing",
        "      ValueError: boom",
    ]
    assert after[:8] + after[9:] == before[:8] + before[9:]
    assert len(after) == 10


def test_each_report_looks_up_its_checks(monkeypatch):
    # a check replaced on the module after import is the one a report runs
    calls = []
    real = claims.check_decode_floor

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(claims, "check_decode_floor", recording)
    for _ in range(2):
        claims.run_claims(seed=SEED, trials=1000)
    assert calls == [(), ()]


def test_claim_7_reads_the_built_suite(monkeypatch):
    claims.seal_suite.cache_clear()
    claims.seal_suite()

    def no_build(spec):
        raise AssertionError(f"overlap matrix built again for {spec}")

    monkeypatch.setattr(claims, "overlap_matrix", no_build)
    passed, _ = claims.check_coin_toss_equivalence(SEED, 1000)
    assert passed


def test_claim_10_reads_the_built_suite(monkeypatch):
    claims.seal_suite.cache_clear()
    claims.seal_suite()
    built = []

    def record(spec):
        built.append(spec.bits)
        return overlap_matrix(spec)

    monkeypatch.setattr(claims, "overlap_matrix", record)
    passed, _ = claims.check_cross_construction()
    assert passed
    assert built == ["101"]  # the mixed-angle spot check alone


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
