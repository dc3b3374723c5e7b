"""Closed forms against the per-row loops they replaced, plus property tests.

The oracles are the loops the library used before it switched to array
expressions: per-outcome `apply` + `fidelity`, per-column
`flat_posterior_mass`, per-row `average_fidelity` and the O(N^2)
structured completeness accumulation.  Where the array form promises
the same additions in the same order, equality is asserted with `==`.

The property tests are derandomized with a bounded example count, so
every run checks the same cases.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sealsim.analysis import (
    average_fidelity,
    decode_matrix,
    decode_probabilities,
    escape_probability,
    expected_flat_mass,
    flat_posterior_mass,
    mutual_information,
)
from sealsim.attacks import _sample_index, coin_toss_probabilities, measurement_family
from sealsim.linalg import fidelity
from sealsim.montecarlo import _family_tables
from sealsim.seals import (
    OverlapMatrix,
    ProductSealSpec,
    load_overlap_matrix,
    overlap_matrix,
    seal_from_overlaps,
)

DATA = Path(__file__).parent / "data"
NU_GRID = tuple(float(v) for v in np.linspace(0.0, 1.0, 21))


def random_overlaps(seed: int, n: int, sparsity: float = 0.0) -> OverlapMatrix:
    """Random unit rows; sparse ones have zeroed entries and an all-zero column 0."""
    rng = np.random.default_rng([seed, n])
    rows = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if sparsity:
        rows[rng.random((n, n)) < sparsity] = 0.0
        rows[:, 0] = 0.0
        rows[:, 1] += 0.5  # no all-zero row
    return OverlapMatrix(rows / np.linalg.norm(rows, axis=1, keepdims=True))


def matrices():
    yield "random16", load_overlap_matrix(DATA / "random16.json")
    yield "sparse16", load_overlap_matrix(DATA / "sparse16.json")
    for n in (2, 3, 5, 8, 33, 64):
        yield f"random{n}", random_overlaps(7, n)
        yield f"sparse{n}", random_overlaps(8, n, sparsity=0.6)
    yield "product-m5", overlap_matrix(ProductSealSpec("01101", (0.0, 0.1, 0.3, 0.5, 0.7)))
    yield "identity8", OverlapMatrix.identity(8)


MATRICES = dict(matrices())


class TestOracles:
    @pytest.mark.parametrize("name", MATRICES)
    def test_family_tables_match_per_outcome_apply(self, name):
        om = MATRICES[name]
        for message in range(0, om.dim, max(1, om.dim // 4)):
            sealed = seal_from_overlaps(om, message)
            for nu in (0.0, 0.37, 0.5, 0.9, 1.0):
                family = measurement_family(om.dim, nu)
                probs, pass_probs = _family_tables(sealed, family)
                for i in range(om.dim):
                    prob, post = family.apply(i, sealed.state)
                    expected = 0.0 if post is None else fidelity(sealed.state, post)
                    assert abs(probs[i] - prob) <= 1e-12
                    assert abs(pass_probs[i] - expected) <= 1e-12

    @pytest.mark.parametrize("name", MATRICES)
    def test_expected_flat_mass_equals_per_column_loop(self, name):
        om = MATRICES[name]
        for nu in NU_GRID:
            dm = decode_matrix(om, nu)
            marginals = dm.probabilities.mean(axis=0)
            total = 0.0
            for i in range(dm.dim):
                if marginals[i] > 0.0:
                    total += marginals[i] * flat_posterior_mass(dm, i)
            assert expected_flat_mass(dm) == total

    @pytest.mark.parametrize("name", MATRICES)
    def test_escape_probability_equals_per_row_mean(self, name):
        om = MATRICES[name]
        for nu in NU_GRID:
            per_row = [average_fidelity(row, nu) for row in om.coefficients]
            assert escape_probability(om, nu) == float(np.mean(per_row))
            assert np.array_equal(average_fidelity(om.coefficients, nu), per_row)

    @pytest.mark.parametrize("nu", (0.0, 0.25, 0.3, 0.5, 0.75, 1.0))
    def test_completeness_matches_structured_accumulation(self, nu):
        n = 256
        family = measurement_family(n, nu)
        a, b = family.coeffs.a, family.coeffs.b
        diagonal = np.zeros(n)
        for i in range(n):
            diagonal += a * a
            diagonal[i] += 2.0 * a * b + b * b
        accumulated = float(np.max(np.abs(diagonal - 1.0)))
        assert abs(family.completeness_deviation() - accumulated) <= 1e-13

    def test_sampler_gives_the_same_index_per_draw_as_in_bulk(self):
        weights = np.abs(MATRICES["sparse16"].coefficients[3]) ** 2
        draws = np.random.default_rng(11).random(2000)
        bulk = _sample_index(weights, draws)
        assert [int(_sample_index(weights, u)) for u in draws] == bulk.tolist()
        assert np.all(weights[bulk] > 0.0)


@st.composite
def unit_stacks(draw, shape):
    """Unit-norm complex rows with some entries exactly zero."""
    parts = draw(arrays(np.float64, (2, *shape), elements=st.floats(-1.0, 1.0)))
    keep = draw(arrays(np.bool_, shape))
    rows = np.where(keep, parts[0] + 1j * parts[1], 0.0)
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    assume(np.all(norms > 1e-3))
    return rows / norms


def unit_rows(max_n=16):
    return st.integers(2, max_n).flatmap(lambda n: unit_stacks((n,)))


def unit_matrices(max_n=8):
    return st.integers(2, max_n).flatmap(lambda n: unit_stacks((n, n))).map(OverlapMatrix)


nus = st.floats(0.0, 1.0)
fixed = settings(derandomize=True, database=None, max_examples=60, deadline=None)


class TestProperties:
    @fixed
    @given(unit_rows(), nus)
    def test_decode_rows_are_stochastic_with_the_flat_floor(self, row, nu):
        probs = decode_probabilities(row, nu)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert probs.min() >= (1.0 - nu) / row.size - 1e-15

    @fixed
    @given(unit_matrices(), nus)
    def test_mutual_information_lies_in_zero_to_log2_n(self, om, nu):
        mi = mutual_information(decode_matrix(om, nu))
        assert 0.0 <= mi <= math.log2(om.dim) + 1e-12

    @fixed
    @given(unit_rows(), nus)
    def test_escape_lies_between_the_quartic_sum_and_one(self, row, nu):
        quartic = float(np.sum(np.abs(row) ** 4))
        escape = average_fidelity(row, nu)
        assert quartic - 1e-12 <= escape <= 1.0

    @fixed
    @given(unit_rows(), nus)
    def test_coin_toss_and_family_decode_rows_are_equal(self, row, q):
        assert np.array_equal(coin_toss_probabilities(row, q), decode_probabilities(row, q))
