"""Closed forms against the per-row loops they replaced, plus property tests.

The oracles are the loops the library used before it switched to array
expressions: per-outcome `family_apply` + `fidelity`, per-column
`flat_posterior_mass`, per-row `average_fidelity`, the O(N^2)
structured completeness accumulation, the per-message `tensor_product`
of per-qubit states, the per-row entropies of `mutual_information`, the
per-point public functions behind `tradeoff_sweep` and the plain
inverse-CDF search behind the guide table.  `family_apply`, `fidelity`,
`flat_posterior_mass` and `tensor_product` live in `tests/oracles.py`,
with the other reference paths the package no longer ships; the loops
used only here are defined below.  Where the array form promises the
same additions (or products) in the same order, equality is asserted
with `==`.

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

from oracles import family_apply, fidelity, flat_posterior_mass, tensor_product
from sealsim.analysis import (
    TradeoffPoint,
    average_fidelity,
    decode_matrix,
    decode_probabilities,
    escape_probability,
    expected_flat_mass,
    flat_posterior_masses,
    mutual_information,
    tradeoff_sweep,
)
from sealsim.attacks import (
    _cumulative,
    _GuideTable,
    _sample_index,
    coin_toss_probabilities,
    measurement_family,
)
from sealsim.claims import THETA_GRID, seal_suite
from sealsim.errors import UsageError, unit_norm_weights
from sealsim.montecarlo import _family_tables
from sealsim.seals import (
    OverlapMatrix,
    ProductSealSpec,
    load_overlap_matrix,
    overlap_matrix,
    product_states,
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
    yield "golden-random64", load_overlap_matrix(DATA / "random64.json")
    for n in (2, 3, 5, 8, 33, 64):
        yield f"random{n}", random_overlaps(7, n)
        yield f"sparse{n}", random_overlaps(8, n, sparsity=0.6)
    yield "product-m5", overlap_matrix(ProductSealSpec("01101", (0.0, 0.1, 0.3, 0.5, 0.7)))
    yield "identity8", OverlapMatrix.identity(8)


MATRICES = dict(matrices())


def qubit_by_qubit(message: int, thetas) -> np.ndarray:
    """One sealed state as the tensor product of per-qubit states."""
    qubits = []
    for bit, theta in zip(format(message, f"0{len(thetas)}b"), thetas):
        amps = np.zeros(2, dtype=complex)
        amps[int(bit)] = math.cos(theta)
        amps[1 - int(bit)] = math.sin(theta)
        qubits.append(amps)
    return tensor_product(qubits)


def entropy_bits(distribution: np.ndarray) -> float:
    positive = distribution[distribution > 0.0]
    return float(-np.sum(positive * np.log2(positive)))


def mutual_information_per_row(probs: np.ndarray) -> float:
    """mutual_information with one entropy call per row of the decode matrix."""
    h_decoded = entropy_bits(probs.mean(axis=0))
    h_conditional = float(np.mean([entropy_bits(row) for row in probs]))
    return max(h_decoded - h_conditional, 0.0)


def tradeoff_point(om: OverlapMatrix, nu: float) -> TradeoffPoint:
    """One sweep point from the public per-point functions."""
    probs = decode_matrix(om, nu)
    return TradeoffPoint(
        nu=nu,
        mutual_information=mutual_information(probs),
        guess_probability=float(np.trace(probs)) / om.dim,
        escape_probability=escape_probability(om, nu),
        flat_mass=expected_flat_mass(probs, nu),
    )


def mixed_angles(seed: int, m: int) -> tuple[float, ...]:
    """Random angles in [0, pi/4] with both endpoints present when m >= 2."""
    thetas = np.random.default_rng([seed, m]).uniform(0.0, math.pi / 4, m)
    if m >= 2:
        thetas[0], thetas[-1] = 0.0, math.pi / 4
    return tuple(float(t) for t in thetas)


class TestOracles:
    @pytest.mark.parametrize("name", MATRICES)
    def test_family_tables_match_per_outcome_apply(self, name):
        om = MATRICES[name]
        for message in range(0, om.dim, max(1, om.dim // 4)):
            sealed = om.coefficients[message]
            for nu in (0.0, 0.37, 0.5, 0.9, 1.0):
                family = measurement_family(om.dim, nu)
                probs, pass_probs = _family_tables(om.weights[message], family)
                for i in range(om.dim):
                    prob, post = family_apply(family, i, sealed)
                    expected = 0.0 if post is None else fidelity(sealed, post)
                    assert abs(probs[i] - prob) <= 1e-12
                    assert abs(pass_probs[i] - expected) <= 1e-12

    @pytest.mark.parametrize("name", MATRICES)
    def test_expected_flat_mass_equals_per_column_loop(self, name):
        om = MATRICES[name]
        for nu in NU_GRID:
            probs = decode_matrix(om, nu)
            marginals = probs.mean(axis=0)
            total = 0.0
            for i in range(om.dim):
                if marginals[i] > 0.0:
                    total += marginals[i] * flat_posterior_mass(probs, nu, i)
            assert expected_flat_mass(probs, nu) == total

    @pytest.mark.parametrize("name", MATRICES)
    def test_flat_posterior_masses_equal_per_column_loop(self, name):
        om = MATRICES[name]
        for nu in NU_GRID:
            probs = decode_matrix(om, nu)
            if np.any(probs.sum(axis=0) == 0.0):
                with pytest.raises(UsageError):
                    flat_posterior_masses(probs, nu)
                continue
            loop = [flat_posterior_mass(probs, nu, i) for i in range(om.dim)]
            assert flat_posterior_masses(probs, nu).tolist() == loop

    def test_flat_posterior_masses_equal_per_column_loop_on_the_seal_suite(self):
        for m, theta, om in seal_suite():
            probs = decode_matrix(om, 0.5)
            loop = [flat_posterior_mass(probs, 0.5, i) for i in range(om.dim)]
            assert flat_posterior_masses(probs, 0.5).tolist() == loop

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("angles", ["grid", "mixed"])
    def test_product_states_equal_tensor_product(self, m, angles):
        if angles == "grid":
            angle_sets = [(theta,) * m for theta in THETA_GRID]
        else:
            angle_sets = [mixed_angles(seed, m) for seed in range(3)]
        for thetas in angle_sets:
            states = product_states(thetas, np.arange(2**m))
            for message in range(2**m):
                assert np.array_equal(states[message], qubit_by_qubit(message, thetas))

    @pytest.mark.parametrize("name", MATRICES)
    def test_escape_probability_equals_per_row_mean(self, name):
        om = MATRICES[name]
        for nu in NU_GRID:
            per_row = [average_fidelity(weights, nu) for weights in om.weights]
            assert escape_probability(om, nu) == float(np.mean(per_row))
            assert np.array_equal(average_fidelity(om.weights, nu), per_row)

    @pytest.mark.parametrize("nu", (0.0, 0.25, 0.3, 0.5, 0.75, 1.0))
    def test_completeness_matches_structured_accumulation(self, nu):
        n = 256
        family = measurement_family(n, nu)
        a, b = family.a, family.b
        diagonal = np.zeros(n)
        for i in range(n):
            diagonal += a * a
            diagonal[i] += 2.0 * a * b + b * b
        accumulated = float(np.max(np.abs(diagonal - 1.0)))
        assert abs(family.completeness_deviation() - accumulated) <= 1e-13

    @pytest.mark.parametrize("name", MATRICES)
    def test_mutual_information_equals_per_row_entropies(self, name):
        om = MATRICES[name]
        for nu in (0.0, 0.37, 0.5, 1.0):
            probs = decode_matrix(om, nu)
            assert mutual_information(probs) == mutual_information_per_row(probs)

    def test_mutual_information_equals_per_row_entropies_on_the_seal_suite(self):
        for m, theta, om in seal_suite():
            for nu in (0.0, 0.37, 0.5, 1.0):
                probs = decode_matrix(om, nu)
                assert mutual_information(probs) == mutual_information_per_row(probs)

    @pytest.mark.parametrize("name", MATRICES)
    def test_sweep_equals_the_per_point_functions(self, name):
        om = MATRICES[name]
        assert tradeoff_sweep(om, NU_GRID) == [tradeoff_point(om, nu) for nu in NU_GRID]

    def test_sweep_equals_the_per_point_functions_on_the_seal_suite(self):
        grid = (0.0, 0.37, 0.5, 1.0)
        for m, theta, om in seal_suite():
            assert tradeoff_sweep(om, grid) == [tradeoff_point(om, nu) for nu in grid]

    def test_sampler_gives_the_same_index_per_draw_as_in_bulk(self):
        weights = MATRICES["sparse16"].weights[3]
        draws = np.random.default_rng(11).random(2000)
        cumulative = _cumulative(weights)
        bulk = _sample_index(cumulative, draws)
        assert [int(_sample_index(cumulative, u)) for u in draws] == bulk.tolist()
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
angles = st.one_of(st.sampled_from((0.0, math.pi / 4)), st.floats(0.0, math.pi / 4))


@st.composite
def angles_and_messages(draw):
    thetas = draw(st.lists(angles, min_size=1, max_size=8))
    messages = draw(st.lists(st.integers(0, 2 ** len(thetas) - 1), min_size=1, max_size=8))
    return tuple(thetas), messages


class TestProperties:
    @fixed
    @given(unit_matrices(max_n=16), nus)
    def test_decode_rows_are_stochastic_with_the_flat_floor(self, om, nu):
        # the invariants that hold for every decode matrix because its
        # weights were checked once, in OverlapMatrix
        probs = decode_matrix(om, nu)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12
        assert probs.min() >= (1.0 - nu) / om.dim - 1e-15

    @fixed
    @given(unit_matrices(), nus)
    def test_mutual_information_lies_in_zero_to_log2_n(self, om, nu):
        mi = mutual_information(decode_matrix(om, nu))
        assert 0.0 <= mi <= math.log2(om.dim) + 1e-12

    @fixed
    @given(unit_rows(), nus)
    def test_escape_lies_between_the_quartic_sum_and_one(self, row, nu):
        quartic = float(np.sum(np.abs(row) ** 4))
        escape = average_fidelity(unit_norm_weights(row, "row"), nu)
        assert quartic - 1e-12 <= escape <= 1.0

    @fixed
    @given(angles_and_messages())
    def test_product_states_equal_tensor_product(self, case):
        thetas, messages = case
        states = product_states(thetas, messages)
        for row, message in zip(states, messages):
            assert np.array_equal(row, qubit_by_qubit(message, thetas))

    @fixed
    @given(unit_rows(), nus)
    def test_coin_toss_and_family_decode_rows_are_equal(self, row, q):
        weights = unit_norm_weights(row, "row")
        assert np.array_equal(coin_toss_probabilities(weights, q), decode_probabilities(weights, q))


@st.composite
def outcome_weights(draw):
    """Weights summing to 1 for N = 1..4096 outcomes, some zero or subnormal."""
    n = draw(st.one_of(st.sampled_from((1, 2, 3, 4096)), st.integers(1, 4096)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.exponential(size=n)
    weights[rng.random(n) < draw(st.sampled_from((0.0, 0.5, 0.95)))] = 0.0
    if draw(st.booleans()):
        subnormal = rng.random(n) < 0.3
        weights[subnormal] = rng.integers(1, 2**20, subnormal.sum()) * 5e-324
    weights[rng.integers(n)] = 1.0  # at least one normal weight
    return weights / weights.sum()


class TestGuideTable:
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(outcome_weights(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    def test_gives_the_index_of_the_plain_search_per_draw(self, weights, extra):
        cumulative = _cumulative(weights)
        table = _GuideTable(cumulative)
        assert table.bins >= 16 * len(weights) and table.bins & (table.bins - 1) == 0
        k = np.arange(table.bins)
        steps = cumulative / cumulative[-1]
        uniforms = np.concatenate([
            k / table.bins,  # the lowest draw of every bin
            np.nextafter((k + 1) / table.bins, 0.0),  # the highest draw of every bin
            np.nextafter(k / table.bins, 1.0),
            steps,  # the draws next to each step of the CDF
            np.nextafter(steps, 0.0),
            np.nextafter(steps, 1.0),
            np.random.default_rng(len(weights)).random(4096),
            extra,
        ])
        uniforms = uniforms[uniforms < 1.0]
        assert np.array_equal(table(uniforms), _sample_index(cumulative, uniforms))
