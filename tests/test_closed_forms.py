"""Closed forms against the per-row loops they replaced, plus property tests.

The oracles are the loops the library used before it switched to array
expressions: per-outcome `family_apply` + `fidelity`, per-column
`flat_posterior_mass` and its marginal-weighted sum `expected_flat_mass`
(which the sweep's exact 1 - nu replaced), per-row `average_fidelity`,
the O(N^2) structured completeness accumulation, the per-message
`tensor_product` of per-qubit states, the per-row entropies of
`mutual_information`, the per-point public functions behind
`tradeoff_sweep` and the plain inverse-CDF search behind the guide
table.  `family_apply`, `fidelity`, `flat_posterior_mass`,
`expected_flat_mass` and `tensor_product` live in `tests/oracles.py`,
with the other reference paths the package no longer ships; the loops
used only here are defined below.  Where the array form promises the
same additions (or products) in the same order, equality is asserted
with `==`.  The sweep's guess and escape columns are held instead to
within 4 ulp of `exact_sweep_point`, a 40-digit decimal oracle.

The property tests are derandomized with a bounded example count, so
every run checks the same cases.
"""

import decimal
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    ensemble_ceilings,
    exact_sweep_point,
    expected_flat_mass,
    family_apply,
    fidelity,
    flat_posterior_mass,
    reprepare_escape,
    tensor_product,
)
from sealsim.analysis import (
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
from sealsim.attacks import MeasurementFamily, coin_toss_probabilities
from sealsim.claims import EXACT_ATOL, THETA_GRID, seal_suite
from sealsim.errors import NORM_ATOL, UsageError, unit_norm_weights
from sealsim.montecarlo import _family_tables, _GuideTable, _sample_index
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
# the matrices read from tests/data, whose rows OverlapMatrix checked
CHECKED_MATRICES = ("random16", "sparse16", "golden-random64")


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
        flat_mass=1.0 - nu,
    )


def mixed_angles(seed: int, m: int) -> tuple[float, ...]:
    """Random angles in [0, pi/4] with both endpoints present when m >= 2."""
    thetas = np.random.default_rng([seed, m]).uniform(0.0, math.pi / 4, m)
    if m >= 2:
        thetas[0], thetas[-1] = 0.0, math.pi / 4
    return tuple(float(t) for t in thetas)


# tiny, mid-range and endpoint read strengths, where a column sum would
# round differently from the one subtraction 1 - nu
EXACT_NU_GRID = sorted({0.0, 1e-8, 1e-6, 1e-3, 0.05, 0.5, 1.0, *NU_GRID})


def one_minus_exact(nu: float) -> float:
    """1 - nu, exact in decimal and then rounded once to the nearest float."""
    with decimal.localcontext() as context:
        context.prec = 1100  # every double in [0, 1] has at most 1075 significant digits
        context.traps[decimal.Inexact] = True
        return float(Decimal(1) - Decimal(nu))


def flat_mass_seals():
    for name in ("random16", "sparse16", "golden-random64"):
        yield name, MATRICES[name]
    for m in range(1, 7):
        bits = "011010"[:m]
        for theta in THETA_GRID:
            spec = ProductSealSpec.shared_theta(bits, theta)
            yield f"m{m}-theta{theta:.4f}", overlap_matrix(spec)
        yield f"m{m}-mixed", overlap_matrix(ProductSealSpec(bits, mixed_angles(0, m)))


FLAT_MASS_SEALS = dict(flat_mass_seals())


class TestExactFlatMass:
    @pytest.mark.parametrize("name", FLAT_MASS_SEALS)
    def test_sweep_flat_mass_is_one_minus_nu_correctly_rounded(self, name):
        points = tradeoff_sweep(FLAT_MASS_SEALS[name], EXACT_NU_GRID)
        assert [p.nu for p in points] == EXACT_NU_GRID
        for point in points:
            assert point.flat_mass == one_minus_exact(point.nu), point.nu


SWEEP_ORACLE_GRID = sorted({1e-8, 1e-6, 1e-3, *NU_GRID})


def ulps_from(value: float, exact: Decimal) -> Decimal:
    """|value - exact| in units in the last place of the double nearest exact."""
    return abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact)))


class TestExactSweepColumns:
    # mutual_information loses about eps * log2 N to cancellation, so mi_bits
    # is left out here; the worst guess and escape errors are 2.6 and 2.1 ulp
    @pytest.mark.parametrize("name", ("random16", "golden-random64", "sparse16", "m6-mixed"))
    def test_guess_and_escape_are_within_4_ulp_of_the_decimal_oracle(self, name):
        om = FLAT_MASS_SEALS[name]
        for point in tradeoff_sweep(om, SWEEP_ORACLE_GRID):
            guess, escape = exact_sweep_point(om.weights, point.nu)
            assert ulps_from(point.guess_probability, guess) <= 4, point
            assert ulps_from(point.escape_probability, escape) <= 4, point


def binary_entropy_bits(p: float) -> float:
    return sum(-x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def product_seals():
    """(angles, overlaps): the claims suite, then mixed angles that include 0 and pi/4."""
    for m, theta, om in seal_suite():
        yield (theta,) * m, om
    for m in range(2, 9):
        for seed in range(3):
            thetas = mixed_angles(seed, m)
            yield thetas, overlap_matrix(ProductSealSpec("01101001"[:m], thetas))


def test_a_product_seal_read_at_full_strength_meets_the_ceilings():
    # at nu = 1 the guess probability is the square-root measurement's success
    # probability, optimal for these geometrically uniform states, and the MI is
    # the per-qubit accessible information of two equiprobable pure states, summed
    for thetas, om in product_seals():
        (point,) = tradeoff_sweep(om, [1.0])
        cos2 = [math.cos(theta) ** 2 for theta in thetas]
        assert abs(point.guess_probability - math.prod(cos2)) <= 1e-12, thetas
        accessible = sum(1.0 - binary_entropy_bits(c) for c in cos2)
        assert abs(point.mutual_information - accessible) <= 1e-12, thetas

def ceiling_seals():
    for name in ("random16", "golden-random64", "sparse16"):
        yield name, MATRICES[name]
    for m, theta, om in seal_suite():
        yield f"m{m}-theta{theta:.4f}", om


CEILING_SEALS = dict(ceiling_seals())


def assert_below_the_ceilings(om: OverlapMatrix) -> None:
    """No point of the 21-point sweep beats Holevo's chi or the Barnum-Knill bound."""
    chi, p_srm = ensemble_ceilings(om.coefficients)
    for point in tradeoff_sweep(om, NU_GRID):
        assert point.mutual_information <= chi + 1e-12, point.nu
        assert point.guess_probability <= math.sqrt(p_srm) + 1e-12, point.nu


class TestOracles:
    @pytest.mark.parametrize("name", MATRICES)
    def test_family_tables_match_per_outcome_apply(self, name):
        om = MATRICES[name]
        for message in range(0, om.dim, max(1, om.dim // 4)):
            sealed = om.coefficients[message]
            for nu in (0.0, 0.37, 0.5, 0.9, 1.0):
                family = MeasurementFamily(nu=nu, dim=om.dim)
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
            assert abs(total - (1.0 - nu)) <= 1e-12

    def test_expected_flat_mass_skips_the_zero_column_of_sparse16(self):
        # at nu = 1 the decode matrix is W, whose column 5 is all zero: a
        # decoded value that never occurs adds nothing to the average
        probs = decode_matrix(MATRICES["sparse16"], 1.0)
        assert np.flatnonzero(~probs.any(axis=0)).tolist() == [5]
        assert expected_flat_mass(probs, 1.0) == 0.0

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
        family = MeasurementFamily(nu=nu, dim=n)
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
        cumulative = np.cumsum(weights)
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


class TestInformationCeilings:
    @pytest.mark.parametrize("name", CEILING_SEALS)
    def test_the_sweep_stays_below_the_ceilings(self, name):
        assert_below_the_ceilings(CEILING_SEALS[name])

    def test_chi_of_a_product_seal_is_the_sum_over_its_qubits(self):
        # each qubit's two equiprobable states average to a state with
        # eigenvalues (1 +- sin 2 theta) / 2
        for thetas, om in product_seals():
            chi, _ = ensemble_ceilings(om.coefficients)
            per_qubit = sum(binary_entropy_bits((1.0 + math.sin(2.0 * t)) / 2.0) for t in thetas)
            assert abs(chi - per_qubit) <= 1e-12, thetas

    @fixed
    @given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.6)))
    def test_random_seals_stay_below_the_ceilings(self, n, seed, sparsity):
        assert_below_the_ceilings(random_overlaps(seed, n, sparsity))


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
    @given(st.lists(angles, min_size=1, max_size=12), st.data(), nus)
    def test_built_rows_and_their_outcome_probabilities_sum_to_one(self, thetas, data, nu):
        # the invariants that let the package take |c|^2 of a row it built
        # and cumsum an outcome row without checking either sum again
        m = len(thetas)
        drawn = data.draw(st.lists(st.integers(0, 2**m - 1), max_size=6))
        built = np.abs(product_states(thetas, [0, 2**m - 1, *drawn])) ** 2
        assert np.max(np.abs(built.sum(axis=1) - 1.0)) <= NORM_ATOL
        stacks = [built] + [MATRICES[name].weights for name in CHECKED_MATRICES]
        for weights in stacks:
            family = MeasurementFamily(nu=nu, dim=weights.shape[1])
            for row in weights:
                assert abs(family.outcome_probabilities(row).sum() - 1.0) <= NORM_ATOL

    @fixed
    @given(unit_rows(), nus)
    def test_coin_toss_and_family_decode_rows_are_equal(self, row, q):
        weights = unit_norm_weights(row, "row")
        assert np.array_equal(coin_toss_probabilities(weights, q), decode_probabilities(weights, q))


def escape_floor_at_half(n: int) -> float:
    """1/2 + 2ab + b^2/N, the least escape at nu = 1/2 of any unit row of length N.

    A row's escape is N a^2 + 2ab + b^2 sum w^2 with sum w = 1; N a^2 = 1/2
    at nu = 1/2, and sum w^2 >= 1/N with equality for a flat row.
    """
    family = MeasurementFamily(nu=0.5, dim=n)
    return 0.5 + 2.0 * family.a * family.b + family.b**2 / n


# beta of the one-bit seal at nu = 1/2 is 1 minus the escape floor at N = 2,
# attained by the flat seal theta = pi/4
BIT_SEAL_BETA_CEILING = (2.0 - math.sqrt(3.0)) / 4.0


@st.composite
def whole_domain_seals(draw):
    """A general seal of N <= 64, sparse rows included, or a mixed-angle product seal of m <= 10."""
    if draw(st.booleans()):
        n, seed = draw(st.integers(2, 64)), draw(st.integers(0, 2**32 - 1))
        return random_overlaps(seed, n, draw(st.sampled_from((0.0, 0.6))))
    thetas = draw(st.lists(angles, min_size=1, max_size=10))
    bits = "".join(draw(st.sampled_from("01")) for _ in thetas)
    return overlap_matrix(ProductSealSpec(bits, tuple(thetas)))


class TestClaimsOverTheirWholeDomain:
    """The closed-form extremes behind claims 3, 4, 5, 6, 8 and 9, over every seal and angle."""

    @fixed
    @given(whole_domain_seals(), nus)
    def test_claim_3_every_decode_entry_is_at_least_the_flat_floor(self, om, nu):
        # (1-nu)/N + nu w with w >= 0 rounds to no less than (1-nu)/N
        assert decode_matrix(om, nu).min() >= (1.0 - nu) / om.dim

    @fixed
    @given(whole_domain_seals())
    def test_claim_6_full_read_fidelity_is_the_quartic_sum_in_one_over_n_to_one(self, om):
        # at nu = 1, a = 0 and b = 1: each row's fidelity is sum w^2, and
        # 1/N <= sum w^2 <= 1 for weights summing to 1 (Cauchy-Schwarz)
        fidelity = average_fidelity(om.weights, 1.0)
        assert np.max(np.abs(fidelity - np.sum(om.weights**2, axis=-1))) <= EXACT_ATOL
        assert 1.0 / om.dim - EXACT_ATOL <= fidelity.min() and fidelity.max() <= 1.0

    @fixed
    @given(whole_domain_seals())
    def test_claim_8_nothing_is_learned_without_reading(self, om):
        # at nu = 0 every decode row is the flat row 1/N
        assert mutual_information(decode_matrix(om, 0.0)) <= EXACT_ATOL

    @fixed
    @given(st.integers(1, 10), nus)
    def test_claim_8_nothing_is_learned_from_the_flat_seal(self, m, nu):
        # at theta = pi/4 every row of W is 1/N, so every decode row is too
        flat = overlap_matrix(ProductSealSpec.shared_theta("0" * m, math.pi / 4))
        assert mutual_information(decode_matrix(flat, nu)) <= EXACT_ATOL

    @fixed
    @given(unit_rows(max_n=64))
    def test_every_row_escapes_at_half_with_at_least_the_flat_row_value(self, row):
        escape = average_fidelity(unit_norm_weights(row, "row"), 0.5)
        assert escape >= escape_floor_at_half(row.size) - 1e-15

    @fixed
    @given(angles)
    def test_the_bit_seal_beta_at_half_is_at_most_its_value_at_pi_over_4(self, theta):
        _, beta = bit_seal_point(theta, 0.5)
        assert beta <= BIT_SEAL_BETA_CEILING + 1e-16

    def test_claim_5_suite_minimum_is_the_floor_at_n_64(self):
        worst = min(escape_probability(om, 0.5) for _, _, om in seal_suite())
        assert worst == escape_floor_at_half(64) == 0.6164360932965841

    def test_claim_9_worst_beta_is_the_ceiling_at_pi_over_4(self):
        _, beta = bit_seal_point(math.pi / 4, 0.5)
        assert beta == 0.0669872981077807
        assert abs(beta - BIT_SEAL_BETA_CEILING) <= 1e-16

    def test_claim_4_flat_share_is_one_half_only_where_a_column_sums_to_1(self):
        # the share of decoded value j is (1-nu) / ((1-nu) + nu sum_i W_ij)
        om = MATRICES["random16"]
        masses = flat_posterior_masses(decode_matrix(om, 0.5), 0.5)
        column_sums = om.weights.sum(axis=0)
        assert np.max(np.abs(masses - 0.5 / (0.5 + 0.5 * column_sums))) <= 1e-15
        assert (round(masses.min(), 3), round(masses.max(), 3)) == (0.449, 0.628)


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
    @pytest.mark.parametrize("n, bins", [(1, 16), (2, 32), (3, 64), (17, 512), (4096, 65536)])
    def test_bins_are_the_least_power_of_two_at_or_above_16_n(self, n, bins):
        assert _GuideTable(np.cumsum(np.full(n, 1.0 / n))).bins == bins

    # the boundary sizes run whatever the derandomized draws are: N = 17 has a
    # power of two in [15 N, 16 N), so it tells 16 N from 15 N bins
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(outcome_weights(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    @example(weights=np.full(1, 1.0), extra=[])
    @example(weights=np.full(16, 1.0 / 16), extra=[])
    @example(weights=np.full(17, 1.0 / 17), extra=[])
    @example(weights=np.full(4096, 1.0 / 4096), extra=[])
    def test_gives_the_index_of_the_plain_search_per_draw(self, weights, extra):
        cumulative = np.cumsum(weights)
        table = _GuideTable(cumulative)
        assert table.bins >= 16 * len(weights) and table.bins & (table.bins - 1) == 0
        assert table.first.shape == table.split.shape == (table.bins,)
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


def reprepare_escape_product(thetas) -> float:
    """The re-prepare read's escape from a product seal, qubit by qubit.

    Per qubit the read keeps the bit (cos^2) and passes, or flips it
    (sin^2) and passes with the squared overlap of the two sealed states,
    sin^2 2 theta.
    """
    return math.prod(
        math.cos(t) ** 2 + math.sin(t) ** 2 * math.sin(2.0 * t) ** 2 for t in thetas
    )


class TestReprepareAttack:
    """Measure in the computational basis, then send on the sealed state of the outcome.

    Its decode distribution is the family's at nu = 1, and mixed with idling
    at rate q the family's at nu = q, so only the escape differs.
    """

    def test_the_product_closed_form_equals_the_gram_oracle(self):
        assert abs(reprepare_escape_product([math.pi / 6]) - 0.9375) <= 1e-15
        for thetas, om in product_seals():
            gap = reprepare_escape(om.coefficients) - reprepare_escape_product(thetas)
            assert abs(gap) <= 1e-12, thetas

    @fixed
    @given(st.lists(angles, min_size=1, max_size=6))
    def test_the_product_closed_form_holds_for_any_angles(self, thetas):
        om = overlap_matrix(ProductSealSpec("0" * len(thetas), thetas))
        assert abs(reprepare_escape(om.coefficients) - reprepare_escape_product(thetas)) <= 1e-12

    def test_a_full_read_escapes_more_often_when_it_re_prepares(self):
        # per qubit the gap to cos^4 + sin^4 is sin^2 theta (cos 2 theta + sin^2 2 theta) >= 0
        # on [0, pi/4]; for general seals the order is not guaranteed
        for thetas, om in product_seals():
            family = escape_probability(om, 1.0)
            quartic = math.prod(math.cos(t) ** 4 + math.sin(t) ** 4 for t in thetas)
            assert abs(family - quartic) <= 1e-12, thetas
            assert reprepare_escape(om.coefficients) >= quartic - 1e-12, thetas
