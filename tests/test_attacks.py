import dataclasses
import math

import numpy as np
import pytest

from oracles import (
    apply_and_normalize,
    coin_toss_attack,
    dense_completeness_deviation,
    family_apply,
    family_operator,
    fidelity,
    run_attack,
)
from sealsim.attacks import (
    MeasurementFamily,
    coin_toss_escape_probability,
    coin_toss_probabilities,
)
from sealsim.claims import NU_GRID_COARSE
from sealsim.errors import UsageError, unit_norm_weights
from sealsim.seals import OverlapMatrix, ProductSealSpec, product_seal

ATOL = 1e-12


def random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return raw / np.linalg.norm(raw)


class TestConstructor:
    @pytest.mark.parametrize("n", [2, 4, 16, 256])
    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_defining_identities(self, n, nu):
        c = MeasurementFamily(nu=nu, dim=n)
        assert abs(c.a - math.sqrt((1 - nu) / n)) <= ATOL
        assert abs((c.a + c.b) ** 2 - ((1 - nu) / n + nu)) <= ATOL
        assert c.a >= 0.0 and c.b >= 0.0

    def test_nu_half_values(self):
        c = MeasurementFamily(nu=0.5, dim=2)
        assert c.a == pytest.approx(math.sqrt(1 / 4), abs=ATOL)
        assert c.a + c.b == pytest.approx(math.sqrt(1 / 2 + 1 / 4), abs=ATOL)

    def test_coefficients_are_not_init_fields(self):
        # nu and N fix a and b, so a family with a = b = 0 cannot be built
        assert [f.name for f in dataclasses.fields(MeasurementFamily) if f.init] == ["nu", "dim"]
        with pytest.raises(TypeError):
            MeasurementFamily(nu=0.5, dim=4, a=0.0, b=0.0)

    @pytest.mark.parametrize("nu, dim", [(7.0, 4), (0.5, 0)])
    def test_direct_construction_is_checked(self, nu, dim):
        with pytest.raises(UsageError):
            MeasurementFamily(nu=nu, dim=dim)

    def test_range_checks(self):
        with pytest.raises(UsageError):
            MeasurementFamily(nu=1.5, dim=2)
        with pytest.raises(UsageError):
            MeasurementFamily(nu=-0.1, dim=2)
        with pytest.raises(UsageError):
            MeasurementFamily(nu=0.5, dim=0)

    def test_no_dimension_cap(self, monkeypatch):
        # two coefficients allocate nothing, so no N is capped
        monkeypatch.setenv("SEALSIM_MAX_DIM", "8")
        family = MeasurementFamily(nu=0.5, dim=16)
        assert (family.dim, family.nu) == (16, 0.5)


class TestMeasurementFamily:
    def test_nu_one_is_projector(self):
        family = MeasurementFamily(nu=1.0, dim=3)
        op = family_operator(family, 1)
        expected = np.zeros((3, 3))
        expected[1, 1] = 1.0
        assert np.allclose(op, expected, atol=ATOL)

    def test_nu_zero_is_scaled_identity(self):
        family = MeasurementFamily(nu=0.0, dim=4)
        assert np.allclose(
            family_operator(family, 2), math.sqrt(0.25) * np.eye(4), atol=ATOL
        )

    @pytest.mark.parametrize("n", [2, 4, 16, 256])
    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_completeness(self, n, nu):
        assert MeasurementFamily(nu=nu, dim=n).completeness_deviation() <= ATOL

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 128])
    @pytest.mark.parametrize("nu", NU_GRID_COARSE)
    def test_completeness_paths_agree(self, n, nu):
        # the closed form must match the dense sum of the n expansions;
        # they differ only by the rounding order of the n-term sum
        family = MeasurementFamily(nu=nu, dim=n)
        assert abs(family.completeness_deviation() - dense_completeness_deviation(family)) <= 1e-13

    def test_structured_apply_matches_dense(self):
        for n in (2, 4, 16):
            family = MeasurementFamily(nu=0.7, dim=n)
            for trial in range(100):
                state = random_state(n, seed=n * 1000 + trial)
                i = trial % n
                prob_fast, post_fast = family_apply(family, i, state)
                prob_dense, post_dense = apply_and_normalize(family_operator(family, i), state)
                assert abs(prob_fast - prob_dense) <= ATOL
                assert np.max(np.abs(post_fast - post_dense)) <= ATOL

    def test_outcome_probabilities_match_apply(self):
        family = MeasurementFamily(nu=0.4, dim=4)
        state = random_state(4, seed=11)
        probs = family.outcome_probabilities(unit_norm_weights(state, "state"))
        for i in range(4):
            assert abs(probs[i] - family_apply(family, i, state)[0]) <= ATOL
        assert abs(probs.sum() - 1.0) <= ATOL

    def test_outcome_probabilities_refuse_weights_of_another_length(self):
        family = MeasurementFamily(nu=0.4, dim=4)
        with pytest.raises(UsageError):
            family.outcome_probabilities(np.full(3, 1.0 / 3))

    def test_operator_index_range(self):
        family = MeasurementFamily(nu=0.5, dim=2)
        with pytest.raises(UsageError):
            family_operator(family, 2)


class TestRunAttack:
    def test_nu_zero_leaves_state_and_guesses_uniformly(self):
        sealed = product_seal(ProductSealSpec.shared_theta("01", math.pi / 6))
        family = MeasurementFamily(nu=0.0, dim=4)
        rng = np.random.default_rng(3)
        counts = np.zeros(4)
        for _ in range(2000):
            outcome = run_attack(sealed, family, rng)
            counts[outcome.decoded] += 1
            assert outcome.acted
            assert np.max(np.abs(outcome.post_state - sealed)) <= ATOL
        assert np.all(counts > 2000 / 4 * 0.7)  # roughly uniform

    def test_nu_one_on_perfect_seal_reads_exactly(self):
        sealed = OverlapMatrix.identity(4).coefficients[2]
        family = MeasurementFamily(nu=1.0, dim=4)
        rng = np.random.default_rng(5)
        for _ in range(50):
            outcome = run_attack(sealed, family, rng)
            assert outcome.decoded == 2
            assert np.array_equal(outcome.post_state, [0, 0, 1, 0])

    def test_decode_frequencies_track_closed_form(self):
        sealed = product_seal(ProductSealSpec.shared_theta("0", math.pi / 6))
        family = MeasurementFamily(nu=0.5, dim=2)
        rng = np.random.default_rng(99)
        trials = 20_000
        hits = sum(run_attack(sealed, family, rng).decoded == 0 for _ in range(trials))
        sigma = math.sqrt(5 / 8 * 3 / 8 / trials)
        assert abs(hits / trials - 5 / 8) <= 3 * sigma

    def test_dimension_mismatch(self):
        sealed = product_seal(ProductSealSpec.shared_theta("0", 0.0))
        with pytest.raises(UsageError):
            run_attack(sealed, MeasurementFamily(nu=0.5, dim=4), np.random.default_rng(0))

    def test_post_states_average_fidelity_at_nu_half(self):
        # the nu = 1/2 escape floor, sampled
        sealed = product_seal(ProductSealSpec.shared_theta("010", math.pi / 6))
        family = MeasurementFamily(nu=0.5, dim=8)
        rng = np.random.default_rng(17)
        trials = 4000
        total = sum(
            fidelity(sealed, run_attack(sealed, family, rng).post_state)
            for _ in range(trials)
        )
        assert total / trials >= 0.5


class TestCoinToss:
    def test_q_zero_never_acts(self):
        sealed = product_seal(ProductSealSpec.shared_theta("01", math.pi / 12))
        rng = np.random.default_rng(1)
        for _ in range(100):
            outcome = coin_toss_attack(sealed, 0.0, rng)
            assert not outcome.acted
            assert outcome.post_state is sealed
            assert 0 <= outcome.decoded < 4

    def test_q_one_always_measures(self):
        sealed = product_seal(ProductSealSpec.shared_theta("0", math.pi / 6))
        rng = np.random.default_rng(2)
        trials = 20_000
        hits = 0
        for _ in range(trials):
            outcome = coin_toss_attack(sealed, 1.0, rng)
            assert outcome.acted
            assert np.sum(np.abs(outcome.post_state) > 0) == 1
            hits += outcome.decoded == 0
        sigma = math.sqrt(0.75 * 0.25 / trials)
        assert abs(hits / trials - 0.75) <= 3 * sigma

    def test_q_out_of_range(self):
        sealed = product_seal(ProductSealSpec.shared_theta("0", 0.0))
        with pytest.raises(UsageError):
            coin_toss_attack(sealed, 1.2, np.random.default_rng(0))

    def test_analytic_row_equals_decode_row_exactly(self):
        from sealsim.analysis import decode_probabilities

        rng = np.random.default_rng(2718)
        for n in (2, 4, 16):
            raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            weights = unit_norm_weights(raw / np.linalg.norm(raw), "row")
            for q in (0.0, 0.25, 0.5, 0.9, 1.0):
                assert np.array_equal(
                    coin_toss_probabilities(weights, q), decode_probabilities(weights, q)
                )

    def test_escape_probability_endpoints(self):
        row = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
        assert coin_toss_escape_probability(row, 0.0) == 1.0
        quartic = math.cos(math.pi / 6) ** 4 + math.sin(math.pi / 6) ** 4
        assert coin_toss_escape_probability(row, 1.0) == pytest.approx(quartic, abs=ATOL)

    def test_non_square_stack_divides_by_the_row_length(self):
        weights = np.eye(3, 4)
        probs = coin_toss_probabilities(weights, 0.5)
        assert probs.shape == (3, 4)
        assert np.allclose(probs[0], [0.625, 0.125, 0.125, 0.125], atol=ATOL, rtol=0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=ATOL, rtol=0)

    def test_stack_escape_is_one_value_per_row(self):
        rows = np.array([[1.0, 0.0], [math.cos(math.pi / 6), math.sin(math.pi / 6)]])
        escape = coin_toss_escape_probability(rows, 0.5)
        assert np.array_equal(escape, [coin_toss_escape_probability(r, 0.5) for r in rows])

    @pytest.mark.parametrize(
        "closed_form", [coin_toss_probabilities, coin_toss_escape_probability]
    )
    @pytest.mark.parametrize("row", [[1.0, 1.0], [math.nan, 0.0], [[1.0, 0.0], [0.5, 0.5]]])
    def test_non_unit_rows_are_rejected(self, closed_form, row):
        # coin_toss_probabilities takes weights, so it refuses amplitudes
        # outright; coin_toss_escape_probability checks their norms
        message = "complex" if closed_form is coin_toss_probabilities else "not unit-norm"
        with pytest.raises(UsageError, match=message):
            closed_form(np.asarray(row, dtype=complex), 0.5)

    def test_probabilities_refuse_unit_amplitude_rows(self):
        with pytest.raises(UsageError):
            coin_toss_probabilities(random_state(4, 31), 0.5)

    def test_empirical_escape_tracks_analytic(self):
        spec = ProductSealSpec.shared_theta("0", math.pi / 6)
        sealed = product_seal(spec)
        q = 0.5
        analytic = coin_toss_escape_probability(sealed, q)
        rng = np.random.default_rng(31)
        trials = 20_000
        passes = 0
        for _ in range(trials):
            outcome = coin_toss_attack(sealed, q, rng)
            passes += rng.random() < fidelity(sealed, outcome.post_state)
        sigma = math.sqrt(analytic * (1 - analytic) / trials)
        assert abs(passes / trials - analytic) <= 3 * sigma
