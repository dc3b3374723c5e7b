import math

import numpy as np
import pytest

import sealsim.analysis as analysis

from oracles import apply_and_normalize, family_operator, flat_posterior_mass
from sealsim.analysis import (
    average_fidelity,
    bit_seal_point,
    decode_matrix,
    decode_probabilities,
    escape_probability,
    mutual_information,
    tradeoff_sweep,
)
from sealsim.attacks import MeasurementFamily
from sealsim.errors import UsageError, unit_norm_weights
from sealsim.montecarlo import ExperimentConfig, FamilyStrategy, chi_square_check, run_experiment
from sealsim.seals import OverlapMatrix, ProductSealSpec, overlap_matrix

ATOL = 1e-12

# frozen oracle value: brute-force joint-distribution enumeration of the
# m = 3, theta = 0 seal at nu = 1/2 (rows 9/16 diagonal, 1/16 elsewhere)
MI_M3_THETA0_NU_HALF = 0.7830828133113005
# frozen oracle value: 1 - sum_i (a + b c_i^2)^2 at theta = pi/6, nu = 1/2
BETA_PI6_NU_HALF = 0.05024047358083561


def pi6_matrix() -> OverlapMatrix:
    return overlap_matrix(ProductSealSpec.shared_theta("0", math.pi / 6))


def weights_of(amplitudes) -> np.ndarray:
    """A caller's path from amplitude rows to the weights the analysis takes."""
    return unit_norm_weights(np.asarray(amplitudes, dtype=complex), "amplitude row")


class TestDecodeMatrix:
    def test_identity_rows(self):
        for nu in (0.0, 0.3, 1.0):
            probs = decode_matrix(OverlapMatrix.identity(4), nu)
            off = (1 - nu) / 4
            expected = np.full((4, 4), off)
            np.fill_diagonal(expected, off + nu)
            assert np.allclose(probs, expected, atol=ATOL)

    def test_nu_half_rows(self):
        probs = decode_matrix(pi6_matrix(), 0.5)
        assert np.allclose(probs, [[0.625, 0.375], [0.375, 0.625]], atol=ATOL)

    def test_rows_stochastic_and_floored(self):
        rng = np.random.default_rng(55)
        raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        for nu in np.linspace(0, 1, 11):
            probs = decode_matrix(OverlapMatrix(raw), nu)
            sums = probs.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= ATOL
            assert np.min(probs) >= (1 - nu) / 8 - 1e-15

    def test_closed_form_matches_dense_simulation(self):
        for n in (2, 4, 16):
            rng = np.random.default_rng(n)
            for _ in range(20):
                raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                row = raw / np.linalg.norm(raw)
                for nu in np.linspace(0, 1, 11):
                    family = MeasurementFamily(nu=nu, dim=n)
                    closed = decode_probabilities(weights_of(row), nu)
                    for i in range(n):
                        prob, _ = apply_and_normalize(family_operator(family, i), row)
                        assert abs(prob - closed[i]) <= ATOL

    def test_nu_out_of_range(self):
        with pytest.raises(UsageError):
            decode_matrix(pi6_matrix(), 1.1)

    def test_nan_rows_are_stopped_where_the_weights_are_made(self):
        # decode_probabilities and average_fidelity take weights checked here
        with pytest.raises(UsageError, match="not unit-norm"):
            weights_of([math.nan, 1.0])

    def test_a_row_that_is_not_unit_norm_is_named_with_its_sum(self):
        with pytest.raises(UsageError, match="not unit-norm") as one:
            weights_of([1.0, 0.5])
        assert str(one.value) == "amplitude row is not unit-norm: sum |c|^2 = 1.25"
        rows = np.eye(3, dtype=complex)
        rows[1, 0] = 0.5
        with pytest.raises(UsageError, match="not unit-norm") as stack:
            weights_of(rows)
        assert str(stack.value) == "amplitude row rows [1] are not unit-norm (sum |c|^2 = [1.25])"
        # a 3-d stack names its rows by flat index: row (1, 0) is row 2
        rows = np.zeros((2, 2, 3), dtype=complex)
        rows[..., 0] = 1.0
        rows[1, 0, 2] = 0.5
        with pytest.raises(UsageError, match="not unit-norm") as deep:
            weights_of(rows)
        assert str(deep.value) == "amplitude row rows [2] are not unit-norm (sum |c|^2 = [1.25])"

    def test_decode_probabilities_refuses_amplitude_rows(self):
        amplitudes = pi6_matrix().coefficients
        with pytest.raises(UsageError):
            decode_probabilities(amplitudes[0], 0.5)
        with pytest.raises(UsageError):
            decode_probabilities(amplitudes, 0.5)

    def test_decode_probabilities_of_a_stack_match_row_by_row(self):
        weights = overlap_matrix(ProductSealSpec.shared_theta("010", 0.3)).weights
        stacked = decode_probabilities(weights, 0.4)
        for row, probs in zip(weights, stacked):
            assert np.array_equal(probs, decode_probabilities(row, 0.4))

    def test_a_stack_with_one_bad_row_is_stopped_where_the_weights_are_made(self):
        rows = np.eye(4, dtype=complex)
        rows[2, 2] = math.nan
        with pytest.raises(UsageError, match="not unit-norm"):
            weights_of(rows)
        with pytest.raises(UsageError, match="not unit-norm"):
            OverlapMatrix(rows)


class TestFlatPosteriorMass:
    def test_nu_zero_fully_flat(self):
        probs = decode_matrix(pi6_matrix(), 0.0)
        assert flat_posterior_mass(probs, 0.0, 0) == pytest.approx(1.0, abs=ATOL)
        assert flat_posterior_mass(probs, 0.0, 1) == pytest.approx(1.0, abs=ATOL)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 12, math.pi / 6, math.pi / 4])
    def test_half_for_product_seals_at_nu_half(self, m, theta):
        om = overlap_matrix(ProductSealSpec.shared_theta("0" * m, theta))
        probs = decode_matrix(om, 0.5)
        for decoded in range(om.dim):
            assert abs(flat_posterior_mass(probs, 0.5, decoded) - 0.5) <= ATOL

    def test_zero_for_projective_read_of_perfect_seal(self):
        probs = decode_matrix(OverlapMatrix.identity(4), 1.0)
        assert flat_posterior_mass(probs, 1.0, 0) == 0.0

    def test_zero_marginal_is_an_error(self):
        # both messages sealed to |0>: basis state 1 is never decoded at nu=1
        om = OverlapMatrix([[1.0, 0.0], [1.0, 0.0]])
        probs = decode_matrix(om, 1.0)
        with pytest.raises(UsageError):
            flat_posterior_mass(probs, 1.0, 1)

    def test_decoded_out_of_range(self):
        probs = decode_matrix(pi6_matrix(), 0.5)
        with pytest.raises(UsageError):
            flat_posterior_mass(probs, 0.5, 2)


class TestMutualInformation:
    def test_zero_at_nu_zero(self):
        assert mutual_information(decode_matrix(pi6_matrix(), 0.0)) <= ATOL

    def test_log2n_for_perfect_projective_read(self):
        for n in (2, 8, 16):
            mi = mutual_information(decode_matrix(OverlapMatrix.identity(n), 1.0))
            assert abs(mi - math.log2(n)) <= ATOL

    def test_zero_for_flat_seal_at_any_nu(self):
        om = overlap_matrix(ProductSealSpec.shared_theta("00", math.pi / 4))
        for nu in np.linspace(0, 1, 11):
            assert mutual_information(decode_matrix(om, nu)) <= ATOL

    def test_frozen_oracle_value(self):
        om = overlap_matrix(ProductSealSpec.shared_theta("000", 0.0))
        mi = mutual_information(decode_matrix(om, 0.5))
        assert abs(mi - MI_M3_THETA0_NU_HALF) <= ATOL

    @pytest.mark.parametrize(
        "probs",
        [
            np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.25, 0.25, 0.5]]),  # 2 messages x 4 outcomes
            np.array([[0.9, 0.1], [0.3, 0.7], [0.5, 0.5]]),  # 3 x 2, no zeros
        ],
    )
    def test_non_square_matrices_match_a_direct_entropy_sum(self, probs):
        def entropy(p):
            return -sum(x * math.log2(x) for x in p if x > 0.0)

        direct = entropy(probs.mean(axis=0)) - np.mean([entropy(row) for row in probs])
        assert abs(mutual_information(probs) - direct) <= ATOL

    @pytest.mark.parametrize("zero_rows", [0, 1, 3])
    def test_zero_free_rows_take_one_reduction(self, monkeypatch, zero_rows):
        # _entropy_bits runs for the marginal and once per row with a zero;
        # the zero-free rows share one axis=1 sum, bit for bit the same
        calls = []
        entropy_bits = analysis._entropy_bits

        def counted(distribution):
            calls.append(distribution)
            return entropy_bits(distribution)

        probs = decode_matrix(overlap_matrix(ProductSealSpec.shared_theta("00", 0.3)), 0.5).copy()
        probs[:zero_rows] = [0.5, 0.5, 0.0, 0.0]
        monkeypatch.setattr(analysis, "_entropy_bits", counted)
        mutual_information(probs)
        assert len(calls) == 1 + zero_rows

    def test_bounds(self):
        rng = np.random.default_rng(123)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        for nu in (0.0, 0.5, 1.0):
            mi = mutual_information(decode_matrix(OverlapMatrix(raw), nu))
            assert 0.0 <= mi <= math.log2(4) + ATOL


class TestAverageFidelity:
    def test_nu_zero_is_one(self):
        weights = pi6_matrix().weights[0]
        assert average_fidelity(weights, 0.0) == pytest.approx(1.0, abs=ATOL)

    def test_projective_read_of_pi6_seal(self):
        weights = pi6_matrix().weights[0]
        assert average_fidelity(weights, 1.0) == pytest.approx(0.625, abs=ATOL)

    @pytest.mark.parametrize("m,expected", [(1, 0.5), (4, 0.0625), (10, 0.0009765625)])
    def test_uniform_seal_collapses_to_one_over_n(self, m, expected):
        from sealsim.seals import product_seal

        row = product_seal(ProductSealSpec.shared_theta("0" * m, math.pi / 4))
        assert abs(average_fidelity(weights_of(row), 1.0) - expected) <= ATOL

    def test_quartic_sum_at_nu_one(self):
        rng = np.random.default_rng(9)
        for n in (2, 4, 16):
            raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            row = raw / np.linalg.norm(raw)
            quartic = float(np.sum(np.abs(row) ** 4))
            assert abs(average_fidelity(weights_of(row), 1.0) - quartic) <= ATOL

    def test_escape_floor_at_nu_half(self):
        rng = np.random.default_rng(10)
        for n in (2, 4, 16):
            raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            row = raw / np.linalg.norm(raw)
            assert average_fidelity(weights_of(row), 0.5) >= 0.5

    def test_a_stack_of_rows_is_read_along_its_last_axis(self):
        # three rows of N = 4: the family is the one for N = 4, not N = 3
        stack = np.random.default_rng(12).dirichlet(np.ones(4), size=3)
        per_row = [average_fidelity(row, 0.5) for row in stack]
        assert average_fidelity(stack, 0.5).tolist() == per_row

    def test_non_unit_row_is_stopped_where_the_weights_are_made(self):
        with pytest.raises(UsageError, match="not unit-norm"):
            weights_of([1.0, 1.0])

    def test_refuses_amplitude_rows(self):
        amplitudes = pi6_matrix().coefficients
        with pytest.raises(UsageError):
            average_fidelity(amplitudes[0], 0.5)
        with pytest.raises(UsageError):
            average_fidelity(amplitudes, 0.5)

    def test_nu_out_of_range(self):
        with pytest.raises(UsageError):
            average_fidelity([1.0, 0.0], -0.5)


class TestTradeoffSweep:
    def test_endpoint_nu_zero(self):
        points = tradeoff_sweep(pi6_matrix(), [0.0, 1.0])
        assert points[0].mutual_information <= ATOL
        assert points[0].escape_probability == pytest.approx(1.0, abs=ATOL)
        assert points[0].guess_probability == pytest.approx(0.5, abs=ATOL)

    def test_identity_seal_at_nu_one(self):
        points = tradeoff_sweep(OverlapMatrix.identity(4), [0.0, 1.0])
        end = points[-1]
        assert abs(end.mutual_information - 2.0) <= ATOL
        assert end.escape_probability == pytest.approx(1.0, abs=ATOL)

    def test_monotone_information_antitone_escape(self):
        om = overlap_matrix(ProductSealSpec.shared_theta("0000", math.pi / 12))
        points = tradeoff_sweep(om, np.linspace(0, 1, 21))
        mi = [p.mutual_information for p in points]
        escape = [p.escape_probability for p in points]
        assert all(b >= a - ATOL for a, b in zip(mi, mi[1:]))
        assert all(b <= a + ATOL for a, b in zip(escape, escape[1:]))

    def test_flat_mass_equals_one_minus_nu(self):
        om = overlap_matrix(ProductSealSpec.shared_theta("01", math.pi / 6))
        for p in tradeoff_sweep(om, [0.0, 0.25, 0.5, 0.75, 1.0]):
            assert p.flat_mass == 1.0 - p.nu

    def test_every_grid_point_cross_checked_by_sampling(self):
        # the full 21-point curve validated against 1e5 seeded rounds each
        spec = ProductSealSpec.shared_theta("0110", math.pi / 12)
        om = overlap_matrix(spec)
        message = spec.message
        for nu in np.linspace(0, 1, 21):
            nu = float(nu)
            config = ExperimentConfig(
                seal=spec, strategy=FamilyStrategy(nu=nu), trials=100_000, seed=2026
            )
            stats = run_experiment(config)
            expected = decode_probabilities(om.weights[message], nu)
            _, ok = chi_square_check(stats, expected)
            assert ok, f"decode histogram off at nu={nu}"
            analytic = average_fidelity(om.weights[message], nu)
            rate = stats.pass_count / stats.trials
            sigma = math.sqrt(analytic * (1 - analytic) / stats.trials)
            assert abs(rate - analytic) <= max(3 * sigma, 1e-9), f"escape off at nu={nu}"

    def test_grid_validation(self):
        with pytest.raises(UsageError):
            tradeoff_sweep(pi6_matrix(), [0.5, 0.25])
        with pytest.raises(UsageError):
            tradeoff_sweep(pi6_matrix(), [0.0, 1.5])
        with pytest.raises(UsageError):
            tradeoff_sweep(pi6_matrix(), [])
        with pytest.raises(UsageError, match="strictly increasing"):
            tradeoff_sweep(pi6_matrix(), [0.2, 0.2])


class TestBitSealPoint:
    def test_perfect_seal_projective_read(self):
        alpha, beta = bit_seal_point(0.0, 1.0)
        assert alpha == pytest.approx(1.0, abs=ATOL)
        assert beta == pytest.approx(0.0, abs=ATOL)

    def test_blind_guess(self):
        alpha, beta = bit_seal_point(0.0, 0.0)
        assert alpha == pytest.approx(0.5, abs=ATOL)
        assert beta == pytest.approx(0.0, abs=ATOL)

    def test_frozen_oracle_point(self):
        alpha, beta = bit_seal_point(math.pi / 6, 0.5)
        assert alpha == pytest.approx(5 / 8, abs=ATOL)
        assert abs(beta - BETA_PI6_NU_HALF) <= ATOL

    def test_beta_bounded_at_nu_half(self):
        for theta in np.linspace(0, math.pi / 4, 16):
            _, beta = bit_seal_point(float(theta), 0.5)
            assert beta <= 0.5 + ATOL

    def test_alpha_consistent_with_decode_matrix(self):
        theta = math.pi / 12
        om = overlap_matrix(ProductSealSpec.shared_theta("0", theta))
        probs = decode_matrix(om, 0.5)
        alpha, _ = bit_seal_point(theta, 0.5)
        assert abs(alpha - probs[0, 0]) <= ATOL

    def test_range_checks(self):
        with pytest.raises(UsageError):
            bit_seal_point(1.0, 0.5)
        with pytest.raises(UsageError):
            bit_seal_point(0.1, 2.0)


class TestEscapeProbability:
    def test_mean_over_messages(self):
        om = pi6_matrix()
        direct = np.mean([average_fidelity(weights, 0.5) for weights in om.weights])
        assert escape_probability(om, 0.5) == pytest.approx(float(direct), abs=ATOL)
