import math

import numpy as np
import pytest

from sealsim.analysis import average_fidelity, decode_probabilities
from sealsim.errors import DEFAULT_MAX_DIM, ResourceError, UsageError, ValidationError
from sealsim.montecarlo import (
    CHI_SQUARE_LEVEL,
    DRAWS_PER_ROUND,
    CoinTossStrategy,
    EmpiricalStats,
    ExperimentConfig,
    ExplicitSealSpec,
    FamilyStrategy,
    _chi_square_critical,
    chi_square_check,
    draw_table,
    replay_experiment,
    round_block,
    run_experiment,
    stats_record,
)
from sealsim.seals import OverlapMatrix, ProductSealSpec

PI6_SPEC = ProductSealSpec.shared_theta("0", math.pi / 6)


class TestDrawTable:
    def test_round_blocks_are_counter_addressable(self):
        # a worker jumping with Philox.advance(r) must land on round r's
        # exact block — the basis of order-independent parallel runs
        table = draw_table(seed=42, trials=100)
        for r in (0, 1, 57, 99):
            assert np.array_equal(round_block(42, r), table[r])

    def test_rows_have_one_counter_block(self):
        assert draw_table(7, 5).shape == (5, DRAWS_PER_ROUND)


class TestExperimentConfig:
    def test_trials_must_be_positive(self):
        with pytest.raises(UsageError):
            ExperimentConfig(seal=PI6_SPEC, strategy=FamilyStrategy(0.5), trials=0, seed=1)

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(UsageError):
            ExperimentConfig(seal=PI6_SPEC, strategy=FamilyStrategy(0.5), trials=1, seed=2**64)
        with pytest.raises(UsageError):
            ExperimentConfig(seal=PI6_SPEC, strategy=FamilyStrategy(0.5), trials=1, seed=-1)

    def test_describe_records_generator(self):
        config = ExperimentConfig(seal=PI6_SPEC, strategy=CoinTossStrategy(0.5), trials=10, seed=3)
        desc = config.describe()
        assert desc["generator"] == "philox4x64"
        assert desc["seed"] == 3 and desc["trials"] == 10
        assert desc["strategy"] == {"type": "coin", "q": 0.5}
        assert desc["seal"]["type"] == "product"

    def test_explicit_seal(self):
        seal = ExplicitSealSpec(overlaps=OverlapMatrix.identity(4), message=2)
        config = ExperimentConfig(seal=seal, strategy=FamilyStrategy(1.0), trials=5, seed=0)
        sealed = config.sealed_state()
        assert sealed.message == 2
        assert config.describe()["seal"] == {"type": "general", "dim": 4, "message": 2}

    def test_oversized_dimension_is_resource_error(self, monkeypatch):
        monkeypatch.setenv("SEALSIM_MAX_DIM", "4")
        spec = ProductSealSpec.shared_theta("000", 0.1)
        config = ExperimentConfig(seal=spec, strategy=FamilyStrategy(0.5), trials=1, seed=0)
        with pytest.raises(ResourceError):
            run_experiment(config)


class TestEmpiricalStats:
    def test_counts_must_sum_to_trials(self):
        with pytest.raises(ValidationError):
            EmpiricalStats(decode_counts=[1, 1], pass_count=0, trials=3)

    def test_pass_count_bounded(self):
        with pytest.raises(ValidationError):
            EmpiricalStats(decode_counts=[2, 1], pass_count=4, trials=3)


class TestRunExperiment:
    def test_reproducible_bit_for_bit(self):
        config = ExperimentConfig(seal=PI6_SPEC, strategy=FamilyStrategy(0.5), trials=5000, seed=11)
        first, second = run_experiment(config), run_experiment(config)
        assert np.array_equal(first.decode_counts, second.decode_counts)
        assert first.pass_count == second.pass_count

    @pytest.mark.parametrize(
        "strategy",
        [FamilyStrategy(0.5), FamilyStrategy(1.0), CoinTossStrategy(0.5), CoinTossStrategy(0.0)],
    )
    @pytest.mark.parametrize("seal", [PI6_SPEC, ProductSealSpec.shared_theta("10", math.pi / 12)])
    def test_vectorized_path_equals_per_round_replay(self, strategy, seal):
        config = ExperimentConfig(seal=seal, strategy=strategy, trials=2000, seed=23)
        fast, slow = run_experiment(config), replay_experiment(config)
        assert np.array_equal(fast.decode_counts, slow.decode_counts)
        assert fast.pass_count == slow.pass_count

    def test_nu_zero_all_pass_uniform_decode(self):
        config = ExperimentConfig(
            seal=ProductSealSpec.shared_theta("01", math.pi / 6),
            strategy=FamilyStrategy(0.0),
            trials=100_000,
            seed=5,
        )
        stats = run_experiment(config)
        assert stats.pass_count == stats.trials
        _, ok = chi_square_check(stats, np.full(4, 0.25))
        assert ok

    def test_nu_one_perfect_seal_reads_and_passes(self):
        seal = ExplicitSealSpec(overlaps=OverlapMatrix.identity(4), message=1)
        config = ExperimentConfig(seal=seal, strategy=FamilyStrategy(1.0), trials=5000, seed=6)
        stats = run_experiment(config)
        assert stats.decode_counts[1] == stats.trials
        assert stats.pass_count == stats.trials

    def test_nu_half_frequencies_and_pass_rate(self):
        config = ExperimentConfig(seal=PI6_SPEC, strategy=FamilyStrategy(0.5), trials=100_000, seed=7)
        stats = run_experiment(config)
        sigma = math.sqrt(5 / 8 * 3 / 8 / stats.trials)
        assert abs(stats.decode_counts[0] / stats.trials - 5 / 8) <= 3 * sigma

        row = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
        escape = average_fidelity(row, 0.5)
        sigma_pass = math.sqrt(escape * (1 - escape) / stats.trials)
        assert abs(stats.pass_count / stats.trials - escape) <= 3 * sigma_pass

    def test_disjoint_seeds_agree_within_combined_band(self):
        results = []
        for seed in (101, 202):
            config = ExperimentConfig(seal=PI6_SPEC, strategy=FamilyStrategy(0.5), trials=100_000, seed=seed)
            results.append(run_experiment(config))
        p1 = results[0].decode_counts[0] / results[0].trials
        p2 = results[1].decode_counts[0] / results[1].trials
        sigma = math.sqrt(2 * (5 / 8 * 3 / 8) / 100_000)
        assert abs(p1 - p2) <= 3 * sigma

    def test_coin_strategy_runs(self):
        config = ExperimentConfig(seal=PI6_SPEC, strategy=CoinTossStrategy(0.5), trials=50_000, seed=8)
        stats = run_experiment(config)
        expected = decode_probabilities(
            np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)]), 0.5
        )
        _, ok = chi_square_check(stats, expected)
        assert ok

    @pytest.mark.parametrize("q", [-0.1, 1.5, math.nan])
    def test_coin_probability_out_of_range_is_rejected_like_the_replay(self, q):
        config = ExperimentConfig(seal=PI6_SPEC, strategy=CoinTossStrategy(q), trials=10, seed=1)
        for path in (run_experiment, replay_experiment):
            with pytest.raises(UsageError):
                path(config)


class TestChiSquare:
    def test_exact_counts_give_zero(self):
        stats = EmpiricalStats(decode_counts=[750, 250], pass_count=0, trials=1000)
        statistic, ok = chi_square_check(stats, [0.75, 0.25])
        assert statistic == 0.0 and ok

    def test_concentrated_mass_fails_against_uniform(self):
        stats = EmpiricalStats(decode_counts=[100_000, 0, 0, 0], pass_count=0, trials=100_000)
        statistic, ok = chi_square_check(stats, [0.25] * 4)
        assert statistic > 1000 and not ok

    def test_zero_probability_cell_with_counts_fails(self):
        stats = EmpiricalStats(decode_counts=[999, 1], pass_count=0, trials=1000)
        statistic, ok = chi_square_check(stats, [1.0, 0.0])
        assert statistic == float("inf") and not ok

    def test_zero_probability_cell_without_counts_is_fine(self):
        stats = EmpiricalStats(decode_counts=[1000, 0], pass_count=0, trials=1000)
        _, ok = chi_square_check(stats, [1.0, 0.0])
        assert ok

    def test_expected_must_sum_to_one(self):
        stats = EmpiricalStats(decode_counts=[500, 500], pass_count=0, trials=1000)
        with pytest.raises(UsageError):
            chi_square_check(stats, [0.5, 0.4])

    def test_shape_mismatch(self):
        stats = EmpiricalStats(decode_counts=[500, 500], pass_count=0, trials=1000)
        with pytest.raises(UsageError):
            chi_square_check(stats, [0.5, 0.25, 0.25])

    def test_nan_expected_row_is_rejected(self):
        stats = EmpiricalStats(decode_counts=[500, 500], pass_count=0, trials=1000)
        with pytest.raises(UsageError):
            chi_square_check(stats, [0.5, math.nan])

    def test_zero_cells_do_not_count_as_degrees_of_freedom(self):
        # two live cells: chi-square 256 is far past the df=1 critical
        # value (10.8) even though it is below the df=255 one (330.5)
        expected = np.zeros(256)
        expected[:2] = 0.5
        counts = np.zeros(256, dtype=np.int64)
        counts[:2] = (5800, 4200)
        stats = EmpiricalStats(decode_counts=counts, pass_count=0, trials=10_000)
        statistic, ok = chi_square_check(stats, expected)
        assert statistic == pytest.approx(256.0) and not ok

    def test_single_live_cell_passes_without_a_quantile(self, monkeypatch):
        import sealsim.montecarlo as mc

        def no_quantile(df):
            raise AssertionError(f"quantile called with df={df}")

        monkeypatch.setattr(mc, "_chi_square_critical", no_quantile)
        stats = EmpiricalStats(decode_counts=[0, 1000, 0], pass_count=0, trials=1000)
        statistic, ok = chi_square_check(stats, [0.0, 1.0, 0.0])
        assert statistic == 0.0 and ok

    def test_critical_value_matches_scipy_within_tolerance(self):
        # every df a histogram under the default dimension cap can have,
        # plus two beyond it for a raised SEALSIM_MAX_DIM
        from scipy.stats import chi2

        dfs = list(range(1, DEFAULT_MAX_DIM)) + [8191, 65535]
        reference = chi2.ppf(CHI_SQUARE_LEVEL, dfs)
        off = [
            (df, _chi_square_critical(df), float(ref))
            for df, ref in zip(dfs, reference)
            if not abs(_chi_square_critical(df) - ref) <= 1e-12 * ref
        ]
        assert off == []

    def test_verdicts_match_scipy_next_to_the_critical_value(self):
        # cells 0 and 1 expected at (1 +- delta)/N against flat counts K
        # give chi-square 2 K delta^2 / (1 - delta^2), which is solved for
        # a statistic just below and just above scipy's critical value
        from scipy.stats import chi2

        per_cell = 10**6
        wrong = []
        for df in range(1, DEFAULT_MAX_DIM):
            n = df + 1
            critical = float(chi2.ppf(CHI_SQUARE_LEVEL, df))
            counts = np.full(n, per_cell, dtype=np.int64)
            stats = EmpiricalStats(decode_counts=counts, pass_count=0, trials=n * per_cell)
            for factor in (1 - 1e-10, 1 + 1e-10):
                target = critical * factor
                delta = math.sqrt(target / (2 * per_cell + target))
                expected = np.full(n, 1.0 / n)
                expected[0], expected[1] = (1 + delta) / n, (1 - delta) / n
                statistic, ok = chi_square_check(stats, expected)
                assert statistic == pytest.approx(target, rel=1e-12)
                if ok != (statistic < critical):
                    wrong.append((df, factor))
        assert wrong == []

    def test_seeded_run_passes_at_999_level(self):
        config = ExperimentConfig(seal=PI6_SPEC, strategy=FamilyStrategy(0.5), trials=100_000, seed=4242)
        stats = run_experiment(config)
        _, ok = chi_square_check(stats, [0.625, 0.375])
        assert ok


class TestStatsRecord:
    def test_schema_keys(self):
        config = ExperimentConfig(seal=PI6_SPEC, strategy=FamilyStrategy(0.5), trials=100, seed=1)
        record = stats_record(config, run_experiment(config))
        assert set(record) == {"config", "decode_counts", "pass_count", "trials"}
        assert record["config"]["generator"] == "philox4x64"
        assert record["config"]["seed"] == 1
        assert sum(record["decode_counts"]) == 100
        assert isinstance(record["decode_counts"][0], int)
