import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sealsim.montecarlo as mc

from oracles import draw_table, replay_experiment, round_block
from sealsim.analysis import average_fidelity, decode_probabilities
from sealsim.errors import DEFAULT_MAX_DIM, ResourceError, UsageError, ValidationError
from sealsim.montecarlo import (
    CHI_SQUARE_LEVEL,
    CHUNK_ROUNDS,
    DRAWS_PER_ROUND,
    CoinTossStrategy,
    EmpiricalStats,
    ExperimentConfig,
    ExplicitSealSpec,
    FamilyStrategy,
    _philox,
    _uniform,
    _upper_gamma,
    chi_square_check,
    draw_chunks,
    escape_band_check,
    run_experiment,
    stats_record,
)
from sealsim.seals import OverlapMatrix, ProductSealSpec, load_overlap_matrix

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

    @pytest.mark.parametrize("chunk", [1, 3, 7, 99, 100, 101])
    def test_chunks_concatenate_to_the_table(self, monkeypatch, chunk):
        monkeypatch.setattr(mc, "CHUNK_ROUNDS", chunk)
        blocks = list(draw_chunks(42, 100))
        assert all(len(block) <= chunk for block in blocks)
        assert all(block.dtype == np.uint64 for block in blocks)
        assert np.array_equal(_uniform(np.concatenate(blocks)), draw_table(42, 100))


def _bits(doubles: np.ndarray) -> np.ndarray:
    return doubles.view(np.uint64)


class TestUniformWords:
    """_uniform of raw Philox words is Generator.random, bit for bit."""

    DRAWS = 1 << 20

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_words_give_generator_random_across_block_boundaries(self, seed):
        # 2**20 draws and 5 rounds more, so that the last block is partial
        rounds = self.DRAWS // DRAWS_PER_ROUND + 5
        expected = _bits(np.random.Generator(_philox(seed)).random(rounds * DRAWS_PER_ROUND))
        words = _philox(seed).random_raw(rounds * DRAWS_PER_ROUND)
        assert np.array_equal(_bits(_uniform(words)), expected)
        blocks = list(draw_chunks(seed, rounds))
        assert len(blocks) > 2 and len(blocks[-1]) == 5
        drawn = np.concatenate([_uniform(block).ravel() for block in blocks])
        assert np.array_equal(_bits(drawn), expected)

    def test_the_extreme_words_map_to_the_ends_of_the_interval(self):
        words = np.array([0, 2**11 - 1, 2**11, 2**64 - 1], dtype=np.uint64)
        assert _uniform(words).tolist() == [0.0, 0.0, 2.0**-53, 1.0 - 2.0**-53]


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
        assert np.array_equal(config.sealed_row(), [0, 0, 1, 0])
        assert config.seal.message == 2
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

        weights = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)]) ** 2
        escape = average_fidelity(weights, 0.5)
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
            np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)]) ** 2, 0.5
        )
        _, ok = chi_square_check(stats, expected)
        assert ok

    @pytest.mark.parametrize("q", [-0.1, 1.5, math.nan])
    def test_coin_probability_out_of_range_is_rejected_like_the_replay(self, q):
        config = ExperimentConfig(seal=PI6_SPEC, strategy=CoinTossStrategy(q), trials=10, seed=1)
        for path in (run_experiment, replay_experiment):
            with pytest.raises(UsageError):
                path(config)


CHUNK_TRIALS = 5003
CHUNK_SEALS = {
    "random16": ExplicitSealSpec(
        overlaps=load_overlap_matrix(Path(__file__).parent / "data" / "random16.json"),
        message=3,
    ),
    "bits10": ProductSealSpec.shared_theta("10", math.pi / 12),
}
CHUNK_STRATEGIES = [FamilyStrategy(0.37), CoinTossStrategy(0.37)]


@pytest.fixture(scope="module")
def replayed():
    """replay_experiment at CHUNK_TRIALS, once per (seal, strategy)."""
    cache = {}

    def get(seal: str, strategy) -> mc.EmpiricalStats:
        if (seal, strategy) not in cache:
            config = ExperimentConfig(
                seal=CHUNK_SEALS[seal], strategy=strategy, trials=CHUNK_TRIALS, seed=29
            )
            cache[seal, strategy] = replay_experiment(config)
        return cache[seal, strategy]

    return get


class TestChunkedExperiment:
    @pytest.mark.parametrize(
        "chunk", [1, 3, 4096, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1]
    )
    @pytest.mark.parametrize("strategy", CHUNK_STRATEGIES, ids=["family", "coin"])
    @pytest.mark.parametrize("seal", sorted(CHUNK_SEALS))
    def test_counts_do_not_depend_on_the_chunk_size(
        self, monkeypatch, replayed, seal, strategy, chunk
    ):
        config = ExperimentConfig(
            seal=CHUNK_SEALS[seal], strategy=strategy, trials=CHUNK_TRIALS, seed=29
        )
        monkeypatch.setattr(mc, "CHUNK_ROUNDS", 10 * CHUNK_TRIALS)
        whole = run_experiment(config)
        monkeypatch.setattr(mc, "CHUNK_ROUNDS", chunk)
        chunked = run_experiment(config)
        oracle = replayed(seal, strategy)
        for reference in (whole, oracle):
            assert np.array_equal(chunked.decode_counts, reference.decode_counts)
            assert chunked.pass_count == reference.pass_count

    @pytest.mark.parametrize("strategy", CHUNK_STRATEGIES, ids=["family", "coin"])
    def test_memory_does_not_grow_with_trials(self, strategy):
        # a whole-table run holds about 50-70 bytes per round, so it would
        # peak 8x higher at 16 chunks than at 2
        def peak(trials: int) -> int:
            config = ExperimentConfig(
                seal=CHUNK_SEALS["random16"], strategy=strategy, trials=trials, seed=3
            )
            tracemalloc.start()
            try:
                run_experiment(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2 * CHUNK_ROUNDS), peak(16 * CHUNK_ROUNDS)
        assert large <= 1.25 * small

    @pytest.mark.parametrize("strategy", CHUNK_STRATEGIES, ids=["family", "coin"])
    def test_a_run_of_1e5_trials_peaks_under_1_mib(self, strategy):
        # a block's words and temporaries, the outcome and pass tables and
        # the histogram; a warm-up run first imports numpy.random, which
        # allocates about 1 MB once per process
        def config(trials: int) -> ExperimentConfig:
            return ExperimentConfig(
                seal=CHUNK_SEALS["random16"], strategy=strategy, trials=trials, seed=3
            )

        run_experiment(config(1))
        tracemalloc.start()
        try:
            run_experiment(config(100_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


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

    def test_single_live_cell_passes_without_a_tail_probability(self, monkeypatch):
        def no_tail(a, x):
            raise AssertionError(f"tail probability computed at a={a}, x={x}")

        monkeypatch.setattr(mc, "_upper_gamma", no_tail)
        stats = EmpiricalStats(decode_counts=[0, 1000, 0], pass_count=0, trials=1000)
        statistic, ok = chi_square_check(stats, [0.0, 1.0, 0.0])
        assert statistic == 0.0 and ok

    def test_zero_statistic_passes_without_a_tail_probability(self, monkeypatch):
        # Q(a, x) takes log(x), so x = 0 must not reach it
        def no_tail(a, x):
            raise AssertionError(f"tail probability computed at a={a}, x={x}")

        monkeypatch.setattr(mc, "_upper_gamma", no_tail)
        stats = EmpiricalStats(decode_counts=[500, 500], pass_count=0, trials=1000)
        assert chi_square_check(stats, [0.5, 0.5]) == (0.0, True)

    def test_overflowed_statistic_fails(self):
        # a count in a cell of subnormal probability overflows the statistic
        stats = EmpiricalStats(decode_counts=[1, 999], pass_count=0, trials=1000)
        with np.errstate(over="ignore"):
            assert chi_square_check(stats, [5e-324, 1.0]) == (math.inf, False)

    def test_tail_probability_matches_scipy_at_the_critical_values(self):
        # every df a histogram under the default dimension cap can have,
        # plus two beyond it for a raised SEALSIM_MAX_DIM
        from scipy.stats import chi2

        dfs = list(range(1, DEFAULT_MAX_DIM)) + [8191, 65535]
        critical = chi2.ppf(CHI_SQUARE_LEVEL, dfs)
        reference = chi2.sf(critical, dfs)
        off = [
            (df, _upper_gamma(df / 2, x / 2), float(ref))
            for df, x, ref in zip(dfs, critical, reference)
            if not abs(_upper_gamma(df / 2, x / 2) - ref) <= 1e-10 * ref
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


class TestEscapeBand:
    @staticmethod
    def stats(pass_count: int, trials: int) -> EmpiricalStats:
        return EmpiricalStats(decode_counts=[trials], pass_count=pass_count, trials=trials)

    def test_certain_escape_with_every_round_passing(self):
        assert escape_band_check(self.stats(1000, 1000), 1.0) == (1.0, 0.0, True)
        # an analytic value an ulp above 1 has no real sigma; the floor absorbs it
        assert escape_band_check(self.stats(1000, 1000), math.nextafter(1.0, 2.0)) == (
            1.0, 0.0, True
        )

    def test_impossible_escape_with_no_round_passing(self):
        assert escape_band_check(self.stats(0, 1000), 0.0) == (0.0, 0.0, True)

    def test_rate_just_inside_the_band(self):
        # escape 1/2 at 1e4 trials: 3 sigma = 3 * sqrt(0.25 / 1e4) = 0.015
        rate, three_sigma, ok = escape_band_check(self.stats(5149, 10_000), 0.5)
        assert (rate, three_sigma, ok) == (0.5149, pytest.approx(0.015, rel=1e-12), True)

    def test_rate_just_outside_the_band(self):
        rate, three_sigma, ok = escape_band_check(self.stats(5151, 10_000), 0.5)
        assert (rate, three_sigma, ok) == (0.5151, pytest.approx(0.015, rel=1e-12), False)


class TestStatsRecord:
    def test_schema_keys(self):
        config = ExperimentConfig(seal=PI6_SPEC, strategy=FamilyStrategy(0.5), trials=100, seed=1)
        record = stats_record(config, run_experiment(config))
        assert set(record) == {"config", "decode_counts", "pass_count", "trials"}
        assert record["config"]["generator"] == "philox4x64"
        assert record["config"]["seed"] == 1
        assert sum(record["decode_counts"]) == 100
        assert isinstance(record["decode_counts"][0], int)
