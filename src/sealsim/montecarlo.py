"""Seeded Monte Carlo of seal -> attack -> verify rounds.

Determinism contract: an experiment draws from one philox4x64
counter-based stream keyed by (base seed, 0), and round r owns exactly
one Philox counter block — the four 64-bit words at stream positions
[4r, 4r+4).  A worker can jump straight to any round's block with
``Philox.advance(r)``, so results are bit-identical for a fixed seed
and trial count no matter how rounds are scheduled, and the generator
name is recorded in the emitted stats so runs are auditable.

The draws are the raw words of the bit generator, whose stream numpy
keeps stable (NEP 19), not the output of a `Generator` method, which it
does not.  `_uniform` turns a word w into the double (w >> 11) * 2**-53,
bit for bit the one `Generator.random` makes of the same word.

Within its block a round consumes draws in a fixed order: measurement
family — outcome, verify; coin toss — coin, outcome-or-guess, verify.
Unused slots are discarded and never converted.  `run_experiment` walks
the draw table block by block: one bit generator yields consecutive
blocks of at most CHUNK_ROUNDS rounds, each block is vectorized and its
histogram and pass count are added to the totals, so memory is
O(CHUNK_ROUNDS) for any trial count and the counts do not depend on the
block size.

The reference this contract is checked against lives in the test
suite, not here: `tests/oracles.py::replay_experiment` walks the whole
table one round at a time through a per-round attack and verifier, and
`tests/oracles.py::round_block` reaches round r's block by jumping the
counter, both drawing through `Generator.random`; the tests assert that
both agree with `run_experiment` and `draw_chunks`.  (The bulk path's
pass probabilities are closed forms; they may differ from the replayed
fidelities by rounding, so a draw within an ulp of a threshold could
split the two.)

Sampler contract: an outcome draw u in [0, 1) selects, by inverse CDF,
`_sample_index(cumulative, u)` over the `np.cumsum` of weights that sum
to 1: the first outcome whose running sum exceeds u times the total, or
the last outcome if none does.  `run_experiment` builds a `_GuideTable`
once per run and looks each draw up in it, searching only the draws that
land in a bin holding a step of the CDF; it selects that same outcome
for every draw, so the counts do not depend on the table.  `validate`
judges one run against the strategy's closed forms.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Union

import numpy as np

from .analysis import average_fidelity, decode_probabilities
from .attacks import MeasurementFamily, coin_toss_escape_probability, coin_toss_probabilities
from .errors import UsageError, check_unit_interval
from .seals import OverlapMatrix, ProductSealSpec, product_seal

GENERATOR_NAME = "philox4x64"
CHI_SQUARE_LEVEL = 0.999
DRAWS_PER_ROUND = 4  # one Philox counter block
CHUNK_ROUNDS = 1 << 12  # rounds per bulk block: 128 KiB of words, which stay in cache


def _integer(name: str, value) -> int:
    """value as a Python int; UsageError unless it is an int or a numpy integer.

    A bool, a float and a str are refused, not converted: they would index
    or seed as some other integer, or fail far from where they entered.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class ExplicitSealSpec:
    """A seal given directly as an overlap matrix plus the sealed message."""

    overlaps: OverlapMatrix
    message: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "message", _integer("message", self.message))
        # a negative message would index a row from the end
        if not 0 <= self.message < self.overlaps.dim:
            raise UsageError(f"message {self.message} out of range for dim {self.overlaps.dim}")

    def describe(self) -> dict:
        return {"type": "general", "dim": self.overlaps.dim, "message": self.message}


@dataclass(frozen=True)
class FamilyStrategy:
    """Attack with the nu-parameterized measurement family."""

    nu: float

    def __post_init__(self) -> None:
        check_unit_interval("nu", self.nu)

    def describe(self) -> dict:
        return {"type": "family", "nu": self.nu}


@dataclass(frozen=True)
class CoinTossStrategy:
    """Classical coin-toss attack with read probability q."""

    q: float

    def __post_init__(self) -> None:
        check_unit_interval("read probability", self.q)

    def describe(self) -> dict:
        return {"type": "coin", "q": self.q}


SealSpec = Union[ProductSealSpec, ExplicitSealSpec]
Strategy = Union[FamilyStrategy, CoinTossStrategy]


def check_trials_and_seed(trials: int, seed: int) -> tuple[int, int]:
    """(trials, seed) as Python ints, checked: 1 <= trials < 2**63, 0 <= seed < 2**64.

    Anything else, a bool, a float or a str too, raises UsageError.
    """
    trials, seed = _integer("trials", trials), _integer("seed", seed)
    if trials < 1:
        raise UsageError(f"trials must be at least 1, got {trials}")
    if trials >= 2**63:  # more rounds than the int64 decode counts can hold
        raise UsageError(f"trials must be at most 2**63 - 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise UsageError("seed must be a 64-bit unsigned integer")
    return trials, seed


@dataclass(frozen=True)
class ExperimentConfig:
    seal: SealSpec
    strategy: Strategy
    trials: int
    seed: int

    def __post_init__(self) -> None:
        trials, seed = check_trials_and_seed(self.trials, self.seed)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)

    def sealed_row(self) -> np.ndarray:
        """The read-only, unit-norm amplitude row of the sealed message."""
        if isinstance(self.seal, ProductSealSpec):
            return product_seal(self.seal)
        return self.seal.overlaps.coefficients[self.seal.message]

    def describe(self) -> dict:
        seal_desc = (
            {"type": "product", "bits": self.seal.bits, "thetas": list(self.seal.thetas)}
            if isinstance(self.seal, ProductSealSpec)
            else self.seal.describe()
        )
        return {
            "seal": seal_desc,
            "strategy": self.strategy.describe(),
            "trials": self.trials,
            "seed": self.seed,
            "generator": GENERATOR_NAME,
        }


@dataclass(frozen=True, eq=False)
class EmpiricalStats:
    """Decode histogram and verifier pass count over all trials."""

    decode_counts: np.ndarray
    pass_count: int
    trials: int

    def __init__(self, decode_counts, pass_count: int, trials: int) -> None:
        counts = np.array(decode_counts, dtype=np.int64)
        if counts.ndim != 1:
            raise UsageError("decode_counts must be a 1-d histogram")
        if not np.array_equal(counts, decode_counts) or np.any(counts < 0):
            raise UsageError("decode counts must be whole numbers >= 0")
        if trials < 1:
            raise UsageError(f"trials must be at least 1, got {trials}")
        if int(counts.sum()) != trials:
            raise UsageError(
                f"decode counts sum to {int(counts.sum())}, expected {trials}"
            )
        if not float(pass_count).is_integer():
            raise UsageError(f"pass count must be a whole number, got {pass_count}")
        if not 0 <= pass_count <= trials:
            raise UsageError(f"pass count {pass_count} outside [0, {trials}]")
        counts.setflags(write=False)
        object.__setattr__(self, "decode_counts", counts)
        object.__setattr__(self, "pass_count", int(pass_count))
        object.__setattr__(self, "trials", int(trials))


def _philox(seed: int) -> np.random.Philox:
    """The experiment's bit generator: philox4x64 keyed by (seed, 0)."""
    return np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))


def draw_chunks(seed: int, trials: int) -> Iterator[np.ndarray]:
    """The draw table's raw words in consecutive blocks of at most CHUNK_ROUNDS rounds.

    Each block is a uint64 array shaped (rounds, 4), one counter block
    per round; `_uniform` reads a slot as a draw.  One bit generator
    serves every block, so round r keeps stream positions [4r, 4r+4) and
    `_uniform` of the concatenated blocks is the whole draw table.
    """
    bit_generator = _philox(seed)
    for start in range(0, trials, CHUNK_ROUNDS):
        rounds = min(CHUNK_ROUNDS, trials - start)
        yield bit_generator.random_raw(rounds * DRAWS_PER_ROUND).reshape(rounds, DRAWS_PER_ROUND)


def _uniform(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw words: the top 53 bits, as Generator.random makes them."""
    return (words >> 11) * 2.0**-53


def _sample_index(cumulative: np.ndarray, uniforms):
    """Outcome index for a uniform draw, or an array of draws, by inverse CDF.

    `cumulative` holds the `np.cumsum` running sums of the weights.
    """
    index = np.searchsorted(cumulative, uniforms * cumulative[-1], side="right")
    return np.minimum(index, len(cumulative) - 1)


class _GuideTable:
    """_sample_index over one cumulative table, looked up by bins of [0, 1).

    The table splits [0, 1) into K bins, K the power of two at or above
    16 N, and stores for bin k the outcomes of its lowest and highest
    draws, _sample_index(cumulative, k/K) and that of the double just
    below (k+1)/K.  u K is exact and u * total is monotone in u, so a
    draw in a bin whose two outcomes agree has that outcome; only draws
    in the other bins, which hold a step of the CDF, are searched.
    Calling the table on draws gives _sample_index(cumulative, draws),
    draw for draw.
    """

    def __init__(self, cumulative: np.ndarray) -> None:
        self.cumulative = cumulative
        self.bins = 1 << (16 * len(cumulative) - 1).bit_length()
        edges = np.arange(self.bins + 1) / self.bins
        self.first = _sample_index(cumulative, edges[:-1])
        self.split = self.first != _sample_index(cumulative, np.nextafter(edges[1:], 0.0))

    def __call__(self, uniforms: np.ndarray) -> np.ndarray:
        bins = (uniforms * self.bins).astype(np.intp)
        index = self.first[bins]
        searched = np.flatnonzero(self.split[bins])
        index[searched] = _sample_index(self.cumulative, uniforms[searched])
        return index


def _family_tables(
    weights: np.ndarray, family: MeasurementFamily
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities p_i and per-outcome pass probabilities from |c|^2.

    Outcome i leaves (a c + b c_i |i>) / sqrt(p_i), whose fidelity with
    the sealed state c is (a + b |c_i|^2)^2 / p_i; an outcome that never
    occurs (p_i = 0) never passes.
    """
    a, b = family.a, family.b
    probs = family.outcome_probabilities(weights)
    live = probs > 0.0
    pass_probs = np.zeros(family.dim)
    pass_probs[live] = np.minimum((a + b * weights[live]) ** 2 / probs[live], 1.0)
    return probs, pass_probs


def run_experiment(config: ExperimentConfig) -> EmpiricalStats:
    """Replay trials of seal -> attack -> verify; deterministic per config.

    Bit-identical to tests/oracles.py::replay_experiment, which drives a
    per-round attack and verifier over the same draw table.  The tables
    are built once; the rounds are tallied in draw_chunks blocks.
    """
    weights = np.abs(config.sealed_row()) ** 2
    n = len(weights)

    if isinstance(config.strategy, FamilyStrategy):
        family = MeasurementFamily(nu=config.strategy.nu, dim=n)
        probs, pass_probs = _family_tables(weights, family)
        sample = _GuideTable(np.cumsum(probs))

        def tally(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            outcomes = sample(_uniform(words[:, 0]))
            return outcomes, _uniform(words[:, 1]) < pass_probs[outcomes]

    else:
        q = config.strategy.q
        sample = _GuideTable(np.cumsum(weights))

        def tally(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            acted = _uniform(words[:, 0]) < q
            read = _uniform(words[:, 1])
            honest = sample(read)
            guesses = np.minimum((read * n).astype(np.int64), n - 1)
            # collapsed to |i>: passes with fidelity |c_i|^2; untouched: the
            # verifier sees the original back and passes
            passes = _uniform(words[:, 2]) < np.where(acted, weights[honest], 1.0)
            return np.where(acted, honest, guesses), passes

    counts = np.zeros(n, dtype=np.int64)
    pass_count = 0
    for words in draw_chunks(config.seed, config.trials):
        outcomes, passes = tally(words)
        counts += np.bincount(outcomes, minlength=n)
        pass_count += int(np.count_nonzero(passes))
    return EmpiricalStats(decode_counts=counts, pass_count=pass_count, trials=config.trials)


def chi_square_check(stats: EmpiricalStats, expected) -> tuple[float, bool]:
    """Pearson chi-square of the decode histogram against an expected row.

    Passes when the statistic is below the 99.9th percentile of the
    chi-square distribution with K-1 degrees of freedom, K being the
    number of cells with positive expected probability: exactly when its
    upper tail P(chi-square_df > statistic) exceeds 1 - CHI_SQUARE_LEVEL.
    A nonzero count in a zero-probability cell fails outright; one live
    cell passes, since its count is the trial count.
    """
    expected = np.asarray(expected, dtype=float)
    if expected.shape != stats.decode_counts.shape:
        raise UsageError(
            f"expected row shape {expected.shape} does not match "
            f"histogram shape {stats.decode_counts.shape}"
        )
    if not abs(float(expected.sum()) - 1.0) <= 1e-9:
        raise UsageError(f"expected probabilities sum to {expected.sum()}, not 1")
    if np.any(expected < 0.0):
        raise UsageError("expected probabilities must not be negative")

    counts = stats.decode_counts.astype(float)
    live = expected > 0.0
    if np.any(counts[~live] > 0):
        return float("inf"), False
    expected_counts = expected[live] * stats.trials
    statistic = float(np.sum((counts[live] - expected_counts) ** 2 / expected_counts))
    df = expected_counts.size - 1
    if df == 0:
        return statistic, True
    return statistic, _chi_square_tail(df, statistic) > 1.0 - CHI_SQUARE_LEVEL


def escape_band_check(stats: EmpiricalStats, escape: float) -> tuple[float, float, bool]:
    """(rate, three_sigma, ok): the pass rate against the analytic escape probability.

    Passes when the rate lies within 3 binomial sigma of `escape`.  The
    1e-9 floor keeps the degenerate endpoints (escape exactly 0 or 1,
    sigma = 0) from failing on representation noise.
    """
    rate = stats.pass_count / stats.trials
    three_sigma = 3.0 * math.sqrt(max(escape * (1.0 - escape), 0.0) / stats.trials)
    return rate, three_sigma, abs(rate - escape) <= max(three_sigma, 1e-9)


def _chi_square_tail(df: int, statistic: float) -> float:
    """P(chi-square_df > statistic) for a whole number df >= 0 and a statistic >= 0.

    A finite sum in x = statistic/2: start from Q(1/2, x) = erfc(sqrt x)
    for odd df or Q(0, x) = 0 for even df, then add x^s e^-x / Gamma(s + 1)
    for each step from s to s + 1, df // 2 times (DLMF 8.8.2; A&S 26.4.4-5).
    """
    x = statistic / 2
    if x == 0.0:  # no log 0; with df = 0 the chi-square is 0 itself
        return float(df > 0)
    if x == math.inf:  # the terms would read inf - inf
        return 0.0
    s, tail = (0.5, math.erfc(math.sqrt(x))) if df % 2 else (0.0, 0.0)
    log_x = math.log(x)
    for _ in range(df // 2):
        tail += math.exp(s * log_x - x - math.lgamma(s + 1.0))
        s += 1.0
    return tail


def stats_record(config: ExperimentConfig, stats: EmpiricalStats) -> dict:
    """JSON-ready record: {config, decode_counts, pass_count, trials}."""
    return {
        "config": config.describe(),
        "decode_counts": stats.decode_counts.tolist(),
        "pass_count": stats.pass_count,
        "trials": stats.trials,
    }


def validate(config: ExperimentConfig) -> dict:
    """One judged run: stats_record plus "checks" against the strategy's closed forms.

    chi_square_check judges the decode histogram, escape_band_check the pass rate.
    """
    sealed_row = config.sealed_row()
    weights = np.abs(sealed_row) ** 2
    strategy = config.strategy
    if isinstance(strategy, FamilyStrategy):
        expected = decode_probabilities(weights, strategy.nu)
        escape = average_fidelity(weights, strategy.nu)
    else:
        expected = coin_toss_probabilities(weights, strategy.q)
        escape = coin_toss_escape_probability(sealed_row, strategy.q)
    stats = run_experiment(config)
    statistic, chi_ok = chi_square_check(stats, expected)
    rate, three_sigma, escape_ok = escape_band_check(stats, escape)
    record = stats_record(config, stats)
    record["checks"] = {
        "chi_square": {"statistic": statistic, "pass": chi_ok},
        "escape": {
            "analytic": escape,
            "empirical": rate,
            "three_sigma": three_sigma,
            "pass": escape_ok,
        },
    }
    return record
